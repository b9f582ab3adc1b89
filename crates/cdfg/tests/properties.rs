//! Property-based tests over random CDFGs.

use std::collections::BTreeMap;

use cdfg::{cone, Cdfg, NodeId, Op};
use proptest::prelude::*;

/// A recipe for building a random (but always valid) CDFG: a sequence of
/// operation picks where each operand index refers to an already-created
/// value.
#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, usize)>,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..5, prop::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..40))
        .prop_map(|(num_inputs, steps)| Recipe { num_inputs, steps })
}

/// Builds a CDFG from a recipe.  Returns the graph and the list of created
/// value nodes in creation order.
fn build(recipe: &Recipe) -> (Cdfg, Vec<NodeId>) {
    let mut g = Cdfg::new("random");
    let mut values: Vec<NodeId> = Vec::new();
    for i in 0..recipe.num_inputs {
        values.push(g.add_input(format!("in{i}")));
    }
    for &(opcode, a, b, c) in &recipe.steps {
        let pick = |idx: usize| values[idx % values.len()];
        let node = match opcode {
            0 => g.add_op(Op::Add, &[pick(a), pick(b)]).unwrap(),
            1 => g.add_op(Op::Sub, &[pick(a), pick(b)]).unwrap(),
            2 => g.add_op(Op::Mul, &[pick(a), pick(b)]).unwrap(),
            3 => g.add_op(Op::Gt, &[pick(a), pick(b)]).unwrap(),
            4 => g.add_op(Op::Lt, &[pick(a), pick(b)]).unwrap(),
            _ => {
                let sel = g.add_op(Op::Gt, &[pick(a), pick(b)]).unwrap();
                g.add_mux(sel, pick(b), pick(c)).unwrap()
            }
        };
        values.push(node);
    }
    let last = *values.last().expect("at least the inputs exist");
    g.add_output("out", last).unwrap();
    (g, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every randomly built CDFG validates and is acyclic: every operand
    /// and control edge points forward in the cached topological order.
    #[test]
    fn random_cdfgs_validate(recipe in recipe_strategy()) {
        let (mut g, values) = build(&recipe);
        prop_assert!(g.validate().is_ok());
        for &(_, a, b, _) in &recipe.steps {
            let _ = g.add_control_edge(values[a % values.len()], values[b % values.len()]);
        }
        let sl = g.slices();
        for n in g.node_ids() {
            for &p in g.operands(n).iter().chain(g.preds(n)) {
                prop_assert!(sl.topo_pos(p) < sl.topo_pos(n), "{} -> {} points backward", p, n);
            }
        }
    }

    /// The topological order places every operand before its consumer.
    #[test]
    fn topological_order_respects_data_edges(recipe in recipe_strategy()) {
        let (g, _) = build(&recipe);
        let order = g.slices().topo();
        let pos: BTreeMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in g.node_ids() {
            for operand in g.operands(n) {
                prop_assert!(pos[operand] < pos[&n], "operand scheduled after consumer");
            }
        }
    }

    /// The critical path never exceeds the number of functional nodes and is
    /// at least 1 when any functional node exists.
    #[test]
    fn critical_path_is_bounded(recipe in recipe_strategy()) {
        let (g, _) = build(&recipe);
        let cp = g.critical_path_length() as usize;
        let functional = g.slices().functional().len();
        prop_assert!(cp <= functional.max(1));
        if functional > 0 {
            prop_assert!(cp >= 1);
        }
    }

    /// Transitive fanin and fanout are consistent: if `a` is in the fanin of
    /// `b` then `b` is in the fanout of `a`.
    #[test]
    fn fanin_fanout_duality(recipe in recipe_strategy()) {
        let (g, values) = build(&recipe);
        let b = *values.last().unwrap();
        for a in cone::transitive_fanin(&g, b) {
            let fanout = cone::transitive_fanout(&g, a);
            prop_assert!(fanout.contains(&b));
        }
    }

    /// Functional evaluation is deterministic and total for any input
    /// assignment.
    #[test]
    fn evaluation_is_deterministic(recipe in recipe_strategy(), seed in 0i64..1000) {
        let (g, _) = build(&recipe);
        let mut inputs = BTreeMap::new();
        for (i, _) in g.inputs().iter().enumerate() {
            inputs.insert(format!("in{i}"), seed.wrapping_mul(i as i64 + 1) % 256);
        }
        let out1 = g.evaluate(&inputs);
        let out2 = g.evaluate(&inputs);
        prop_assert_eq!(out1, out2);
    }

    /// Operation counts sum to the number of functional nodes.
    #[test]
    fn op_counts_sum_to_functional_nodes(recipe in recipe_strategy()) {
        let (g, _) = build(&recipe);
        prop_assert_eq!(g.op_counts().total(), g.slices().functional().len());
    }
}
