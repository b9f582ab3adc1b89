//! Property-based tests for the allocation passes: random conditional
//! designs are scheduled and bound, and the structural invariants of the
//! binding must always hold.

use binding::{AreaModel, Datapath, FuBinding, RegisterAllocation};
use cdfg::{Cdfg, NodeId, Op};
use proptest::prelude::*;
use sched::hyper::{self, HyperOptions};

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, usize)>,
    extra_latency: u32,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..5, prop::collection::vec((0u8..8, 0usize..64, 0usize..64, 0usize..64), 1..28), 0u32..5)
        .prop_map(|(num_inputs, steps, extra_latency)| Recipe { num_inputs, steps, extra_latency })
}

fn build(recipe: &Recipe) -> Cdfg {
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
            _ => {
                let sel = g.add_op(Op::Lt, &[pick(a), pick(b)]).unwrap();
                g.add_mux(sel, pick(b), pick(c)).unwrap()
            }
        };
        values.push(node);
    }
    let last = *values.last().expect("nonempty");
    g.add_output("out", last).unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Two operations bound to the same unit never share a control step, and
    /// units only execute operations of their own class.
    #[test]
    fn unit_binding_respects_steps_and_classes(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let schedule = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
        let binding = FuBinding::bind(&g, &schedule).unwrap();
        for unit in binding.units() {
            let nodes = binding.nodes_on_unit(unit.id);
            let mut steps: Vec<u32> = nodes.iter().map(|&n| schedule.step_of(n).unwrap()).collect();
            steps.sort_unstable();
            let unique = {
                let mut s = steps.clone();
                s.dedup();
                s
            };
            prop_assert_eq!(steps.len(), unique.len(), "unit {} double-booked", unit.name);
            for &n in &nodes {
                prop_assert_eq!(g.node(n).unwrap().op.class(), unit.class);
            }
        }
        // Every functional node is bound exactly once.
        for &n in g.slices().functional() {
            prop_assert!(binding.unit_of(n).is_some());
        }
    }

    /// Values sharing a register never have overlapping lifetimes, and every
    /// value consumed in a later step than it is produced has a register.
    #[test]
    fn register_allocation_is_conflict_free(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let schedule = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
        let alloc = RegisterAllocation::allocate(&g, &schedule).unwrap();
        for reg in alloc.registers() {
            for (i, &v1) in reg.values.iter().enumerate() {
                for &v2 in &reg.values[i + 1..] {
                    let l1 = alloc.lifetime(v1).unwrap();
                    let l2 = alloc.lifetime(v2).unwrap();
                    prop_assert!(!l1.overlaps(&l2));
                }
            }
        }
        for lifetime in alloc.lifetimes() {
            if lifetime.needs_register() {
                prop_assert!(alloc.register_of(lifetime.value).is_some());
            }
        }
    }

    /// The assembled datapath routes every operand of every functional node,
    /// and its area estimate is positive and consistent.
    #[test]
    fn datapath_routes_every_operand(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let schedule = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
        let dp = Datapath::build(&g, &schedule).unwrap();
        for &node in g.slices().functional() {
            let arity = g.node(node).unwrap().op.arity();
            for port in 0..arity as u16 {
                prop_assert!(dp.operand_source(node, port).is_some());
            }
        }
        let est = AreaModel::new().estimate(&dp);
        prop_assert!(est.units > 0.0);
        prop_assert!(est.total() >= est.units);
    }

    /// Register count never exceeds the number of values that need storage,
    /// and never drops below the maximum number of simultaneously live
    /// values (a lower bound on any legal allocation).
    #[test]
    fn register_count_is_bounded(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let schedule = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
        let alloc = RegisterAllocation::allocate(&g, &schedule).unwrap();
        let needing: Vec<_> = alloc.lifetimes().filter(|l| l.needs_register()).collect();
        prop_assert!(alloc.register_count() <= needing.len());
        // Lower bound: the peak number of overlapping lifetimes.
        let mut peak = 0usize;
        for step in 0..=schedule.num_steps() {
            let live = needing
                .iter()
                .filter(|l| l.birth <= step && step < l.death)
                .count();
            peak = peak.max(live);
        }
        prop_assert!(alloc.register_count() >= peak);
    }
}
