//! Property-based tests for the scheduling substrate.

use std::collections::BTreeMap;

use cdfg::{Cdfg, NodeId, Op, OpClass};
use proptest::prelude::*;
use sched::hyper::{self, HyperOptions};
use sched::{force, list, ResourceConstraint, ResourceSet, Schedule, Timing};

/// Recipe for a random, always-valid CDFG (mirrors the cdfg crate's
/// property tests but kept local so the two crates can evolve separately).
#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, usize)>,
    extra_latency: u32,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..5, prop::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..30), 0u32..6)
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
            4 => g.add_op(Op::Lt, &[pick(a), pick(b)]).unwrap(),
            _ => {
                let sel = g.add_op(Op::Gt, &[pick(a), pick(b)]).unwrap();
                g.add_mux(sel, pick(b), pick(c)).unwrap()
            }
        };
        values.push(node);
    }
    let last = *values.last().expect("nonempty");
    g.add_output("out", last).unwrap();
    g
}

fn check_schedule_matches_timing(_g: &Cdfg, s: &Schedule, t: &Timing) {
    for (node, step) in s.iter() {
        assert!(step >= t.asap(node), "node scheduled before its ASAP");
        assert!(step <= t.alap(node), "node scheduled after its ALAP");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ASAP is never larger than ALAP when the latency is at least the
    /// critical path, and mobility grows monotonically with latency.
    #[test]
    fn timing_feasible_at_critical_path(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let cp = g.critical_path_length().max(1);
        let t = Timing::compute(&g, cp);
        prop_assert!(t.is_feasible());
        let t_more = Timing::compute(&g, cp + recipe.extra_latency + 1);
        for (n, _, _) in t.iter() {
            let m0 = t.mobility(n).unwrap();
            let m1 = t_more.mobility(n).unwrap();
            prop_assert!(m1 >= m0, "mobility must not shrink when latency grows");
        }
    }

    /// Force-directed scheduling always returns a valid schedule within the
    /// latency, and every assignment lies inside the node's ASAP/ALAP frame.
    #[test]
    fn force_directed_schedules_are_valid(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let s = force::schedule(&g, latency).unwrap();
        prop_assert!(s.validate(&g).is_ok());
        prop_assert!(s.last_used_step() <= latency);
        let t = Timing::compute(&g, latency);
        check_schedule_matches_timing(&g, &s, &t);
    }

    /// List scheduling under the resource usage derived from force-directed
    /// scheduling always completes, respects the allocation, and lands close
    /// to the target latency (greedy list scheduling may exceed it by a
    /// small margin; the `hyper` entry point papers over that with a
    /// fallback, covered by `hyper_schedules_validate`).
    #[test]
    fn list_schedule_fits_force_directed_allocation(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let allocation = hyper::minimum_resources(&g, latency).unwrap();
        let constraint = ResourceConstraint::Limited(allocation);
        let s = list::schedule(&g, &constraint, latency).unwrap();
        prop_assert!(s.validate_with(&g, &constraint).is_ok());
        prop_assert!(s.last_used_step() <= latency + 2);
    }

    /// More latency keeps the heuristic resource requirement essentially
    /// monotone: per class it may grow by at most one unit (force-directed
    /// scheduling is a heuristic, not an exact minimiser), and it never
    /// exceeds the number of operations of that class.
    #[test]
    fn resources_monotone_in_latency(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let cp = g.critical_path_length().max(1);
        let tight = hyper::minimum_resources(&g, cp).unwrap();
        let relaxed = hyper::minimum_resources(&g, cp + 4).unwrap();
        let counts = g.op_counts();
        for class in OpClass::FUNCTIONAL {
            prop_assert!(
                relaxed.count(class) <= tight.count(class).max(1) + 1,
                "relaxing latency should not require noticeably more units of {class}"
            );
            prop_assert!(relaxed.count(class) <= counts.count(class).max(relaxed.count(class).min(1)));
        }
    }

    /// The hyper entry point agrees with validation for both constraint
    /// modes.
    #[test]
    fn hyper_schedules_validate(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let s1 = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
        prop_assert!(s1.validate(&g).is_ok());
        let alloc = s1.resource_usage(&g);
        let s2 = hyper::schedule(
            &g,
            &HyperOptions::with_resources(latency, ResourceConstraint::Limited(alloc.clone())),
        ).unwrap();
        prop_assert!(s2.validate_with(&g, &ResourceConstraint::Limited(alloc)).is_ok());
    }
}

/// A random assignment sequence: a step count and `(node, step)` pairs.
/// Most ids are low, so nodes are reassigned often; a quarter are sparse
/// and high, far past the rest; an empty sequence is the empty schedule.
fn assignments_strategy() -> impl Strategy<Value = (u32, Vec<(NodeId, u32)>)> {
    (1u32..12, prop::collection::vec((0u8..4, 0u32..16, 0u32..5000, 0u32..1000), 0..40)).prop_map(
        |(num_steps, raw)| {
            let ops = raw
                .into_iter()
                .map(|(kind, low, high, step)| {
                    let node = if kind == 0 { high } else { low };
                    (NodeId::new(node), 1 + step % num_steps)
                })
                .collect();
            (num_steps, ops)
        },
    )
}

/// The schedule and the `BTreeMap` model after the same assignments.
fn replay(num_steps: u32, ops: &[(NodeId, u32)]) -> (Schedule, BTreeMap<NodeId, u32>) {
    let mut s = Schedule::new(num_steps);
    let mut model = BTreeMap::new();
    for &(node, step) in ops {
        s.assign(node, step);
        model.insert(node, step);
        assert_eq!(s.step_of(node), Some(step));
        assert_eq!(s.len(), model.len(), "a reassignment is not a new operation");
    }
    (s, model)
}

/// Checks every read of `s` against the model of its assignments.
fn check_against_model(s: &Schedule, num_steps: u32, model: &BTreeMap<NodeId, u32>) {
    let past_last = model.keys().next_back().map_or(0, |n| n.index() as u32 + 3);
    for id in (0..past_last).chain([u32::MAX]) {
        let node = NodeId::new(id);
        assert_eq!(s.step_of(node), model.get(&node).copied(), "step of {node}");
    }
    let expected: Vec<(NodeId, u32)> = model.iter().map(|(&n, &step)| (n, step)).collect();
    assert_eq!(s.iter().collect::<Vec<_>>(), expected, "iter is node-id order");
    assert_eq!(s.len(), model.len());
    assert_eq!(s.is_empty(), model.is_empty());
    assert_eq!(s.last_used_step(), model.values().copied().max().unwrap_or(0));
    assert_eq!(s.num_steps(), num_steps);
    let per_step: Vec<(u32, Vec<NodeId>)> = (1..=num_steps)
        .map(|step| (step, s.iter().filter(|&(_, at)| at == step).map(|(n, _)| n).collect()))
        .filter(|(_, nodes): &(u32, Vec<NodeId>)| !nodes.is_empty())
        .collect();
    assert_eq!(s.by_step(), per_step, "by_step is a per-step filter of iter");
}

/// The count `resource_usage` made before the step ordering, kept as its
/// oracle: one rescan of the whole schedule per step.
fn resource_usage_by_rescan(s: &Schedule, g: &Cdfg) -> ResourceSet {
    let mut max = ResourceSet::new();
    for step in 1..=s.num_steps() {
        let mut used = ResourceSet::new();
        for (node, _) in s.iter().filter(|&(_, at)| at == step) {
            if let Some(data) = g.node(node) {
                if data.op.is_functional() {
                    used.bump(data.op.class());
                }
            }
        }
        max = max.max(&used);
    }
    max
}

#[test]
fn the_empty_schedule_matches_the_empty_model() {
    for num_steps in [0, 1, 7] {
        let (s, model) = replay(num_steps, &[]);
        check_against_model(&s, num_steps, &model);
        assert_eq!(s, Schedule::new(num_steps));
        assert_ne!(s, Schedule::new(num_steps + 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every read of the dense schedule agrees with a `BTreeMap` model of
    /// the same assignment sequence.
    #[test]
    fn schedule_reads_match_a_map_model(case in assignments_strategy()) {
        let (num_steps, ops) = case;
        let (s, model) = replay(num_steps, &ops);
        check_against_model(&s, num_steps, &model);
    }

    /// Equality is the assignments and the step count: the same final
    /// assignments made in another order compare equal, and any other
    /// step count, step or node breaks it.
    #[test]
    fn same_assignments_compare_equal_in_any_order(case in assignments_strategy()) {
        let (num_steps, ops) = case;
        let (s, model) = replay(num_steps, &ops);
        let mut reversed = Schedule::new(num_steps);
        for (&node, &step) in model.iter().rev() {
            reversed.assign(node, step);
        }
        prop_assert_eq!(&reversed, &s);
        prop_assert_eq!(&s, &reversed);

        let mut wider = Schedule::new(num_steps + 1);
        for (&node, &step) in &model {
            wider.assign(node, step);
        }
        prop_assert_ne!(&wider, &s);
        let mut extra = s.clone();
        extra.assign(NodeId::new(6000), 1);
        prop_assert_ne!(&extra, &s);
        prop_assert_ne!(&s, &extra);
        if let (Some((&node, &step)), true) = (model.iter().next(), num_steps > 1) {
            let mut moved = s.clone();
            moved.assign(node, step % num_steps + 1);
            prop_assert_ne!(&moved, &s);
        }
    }

    /// The force and list kernels size a schedule's step array by the
    /// graph's slot count.  The recipes end in their output node, a
    /// structural slot, so a schedule rebuilt from the kernel's own
    /// assignments, made in reverse order, is stored in a shorter array;
    /// the two still compare equal.
    #[test]
    fn kernel_schedules_equal_their_rebuilt_assignments(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let constraint = ResourceConstraint::Limited(hyper::minimum_resources(&g, latency).unwrap());
        let kernels = [
            force::schedule(&g, latency).unwrap(),
            list::schedule(&g, &constraint, latency).unwrap(),
            list::schedule_with_latency(&g, &ResourceConstraint::Unlimited, latency).unwrap(),
        ];
        for s in kernels {
            let mut rebuilt = Schedule::new(s.num_steps());
            for (node, step) in s.iter().collect::<Vec<_>>().into_iter().rev() {
                rebuilt.assign(node, step);
            }
            prop_assert_eq!(&rebuilt, &s);
            prop_assert_eq!(&s, &rebuilt);
        }
    }

    /// `resource_usage` over the step ordering equals the per-step rescan
    /// it replaced, on kernel schedules and on arbitrary assignments that
    /// include structural nodes and ids outside the graph.
    #[test]
    fn resource_usage_matches_the_per_step_rescan(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let latency = g.critical_path_length().max(1) + recipe.extra_latency;
        let force = force::schedule(&g, latency).unwrap();
        prop_assert_eq!(force.resource_usage(&g), resource_usage_by_rescan(&force, &g));
        let list = list::schedule(&g, &ResourceConstraint::Unlimited, latency).unwrap();
        prop_assert_eq!(list.resource_usage(&g), resource_usage_by_rescan(&list, &g));

        let mut arbitrary = Schedule::new(latency);
        for &(opcode, a, b, _) in &recipe.steps {
            let node = NodeId::new(((a * 64 + b) % (g.node_count() + 4)) as u32);
            arbitrary.assign(node, 1 + u32::from(opcode) % latency);
        }
        prop_assert_eq!(arbitrary.resource_usage(&g), resource_usage_by_rescan(&arbitrary, &g));
    }
}
