//! The power-management scheduling algorithm (Figure 3 of the paper).
//!
//! ```text
//! 1:  Generate CDFG
//! 2:  For each multiplexor mux {
//! 3:      Annotate nodes in fanin of the 0, 1 and control inputs of mux
//! 4:      Compute new ASAP of each node in the fanin of the 0 and 1 inputs
//! 5:      Compute new ALAP of each node in the fanin of the control input
//! 6:      If for any node ASAP > ALAP
//! 7:          then power management not possible for mux
//! 8:          else assign new ASAP and ALAP values to nodes
//! 9:  }
//! 10: Create control edges between last node in the control fanin and top
//!     nodes in 0 and 1 fanin of muxes for which power management is possible
//! 11: Execute Hyper scheduling
//! 12: Generate final Datapath and Controller circuits
//! ```
//!
//! Steps 4–8 are implemented incrementally: one ASAP/ALAP analysis is carried
//! across the whole per-mux loop and [`sched::Timing::tighten`] re-propagates
//! only from the endpoints of the control edges a multiplexor would add — the
//! new edges force exactly the "data cone after control cone" ordering the
//! paper describes, and the feasibility test "ASAP > ALAP for any node"
//! surfaces as `tighten` returning `false` (restoring the previous fixed
//! point).  Control edges are physically inserted only for *accepted*
//! multiplexors; cycles are pre-checked against a bitset ancestor query, so a
//! rejected candidate never mutates the working graph at all.  The retained
//! [`crate::naive`] reference implements the original
//! insert-recompute-rollback formulation and the identity tests pin both
//! paths to the same decisions.  Step 12 (datapath and controller generation)
//! lives in the `binding` and `rtl` crates.

use std::sync::OnceLock;

use cdfg::{Cdfg, NodeId};
use sched::hyper::{self, HyperOptions};
use sched::{ResourceConstraint, ScheduleError, Timing, TimingDelta};

use crate::cones::{ConeWorkspace, MuxCones};
use crate::error::PowerManageError;
use crate::mux_order::MuxOrder;
use crate::report::{ManagedMux, PowerManagementResult};

/// User-facing constraints for a power-management scheduling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerManagementOptions {
    /// Number of control steps one computation may take (the throughput
    /// constraint; column 2 of Table II).
    pub latency: u32,
    /// Execution-unit constraint handed to the final scheduling step.
    pub resources: ResourceConstraint,
    /// Order in which multiplexors are examined (Section IV-A).
    pub mux_order: MuxOrder,
}

impl PowerManagementOptions {
    /// Latency-only constraints: the scheduler may allocate as many
    /// execution units as it needs (it still minimises them).
    pub fn with_latency(latency: u32) -> Self {
        PowerManagementOptions {
            latency,
            resources: ResourceConstraint::Unlimited,
            mux_order: MuxOrder::OutputsFirst,
        }
    }

    /// Latency plus an explicit execution-unit allocation.
    pub fn with_resources(latency: u32, resources: ResourceConstraint) -> Self {
        PowerManagementOptions { latency, resources, mux_order: MuxOrder::OutputsFirst }
    }

    /// Replaces the multiplexor processing order.
    pub fn mux_order(mut self, order: MuxOrder) -> Self {
        self.mux_order = order;
        self
    }
}

/// Runs the power-management scheduling algorithm on `cdfg`.
///
/// The returned [`PowerManagementResult`] contains the constrained CDFG
/// (with control edges), the power-managed schedule, the traditional
/// baseline schedule for the same constraints (computed on first read
/// when no resource limit applies, see
/// [`PowerManagementResult::baseline_schedule`]), and the per-multiplexor
/// shut-down information needed by the controller generator and by the
/// power/area reports.
///
/// # Errors
///
/// * [`PowerManageError::InvalidCdfg`] if the input graph fails validation,
/// * [`PowerManageError::Scheduling`] if even the baseline schedule cannot
///   meet the latency / resource constraints (a zero latency included).
pub fn power_manage(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
) -> Result<PowerManagementResult, PowerManageError> {
    cdfg.validate()?;
    // The timing analysis needs at least one control step; report a zero
    // latency the way the schedulers do.
    if options.latency == 0 {
        return Err(ScheduleError::LatencyTooSmall {
            requested: 0,
            critical_path: cdfg.critical_path_length(),
        }
        .into());
    }

    // The analysis carried across the selection loop, seeded on the input
    // graph (whose cached view the working copy then inherits).  It is also
    // the baseline's feasibility gate.
    let mut timing = Timing::empty();
    timing.compute_into(cdfg, options.latency);
    let baseline_schedule = match &options.resources {
        // Force-directed scheduling succeeds on every graph whose timing is
        // feasible, so a latency below the critical path is the only way
        // the unmanaged baseline can fail — with exactly this error.  The
        // baseline itself is scheduled only if someone reads it.
        ResourceConstraint::Unlimited => {
            if !timing.is_feasible() {
                return Err(ScheduleError::LatencyTooSmall {
                    requested: options.latency,
                    critical_path: timing.min_latency(),
                }
                .into());
            }
            OnceLock::new()
        }
        // Under an allocation, list scheduling may fail where the timing
        // test passes, and that failure is this call's error: schedule the
        // baseline now.
        ResourceConstraint::Limited(_) => OnceLock::from(hyper::schedule(
            cdfg,
            &HyperOptions { latency: options.latency, resources: options.resources.clone() },
        )?),
    };

    let mut working = cdfg.clone();
    let order = options.mux_order.order(cdfg);
    let mut managed: Vec<ManagedMux> = Vec::new();
    // Analysis state carried across the per-mux loop: the cone workspace is
    // prepared once (control edges never change data reachability, so its
    // dead-end set stays valid for the whole loop), and the ASAP/ALAP
    // analysis seeded above is only tightened from the endpoints of each
    // candidate's control edges.  Accepted edges are patched into the
    // working graph's cached view, so neither the next cone analysis nor
    // the final pass rebuilds it.
    let mut cone_ws = ConeWorkspace::new();
    cone_ws.prepare(&working);
    let mut delta = TimingDelta::default();
    let mut edge_plan: Vec<(NodeId, NodeId)> = Vec::new();

    // Steps 2-10: examine each multiplexor, keeping its control edges only
    // when every node still satisfies ASAP <= ALAP for the requested latency.
    for mux in order {
        let cones = MuxCones::analyze_with(&working, mux, &mut cone_ws);
        if !cones.has_shutdown_candidates() {
            continue;
        }

        // A select that comes straight from a primary input or a constant
        // is available before step 1, so no ordering constraint is needed
        // and the multiplexor is trivially manageable.
        let mut accepted = !cones.select_driver_is_functional;
        let mut control_edges = Vec::new();
        if cones.select_driver_is_functional {
            // Step 10 (tentatively): control edges from the last
            // control-cone node to the top nodes of each shut-down cone.
            // An edge `select_driver -> top` would close a cycle iff `top`
            // is already an ancestor of the select driver — in that case
            // the select driver depends on the node and the multiplexor
            // cannot be managed.
            edge_plan.clear();
            let mut ok = true;
            let ancestors = cone_ws.ancestors_of(&working, cones.select_driver);
            for set in [&cones.shutdown_false, &cones.shutdown_true] {
                for top in cones.top_nodes(&working, set) {
                    if ancestors.contains(top.index()) {
                        ok = false;
                    }
                    edge_plan.push((cones.select_driver, top));
                }
            }

            // Steps 4-8: the feasibility test.  `tighten` re-propagates
            // ASAP forward from the edge destinations and ALAP backward
            // from the edge sources; on infeasibility it restores the
            // previous fixed point, so a rejected candidate leaves no
            // trace anywhere.
            if ok {
                ok = timing.tighten(&working, &edge_plan, &mut delta);
            }

            if ok {
                accepted = true;
                for &(before, after) in &edge_plan {
                    let edge = working
                        .add_control_edge(before, after)
                        .expect("edge pre-checked against the ancestor set");
                    control_edges.push(edge);
                }
            }
        }
        // The shut-down sets move into the entry; the cones are done.
        managed.push(ManagedMux {
            mux,
            select_driver: cones.select_driver,
            select_functional: cones.select_driver_is_functional,
            shutdown_false: cones.shutdown_false,
            shutdown_true: cones.shutdown_true,
            accepted,
            control_edges,
        });
    }

    // Step 11: HYPER-style scheduling of the constrained graph.  Under an
    // explicit resource limit the extra precedence edges may push the
    // schedule past the latency even though the pure timing test passed; in
    // that case relax the *most*-recently accepted multiplexor first (LIFO —
    // `rposition` below) and repeat until the constraint is met again (the
    // paper's "algorithm chooses a schedule only if the required throughput
    // and hardware constraints are met").  Unwinding newest-first keeps the
    // decisions of earlier, higher-priority multiplexors intact: the order
    // heuristics examine the most promising muxes first, so the marginal
    // acceptances are the cheapest to give back.
    let schedule = loop {
        match hyper::schedule(
            &working,
            &HyperOptions { latency: options.latency, resources: options.resources.clone() },
        ) {
            Ok(s) => break s,
            Err(err) => {
                let relaxable =
                    managed.iter().rposition(|m| m.accepted && !m.control_edges.is_empty());
                match relaxable {
                    Some(idx) if is_resource_pressure(&err) => {
                        for edge in std::mem::take(&mut managed[idx].control_edges) {
                            working.remove_control_edge(edge);
                        }
                        // The multiplexor may still be partially effective
                        // (operations that happen to land after the condition
                        // are gated), so it stays in the list but is no
                        // longer marked as accepted.
                        managed[idx].accepted = false;
                    }
                    _ => return Err(err.into()),
                }
            }
        }
    };

    Ok(PowerManagementResult {
        cdfg: working,
        schedule,
        baseline_schedule,
        managed,
        latency: options.latency,
    })
}

/// Errors that can be cured by removing control edges (as opposed to the
/// latency simply being below the critical path of the *original* design).
pub(crate) fn is_resource_pressure(err: &ScheduleError) -> bool {
    matches!(
        err,
        ScheduleError::LatencyExceeded { .. }
            | ScheduleError::InsufficientResources { .. }
            | ScheduleError::LatencyTooSmall { .. }
    )
}

/// Runs [`power_manage`] with several multiplexor orders (Section IV-A) and
/// returns the result with the highest estimated datapath power reduction.
///
/// The candidate orders are the outputs-first default, the savings-driven
/// greedy order and the inputs-first order; for designs with at most
/// `exhaustive_limit` multiplexors every permutation is tried as well.
/// Without a resource limit only the winner's baseline is ever scheduled
/// (when it is read).
///
/// # Errors
///
/// Same conditions as [`power_manage`].
pub fn power_manage_reordered(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
    exhaustive_limit: usize,
) -> Result<PowerManagementResult, PowerManageError> {
    let mut candidates: Vec<MuxOrder> =
        vec![MuxOrder::OutputsFirst, MuxOrder::BySavings, MuxOrder::InputsFirst];

    let muxes = cdfg.mux_nodes();
    if muxes.len() <= exhaustive_limit && muxes.len() > 1 {
        candidates.extend(permutations(&muxes).into_iter().map(MuxOrder::Explicit));
    }

    let mut best: Option<PowerManagementResult> = None;
    for order in candidates {
        let run = power_manage(cdfg, &options.clone().mux_order(order))?;
        let better = match &best {
            None => true,
            Some(current) => {
                run.savings().reduction_percent > current.savings().reduction_percent + 1e-9
            }
        };
        if better {
            best = Some(run);
        }
    }
    Ok(best.expect("at least one candidate order was evaluated"))
}

fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            let mut perm = vec![head.clone()];
            perm.append(&mut tail);
            out.push(perm);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{NodeId, Op, OpClass};
    use sched::ResourceConstraint;

    fn abs_diff() -> (Cdfg, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        (g, gt, amb, bma, m)
    }

    #[test]
    fn figure_2b_comparison_first_with_three_steps() {
        let (g, gt, amb, bma, m) = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let s = result.schedule();
        s.validate(result.cdfg()).unwrap();
        assert_eq!(s.step_of(gt), Some(1), "controlling comparison is scheduled first");
        assert_eq!(s.step_of(amb), Some(2));
        assert_eq!(s.step_of(bma), Some(2));
        assert_eq!(s.step_of(m), Some(3));
        assert_eq!(result.accepted_muxes().len(), 1);
        assert!(result.control_edge_count() >= 2);
    }

    #[test]
    fn figure_1_two_steps_no_power_management() {
        // "If only two control steps are allowed, there is no flexibility...
        // our scheduling algorithm will produce the same result as the
        // traditional method: no power management is possible."
        let (g, ..) = abs_diff();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(2)).unwrap();
        assert_eq!(result.accepted_muxes().len(), 0);
        assert_eq!(result.managed_mux_count(), 0);
        assert_eq!(result.schedule().num_steps(), 2);
        assert!((result.savings().reduction_percent - 0.0).abs() < 1e-9);
        // The baseline and managed schedules need the same resources.
        assert_eq!(result.resource_usage(), result.baseline_resource_usage());
    }

    #[test]
    fn single_subtractor_partial_management() {
        // End of Section II-B: with one subtractor the subtraction scheduled
        // after the comparison can still be disabled, even though both
        // cannot be moved behind the condition simultaneously.
        let (g, ..) = abs_diff();
        let constraint =
            ResourceConstraint::limited([(OpClass::Sub, 1), (OpClass::Comp, 1), (OpClass::Mux, 1)]);
        let options = PowerManagementOptions::with_resources(3, constraint);
        let result = power_manage(&g, &options).unwrap();
        result.schedule().validate(result.cdfg()).unwrap();
        let savings = result.savings();
        // One subtraction always runs, the other runs half the time:
        // expected subtractions = 1.5 (vs 2.0 unmanaged).
        assert!((savings.expected(OpClass::Sub) - 1.5).abs() < 1e-9);
        assert!(savings.reduction_percent > 0.0);
        assert_eq!(result.resource_usage().count(OpClass::Sub), 1);
    }

    #[test]
    fn latency_below_critical_path_errors() {
        let (g, ..) = abs_diff();
        let err = power_manage(&g, &PowerManagementOptions::with_latency(1)).unwrap_err();
        assert!(matches!(err, PowerManageError::Scheduling(_)));
    }

    #[test]
    fn zero_latency_is_a_typed_error_not_a_panic() {
        let (g, ..) = abs_diff();
        let err = power_manage(&g, &PowerManagementOptions::with_latency(0)).unwrap_err();
        assert_eq!(
            err,
            PowerManageError::Scheduling(ScheduleError::LatencyTooSmall {
                requested: 0,
                critical_path: 2
            })
        );
    }

    #[test]
    fn invalid_cdfg_is_rejected() {
        let g = Cdfg::new("empty");
        let err = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap_err();
        assert!(matches!(err, PowerManageError::InvalidCdfg(_)));
    }

    #[test]
    fn design_without_muxes_still_schedules() {
        let mut g = Cdfg::new("sum");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.add_op(Op::Add, &[a, b]).unwrap();
        g.add_output("s", s).unwrap();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(2)).unwrap();
        assert_eq!(result.managed_muxes().len(), 0);
        assert_eq!(result.savings().reduction_percent, 0.0);
    }

    #[test]
    fn more_slack_never_hurts_savings() {
        let (g, ..) = abs_diff();
        let three = power_manage(&g, &PowerManagementOptions::with_latency(3)).unwrap();
        let four = power_manage(&g, &PowerManagementOptions::with_latency(4)).unwrap();
        assert!(four.savings().reduction_percent >= three.savings().reduction_percent - 1e-9);
    }

    #[test]
    fn reordered_search_is_at_least_as_good_as_default() {
        // Nested conditionals where processing order matters.
        let mut g = Cdfg::new("nested");
        let x = g.add_input("x");
        let y = g.add_input("y");
        let c1 = g.add_op(Op::Gt, &[x, y]).unwrap();
        let c2 = g.add_op(Op::Lt, &[x, y]).unwrap();
        let prod = g.add_op(Op::Mul, &[x, y]).unwrap();
        let sum = g.add_op(Op::Add, &[x, y]).unwrap();
        let inner = g.add_mux(c2, sum, prod).unwrap();
        let diff = g.add_op(Op::Sub, &[x, y]).unwrap();
        let outer = g.add_mux(c1, diff, inner).unwrap();
        g.add_output("o", outer).unwrap();

        let options = PowerManagementOptions::with_latency(4);
        let default = power_manage(&g, &options).unwrap();
        let best = power_manage_reordered(&g, &options, 4).unwrap();
        assert!(best.savings().reduction_percent >= default.savings().reduction_percent - 1e-9);
        best.schedule().validate(best.cdfg()).unwrap();
    }

    #[test]
    fn permutations_cover_all_orders() {
        let perms = permutations(&[1, 2, 3]);
        assert_eq!(perms.len(), 6);
        assert!(perms.contains(&vec![3, 1, 2]));
    }

    /// Two independent `|x - y|` blocks sharing one comparator.
    fn two_abs_diff_blocks() -> (Cdfg, NodeId, NodeId) {
        let mut g = Cdfg::new("two_blocks");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt1 = g.add_op(Op::Gt, &[a, b]).unwrap();
        let s1 = g.add_op(Op::Sub, &[a, b]).unwrap();
        let s2 = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m1 = g.add_mux(gt1, s2, s1).unwrap();
        g.add_output("abs1", m1).unwrap();
        let c = g.add_input("c");
        let d = g.add_input("d");
        let gt2 = g.add_op(Op::Gt, &[c, d]).unwrap();
        let s3 = g.add_op(Op::Sub, &[c, d]).unwrap();
        let s4 = g.add_op(Op::Sub, &[d, c]).unwrap();
        let m2 = g.add_mux(gt2, s4, s3).unwrap();
        g.add_output("abs2", m2).unwrap();
        (g, m1, m2)
    }

    #[test]
    fn relaxation_drops_most_recently_accepted_mux_first() {
        // With one comparator, three steps cannot fit both managed blocks:
        // both comparisons would have to run in step 1.  The relaxation loop
        // unwinds LIFO, so the *first*-accepted multiplexor (m1, examined
        // first by the outputs-first order) must survive and the second must
        // lose its control edges.
        let (g, m1, m2) = two_abs_diff_blocks();
        let constraint =
            ResourceConstraint::limited([(OpClass::Comp, 1), (OpClass::Sub, 2), (OpClass::Mux, 2)]);
        let options = PowerManagementOptions::with_resources(3, constraint);
        let result = power_manage(&g, &options).unwrap();
        result.schedule().validate(result.cdfg()).unwrap();

        let entry1 = result.managed_muxes().iter().find(|m| m.mux == m1).unwrap();
        let entry2 = result.managed_muxes().iter().find(|m| m.mux == m2).unwrap();
        assert!(entry1.accepted, "the first-accepted mux keeps its edges");
        assert!(!entry2.accepted, "the most recent acceptance is relaxed first");
        assert!(entry2.control_edges.is_empty(), "relaxed edges were removed");
        // Block 1 really is managed: its comparison precedes its subtractions.
        let s = result.schedule();
        assert_eq!(s.step_of(entry1.select_driver), Some(1));
        assert_eq!(result.accepted_muxes().len(), 1);
    }

    #[test]
    fn reordered_search_matches_cold_per_order_runs() {
        // The candidate loop must pick exactly the result a separate
        // evaluation of the same candidate orders picks.
        let mut g = Cdfg::new("nested");
        let x = g.add_input("x");
        let y = g.add_input("y");
        let c1 = g.add_op(Op::Gt, &[x, y]).unwrap();
        let c2 = g.add_op(Op::Lt, &[x, y]).unwrap();
        let prod = g.add_op(Op::Mul, &[x, y]).unwrap();
        let sum = g.add_op(Op::Add, &[x, y]).unwrap();
        let inner = g.add_mux(c2, sum, prod).unwrap();
        let diff = g.add_op(Op::Sub, &[x, y]).unwrap();
        let outer = g.add_mux(c1, diff, inner).unwrap();
        g.add_output("o", outer).unwrap();

        let options = PowerManagementOptions::with_latency(4);
        let reordered = power_manage_reordered(&g, &options, 4).unwrap();

        let mut candidates: Vec<MuxOrder> =
            vec![MuxOrder::OutputsFirst, MuxOrder::BySavings, MuxOrder::InputsFirst];
        candidates.extend(permutations(&g.mux_nodes()).into_iter().map(MuxOrder::Explicit));
        let mut cold: Option<PowerManagementResult> = None;
        for order in candidates {
            let run = power_manage(&g, &options.clone().mux_order(order)).unwrap();
            let better = match &cold {
                None => true,
                Some(current) => {
                    run.savings().reduction_percent > current.savings().reduction_percent + 1e-9
                }
            };
            if better {
                cold = Some(run);
            }
        }
        let cold = cold.unwrap();
        assert_eq!(reordered.schedule(), cold.schedule());
        assert_eq!(reordered.baseline_schedule(), cold.baseline_schedule());
        assert_eq!(reordered.savings().reduction_percent, cold.savings().reduction_percent);
        assert_eq!(reordered.accepted_muxes().len(), cold.accepted_muxes().len());
    }

    #[test]
    fn incremental_path_matches_naive_reference_decisions() {
        // Same circuits the module tests above use, across a budget range,
        // pinned against the retained insert-recompute-rollback reference.
        let (g, ..) = abs_diff();
        let (g2, ..) = two_abs_diff_blocks();
        for graph in [&g, &g2] {
            for latency in 2..7 {
                let options = PowerManagementOptions::with_latency(latency);
                let fast = power_manage(graph, &options).unwrap();
                let slow = crate::naive::power_manage(graph, &options).unwrap();
                assert_eq!(fast.schedule(), slow.schedule(), "latency {latency}");
                assert_eq!(fast.baseline_schedule(), slow.baseline_schedule());
                assert_eq!(fast.managed_muxes().len(), slow.managed_muxes().len());
                for (f, s) in fast.managed_muxes().iter().zip(slow.managed_muxes()) {
                    assert_eq!(f.mux, s.mux);
                    assert_eq!(f.accepted, s.accepted, "latency {latency}, mux {}", f.mux);
                    assert_eq!(f.shutdown_false, s.shutdown_false);
                    assert_eq!(f.shutdown_true, s.shutdown_true);
                }
                assert_eq!(
                    fast.savings().reduction_percent,
                    slow.savings().reduction_percent,
                    "bit-identical savings at latency {latency}"
                );
            }
        }
    }
}
