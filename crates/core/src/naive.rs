//! Retained naive reference for the mux-analysis hot path.
//!
//! PR 6 rewrote [`crate::cones`] onto dense bitsets with a single
//! reverse-reachability sweep per branch, and [`crate::algorithm`] onto an
//! incremental per-mux feasibility check.  This module keeps the original
//! `BTreeSet`-walking implementation — [`analyze`] for the cone analysis and
//! [`power_manage`] for the whole selection loop — exactly as it was, as an
//! executable specification.  The cone-identity property tests in
//! `crates/gen/tests/` pin the bitset path against it on every generated
//! circuit family, and the `bench` emitter's `power_manage` and
//! `mux_analysis` rows measure the speedup against it.
//!
//! Like `sched::naive`, the module is compiled for tests and behind the
//! `reference` feature only; production builds never pay for it.

use std::collections::BTreeSet;

use cdfg::{cone, Cdfg, NodeId, MUX_FALSE_PORT, MUX_SELECT_PORT, MUX_TRUE_PORT};
use sched::hyper::{self, HyperOptions};
use sched::Timing;

use crate::algorithm::PowerManagementOptions;
use crate::cones::MuxCones;
use crate::error::PowerManageError;
use crate::report::{ManagedMux, PowerManagementResult};

/// The original per-mux cone analysis: three `BTreeSet` fanin walks plus one
/// full reverse-reachability traversal per branch (with a per-node
/// `distance_to_output` scan inside — the O(n²) pass the bitset rewrite
/// removed).  The three fanin cones stay local: [`MuxCones`] carries only
/// the shut-down sets derived from them.
///
/// # Panics
///
/// Panics if `mux` is not a multiplexor node of a structurally valid CDFG.
pub fn analyze(cdfg: &Cdfg, mux: NodeId) -> MuxCones {
    assert!(
        cdfg.node(mux).map(|d| d.op.is_mux()).unwrap_or(false),
        "MuxCones::analyze called on a non-mux node"
    );
    let select_driver = cdfg.operand(mux, MUX_SELECT_PORT).expect("mux select driven");
    let false_driver = cdfg.operand(mux, MUX_FALSE_PORT).expect("mux 0-input driven");
    let true_driver = cdfg.operand(mux, MUX_TRUE_PORT).expect("mux 1-input driven");

    let select_driver_is_functional =
        cdfg.node(select_driver).map(|d| d.op.is_functional()).unwrap_or(false);

    // The select cone is still walked, as the original did, so the
    // reference keeps its cost; nothing reads it.
    let _select_cone = cone::functional_only(cdfg, &cone::port_fanin(cdfg, mux, MUX_SELECT_PORT));
    let false_cone = cone::functional_only(cdfg, &cone::port_fanin(cdfg, mux, MUX_FALSE_PORT));
    let true_cone = cone::functional_only(cdfg, &cone::port_fanin(cdfg, mux, MUX_TRUE_PORT));

    let shutdown_false = shutdown_set(cdfg, mux, false_driver, MUX_FALSE_PORT, &false_cone);
    let shutdown_true = shutdown_set(cdfg, mux, true_driver, MUX_TRUE_PORT, &true_cone);

    MuxCones { mux, select_driver, select_driver_is_functional, shutdown_false, shutdown_true }
}

/// The original shut-down-set computation: reverse reachability from all
/// observation points, refusing to traverse the branch's mux-input edge.
fn shutdown_set(
    cdfg: &Cdfg,
    mux: NodeId,
    _branch_driver: NodeId,
    port: u16,
    branch_cone: &BTreeSet<NodeId>,
) -> BTreeSet<NodeId> {
    let mut needed: BTreeSet<NodeId> = BTreeSet::new();
    let mut stack: Vec<NodeId> = cdfg.outputs().to_vec();
    for &o in cdfg.outputs() {
        needed.insert(o);
    }
    for &node in cdfg.slices().functional() {
        if cone::distance_to_output(cdfg, node).is_none() && needed.insert(node) {
            stack.push(node);
        }
    }
    while let Some(n) = stack.pop() {
        for &pred in cdfg.preds(n) {
            if n == mux && cdfg.operand(mux, port) == Some(pred) {
                let feeds_other_port =
                    (0..3u16).filter(|&p| p != port).any(|p| cdfg.operand(mux, p) == Some(pred));
                if !feeds_other_port {
                    continue;
                }
            }
            if needed.insert(pred) {
                stack.push(pred);
            }
        }
    }
    branch_cone.iter().copied().filter(|n| !needed.contains(n)).collect()
}

/// The original selection loop: per mux, re-analyze cones from scratch,
/// physically insert the tentative control edges (cycle check per edge),
/// recompute the whole ASAP/ALAP analysis, and roll the edges back on
/// rejection.
///
/// Decision-equivalent to [`crate::power_manage`]; the identity tests compare
/// schedules, accepted flags, shut-down sets and savings (control-edge *ids*
/// may differ, because the incremental path only inserts edges for accepted
/// muxes and therefore draws different ids from the graph's free list).
///
/// # Errors
///
/// Same conditions as [`crate::power_manage`].
pub fn power_manage(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
) -> Result<PowerManagementResult, PowerManageError> {
    cdfg.validate()?;

    let baseline_schedule = hyper::schedule(
        cdfg,
        &HyperOptions { latency: options.latency, resources: options.resources.clone() },
    )?;

    let mut working = cdfg.clone();
    let order = options.mux_order.order(cdfg);
    let mut managed: Vec<ManagedMux> = Vec::new();
    let mut timing = Timing::empty();

    for mux in order {
        let cones = analyze(&working, mux);
        if !cones.has_shutdown_candidates() {
            continue;
        }

        let mut entry = ManagedMux {
            mux,
            select_driver: cones.select_driver,
            select_functional: cones.select_driver_is_functional,
            shutdown_false: cones.shutdown_false.clone(),
            shutdown_true: cones.shutdown_true.clone(),
            accepted: false,
            control_edges: Vec::new(),
        };

        if !cones.select_driver_is_functional {
            entry.accepted = true;
            managed.push(entry);
            continue;
        }

        let mut added = Vec::new();
        let mut ok = true;
        for set in [&cones.shutdown_false, &cones.shutdown_true] {
            for top in cones.top_nodes(&working, set) {
                match working.add_control_edge(cones.select_driver, top) {
                    Ok(edge) => added.push(edge),
                    Err(_) => ok = false,
                }
            }
        }

        if ok {
            timing.compute_into(&working, options.latency);
            ok = timing.is_feasible();
        }

        if ok {
            entry.accepted = true;
            entry.control_edges = added;
        } else {
            for edge in added {
                working.remove_control_edge(edge);
            }
        }
        managed.push(entry);
    }

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
                    Some(idx) if crate::algorithm::is_resource_pressure(&err) => {
                        for edge in std::mem::take(&mut managed[idx].control_edges) {
                            working.remove_control_edge(edge);
                        }
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
        baseline_schedule: baseline_schedule.into(),
        managed,
        latency: options.latency,
    })
}
