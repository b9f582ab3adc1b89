//! The original, map-based force-directed scheduler, retained as a
//! reference implementation.
//!
//! This is the pedagogical O(n²·L·W) kernel the repo shipped before the
//! incremental rewrite in [`crate::force`]: every iteration rebuilds the
//! whole distribution graph on a `BTreeMap<(OpClass, u32), f64>`, rescans
//! every unfixed (node, step) pair, and runs frame propagation to a
//! whole-graph fixed point over the allocating `Vec`-returning adjacency
//! accessors.  It is compiled only for tests and under the `reference`
//! feature, where it pins the incremental kernel's behaviour: the
//! schedule-identity property tests assert the two produce *equal*
//! schedules (bit-identical step assignments) on every circuit family, and
//! the `sched_kernel` bench measures the speedup against it.
//!
//! The one deliberate divergence from the original code is shared with the
//! incremental kernel: the backward-pass clamp
//! `sf.latest.saturating_sub(1).max(1)` used to floor a successor
//! constraint at step 1, silently masking an infeasible frame instead of
//! surfacing it.  Both implementations now return
//! [`ScheduleError::InfeasiblePropagation`] in that (otherwise unreachable)
//! situation.

use std::collections::BTreeMap;

use cdfg::{Cdfg, NodeId, OpClass};

use crate::error::ScheduleError;
use crate::schedule::Schedule;
use crate::timing::Timing;

/// Mutable time frame `[earliest, latest]` of an operation during
/// force-directed scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    earliest: u32,
    latest: u32,
}

impl Frame {
    fn width(self) -> u32 {
        self.latest - self.earliest + 1
    }

    fn probability(self, step: u32) -> f64 {
        if step >= self.earliest && step <= self.latest {
            1.0 / f64::from(self.width())
        } else {
            0.0
        }
    }
}

/// Schedules `cdfg` within `latency` control steps, minimising the peak
/// number of simultaneously busy execution units per class.
///
/// Reference implementation: produces schedules equal to
/// [`crate::force::schedule`] (a property the identity tests pin), at the
/// original rebuild-everything cost.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] if the latency is below the
/// critical path (taking control edges into account).
pub fn schedule(cdfg: &Cdfg, latency: u32) -> Result<Schedule, ScheduleError> {
    let timing = Timing::compute(cdfg, latency);
    if !timing.is_feasible() {
        return Err(ScheduleError::LatencyTooSmall {
            requested: latency,
            critical_path: timing.min_latency(),
        });
    }

    let functional = cdfg.slices().functional();
    let mut frames: BTreeMap<NodeId, Frame> = functional
        .iter()
        .map(|&n| (n, Frame { earliest: timing.asap(n), latest: timing.alap(n) }))
        .collect();

    // Nodes with a single-step frame are already fixed.
    let mut fixed: BTreeMap<NodeId, u32> = BTreeMap::new();
    for (&n, frame) in &frames {
        if frame.width() == 1 {
            fixed.insert(n, frame.earliest);
        }
    }

    while fixed.len() < functional.len() {
        // Distribution graphs: expected number of operations of each class in
        // each step, given the current frames.
        let mut dg: BTreeMap<(OpClass, u32), f64> = BTreeMap::new();
        for (&n, frame) in &frames {
            let class = cdfg.node(n).expect("live node").op.class();
            for step in frame.earliest..=frame.latest {
                *dg.entry((class, step)).or_insert(0.0) += frame.probability(step);
            }
        }

        // Pick the unfixed (node, step) pair with the smallest self-force.
        let mut best: Option<(NodeId, u32, f64)> = None;
        for &n in functional {
            if fixed.contains_key(&n) {
                continue;
            }
            let frame = frames[&n];
            let class = cdfg.node(n).expect("live node").op.class();
            for step in frame.earliest..=frame.latest {
                // Self force = DG(step) * (1 - p) - sum_{other steps} DG * p,
                // the standard Paulin/Knight formulation restricted to the
                // operation's own frame.
                let force = self_force(&dg, class, frame, step);
                let better = match best {
                    None => true,
                    Some((bn, bs, bf)) => {
                        force < bf - 1e-9 || ((force - bf).abs() <= 1e-9 && (n, step) < (bn, bs))
                    }
                };
                if better {
                    best = Some((n, step, force));
                }
            }
        }

        let (node, step, _) = best.expect("at least one unfixed node");
        fixed.insert(node, step);
        frames.insert(node, Frame { earliest: step, latest: step });

        // Propagate the tightened frame through the precedence relation.
        propagate(cdfg, &mut frames, &fixed)?;
    }

    let mut schedule = Schedule::new(latency);
    for (n, s) in fixed {
        schedule.assign(n, s);
    }
    Ok(schedule)
}

/// Self force of placing an operation of `class` with time frame `frame` at
/// `step`: the standard `DG · (new probability − old probability)` sum over
/// the frame.
fn self_force(dg: &BTreeMap<(OpClass, u32), f64>, class: OpClass, frame: Frame, step: u32) -> f64 {
    let p = frame.probability(step);
    let mut force = 0.0;
    for s in frame.earliest..=frame.latest {
        let dg_s = dg.get(&(class, s)).copied().unwrap_or(0.0);
        let delta = if s == step { 1.0 - p } else { -p };
        force += dg_s * delta;
    }
    force
}

/// Restores frame consistency after a node has been fixed: every functional
/// successor must start after its predecessors, every predecessor must
/// finish before its successors.
///
/// # Errors
///
/// Returns [`ScheduleError::InfeasiblePropagation`] if a constraint pushes a
/// frame's earliest step past its latest one — unreachable when fixing
/// happens inside consistent frames, but surfaced rather than clamped away.
fn propagate(
    cdfg: &Cdfg,
    frames: &mut BTreeMap<NodeId, Frame>,
    fixed: &BTreeMap<NodeId, u32>,
) -> Result<(), ScheduleError> {
    // Iterate to a fixed point; graphs are small (tens to hundreds of nodes).
    let order = cdfg.slices().topo();
    loop {
        let mut changed = false;
        // Forward: earliest = max(pred earliest + 1).
        for &n in order {
            if !frames.contains_key(&n) {
                continue;
            }
            let mut earliest = frames[&n].earliest;
            for p in cdfg.preds(n) {
                if let Some(pf) = frames.get(p) {
                    earliest = earliest.max(pf.earliest + 1);
                }
            }
            let frame = frames.get_mut(&n).expect("present");
            if earliest > frame.latest {
                return Err(ScheduleError::InfeasiblePropagation { node: n });
            }
            if fixed.contains_key(&n) {
                continue;
            }
            if earliest > frame.earliest {
                frame.earliest = earliest;
                changed = true;
            }
        }
        // Backward: latest = min(succ latest - 1).
        for &n in order.iter().rev() {
            if !frames.contains_key(&n) {
                continue;
            }
            let mut latest = frames[&n].latest;
            for s in cdfg.succs(n) {
                if let Some(sf) = frames.get(s) {
                    latest = latest.min(sf.latest.saturating_sub(1));
                }
            }
            let frame = frames.get_mut(&n).expect("present");
            if latest < frame.earliest {
                return Err(ScheduleError::InfeasiblePropagation { node: n });
            }
            if fixed.contains_key(&n) {
                continue;
            }
            if latest < frame.latest {
                frame.latest = latest;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;

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
    fn reference_reproduces_figure_2a() {
        let (g, _gt, amb, bma, _m) = abs_diff();
        let s = schedule(&g, 3).unwrap();
        s.validate(&g).unwrap();
        assert_ne!(s.step_of(amb), s.step_of(bma));
        assert_eq!(s.resource_usage(&g).count(OpClass::Sub), 1);
    }

    #[test]
    fn reference_rejects_sub_critical_latency() {
        let (g, ..) = abs_diff();
        let err = schedule(&g, 1).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyTooSmall { requested: 1, critical_path: 2 }));
    }

    #[test]
    fn propagate_surfaces_infeasibility_instead_of_clamping() {
        // A deep chain a -> b -> c -> d.  Fixing the tail at step 2 leaves
        // only one step for its three predecessors; the old clamp
        // (`saturating_sub(1).max(1)`) would silently floor every latest to
        // step 1 and report success with corrupted frames.
        let mut g = Cdfg::new("chain");
        let x = g.add_input("x");
        let a = g.add_op(Op::Neg, &[x]).unwrap();
        let b = g.add_op(Op::Neg, &[a]).unwrap();
        let c = g.add_op(Op::Neg, &[b]).unwrap();
        let d = g.add_op(Op::Neg, &[c]).unwrap();
        g.add_output("o", d).unwrap();

        let timing = Timing::compute(&g, 6);
        let mut frames: BTreeMap<NodeId, Frame> = g
            .slices()
            .functional()
            .iter()
            .map(|&n| (n, Frame { earliest: timing.asap(n), latest: timing.alap(n) }))
            .collect();
        // Simulate a (buggy) late fix: d pinned to step 2, far below the
        // depth of its predecessor chain.
        frames.insert(d, Frame { earliest: 2, latest: 2 });
        let fixed: BTreeMap<NodeId, u32> = [(d, 2)].into_iter().collect();
        let err = propagate(&g, &mut frames, &fixed).unwrap_err();
        assert!(matches!(err, ScheduleError::InfeasiblePropagation { .. }));
    }
}
