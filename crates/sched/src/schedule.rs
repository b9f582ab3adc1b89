//! The schedule type: an assignment of functional operations to control
//! steps, plus validation and resource accounting.

use std::collections::BTreeMap;
use std::fmt;

use cdfg::{Cdfg, NodeId, OpClass};

use crate::error::ScheduleError;
use crate::resource::{ResourceConstraint, ResourceSet};

/// An operation schedule: every functional node is assigned to exactly one
/// control step in `1..=num_steps`.
///
/// The assignment is a step array indexed by [`NodeId::index`], where 0
/// means "unscheduled" (steps start at 1), so [`Schedule::step_of`] is one
/// array read.  The array grows to the highest node assigned.  Two
/// schedules are equal when they have the same step count and the same
/// assignments, whatever their array lengths.
#[derive(Clone, Default)]
pub struct Schedule {
    num_steps: u32,
    /// `steps[n.index()]` is node `n`'s step, or 0 when unscheduled.
    steps: Vec<u32>,
    /// Number of nonzero entries of `steps`.
    len: usize,
}

impl Schedule {
    /// Creates an empty schedule spanning `num_steps` control steps.
    pub fn new(num_steps: u32) -> Self {
        Schedule { num_steps, steps: Vec::new(), len: 0 }
    }

    /// An empty schedule whose step array already spans `slots` node slots,
    /// so a scheduler assigning every node of a graph allocates once.
    pub(crate) fn with_slots(num_steps: u32, slots: usize) -> Self {
        Schedule { num_steps, steps: vec![0; slots], len: 0 }
    }

    /// Number of control steps (the throughput constraint of the design).
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// Assigns `node` to `step`, replacing any previous assignment.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or exceeds [`Schedule::num_steps`].
    pub fn assign(&mut self, node: NodeId, step: u32) {
        assert!(step >= 1 && step <= self.num_steps, "step {step} outside 1..={}", self.num_steps);
        let slot = node.index();
        if slot >= self.steps.len() {
            self.steps.resize(slot + 1, 0);
        }
        if self.steps[slot] == 0 {
            self.len += 1;
        }
        self.steps[slot] = step;
    }

    /// The control step assigned to `node`, if any.
    pub fn step_of(&self, node: NodeId) -> Option<u32> {
        self.steps.get(node.index()).copied().filter(|&step| step != 0)
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no operation has been scheduled yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(node, step)` assignments in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.steps
            .iter()
            .enumerate()
            .filter(|&(_, &step)| step != 0)
            .map(|(slot, &step)| (NodeId::new(slot as u32), step))
    }

    /// The scheduled nodes grouped by step: one `(step, nodes)` entry per
    /// step that holds a node, in step order, each step's nodes in node-id
    /// order.  It takes one sort of the scheduled nodes and its size is
    /// their number, whatever the step count.
    pub fn by_step(&self) -> Vec<(u32, Vec<NodeId>)> {
        let mut order: Vec<(NodeId, u32)> = self.iter().collect();
        // `iter` yields node-id order and the sort is stable.
        order.sort_by_key(|&(_, step)| step);
        let mut groups: Vec<(u32, Vec<NodeId>)> = Vec::new();
        for (node, step) in order {
            match groups.last_mut() {
                Some((last, nodes)) if *last == step => nodes.push(node),
                _ => groups.push((step, vec![node])),
            }
        }
        groups
    }

    /// The highest step actually used (0 when empty).  This can be smaller
    /// than [`Schedule::num_steps`] if the tail steps are idle.
    pub fn last_used_step(&self) -> u32 {
        self.steps.iter().copied().max().unwrap_or(0)
    }

    /// Per-class resource usage of each step and the element-wise maximum
    /// over all steps — the number of execution units an allocation needs to
    /// provide for this schedule.
    pub fn resource_usage(&self, cdfg: &Cdfg) -> ResourceSet {
        let mut max = [0usize; OpClass::FUNCTIONAL.len()];
        for (_, nodes) in self.by_step() {
            let mut used = [0usize; OpClass::FUNCTIONAL.len()];
            for node in nodes {
                if let Some(data) = cdfg.node(node) {
                    if data.op.is_functional() {
                        used[data.op.class().dense_index()] += 1;
                    }
                }
            }
            for (peak, count) in max.iter_mut().zip(used) {
                *peak = (*peak).max(count);
            }
        }
        ResourceSet::from_pairs(OpClass::FUNCTIONAL.into_iter().zip(max))
    }

    /// Checks that the schedule is complete and respects precedence, step
    /// bounds and (optionally) a resource constraint.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`ScheduleError`].
    pub fn validate(&self, cdfg: &Cdfg) -> Result<(), ScheduleError> {
        self.validate_with(cdfg, &ResourceConstraint::Unlimited)
    }

    /// Like [`Schedule::validate`] but also checks per-step resource usage
    /// against `constraint`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`ScheduleError`].
    pub fn validate_with(
        &self,
        cdfg: &Cdfg,
        constraint: &ResourceConstraint,
    ) -> Result<(), ScheduleError> {
        // Completeness (`assign` keeps every step within `1..=num_steps`).
        for &node in cdfg.slices().functional() {
            if self.step_of(node).is_none() {
                return Err(ScheduleError::MissingNode(node));
            }
        }
        // Precedence over both data and control edges: a functional
        // predecessor must finish strictly before its consumer starts.
        for &node in cdfg.slices().functional() {
            let step = self.step_of(node).expect("checked above");
            for &pred in cdfg.preds(node) {
                let pred_data = cdfg.node(pred).expect("live node");
                if !pred_data.op.is_functional() {
                    continue;
                }
                let pred_step = self.step_of(pred).ok_or(ScheduleError::MissingNode(pred))?;
                if pred_step >= step {
                    return Err(ScheduleError::PrecedenceViolation { before: pred, after: node });
                }
            }
        }
        // Resources.
        for (step, nodes) in self.by_step() {
            let mut used: BTreeMap<OpClass, usize> = BTreeMap::new();
            for node in nodes {
                if let Some(data) = cdfg.node(node) {
                    *used.entry(data.op.class()).or_insert(0) += 1;
                }
            }
            for (class, count) in used {
                if !constraint.allows(class, count) {
                    return Err(ScheduleError::ResourceOverflow {
                        step,
                        class: class.label(),
                        limit: constraint.limit(class).unwrap_or(0),
                        used: count,
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders the schedule as a step-by-step table using node names.
    pub fn render(&self, cdfg: &Cdfg) -> String {
        let mut groups = self.by_step().into_iter().peekable();
        let mut out = String::new();
        for step in 1..=self.num_steps {
            let nodes = groups.next_if(|(s, _)| *s == step).map(|(_, nodes)| nodes);
            let names: Vec<String> = nodes
                .unwrap_or_default()
                .into_iter()
                .filter_map(|n| cdfg.node(n).map(|d| format!("{} ({})", d.name, d.op)))
                .collect();
            out.push_str(&format!("step {step}: {}\n", names.join(", ")));
        }
        out
    }
}

impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.steps.len() <= other.steps.len() {
            (&self.steps, &other.steps)
        } else {
            (&other.steps, &self.steps)
        };
        // With equal counts and an equal common prefix, the longer array's
        // tail holds no assignment.
        self.num_steps == other.num_steps && self.len == other.len && long.starts_with(short)
    }
}

impl Eq for Schedule {}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The assignments as a node-to-step map; the unscheduled slots are noise.
        write!(f, "Schedule {{ num_steps: {}, steps: ", self.num_steps)?;
        f.debug_map().entries(self.iter()).finish()?;
        f.write_str(" }")
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule over {} steps ({} operations)", self.num_steps, self.len)
    }
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

    fn figure1_schedule(gt: NodeId, amb: NodeId, bma: NodeId, m: NodeId) -> Schedule {
        let mut s = Schedule::new(2);
        s.assign(gt, 1);
        s.assign(amb, 1);
        s.assign(bma, 1);
        s.assign(m, 2);
        s
    }

    #[test]
    fn figure1_schedule_is_valid_and_needs_two_subtractors() {
        let (g, gt, amb, bma, m) = abs_diff();
        let s = figure1_schedule(gt, amb, bma, m);
        s.validate(&g).unwrap();
        let usage = s.resource_usage(&g);
        assert_eq!(usage.count(OpClass::Sub), 2, "both subtractions share step 1");
        assert_eq!(usage.count(OpClass::Comp), 1);
        assert_eq!(usage.count(OpClass::Mux), 1);
        assert_eq!(s.last_used_step(), 2);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn missing_node_is_reported() {
        let (g, gt, amb, _bma, m) = abs_diff();
        let mut s = Schedule::new(2);
        s.assign(gt, 1);
        s.assign(amb, 1);
        s.assign(m, 2);
        assert!(matches!(s.validate(&g), Err(ScheduleError::MissingNode(_))));
    }

    #[test]
    fn precedence_violation_is_reported() {
        let (g, gt, amb, bma, m) = abs_diff();
        let mut s = Schedule::new(2);
        s.assign(gt, 1);
        s.assign(amb, 2);
        s.assign(bma, 1);
        s.assign(m, 2);
        let err = s.validate(&g).unwrap_err();
        assert!(matches!(err, ScheduleError::PrecedenceViolation { .. }));
    }

    #[test]
    fn control_edges_participate_in_precedence() {
        let (mut g, gt, amb, bma, m) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        let mut s = Schedule::new(2);
        s.assign(gt, 1);
        s.assign(amb, 1); // violates the control edge
        s.assign(bma, 1);
        s.assign(m, 2);
        let err = s.validate(&g).unwrap_err();
        assert!(matches!(err, ScheduleError::PrecedenceViolation { before, .. } if before == gt));
    }

    #[test]
    fn resource_constraint_violation_is_reported() {
        let (g, gt, amb, bma, m) = abs_diff();
        let s = figure1_schedule(gt, amb, bma, m);
        let one_sub =
            ResourceConstraint::limited([(OpClass::Sub, 1), (OpClass::Comp, 1), (OpClass::Mux, 1)]);
        let err = s.validate_with(&g, &one_sub).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::ResourceOverflow { class: "-", used: 2, limit: 1, .. }
        ));
    }

    #[test]
    fn assign_replaces_previous_step() {
        let (_, gt, ..) = abs_diff();
        let mut s = Schedule::new(3);
        s.assign(gt, 1);
        s.assign(gt, 2);
        assert_eq!(s.step_of(gt), Some(2));
        assert_eq!(s.by_step(), vec![(2, vec![gt])]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn equality_ignores_unscheduled_slots_past_the_last_assignment() {
        let (_, gt, amb, ..) = abs_diff();
        let mut short = Schedule::new(3);
        short.assign(amb, 2);
        short.assign(gt, 1);
        let mut long = Schedule::with_slots(3, 64);
        long.assign(gt, 1);
        long.assign(amb, 2);
        assert!(long.steps.len() > short.steps.len());
        assert_eq!(short, long);
        assert_eq!(long, short);
        long.assign(NodeId::new(63), 3);
        assert_ne!(short, long);
        assert_ne!(long, short);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn assigning_out_of_range_panics() {
        let (_, gt, ..) = abs_diff();
        let mut s = Schedule::new(2);
        s.assign(gt, 3);
    }

    #[test]
    fn render_and_display_are_nonempty() {
        let (g, gt, amb, bma, m) = abs_diff();
        let s = figure1_schedule(gt, amb, bma, m);
        let rendered = s.render(&g);
        assert!(rendered.contains("step 1"));
        assert!(rendered.contains("mux"));
        assert!(s.to_string().contains("2 steps"));
    }
}
