//! Functional-unit binding.
//!
//! Operations scheduled in the same control step must execute on different
//! execution units of their class; operations in different steps may share a
//! unit.  The binder sweeps the schedule step by step and assigns each
//! operation the lowest-numbered free unit of its class, which yields exactly
//! the per-class peak concurrency of the schedule — the same number of units
//! [`sched::Schedule::resource_usage`] reports.
//!
//! The sweep groups the functional nodes by step with a counting sort and
//! sorts each step's nodes by `(class, partition, node)`; the binding is an
//! array indexed by [`NodeId::index`].

use std::fmt;

use cdfg::{Cdfg, NodeId, OpClass};
use sched::Schedule;

use crate::error::BindError;

/// Identifier of a physical execution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(u32);

impl UnitId {
    /// Creates a unit id from a raw index.
    pub fn new(index: u32) -> Self {
        UnitId(index)
    }

    /// The raw index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A physical execution unit of the datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalUnit {
    /// Unit id (unique across all classes).
    pub id: UnitId,
    /// The operation class the unit implements.
    pub class: OpClass,
    /// Instance name, e.g. `sub_0`.
    pub name: String,
}

/// The result of functional-unit binding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuBinding {
    units: Vec<FunctionalUnit>,
    /// `assignment[n.index()]` is the unit executing node `n`, if bound.
    assignment: Vec<Option<UnitId>>,
}

impl FuBinding {
    /// Binds every scheduled functional operation of `cdfg` to a unit.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::UnscheduledNode`] if a functional node has no
    /// step assigned.
    pub fn bind(cdfg: &Cdfg, schedule: &Schedule) -> Result<Self, BindError> {
        FuBinding::bind_partitioned(cdfg, schedule, &|_| 0)
    }

    /// Binds with a *sharing partition*: operations may share a unit only
    /// when `partition` agrees on them.  This is how per-operation voltage
    /// reaches the area model — two operations at different supply levels
    /// cannot run on the same physical unit, so the explorer passes the
    /// voltage level as the partition and the extra units show up as area.
    ///
    /// `bind` is the single-partition case (`|_| 0`) and produces an
    /// identical binding — same unit ids, names and assignment.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::UnscheduledNode`] if a functional node has no
    /// step assigned.
    pub fn bind_partitioned(
        cdfg: &Cdfg,
        schedule: &Schedule,
        partition: &dyn Fn(NodeId) -> u32,
    ) -> Result<Self, BindError> {
        let slices = cdfg.slices();
        let functional = slices.functional();
        let mut last_step = 0;
        for &node in functional {
            match schedule.step_of(node) {
                Some(step) => last_step = last_step.max(step as usize),
                None => return Err(BindError::UnscheduledNode(node)),
            }
        }

        // Counting sort of the functional nodes by step; each step keeps
        // ascending node order.
        let step_of = |node: NodeId| schedule.step_of(node).expect("checked above") as usize;
        let mut step_start = vec![0usize; last_step + 2];
        for &node in functional {
            step_start[step_of(node) + 1] += 1;
        }
        for step in 0..=last_step {
            step_start[step + 1] += step_start[step];
        }
        let mut next = step_start.clone();
        let mut by_step = vec![NodeId::new(0); functional.len()];
        for &node in functional {
            let slot = &mut next[step_of(node)];
            by_step[*slot] = node;
            *slot += 1;
        }

        // Units per (class, partition), created on demand and kept sorted
        // by key: `pools[i].1[k]` is the k-th unit of key `pools[i].0`.
        let mut pools: Vec<((OpClass, u32), Vec<UnitId>)> = Vec::new();
        let mut units: Vec<FunctionalUnit> = Vec::new();
        // Units are named per class in id order: `sub_0`, `sub_1`, ...
        let mut per_class = [0u32; OpClass::Structural as usize + 1];
        let mut assignment: Vec<Option<UnitId>> = vec![None; slices.slot_count()];
        let mut keyed: Vec<(OpClass, u32, NodeId)> = Vec::new();
        for step in 0..=last_step {
            // This step's operations by class and partition, in node order.
            keyed.clear();
            keyed.extend(
                by_step[step_start[step]..step_start[step + 1]]
                    .iter()
                    .map(|&node| (cdfg.op(node).class(), partition(node), node)),
            );
            keyed.sort_unstable();
            let mut k = 0;
            for (i, &(class, part, node)) in keyed.iter().enumerate() {
                k = if i > 0 && keyed[i - 1].0 == class && keyed[i - 1].1 == part {
                    k + 1
                } else {
                    0
                };
                let pool = match pools.binary_search_by_key(&(class, part), |(key, _)| *key) {
                    Ok(at) => at,
                    Err(at) => {
                        pools.insert(at, ((class, part), Vec::new()));
                        at
                    }
                };
                let pool = &mut pools[pool].1;
                if k >= pool.len() {
                    let id = UnitId(units.len() as u32);
                    let counter = &mut per_class[class as usize];
                    units.push(FunctionalUnit {
                        id,
                        class,
                        name: format!("{}_{}", class_prefix(class), counter),
                    });
                    *counter += 1;
                    pool.push(id);
                }
                assignment[node.index()] = Some(pool[k]);
            }
        }

        Ok(FuBinding { units, assignment })
    }

    /// All physical units, ordered by id.
    pub fn units(&self) -> &[FunctionalUnit] {
        &self.units
    }

    /// The unit executing `node`, if it was bound.
    pub fn unit_of(&self, node: NodeId) -> Option<UnitId> {
        self.assignment.get(node.index()).copied().flatten()
    }

    /// The unit record for `id`.
    pub fn unit(&self, id: UnitId) -> Option<&FunctionalUnit> {
        self.units.get(id.index())
    }

    /// All operations bound to `unit`, in node order.
    pub fn nodes_on_unit(&self, unit: UnitId) -> Vec<NodeId> {
        self.iter().filter(|&(_, u)| u == unit).map(|(n, _)| n).collect()
    }

    /// Number of units of `class`.
    pub fn unit_count(&self, class: OpClass) -> usize {
        self.units.iter().filter(|u| u.class == class).count()
    }

    /// Iterates over `(node, unit)` assignments in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, UnitId)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, unit)| Some((NodeId::new(i as u32), (*unit)?)))
    }
}

fn class_prefix(class: OpClass) -> &'static str {
    match class {
        OpClass::Mux => "mux",
        OpClass::Comp => "cmp",
        OpClass::Add => "add",
        OpClass::Sub => "sub",
        OpClass::Mul => "mul",
        OpClass::Div => "div",
        OpClass::Logic => "log",
        OpClass::Structural => "io",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;
    use sched::hyper::{self, HyperOptions};

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
    fn same_step_operations_get_distinct_units() {
        let (g, _gt, amb, bma, _m) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(2)).unwrap();
        let binding = FuBinding::bind(&g, &s).unwrap();
        // Two subtractions in step 1 need two subtractors.
        assert_eq!(binding.unit_count(OpClass::Sub), 2);
        assert_ne!(binding.unit_of(amb), binding.unit_of(bma));
    }

    #[test]
    fn different_step_operations_share_a_unit() {
        let (g, _gt, amb, bma, _m) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let binding = FuBinding::bind(&g, &s).unwrap();
        assert_eq!(binding.unit_count(OpClass::Sub), 1);
        assert_eq!(binding.unit_of(amb), binding.unit_of(bma));
        let shared = binding.unit_of(amb).unwrap();
        assert_eq!(binding.nodes_on_unit(shared).len(), 2);
    }

    #[test]
    fn binding_matches_schedule_resource_usage() {
        let (g, ..) = abs_diff();
        for latency in 2..=4 {
            let s = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
            let usage = s.resource_usage(&g);
            let binding = FuBinding::bind(&g, &s).unwrap();
            for class in OpClass::FUNCTIONAL {
                assert_eq!(
                    binding.unit_count(class),
                    usage.count(class),
                    "latency {latency}, class {class}"
                );
            }
        }
    }

    #[test]
    fn unit_names_are_per_class() {
        let (g, ..) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(2)).unwrap();
        let binding = FuBinding::bind(&g, &s).unwrap();
        let names: Vec<&str> = binding.units().iter().map(|u| u.name.as_str()).collect();
        assert!(names.contains(&"sub_0"));
        assert!(names.contains(&"sub_1"));
        assert!(names.contains(&"cmp_0"));
        assert!(names.contains(&"mux_0"));
    }

    #[test]
    fn single_partition_binding_is_identical_to_bind() {
        let (g, ..) = abs_diff();
        for latency in 2..=4 {
            let s = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
            let plain = FuBinding::bind(&g, &s).unwrap();
            let partitioned = FuBinding::bind_partitioned(&g, &s, &|_| 0).unwrap();
            assert_eq!(plain, partitioned, "latency {latency}");
        }
    }

    #[test]
    fn partitioned_operations_never_share_a_unit() {
        // At latency 3 the two subtractions share one subtractor; putting
        // them in different partitions forces a second unit.
        let (g, _gt, amb, bma, _m) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let split = move |n: NodeId| if n == amb { 1 } else { 0 };
        let binding = FuBinding::bind_partitioned(&g, &s, &split).unwrap();
        assert_eq!(binding.unit_count(OpClass::Sub), 2);
        assert_ne!(binding.unit_of(amb), binding.unit_of(bma));
    }

    #[test]
    fn unscheduled_node_is_reported() {
        let (g, gt, ..) = abs_diff();
        let mut s = sched::Schedule::new(3);
        s.assign(gt, 1);
        let err = FuBinding::bind(&g, &s).unwrap_err();
        assert!(matches!(err, BindError::UnscheduledNode(_)));
    }

    #[test]
    fn unit_lookup_roundtrip() {
        let (g, gt, ..) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let binding = FuBinding::bind(&g, &s).unwrap();
        let unit = binding.unit_of(gt).unwrap();
        assert_eq!(binding.unit(unit).unwrap().class, OpClass::Comp);
        assert_eq!(UnitId::new(3).index(), 3);
        assert_eq!(UnitId::new(3).to_string(), "u3");
    }
}
