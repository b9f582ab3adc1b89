//! Functional-unit binding.
//!
//! Operations scheduled in the same control step must execute on different
//! execution units of their class; operations in different steps may share a
//! unit.  The binder sweeps the schedule step by step and assigns each
//! operation the lowest-numbered free unit of its class, which yields exactly
//! the per-class peak concurrency of the schedule — the same number of units
//! [`sched::Schedule::resource_usage`] reports.

use std::collections::BTreeMap;
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
    assignment: BTreeMap<NodeId, UnitId>,
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
        // Units per (class, partition), created on demand.
        // `pools[key][k]` is the unit id of the k-th unit of that key.
        let mut pools: BTreeMap<(OpClass, u32), Vec<UnitId>> = BTreeMap::new();
        let mut units: Vec<FunctionalUnit> = Vec::new();
        let mut assignment: BTreeMap<NodeId, UnitId> = BTreeMap::new();

        for &node in cdfg.slices().functional() {
            if schedule.step_of(node).is_none() {
                return Err(BindError::UnscheduledNode(node));
            }
        }

        for (_, nodes) in schedule.by_step() {
            // Operations of this step grouped by class and partition, in
            // node order for determinism.
            let mut by_key: BTreeMap<(OpClass, u32), Vec<NodeId>> = BTreeMap::new();
            for node in nodes {
                if let Some(data) = cdfg.node(node) {
                    if data.op.is_functional() {
                        by_key.entry((data.op.class(), partition(node))).or_default().push(node);
                    }
                }
            }
            for ((class, part), nodes) in by_key {
                let pool = pools.entry((class, part)).or_default();
                for (k, node) in nodes.into_iter().enumerate() {
                    if k >= pool.len() {
                        let id = UnitId(units.len() as u32);
                        units.push(FunctionalUnit {
                            id,
                            class,
                            name: format!(
                                "{}_{}",
                                class.label().to_lowercase().replace(['+', '-', '*', '/'], "fu"),
                                k
                            ),
                        });
                        pool.push(id);
                    }
                    assignment.insert(node, pool[k]);
                }
            }
        }

        // Give the units friendlier names now that the per-class counts are
        // known (e.g. `sub_0`, `sub_1`).
        let mut per_class_counter: BTreeMap<OpClass, u32> = BTreeMap::new();
        for unit in &mut units {
            let counter = per_class_counter.entry(unit.class).or_insert(0);
            unit.name = format!("{}_{}", class_prefix(unit.class), counter);
            *counter += 1;
        }

        Ok(FuBinding { units, assignment })
    }

    /// All physical units, ordered by id.
    pub fn units(&self) -> &[FunctionalUnit] {
        &self.units
    }

    /// The unit executing `node`, if it was bound.
    pub fn unit_of(&self, node: NodeId) -> Option<UnitId> {
        self.assignment.get(&node).copied()
    }

    /// The unit record for `id`.
    pub fn unit(&self, id: UnitId) -> Option<&FunctionalUnit> {
        self.units.get(id.index())
    }

    /// All operations bound to `unit`, in node order.
    pub fn nodes_on_unit(&self, unit: UnitId) -> Vec<NodeId> {
        self.assignment.iter().filter(|(_, &u)| u == unit).map(|(&n, _)| n).collect()
    }

    /// Number of units of `class`.
    pub fn unit_count(&self, class: OpClass) -> usize {
        self.units.iter().filter(|u| u.class == class).count()
    }

    /// Iterates over `(node, unit)` assignments.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, UnitId)> + '_ {
        self.assignment.iter().map(|(&n, &u)| (n, u))
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
