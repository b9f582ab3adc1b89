//! Value lifetime analysis and left-edge register allocation.
//!
//! A value produced in control step `s` and consumed in later steps must be
//! stored in a register from the end of step `s` until its last use.
//! Primary inputs are stored in input registers for as long as any operation
//! reads them — these are exactly the registers whose *load enables* the
//! power-management controller gates.  Constants get a register the same
//! way, although [`crate::Datapath`] wires every read of a constant
//! directly.
//!
//! Lifetimes and the value → register map are arrays indexed by
//! [`NodeId::index`].  The left-edge pass takes the values in `(birth,
//! death, value)` order and gives each the lowest-numbered register whose
//! last value has died by its birth: a min-heap of busy registers keyed by
//! that release step, and a min-heap of free register indices, make it
//! O(n log n).  Because births arrive sorted, a register is free exactly
//! when every value it holds has died, so this is the first fit over every
//! register's occupants that the pass used to scan for.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use cdfg::{Cdfg, NodeId};
use sched::Schedule;

use crate::error::BindError;

/// Identifier of a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(u32);

impl RegisterId {
    /// Creates a register id from a raw index.
    pub fn new(index: u32) -> Self {
        RegisterId(index)
    }

    /// The raw index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The lifetime of one value in control steps.
///
/// The value becomes available at the end of `birth` (0 for primary inputs,
/// which are available before the first step) and is last read during
/// `death`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// The value (CDFG node producing it).
    pub value: NodeId,
    /// Step producing the value (0 = primary input / constant).
    pub birth: u32,
    /// Last step reading the value.
    pub death: u32,
}

impl Lifetime {
    /// Whether this value must be stored in a register at all (it is
    /// consumed in a step after the one producing it, or it is a primary
    /// input / output value).
    pub fn needs_register(&self) -> bool {
        self.death > self.birth
    }

    /// Whether two lifetimes overlap (cannot share a register).
    pub fn overlaps(&self, other: &Lifetime) -> bool {
        // Storage is needed during (birth, death]; two values conflict when
        // those half-open intervals intersect.
        self.birth < other.death && other.birth < self.death
    }
}

/// A physical register holding one or more (non-overlapping) values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Register id.
    pub id: RegisterId,
    /// Instance name, e.g. `r3`.
    pub name: String,
    /// Values stored in this register, in allocation order.
    pub values: Vec<NodeId>,
}

/// The result of register allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegisterAllocation {
    registers: Vec<Register>,
    /// `assignment[n.index()]` is the register storing value `n`, if any.
    assignment: Vec<Option<RegisterId>>,
    /// `lifetimes[n.index()]` is the lifetime of value `n` (`None` for
    /// output nodes, which produce no value).
    lifetimes: Vec<Option<Lifetime>>,
}

impl RegisterAllocation {
    /// Computes lifetimes for every value of the scheduled design and packs
    /// them into registers with the left-edge algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::UnscheduledNode`] if a functional node has no
    /// step assigned.
    pub fn allocate(cdfg: &Cdfg, schedule: &Schedule) -> Result<Self, BindError> {
        let lifetimes = compute_lifetimes(cdfg, schedule)?;

        // Left-edge: sort by birth, place each value in the first register
        // whose occupants have all died by its birth.
        let mut sorted: Vec<Lifetime> =
            lifetimes.iter().flatten().filter(|l| l.needs_register()).copied().collect();
        sorted.sort_unstable_by_key(|l| (l.birth, l.death, l.value));

        let mut registers: Vec<Register> = Vec::new();
        let mut assignment: Vec<Option<RegisterId>> = vec![None; lifetimes.len()];
        // Busy registers as `(release step, index)`, and free indices.
        let mut busy: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        for lifetime in sorted {
            while let Some(&Reverse((release, index))) = busy.peek() {
                if release > lifetime.birth {
                    break;
                }
                busy.pop();
                free.push(Reverse(index));
            }
            let id = match free.pop() {
                Some(Reverse(index)) => RegisterId(index),
                None => {
                    let id = RegisterId(registers.len() as u32);
                    registers.push(Register { id, name: format!("r{}", id.0), values: Vec::new() });
                    id
                }
            };
            registers[id.index()].values.push(lifetime.value);
            assignment[lifetime.value.index()] = Some(id);
            busy.push(Reverse((lifetime.death, id.0)));
        }

        Ok(RegisterAllocation { registers, assignment, lifetimes })
    }

    /// All physical registers, ordered by id.
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// The register storing `value`, if it needed one.
    pub fn register_of(&self, value: NodeId) -> Option<RegisterId> {
        self.assignment.get(value.index()).copied().flatten()
    }

    /// The lifetime computed for `value`.
    pub fn lifetime(&self, value: NodeId) -> Option<Lifetime> {
        self.lifetimes.get(value.index()).copied().flatten()
    }

    /// Number of registers allocated.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Iterates over all lifetimes in node order (including values that
    /// ended up not needing storage).
    pub fn lifetimes(&self) -> impl Iterator<Item = &Lifetime> + '_ {
        self.lifetimes.iter().flatten()
    }
}

/// Every node's lifetime by node index (`None` for outputs): born in its
/// step (0 for inputs and constants), dead at its last reader's step, where
/// an output reads at the last step.
fn compute_lifetimes(cdfg: &Cdfg, schedule: &Schedule) -> Result<Vec<Option<Lifetime>>, BindError> {
    let slices = cdfg.slices();
    if slices.functional().iter().any(|&n| schedule.step_of(n).is_none()) {
        return Err(first_unscheduled(cdfg, schedule));
    }
    let step_of = |node: NodeId, op: cdfg::Op| -> u32 {
        if op.is_functional() {
            schedule.step_of(node).expect("checked above")
        } else {
            0
        }
    };

    let last_step = schedule.num_steps().max(schedule.last_used_step());
    let mut lifetimes: Vec<Option<Lifetime>> = cdfg
        .iter_nodes()
        .map(|(node, data)| {
            let birth = step_of(node, data.op);
            (!data.op.is_output()).then_some(Lifetime { value: node, birth, death: birth })
        })
        .collect();
    for (consumer, data) in cdfg.iter_nodes() {
        // Output values must survive to the end of the computation.
        let read_at = if data.op.is_output() { last_step } else { step_of(consumer, data.op) };
        for &operand in cdfg.operands(consumer) {
            if let Some(lifetime) = &mut lifetimes[operand.index()] {
                lifetime.death = lifetime.death.max(read_at);
            }
        }
    }
    Ok(lifetimes)
}

/// The error for a schedule missing a functional node: the first one met
/// walking the values in node order, each value before its readers (in
/// node order), as the lifetime pass has always reported it.
fn first_unscheduled(cdfg: &Cdfg, schedule: &Schedule) -> BindError {
    let unscheduled = |n: NodeId| cdfg.op(n).is_functional() && schedule.step_of(n).is_none();
    for (node, data) in cdfg.iter_nodes() {
        if data.op.is_output() {
            continue;
        }
        if let Some(n) =
            std::iter::once(node).chain(cdfg.data_successors(node)).find(|&n| unscheduled(n))
        {
            return BindError::UnscheduledNode(n);
        }
    }
    unreachable!("a functional node is unscheduled, and every node is walked")
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
    fn lifetimes_span_production_to_last_use() {
        let (g, gt, _amb, _bma, m) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let alloc = RegisterAllocation::allocate(&g, &s).unwrap();
        let gt_life = alloc.lifetime(gt).unwrap();
        assert_eq!(gt_life.birth, s.step_of(gt).unwrap());
        assert_eq!(gt_life.death, s.step_of(m).unwrap());
        assert!(gt_life.needs_register());
        // Inputs are born at step 0 and live until their last reader.
        for &input in g.inputs() {
            let life = alloc.lifetime(input).unwrap();
            assert_eq!(life.birth, 0);
            assert!(life.death >= 1);
            assert!(alloc.register_of(input).is_some());
        }
        // The mux result feeds the primary output, so it lives to the end.
        assert_eq!(alloc.lifetime(m).unwrap().death, 3);
    }

    #[test]
    fn overlapping_values_get_distinct_registers() {
        let (g, gt, amb, bma, _m) = abs_diff();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(2)).unwrap();
        let alloc = RegisterAllocation::allocate(&g, &s).unwrap();
        // gt, amb and bma are all produced in step 1 and consumed in step 2:
        // their lifetimes overlap pairwise, so three distinct registers.
        let regs: Vec<_> = [gt, amb, bma].iter().map(|&n| alloc.register_of(n).unwrap()).collect();
        assert_ne!(regs[0], regs[1]);
        assert_ne!(regs[1], regs[2]);
        assert_ne!(regs[0], regs[2]);
    }

    #[test]
    fn left_edge_reuses_registers_for_disjoint_lifetimes() {
        // A chain a+b -> +c -> +d: each intermediate dies when the next is
        // produced, so intermediates can share registers.
        let mut g = Cdfg::new("chain");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let s1 = g.add_op(Op::Add, &[a, b]).unwrap();
        let s2 = g.add_op(Op::Add, &[s1, c]).unwrap();
        let s3 = g.add_op(Op::Add, &[s2, d]).unwrap();
        g.add_output("sum", s3).unwrap();
        let s = hyper::schedule(&g, &HyperOptions::with_latency(3)).unwrap();
        let alloc = RegisterAllocation::allocate(&g, &s).unwrap();
        // s1 dies at step 2 (read by s2), s3 is born at step 3: they can
        // share.  The exact packing depends on ordering, but the total must
        // be below the naive one-register-per-value count.
        let naive = alloc.lifetimes().filter(|l| l.needs_register()).count();
        assert!(alloc.register_count() < naive, "{} < {naive}", alloc.register_count());
    }

    #[test]
    fn same_register_never_holds_overlapping_values() {
        let (g, ..) = abs_diff();
        for latency in 2..=4 {
            let s = hyper::schedule(&g, &HyperOptions::with_latency(latency)).unwrap();
            let alloc = RegisterAllocation::allocate(&g, &s).unwrap();
            for reg in alloc.registers() {
                for (i, &v1) in reg.values.iter().enumerate() {
                    for &v2 in &reg.values[i + 1..] {
                        let l1 = alloc.lifetime(v1).unwrap();
                        let l2 = alloc.lifetime(v2).unwrap();
                        assert!(
                            !l1.overlaps(&l2),
                            "register {} holds overlapping values",
                            reg.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unscheduled_node_is_reported() {
        let (g, ..) = abs_diff();
        let empty = sched::Schedule::new(3);
        assert!(matches!(
            RegisterAllocation::allocate(&g, &empty),
            Err(BindError::UnscheduledNode(_))
        ));
    }

    #[test]
    fn lifetime_overlap_is_symmetric_and_irreflexive_for_points() {
        let l1 = Lifetime { value: NodeId::new(0), birth: 1, death: 3 };
        let l2 = Lifetime { value: NodeId::new(1), birth: 2, death: 4 };
        let l3 = Lifetime { value: NodeId::new(2), birth: 3, death: 5 };
        assert!(l1.overlaps(&l2));
        assert!(l2.overlaps(&l1));
        assert!(!l1.overlaps(&l3), "value dying at 3 and value born at 3 can share");
        let point = Lifetime { value: NodeId::new(3), birth: 2, death: 2 };
        assert!(!point.needs_register());
    }
}
