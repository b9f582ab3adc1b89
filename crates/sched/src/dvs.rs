//! Slack distribution for fine-grained DVS: picking a discrete slow-down
//! level per operation under a latency budget.
//!
//! The multi-objective DVS literature assigns each operator its own supply
//! voltage from a small discrete set; a lower voltage makes the operation
//! cheaper but slower.  At the scheduling layer that is a *duration*
//! choice: every functional operation picks a [`SlackLevel`] — a number of
//! control steps it occupies and the energy factor it pays — and the
//! duration-weighted critical path of the graph must still fit the latency
//! budget.  [`distribute_slack`] is the deterministic greedy kernel that
//! makes those choices.  Two references are compiled under
//! `cfg(any(test, feature = "reference"))`, like `crate::naive`:
//! `naive_distribute_slack`, the original flat-scan form of the same greedy
//! that pins the kernel's every choice, and `exact_min_energy`, the
//! exhaustive branch-and-bound search that pins the greedy's optimality gap
//! on small circuits.
//!
//! # The model
//!
//! * level 0 is nominal: one control step, full energy.  Deeper levels take
//!   strictly more steps for a strictly lower (or equal) energy factor.
//! * a level assignment is *feasible* when the longest
//!   duration-weighted path over functional precedence (data **and**
//!   control edges) fits the latency — exactly the slack the shut-down
//!   scheduling of the paper leaves behind.
//! * the energy of an assignment is `Σ weight(op) · factor(level(op))`,
//!   with caller-provided per-node weights (typically the paper's power
//!   weight times the op's execution probability).
//!
//! # Determinism
//!
//! The greedy kernel promotes one operation at a time: the candidate with
//! the strictly largest energy gain wins, ties broken by ascending node
//! id.  All comparisons use [`f64::total_cmp`], so the assignment — and
//! every report built on it — is identical across runs, machines and
//! thread counts.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use cdfg::{Cdfg, NodeId, Slices};

use crate::error::ScheduleError;

/// One discrete slow-down level: the control steps an operation occupies
/// and the relative energy it pays there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackLevel {
    /// Control steps an operation at this level occupies (level 0 must be
    /// a single step — the nominal duration every scheduler assumes).
    pub delay_steps: u32,
    /// Energy factor relative to nominal (level 0 must be 1.0; deeper
    /// levels are cheaper).
    pub energy_factor: f64,
}

/// Validates a level table: non-empty, nominal first, strictly slower and
/// never more expensive as the index grows.
fn validate_levels(levels: &[SlackLevel]) {
    assert!(!levels.is_empty(), "level table must not be empty");
    assert_eq!(levels[0].delay_steps, 1, "level 0 must be the nominal single-step duration");
    for pair in levels.windows(2) {
        assert!(
            pair[0].delay_steps < pair[1].delay_steps,
            "level delays must be strictly increasing"
        );
        assert!(
            pair[1].energy_factor.total_cmp(&pair[0].energy_factor).is_le(),
            "level energy factors must be non-increasing"
        );
    }
}

/// Reusable buffers for [`distribute_slack`]: create once, pass to every
/// call, and the per-call cost is a handful of `clear`/`resize` operations
/// instead of fresh allocations.  `dvsweep`'s optimality-gap study reuses
/// one across all its calls, and the explorer makes a fresh one per budget
/// point; either way the result is the same.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Current duration (steps) of every slot; 0 for structural nodes.
    dur: Vec<u32>,
    /// Earliest start step under the current durations.
    est: Vec<u32>,
    /// Latest start step under the current durations.
    lst: Vec<u32>,
    /// Current level index of every slot.
    level: Vec<u32>,
    /// `node_weight` of every functional node, by position in
    /// [`Slices::functional`].
    weight: Vec<f64>,
    /// Pending promotions, one per node at its current level, best first.
    heap: BinaryHeap<Candidate>,
    /// Worklist scratch for the timing relaxation, and its membership flags.
    queue: VecDeque<NodeId>,
    queued: Vec<bool>,
}

/// A pending promotion: the functional node at `pos` in
/// [`Slices::functional`] and the energy its next level saves.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    gain: f64,
    pos: u32,
}

/// Heap order: larger gain first ([`f64::total_cmp`]), then the lower
/// position — the flat scan's "strictly larger gain, ties to the lowest
/// node id", since [`Slices::functional`] is ascending.
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain.total_cmp(&other.gain).then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl Workspace {
    /// An empty workspace; buffers grow to the graph's size on first use.
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// A per-operation slow-down level assignment produced by
/// [`distribute_slack`] (or the exact reference).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelAssignment {
    level: Vec<u32>,
    energy: f64,
    promotions: u32,
}

impl LevelAssignment {
    /// The level index assigned to `node` (0 — nominal — for structural
    /// nodes, which are never scheduled).
    ///
    /// # Panics
    ///
    /// Panics if `node`'s index lies outside the analysed CDFG's range.
    pub fn level_of(&self, node: NodeId) -> u32 {
        self.level[node.index()]
    }

    /// The dense per-slot level indices (structural slots hold 0).
    pub fn levels(&self) -> &[u32] {
        &self.level
    }

    /// Weighted energy of the assignment:
    /// `Σ weight(op) · factor(level(op))`, summed in ascending node order.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Number of promotions the greedy kernel accepted (0 for the exact
    /// reference's output).
    pub fn promotions(&self) -> u32 {
        self.promotions
    }
}

/// Earliest start step of every functional node under durations `dur`: one
/// topological pass over functional precedence.
fn earliest_starts(slices: &Slices, dur: &[u32], est: &mut [u32]) {
    for &n in slices.topo() {
        if !slices.is_functional(n) {
            continue;
        }
        let mut earliest = 1;
        for &p in slices.preds(n) {
            if slices.is_functional(p) {
                earliest = earliest.max(est[p.index()] + dur[p.index()]);
            }
        }
        est[n.index()] = earliest;
    }
}

/// Latest start step of every functional node under durations `dur` and
/// `latency`: one reverse topological pass.  Requires the state to be
/// feasible (callers establish this at nominal durations and every
/// promotion preserves it).
fn latest_starts(slices: &Slices, latency: u32, dur: &[u32], lst: &mut [u32]) {
    for &n in slices.topo().iter().rev() {
        if !slices.is_functional(n) {
            continue;
        }
        let mut latest_finish = latency;
        for &s in slices.succs(n) {
            if slices.is_functional(s) {
                latest_finish = latest_finish.min(lst[s.index()].saturating_sub(1));
            }
        }
        debug_assert!(latest_finish + 1 >= dur[n.index()], "feasible state");
        lst[n.index()] = latest_finish + 1 - dur[n.index()];
    }
}

/// Fails with the typed error when the largest earliest start at nominal
/// durations — the unit-duration critical path — exceeds `latency`.
fn check_nominal_fit(slices: &Slices, latency: u32, est: &[u32]) -> Result<(), ScheduleError> {
    let critical_path = slices.functional().iter().map(|&n| est[n.index()]).max().unwrap_or(0);
    if critical_path > latency {
        return Err(ScheduleError::LatencyTooSmall { requested: latency, critical_path });
    }
    Ok(())
}

/// The energy saved by moving an operation of `weight` from `level` one
/// level deeper, if there is a deeper level and the move saves something:
/// weightless (or degenerate, NaN) ops never consume shared slack.
fn promotion_gain(weight: f64, levels: &[SlackLevel], level: usize) -> Option<f64> {
    let next = levels.get(level + 1)?;
    let gain = weight * (levels[level].energy_factor - next.energy_factor);
    (gain > 0.0).then_some(gain)
}

/// Restores exact earliest/latest starts after `origin` was promoted (its
/// duration grown and its own latest start lowered by the same amount):
/// earliest starts rise along successors, latest starts fall along
/// predecessors.  Both are longest-path closures whose only newly violated
/// constraints lie on `origin`'s own edges, and every value only moves one
/// way, so the worklist reaches exactly what full passes would compute.
fn relax_from(slices: &Slices, origin: NodeId, ws: &mut Workspace) {
    ws.queue.push_back(origin);
    while let Some(n) = ws.queue.pop_front() {
        ws.queued[n.index()] = false;
        let finish = ws.est[n.index()] + ws.dur[n.index()];
        for &s in slices.succs(n) {
            let i = s.index();
            if slices.is_functional(s) && finish > ws.est[i] {
                ws.est[i] = finish;
                if !ws.queued[i] {
                    ws.queued[i] = true;
                    ws.queue.push_back(s);
                }
            }
        }
    }
    ws.queue.push_back(origin);
    while let Some(n) = ws.queue.pop_front() {
        ws.queued[n.index()] = false;
        let start = ws.lst[n.index()];
        for &p in slices.preds(n) {
            let i = p.index();
            if slices.is_functional(p) && start - ws.dur[i] < ws.lst[i] {
                ws.lst[i] = start - ws.dur[i];
                if !ws.queued[i] {
                    ws.queued[i] = true;
                    ws.queue.push_back(p);
                }
            }
        }
    }
}

/// Distributes the latency budget's slack over the functional operations
/// of `cdfg` as discrete slow-down levels, greedily minimising
/// `Σ node_weight(op) · factor(level(op))`.
///
/// `levels` is the discrete level table (see [`SlackLevel`]; level 0 must
/// be the nominal single-step level).  `node_weight` prices each
/// operation — the explorer passes the paper's power weight times the
/// op's execution probability.  Data *and* control edges constrain the
/// duration-weighted critical path, so the kernel composes with the
/// paper's shut-down scheduling: it runs on the constrained CDFG a
/// `pmsched`-style power-management pass produces.
///
/// The kernel repeatedly promotes the operation with the strictly largest
/// energy gain whose slack covers the extra steps (ties: lowest node id).
/// Promotion within slack always preserves feasibility, so the result is
/// feasible by construction; the exact reference (`exact_min_energy`) pins
/// how far from optimal the greedy choices land.
///
/// The cost is output-sensitive, and every choice equals the original
/// flat scan's (`naive_distribute_slack`, pinned bit-for-bit by the
/// `dvs_identity` tests):
///
/// * each node's weight is read once, and a node's gain depends only on
///   its weight and level, so the pending promotions — one per node, at
///   its current level — sit in a max-heap ordered as the scan compares
///   them (gain by [`f64::total_cmp`], then ascending node id);
/// * promotions only lengthen durations, so earliest starts only rise
///   and latest starts only fall: a node's slack never grows back.  A
///   popped promotion that no longer fits is therefore dropped for good,
///   and the first one that fits is exactly the scan's pick;
/// * after a promotion, earliest starts are relaxed forward and latest
///   starts backward from the promoted node with a worklist, instead of
///   two full timing passes.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] when even nominal durations
/// do not fit the budget.
///
/// # Panics
///
/// Panics if `levels` is empty, does not start with a single-step nominal
/// level, or is not strictly slower / non-increasingly priced.
pub fn distribute_slack(
    cdfg: &Cdfg,
    latency: u32,
    levels: &[SlackLevel],
    node_weight: &dyn Fn(NodeId) -> f64,
    ws: &mut Workspace,
) -> Result<LevelAssignment, ScheduleError> {
    validate_levels(levels);
    let slices = cdfg.slices();
    let slots = slices.slot_count();
    let functional = slices.functional();

    ws.dur.clear();
    ws.dur.resize(slots, 0);
    ws.est.clear();
    ws.est.resize(slots, 0);
    ws.lst.clear();
    ws.lst.resize(slots, 0);
    ws.level.clear();
    ws.level.resize(slots, 0);
    ws.queued.clear();
    ws.queued.resize(slots, false);
    ws.queue.clear();
    ws.weight.clear();
    ws.weight.extend(functional.iter().map(|&n| node_weight(n)));
    for &n in functional {
        ws.dur[n.index()] = levels[0].delay_steps;
    }

    earliest_starts(slices, &ws.dur, &mut ws.est);
    check_nominal_fit(slices, latency, &ws.est)?;
    latest_starts(slices, latency, &ws.dur, &mut ws.lst);

    ws.heap.clear();
    for (pos, &weight) in ws.weight.iter().enumerate() {
        if let Some(gain) = promotion_gain(weight, levels, 0) {
            ws.heap.push(Candidate { gain, pos: pos as u32 });
        }
    }

    let mut promotions = 0u32;
    while let Some(Candidate { pos, .. }) = ws.heap.pop() {
        let node = functional[pos as usize];
        let i = node.index();
        let level = ws.level[i] as usize;
        let delta = levels[level + 1].delay_steps - levels[level].delay_steps;
        if ws.lst[i] - ws.est[i] < delta {
            continue; // slack never grows back: this promotion never fits again
        }
        ws.level[i] += 1;
        ws.dur[i] += delta;
        ws.lst[i] -= delta;
        promotions += 1;
        relax_from(slices, node, ws);
        if let Some(gain) = promotion_gain(ws.weight[pos as usize], levels, level + 1) {
            ws.heap.push(Candidate { gain, pos });
        }
    }

    let mut energy = 0.0;
    for (&n, &weight) in functional.iter().zip(&ws.weight) {
        energy += weight * levels[ws.level[n.index()] as usize].energy_factor;
    }
    Ok(LevelAssignment { level: ws.level.clone(), energy, promotions })
}

/// The original flat-scan form of [`distribute_slack`], retained as its
/// behavioural reference in the `crate::naive` tradition: compiled only
/// for tests and under the `reference` feature.  Every iteration rescans
/// all functional nodes — calling `node_weight` for each — and recomputes
/// the whole timing after each accepted promotion, an O(promotions · (V +
/// E)) cost.  The `dvs_identity` tests pin that the kernel's levels,
/// energy bits and promotion count equal this function's.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] when even nominal durations
/// do not fit the budget.
///
/// # Panics
///
/// Panics on invalid level tables (see [`distribute_slack`]).
#[cfg(any(test, feature = "reference"))]
pub fn naive_distribute_slack(
    cdfg: &Cdfg,
    latency: u32,
    levels: &[SlackLevel],
    node_weight: &dyn Fn(NodeId) -> f64,
) -> Result<LevelAssignment, ScheduleError> {
    validate_levels(levels);
    let slices = cdfg.slices();
    let slots = slices.slot_count();
    let mut dur = vec![0u32; slots];
    let mut est = vec![0u32; slots];
    let mut lst = vec![0u32; slots];
    let mut level = vec![0u32; slots];
    for &n in slices.functional() {
        dur[n.index()] = levels[0].delay_steps;
    }

    earliest_starts(slices, &dur, &mut est);
    check_nominal_fit(slices, latency, &est)?;
    latest_starts(slices, latency, &dur, &mut lst);

    let mut promotions = 0u32;
    loop {
        // The strictly best promotable candidate; ascending iteration plus
        // a strictly-greater test makes the lowest node id win ties.
        let mut best: Option<(f64, NodeId)> = None;
        for &n in slices.functional() {
            let current = level[n.index()] as usize;
            let Some(next) = levels.get(current + 1) else { continue };
            let delta = next.delay_steps - levels[current].delay_steps;
            if lst[n.index()] - est[n.index()] < delta {
                continue;
            }
            let gain = node_weight(n) * (levels[current].energy_factor - next.energy_factor);
            if gain <= 0.0 || gain.is_nan() {
                continue; // weightless (or degenerate) ops never consume shared slack
            }
            let better = match best {
                None => true,
                Some((bg, _)) => gain.total_cmp(&bg).is_gt(),
            };
            if better {
                best = Some((gain, n));
            }
        }
        let Some((_, node)) = best else { break };
        let next = level[node.index()] + 1;
        level[node.index()] = next;
        dur[node.index()] = levels[next as usize].delay_steps;
        promotions += 1;
        earliest_starts(slices, &dur, &mut est);
        latest_starts(slices, latency, &dur, &mut lst);
    }

    let mut energy = 0.0;
    for &n in slices.functional() {
        energy += node_weight(n) * levels[level[n.index()] as usize].energy_factor;
    }
    Ok(LevelAssignment { level, energy, promotions })
}

/// Exhaustive branch-and-bound reference for [`distribute_slack`]: the
/// exact minimum-energy level assignment under the same feasibility
/// notion.  Compiled only for tests and under the `reference` feature, in
/// the `crate::naive` tradition — it enumerates the level space with
/// feasibility and lower-bound pruning, so it is only meant for *small*
/// circuits (the gap property tests sample tens of functional nodes at
/// most).
///
/// Determinism: levels are tried in ascending index order per node and a
/// candidate replaces the incumbent only when strictly cheaper under
/// [`f64::total_cmp`], so the returned assignment is the lexicographically
/// smallest among the optima.
///
/// The greedy kernel's output is feasible for the same space, so
/// `distribute_slack(..).energy() >= exact_min_energy(..).energy()` always
/// — the invariant the gap tests pin.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] when even nominal durations
/// do not fit the budget.
///
/// # Panics
///
/// Panics on invalid level tables (see [`distribute_slack`]).
#[cfg(any(test, feature = "reference"))]
pub fn exact_min_energy(
    cdfg: &Cdfg,
    latency: u32,
    levels: &[SlackLevel],
    node_weight: &dyn Fn(NodeId) -> f64,
) -> Result<LevelAssignment, ScheduleError> {
    validate_levels(levels);
    let slices = cdfg.slices();
    let slots = slices.slot_count();
    let nodes: Vec<NodeId> = slices.functional().to_vec();
    let weights: Vec<f64> = nodes.iter().map(|&n| node_weight(n)).collect();
    let min_factor = levels.last().expect("non-empty").energy_factor;

    // Duration-weighted critical path with unchosen nodes at nominal —
    // an exact pruning test, since durations only ever grow with depth.
    let critical_path = |dur: &[u32]| -> u32 {
        let mut est = vec![0u32; slots];
        let mut cp = 0;
        for &n in slices.topo() {
            if !slices.is_functional(n) {
                continue;
            }
            let mut earliest = 1;
            for &p in slices.preds(n) {
                if slices.is_functional(p) {
                    earliest = earliest.max(est[p.index()] + dur[p.index()]);
                }
            }
            est[n.index()] = earliest;
            cp = cp.max(earliest + dur[n.index()] - 1);
        }
        cp
    };

    let mut dur = vec![0u32; slots];
    for &n in &nodes {
        dur[n.index()] = levels[0].delay_steps;
    }
    if critical_path(&dur) > latency {
        return Err(ScheduleError::LatencyTooSmall {
            requested: latency,
            critical_path: critical_path(&dur),
        });
    }

    // Suffix sums of the cheapest possible remaining energy, for the
    // admissible lower bound.
    let mut suffix_min = vec![0.0f64; nodes.len() + 1];
    for i in (0..nodes.len()).rev() {
        suffix_min[i] = suffix_min[i + 1] + weights[i] * min_factor;
    }

    struct Search<'a, F: Fn(&[u32]) -> u32> {
        nodes: &'a [NodeId],
        weights: &'a [f64],
        levels: &'a [SlackLevel],
        latency: u32,
        suffix_min: &'a [f64],
        critical_path: F,
        choice: Vec<u32>,
        best_energy: f64,
        best_choice: Vec<u32>,
    }

    impl<F: Fn(&[u32]) -> u32> Search<'_, F> {
        fn descend(&mut self, i: usize, dur: &mut [u32], partial: f64) {
            if i == self.nodes.len() {
                if partial.total_cmp(&self.best_energy).is_lt() {
                    self.best_energy = partial;
                    self.best_choice.clone_from(&self.choice);
                }
                return;
            }
            let slot = self.nodes[i].index();
            for (l, level) in self.levels.iter().enumerate() {
                let here = partial + self.weights[i] * level.energy_factor;
                if (here + self.suffix_min[i + 1]).total_cmp(&self.best_energy).is_ge() {
                    continue;
                }
                dur[slot] = level.delay_steps;
                if (self.critical_path)(dur) <= self.latency {
                    self.choice[i] = l as u32;
                    self.descend(i + 1, dur, here);
                }
            }
            dur[slot] = self.levels[0].delay_steps;
            self.choice[i] = 0;
        }
    }

    let mut search = Search {
        nodes: &nodes,
        weights: &weights,
        levels,
        latency,
        suffix_min: &suffix_min,
        critical_path,
        choice: vec![0; nodes.len()],
        best_energy: f64::INFINITY,
        best_choice: vec![0; nodes.len()],
    };
    search.descend(0, &mut dur, 0.0);

    let mut level = vec![0u32; slots];
    let mut energy = 0.0;
    for (i, &n) in nodes.iter().enumerate() {
        level[n.index()] = search.best_choice[i];
        energy += weights[i] * levels[search.best_choice[i] as usize].energy_factor;
    }
    Ok(LevelAssignment { level, energy, promotions: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;

    /// The classic three-level square-law table used throughout the tests:
    /// nominal, half-speed at ~0.44×, quarter-speed at ~0.23×.
    fn three_levels() -> Vec<SlackLevel> {
        vec![
            SlackLevel { delay_steps: 1, energy_factor: 1.0 },
            SlackLevel { delay_steps: 2, energy_factor: 0.4356 },
            SlackLevel { delay_steps: 4, energy_factor: 0.2304 },
        ]
    }

    fn abs_diff() -> Cdfg {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        g
    }

    fn chain(len: usize) -> Cdfg {
        let mut g = Cdfg::new("chain");
        let mut prev = g.add_input("x");
        for _ in 0..len {
            prev = g.add_op(Op::Neg, &[prev]).unwrap();
        }
        g.add_output("o", prev).unwrap();
        g
    }

    #[test]
    fn no_slack_means_everything_stays_nominal() {
        let g = abs_diff();
        let mut ws = Workspace::new();
        let a = distribute_slack(&g, 2, &three_levels(), &|_| 1.0, &mut ws).unwrap();
        assert!(a.levels().iter().all(|&l| l == 0), "critical-path budget leaves no slack");
        assert_eq!(a.energy(), 4.0, "four ops at nominal");
        assert_eq!(a.promotions(), 0);
    }

    #[test]
    fn slack_is_spent_and_energy_drops_monotonically_with_the_budget() {
        let g = abs_diff();
        let mut ws = Workspace::new();
        let mut last = f64::INFINITY;
        for latency in 2..10 {
            let a = distribute_slack(&g, latency, &three_levels(), &|_| 1.0, &mut ws).unwrap();
            assert!(a.energy() <= last, "latency {latency}: {} > {last}", a.energy());
            last = a.energy();
        }
        assert!(last < 4.0 * 0.25, "a wide budget drives everything to deep levels");
    }

    #[test]
    fn promotions_respect_the_duration_weighted_critical_path() {
        // A 3-op chain at latency 4 has exactly one spare step: only one
        // op can move to the 2-step level, nothing can reach the 4-step one.
        let g = chain(3);
        let mut ws = Workspace::new();
        let a = distribute_slack(&g, 4, &three_levels(), &|_| 1.0, &mut ws).unwrap();
        let chain_steps: u32 = g
            .slices()
            .functional()
            .iter()
            .map(|&n| three_levels()[a.level_of(n) as usize].delay_steps)
            .sum();
        assert!(chain_steps <= 4, "duration-weighted chain must fit the budget");
        assert_eq!(a.promotions(), 1);
        assert_eq!(a.levels().iter().filter(|&&l| l == 1).count(), 1);
    }

    #[test]
    fn weights_steer_the_greedy_choice_deterministically() {
        // Same chain, but the middle op is 10× heavier: the single spare
        // step must go to it.
        let g = chain(3);
        let heavy: NodeId = g.slices().functional()[1];
        let mut ws = Workspace::new();
        let weight = move |n: NodeId| if n == heavy { 10.0 } else { 1.0 };
        let a = distribute_slack(&g, 4, &three_levels(), &weight, &mut ws).unwrap();
        assert_eq!(a.level_of(heavy), 1, "the heavy op takes the spare step");
        assert_eq!(a.promotions(), 1);
    }

    #[test]
    fn zero_weight_ops_never_consume_slack() {
        let g = chain(2);
        let mut ws = Workspace::new();
        let a = distribute_slack(&g, 6, &three_levels(), &|_| 0.0, &mut ws).unwrap();
        assert!(a.levels().iter().all(|&l| l == 0));
        assert_eq!(a.energy(), 0.0);
    }

    #[test]
    fn sub_critical_budgets_surface_the_typed_error() {
        let g = chain(3);
        let mut ws = Workspace::new();
        let err = distribute_slack(&g, 2, &three_levels(), &|_| 1.0, &mut ws).unwrap_err();
        assert!(
            matches!(err, ScheduleError::LatencyTooSmall { requested: 2, critical_path: 3 }),
            "{err}"
        );
        let err = exact_min_energy(&g, 2, &three_levels(), &|_| 1.0).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyTooSmall { .. }));
    }

    #[test]
    fn workspace_reuse_matches_fresh_buffers() {
        let g = abs_diff();
        let mut warm = Workspace::new();
        for latency in 2..8 {
            let reused =
                distribute_slack(&g, latency, &three_levels(), &|_| 1.0, &mut warm).unwrap();
            let fresh =
                distribute_slack(&g, latency, &three_levels(), &|_| 1.0, &mut Workspace::new())
                    .unwrap();
            assert_eq!(reused, fresh, "latency {latency}");
        }
    }

    #[test]
    fn heap_kernel_matches_the_flat_scan_reference() {
        let g = abs_diff();
        let heavy = g.slices().functional()[2];
        let weight = move |n: NodeId| if n == heavy { 3.0 } else { 1.0 };
        let levels = three_levels();
        let mut ws = Workspace::new();
        for (g, budgets) in [(g, 2..10u32), (chain(4), 4..14u32)] {
            for latency in budgets {
                let fast = distribute_slack(&g, latency, &levels, &weight, &mut ws).unwrap();
                let slow = naive_distribute_slack(&g, latency, &levels, &weight).unwrap();
                assert_eq!(fast.levels(), slow.levels(), "{} @ {latency}", g.name());
                assert_eq!(fast.energy().to_bits(), slow.energy().to_bits());
                assert_eq!(fast.promotions(), slow.promotions());
            }
        }
    }

    #[test]
    fn exact_reference_lower_bounds_the_greedy_kernel() {
        let levels = three_levels();
        for (g, budgets) in [(abs_diff(), 2..9u32), (chain(4), 4..11u32)] {
            let mut ws = Workspace::new();
            for latency in budgets {
                let heur = distribute_slack(&g, latency, &levels, &|_| 1.0, &mut ws).unwrap();
                let exact = exact_min_energy(&g, latency, &levels, &|_| 1.0).unwrap();
                // 1-ulp tolerance: equal-energy assignments can round
                // differently because f64 addition is not associative.
                assert!(
                    heur.energy() >= exact.energy() - 1e-9 * exact.energy().abs().max(1.0),
                    "{} @ {latency}: greedy {} below exact {}",
                    g.name(),
                    heur.energy(),
                    exact.energy()
                );
            }
        }
    }

    #[test]
    fn exact_reference_is_tight_on_a_chain() {
        // On a pure chain the greedy kernel is optimal: slack allocation is
        // a one-dimensional knapsack both solve exactly.
        let g = chain(3);
        let mut ws = Workspace::new();
        for latency in 3..12 {
            let heur = distribute_slack(&g, latency, &three_levels(), &|_| 1.0, &mut ws).unwrap();
            let exact = exact_min_energy(&g, latency, &three_levels(), &|_| 1.0).unwrap();
            assert!(
                (heur.energy() - exact.energy()).abs() <= 1e-12,
                "latency {latency}: greedy {} vs exact {}",
                heur.energy(),
                exact.energy()
            );
        }
    }

    #[test]
    #[should_panic(expected = "level 0 must be the nominal single-step duration")]
    fn invalid_level_tables_are_rejected() {
        let g = chain(1);
        let bad = vec![SlackLevel { delay_steps: 2, energy_factor: 1.0 }];
        let _ = distribute_slack(&g, 4, &bad, &|_| 1.0, &mut Workspace::new());
    }
}
