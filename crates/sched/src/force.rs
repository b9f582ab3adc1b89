//! Latency-constrained force-directed scheduling (Paulin & Knight) —
//! incremental, index-dense kernel.
//!
//! Given a latency, force-directed scheduling chooses a control step for
//! every operation so that operations of the same class are spread as evenly
//! as possible over the steps, which minimises the number of execution units
//! the final allocation needs.  This is the behaviour the paper relies on
//! from HYPER's scheduler ("targeting minimum hardware resources for the
//! desired throughput", step 11 of the algorithm).
//!
//! # Kernel design
//!
//! The reference implementation (`crate::naive`, compiled for tests and
//! under the `reference` feature) rebuilds the whole
//! distribution graph on a `BTreeMap<(OpClass, u32), f64>` and rescans every
//! unfixed (node, step) pair on every iteration, with frame propagation run
//! to a whole-graph fixed point over allocating adjacency accessors — an
//! O(n²·L·W) map churn.  This kernel produces *equal schedules* (pinned by
//! the schedule-identity property tests) from dense, incrementally
//! maintained state:
//!
//! * **Frames and fixedness** live in flat arrays indexed by
//!   [`NodeId::index`]; adjacency comes from the CDFG's cached CSR view
//!   ([`cdfg::Slices`]), so the hot loop performs no allocation and no map
//!   lookups.
//! * **Distribution graph rows** are one `Vec<f64>` per operation class.  A
//!   row is recomputed only when some member's frame changed, and the cells
//!   are summed in ascending-node order — exactly the order the reference's
//!   map construction uses — so the f64 values (and therefore every force
//!   comparison) are bit-identical to the reference.
//! * **One best candidate per (class, frame) group.**  Two unfixed nodes of
//!   the same class with the same frame read the same DG cells, so they
//!   share one cached (step, self-force), kept until the class row
//!   changes; a node whose frame shrinks moves to the group of its new
//!   frame, and a fixed node leaves its group.  The global pick merges the
//!   candidates in ascending node order with the reference's ε-tolerant
//!   comparator.  (The ε tie-break is not transitive, so a segmented
//!   reduction could in principle diverge from the reference's flat scan —
//!   but only if two *distinct* force values fell within (ε, 2ε] of each
//!   other, which the rational structure of forces on real circuits never
//!   produces; the schedule-identity property tests pin the equality across
//!   every circuit family.  That caveat is about reducing each node over its
//!   steps before merging, against the reference's flat scan over (node,
//!   step) pairs; grouping changes neither side of that comparison, so it
//!   adds no caveat of its own.)
//! * **The pick visits one head per group.**  The scan runs in ascending
//!   node id, so its tie clause `(n, step) < (bn, bs)` never fires for a
//!   later node, and the incumbent's force only falls.  Once a group's
//!   lowest-id unfixed member — its *head* — has been scanned with the
//!   group's force `f`, the incumbent's force `bf` is at most `f + EPS`
//!   and only falls from there; a later member reads the same `f` and
//!   would win only if `f < bf − EPS`, which is then impossible.  So
//!   scanning heads only, in ascending id, yields the same incumbents — and
//!   the same pick — as scanning every unfixed node.  This drops only nodes
//!   that cannot win, so it sidesteps the ε-chain problem.  The heads sit in
//!   a slot bitset walked word by word, and each group links its members in
//!   ascending id, so fixing a head finds the next one in O(1).  The index
//!   costs O(slots + groups) memory: a hash map from (class, frame) to a
//!   dense group id, a group id and two member links per slot, and one
//!   candidate per group.
//! * **A lower bound prunes the exact candidate scans.**  Any frame change
//!   in a class invalidates every group's candidate there, and an exact
//!   candidate costs O(w²) for a frame of width w.  In real arithmetic the
//!   self-force at step t is `DG[t] − S/w` (S the frame's DG sum), so
//!   `min DG − S/w`, less a proven f64 rounding margin, bounds every force
//!   in the frame in O(w).  The pick caches that bound as the group's
//!   candidate and runs the exact scan only when the bound lies below the
//!   incumbent's `bf − EPS`.  This is exact: heads are scanned in ascending
//!   id order, so a later head loses every ε-tie against the incumbent and
//!   can only win with a force below `bf − EPS`; a skipped head could not
//!   have changed the incumbent, so the sequence of incumbents — and the
//!   pick — is the unpruned scan's.  Debug builds check every pick against
//!   the scan without pruning or grouping.
//! * **Propagation** is a worklist relaxation seeded from the just-fixed
//!   node instead of a whole-graph fixed point.  The earliest- and
//!   latest-step constraint systems are independent longest-path closures,
//!   so seeded relaxation reaches the same unique fixed point.
//!
//! The invariant tying it together: after every iteration, each class row
//! equals the column sums of its members' occupation probabilities, every
//! unfixed node sits in the group of its class and current frame, each
//! group's head is its lowest-id member, each cached exact candidate equals
//! the reference's scan result for the group's frame and row, and each
//! cached bound lies at or below it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use cdfg::{Cdfg, NodeId, OpClass, Slices};

use crate::error::ScheduleError;
use crate::schedule::Schedule;
use crate::timing::Timing;

/// Comparison slack for self-forces: differences at or below this are ties,
/// broken towards the smaller (node, step) pair.
const EPS: f64 = 1e-9;

/// Number of functional operation classes (the DG row count).
const NUM_CLASSES: usize = OpClass::FUNCTIONAL.len();

/// End of a group's member list, and the group of a node in none.
const NONE: u32 = u32::MAX;

/// Mutable time frame `[earliest, latest]` of an operation during
/// force-directed scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The kernel's scratch buffers.  [`schedule`] makes a fresh one per call;
/// [`RepairWorkspace`] keeps one warm across the events of an online
/// session.  Every buffer is resized and reinitialised per run, so reuse
/// changes where the f64s live, never how they are computed.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Current time frame of each functional node.
    frames: Vec<Frame>,
    /// Whether the node's step has been fixed (its frame is then width 1).
    fixed: Vec<bool>,
    fixed_count: usize,
    /// Dense class id of each functional node.
    class_of: Vec<u8>,
    /// Members of each class, ascending node id (the DG summation order).
    class_members: [Vec<NodeId>; NUM_CLASSES],
    /// One distribution-graph row per class, indexed by control step.
    dg: [Vec<f64>; NUM_CLASSES],
    /// Classes whose row must be recomputed before the next pick.
    class_dirty: [bool; NUM_CLASSES],
    /// Each unfixed node's group and its neighbours in the group's member
    /// list.
    links: Vec<Link>,
    /// Dense id of each non-empty group, by class and frame.
    group_ids: HashMap<GroupKey, u32, BuildHasherDefault<KeyHasher>>,
    /// The groups, by dense id; emptied ones wait in `free_groups` for
    /// reuse, so there are never more groups than unfixed nodes.
    groups: Vec<Group>,
    free_groups: Vec<u32>,
    /// One bit per slot, set at each group's head: the nodes the pick visits.
    heads: Vec<u64>,
    /// Nodes whose frame changed since the last pick (deduplicated).
    changed: Vec<NodeId>,
    changed_flag: Vec<bool>,
    /// Worklist scratch for seeded propagation.
    queue: VecDeque<NodeId>,
    /// Frame updates performed by the most recent kernel run (each node a
    /// fix or a propagation step actually moved, counted once per
    /// iteration).  Instrumentation for [`RepairStats`]; never consulted by
    /// the kernel itself.
    touched: usize,
    /// Distribution-graph rows rebuilt by the most recent kernel run
    /// (rows of classes with at least one member).
    rebuilt: usize,
}

/// A slot's place in the group index: the group of an unfixed node (the
/// unfixed nodes of one class with one frame, which share a candidate), and
/// the next and previous member in ascending id ([`NONE`] past either end).
#[derive(Debug, Clone, Copy)]
struct Link {
    group: u32,
    next: u32,
    prev: u32,
}

/// What identifies a group: a class and a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupKey {
    class: u8,
    frame: Frame,
}

/// The unfixed nodes of one class whose frames are equal, linked in
/// ascending id through their [`Link`]s.
#[derive(Debug, Clone, Copy)]
struct Group {
    key: GroupKey,
    /// Lowest-id member ([`NONE`] once the group is empty).
    head: u32,
    /// Highest-id member.
    tail: u32,
    /// What the pick knows about every member's best candidate.
    cand: Candidate,
}

/// The rotate-xor-multiply step of rustc's FxHash, for [`GroupKey`]s.  The
/// keys are frames the kernel's own timing analysis derives, not values
/// read from input, and SipHash's per-lookup cost showed on small graphs.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which a product mixes least.
        self.0.rotate_left(26)
    }
}

/// A group's cached best candidate for its frame and class row.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    /// Unknown: the group is new, or its class row changed since the last
    /// look.
    Stale,
    /// Only a lower bound on the best self-force is known
    /// ([`Kernel::force_lower_bound`]).
    Bound(f64),
    /// The best (step, self-force), as [`Kernel::best_candidate`] scans it.
    Exact(u32, f64),
}

impl Workspace {
    /// Adds unfixed node `n` to the group of its class and current frame,
    /// keeping the member list ascending.
    fn join_group(&mut self, n: NodeId) {
        let i = n.index();
        let key = GroupKey { class: self.class_of[i], frame: self.frames[i] };
        let g = match self.group_ids.entry(key) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let group = Group { key, head: NONE, tail: NONE, cand: Candidate::Stale };
                let g = match self.free_groups.pop() {
                    Some(g) => {
                        self.groups[g as usize] = group;
                        g
                    }
                    None => {
                        self.groups.push(group);
                        (self.groups.len() - 1) as u32
                    }
                };
                *entry.insert(g)
            }
        };
        self.links[i].group = g;
        let id = i as u32;
        let group = &mut self.groups[g as usize];
        if group.head == NONE {
            (group.head, group.tail) = (id, id);
            (self.links[i].prev, self.links[i].next) = (NONE, NONE);
            set_bit(&mut self.heads, i);
        } else if id > group.tail {
            (self.links[i].prev, self.links[i].next) = (group.tail, NONE);
            self.links[group.tail as usize].next = id;
            group.tail = id;
        } else if id < group.head {
            (self.links[i].prev, self.links[i].next) = (NONE, group.head);
            self.links[group.head as usize].prev = id;
            clear_bit(&mut self.heads, group.head as usize);
            set_bit(&mut self.heads, i);
            group.head = id;
        } else {
            // Strictly between head and tail: the walk stops before the tail.
            let mut at = group.head;
            while self.links[at as usize].next < id {
                at = self.links[at as usize].next;
            }
            let after = self.links[at as usize].next;
            (self.links[i].prev, self.links[i].next) = (at, after);
            self.links[at as usize].next = id;
            self.links[after as usize].prev = id;
        }
    }

    /// Removes `n` from its group, promoting the next member to head when
    /// `n` was the head and freeing the group when it empties.
    fn leave_group(&mut self, n: NodeId) {
        let i = n.index();
        let Link { group, next, prev } = self.links[i];
        let g = group as usize;
        if prev == NONE {
            self.groups[g].head = next;
            clear_bit(&mut self.heads, i);
            if next != NONE {
                set_bit(&mut self.heads, next as usize);
            }
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NONE {
            self.groups[g].tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        if self.groups[g].head == NONE {
            self.group_ids.remove(&self.groups[g].key);
            self.free_groups.push(g as u32);
        }
        self.links[i].group = NONE;
    }
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

/// Schedules `cdfg` within `latency` control steps, minimising the peak
/// number of simultaneously busy execution units per class.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] if the latency is zero or
/// below the critical path (taking control edges into account).
pub fn schedule(cdfg: &Cdfg, latency: u32) -> Result<Schedule, ScheduleError> {
    if latency == 0 {
        return Err(ScheduleError::zero_latency(cdfg));
    }
    let timing = Timing::compute(cdfg, latency);
    if !timing.is_feasible() {
        return Err(ScheduleError::LatencyTooSmall {
            requested: latency,
            critical_path: timing.min_latency(),
        });
    }
    schedule_with_timing_into(cdfg, &timing, &mut Workspace::default())
}

/// Runs the kernel against a timing analysis the caller already computed
/// for this `cdfg` and latency (the analysis must be feasible), on
/// caller-owned buffers.
pub(crate) fn schedule_with_timing_into(
    cdfg: &Cdfg,
    timing: &Timing,
    ws: &mut Workspace,
) -> Result<Schedule, ScheduleError> {
    Kernel::init(cdfg, timing, ws).run()
}

/// Per-event cost accounting for [`repair`].  An event either does no
/// work — a memo hit, or a budget below the bound critical path — and
/// reports all zeros, or runs a cold timing analysis (and, at a feasible
/// budget, the kernel) and reports what that cost: the same figures a
/// fresh workspace reports at that budget (the `repair_identity` suite
/// pins this).  So an event's touched-nodes ratio against a cold run is 0
/// or 1, and the online engine's audited replay
/// (`engine::online::run_stream_verified`) reads it off `nodes_touched`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// One per functional node for the timing analysis, plus the kernel's
    /// frame updates (fixes and propagation steps, counted once per node
    /// per iteration).
    pub nodes_touched: usize,
    /// Distribution-graph rows the kernel rebuilt.
    pub classes_rebuilt: usize,
    /// Whether the event ran a timing analysis (and, at a feasible budget,
    /// the kernel): every event that does any work.
    pub full_recompute: bool,
}

/// Per-circuit state for the online repair path: the critical path and a
/// schedule memo of the bound circuit, and the timing and kernel buffers,
/// kept across events.  This is the only place the kernel's buffers
/// outlive one call.
///
/// A workspace binds itself to the first circuit it sees (keyed by name and
/// slot count, the same identity the engine's caches use) and rebinds —
/// dropping the memo — when handed a different one.  Two things are
/// reused across events:
///
/// * `critical_path` makes infeasibility O(1), surfacing the *same* typed
///   [`ScheduleError::LatencyTooSmall`] a cold run produces.
/// * `memo` holds one schedule per budget already visited; event streams
///   walk small budget windows, so revisits dominate and repair to zero
///   touched nodes.  The map is bounded by the number of distinct feasible
///   budgets the stream visits.
///
/// Every other event is a cold run on the kept buffers, so every schedule
/// is **bit-identical** to a cold [`schedule`] at the same parameters.
#[derive(Debug, Default)]
pub struct RepairWorkspace {
    ws: Workspace,
    /// The ASAP/ALAP analysis of the last kernel run, recomputed in place.
    timing: Timing,
    /// Name of the bound circuit (`None` until first use).
    circuit: Option<String>,
    /// Slot count of the bound circuit, guarding against name reuse across
    /// structurally different graphs.
    slots: usize,
    /// Critical path of the bound circuit (max ASAP, control edges
    /// included).
    critical_path: u32,
    /// Schedules already produced, by budget.
    memo: BTreeMap<u32, Schedule>,
}

impl RepairWorkspace {
    /// An empty workspace; binds to the first circuit [`repair`] sees.
    pub fn new() -> Self {
        RepairWorkspace::default()
    }
}

/// Repairs the schedule of `cdfg` for a (possibly) new `latency`.  A budget
/// the bound circuit already visited replays its memo entry, and one below
/// its critical path fails in O(1); anything else runs a cold timing
/// analysis and the force kernel on `rw`'s buffers.  The returned schedule
/// (or error) is bit-identical to a cold [`schedule`]`(cdfg, latency)`; the
/// [`RepairStats`] say what the event cost.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyTooSmall`] — with the same fields a cold
/// run reports — if the latency is zero or below the circuit's critical
/// path.  A zero latency is rejected before anything else, at zero work,
/// and leaves the workspace as it was.
pub fn repair(
    cdfg: &Cdfg,
    latency: u32,
    rw: &mut RepairWorkspace,
) -> (Result<Schedule, ScheduleError>, RepairStats) {
    if latency == 0 {
        return (Err(ScheduleError::zero_latency(cdfg)), RepairStats::default());
    }
    let slices = cdfg.slices();
    if rw.circuit.as_deref() == Some(cdfg.name()) && rw.slots == slices.slot_count() {
        // `min_latency()` is the same at every latency, so the typed error
        // is cold-identical.
        if latency < rw.critical_path {
            return (
                Err(ScheduleError::LatencyTooSmall {
                    requested: latency,
                    critical_path: rw.critical_path,
                }),
                RepairStats::default(),
            );
        }
        // The memo entry was produced by the identical kernel.
        if let Some(found) = rw.memo.get(&latency) {
            return (Ok(found.clone()), RepairStats::default());
        }
    } else {
        rw.circuit = Some(cdfg.name().to_owned());
        rw.slots = slices.slot_count();
        rw.memo.clear();
    }

    rw.timing.compute_into(cdfg, latency);
    rw.critical_path = rw.timing.min_latency();
    let functional = slices.functional().len();
    if !rw.timing.is_feasible() {
        let error =
            ScheduleError::LatencyTooSmall { requested: latency, critical_path: rw.critical_path };
        let stats =
            RepairStats { nodes_touched: functional, classes_rebuilt: 0, full_recompute: true };
        return (Err(error), stats);
    }
    let result = schedule_with_timing_into(cdfg, &rw.timing, &mut rw.ws);
    if let Ok(found) = &result {
        rw.memo.insert(latency, found.clone());
    }
    let stats = RepairStats {
        nodes_touched: functional + rw.ws.touched,
        classes_rebuilt: rw.ws.rebuilt,
        full_recompute: true,
    };
    (result, stats)
}

/// One force-directed scheduling run over workspace-owned mutable state,
/// slot-indexed by [`NodeId::index`].
struct Kernel<'a> {
    slices: &'a Slices,
    latency: u32,
    ws: &'a mut Workspace,
}

impl<'a> Kernel<'a> {
    /// Resets `ws` for a run over `cdfg` at `timing`'s latency and binds the
    /// kernel to it.  Every buffer is cleared and resized, so stale state
    /// from a previous run (another circuit, another latency) cannot leak.
    fn init(cdfg: &'a Cdfg, timing: &Timing, ws: &'a mut Workspace) -> Self {
        let slices = cdfg.slices();
        let slots = slices.slot_count();
        let latency = timing.latency();

        ws.frames.clear();
        ws.frames.resize(slots, Frame { earliest: 0, latest: 0 });
        ws.fixed.clear();
        ws.fixed.resize(slots, false);
        ws.fixed_count = 0;
        ws.class_of.clear();
        ws.class_of.resize(slots, 0);
        for members in &mut ws.class_members {
            members.clear();
        }
        for row in &mut ws.dg {
            row.clear();
            row.resize(latency as usize + 1, 0.0);
        }
        ws.class_dirty = [true; NUM_CLASSES];
        ws.links.clear();
        ws.links.resize(slots, Link { group: NONE, next: NONE, prev: NONE });
        ws.group_ids.clear();
        ws.groups.clear();
        ws.free_groups.clear();
        ws.heads.clear();
        ws.heads.resize(slots.div_ceil(64), 0);
        ws.changed.clear();
        ws.changed_flag.clear();
        ws.changed_flag.resize(slots, false);
        ws.queue.clear();
        ws.touched = 0;
        ws.rebuilt = 0;

        for &n in slices.functional() {
            let data = cdfg.node(n).expect("live node");
            let i = n.index();
            let frame = Frame { earliest: timing.asap(n), latest: timing.alap(n) };
            ws.frames[i] = frame;
            let class = data.op.class().dense_index();
            ws.class_of[i] = class as u8;
            ws.class_members[class].push(n);
            if frame.width() == 1 {
                ws.fixed[i] = true;
                ws.fixed_count += 1;
            } else {
                ws.join_group(n);
            }
        }

        Kernel { slices, latency, ws }
    }

    fn run(mut self) -> Result<Schedule, ScheduleError> {
        let total = self.slices.functional().len();
        while self.ws.fixed_count < total {
            self.refresh_dirty_rows();
            let (node, step) = self.pick();
            let i = node.index();
            self.ws.fixed[i] = true;
            self.ws.fixed_count += 1;
            self.ws.frames[i] = Frame { earliest: step, latest: step };
            self.mark_changed(node);
            self.propagate_from(node)?;
            // Frame changes dirty the owning class's DG row (whose refresh
            // stales the class's candidates) and move the node out of its
            // group: into the group of its new frame, or out for good once
            // fixed.
            for k in 0..self.ws.changed.len() {
                let m = self.ws.changed[k];
                self.ws.class_dirty[self.ws.class_of[m.index()] as usize] = true;
                self.ws.changed_flag[m.index()] = false;
                self.ws.leave_group(m);
                if !self.ws.fixed[m.index()] {
                    self.ws.join_group(m);
                }
            }
            self.ws.changed.clear();
        }

        let mut schedule = Schedule::with_slots(self.latency, self.slices.slot_count());
        for &n in self.slices.functional() {
            schedule.assign(n, self.ws.frames[n.index()].earliest);
        }
        Ok(schedule)
    }

    /// Rebuilds the DG rows of dirty classes and drops the cached candidates
    /// of their groups.  Cells are summed over members in ascending
    /// node order — the reference implementation's map-construction order —
    /// so the resulting f64 values are bit-identical to a full rebuild.
    fn refresh_dirty_rows(&mut self) {
        let ws = &mut *self.ws;
        for class in 0..NUM_CLASSES {
            if !ws.class_dirty[class] {
                continue;
            }
            ws.class_dirty[class] = false;
            if !ws.class_members[class].is_empty() {
                ws.rebuilt += 1;
            }
            let row = &mut ws.dg[class];
            row.fill(0.0);
            for &m in &ws.class_members[class] {
                let frame = ws.frames[m.index()];
                let p = frame.probability(frame.earliest);
                for step in frame.earliest..=frame.latest {
                    row[step as usize] += p;
                }
                if !ws.fixed[m.index()] {
                    ws.groups[ws.links[m.index()].group as usize].cand = Candidate::Stale;
                }
            }
        }
    }

    /// Picks the unfixed (node, step) pair with the smallest self-force,
    /// refreshing stale group candidates on the way.  Ties within [`EPS`] go
    /// to the smaller (node, step) pair, like the reference's flat scan (see
    /// the module docs for the ε-chain caveat).
    ///
    /// Only group heads are visited, in ascending id, and a stale group's
    /// O(w²) exact candidate is computed only when its O(w) lower bound lies
    /// below `bf − EPS`; the module docs show why neither skips anything the
    /// scan over every unfixed node could pick, and debug builds assert it
    /// against [`Kernel::flat_pick`].
    fn pick(&mut self) -> (NodeId, u32) {
        let mut best: Option<(NodeId, u32, f64)> = None;
        for w in 0..self.ws.heads.len() {
            let mut word = self.ws.heads[w];
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let n = NodeId::new(i as u32);
                let g = self.ws.links[i].group as usize;
                let (step, force) = match self.ws.groups[g].cand {
                    Candidate::Exact(step, force) => (step, force),
                    cached => {
                        let bound = match cached {
                            Candidate::Bound(bound) => bound,
                            _ => self.force_lower_bound(n),
                        };
                        if best.is_some_and(|(_, _, bf)| bound >= bf - EPS) {
                            self.ws.groups[g].cand = Candidate::Bound(bound);
                            continue;
                        }
                        let (step, force) = self.best_candidate(n);
                        debug_assert!(bound <= force, "bound {bound} above force {force} at {n}");
                        self.ws.groups[g].cand = Candidate::Exact(step, force);
                        (step, force)
                    }
                };
                if beats(best, n, step, force) {
                    best = Some((n, step, force));
                }
            }
        }
        let (node, step, _) = best.expect("at least one unfixed node");
        debug_assert_eq!((node, step), self.flat_pick(), "grouped pick left the flat scan");
        (node, step)
    }

    /// The pick without pruning or grouping: every unfixed node's exact
    /// candidate, merged in ascending id with the comparator
    /// [`Kernel::pick`] uses.  The debug-build oracle for that pick.
    fn flat_pick(&self) -> (NodeId, u32) {
        let mut best: Option<(NodeId, u32, f64)> = None;
        for &n in self.slices.functional() {
            if self.ws.fixed[n.index()] {
                continue;
            }
            let (step, force) = self.best_candidate(n);
            if beats(best, n, step, force) {
                best = Some((n, step, force));
            }
        }
        let (node, step, _) = best.expect("at least one unfixed node");
        (node, step)
    }

    /// The node's best step by self-force, scanning its frame in ascending
    /// order with the reference comparator.
    fn best_candidate(&self, n: NodeId) -> (u32, f64) {
        let frame = self.ws.frames[n.index()];
        let row = &self.ws.dg[self.ws.class_of[n.index()] as usize];
        let mut best: Option<(u32, f64)> = None;
        for step in frame.earliest..=frame.latest {
            let force = self_force(row, frame, step);
            let better = match best {
                None => true,
                Some((_, bf)) => force < bf - EPS,
            };
            if better {
                best = Some((step, force));
            }
        }
        best.expect("frames are non-empty")
    }

    /// A lower bound on every self-force in `n`'s frame, in one O(w) pass.
    ///
    /// In real arithmetic the self-force at step t is
    /// `DG[t]·(1 − 1/w) − Σ_{s≠t} DG[s]/w = DG[t] − S/w`, with `S` the
    /// frame's DG sum and `w` its width, so `min DG − S/w` bounds them all.
    /// The margin covers rounding on both sides: the evaluated force sums
    /// `w` rounded products whose coefficients lie in [−1, 1], so it is
    /// within about `(w + 2)·u·S` of the real value (`u` = `EPSILON / 2`;
    /// DG cells are non-negative, so `S` bounds every partial sum), and
    /// computing `S`, `S/w` and the difference here adds a few `u·S` more.
    /// `8·(w + 4)·EPSILON·(S + 1)` is `16·(w + 4)·u·(S + 1)`, over twice
    /// the worst case.
    fn force_lower_bound(&self, n: NodeId) -> f64 {
        let frame = self.ws.frames[n.index()];
        let row = &self.ws.dg[self.ws.class_of[n.index()] as usize];
        let (mut sum, mut min) = (0.0, f64::INFINITY);
        for &dg in &row[frame.earliest as usize..=frame.latest as usize] {
            sum += dg;
            min = min.min(dg);
        }
        let width = f64::from(frame.width());
        let margin = 8.0 * (width + 4.0) * f64::EPSILON * (sum + 1.0);
        min - sum / width - margin
    }

    fn mark_changed(&mut self, n: NodeId) {
        if !self.ws.changed_flag[n.index()] {
            self.ws.changed_flag[n.index()] = true;
            self.ws.changed.push(n);
            self.ws.touched += 1;
        }
    }

    /// Restores frame consistency after `origin`'s frame tightened: a
    /// worklist relaxation of the earliest-step system along successors and
    /// the latest-step system along predecessors.  Both systems are
    /// longest-path closures whose only newly violated constraints leave
    /// `origin`, so seeding there reaches the same fixed point the
    /// reference's whole-graph iteration computes.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InfeasiblePropagation`] if a constraint
    /// pushes a frame's earliest step past its latest one — unreachable when
    /// fixing happens inside consistent frames, but surfaced rather than
    /// clamped away.
    fn propagate_from(&mut self, origin: NodeId) -> Result<(), ScheduleError> {
        // Forward: successors must start after their predecessors finish.
        self.ws.queue.push_back(origin);
        while let Some(n) = self.ws.queue.pop_front() {
            let bound = self.ws.frames[n.index()].earliest + 1;
            for &s in self.slices.succs(n) {
                if !self.slices.is_functional(s) {
                    continue;
                }
                let i = s.index();
                if bound > self.ws.frames[i].latest {
                    self.ws.queue.clear();
                    return Err(ScheduleError::InfeasiblePropagation { node: s });
                }
                if !self.ws.fixed[i] && bound > self.ws.frames[i].earliest {
                    self.ws.frames[i].earliest = bound;
                    self.mark_changed(s);
                    self.ws.queue.push_back(s);
                }
            }
        }
        // Backward: predecessors must finish before their successors start.
        self.ws.queue.push_back(origin);
        while let Some(n) = self.ws.queue.pop_front() {
            let bound = self.ws.frames[n.index()].latest.saturating_sub(1);
            for &p in self.slices.preds(n) {
                if !self.slices.is_functional(p) {
                    continue;
                }
                let i = p.index();
                if bound < self.ws.frames[i].earliest {
                    self.ws.queue.clear();
                    return Err(ScheduleError::InfeasiblePropagation { node: p });
                }
                if !self.ws.fixed[i] && bound < self.ws.frames[i].latest {
                    self.ws.frames[i].latest = bound;
                    self.mark_changed(p);
                    self.ws.queue.push_back(p);
                }
            }
        }
        Ok(())
    }
}

/// Whether candidate (`n`, `step`, `force`) displaces the incumbent `best`
/// of a pick: a force lower by more than [`EPS`], or a tie within it broken
/// towards the smaller (node, step) pair.
fn beats(best: Option<(NodeId, u32, f64)>, n: NodeId, step: u32, force: f64) -> bool {
    match best {
        None => true,
        Some((bn, bs, bf)) => {
            force < bf - EPS || ((force - bf).abs() <= EPS && (n, step) < (bn, bs))
        }
    }
}

/// Self force of placing an operation with time frame `frame` at `step`,
/// against its class's DG row: the standard
/// `DG · (new probability − old probability)` sum over the frame, evaluated
/// term-by-term in ascending step order (the reference's summation order).
fn self_force(row: &[f64], frame: Frame, step: u32) -> f64 {
    let p = frame.probability(step);
    let mut force = 0.0;
    for s in frame.earliest..=frame.latest {
        let dg_s = row[s as usize];
        let delta = if s == step { 1.0 - p } else { -p };
        force += dg_s * delta;
    }
    force
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::resource::ResourceConstraint;
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
    fn three_steps_use_a_single_subtractor() {
        // Figure 2(a): with three control steps force-directed scheduling
        // spreads the two subtractions over different steps, so one
        // subtractor suffices.
        let (g, _gt, amb, bma, _m) = abs_diff();
        let s = schedule(&g, 3).unwrap();
        s.validate(&g).unwrap();
        assert_ne!(s.step_of(amb), s.step_of(bma));
        let usage = s.resource_usage(&g);
        assert_eq!(usage.count(OpClass::Sub), 1);
    }

    #[test]
    fn two_steps_need_two_subtractors() {
        // Figure 1: with only two control steps both subtractions land in
        // step 1 and two subtractors are required.
        let (g, ..) = abs_diff();
        let s = schedule(&g, 2).unwrap();
        s.validate(&g).unwrap();
        let usage = s.resource_usage(&g);
        assert_eq!(usage.count(OpClass::Sub), 2);
    }

    #[test]
    fn latency_below_critical_path_is_rejected() {
        let (g, ..) = abs_diff();
        let err = schedule(&g, 1).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyTooSmall { requested: 1, critical_path: 2 }));
    }

    #[test]
    fn control_edges_constrain_force_directed_scheduling() {
        let (mut g, gt, amb, bma, m) = abs_diff();
        g.add_control_edge(gt, amb).unwrap();
        g.add_control_edge(gt, bma).unwrap();
        let s = schedule(&g, 3).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.step_of(gt), Some(1));
        assert!(s.step_of(amb).unwrap() >= 2);
        assert!(s.step_of(bma).unwrap() >= 2);
        assert_eq!(s.step_of(m), Some(3));
    }

    #[test]
    fn balances_adders_over_steps() {
        // Four independent additions, two steps: force-directed scheduling
        // should put two in each step so that only two adders are needed.
        let mut g = Cdfg::new("adds");
        let mut sums = Vec::new();
        for i in 0..4 {
            let a = g.add_input(format!("a{i}"));
            let b = g.add_input(format!("b{i}"));
            sums.push(g.add_op(Op::Add, &[a, b]).unwrap());
        }
        // A final combining stage so the graph has depth 2 and outputs.
        let c1 = g.add_op(Op::Add, &[sums[0], sums[1]]).unwrap();
        let c2 = g.add_op(Op::Add, &[sums[2], sums[3]]).unwrap();
        g.add_output("o1", c1).unwrap();
        g.add_output("o2", c2).unwrap();

        let s = schedule(&g, 3).unwrap();
        s.validate(&g).unwrap();
        let usage = s.resource_usage(&g);
        assert!(
            usage.count(OpClass::Add) <= 3,
            "force-directed scheduling should avoid piling all six adds into two steps: {usage}"
        );
        // A valid schedule under the derived resource bound exists.
        let constraint = ResourceConstraint::Limited(usage);
        s.validate_with(&g, &constraint).unwrap();
    }

    #[test]
    fn schedule_is_deterministic() {
        let (g, ..) = abs_diff();
        let s1 = schedule(&g, 4).unwrap();
        let s2 = schedule(&g, 4).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn matches_the_naive_reference_on_hand_circuits() {
        let (g, ..) = abs_diff();
        for latency in 2..8 {
            assert_eq!(
                schedule(&g, latency).unwrap(),
                naive::schedule(&g, latency).unwrap(),
                "latency {latency}"
            );
        }

        let (mut h, gt, amb, bma, _) = abs_diff();
        h.add_control_edge(gt, amb).unwrap();
        h.add_control_edge(gt, bma).unwrap();
        for latency in 3..8 {
            assert_eq!(
                schedule(&h, latency).unwrap(),
                naive::schedule(&h, latency).unwrap(),
                "constrained, latency {latency}"
            );
        }
    }

    #[test]
    fn matches_the_naive_reference_on_a_wide_mixed_graph() {
        // A two-layer mixed-class graph with plenty of slack, so many
        // iterations of pick/propagate run with non-trivial frames.
        let mut g = Cdfg::new("mixed");
        let mut layer = Vec::new();
        for i in 0..6 {
            let a = g.add_input(format!("a{i}"));
            let b = g.add_input(format!("b{i}"));
            let op = match i % 3 {
                0 => Op::Add,
                1 => Op::Mul,
                _ => Op::Sub,
            };
            layer.push(g.add_op(op, &[a, b]).unwrap());
        }
        let mut acc = layer[0];
        for &n in &layer[1..] {
            acc = g.add_op(Op::Add, &[acc, n]).unwrap();
        }
        let sel = g.add_op(Op::Gt, &[layer[0], layer[1]]).unwrap();
        let m = g.add_mux(sel, acc, layer[2]).unwrap();
        g.add_output("o", m).unwrap();

        let cp = g.critical_path_length();
        for latency in cp..cp + 5 {
            assert_eq!(
                schedule(&g, latency).unwrap(),
                naive::schedule(&g, latency).unwrap(),
                "latency {latency}"
            );
        }
    }

    #[test]
    fn propagate_surfaces_infeasibility_instead_of_clamping() {
        // Regression for the backward-pass clamp: a deep chain whose tail is
        // fixed far too early must error, not silently floor the chain's
        // frames at step 1.
        let mut g = Cdfg::new("chain");
        let x = g.add_input("x");
        let a = g.add_op(Op::Neg, &[x]).unwrap();
        let b = g.add_op(Op::Neg, &[a]).unwrap();
        let c = g.add_op(Op::Neg, &[b]).unwrap();
        let d = g.add_op(Op::Neg, &[c]).unwrap();
        g.add_output("o", d).unwrap();

        let timing = Timing::compute(&g, 6);
        let mut ws = Workspace::default();
        let mut kernel = Kernel::init(&g, &timing, &mut ws);
        // Simulate a (buggy) late fix: d pinned to step 2 even though three
        // predecessors must run first.
        let i = d.index();
        kernel.ws.frames[i] = Frame { earliest: 2, latest: 2 };
        kernel.ws.fixed[i] = true;
        kernel.ws.fixed_count += 1;
        let err = kernel.propagate_from(d).unwrap_err();
        assert!(matches!(err, ScheduleError::InfeasiblePropagation { .. }));
        assert!(kernel.ws.queue.is_empty(), "worklist drained on error");
    }

    #[test]
    fn repair_is_bit_identical_to_cold_schedules_across_budget_walks() {
        // A reflecting budget walk over one workspace: every repaired
        // schedule must equal a cold run, whether a kernel run or the memo
        // served it.
        let (g, ..) = abs_diff();
        let mut rw = RepairWorkspace::new();
        let walk = [2u32, 3, 4, 3, 2, 5, 4, 4, 2, 7, 3];
        for (i, &latency) in walk.iter().enumerate() {
            let (got, stats) = repair(&g, latency, &mut rw);
            assert_eq!(got.unwrap(), schedule(&g, latency).unwrap(), "event {i} at {latency}");
            if i == 0 {
                assert!(stats.full_recompute, "first sight is a full recompute");
            }
        }
        // The bound critical path shows one step below it: a zero-work
        // error equal to a cold run's.
        assert_eq!(
            repair(&g, 1, &mut rw),
            (Err(schedule(&g, 1).unwrap_err()), RepairStats::default())
        );
    }

    #[test]
    fn repair_memo_hits_and_infeasible_fast_path_touch_zero_nodes() {
        let (g, ..) = abs_diff();
        let mut rw = RepairWorkspace::new();
        let (first, stats) = repair(&g, 3, &mut rw);
        let first = first.unwrap();
        assert!(stats.full_recompute);
        assert!(stats.nodes_touched > 0, "cold path re-derives the analysis");

        let (revisit, stats) = repair(&g, 3, &mut rw);
        assert_eq!(revisit.unwrap(), first);
        assert_eq!(stats, RepairStats::default(), "memo hit is zero work");

        let (err, stats) = repair(&g, 1, &mut rw);
        let cold_err = schedule(&g, 1).unwrap_err();
        assert_eq!(err.unwrap_err(), cold_err, "typed error matches cold");
        assert_eq!(stats, RepairStats::default(), "infeasibility check is O(1)");
    }

    #[test]
    fn repair_surfaces_cold_identical_errors_even_on_first_sight() {
        // The very first event on a circuit may already be infeasible; the
        // full path must report the same typed error as a cold run and
        // still leave the workspace usable for later feasible budgets.
        let (g, ..) = abs_diff();
        let mut rw = RepairWorkspace::new();
        let (err, stats) = repair(&g, 1, &mut rw);
        assert_eq!(err.unwrap_err(), schedule(&g, 1).unwrap_err());
        assert!(stats.full_recompute);
        let (ok, _) = repair(&g, 4, &mut rw);
        assert_eq!(ok.unwrap(), schedule(&g, 4).unwrap());
    }

    #[test]
    fn repair_rebinds_to_a_new_circuit_and_drops_stale_caches() {
        let (g, ..) = abs_diff();
        let mut h = Cdfg::new("chain");
        let x = h.add_input("x");
        let mut prev = h.add_op(Op::Neg, &[x]).unwrap();
        for _ in 0..3 {
            prev = h.add_op(Op::Neg, &[prev]).unwrap();
        }
        h.add_output("o", prev).unwrap();

        let mut rw = RepairWorkspace::new();
        assert_eq!(repair(&g, 3, &mut rw).0.unwrap(), schedule(&g, 3).unwrap());
        let (got, stats) = repair(&h, 5, &mut rw);
        assert_eq!(got.unwrap(), schedule(&h, 5).unwrap());
        assert!(stats.full_recompute, "rebinding recomputes from scratch");
        // The rebind bound the chain's critical path, 4: budget 3 is a
        // zero-work error, where the abs_diff binding would have scheduled.
        let cold = schedule(&h, 3).unwrap_err();
        assert!(matches!(cold, ScheduleError::LatencyTooSmall { critical_path: 4, .. }));
        assert_eq!(repair(&h, 3, &mut rw), (Err(cold), RepairStats::default()));
        // The old circuit rebinds again rather than replaying a stale memo.
        let (back, stats) = repair(&g, 3, &mut rw);
        assert_eq!(back.unwrap(), schedule(&g, 3).unwrap());
        assert!(stats.full_recompute);
    }

    #[test]
    fn zero_latency_is_a_typed_error_not_a_panic() {
        let (g, ..) = abs_diff();
        let expected = ScheduleError::LatencyTooSmall { requested: 0, critical_path: 2 };
        assert_eq!(schedule(&g, 0).unwrap_err(), expected);
        // Unbound and bound workspaces alike: zero work, nothing bound or
        // dropped.
        let mut rw = RepairWorkspace::new();
        assert_eq!(repair(&g, 0, &mut rw), (Err(expected.clone()), RepairStats::default()));
        let (first, stats) = repair(&g, 3, &mut rw);
        assert_eq!(first.unwrap(), schedule(&g, 3).unwrap());
        assert!(stats.full_recompute, "the zero-latency call bound nothing");
        assert_eq!(repair(&g, 0, &mut rw), (Err(expected), RepairStats::default()));
        let (again, stats) = repair(&g, 3, &mut rw);
        assert_eq!(again.unwrap(), schedule(&g, 3).unwrap());
        assert_eq!(stats, RepairStats::default(), "the memo survived the zero-latency call");
        assert_eq!(repair(&g, 4, &mut rw).0.unwrap(), schedule(&g, 4).unwrap());
    }

    #[test]
    fn one_group_spanning_three_head_words_matches_the_naive_reference() {
        // 140 independent additions share one frame, so they form a single
        // group whose members span three 64-bit words of the head bitset;
        // every fix moves the head on to the next member.
        let mut g = Cdfg::new("wide_adds");
        let a = g.add_input("a");
        let b = g.add_input("b");
        for i in 0..140 {
            let sum = g.add_op(Op::Add, &[a, b]).unwrap();
            g.add_output(format!("o{i}"), sum).unwrap();
        }
        let cp = g.critical_path_length();
        for latency in cp..=cp + 4 {
            if latency > 1 {
                let timing = Timing::compute(&g, latency);
                let mut ws = Workspace::default();
                let kernel = Kernel::init(&g, &timing, &mut ws);
                assert_eq!(kernel.ws.group_ids.len(), 1, "one group at latency {latency}");
                let group = kernel.ws.groups[0];
                assert!(group.tail / 64 - group.head / 64 >= 2, "the group spans three words");
            }
            assert_eq!(
                schedule(&g, latency).unwrap(),
                naive::schedule(&g, latency).unwrap(),
                "latency {latency}"
            );
        }
    }

    #[test]
    fn members_moving_between_groups_mid_run_match_the_naive_reference() {
        // A multiplier chain feeds two interleaved fans of additions, one
        // from each of its first two nodes.  Six earlier multipliers share
        // the chain head's frame, so the head is often fixed late; that
        // pushes its fan's earliest step out, and the fan's members leave
        // their group mid-run for one whose members interleave with theirs
        // (inserted before its head and between its members).
        let mut g = Cdfg::new("chain_fans");
        let x = g.add_input("x");
        let y = g.add_input("y");
        for i in 0..6 {
            let m = g.add_op(Op::Mul, &[x, y]).unwrap();
            let n1 = g.add_op(Op::Neg, &[m]).unwrap();
            let n2 = g.add_op(Op::Neg, &[n1]).unwrap();
            g.add_output(format!("p{i}"), n2).unwrap();
        }
        let c1 = g.add_op(Op::Mul, &[x, y]).unwrap();
        let c2 = g.add_op(Op::Mul, &[c1, y]).unwrap();
        let c3 = g.add_op(Op::Mul, &[c2, y]).unwrap();
        g.add_output("c", c3).unwrap();
        for i in 0..12 {
            let a = g.add_op(Op::Add, &[c1, x]).unwrap();
            let b = g.add_op(Op::Add, &[c2, x]).unwrap();
            g.add_output(format!("a{i}"), a).unwrap();
            g.add_output(format!("b{i}"), b).unwrap();
        }
        let cp = g.critical_path_length();
        let mut moved = false;
        for latency in cp..=cp + 4 {
            let timing = Timing::compute(&g, latency);
            let mut ws = Workspace::default();
            let unfixed = {
                let kernel = Kernel::init(&g, &timing, &mut ws);
                g.slices().functional().len() - kernel.ws.fixed_count
            };
            let fast = Kernel::init(&g, &timing, &mut ws).run().unwrap();
            // Beyond one touch per fix, every touch is a propagation move.
            moved |= ws.touched > unfixed;
            assert_eq!(fast, naive::schedule(&g, latency).unwrap(), "latency {latency}");
        }
        assert!(moved, "propagation never moved a member between groups");
    }

    #[test]
    fn a_repair_workspace_rebinds_across_head_bitset_sizes() {
        // A circuit of more than 64 slots, then a smaller one, then back:
        // the head bitset and group index shrink and grow with the slots.
        let mut big = Cdfg::new("big");
        let a = big.add_input("a");
        let b = big.add_input("b");
        let mut acc = big.add_op(Op::Add, &[a, b]).unwrap();
        for i in 0..40 {
            let side = big.add_op(Op::Mul, &[a, b]).unwrap();
            acc = big.add_op(if i % 2 == 0 { Op::Add } else { Op::Sub }, &[acc, side]).unwrap();
        }
        big.add_output("o", acc).unwrap();
        assert!(big.slices().slot_count() > 64);
        let (small, ..) = abs_diff();

        let mut rw = RepairWorkspace::new();
        let big_cp = big.critical_path_length();
        for (g, latency) in
            [(&big, big_cp + 3), (&small, 4), (&big, big_cp + 2), (&small, 3), (&big, big_cp + 3)]
        {
            let (got, stats) = repair(g, latency, &mut rw);
            assert_eq!(got.unwrap(), schedule(g, latency).unwrap(), "{} at {latency}", g.name());
            assert!(stats.full_recompute, "every switch rebinds");
        }
    }

    #[test]
    fn feasible_deep_chains_match_the_naive_reference() {
        // Chains are the worst case for seeded propagation (every fix
        // cascades end to end); the direct error-path test for the naive
        // reference lives in naive::tests.
        let mut g = Cdfg::new("chain");
        let x = g.add_input("x");
        let mut prev = g.add_op(Op::Neg, &[x]).unwrap();
        for _ in 0..4 {
            prev = g.add_op(Op::Neg, &[prev]).unwrap();
        }
        g.add_output("o", prev).unwrap();
        // Feasible latencies still schedule fine in both kernels.
        for latency in 5..9 {
            assert_eq!(schedule(&g, latency).unwrap(), naive::schedule(&g, latency).unwrap(),);
        }
    }
}
