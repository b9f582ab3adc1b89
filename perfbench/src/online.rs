//! The `online` workload: one online schedule-repair session.
//!
//! A pass folds the seeded event stream through a fresh
//! [`SessionState::apply`] and emits the [`OnlineReport`].  Budget walks
//! leave the repair memo, so about a quarter of the events take
//! `sched::repair`'s full-recompute path: `light_ms` (the median over all
//! events) is a memo or warm-delta number, and `heavy_ms` (the median over
//! full-recompute events) is a force-kernel number.  `pass_s` is the whole
//! session, report included.  All three are calibrated: scaled by the
//! speed factor of calibrations around the pass.
//!
//! The traced run replays the stream against its own repair workspaces,
//! timing `sched::repair` alone, and requires the replay's per-event
//! repair statistics to equal the session's; each full recompute is also
//! checked against a cold `force::schedule`.

use std::collections::BTreeMap;
use std::time::Instant;

use circuits::Benchmark;
use engine::{EventRecord, OnlineReport, SessionState};
use gen::{StreamEvent, StreamSpec};
use sched::force::{self, RepairWorkspace};

use crate::inputs::online_spec;
use crate::trace::Tracer;
use crate::{gate, median_or_zero, stats, Outcome, RunArgs};

/// The generated stream.
pub struct Setup {
    /// The stream spec the seed maps to.
    pub spec: StreamSpec,
    /// The circuit pool.
    pub pool: Vec<Benchmark>,
    /// The events, in order.
    pub events: Vec<StreamEvent>,
}

/// Generates the stream.
pub fn setup(seed: u64, t: &mut Tracer) -> Setup {
    let spec = online_spec(seed);
    let request = t.request(&spec.spec_string());
    let (pool, events) =
        t.time("gen.stream", request, || gen::stream(&spec)).expect("the online stream generates");
    Setup { spec, pool, events }
}

/// What one pass produced.
pub struct Pass {
    /// Per-event `apply` latency, in ms.
    pub apply_ms: Vec<f64>,
    /// Session wall time, report included, in seconds.
    pub pass_s: f64,
    /// The session's report.
    pub report: OnlineReport,
    /// Its JSON.
    pub json: String,
}

/// Runs one session; `t` records one span per event when enabled.
pub fn pass(setup: &Setup, event_ids: &[u32], t: &mut Tracer) -> Pass {
    let mut state = SessionState::new(setup.pool.iter().cloned());
    let mut records: Vec<EventRecord> = Vec::with_capacity(setup.events.len());
    let mut apply_ms = Vec::with_capacity(setup.events.len());
    let start = Instant::now();
    for (index, event) in setup.events.iter().enumerate() {
        let id = event_ids.get(index).copied().unwrap_or(0);
        let began = Instant::now();
        let record = t.time("engine.apply", id, || state.apply(index, event));
        apply_ms.push(began.elapsed().as_secs_f64() * 1e3);
        records.push(record);
    }
    let session = t.request("session");
    let (report, json) = t.time("engine.report_json", session, || {
        let report = OnlineReport::from_records(&setup.spec, records);
        let json = report.to_json();
        (report, json)
    });
    Pass { apply_ms, pass_s: start.elapsed().as_secs_f64(), report, json }
}

/// Checks one pass's report; `first` is the digest of the run's first
/// report, which every later pass must repeat.
pub fn check_pass(seed: u64, p: &Pass, first: &mut Option<u64>, out: &mut Outcome) {
    out.attempted += p.report.records.len() as u64;
    for record in &p.report.records {
        if let Err(error) = &record.outcome {
            out.fail(format!("event {} failed: {error}", record.index));
        }
    }
    let digest = gate::fnv1a64(p.json.as_bytes());
    match *first {
        None => {
            out.check(gate::check_pin("online", seed, &p.json));
            *first = Some(digest);
        }
        Some(first) if first != digest => {
            out.fail(format!("online report digest {digest:016x} differs from the first pass"));
        }
        Some(_) => {}
    }
}

/// Latencies of the full-recompute events.
fn full_recompute_ms(p: &Pass) -> Vec<f64> {
    p.report
        .records
        .iter()
        .zip(&p.apply_ms)
        .filter(|(record, _)| record.stats.full_recompute)
        .map(|(_, &ms)| ms)
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = crate::repeated_setup(|_| setup(args.seed, &mut Tracer::disabled()));
    let (mut all, mut heavy, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let (mut factors, mut wall) = (Vec::new(), Vec::new());
    let mut first = None;
    crate::repeat_for(args.seconds, 3, |_| {
        let (p, factor) = crate::calibrated(|| pass(&setup, &[], &mut Tracer::disabled()));
        check_pass(args.seed, &p, &mut first, &mut out);
        heavy.extend(full_recompute_ms(&p).into_iter().map(|ms| ms * factor));
        all.extend(p.apply_ms.iter().map(|ms| ms * factor));
        total.push(p.pass_s * factor);
        wall.push(p.pass_s);
        factors.push(factor);
    });
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set("pass_s", median_or_zero(&total));
    out.set("light_ms", median_or_zero(&all));
    out.set("heavy_ms", median_or_zero(&heavy));
    let events = setup.events.len() as f64;
    out.line(format!(
        "passes: {} of {events} events (seed {}), speed factor {:.4}",
        total.len(),
        args.seed,
        median_or_zero(&factors)
    ));
    out.line(format!(
        "events_per_s: {:.1} 1/s calibrated, {:.1} 1/s wall (events / median session time)",
        events / median_or_zero(&total),
        events / median_or_zero(&wall)
    ));
    let us: Vec<f64> = all.iter().map(|ms| ms * 1e3).collect();
    out.line(crate::describe("repair_us (calibrated)", "us", &us, 990));
    out.line(crate::describe("full_recompute_ms (calibrated)", "ms", &heavy, 990));
    out
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: RunArgs, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup, _) = crate::repeated_setup(|last| {
        if last {
            setup(args.seed, t)
        } else {
            setup(args.seed, &mut Tracer::disabled())
        }
    });
    let event_ids: Vec<u32> =
        (0..setup.events.len()).map(|i| t.request(&format!("event-{i}"))).collect();

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut last = None;
    crate::repeat_for(args.seconds, 2, |i| {
        let (p, factor) = if i % 2 == 0 {
            crate::calibrated(|| pass(&setup, &event_ids, &mut Tracer::disabled()))
        } else {
            crate::calibrated(|| pass(&setup, &event_ids, t))
        };
        check_pass(args.seed, &p, &mut first, &mut out);
        if i % 2 == 0 {
            plain.push(p.pass_s * factor);
        } else {
            traced.push(p.pass_s * factor);
        }
        last = Some(p);
    });
    out.line(format!(
        "passes: {} untraced at {:.4} s, {} traced at {:.4} s (calibrated medians)",
        plain.len(),
        median_or_zero(&plain),
        traced.len(),
        median_or_zero(&traced)
    ));
    let last = last.expect("at least two passes");
    let traced_passes = traced.len().max(1) as f64;

    // Replay the repairs alone, mirroring the session's live set.
    let pool: BTreeMap<&str, &cdfg::Cdfg> =
        setup.pool.iter().map(|b| (b.name.as_str(), &b.cdfg)).collect();
    let mut live: BTreeMap<&str, RepairWorkspace> = BTreeMap::new();
    let mut force_calls = 0usize;
    for (index, (event, record)) in setup.events.iter().zip(&last.report.records).enumerate() {
        let id = event_ids[index];
        let (circuit, budget) = match event {
            StreamEvent::CircuitArrived { circuit, budget } => {
                live.insert(circuit.as_str(), RepairWorkspace::new());
                (circuit.as_str(), *budget)
            }
            StreamEvent::BudgetChanged { circuit, budget } => (circuit.as_str(), *budget),
            StreamEvent::CircuitRetired { circuit } => {
                live.remove(circuit.as_str());
                continue;
            }
            StreamEvent::ScalingChanged { .. } => continue,
        };
        let cdfg = pool[circuit];
        let rw = live.get_mut(circuit).expect("events only touch live circuits");
        let (schedule, stats) = t.time("sched.repair", id, || sched::repair(cdfg, budget, rw));
        if stats != record.stats {
            out.fail(format!("event {index}: replayed repair statistics differ"));
        }
        if stats.full_recompute {
            let cold = t.time("sched.force", id, || force::schedule(cdfg, budget));
            force_calls += 1;
            if cold.ok() != schedule.ok() {
                out.fail(format!("event {index}: repair differs from a cold schedule"));
            }
        }
    }

    let summary = last.report.summary;
    let repair_us = t.durations_us("sched.repair");
    let apply_us = t.durations_us("engine.apply");
    let pct =
        |values: &[f64], permille| stats::percentile(values, permille).map_or(0.0, |p| p.value);
    out.set("gen.stream_ms", t.total_ms("gen.stream"));
    out.set("cdfg.nodes", setup.pool.iter().map(|b| b.cdfg.node_count()).sum::<usize>() as f64);
    out.set("sched.force_ms", t.total_ms("sched.force"));
    out.set("sched.force_calls", force_calls as f64);
    out.set("sched.repair_us_p50", median_or_zero(&repair_us));
    out.set("sched.repair_us_p99", pct(&repair_us, 990));
    out.set("sched.repair_nodes_touched", summary.nodes_touched as f64);
    out.set("sched.repair_full_recomputes", summary.full_recomputes as f64);
    out.set(
        "sched.repair_zero_work_ratio",
        summary.zero_work_events as f64 / summary.events.max(1) as f64,
    );
    out.set("engine.apply_us_p50", median_or_zero(&apply_us));
    out.set("engine.apply_us_p99", pct(&apply_us, 990));
    out.set("engine.report_json_ms", t.total_ms("engine.report_json") / traced_passes);
    out.set("engine.report_bytes", last.json.len() as f64);
    out.set("trace.overhead_pct", crate::overhead_pct(&traced, &plain));
    out.line(format!(
        "replay: {} repairs and {force_calls} cold schedules checked against the session",
        repair_us.len()
    ));
    out
}
