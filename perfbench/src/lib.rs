//! The repository's benchmark: one seeded command over three workloads.
//!
//! * `design` — a cold design-space analysis: the paper's full sweep
//!   matrix plus the Table III gate-level slice, then a per-op-voltage
//!   Pareto exploration of a generated batch ([`design`]).
//! * `service` — jobs against an in-process `sweepd` with a warm prefix
//!   cache, driven closed-loop by one client ([`serve`]).
//! * `online` — an online schedule-repair session over a generated event
//!   stream ([`online`]).
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run records spans around the calls into each crate
//! ([`trace`]) and reports the per-layer metrics ([`PER_LAYER`]).  Every
//! run passes its outputs through the correctness gate ([`gate`]).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::Instant;

pub mod design;
pub mod gate;
pub mod inputs;
pub mod online;
pub mod serve;
pub mod stats;
pub mod trace;

/// The end-to-end metrics, with units, in output order.  Each workload
/// maps its own operations onto them (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("light_ms", "ms"),
    ("heavy_ms", "ms"),
];

/// The per-layer metrics, with units, in output order.  A layer the
/// workload does not load reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("gen.generate_ms", "ms"),
    ("gen.stream_ms", "ms"),
    ("cdfg.nodes", "count"),
    ("sched.force_ms", "ms"),
    ("sched.force_calls", "count"),
    ("sched.list_ms", "ms"),
    ("sched.hyper_ms", "ms"),
    ("sched.dvs_ms", "ms"),
    ("sched.repair_us_p50", "us"),
    ("sched.repair_us_p99", "us"),
    ("sched.repair_nodes_touched", "count"),
    ("sched.repair_full_recomputes", "count"),
    ("sched.repair_zero_work_ratio", "ratio"),
    ("pmsched.power_manage_ms", "ms"),
    ("pmsched.reordered_ms", "ms"),
    ("pmsched.analyze_all_ms", "ms"),
    ("pmsched.accepted_ratio", "ratio"),
    ("binding.datapath_ms", "ms"),
    ("power.energy_ms", "ms"),
    ("power.gate_level_ms", "ms"),
    ("engine.walk_ms_p50", "ms"),
    ("engine.walk_ms_max", "ms"),
    ("engine.pool_efficiency", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.report_json_ms", "ms"),
    ("engine.report_bytes", "bytes"),
    ("engine.apply_us_p50", "us"),
    ("engine.apply_us_p99", "us"),
    ("service.event_parse_ms", "ms"),
    ("service.parse_mb_per_s", "MB/s"),
    ("service.wire_bytes_per_job", "bytes"),
    ("service.lines_per_job", "count"),
    ("service.request_emit_us", "us"),
    ("service.server_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// What one run was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// The workload seed.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (scenarios and points, jobs, or events).
    pub attempted: u64,
    /// Operations that failed or produced an incorrect output.
    pub failed: u64,
    /// What was wrong, one line per problem.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end, or per-layer when traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a correctness failure.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(error) = result {
            self.fail(error);
        }
    }

    /// Sets a metric, which must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(known, _)| known == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median calibrated wall time.  `setup` learns whether it is the
/// last repetition (the one a traced run records).
pub fn repeated_setup<T>(mut setup: impl FnMut(bool) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let ((result, seconds), factor) = calibrated(|| {
            let start = Instant::now();
            let result = setup(i + 1 == SETUP_REPEATS);
            (result, start.elapsed().as_secs_f64())
        });
        last = Some(result);
        times.push(seconds * factor);
    }
    (last.expect("at least one set-up"), stats::median(&times).expect("set-up times"))
}

/// Calls `pass(i)` for i = 0, 1, … until `seconds` have passed since the
/// first call began, and at least `min` times; returns the pass count.
pub fn repeat_for(seconds: f64, min: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut passes = 0;
    while passes < min || start.elapsed().as_secs_f64() < seconds {
        pass(passes);
        passes += 1;
    }
    passes
}

/// Calibration-kernel time at the reference speed: its median on the
/// 2-core machine the first baseline was measured on.
pub const CALIBRATION_REF_S: f64 = 0.0145;

/// One run of the calibration kernel: a fixed walk of dependent loads,
/// stores and multiplies over a 1 MiB table, independent of the code under
/// test.  Returns its wall time in seconds.
fn calibration_kernel() -> f64 {
    const MASK: u32 = (1 << 18) - 1;
    let mut table: Vec<u32> = (0..=MASK).map(|i| i.wrapping_mul(2_654_435_761) >> 14).collect();
    let start = Instant::now();
    let (mut index, mut acc) = (0u32, 0u64);
    for _ in 0..3_000_000 {
        index = table[index as usize] ^ (acc as u32 & MASK);
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(index));
        table[(acc as u32 & MASK) as usize] = index;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The machine's current speed: the median of three runs of the
/// calibration kernel, in seconds.
pub fn calibrate() -> f64 {
    let times = [calibration_kernel(), calibration_kernel(), calibration_kernel()];
    stats::median(&times).expect("three calibration times")
}

/// Runs `f` between two calibrations and returns its result with the
/// speed factor to multiply its times by: the reference calibration time
/// over the mean of the two measured ones.  Scaled times are "calibrated"
/// milliseconds or seconds: what the work takes at the reference speed,
/// with the drift of a shared machine's speed removed.
pub fn calibrated<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = calibrate();
    let out = f();
    let after = calibrate();
    (out, CALIBRATION_REF_S * 2.0 / (before + after))
}

/// Median of `values`, or 0 when there are none.
pub fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// The median of `values` plus the highest percentile (at most `cap` per
/// mille) with ten samples beyond it, with the sample count.
pub fn describe(name: &str, unit: &str, values: &[f64], cap: u32) -> String {
    let median = median_or_zero(values);
    match stats::tail_at_most(values, cap) {
        Some(tail) => format!(
            "{name}: p50 {median:.4} {unit}, {} {:.4} {unit} (n={}, {} beyond)",
            tail.label(),
            tail.value,
            values.len(),
            tail.beyond
        ),
        None => format!("{name}: p50 {median:.4} {unit} (n={}, too few for a tail)", values.len()),
    }
}

/// Percentage by which the median of `traced` exceeds that of `untraced`.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let base = median_or_zero(untraced);
    if base > 0.0 {
        (median_or_zero(traced) - base) / base * 100.0
    } else {
        0.0
    }
}
