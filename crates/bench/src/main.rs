//! Emits `BENCH_kernels.json`: each fast kernel timed against the retained
//! reference it replaced.
//!
//! ```text
//! cargo run --release -p bench [-- --quick] [--out PATH]
//! ```
//!
//! * `--quick` — fewer repetitions and no analysis case above 6k nodes (CI
//!   smoke mode),
//! * `--out PATH` — write the JSON to a file instead of stdout.
//!
//! End-to-end timing (sweeps, `sweepd` jobs, online events, explorer walks)
//! is `perfbench`'s job.  This file holds what `perfbench` cannot measure:
//! how much each kernel gains over its reference.  Every row has one shape,
//! `kernel, name, kind, nodes, unit, reference_us, fast_us, speedup`, and
//! is written only after both paths gave identical results:
//!
//! * `force` — `sched::force::schedule` against `sched::naive::schedule`;
//!   the schedules must be equal,
//! * `power_manage` — `pmsched::power_manage` against
//!   `pmsched::naive::power_manage`; the schedule, every mux's accept and
//!   shutdown decisions and the savings must be equal (cordic is skipped:
//!   its naive walk alone would dominate the run),
//! * `dvs` — `sched::dvs::distribute_slack` against
//!   `naive_distribute_slack` on the managed results of the `power_manage`
//!   walk, with the five-level preset; levels and energy bits must be
//!   equal.  On circuits of at most 16 nodes the greedy energy must also be
//!   no lower than `exact_min_energy`, and the largest gap is reported once
//!   as `max_exact_gap_percent`,
//! * `mux_analysis` — `MuxCones::analyze_all` per mux against
//!   `naive::analyze`, sampled on three muxes; the select driver (and
//!   whether it is functional) and both shutdown sets must be equal.
//!
//! The first three kernels walk each circuit of one shared case list over
//! the budgets cp..=cp+8 (`"unit": "walk"`: one call per budget);
//! `mux_analysis` runs on random DAGs from 532 to 50k nodes and reports
//! time per multiplexor (`"unit": "mux"`).  Past 6k nodes one naive mux
//! takes seconds, so there `reference_us` and `speedup` are `null`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

use cdfg::{Cdfg, NodeId};
use gen::{Family, GenSpec};
use pmsched::{
    naive, power_manage, Activation, MuxCones, OpWeights, PowerManagementOptions,
    PowerManagementResult, SelectProbabilities,
};
use power::VoltagePreset;
use sched::dvs;

/// Budgets past the critical path each walk visits.
const SPAN: u32 = 8;
/// Largest circuit the naive cone analysis is sampled on.
const NAIVE_ANALYSIS_NODES: usize = 6_000;
/// Largest circuit the exact DVS reference runs on.
const EXACT_DVS_NODES: usize = 16;

/// One circuit to measure.
struct Case {
    name: String,
    kind: &'static str,
    cdfg: Cdfg,
}

/// Best-of repetitions for each side of a row.
#[derive(Clone, Copy)]
struct Reps {
    fast: usize,
    reference: usize,
}

/// One measured row of `BENCH_kernels.json`.
struct Row {
    kernel: &'static str,
    name: String,
    kind: &'static str,
    nodes: usize,
    unit: &'static str,
    reference_us: Option<f64>,
    fast_us: f64,
}

impl Row {
    fn new(
        kernel: &'static str,
        case: &Case,
        unit: &'static str,
        reference_us: Option<f64>,
        fast_us: f64,
    ) -> Self {
        let Case { name, kind, cdfg } = case;
        Row {
            kernel,
            name: name.clone(),
            kind,
            nodes: cdfg.node_count(),
            unit,
            reference_us,
            fast_us,
        }
    }

    fn render(&self) -> String {
        let (reference, speedup) = match self.reference_us {
            Some(us) => (format!("{us:.1}"), format!("{:.2}", us / self.fast_us.max(1e-6))),
            None => ("null".to_owned(), "null".to_owned()),
        };
        format!(
            "{{\"kernel\": \"{}\", \"name\": \"{}\", \"kind\": \"{}\", \"nodes\": {}, \
             \"unit\": \"{}\", \"reference_us\": {reference}, \"fast_us\": {:.1}, \
             \"speedup\": {speedup}}}",
            self.kernel, self.name, self.kind, self.nodes, self.unit, self.fast_us,
        )
    }
}

fn generated(spec: &GenSpec) -> Case {
    let bench = gen::generate_one(spec, 0).expect("valid spec");
    Case { name: bench.name, kind: "generated", cdfg: bench.cdfg }
}

fn random_dag(width: u32, depth: u32) -> Case {
    let mut spec = GenSpec::new(Family::RandomDag, 11, 1);
    spec.width = width;
    spec.depth = depth;
    generated(&spec)
}

/// The walk kernels' case list, smallest paper circuit first.
fn walk_cases() -> Vec<Case> {
    let mut cases =
        vec![Case { name: "abs_diff".to_owned(), kind: "paper", cdfg: circuits::abs_diff() }];
    for bench in circuits::all_benchmarks() {
        cases.push(Case { name: bench.name, kind: "paper", cdfg: bench.cdfg });
    }
    for depth in [2, 4] {
        let mut spec = GenSpec::new(Family::MuxTree, 11, 1);
        spec.depth = depth;
        cases.push(generated(&spec));
    }
    cases.push(generated(&GenSpec::new(Family::DspChain, 11, 1)));
    for (width, depth) in [(6, 8), (12, 16), (16, 24)] {
        cases.push(random_dag(width, depth));
    }
    cases
}

/// The `mux_analysis` sizes, 532 to 50k nodes; `quick` drops the two
/// largest.
fn analysis_cases(quick: bool) -> Vec<Case> {
    let mut dims = vec![(16, 24), (24, 56), (32, 120)];
    if !quick {
        dims.extend([(48, 300), (64, 600)]);
    }
    dims.into_iter().map(|(width, depth)| random_dag(width, depth)).collect()
}

/// Best-of-`reps` wall time of `f` in microseconds, with the output of its
/// last run (which the identity guards compare).
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best * 1e6, out.expect("at least one repetition"))
}

/// The weight the explorer gives a node of a managed graph: the paper's
/// power weight times the node's activation probability.
fn node_weight<'a>(
    result: &'a PowerManagementResult,
    activation: &'a Activation,
    weights: &'a OpWeights,
) -> impl Fn(NodeId) -> f64 + 'a {
    move |n| {
        let class = result.cdfg().node(n).expect("live node").op.class();
        weights.weight(class) * activation.probability(n)
    }
}

/// Times every kernel on its cases and returns the rows with the largest
/// greedy-versus-exact DVS gap in percent.
///
/// # Panics
///
/// Panics when a fast kernel and its reference disagree.
fn measure(walks: &[Case], analyses: &[Case], reps: Reps) -> (Vec<Row>, f64) {
    let levels = VoltagePreset::FiveLevel.table().slack_levels();
    let weights = OpWeights::paper_power();
    let probs = SelectProbabilities::fair();
    let mut rows = Vec::new();
    let mut max_gap = 0.0f64;
    for case in walks {
        let Case { name, cdfg, .. } = case;
        let cp = cdfg.critical_path_length();
        let budgets = || cp..=cp + SPAN;

        let (fast_us, fast) = time_best(reps.fast, || {
            budgets()
                .map(|b| sched::force::schedule(cdfg, b).expect("feasible"))
                .collect::<Vec<_>>()
        });
        let (reference_us, reference) = time_best(reps.reference, || {
            budgets()
                .map(|b| sched::naive::schedule(cdfg, b).expect("feasible"))
                .collect::<Vec<_>>()
        });
        assert_eq!(fast, reference, "force diverged from the reference on {name}");
        rows.push(Row::new("force", case, "walk", Some(reference_us), fast_us));

        let (fast_us, managed) = time_best(reps.fast, || {
            budgets()
                .map(|b| power_manage(cdfg, &PowerManagementOptions::with_latency(b)))
                .collect::<Result<Vec<_>, _>>()
                .expect("feasible")
        });
        if name != "cordic" {
            let (reference_us, reference) = time_best(reps.reference, || {
                budgets()
                    .map(|b| naive::power_manage(cdfg, &PowerManagementOptions::with_latency(b)))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("feasible")
            });
            for (f, s) in managed.iter().zip(&reference) {
                let at = f.latency();
                assert_eq!(f.schedule(), s.schedule(), "schedules diverged on {name}@{at}");
                assert_eq!(f.managed_muxes().len(), s.managed_muxes().len(), "{name}@{at}");
                for (fm, sm) in f.managed_muxes().iter().zip(s.managed_muxes()) {
                    assert_eq!(
                        (fm.mux, fm.accepted, &fm.shutdown_false, &fm.shutdown_true),
                        (sm.mux, sm.accepted, &sm.shutdown_false, &sm.shutdown_true),
                        "decisions diverged on {name}@{at}"
                    );
                }
                assert_eq!(
                    f.savings().reduction_percent,
                    s.savings().reduction_percent,
                    "savings diverged on {name}@{at}"
                );
            }
            rows.push(Row::new("power_manage", case, "walk", Some(reference_us), fast_us));
        }

        let activations: Vec<Activation> = managed.iter().map(|r| r.activation(&probs)).collect();
        let (fast_us, fast) = time_best(reps.fast, || {
            managed
                .iter()
                .zip(&activations)
                .map(|(r, a)| {
                    let weight = node_weight(r, a, &weights);
                    let mut ws = dvs::Workspace::new();
                    dvs::distribute_slack(r.cdfg(), r.latency(), &levels, &weight, &mut ws)
                        .expect("feasible")
                })
                .collect::<Vec<_>>()
        });
        let (reference_us, reference) = time_best(reps.reference, || {
            managed
                .iter()
                .zip(&activations)
                .map(|(r, a)| {
                    let weight = node_weight(r, a, &weights);
                    dvs::naive_distribute_slack(r.cdfg(), r.latency(), &levels, &weight)
                        .expect("feasible")
                })
                .collect::<Vec<_>>()
        });
        for (f, s) in fast.iter().zip(&reference) {
            assert_eq!(f.levels(), s.levels(), "dvs levels diverged on {name}");
            assert_eq!(f.energy().to_bits(), s.energy().to_bits(), "dvs energy on {name}");
        }
        if cdfg.node_count() <= EXACT_DVS_NODES {
            for ((r, a), greedy) in managed.iter().zip(&activations).zip(&fast) {
                let weight = node_weight(r, a, &weights);
                let exact = dvs::exact_min_energy(r.cdfg(), r.latency(), &levels, &weight)
                    .expect("feasible");
                let tolerance = 1e-9 * exact.energy().abs().max(1.0);
                assert!(
                    greedy.energy() >= exact.energy() - tolerance,
                    "greedy beat the exact reference on {name}@{}",
                    r.latency()
                );
                if exact.energy() > 0.0 {
                    let gap = (greedy.energy() - exact.energy()) / exact.energy() * 100.0;
                    max_gap = max_gap.max(gap);
                }
            }
        }
        rows.push(Row::new("dvs", case, "walk", Some(reference_us), fast_us));
    }

    for case in analyses {
        let Case { name, cdfg, .. } = case;
        let muxes = cdfg.mux_nodes();
        let (all_us, cones) = time_best(reps.fast, || MuxCones::analyze_all(cdfg));
        let reference_us = (cdfg.node_count() <= NAIVE_ANALYSIS_NODES).then(|| {
            let sample = &muxes[..muxes.len().min(3)];
            let (reference_us, reference) = time_best(reps.reference, || {
                sample.iter().map(|&m| naive::analyze(cdfg, m)).collect::<Vec<_>>()
            });
            assert_eq!(cones[..sample.len()], reference[..], "mux analysis diverged on {name}");
            reference_us / sample.len().max(1) as f64
        });
        let fast_us = all_us / muxes.len().max(1) as f64;
        rows.push(Row::new("mux_analysis", case, "mux", reference_us, fast_us));
    }
    (rows, max_gap)
}

/// The whole `BENCH_kernels.json` document.
fn render(quick: bool, reps: Reps, rows: &[Row], max_gap: f64) -> String {
    let mut json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \
         \"reps\": {{\"fast\": {}, \"reference\": {}}},\n  \"rows\": [\n",
        if quick { "quick" } else { "full" },
        reps.fast,
        reps.reference,
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(json, "    {}{sep}", row.render()).expect("string write");
    }
    write!(json, "  ],\n  \"max_exact_gap_percent\": {max_gap:.4}\n}}\n").expect("string write");
    json
}

fn main() {
    let mut quick = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument `{other}` (expected --quick / --out PATH)");
                exit(2);
            }
        }
    }

    let reps = if quick { Reps { fast: 3, reference: 1 } } else { Reps { fast: 10, reference: 3 } };
    let (rows, max_gap) = measure(&walk_cases(), &analysis_cases(quick), reps);
    let json = render(quick, reps, &rows, max_gap);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            eprintln!("wrote {path}: {} rows, max exact DVS gap {max_gap:.4}%", rows.len());
        }
        None => print!("{json}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest walk case and the smallest analysis case, one
    /// repetition each: every kernel yields one guarded row, and a row
    /// without a reference renders both reference columns as `null`.
    #[test]
    fn smallest_cases_give_one_guarded_row_per_kernel() {
        let walks = walk_cases();
        let analyses = analysis_cases(true);
        let one = Reps { fast: 1, reference: 1 };
        let (rows, max_gap) = measure(&walks[..1], &analyses[..1], one);
        let kernels: Vec<&str> = rows.iter().map(|r| r.kernel).collect();
        assert_eq!(kernels, ["force", "power_manage", "dvs", "mux_analysis"]);
        assert!(rows.iter().all(|r| r.reference_us.is_some()), "every small case has a reference");

        let line = Row::new("mux_analysis", &analyses[0], "mux", None, 1.0).render();
        assert!(
            line.contains("\"reference_us\": null, \"fast_us\": 1.0, \"speedup\": null"),
            "{line}"
        );
        let document = render(true, one, &rows, max_gap);
        assert_eq!(document.matches("\"kernel\"").count(), 4, "{document}");
    }
}
