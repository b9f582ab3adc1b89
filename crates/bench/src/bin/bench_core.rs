//! Emits `BENCH_core.json`: size-vs-time for the mux-analysis hot path.
//!
//! Two measurements per run:
//!
//! * **Budget walks** — the incremental selection loop (dense-bitset cones,
//!   one-pass reachability, `Timing::tighten` feasibility) against the
//!   retained `pmsched::naive` reference (per-mux `BTreeSet` analysis with a
//!   per-node dead-end scan, physical edge insertion and a full ASAP/ALAP
//!   recomputation per candidate), walking each circuit across a 9-budget
//!   latency range.  Before timing, every case asserts that both paths reach
//!   identical schedules and decisions, so a measured difference can never
//!   come from a behavioural divergence.
//! * **Analysis scaling** — `MuxCones::analyze_all` on generated circuits
//!   from ~500 to ~50k nodes.  The naive analysis is quadratic per mux, so
//!   it is sampled on a few multiplexors (and skipped entirely at the sizes
//!   where even one mux takes seconds); the bitset path is timed in full.
//!
//! `--quick` takes fewer repetitions and skips the two largest analysis
//! circuits (see the crate docs for the command line).

use std::fmt::Write as _;

use bench::{time_best, Args};
use cdfg::Cdfg;
use gen::{Family, GenSpec};
use pmsched::{naive, power_manage, ConeWorkspace, MuxCones, PowerManagementOptions};

struct WalkCase {
    name: String,
    kind: &'static str,
    cdfg: Cdfg,
    span: u32,
}

fn walk_cases() -> Vec<WalkCase> {
    let mut cases = Vec::new();
    for bench in circuits::all_benchmarks() {
        if bench.name == "cordic" {
            continue; // 48-step budgets would dominate the whole emitter
        }
        cases.push(WalkCase { name: bench.name.clone(), kind: "paper", cdfg: bench.cdfg, span: 8 });
    }
    let mut specs =
        vec![GenSpec::new(Family::MuxTree, 11, 1), GenSpec::new(Family::DspChain, 11, 1)];
    for (width, depth) in [(6, 8), (12, 16), (16, 24)] {
        let mut spec = GenSpec::new(Family::RandomDag, 11, 1);
        spec.width = width;
        spec.depth = depth;
        specs.push(spec);
    }
    for spec in specs {
        let bench = gen::generate_one(&spec, 0).expect("valid spec");
        cases.push(WalkCase { name: bench.name, kind: "generated", cdfg: bench.cdfg, span: 8 });
    }
    cases
}

/// Generated circuits for the analysis-scaling rows, smallest first.
fn analysis_cases(quick: bool) -> Vec<(String, Cdfg)> {
    let mut dims = vec![(16, 24), (24, 56), (32, 120)];
    if !quick {
        dims.push((48, 300));
        dims.push((64, 600));
    }
    dims.into_iter()
        .map(|(width, depth)| {
            let mut spec = GenSpec::new(Family::RandomDag, 11, 1);
            spec.width = width;
            spec.depth = depth;
            let bench = gen::generate_one(&spec, 0).expect("valid spec");
            (bench.name, bench.cdfg)
        })
        .collect()
}

/// Asserts that the incremental loop and the naive reference reach the same
/// decisions on `cdfg` at `budget` (everything except control-edge ids).
fn assert_identity(cdfg: &Cdfg, budget: u32, name: &str) {
    let options = PowerManagementOptions::with_latency(budget);
    let fast = power_manage(cdfg, &options).expect("feasible");
    let slow = naive::power_manage(cdfg, &options).expect("feasible");
    assert_eq!(fast.schedule(), slow.schedule(), "schedules diverged on {name}@{budget}");
    assert_eq!(fast.managed_muxes().len(), slow.managed_muxes().len(), "{name}@{budget}");
    for (f, s) in fast.managed_muxes().iter().zip(slow.managed_muxes()) {
        assert_eq!(
            (f.mux, f.accepted, &f.shutdown_false, &f.shutdown_true),
            (s.mux, s.accepted, &s.shutdown_false, &s.shutdown_true),
            "decisions diverged on {name}@{budget}"
        );
    }
    assert_eq!(
        fast.savings().reduction_percent,
        slow.savings().reduction_percent,
        "savings diverged on {name}@{budget}"
    );
}

fn main() {
    let args = Args::parse();
    let reps = if args.quick { 3 } else { 10 };

    // Budget walks: incremental loop vs the naive reference.
    let mut walk_rows = String::new();
    let mut headline: Option<(String, usize, f64)> = None;
    for case in walk_cases() {
        let WalkCase { name, kind, cdfg, span } = case;
        let cp = cdfg.critical_path_length();
        let budgets = cp..=cp + span;
        for budget in budgets.clone() {
            assert_identity(&cdfg, budget, &name);
        }

        let naive_s = time_best(reps, || {
            for budget in budgets.clone() {
                let options = PowerManagementOptions::with_latency(budget);
                let _ = naive::power_manage(&cdfg, &options).expect("feasible");
            }
        });
        // The fast configuration is the Pareto explorer's inner loop: one
        // plain `power_manage` call per budget.
        let fast_s = time_best(reps, || {
            for budget in budgets.clone() {
                let options = PowerManagementOptions::with_latency(budget);
                let _ = power_manage(&cdfg, &options).expect("feasible");
            }
        });
        let speedup = naive_s / fast_s.max(1e-12);

        if !walk_rows.is_empty() {
            walk_rows.push_str(",\n");
        }
        write!(
            walk_rows,
            "    {{\"name\": \"{name}\", \"kind\": \"{kind}\", \"nodes\": {}, \
             \"muxes\": {}, \"budgets\": {}, \"naive_us\": {:.1}, \"fast_us\": {:.1}, \
             \"speedup\": {:.2}}}",
            cdfg.node_count(),
            cdfg.mux_nodes().len(),
            span + 1,
            naive_s * 1e6,
            fast_s * 1e6,
            speedup,
        )
        .expect("string write");
        // Generated cases grow monotonically; the last one is the headline
        // 500+-node random DAG.
        if kind == "generated" {
            headline = Some((name, cdfg.node_count(), speedup));
        }
    }

    // Analysis scaling: analyze_all on growing circuits, naive sampled where
    // it is still tractable.
    let mut analysis_rows = String::new();
    for (name, cdfg) in analysis_cases(args.quick) {
        let muxes = cdfg.mux_nodes();
        let fast_all_s = time_best(reps, || {
            let _ = MuxCones::analyze_all(&cdfg);
        });
        let fast_per_mux_us = fast_all_s * 1e6 / muxes.len().max(1) as f64;

        // One naive mux costs O(nodes^2); past ~6k nodes a single call takes
        // seconds, so the reference is sampled only below that.
        let (naive_json, speedup_json) = if cdfg.node_count() <= 6_000 {
            let sample: Vec<_> = muxes.iter().copied().take(3).collect();
            let mut ws = ConeWorkspace::new();
            ws.prepare(&cdfg);
            for &m in &sample {
                assert_eq!(
                    MuxCones::analyze_with(&cdfg, m, &mut ws),
                    naive::analyze(&cdfg, m),
                    "analysis diverged on {name} mux {m}"
                );
            }
            let naive_s = time_best(reps.min(3), || {
                for &m in &sample {
                    let _ = naive::analyze(&cdfg, m);
                }
            });
            let naive_per_mux_us = naive_s * 1e6 / sample.len().max(1) as f64;
            (
                format!("{naive_per_mux_us:.1}"),
                format!("{:.1}", naive_per_mux_us / fast_per_mux_us.max(1e-9)),
            )
        } else {
            ("null".to_string(), "null".to_string())
        };

        if !analysis_rows.is_empty() {
            analysis_rows.push_str(",\n");
        }
        write!(
            analysis_rows,
            "    {{\"name\": \"{name}\", \"nodes\": {}, \"muxes\": {}, \
             \"analyze_all_ms\": {:.2}, \"fast_per_mux_us\": {fast_per_mux_us:.1}, \
             \"naive_per_mux_us\": {naive_json}, \"per_mux_speedup\": {speedup_json}}}",
            cdfg.node_count(),
            muxes.len(),
            fast_all_s * 1e3,
        )
        .expect("string write");
    }

    let (headline_name, headline_nodes, headline_speedup) =
        headline.expect("generated walk cases exist");
    let json = format!(
        "{{\n  \"bench\": \"core_analysis\",\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \
         \"reps\": {reps},\n  \"walks\": [\n{walk_rows}\n  ],\n  \"headline_walk\": \
         {{\"name\": \"{headline_name}\", \"nodes\": {headline_nodes}, \
         \"speedup\": {headline_speedup:.2}}},\n  \"analysis\": [\n{analysis_rows}\n  ]\n}}\n",
        if args.quick { "quick" } else { "full" },
    );

    args.emit(
        &json,
        &format!(
            "{headline_name} ({headline_nodes} nodes) walk at {headline_speedup:.2}x over the \
             naive reference"
        ),
    );
}
