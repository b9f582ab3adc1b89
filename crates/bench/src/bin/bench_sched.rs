//! Emits `BENCH_sched.json`: the scheduling-kernel speedup trajectory.
//!
//! Times the incremental force-directed kernel (`sched::force`) against the
//! retained naive reference (`sched::naive`) on the paper circuits and on
//! generated circuits of increasing size, and prints a JSON document with
//! per-case wall times and speedups plus the headline number — the speedup
//! on the largest generated random-dag case.  Future PRs append their own
//! measurement of the same cases to track the kernel's trajectory.
//! `--quick` takes fewer repetitions (see the crate docs for the command
//! line).
//!
//! Every case asserts schedule equality between the two kernels before
//! timing them.

use std::fmt::Write as _;

use bench::{time_best, Args};
use cdfg::Cdfg;
use gen::{Family, GenSpec};
use sched::{force, naive};

struct Case {
    name: String,
    kind: &'static str,
    cdfg: Cdfg,
    latency: u32,
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for bench in circuits::all_benchmarks() {
        let latency = *bench.control_steps.last().expect("budgets");
        cases.push(Case { name: bench.name.clone(), kind: "paper", cdfg: bench.cdfg, latency });
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
        let latency = *bench.control_steps.last().expect("budgets");
        cases.push(Case { name: bench.name, kind: "generated", cdfg: bench.cdfg, latency });
    }
    cases
}

fn main() {
    let args = Args::parse();
    let reps = if args.quick { 3 } else { 15 };

    let mut rows = String::new();
    let mut largest: Option<(String, f64)> = None;
    for case in cases() {
        let Case { name, kind, cdfg, latency } = case;
        let fast = force::schedule(&cdfg, latency).expect("feasible");
        let slow = naive::schedule(&cdfg, latency).expect("feasible");
        assert_eq!(fast, slow, "kernels diverged on {name}");

        let force_s = time_best(reps, || {
            let _ = force::schedule(&cdfg, latency).expect("feasible");
        });
        let naive_s = time_best(reps, || {
            let _ = naive::schedule(&cdfg, latency).expect("feasible");
        });
        let speedup = naive_s / force_s.max(1e-12);

        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\"name\": \"{name}\", \"kind\": \"{kind}\", \"nodes\": {}, \
             \"latency\": {latency}, \"naive_us\": {:.1}, \"force_us\": {:.1}, \
             \"speedup\": {:.2}}}",
            cdfg.node_count(),
            naive_s * 1e6,
            force_s * 1e6,
            speedup,
        )
        .expect("string write");
        // The headline case: every generated circuit is larger than the
        // previous one, so the last generated row is the largest family.
        if kind == "generated" {
            largest = Some((name, speedup));
        }
    }

    let (largest_name, largest_speedup) = largest.expect("generated cases exist");
    let json = format!(
        "{{\n  \"bench\": \"sched_kernel\",\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \
         \"reps\": {reps},\n  \"cases\": [\n{rows}\n  ],\n  \"largest_generated\": \
         {{\"name\": \"{largest_name}\", \"speedup\": {largest_speedup:.2}}}\n}}\n",
        if args.quick { "quick" } else { "full" },
    );

    args.emit(&json, &format!("largest generated case {largest_name} at {largest_speedup:.2}x"));
}
