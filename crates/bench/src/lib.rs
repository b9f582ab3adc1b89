//! Emitters of the committed `BENCH_*.json` measurements.
//!
//! Each binary under `src/bin/` regenerates one file at the repository
//! root, and refuses to emit numbers unless the paths it times produce
//! identical results:
//!
//! * `bench_core` — `BENCH_core.json`: mux-analysis budget walks against
//!   the naive reference, and analysis scaling,
//! * `bench_sched` — `BENCH_sched.json`: the force-directed kernel against
//!   the naive reference,
//! * `bench_dvs` — `BENCH_dvs.json`: the slack-distribution kernel and the
//!   per-op-voltage explorer,
//! * `bench_service` — `BENCH_service.json`: `sweepd` job latency and
//!   throughput,
//! * `bench_online` — `BENCH_online.json`: online repair latency and
//!   economy.
//!
//! ```text
//! cargo run --release -p bench --bin bench_<name> [-- --quick] [--out PATH]
//! ```
//!
//! * `--quick` — fewer repetitions and smaller inputs (CI smoke mode),
//! * `--out PATH` — write the JSON to a file instead of stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::exit;
use std::time::Instant;

/// The command line every emitter takes: `[--quick] [--out PATH]`.
#[derive(Debug)]
pub struct Args {
    /// Fewer repetitions and smaller inputs (CI smoke mode).
    pub quick: bool,
    out: Option<String>,
}

impl Args {
    /// Parses the process arguments; anything else exits with status 2.
    pub fn parse() -> Self {
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
        Args { quick, out }
    }

    /// Writes `json` to the `--out` path, reporting `summary` on stderr, or
    /// prints it to stdout when no path was given.  A failed write exits
    /// with status 1.
    pub fn emit(&self, json: &str, summary: &str) {
        match &self.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    exit(1);
                }
                eprintln!("wrote {path}: {summary}");
            }
            None => print!("{json}"),
        }
    }
}

/// Best-of-`reps` wall time of `f`, in seconds.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}
