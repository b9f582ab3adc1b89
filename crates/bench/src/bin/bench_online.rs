//! Emits `BENCH_online.json`: latency and economy of the online
//! incremental schedule repair.
//!
//! Drives a pure budget-step event stream (no churn, no rescale — the
//! cadence a DVS power manager actually produces) through an
//! [`engine::online::SessionState`] and measures:
//!
//! * **events_per_sec** — sustained apply throughput over the stream,
//! * **repair p50/p99 us** — per-event repair latency distribution,
//! * **median/mean touched ratio** — per-event `nodes_touched` against a
//!   from-scratch full recompute of the same event (measured in a
//!   separate, untimed verification pass),
//! * **identity** — every repaired schedule byte-compared against a cold
//!   `sched::force::schedule` at the final parameters.
//!
//! The binary *asserts* the identity and the headline economy claim
//! (median touched ratio < 0.3 on budget-step streams) before emitting
//! numbers — a fast kernel that drifted would make them meaningless.
//! `--quick` replays fewer events (see the crate docs for the command
//! line).

use std::time::Instant;

use bench::Args;
use engine::online::{run_stream_verified, SessionState};
use gen::StreamSpec;

fn stream_spec(quick: bool) -> StreamSpec {
    let events = if quick { 300 } else { 2000 };
    StreamSpec::parse(&format!(
        "family=random-dag,seed=11,count=4;events={events},eseed=4,churn=0,rescale=0"
    ))
    .expect("bench stream spec parses")
}

fn main() {
    let args = Args::parse();
    let spec = stream_spec(args.quick);

    // Timed pass: repair only, no verification overhead in the loop.
    let (batch, events) = gen::stream(&spec).expect("bench stream generates");
    let mut state = SessionState::new(batch);
    let mut latencies = Vec::with_capacity(events.len());
    let sustained = Instant::now();
    for (index, event) in events.iter().enumerate() {
        let start = Instant::now();
        let record = state.apply(index, event);
        latencies.push(start.elapsed().as_secs_f64());
        assert!(record.outcome.is_ok(), "budget walk stays feasible: {record:?}");
    }
    let total_s = sustained.elapsed().as_secs_f64();
    let events_per_sec = events.len() as f64 / total_s;

    latencies.sort_by(f64::total_cmp);
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];

    // Verification pass (untimed): identity + touched-nodes economy.
    let verified = run_stream_verified(&spec).expect("verification pass runs");
    assert!(
        verified.cold_identical,
        "{} repaired schedules diverged from cold recomputes",
        verified.mismatches
    );
    assert!(
        verified.median_touched_ratio < 0.3,
        "median touched-nodes ratio {} breaks the < 0.3 economy claim",
        verified.median_touched_ratio
    );
    let summary = verified.report.summary;

    let json = format!(
        "{{\n  \"bench\": \"online\",\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \
         \"stream\": \"{}\",\n  \"events\": {},\n  \"events_per_sec\": {:.0},\n  \
         \"repair_p50_us\": {:.2},\n  \"repair_p99_us\": {:.2},\n  \
         \"median_touched_ratio\": {:.4},\n  \"mean_touched_ratio\": {:.4},\n  \
         \"zero_work_events\": {},\n  \"full_recomputes\": {},\n  \
         \"nodes_touched\": {},\n  \"identity\": true\n}}\n",
        if args.quick { "quick" } else { "full" },
        spec.spec_string(),
        events.len(),
        events_per_sec,
        p50 * 1e6,
        p99 * 1e6,
        verified.median_touched_ratio,
        verified.mean_touched_ratio,
        summary.zero_work_events,
        summary.full_recomputes,
        summary.nodes_touched,
    );

    args.emit(
        &json,
        &format!(
            "{events_per_sec:.0} events/s, repair p50 {:.2} us, median touched ratio {:.4}",
            p50 * 1e6,
            verified.median_touched_ratio
        ),
    );
}
