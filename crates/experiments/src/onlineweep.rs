//! The `onlineweep` study: online incremental repair vs. an offline
//! power manager, across every generated circuit family.
//!
//! One event stream per [`gen::Family`] runs through the verified online
//! session ([`engine::online::run_stream_verified`]): every repaired
//! schedule is byte-compared against a cold recompute at the final
//! parameters, and every repair's touched-node count is set against a
//! full recompute's.  The study then reports, per family:
//!
//! * the **savings gap** — how much energy the online manager (which
//!   repairs its schedule at every budget/scaling change) saves over an
//!   offline one that keeps each circuit's arrival schedule frozen,
//! * the **repair economy** — zero-work events (schedule-memo hits),
//!   full recomputes (first sights and every budget not yet in the
//!   memo), and the median touched-nodes ratio,
//! * the **identity verdict** — whether a single repaired schedule
//!   diverged from cold bytes (the contract says never).
//!
//! The four family streams are independent, so they run on the engine's
//! deterministic thread pool; results are byte-identical at any thread
//! count.

use std::fmt::Write as _;

use engine::online::{run_stream_verified, VerifiedOutcome};
use engine::pool::parallel_map;
use engine::report::json_number;
use gen::{Family, StreamSpec};

use crate::ExperimentError;

/// One family stream's results.
#[derive(Debug, Clone)]
pub struct OnlineweepRow {
    /// The circuit family the stream draws from.
    pub family: Family,
    /// The lossless stream spec.
    pub spec: String,
    /// Events in the stream.
    pub events: usize,
    /// Events whose outcome was an error (expected 0 — the generator
    /// never walks a budget below the critical path).
    pub errors: usize,
    /// Aggregate online-vs-offline savings gap in percent.
    pub savings_gap: f64,
    /// Events that forced the offline baseline to recompute.
    pub offline_recomputes: usize,
    /// Repairs served without touching a node (memo hits, scaling-only
    /// and retire events).
    pub zero_work_events: usize,
    /// Repairs that ran a full recompute.
    pub full_recomputes: usize,
    /// Median per-event `nodes_touched / full recompute nodes_touched`.
    pub median_touched_ratio: f64,
    /// Whether every repaired schedule matched cold bytes.
    pub cold_identical: bool,
    /// Events whose schedule diverged from cold (0 when identical).
    pub mismatches: usize,
}

/// The whole study's results, one row per family.
#[derive(Debug, Clone)]
pub struct OnlineweepOutcome {
    /// Per-family rows, in [`Family::ALL`] order.
    pub rows: Vec<OnlineweepRow>,
}

impl OnlineweepOutcome {
    /// Whether every stream kept the bit-identity contract.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|row| row.cold_identical)
    }
}

/// The study's stream spec for one family (`small` selects the CI smoke
/// sizes).  Churn and rescale are enabled so all four event kinds occur;
/// the budget walk still dominates, as it would under a real power
/// manager.
fn family_spec(family: Family, small: bool) -> Result<StreamSpec, ExperimentError> {
    let (count, events) = if small { (2, 40) } else { (4, 400) };
    let text = format!(
        "family={},seed=17,count={count};events={events},eseed=29,churn=120,rescale=150",
        family.name()
    );
    StreamSpec::parse(&text).map_err(|e| ExperimentError {
        context: format!("onlineweep {family} stream"),
        message: e.to_string(),
    })
}

/// Runs the study (see the module docs).  `small` selects the CI smoke
/// sizes; `threads` sizes the pool the four family streams run on
/// (0 = all cores).
///
/// # Errors
///
/// Propagates stream-spec failures; identity *mismatches* are reported in
/// the outcome, not as errors.
pub fn run_onlineweep(small: bool, threads: usize) -> Result<OnlineweepOutcome, ExperimentError> {
    let specs = Family::ALL
        .into_iter()
        .map(|family| family_spec(family, small))
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes = parallel_map(specs, threads, &|spec: StreamSpec| {
        run_stream_verified(&spec).map(|v| (spec.spec_string(), v))
    });

    let mut rows = Vec::with_capacity(outcomes.len());
    for (family, outcome) in Family::ALL.into_iter().zip(outcomes) {
        let (spec, verified): (String, VerifiedOutcome) = outcome.map_err(|e| ExperimentError {
            context: format!("onlineweep {family} stream"),
            message: e.to_string(),
        })?;
        let summary = verified.report.summary;
        rows.push(OnlineweepRow {
            family,
            spec,
            events: summary.events,
            errors: summary.errors,
            savings_gap: summary.savings_gap,
            offline_recomputes: summary.offline_recomputes,
            zero_work_events: summary.zero_work_events,
            full_recomputes: summary.full_recomputes,
            median_touched_ratio: verified.median_touched_ratio,
            cold_identical: verified.cold_identical,
            mismatches: verified.mismatches,
        });
    }
    Ok(OnlineweepOutcome { rows })
}

/// Renders the study as the usual fixed-width table.
pub fn render(outcome: &OnlineweepOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:>6} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9}  identity",
        "family", "events", "errors", "gap %", "zero-work", "full-rec", "ratio", "off-rec"
    );
    for row in &outcome.rows {
        let _ = writeln!(
            out,
            "{:<11} {:>6} {:>6} {:>9.2} {:>9} {:>9} {:>8.3} {:>9}  {}",
            row.family.name(),
            row.events,
            row.errors,
            row.savings_gap,
            row.zero_work_events,
            row.full_recomputes,
            row.median_touched_ratio,
            row.offline_recomputes,
            if row.cold_identical {
                "bit-identical".to_owned()
            } else {
                format!("MISMATCH ({})", row.mismatches)
            }
        );
    }
    out
}

/// Renders the study as JSON (stable key order, one row per line).
pub fn to_json(outcome: &OnlineweepOutcome) -> String {
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, row) in outcome.rows.iter().enumerate() {
        let comma = if i + 1 == outcome.rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"events\": {}, \"errors\": {}, \"savings_gap\": {}, \
             \"zero_work_events\": {}, \"full_recomputes\": {}, \"median_touched_ratio\": {}, \
             \"offline_recomputes\": {}, \"cold_identical\": {}, \"mismatches\": {}}}{comma}",
            row.family.name(),
            row.events,
            row.errors,
            json_number(row.savings_gap),
            row.zero_work_events,
            row.full_recomputes,
            json_number(row.median_touched_ratio),
            row.offline_recomputes,
            row.cold_identical,
            row.mismatches,
        );
    }
    let _ = writeln!(out, "  ],\n  \"all_identical\": {}\n}}", outcome.all_identical());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_is_identical_and_mostly_zero_work() {
        let outcome = run_onlineweep(true, 2).unwrap();
        assert_eq!(outcome.rows.len(), Family::ALL.len());
        assert!(outcome.all_identical(), "{outcome:?}");
        for row in &outcome.rows {
            assert_eq!(row.errors, 0, "{row:?}");
            assert!(row.zero_work_events > 0, "{row:?}");
        }
        let text = render(&outcome);
        assert!(text.contains("bit-identical"));
        assert!(!text.contains("MISMATCH"));
        assert!(to_json(&outcome).contains("\"all_identical\": true"));
    }

    #[test]
    fn thread_counts_do_not_change_the_rendered_bytes() {
        let solo = run_onlineweep(true, 1).unwrap();
        let wide = run_onlineweep(true, 4).unwrap();
        assert_eq!(to_json(&solo), to_json(&wide));
        assert_eq!(render(&solo), render(&wide));
    }
}
