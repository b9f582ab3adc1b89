//! Typed sweep results: per-scenario records, per-circuit aggregates, a
//! Pareto front over latency vs. predicted power reduction, and
//! machine-readable emitters.
//!
//! Everything in a [`SweepReport`] is a pure function of the plan, so the
//! JSON and CSV renderings are byte-identical across thread counts and
//! across cold vs. cached runs (cache counters deliberately live on the
//! engine, not in the report).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::scenario::Scenario;

/// Gate-level (Table III style) metrics for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GateMetrics {
    /// Gate-equivalent area of the traditionally scheduled design.
    pub original_area: f64,
    /// Gate-equivalent area of the power-managed design.
    pub managed_area: f64,
    /// `managed_area / original_area`.
    pub area_ratio: f64,
    /// Simulated energy of the traditional design (arbitrary units).
    pub original_power: f64,
    /// Simulated energy of the power-managed design.
    pub managed_power: f64,
    /// Power reduction in percent at gate level.
    pub power_reduction: f64,
    /// Number of random samples simulated.
    pub samples: usize,
}

/// Everything the pipeline reports for one successfully executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Control steps one sample actually had (`latency × pipeline_depth`).
    pub effective_latency: u32,
    /// Control steps the final schedule uses.
    pub schedule_steps: u32,
    /// Multiplexors that gate at least one operation in the final schedule
    /// (the "P.Man. Muxs" column of Table II).
    pub pm_muxes: usize,
    /// Multiplexors accepted by the selection loop.
    pub accepted_muxes: usize,
    /// Control edges inserted across all accepted multiplexors.
    pub control_edges: usize,
    /// Execution-unit area ratio vs. the traditional schedule.
    pub area_increase: f64,
    /// Expected executions per class under the scenario's branch model, in
    /// the paper's column order: MUX, COMP, +, −, ×.
    pub expected: [f64; 5],
    /// Datapath power reduction in percent under the scenario's branch
    /// model.
    pub power_reduction: f64,
    /// Estimated extra pipeline registers (0 without pipelining).
    pub extra_registers: usize,
    /// Gate-level metrics, when the plan requested them.
    pub gate: Option<GateMetrics>,
}

/// The outcome of one scenario: metrics, or the error that stopped it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The scenario that was executed.
    pub scenario: Scenario,
    /// Metrics on success, a human-readable error otherwise (e.g. a latency
    /// bound below the circuit's critical path).
    pub outcome: Result<ScenarioMetrics, String>,
}

impl SweepRecord {
    /// The metrics, if the scenario succeeded.
    pub fn metrics(&self) -> Option<&ScenarioMetrics> {
        self.outcome.as_ref().ok()
    }

    /// The error message, if the scenario failed.
    pub fn error(&self) -> Option<&str> {
        self.outcome.as_ref().err().map(String::as_str)
    }
}

/// Aggregate savings statistics for one circuit across all its scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSummary {
    /// Circuit name.
    pub circuit: String,
    /// Scenarios executed for this circuit.
    pub scenarios: usize,
    /// Scenarios that failed.
    pub failures: usize,
    /// Smallest predicted power reduction among successful scenarios.
    pub min_reduction: f64,
    /// Median predicted power reduction.
    pub median_reduction: f64,
    /// Largest predicted power reduction.
    pub max_reduction: f64,
    /// The scenario achieving the largest reduction.
    pub best: Scenario,
}

/// One point of the per-circuit Pareto front over effective latency
/// (control steps a sample may take) vs. predicted power reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Circuit name.
    pub circuit: String,
    /// Effective latency of the scenario.
    pub effective_latency: u32,
    /// Predicted datapath power reduction in percent.
    pub power_reduction: f64,
    /// The scenario behind the point.
    pub scenario: Scenario,
}

/// The complete result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One record per scenario, in plan (canonical) order.
    pub records: Vec<SweepRecord>,
    /// Per-circuit aggregates, sorted by circuit name.
    pub summaries: Vec<CircuitSummary>,
    /// Per-circuit Pareto fronts, concatenated in circuit order and sorted
    /// by effective latency within a circuit.
    pub pareto: Vec<ParetoPoint>,
}

impl SweepReport {
    /// Builds the report (aggregates + Pareto fronts) from per-scenario
    /// records in plan order.
    pub fn from_records(records: Vec<SweepRecord>) -> Self {
        let mut by_circuit: BTreeMap<&str, Vec<&SweepRecord>> = BTreeMap::new();
        for record in &records {
            by_circuit.entry(record.scenario.circuit.as_str()).or_default().push(record);
        }

        let mut summaries = Vec::new();
        let mut pareto = Vec::new();
        for (circuit, group) in &by_circuit {
            let successes: Vec<(&Scenario, &ScenarioMetrics)> =
                group.iter().filter_map(|r| r.metrics().map(|m| (&r.scenario, m))).collect();
            if let Some(summary) = summarize(circuit, group.len(), &successes) {
                summaries.push(summary);
            }
            pareto.extend(pareto_front(circuit, &successes));
        }
        SweepReport { records, summaries, pareto }
    }

    /// Iterates over the successful scenarios with their metrics, in plan
    /// order.
    pub fn successes(&self) -> impl Iterator<Item = (&Scenario, &ScenarioMetrics)> {
        self.records.iter().filter_map(|r| r.metrics().map(|m| (&r.scenario, m)))
    }

    /// The record for an exact scenario, if the plan contained it.
    pub fn record_for(&self, scenario: &Scenario) -> Option<&SweepRecord> {
        self.records.iter().find(|r| &r.scenario == scenario)
    }

    /// Number of failed scenarios.
    pub fn failure_count(&self) -> usize {
        self.records.iter().filter(|r| r.error().is_some()).count()
    }

    /// Renders the report as JSON (hand-rolled; the workspace vendors no
    /// serialisation crates).  Key order and float formatting are stable,
    /// so equal reports produce byte-identical JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"records\": [");
        for (i, record) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&record_json(record));
        }
        out.push_str("\n  ],\n  \"summaries\": [");
        for (i, summary) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"circuit\": {}, \"scenarios\": {}, \"failures\": {}, \
                 \"min_reduction\": {}, \"median_reduction\": {}, \"max_reduction\": {}, \
                 \"best\": {}}}",
                json_string(&summary.circuit),
                summary.scenarios,
                summary.failures,
                json_number(summary.min_reduction),
                json_number(summary.median_reduction),
                json_number(summary.max_reduction),
                scenario_json(&summary.best),
            );
        }
        out.push_str("\n  ],\n  \"pareto\": [");
        for (i, point) in self.pareto.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"circuit\": {}, \"effective_latency\": {}, \"power_reduction\": {}, \
                 \"scenario\": {}}}",
                json_string(&point.circuit),
                point.effective_latency,
                json_number(point.power_reduction),
                scenario_json(&point.scenario),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the per-scenario records as CSV (header + one line per
    /// scenario, in plan order).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "circuit,latency,scheduler,pipeline_depth,reorder,branch_model,\
             effective_latency,schedule_steps,pm_muxes,accepted_muxes,control_edges,\
             area_increase,expected_mux,expected_comp,expected_add,expected_sub,expected_mul,\
             power_reduction,extra_registers,gate_area_ratio,gate_power_reduction,error\n",
        );
        for record in &self.records {
            let s = &record.scenario;
            let _ = write!(
                out,
                "{},{},{},{},{},{}",
                csv_field(&s.circuit),
                s.latency,
                s.scheduler,
                s.pipeline_depth,
                s.reorder,
                s.branch_model
            );
            match &record.outcome {
                Ok(m) => {
                    let _ = write!(
                        out,
                        ",{},{},{},{},{},{},{},{},{},{},{},{},{}",
                        m.effective_latency,
                        m.schedule_steps,
                        m.pm_muxes,
                        m.accepted_muxes,
                        m.control_edges,
                        json_number(m.area_increase),
                        json_number(m.expected[0]),
                        json_number(m.expected[1]),
                        json_number(m.expected[2]),
                        json_number(m.expected[3]),
                        json_number(m.expected[4]),
                        json_number(m.power_reduction),
                        m.extra_registers,
                    );
                    match &m.gate {
                        Some(g) => {
                            let _ = write!(
                                out,
                                ",{},{},",
                                json_number(g.area_ratio),
                                json_number(g.power_reduction)
                            );
                        }
                        None => out.push_str(",,,"),
                    }
                }
                Err(e) => {
                    out.push_str(&",".repeat(15));
                    out.push(',');
                    out.push_str(&csv_field(e));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a human-readable summary: per-scenario table, per-circuit
    /// aggregates and the Pareto fronts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>3} {:<5} {:>3} {:>7} {:<6} | {:>4} {:>5} {:>6} {:>8} {:>5}",
            "Circuit",
            "Stp",
            "Sched",
            "Pipe",
            "Reorder",
            "Branch",
            "Eff",
            "Muxs",
            "Area",
            "Red.(%)",
            "Regs"
        );
        for record in &self.records {
            let s = &record.scenario;
            let _ = write!(
                out,
                "{:<8} {:>3} {:<5} {:>4} {:>7} {:<6} |",
                s.circuit,
                s.latency,
                s.scheduler.label(),
                s.pipeline_depth,
                s.reorder,
                s.branch_model.label()
            );
            match &record.outcome {
                Ok(m) => {
                    let _ = writeln!(
                        out,
                        " {:>4} {:>5} {:>6.2} {:>8.2} {:>5}",
                        m.effective_latency,
                        m.pm_muxes,
                        m.area_increase,
                        m.power_reduction,
                        m.extra_registers
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, " error: {e}");
                }
            }
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>5} {:>8} {:>8} {:>8}  best",
            "Circuit", "Runs", "Fail", "Min(%)", "Med(%)", "Max(%)"
        );
        for summary in &self.summaries {
            let _ = writeln!(
                out,
                "{:<8} {:>5} {:>5} {:>8.2} {:>8.2} {:>8.2}  {}",
                summary.circuit,
                summary.scenarios,
                summary.failures,
                summary.min_reduction,
                summary.median_reduction,
                summary.max_reduction,
                summary.best
            );
        }
        out.push('\n');
        out.push_str("Pareto front (effective latency vs. power reduction):\n");
        for point in &self.pareto {
            let _ = writeln!(
                out,
                "{:<8} {:>4} steps {:>8.2}%  [{}]",
                point.circuit, point.effective_latency, point.power_reduction, point.scenario
            );
        }
        out
    }
}

fn summarize(
    circuit: &str,
    total: usize,
    successes: &[(&Scenario, &ScenarioMetrics)],
) -> Option<CircuitSummary> {
    let mut reductions: Vec<f64> = successes.iter().map(|(_, m)| m.power_reduction).collect();
    if reductions.is_empty() {
        return None;
    }
    reductions.sort_by(f64::total_cmp);
    let median = if reductions.len() % 2 == 1 {
        reductions[reductions.len() / 2]
    } else {
        let hi = reductions.len() / 2;
        (reductions[hi - 1] + reductions[hi]) / 2.0
    };
    let best = successes
        .iter()
        .max_by(|a, b| a.1.power_reduction.total_cmp(&b.1.power_reduction))
        .expect("non-empty successes");
    Some(CircuitSummary {
        circuit: circuit.to_owned(),
        scenarios: total,
        failures: total - successes.len(),
        min_reduction: reductions[0],
        median_reduction: median,
        max_reduction: *reductions.last().expect("non-empty"),
        best: best.0.clone(),
    })
}

/// True when the objective vector `a` dominates `b`: no worse on every
/// minimised objective and strictly better on at least one.
///
/// Objectives compare with [`f64::total_cmp`], like every other place the
/// reports order floats: plain `<`/`==` would make a NaN incomparable to
/// everything — never dominated, never a tie — so it would quietly
/// pollute a front.  A maximised objective enters negated, which is exact:
/// negation reverses `total_cmp` for every bit pattern, ±0 and NaN of
/// either sign included.
pub(crate) fn dominates<const N: usize>(a: [f64; N], b: [f64; N]) -> bool {
    a.iter().zip(&b).all(|(x, y)| x.total_cmp(y).is_le())
        && a.iter().zip(&b).any(|(x, y)| x.total_cmp(y).is_lt())
}

/// Extracts the Pareto-optimal points over (effective latency ↓, power
/// reduction ↑), per [`dominates`].  Exact ties keep only the first point
/// in plan order.
fn pareto_front(circuit: &str, successes: &[(&Scenario, &ScenarioMetrics)]) -> Vec<ParetoPoint> {
    let objectives = |m: &ScenarioMetrics| [f64::from(m.effective_latency), -m.power_reduction];
    let mut front = Vec::new();
    for (i, (scenario, metrics)) in successes.iter().enumerate() {
        let point = objectives(metrics);
        let dominated = successes.iter().enumerate().any(|(j, (_, other))| {
            let other = objectives(other);
            dominates(other, point) || (j < i && other.map(f64::to_bits) == point.map(f64::to_bits))
        });
        if !dominated {
            front.push(ParetoPoint {
                circuit: circuit.to_owned(),
                effective_latency: metrics.effective_latency,
                power_reduction: metrics.power_reduction,
                scenario: (*scenario).clone(),
            });
        }
    }
    front.sort_by(|a, b| {
        a.effective_latency
            .cmp(&b.effective_latency)
            .then(a.power_reduction.total_cmp(&b.power_reduction))
    });
    front
}

/// The single-line JSON object for one record inside
/// [`SweepReport::to_json`]'s `records` array.
fn record_json(record: &SweepRecord) -> String {
    let mut out = format!("{{\"scenario\": {}", scenario_json(&record.scenario));
    match &record.outcome {
        Ok(m) => {
            let _ = write!(
                out,
                ", \"ok\": true, \"effective_latency\": {}, \"schedule_steps\": {}, \
                 \"pm_muxes\": {}, \"accepted_muxes\": {}, \"control_edges\": {}, \
                 \"area_increase\": {}, \"expected\": [{}, {}, {}, {}, {}], \
                 \"power_reduction\": {}, \"extra_registers\": {}",
                m.effective_latency,
                m.schedule_steps,
                m.pm_muxes,
                m.accepted_muxes,
                m.control_edges,
                json_number(m.area_increase),
                json_number(m.expected[0]),
                json_number(m.expected[1]),
                json_number(m.expected[2]),
                json_number(m.expected[3]),
                json_number(m.expected[4]),
                json_number(m.power_reduction),
                m.extra_registers,
            );
            if let Some(g) = &m.gate {
                let _ = write!(
                    out,
                    ", \"gate\": {{\"original_area\": {}, \"managed_area\": {}, \
                     \"area_ratio\": {}, \"original_power\": {}, \"managed_power\": {}, \
                     \"power_reduction\": {}, \"samples\": {}}}",
                    json_number(g.original_area),
                    json_number(g.managed_area),
                    json_number(g.area_ratio),
                    json_number(g.original_power),
                    json_number(g.managed_power),
                    json_number(g.power_reduction),
                    g.samples,
                );
            }
        }
        Err(e) => {
            let _ = write!(out, ", \"ok\": false, \"error\": {}", json_string(e));
        }
    }
    out.push('}');
    out
}

fn scenario_json(scenario: &Scenario) -> String {
    format!(
        "{{\"circuit\": {}, \"latency\": {}, \"scheduler\": {}, \"pipeline_depth\": {}, \
         \"reorder\": {}, \"branch_model\": {}}}",
        json_string(&scenario.circuit),
        scenario.latency,
        json_string(scenario.scheduler.label()),
        scenario.pipeline_depth,
        scenario.reorder,
        json_string(&scenario.branch_model.label()),
    )
}

/// Escapes and quotes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted JSON string literal — the workspace's
/// one JSON string escaper, shared by the reports and the sweep service's
/// wire protocol.
///
/// Escaping is the minimal canonical set: `"`, `\` and the control
/// characters below U+0020 (`\n`, `\r`, `\t` by name, the rest as
/// `\u00xx`).  Everything else, multi-byte characters included, is copied
/// verbatim, a whole unescaped run per `push_str`.  Every byte that needs
/// escaping is ASCII, so run boundaries always fall on character
/// boundaries.
pub fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let named = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(named);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats a float as a JSON number (shortest round-trip form; non-finite
/// values become `null`, which JSON has no number for).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Escapes and quotes a string for CSV output when needed.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(effective_latency: u32, reduction: f64) -> ScenarioMetrics {
        ScenarioMetrics {
            effective_latency,
            schedule_steps: effective_latency,
            pm_muxes: 1,
            accepted_muxes: 1,
            control_edges: 2,
            area_increase: 1.0,
            expected: [1.0, 1.0, 0.0, 1.0, 0.0],
            power_reduction: reduction,
            extra_registers: 0,
            gate: None,
        }
    }

    fn record(circuit: &str, latency: u32, reduction: f64) -> SweepRecord {
        SweepRecord {
            scenario: Scenario::new(circuit, latency),
            outcome: Ok(metrics(latency, reduction)),
        }
    }

    #[test]
    fn summaries_compute_min_median_max() {
        let report = SweepReport::from_records(vec![
            record("a", 3, 10.0),
            record("a", 4, 30.0),
            record("a", 5, 20.0),
        ]);
        assert_eq!(report.summaries.len(), 1);
        let s = &report.summaries[0];
        assert_eq!(s.min_reduction, 10.0);
        assert_eq!(s.median_reduction, 20.0);
        assert_eq!(s.max_reduction, 30.0);
        assert_eq!(s.best.latency, 4);
        assert_eq!(s.failures, 0);
    }

    #[test]
    fn even_count_median_averages_the_middle_pair() {
        let report = SweepReport::from_records(vec![record("a", 3, 10.0), record("a", 4, 30.0)]);
        assert_eq!(report.summaries[0].median_reduction, 20.0);
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        // (3, 10), (4, 30), (5, 20): the last point is dominated (more
        // latency, less savings than (4, 30)).
        let report = SweepReport::from_records(vec![
            record("a", 3, 10.0),
            record("a", 4, 30.0),
            record("a", 5, 20.0),
        ]);
        let latencies: Vec<u32> = report.pareto.iter().map(|p| p.effective_latency).collect();
        assert_eq!(latencies, vec![3, 4]);
    }

    #[test]
    fn pareto_keeps_one_of_exact_ties() {
        let report = SweepReport::from_records(vec![record("a", 3, 10.0), record("a", 3, 10.0)]);
        assert_eq!(report.pareto.len(), 1);
    }

    #[test]
    fn pareto_ranks_non_finite_reductions_with_total_cmp() {
        // A NaN reduction used to be incomparable under `>` / `==`: never
        // dominated, never a tie, so it always leaked onto the front — and
        // two NaN points both did.  Under total_cmp NaN ranks above +inf,
        // deterministically: here it dominates the finite point at the same
        // latency, and the duplicate NaN is dropped as an exact tie.
        let report = SweepReport::from_records(vec![
            record("a", 3, f64::NAN),
            record("a", 3, 25.0),
            record("a", 4, f64::NAN),
        ]);
        assert_eq!(report.pareto.len(), 1);
        assert_eq!(report.pareto[0].effective_latency, 3);
        assert!(report.pareto[0].power_reduction.is_nan());
        // Byte-identical across re-emissions, NaN and all.
        assert_eq!(report.to_json(), report.to_json());
    }

    #[test]
    fn dominates_matches_the_two_objective_latency_reduction_rule() {
        // The sweep front's rule before domination was shared with the
        // explorer, kept here as the oracle: at no more latency, at least
        // the reduction, and strictly better on one of the two.
        let oracle = |(lat_a, red_a): (u32, f64), (lat_b, red_b): (u32, f64)| {
            let reduction = red_a.total_cmp(&red_b);
            let strictly_better = lat_a < lat_b || reduction.is_gt();
            let no_worse = lat_a <= lat_b && reduction.is_ge();
            no_worse && strictly_better
        };
        let reductions =
            [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, f64::INFINITY, f64::NAN, -f64::NAN];
        let points: Vec<(u32, f64)> =
            [3, 4].into_iter().flat_map(|lat| reductions.map(|red| (lat, red))).collect();
        for &a in &points {
            for &b in &points {
                let key = |(lat, red): (u32, f64)| [f64::from(lat), -red];
                assert_eq!(dominates(key(a), key(b)), oracle(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn even_and_odd_medians_and_ranking_are_total_cmp_ordered() {
        // Negative zero sorts below positive zero under total_cmp; the
        // even-length median averages the middle pair either way.
        let report = SweepReport::from_records(vec![
            record("a", 3, 0.0),
            record("a", 4, -0.0),
            record("a", 5, 10.0),
            record("a", 6, 20.0),
        ]);
        assert_eq!(report.summaries[0].median_reduction, 5.0);
        assert_eq!(report.summaries[0].min_reduction, -0.0);
        assert_eq!(report.summaries[0].max_reduction, 20.0);
        assert_eq!(report.summaries[0].best.latency, 6);
    }

    #[test]
    fn failures_are_counted_and_do_not_enter_aggregates() {
        let mut records = vec![record("a", 4, 25.0)];
        records.push(SweepRecord {
            scenario: Scenario::new("a", 1),
            outcome: Err("latency too small".to_owned()),
        });
        let report = SweepReport::from_records(records);
        assert_eq!(report.failure_count(), 1);
        assert_eq!(report.summaries[0].failures, 1);
        assert_eq!(report.summaries[0].scenarios, 2);
        assert_eq!(report.summaries[0].min_reduction, 25.0);
        assert_eq!(report.pareto.len(), 1);
    }

    #[test]
    fn json_is_stable_and_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}é\r🦀\u{1f}\u{7f}"), "\"\\u0001é\\r🦀\\u001f\u{7f}\"");
        let mut appended = String::from("x:");
        push_json_string(&mut appended, "\t");
        assert_eq!(appended, "x:\"\\t\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        let report = SweepReport::from_records(vec![record("a", 3, 12.5)]);
        let json = report.to_json();
        assert!(json.contains("\"power_reduction\": 12.5"));
        assert!(json.contains("\"pareto\""));
        assert_eq!(report.to_json(), json, "emission is deterministic");
    }

    #[test]
    fn csv_has_header_and_one_line_per_record() {
        let mut records = vec![record("a", 3, 12.5)];
        records.push(SweepRecord {
            scenario: Scenario::new("a", 1),
            outcome: Err("nope, too tight".to_owned()),
        });
        let report = SweepReport::from_records(records);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().next().unwrap().starts_with("circuit,latency,scheduler"));
        assert!(csv.contains("nope, too tight") || csv.contains("\"nope, too tight\""));
    }

    #[test]
    fn render_mentions_every_section() {
        let report = SweepReport::from_records(vec![record("a", 3, 12.5)]);
        let text = report.render();
        assert!(text.contains("Pareto front"));
        assert!(text.contains("Red.(%)"));
        assert!(text.contains("Med(%)"));
    }

    #[test]
    fn record_for_finds_exact_scenarios() {
        let report = SweepReport::from_records(vec![record("a", 3, 12.5)]);
        assert!(report.record_for(&Scenario::new("a", 3)).is_some());
        assert!(report.record_for(&Scenario::new("a", 4)).is_none());
    }
}
