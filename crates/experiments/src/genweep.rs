//! The `genweep` study: shutdown-savings distributions across *generated*
//! circuit families.
//!
//! Where [`crate::sweep`] maps the paper's four circuits, this module runs
//! the engine over synthetic workloads from `crates/gen` — thousands of
//! circuits per family when asked — and aggregates the predicted power
//! reduction per family: min/median/max, the best circuit, and the size of
//! the per-circuit Pareto fronts.  The distribution is the point: it shows
//! *where* the paper's technique keeps saving power (conditional-heavy
//! mux trees) and where it collapses (straight-line DSP chains with almost
//! nothing to shut down).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use engine::report::{json_number, json_string};
use engine::{CacheStats, Engine, SweepPlan, SweepReport};
use gen::{Family, GenSpec};

use crate::ExperimentError;

/// Savings distribution over every scenario of one generated family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyDistribution {
    /// The family the circuits were drawn from.
    pub family: Family,
    /// Number of distinct circuits.
    pub circuits: usize,
    /// Number of scenarios executed (circuits × budgets × schedulers).
    pub scenarios: usize,
    /// Scenarios that failed (kept out of the statistics).
    pub failures: usize,
    /// Smallest predicted power reduction (percent).
    pub min_reduction: f64,
    /// Median predicted power reduction.
    pub median_reduction: f64,
    /// Largest predicted power reduction.
    pub max_reduction: f64,
    /// Circuit achieving the largest reduction.
    pub best_circuit: String,
    /// Total Pareto-front points across the family's circuits.
    pub pareto_points: usize,
}

/// Everything a genweep run produces.
#[derive(Debug, Clone)]
pub struct GenweepOutcome {
    /// The raw engine report over every generated scenario.
    pub report: SweepReport,
    /// Per-family aggregates, in [`Family::ALL`] order.
    pub families: Vec<FamilyDistribution>,
    /// Engine cache counters (prefix computations vs. reuses).
    pub cache: CacheStats,
}

/// The default study: `count` circuits of *every* family from one seed.
///
/// The cordic batch is clamped to its number of structurally distinct
/// variants (`49 - iters`; 45 at the default base) — cordic circuits are
/// fully determined by their iteration count, so asking for more would
/// only duplicate samples.
pub fn default_specs(seed: u64, count: usize) -> Vec<GenSpec> {
    Family::ALL
        .into_iter()
        .map(|family| {
            let mut spec = GenSpec::new(family, seed, count);
            if family == Family::Cordic {
                spec.count = count.min(49 - spec.iters as usize);
            }
            spec
        })
        .collect()
}

/// Builds the engine (with every generated circuit registered) and the
/// deduplicated plan over [`service::plans::batch_scenarios`] — each
/// circuit at every one of its derived budgets, under both schedulers;
/// each spec's circuits are generated exactly once.
///
/// # Errors
///
/// Propagates generator knob violations and plan validation.
pub fn generated_setup(
    specs: &[GenSpec],
) -> Result<(Engine, SweepPlan, BTreeMap<String, Family>), ExperimentError> {
    let mut engine = Engine::new();
    let mut family_of = BTreeMap::new();
    let mut full_batch = Vec::new();
    for spec in specs {
        let batch = gen::generate(spec)?;
        for bench in &batch {
            family_of.insert(bench.name.clone(), spec.family);
        }
        full_batch.extend(batch);
    }
    let plan =
        SweepPlan::builder().scenarios(service::plans::batch_scenarios(&full_batch)).build()?;
    engine.register_benchmarks(full_batch);
    Ok((engine, plan, family_of))
}

/// Runs the full genweep study: sweep plus per-family distributions.
///
/// # Errors
///
/// Propagates [`generated_setup`] failures.
pub fn genweep(specs: &[GenSpec], threads: usize) -> Result<GenweepOutcome, ExperimentError> {
    let (engine, plan, family_of) = generated_setup(specs)?;
    let report = engine.run(&plan, threads);
    let families = family_distributions(&report, &family_of);
    Ok(GenweepOutcome { report, families, cache: engine.cache_stats() })
}

/// Aggregates a report into per-family distributions (families ordered as
/// in [`Family::ALL`]; families with no scenarios at all are omitted, but a
/// family whose scenarios *all failed* keeps its row — zeroed statistics,
/// `-` as the best circuit — so failures are never hidden).
pub fn family_distributions(
    report: &SweepReport,
    family_of: &BTreeMap<String, Family>,
) -> Vec<FamilyDistribution> {
    let mut out = Vec::new();
    for family in Family::ALL {
        let mut circuits: BTreeSet<&str> = BTreeSet::new();
        let mut reductions: Vec<(f64, &str)> = Vec::new();
        let mut scenarios = 0usize;
        let mut failures = 0usize;
        for record in &report.records {
            if family_of.get(&record.scenario.circuit) != Some(&family) {
                continue;
            }
            scenarios += 1;
            circuits.insert(&record.scenario.circuit);
            match record.metrics() {
                Some(m) => reductions.push((m.power_reduction, &record.scenario.circuit)),
                None => failures += 1,
            }
        }
        if scenarios == 0 {
            continue;
        }
        reductions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(b.1)));
        // A family whose every scenario failed still gets a row — the
        // failure count is the story then — with zeroed statistics and a
        // placeholder best circuit.
        let median = match reductions.len() {
            0 => 0.0,
            n if n % 2 == 1 => reductions[n / 2].0,
            n => (reductions[n / 2 - 1].0 + reductions[n / 2].0) / 2.0,
        };
        let (max_reduction, best_circuit) = match reductions.last() {
            Some(&(value, circuit)) => (value, circuit.to_owned()),
            None => (0.0, "-".to_owned()),
        };
        let pareto_points =
            report.pareto.iter().filter(|p| family_of.get(&p.circuit) == Some(&family)).count();
        out.push(FamilyDistribution {
            family,
            circuits: circuits.len(),
            scenarios,
            failures,
            min_reduction: reductions.first().map_or(0.0, |&(value, _)| value),
            median_reduction: median,
            max_reduction,
            best_circuit,
            pareto_points,
        });
    }
    out
}

/// Renders the per-family table.
pub fn render(families: &[FamilyDistribution]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>6} {:>5} {:>8} {:>8} {:>8} {:>7}  best circuit",
        "Family", "Circ", "Scen", "Fail", "Min(%)", "Med(%)", "Max(%)", "Pareto"
    );
    for f in families {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>6} {:>5} {:>8.2} {:>8.2} {:>8.2} {:>7}  {}",
            f.family.name(),
            f.circuits,
            f.scenarios,
            f.failures,
            f.min_reduction,
            f.median_reduction,
            f.max_reduction,
            f.pareto_points,
            f.best_circuit
        );
    }
    out
}

/// Renders the per-family distributions as JSON (stable key order, like the
/// engine's report emitters).
pub fn families_json(families: &[FamilyDistribution]) -> String {
    let mut out = String::from("{\n  \"families\": [");
    for (i, f) in families.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"family\": {}, \"circuits\": {}, \"scenarios\": {}, \"failures\": {}, \
             \"min_reduction\": {}, \"median_reduction\": {}, \"max_reduction\": {}, \
             \"best_circuit\": {}, \"pareto_points\": {}}}",
            json_string(f.family.name()),
            f.circuits,
            f.scenarios,
            f.failures,
            json_number(f.min_reduction),
            json_number(f.median_reduction),
            json_number(f.max_reduction),
            json_string(&f.best_circuit),
            f.pareto_points,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_specs() -> Vec<GenSpec> {
        default_specs(42, 2)
    }

    #[test]
    fn genweep_covers_every_family_with_no_failures() {
        let outcome = genweep(&small_specs(), 2).unwrap();
        assert_eq!(outcome.families.len(), 4);
        for f in &outcome.families {
            assert_eq!(f.circuits, 2, "{}", f.family);
            assert_eq!(f.scenarios, 2 * 2 * 2, "circuits × budgets × schedulers");
            assert_eq!(f.failures, 0, "{}", f.family);
            assert!(f.min_reduction <= f.median_reduction);
            assert!(f.median_reduction <= f.max_reduction);
            assert!(f.pareto_points >= 1);
            assert!(f.best_circuit.starts_with("gen-"));
        }
    }

    #[test]
    fn mux_trees_out_save_the_general_population() {
        // The headline claim the study exists for: conditional-heavy
        // circuits are where the paper's technique shines.
        let outcome = genweep(&default_specs(7, 4), 0).unwrap();
        let by_family: BTreeMap<Family, &FamilyDistribution> =
            outcome.families.iter().map(|f| (f.family, f)).collect();
        let tree = by_family[&Family::MuxTree];
        let dsp = by_family[&Family::DspChain];
        assert!(
            tree.median_reduction > dsp.median_reduction,
            "mux-tree median {} should beat dsp-chain median {}",
            tree.median_reduction,
            dsp.median_reduction
        );
    }

    #[test]
    fn outcome_is_deterministic_across_thread_counts() {
        let one = genweep(&small_specs(), 1).unwrap();
        let four = genweep(&small_specs(), 4).unwrap();
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert_eq!(one.families, four.families);
        assert_eq!(families_json(&one.families), families_json(&four.families));
    }

    #[test]
    fn all_failed_families_keep_their_row() {
        use engine::{Scenario, SweepRecord};
        let mut family_of = BTreeMap::new();
        family_of.insert("gen-rdag-x-0000".to_owned(), Family::RandomDag);
        let report = engine::SweepReport::from_records(vec![SweepRecord {
            scenario: Scenario::new("gen-rdag-x-0000", 4),
            outcome: Err("infeasible".to_owned()),
        }]);
        let families = family_distributions(&report, &family_of);
        assert_eq!(families.len(), 1, "the failing family is not dropped");
        let f = &families[0];
        assert_eq!((f.scenarios, f.failures, f.circuits), (1, 1, 1));
        assert_eq!(f.best_circuit, "-");
        assert_eq!(f.max_reduction, 0.0);
        assert!(render(&families).contains("random-dag"));
    }

    #[test]
    fn render_and_json_name_every_family() {
        let outcome = genweep(&small_specs(), 2).unwrap();
        let text = render(&outcome.families);
        let json = families_json(&outcome.families);
        for family in Family::ALL {
            assert!(text.contains(family.name()), "{family} in table");
            assert!(json.contains(family.name()), "{family} in json");
        }
    }
}
