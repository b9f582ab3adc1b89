//! The relative power and area model of the paper's evaluation.
//!
//! Table II of the paper computes datapath power savings from the *expected
//! number of executions* of each operation, weighted by relative power
//! weights obtained from timing simulation of an 8-bit datapath:
//! MUX: 1, COMP: 4, +: 3, −: 3, ×: 20.  The same relative style is used for
//! the execution-unit area ratio ("Area Incr." column).

use std::collections::BTreeMap;
use std::fmt;

use cdfg::{OpClass, OpCounts};

use crate::activation::Activation;

/// Relative per-operation weights (power or area) indexed by [`OpClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpWeights {
    /// One weight per class, indexed by the class's declaration order.
    weights: [f64; OpClass::Structural as usize + 1],
}

impl OpWeights {
    /// The paper's relative datapath *power* weights for an 8-bit datapath:
    /// MUX: 1, COMP: 4, +: 3, −: 3, ×: 20.  Division is treated like a
    /// multiplier and shift/logic like a multiplexor (extensions beyond the
    /// paper's operation set).
    pub fn paper_power() -> Self {
        OpWeights::from_pairs([
            (OpClass::Mux, 1.0),
            (OpClass::Comp, 4.0),
            (OpClass::Add, 3.0),
            (OpClass::Sub, 3.0),
            (OpClass::Mul, 20.0),
            (OpClass::Div, 20.0),
            (OpClass::Logic, 1.0),
        ])
    }

    /// Relative execution-unit *area* weights for an 8-bit datapath (a mux
    /// is the unit; a ripple-carry adder/subtractor is several times larger,
    /// an array multiplier dominates).
    pub fn paper_area() -> Self {
        OpWeights::from_pairs([
            (OpClass::Mux, 1.0),
            (OpClass::Comp, 3.0),
            (OpClass::Add, 6.0),
            (OpClass::Sub, 6.0),
            (OpClass::Mul, 40.0),
            (OpClass::Div, 40.0),
            (OpClass::Logic, 2.0),
        ])
    }

    /// Builds weights from `(class, weight)` pairs; unlisted classes weigh 0.
    /// A class listed twice takes its last weight.
    pub fn from_pairs<I: IntoIterator<Item = (OpClass, f64)>>(pairs: I) -> Self {
        let mut weights = [0.0; OpClass::Structural as usize + 1];
        for (class, weight) in pairs {
            weights[class as usize] = weight;
        }
        OpWeights { weights }
    }

    /// The weight of `class` (0 when unlisted).
    pub fn weight(&self, class: OpClass) -> f64 {
        self.weights[class as usize]
    }

    /// Weighted sum of an operation-count vector.
    pub fn weighted_counts(&self, counts: &OpCounts) -> f64 {
        OpClass::FUNCTIONAL.iter().map(|&c| self.weight(c) * counts.count(c) as f64).sum()
    }

    /// Weighted sum of an expected-execution map.
    pub fn weighted_expected(&self, expected: &BTreeMap<OpClass, f64>) -> f64 {
        expected.iter().map(|(&c, &n)| self.weight(c) * n).sum()
    }
}

impl Default for OpWeights {
    fn default() -> Self {
        OpWeights::paper_power()
    }
}

/// Datapath power-savings summary in the style of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsReport {
    /// Weighted datapath power with every operation executing each sample
    /// (no power management).
    pub baseline_weighted: f64,
    /// Weighted datapath power with the expected execution counts of the
    /// power-managed schedule.
    pub managed_weighted: f64,
    /// `100 * (baseline - managed) / baseline` — the "Power Red. (%)" column.
    pub reduction_percent: f64,
    /// Expected executions per operation class (the "Number of Operations"
    /// columns of Table II).
    pub expected_counts: BTreeMap<OpClass, f64>,
    /// Static operation counts of the design (Table I).
    pub total_counts: OpCounts,
}

impl SavingsReport {
    /// Computes the savings report from an activation analysis.
    pub fn compute(total_counts: OpCounts, activation: &Activation, weights: &OpWeights) -> Self {
        let expected_counts = activation.expected_counts();
        let baseline_weighted = weights.weighted_counts(&total_counts);
        let managed_weighted = weights.weighted_expected(&expected_counts);
        let reduction_percent = if baseline_weighted > 0.0 {
            100.0 * (baseline_weighted - managed_weighted) / baseline_weighted
        } else {
            0.0
        };
        SavingsReport {
            baseline_weighted,
            managed_weighted,
            reduction_percent,
            expected_counts,
            total_counts,
        }
    }

    /// Expected executions of `class` per computation.
    pub fn expected(&self, class: OpClass) -> f64 {
        self.expected_counts.get(&class).copied().unwrap_or(0.0)
    }
}

/// Composes two independent percentage reductions multiplicatively:
/// applying an `a`-percent reduction and then a `b`-percent reduction to
/// what remains leaves `(1 - a/100) · (1 - b/100)` of the original, so the
/// combined reduction is `100 · (1 - (1 - a/100)(1 - b/100))`.
///
/// This is how shut-down savings (fewer expected executions) compose with
/// slowdown savings (lower energy per execution under a scaled-delay /
/// DVS model): the two mechanisms are independent per-operation factors,
/// so their relative reductions multiply rather than add.
pub fn compose_reductions(a_percent: f64, b_percent: f64) -> f64 {
    100.0 * (1.0 - (1.0 - a_percent / 100.0) * (1.0 - b_percent / 100.0))
}

impl fmt::Display for SavingsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "datapath power {:.2} -> {:.2} ({:.2}% reduction)",
            self.baseline_weighted, self.managed_weighted, self.reduction_percent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_weights_match_table_ii_footnote() {
        let w = OpWeights::paper_power();
        assert_eq!(w.weight(OpClass::Mux), 1.0);
        assert_eq!(w.weight(OpClass::Comp), 4.0);
        assert_eq!(w.weight(OpClass::Add), 3.0);
        assert_eq!(w.weight(OpClass::Sub), 3.0);
        assert_eq!(w.weight(OpClass::Mul), 20.0);
        assert_eq!(w.weight(OpClass::Structural), 0.0);
        assert_eq!(OpWeights::default(), w);
    }

    #[test]
    fn weight_reads_back_from_pairs_for_every_class_and_the_last_duplicate_wins() {
        let classes: Vec<OpClass> =
            OpClass::FUNCTIONAL.into_iter().chain([OpClass::Structural]).collect();
        for (k, &listed) in classes.iter().enumerate() {
            // One class listed twice, every other class unlisted.
            let w = OpWeights::from_pairs([(listed, -1.0), (listed, k as f64 + 0.5)]);
            for &class in &classes {
                let expected = if class == listed { k as f64 + 0.5 } else { 0.0 };
                assert_eq!(w.weight(class), expected, "{class:?} with {listed:?} listed");
            }
        }
        // Every class listed, in reverse order.
        let all: Vec<(OpClass, f64)> =
            classes.iter().enumerate().map(|(k, &c)| (c, 10.0 * k as f64 + 1.0)).collect();
        let w = OpWeights::from_pairs(all.iter().rev().copied());
        for (class, weight) in all {
            assert_eq!(w.weight(class), weight, "{class:?}");
        }
    }

    #[test]
    fn weighted_counts_sums_by_class() {
        let counts = OpCounts { mux: 1, comp: 1, add: 0, sub: 2, mul: 0, div: 0, logic: 0 };
        // 1*1 + 1*4 + 2*3 = 11
        assert_eq!(OpWeights::paper_power().weighted_counts(&counts), 11.0);
    }

    #[test]
    fn weighted_expected_sums_fractions() {
        let mut expected = BTreeMap::new();
        expected.insert(OpClass::Sub, 1.0);
        expected.insert(OpClass::Comp, 1.0);
        expected.insert(OpClass::Mux, 1.0);
        // 3 + 4 + 1 = 8; with both subs always on it would be 11.
        assert_eq!(OpWeights::paper_power().weighted_expected(&expected), 8.0);
    }

    #[test]
    fn composed_reductions_multiply_the_remainders() {
        // 50% then 50% leaves a quarter: 75% combined.
        assert!((compose_reductions(50.0, 50.0) - 75.0).abs() < 1e-12);
        // Composition with zero is the identity, in both positions.
        assert!((compose_reductions(30.0, 0.0) - 30.0).abs() < 1e-12);
        assert!((compose_reductions(0.0, 30.0) - 30.0).abs() < 1e-12);
        // Commutative, and never exceeds 100% for reductions in [0, 100].
        assert!((compose_reductions(20.0, 60.0) - compose_reductions(60.0, 20.0)).abs() < 1e-12);
        assert!(compose_reductions(100.0, 40.0) <= 100.0);
        // A negative "reduction" (a regression) composes symmetrically too:
        // saving 50% then regressing 10% leaves 0.5 * 1.1 = 55% => 45%.
        assert!((compose_reductions(50.0, -10.0) - 45.0).abs() < 1e-12);
    }

    #[test]
    fn area_weights_make_multiplier_dominant() {
        let w = OpWeights::paper_area();
        assert!(w.weight(OpClass::Mul) > w.weight(OpClass::Add));
        assert!(w.weight(OpClass::Add) > w.weight(OpClass::Mux));
    }
}
