//! The scenario type: one fully specified run of the pipeline.
//!
//! A [`Scenario`] pins every knob the end-to-end flow exposes — which
//! circuit, how many control steps per sample, which final scheduler, how
//! deep a pipeline, whether the multiplexor-reordering search of Section
//! IV-A runs, and which branch-probability model the savings are evaluated
//! under.  Scenarios are plain ordered values so a sweep plan can be
//! deduplicated and deterministically sorted regardless of how it was built.

use std::fmt;

/// Which final scheduler closes the power-management flow (step 11 of the
/// paper's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedulerKind {
    /// Latency-constrained force-directed scheduling with unlimited
    /// execution units (the scheduler minimises them itself) — the HYPER
    /// contract the paper uses.
    #[default]
    ForceDirected,
    /// Resource-constrained list scheduling.  The allocation is fixed to the
    /// minimum the force-directed scheduler needs at the same latency, so
    /// the two schedulers are compared on equal hardware.
    List,
}

impl SchedulerKind {
    /// Short stable label used in reports and cache keys.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::ForceDirected => "force",
            SchedulerKind::List => "list",
        }
    }

    /// Parses a label produced by [`SchedulerKind::label`].
    ///
    /// # Errors
    ///
    /// Names the unknown label.
    pub fn parse(label: &str) -> Result<Self, String> {
        match label {
            "force" => Ok(SchedulerKind::ForceDirected),
            "list" => Ok(SchedulerKind::List),
            other => Err(format!("unknown scheduler `{other}`")),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Branch-probability model applied to every multiplexor when evaluating
/// the expected execution counts (Section V's fairness assumption and its
/// relaxations).
///
/// Probabilities are stored in permille (0..=1000) so the model is `Eq` /
/// `Hash` / `Ord` and scenarios stay deduplicatable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchModel {
    /// The paper's assumption: every multiplexor selects each input with
    /// equal probability (0.5 for two-input multiplexors).
    #[default]
    Fair,
    /// Every multiplexor selects its 1-input with probability
    /// `permille / 1000`.
    Biased {
        /// Probability of selecting the 1-input, in permille (0..=1000).
        permille: u16,
    },
}

impl BranchModel {
    /// A biased model; `permille` is clamped to 1000.
    pub fn biased(permille: u16) -> Self {
        BranchModel::Biased { permille: permille.min(1000) }
    }

    /// The probability that a multiplexor selects its 1-input.
    pub fn p_select_one(self) -> f64 {
        match self {
            BranchModel::Fair => 0.5,
            BranchModel::Biased { permille } => f64::from(permille.min(1000)) / 1000.0,
        }
    }

    /// Short stable label used in reports.
    pub fn label(self) -> String {
        match self {
            BranchModel::Fair => "fair".to_owned(),
            BranchModel::Biased { permille } => format!("p{permille:04}"),
        }
    }

    /// Parses a label produced by [`BranchModel::label`] (`fair` or
    /// `p<permille>`).
    ///
    /// # Errors
    ///
    /// Names an unknown label or a permille above 1000.
    pub fn parse(label: &str) -> Result<Self, String> {
        if label == "fair" {
            return Ok(BranchModel::Fair);
        }
        let permille: u16 = label
            .strip_prefix('p')
            .and_then(|digits| digits.parse().ok())
            .ok_or_else(|| format!("unknown branch model `{label}`"))?;
        if permille > 1000 {
            return Err(format!("branch model permille {permille} exceeds 1000"));
        }
        Ok(BranchModel::biased(permille))
    }
}

impl fmt::Display for BranchModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One point of the sweep matrix: circuit × latency bound × scheduler ×
/// pipeline depth × mux reordering × branch-probability model.
///
/// The derived `Ord` gives plans a canonical order (circuit, then latency,
/// then the remaining knobs), which is what makes sweep output independent
/// of thread count and of the order dimensions were added to the builder.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Scenario {
    /// Circuit name, resolved against the engine's circuit registry.
    pub circuit: String,
    /// Control steps between consecutive samples (the throughput
    /// constraint; column 2 of Table II).
    pub latency: u32,
    /// Final scheduler.
    pub scheduler: SchedulerKind,
    /// Pipeline stages (Section IV-B); 1 = no pipelining.  One sample gets
    /// `latency × pipeline_depth` control steps.
    pub pipeline_depth: u32,
    /// Whether the multiplexor-reordering search of Section IV-A runs
    /// (`false` = the paper's outputs-first default order).
    pub reorder: bool,
    /// Branch-probability model for the savings estimate.
    pub branch_model: BranchModel,
}

impl Scenario {
    /// A scenario with every knob at its default: force-directed scheduler,
    /// no pipelining, no reordering, fair branch probabilities.
    pub fn new(circuit: impl Into<String>, latency: u32) -> Self {
        Scenario {
            circuit: circuit.into(),
            latency,
            scheduler: SchedulerKind::default(),
            pipeline_depth: 1,
            reorder: false,
            branch_model: BranchModel::default(),
        }
    }

    /// Replaces the scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the pipeline depth.
    pub fn pipeline_depth(mut self, depth: u32) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Enables or disables the reordering search.
    pub fn reorder(mut self, reorder: bool) -> Self {
        self.reorder = reorder;
        self
    }

    /// Replaces the branch-probability model.
    pub fn branch_model(mut self, model: BranchModel) -> Self {
        self.branch_model = model;
        self
    }

    /// Control steps one sample may take after pipelining
    /// (`latency × pipeline_depth`).
    pub fn effective_latency(&self) -> u32 {
        self.latency.saturating_mul(self.pipeline_depth)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} {} x{}{} {}",
            self.circuit,
            self.latency,
            self.scheduler,
            self.pipeline_depth,
            if self.reorder { " reorder" } else { "" },
            self.branch_model
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_latency_multiplies_depth() {
        let s = Scenario::new("dealer", 4).pipeline_depth(3);
        assert_eq!(s.effective_latency(), 12);
        assert_eq!(Scenario::new("dealer", 4).effective_latency(), 4);
    }

    #[test]
    fn branch_model_probability_and_clamping() {
        assert_eq!(BranchModel::Fair.p_select_one(), 0.5);
        assert_eq!(BranchModel::biased(250).p_select_one(), 0.25);
        assert_eq!(BranchModel::biased(5000), BranchModel::biased(1000));
        assert_eq!(BranchModel::biased(1000).p_select_one(), 1.0);
    }

    #[test]
    fn branch_model_and_scheduler_labels_parse_back() {
        for model in [
            BranchModel::Fair,
            BranchModel::biased(0),
            BranchModel::biased(300),
            BranchModel::biased(1000),
        ] {
            assert_eq!(BranchModel::parse(&model.label()).unwrap(), model);
        }
        assert!(BranchModel::parse("p1001").is_err());
        assert!(BranchModel::parse("biased").is_err());
        for scheduler in [SchedulerKind::ForceDirected, SchedulerKind::List] {
            assert_eq!(SchedulerKind::parse(scheduler.label()).unwrap(), scheduler);
        }
        assert!(SchedulerKind::parse("hyper").is_err());
    }

    #[test]
    fn ordering_is_circuit_then_latency_first() {
        let a = Scenario::new("dealer", 4);
        let b = Scenario::new("dealer", 5);
        let c = Scenario::new("gcd", 4);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_is_compact_and_complete() {
        let s = Scenario::new("gcd", 6)
            .scheduler(SchedulerKind::List)
            .pipeline_depth(2)
            .reorder(true)
            .branch_model(BranchModel::biased(300));
        let text = s.to_string();
        assert!(text.contains("gcd@6"));
        assert!(text.contains("list"));
        assert!(text.contains("x2"));
        assert!(text.contains("reorder"));
        assert!(text.contains("p0300"));
    }
}
