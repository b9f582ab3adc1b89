//! Seeded deterministic event streams for the online power-management
//! mode.
//!
//! An offline sweep schedules a fixed matrix once; the online mode treats
//! power management as a long-running session where latency budgets and
//! the set of live circuits change mid-flight.  This module turns a
//! [`StreamSpec`] — a [`GenSpec`] circuit pool plus stream knobs — into a
//! reproducible sequence of [`StreamEvent`]s:
//!
//! * [`StreamEvent::CircuitArrived`] / [`StreamEvent::CircuitRetired`] —
//!   churn of the live set, drawn from the spec's generated batch,
//! * [`StreamEvent::BudgetChanged`] — a reflecting ±1 step of one live
//!   circuit's latency budget inside `[cp, cp + span]`,
//! * [`StreamEvent::ScalingChanged`] — one live circuit's delay-scaling
//!   law cycles to the next one.
//!
//! # Determinism
//!
//! The stream is a pure function of the spec: circuits come from the
//! seeded generator, and the event sequence is drawn from its own
//! splitmix-seeded stream (`eseed`), so a fixed spec reproduces
//! byte-identical events across runs, machines and thread counts — the
//! same contract every other generator in this crate carries.  Budget
//! walks reflect at their window bounds, so long streams revisit budgets
//! often; that is what makes incremental repair measurably cheaper than
//! recomputation and is deliberately the common case, mirroring real
//! power managers that dither around a setpoint.

use std::fmt;

use circuits::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::GenError;
use crate::spec::GenSpec;
use crate::stream_seed;

/// Delay-scaling laws an online session can switch between.  This mirrors
/// `power::dvs::DelayScaling` without depending on the power crate — the
/// generator layer only names the law; the engine maps it onto the energy
/// model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scaling {
    /// No scaling: nominal energy regardless of slack (the paper's model).
    #[default]
    None,
    /// Energy inversely proportional to allotted delay (`1/d`).
    Linear,
    /// Energy inversely proportional to squared delay (`1/d²`).
    Quadratic,
}

impl Scaling {
    /// Every law, in increasing aggressiveness.
    pub const ALL: [Scaling; 3] = [Scaling::None, Scaling::Linear, Scaling::Quadratic];

    /// Short stable label used in event records and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Scaling::None => "none",
            Scaling::Linear => "linear",
            Scaling::Quadratic => "quadratic",
        }
    }

    /// Parses a label produced by [`Scaling::label`].
    pub fn parse(text: &str) -> Option<Self> {
        Scaling::ALL.into_iter().find(|s| s.label() == text)
    }

    /// The next law in the [`Scaling::ALL`] cycle — what a
    /// [`StreamEvent::ScalingChanged`] event switches a circuit to, so a
    /// rescale event always changes something.
    pub fn next(self) -> Self {
        match self {
            Scaling::None => Scaling::Linear,
            Scaling::Linear => Scaling::Quadratic,
            Scaling::Quadratic => Scaling::None,
        }
    }
}

impl fmt::Display for Scaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One event of an online session, in stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A circuit joins the live set with an initial latency budget (its
    /// critical path — the tightest feasible setpoint) and nominal scaling.
    CircuitArrived {
        /// Name of the arriving circuit (a member of the spec's batch).
        circuit: String,
        /// Initial latency budget in control steps.
        budget: u32,
    },
    /// A live circuit leaves the session; its warm state is dropped.
    CircuitRetired {
        /// Name of the retiring circuit.
        circuit: String,
    },
    /// A live circuit's latency budget steps by one control step.
    BudgetChanged {
        /// Name of the affected circuit.
        circuit: String,
        /// The new latency budget in control steps.
        budget: u32,
    },
    /// A live circuit's delay-scaling law cycles to the next one.
    ScalingChanged {
        /// Name of the affected circuit.
        circuit: String,
        /// The new scaling law.
        scaling: Scaling,
    },
}

impl StreamEvent {
    /// The circuit the event concerns.
    pub fn circuit(&self) -> &str {
        match self {
            StreamEvent::CircuitArrived { circuit, .. }
            | StreamEvent::CircuitRetired { circuit }
            | StreamEvent::BudgetChanged { circuit, .. }
            | StreamEvent::ScalingChanged { circuit, .. } => circuit,
        }
    }

    /// Short stable label of the event kind ("arrive", "retire", "budget",
    /// "scaling"), used in record JSON and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            StreamEvent::CircuitArrived { .. } => "arrive",
            StreamEvent::CircuitRetired { .. } => "retire",
            StreamEvent::BudgetChanged { .. } => "budget",
            StreamEvent::ScalingChanged { .. } => "scaling",
        }
    }
}

/// A fully parameterized request for an event stream: the circuit pool and
/// the stream knobs.  Two equal specs produce byte-identical circuits and
/// events.
///
/// The textual form parsed by [`StreamSpec::parse`] is the `--online`
/// argument of `sweepctl` and the experiment binaries: a [`GenSpec`] and
/// the stream knobs, separated by a semicolon:
///
/// ```text
/// family=<name>,seed=<u64>,count=<n>[,<gen knobs>];
///     events=<n>,eseed=<u64>[,span=<n>][,churn=<permille>][,rescale=<permille>]
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamSpec {
    /// The circuit pool events draw from.
    pub gen: GenSpec,
    /// How many events the stream holds.
    pub events: usize,
    /// Budget-walk window above each circuit's critical path, in control
    /// steps; 0 means "use the circuit's own derived relaxed bound"
    /// (`1 + cp/4`, the spread Table II uses).
    pub span: u32,
    /// Probability, in permille, that an event churns the live set
    /// (arrival or retirement).
    pub churn_permille: u16,
    /// Probability, in permille, that an event changes a scaling law.
    pub rescale_permille: u16,
    /// Seed of the event stream, independent of the circuit seed so the
    /// same pool can be driven through different sessions.
    pub eseed: u64,
}

impl StreamSpec {
    /// A stream over `gen`'s batch with every knob at its default: 10%
    /// churn, 10% rescales, the rest budget steps over each circuit's
    /// derived window.
    pub fn new(gen: GenSpec, events: usize, eseed: u64) -> Self {
        StreamSpec { gen, events, span: 0, churn_permille: 100, rescale_permille: 100, eseed }
    }

    /// Parses the `--online` argument syntax (see the type documentation).
    /// `events` and `eseed` are required, like the generator's `seed` and
    /// `count` — silently defaulting either would turn a typo into a quiet
    /// wrong-shaped session.
    ///
    /// # Errors
    ///
    /// Rejects a missing semicolon, malformed generator specs, missing
    /// `events`/`eseed`, unknown and repeated keys, malformed numbers and
    /// out-of-range knobs.
    pub fn parse(text: &str) -> Result<Self, GenError> {
        let Some((gen_text, stream_text)) = text.split_once(';') else {
            return Err(GenError::MalformedSpec(
                "expected `<gen spec>;events=<n>,eseed=<u64>[,...]`".to_owned(),
            ));
        };
        let gen = GenSpec::parse(gen_text)?;
        let mut spec = StreamSpec::new(gen, 0, 0);
        // Every key read so far (see `GenSpec::parse`).
        let mut seen = Vec::new();
        for field in stream_text.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let Some((key, value)) = field.split_once('=') else {
                return Err(GenError::MalformedSpec(format!("`{field}` is not key=value")));
            };
            if seen.contains(&key) {
                return Err(GenError::MalformedSpec(format!("duplicate key `{key}`")));
            }
            seen.push(key);
            let bad = |_| GenError::MalformedSpec(format!("`{value}` is not a number ({key})"));
            match key {
                "events" => spec.events = value.parse().map_err(bad)?,
                "eseed" => spec.eseed = value.parse().map_err(bad)?,
                "span" => spec.span = value.parse().map_err(bad)?,
                "churn" => spec.churn_permille = value.parse().map_err(bad)?,
                "rescale" => spec.rescale_permille = value.parse().map_err(bad)?,
                other => {
                    return Err(GenError::MalformedSpec(format!("unknown stream key `{other}`")))
                }
            }
        }
        if !seen.contains(&"events") {
            return Err(GenError::MalformedSpec("missing `events=<n>`".to_owned()));
        }
        if !seen.contains(&"eseed") {
            return Err(GenError::MalformedSpec("missing `eseed=<u64>`".to_owned()));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the stream knobs (the generator knobs are checked by
    /// [`GenSpec::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::InvalidKnob`] naming the offending knob.
    pub fn validate(&self) -> Result<(), GenError> {
        self.gen.validate()?;
        let checks: [(&str, bool); 3] = [
            ("events (1..=1000000)", (1..=1_000_000).contains(&self.events)),
            ("span (0..=64)", self.span <= 64),
            (
                "churn+rescale (<=1000 permille)",
                u32::from(self.churn_permille) + u32::from(self.rescale_permille) <= 1000,
            ),
        ];
        for (knob, ok) in checks {
            if !ok {
                return Err(GenError::InvalidKnob(knob.to_owned()));
            }
        }
        Ok(())
    }

    /// The lossless textual form: parseable back by [`StreamSpec::parse`]
    /// into an equal spec — the form the sweep service ships on the wire.
    pub fn spec_string(&self) -> String {
        format!(
            "{};events={},eseed={},span={},churn={},rescale={}",
            self.gen.spec_string(),
            self.events,
            self.eseed,
            self.span,
            self.churn_permille,
            self.rescale_permille
        )
    }
}

impl fmt::Display for StreamSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{};events={},eseed={}", self.gen, self.events, self.eseed)
    }
}

/// Walk state of one live circuit while the stream is being generated.
struct LiveCircuit {
    index: usize,
    budget: u32,
    scaling: Scaling,
}

/// Generates the spec's circuit pool and its event sequence.
///
/// The first event is always an arrival (a session with no live circuit
/// has nothing to repair); afterwards the event mix follows the spec's
/// permille knobs.  The live set never drops to zero and every circuit of
/// the pool can arrive, retire and re-arrive.
///
/// # Errors
///
/// Rejects invalid knobs and propagates generator failures.
pub fn stream(spec: &StreamSpec) -> Result<(Vec<Benchmark>, Vec<StreamEvent>), GenError> {
    spec.validate()?;
    let batch = crate::generate(&spec.gen)?;
    let mut rng = StdRng::seed_from_u64(stream_seed(spec.eseed, batch.len()));

    // Window of each circuit's budget walk: [cp, cp + span].
    let window = |bench: &Benchmark| -> (u32, u32) {
        let cp = bench.control_steps[0];
        let span = if spec.span > 0 { spec.span } else { bench.control_steps[1] - cp };
        (cp, cp + span)
    };

    let mut live: Vec<LiveCircuit> = Vec::new();
    let mut pool: Vec<usize> = (0..batch.len()).collect();
    let mut events = Vec::with_capacity(spec.events);
    let churn = spec.churn_permille;
    let rescale = spec.rescale_permille;

    for _ in 0..spec.events {
        let roll: u16 = rng.gen_range(0u16..1000);
        let arrive = |pool: &mut Vec<usize>, live: &mut Vec<LiveCircuit>, rng: &mut StdRng| {
            let index = pool.remove(rng.gen_range(0usize..pool.len()));
            let (cp, _) = window(&batch[index]);
            live.push(LiveCircuit { index, budget: cp, scaling: Scaling::None });
            StreamEvent::CircuitArrived { circuit: batch[index].name.clone(), budget: cp }
        };
        let event = if live.is_empty() {
            arrive(&mut pool, &mut live, &mut rng)
        } else if roll < churn {
            // Churn: even sub-rolls arrive (pool permitting), odd retire
            // (as long as one circuit stays live).
            if roll % 2 == 0 && !pool.is_empty() {
                arrive(&mut pool, &mut live, &mut rng)
            } else if live.len() > 1 {
                let gone = live.remove(rng.gen_range(0usize..live.len()));
                pool.push(gone.index);
                StreamEvent::CircuitRetired { circuit: batch[gone.index].name.clone() }
            } else if !pool.is_empty() {
                arrive(&mut pool, &mut live, &mut rng)
            } else {
                // count=1 with nothing to churn: degrade to a budget step.
                budget_step(&batch, &mut live, &mut rng, &window)
            }
        } else if roll < churn + rescale {
            let picked = rng.gen_range(0usize..live.len());
            let target = &mut live[picked];
            target.scaling = target.scaling.next();
            StreamEvent::ScalingChanged {
                circuit: batch[target.index].name.clone(),
                scaling: target.scaling,
            }
        } else {
            budget_step(&batch, &mut live, &mut rng, &window)
        };
        events.push(event);
    }
    Ok((batch, events))
}

/// One reflecting ±1 budget step of a random live circuit.
fn budget_step(
    batch: &[Benchmark],
    live: &mut [LiveCircuit],
    rng: &mut StdRng,
    window: &impl Fn(&Benchmark) -> (u32, u32),
) -> StreamEvent {
    let target = &mut live[rng.gen_range(0usize..live.len())];
    let (lo, hi) = window(&batch[target.index]);
    let up = rng.gen_range(0u16..2) == 1;
    target.budget = if up {
        if target.budget >= hi {
            target.budget - 1
        } else {
            target.budget + 1
        }
    } else if target.budget <= lo {
        target.budget + 1
    } else {
        target.budget - 1
    };
    // A one-circuit window of zero width would step outside [lo, hi];
    // clamp so the walk stays a no-op there instead.
    target.budget = target.budget.clamp(lo, hi.max(lo));
    StreamEvent::BudgetChanged { circuit: batch[target.index].name.clone(), budget: target.budget }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Family;

    fn spec(text: &str) -> StreamSpec {
        StreamSpec::parse(text).unwrap()
    }

    #[test]
    fn parses_gen_and_stream_halves() {
        let s = spec("family=mux-tree,seed=7,count=3;events=50,eseed=9,span=3,churn=80,rescale=40");
        assert_eq!(s.gen.family, Family::MuxTree);
        assert_eq!(s.gen.count, 3);
        assert_eq!(s.events, 50);
        assert_eq!(s.eseed, 9);
        assert_eq!(s.span, 3);
        assert_eq!(s.churn_permille, 80);
        assert_eq!(s.rescale_permille, 40);
    }

    #[test]
    fn events_and_eseed_are_required_and_knobs_are_checked() {
        assert!(StreamSpec::parse("family=mux-tree,seed=1,count=1").is_err(), "no semicolon");
        let missing_events = StreamSpec::parse("family=mux-tree,seed=1,count=1;eseed=2");
        assert!(missing_events.unwrap_err().to_string().contains("events"));
        let missing_eseed = StreamSpec::parse("family=mux-tree,seed=1,count=1;events=5");
        assert!(missing_eseed.unwrap_err().to_string().contains("eseed"));
        assert!(StreamSpec::parse("family=mux-tree,seed=1,count=1;events=0,eseed=1").is_err());
        assert!(StreamSpec::parse(
            "family=mux-tree,seed=1,count=1;events=5,eseed=1,churn=600,rescale=600"
        )
        .is_err());
        assert!(
            StreamSpec::parse("family=mux-tree,seed=1,count=1;events=5,eseed=1,bogus=1").is_err()
        );
    }

    #[test]
    fn repeated_keys_are_rejected() {
        let err = StreamSpec::parse("family=mux-tree,seed=1,count=2;events=5,eseed=1,events=9")
            .unwrap_err();
        assert_eq!(err, GenError::MalformedSpec("duplicate key `events`".to_owned()));
        let err = StreamSpec::parse("family=mux-tree,seed=1,seed=2,count=2;events=5,eseed=1")
            .unwrap_err();
        assert_eq!(err, GenError::MalformedSpec("duplicate key `seed`".to_owned()));
    }

    #[test]
    fn spec_string_roundtrips() {
        let s = spec("family=dsp-chain,seed=3,count=2,taps=5;events=40,eseed=11,churn=200");
        assert_eq!(StreamSpec::parse(&s.spec_string()).unwrap(), s);
    }

    #[test]
    fn streams_are_deterministic_and_start_with_an_arrival() {
        let s = spec("family=random-dag,seed=42,count=4;events=120,eseed=7");
        let (batch_a, events_a) = stream(&s).unwrap();
        let (batch_b, events_b) = stream(&s).unwrap();
        assert_eq!(events_a, events_b, "same spec, same events");
        assert_eq!(batch_a.len(), batch_b.len());
        assert!(matches!(events_a[0], StreamEvent::CircuitArrived { .. }));
        let different =
            stream(&spec("family=random-dag,seed=42,count=4;events=120,eseed=8")).unwrap().1;
        assert_ne!(events_a, different, "eseed changes the stream");
    }

    #[test]
    fn budget_walks_stay_inside_each_circuits_window() {
        let s = spec("family=mux-tree,seed=5,count=3;events=300,eseed=2,churn=150,rescale=100");
        let (batch, events) = stream(&s).unwrap();
        let window: std::collections::BTreeMap<&str, (u32, u32)> = batch
            .iter()
            .map(|b| (b.name.as_str(), (b.control_steps[0], b.control_steps[1])))
            .collect();
        let mut kinds = std::collections::BTreeSet::new();
        for event in &events {
            kinds.insert(event.kind());
            match event {
                StreamEvent::CircuitArrived { circuit, budget }
                | StreamEvent::BudgetChanged { circuit, budget } => {
                    let (lo, hi) = window[circuit.as_str()];
                    assert!(
                        (lo..=hi).contains(budget),
                        "{circuit}: budget {budget} outside [{lo}, {hi}]"
                    );
                }
                _ => {}
            }
        }
        assert!(kinds.contains("arrive") && kinds.contains("budget"), "{kinds:?}");
        assert!(kinds.contains("retire") && kinds.contains("scaling"), "{kinds:?}");
    }

    #[test]
    fn retirements_never_empty_the_live_set() {
        let s = spec("family=mux-tree,seed=9,count=2;events=400,eseed=3,churn=900,rescale=0");
        let (_, events) = stream(&s).unwrap();
        let mut alive = 0i64;
        for event in &events {
            match event {
                StreamEvent::CircuitArrived { .. } => alive += 1,
                StreamEvent::CircuitRetired { .. } => alive -= 1,
                _ => {}
            }
            assert!(alive >= 1, "live set emptied mid-stream");
            assert!(alive <= 2, "more live circuits than the pool holds");
        }
    }

    #[test]
    fn scaling_cycles_and_labels_roundtrip() {
        assert_eq!(Scaling::None.next(), Scaling::Linear);
        assert_eq!(Scaling::Quadratic.next(), Scaling::None);
        for law in Scaling::ALL {
            assert_eq!(Scaling::parse(law.label()), Some(law));
        }
        assert_eq!(Scaling::parse("cubic"), None);
    }
}
