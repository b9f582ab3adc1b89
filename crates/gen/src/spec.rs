//! Generator specifications: which family, how many circuits, which knobs.
//!
//! A [`GenSpec`] fully determines a batch of circuits: two specs with equal
//! fields produce byte-identical CDFGs.  The textual form parsed by
//! [`GenSpec::parse`] is the `--gen` argument of the `sweep` binary:
//!
//! ```text
//! family=<name>,seed=<u64>,count=<n>[,width=<n>][,depth=<n>][,mux=<permille>]
//!                                   [,taps=<n>][,iters=<n>]
//! ```

use std::fmt;

use crate::error::GenError;

/// The circuit families the generator knows how to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Random layered DAGs with a configurable width, depth and operation
    /// mix (the general-population workload).
    RandomDag,
    /// Conditional-heavy multiplexor trees — the paper's sweet spot, where
    /// most of the datapath sits inside shutdownable branches.
    MuxTree,
    /// DSP-like kernels: FIR tap chains, IIR-style biquad sections and
    /// butterfly stages with conditional scaling.
    DspChain,
    /// Scaled CORDIC rotators (the paper's `cordic` at other iteration
    /// counts).
    Cordic,
}

impl Family {
    /// Every family, in canonical order.
    pub const ALL: [Family; 4] =
        [Family::RandomDag, Family::MuxTree, Family::DspChain, Family::Cordic];

    /// The stable textual name used in specs, circuit names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::RandomDag => "random-dag",
            Family::MuxTree => "mux-tree",
            Family::DspChain => "dsp-chain",
            Family::Cordic => "cordic",
        }
    }

    /// Parses a family name.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::UnknownFamily`] for anything but the four
    /// canonical names.
    pub fn parse(name: &str) -> Result<Self, GenError> {
        Family::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| GenError::UnknownFamily(name.to_owned()))
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully parameterized request for a batch of generated circuits.
///
/// Circuit names embed the family, the seed and every structural knob, so
/// two different specs can never collide in the engine's circuit registry or
/// its prefix cache — the cache key (the circuit name) incorporates the
/// generator parameters by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenSpec {
    /// Which family to draw from.
    pub family: Family,
    /// Base seed; circuit `i` of the batch derives its own stream from
    /// `(seed, i)`.
    pub seed: u64,
    /// How many circuits to generate.
    pub count: usize,
    /// Nodes per layer (random-dag only).
    pub width: u32,
    /// Layers (random-dag) or tree depth (mux-tree).
    pub depth: u32,
    /// Probability, in permille, that a random-dag node is a multiplexor.
    pub mux_permille: u16,
    /// Taps per DSP kernel (dsp-chain only).
    pub taps: u32,
    /// Base iteration count (cordic only); circuit `i` runs `iters + i`
    /// iterations, so every batch member is structurally distinct and the
    /// batch size is capped at `49 - iters` (the largest variant must stay
    /// within the knob's own 48-iteration ceiling).
    pub iters: u32,
}

impl GenSpec {
    /// A spec with every knob at its family default.
    ///
    /// The mux-tree depth defaults lower than the random-dag depth because
    /// the tree holds `2^depth` leaves: depth 4 (15 multiplexors) is in the
    /// size class of the paper's circuits, while depth 8 would be a
    /// 255-multiplexor monster.
    pub fn new(family: Family, seed: u64, count: usize) -> Self {
        GenSpec {
            family,
            seed,
            count,
            width: 6,
            depth: if family == Family::MuxTree { 4 } else { 8 },
            mux_permille: 300,
            taps: 8,
            iters: 4,
        }
    }

    /// Parses the `--gen` argument syntax (see the module documentation).
    ///
    /// `family`, `seed` and `count` are required — the grammar brackets
    /// only the family knobs as optional, and silently defaulting the seed
    /// or the batch size would turn a typo into a quiet wrong-sized run.
    ///
    /// # Errors
    ///
    /// Rejects missing `family`/`seed`/`count`, unknown families, unknown
    /// and repeated keys, malformed numbers, and knob values outside their
    /// sane ranges.
    pub fn parse(text: &str) -> Result<Self, GenError> {
        let mut fields = Vec::new();
        for field in text.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            fields.push(
                field.split_once('=').ok_or_else(|| {
                    GenError::MalformedSpec(format!("`{field}` is not key=value"))
                })?,
            );
        }
        // The family decides the knob defaults, so resolve it first
        // regardless of where it appears in the text.
        let family = fields
            .iter()
            .find(|&&(key, _)| key == "family")
            .map(|&(_, value)| Family::parse(value))
            .ok_or_else(|| GenError::MalformedSpec("missing `family=<name>`".to_owned()))??;
        let mut spec = GenSpec::new(family, 0, 10);
        // Every key read so far: at most one unknown key gets in before
        // the match rejects it, so the lookups stay constant-time.
        let mut seen = Vec::new();
        for (key, value) in fields {
            if seen.contains(&key) {
                return Err(GenError::MalformedSpec(format!("duplicate key `{key}`")));
            }
            seen.push(key);
            let bad = |_| GenError::MalformedSpec(format!("`{value}` is not a number ({key})"));
            match key {
                "family" => {}
                "seed" => spec.seed = value.parse().map_err(bad)?,
                "count" => spec.count = value.parse().map_err(bad)?,
                "width" => spec.width = value.parse().map_err(bad)?,
                "depth" => spec.depth = value.parse().map_err(bad)?,
                "mux" => spec.mux_permille = value.parse().map_err(bad)?,
                "taps" => spec.taps = value.parse().map_err(bad)?,
                "iters" => spec.iters = value.parse().map_err(bad)?,
                other => return Err(GenError::MalformedSpec(format!("unknown key `{other}`"))),
            }
        }
        if !seen.contains(&"seed") {
            return Err(GenError::MalformedSpec("missing `seed=<u64>`".to_owned()));
        }
        if !seen.contains(&"count") {
            return Err(GenError::MalformedSpec("missing `count=<n>`".to_owned()));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every knob against its allowed range.
    ///
    /// The mux-tree depth is capped harder than the layer depth because a
    /// tree of depth `d` holds `2^d - 1` multiplexors: depth 6 (63 muxes)
    /// already exceeds the paper's largest circuit.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::InvalidKnob`] naming the offending knob.
    pub fn validate(&self) -> Result<(), GenError> {
        let depth_ok = if self.family == Family::MuxTree {
            (1..=6).contains(&self.depth)
        } else {
            (1..=64).contains(&self.depth)
        };
        // Cordic variants are fully determined by their iteration count, so
        // a batch can hold at most `49 - iters` structurally distinct
        // circuits; a larger count would silently duplicate work under
        // fresh names (defeating the engine's cache and skewing per-family
        // statistics).
        let count_cap = if self.family == Family::Cordic {
            49usize.saturating_sub(self.iters as usize)
        } else {
            100_000
        };
        let checks: [(&str, bool); 6] = [
            ("count (1..=100000; 1..=49-iters for cordic)", (1..=count_cap).contains(&self.count)),
            ("width (1..=64)", (1..=64).contains(&self.width)),
            ("depth (1..=64; 1..=6 for mux-tree)", depth_ok),
            ("mux (0..=1000)", self.mux_permille <= 1000),
            ("taps (2..=64)", (2..=64).contains(&self.taps)),
            ("iters (1..=48)", (1..=48).contains(&self.iters)),
        ];
        for (knob, ok) in checks {
            if !ok {
                return Err(GenError::InvalidKnob(knob.to_owned()));
            }
        }
        Ok(())
    }

    /// The shared name prefix of every circuit this spec generates; the
    /// per-circuit name appends a zero-padded index.  Only the knobs that
    /// shape the family appear, so the name is a faithful cache key.
    pub fn name_prefix(&self) -> String {
        match self.family {
            Family::RandomDag => format!(
                "gen-rdag-s{}-w{}-d{}-m{}",
                self.seed, self.width, self.depth, self.mux_permille
            ),
            Family::MuxTree => format!("gen-mtree-s{}-d{}", self.seed, self.depth),
            Family::DspChain => format!("gen-dsp-s{}-t{}", self.seed, self.taps),
            Family::Cordic => format!("gen-cordic-i{}", self.iters),
        }
    }

    /// The name of circuit `index` of this spec's batch.
    pub fn circuit_name(&self, index: usize) -> String {
        format!("{}-{index:04}", self.name_prefix())
    }

    /// The lossless textual form: every knob spelled out, parseable back by
    /// [`GenSpec::parse`] into an equal spec.  `Display` stays the compact
    /// family/seed/count form for logs; this is the form to put on a wire
    /// (the sweep service ships specs as these strings).
    pub fn spec_string(&self) -> String {
        format!(
            "family={},seed={},count={},width={},depth={},mux={},taps={},iters={}",
            self.family,
            self.seed,
            self.count,
            self.width,
            self.depth,
            self.mux_permille,
            self.taps,
            self.iters
        )
    }
}

impl fmt::Display for GenSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "family={},seed={},count={}", self.family, self.seed, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let spec = GenSpec::parse("family=random-dag,seed=42,count=250").unwrap();
        assert_eq!(spec.family, Family::RandomDag);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.count, 250);
        assert_eq!(spec.width, 6, "default width");
    }

    #[test]
    fn parses_every_knob_and_tolerates_spaces() {
        let spec = GenSpec::parse(
            "family=dsp-chain, seed=7, count=3, taps=12, width=9, depth=5, mux=500, iters=6",
        )
        .unwrap();
        assert_eq!(spec.taps, 12);
        assert_eq!(spec.width, 9);
        assert_eq!(spec.mux_permille, 500);
    }

    #[test]
    fn rejects_unknown_families_keys_and_bad_numbers() {
        assert!(matches!(GenSpec::parse("family=nope"), Err(GenError::UnknownFamily(_))));
        assert!(matches!(GenSpec::parse("family=cordic,bogus=1"), Err(GenError::MalformedSpec(_))));
        assert!(matches!(
            GenSpec::parse("family=cordic,seed=xyz"),
            Err(GenError::MalformedSpec(_))
        ));
        assert!(matches!(GenSpec::parse("seed=3"), Err(GenError::MalformedSpec(_))));
    }

    #[test]
    fn repeated_keys_are_rejected() {
        for text in [
            "family=mux-tree,seed=1,count=2,family=random-dag",
            "family=mux-tree,seed=1,count=2,seed=7,count=3",
            "family=random-dag,seed=1,count=2,width=4, width=4",
        ] {
            let err = GenSpec::parse(text).unwrap_err();
            assert!(matches!(&err, GenError::MalformedSpec(m) if m.starts_with("duplicate key")));
        }
        assert_eq!(
            GenSpec::parse("family=mux-tree,seed=1,count=2,seed=7").unwrap_err().to_string(),
            "malformed generator spec: duplicate key `seed`"
        );
    }

    #[test]
    fn seed_and_count_are_required() {
        let missing_seed = GenSpec::parse("family=random-dag,count=5").unwrap_err();
        assert!(missing_seed.to_string().contains("seed"), "{missing_seed}");
        let missing_count = GenSpec::parse("family=random-dag,seed=5").unwrap_err();
        assert!(missing_count.to_string().contains("count"), "{missing_count}");
        assert!(GenSpec::parse("family=random-dag,seed=5,count=5").is_ok());
    }

    #[test]
    fn rejects_out_of_range_knobs() {
        assert!(matches!(
            GenSpec::parse("family=random-dag,seed=1,count=0"),
            Err(GenError::InvalidKnob(_))
        ));
        assert!(matches!(
            GenSpec::parse("family=random-dag,seed=1,count=1,width=65"),
            Err(GenError::InvalidKnob(_))
        ));
        assert!(matches!(
            GenSpec::parse("family=cordic,seed=1,count=1,iters=49"),
            Err(GenError::InvalidKnob(_))
        ));
        assert!(matches!(
            GenSpec::parse("family=mux-tree,seed=1,count=1,depth=7"),
            Err(GenError::InvalidKnob(_))
        ));
        assert!(
            GenSpec::parse("family=random-dag,seed=1,count=1,depth=7").is_ok(),
            "layer depth 7 is fine"
        );
    }

    #[test]
    fn cordic_count_is_capped_at_the_distinct_variants() {
        // iters=4 leaves room for iterations 4..=48: 45 distinct circuits.
        assert!(GenSpec::parse("family=cordic,seed=1,count=45").is_ok());
        assert!(matches!(
            GenSpec::parse("family=cordic,seed=1,count=46"),
            Err(GenError::InvalidKnob(_))
        ));
        assert!(matches!(
            GenSpec::parse("family=cordic,seed=1,count=2,iters=48"),
            Err(GenError::InvalidKnob(_))
        ));
        assert!(GenSpec::parse("family=cordic,seed=1,count=1,iters=48").is_ok());
    }

    #[test]
    fn mux_tree_defaults_to_a_paper_sized_depth() {
        assert_eq!(GenSpec::new(Family::MuxTree, 0, 1).depth, 4);
        assert_eq!(GenSpec::new(Family::RandomDag, 0, 1).depth, 8);
        assert_eq!(GenSpec::parse("family=mux-tree,seed=0,count=1").map(|s| s.depth), Ok(4));
    }

    #[test]
    fn circuit_names_embed_family_seed_and_knobs() {
        let spec = GenSpec::parse("family=random-dag,seed=42,count=2").unwrap();
        assert_eq!(spec.circuit_name(7), "gen-rdag-s42-w6-d8-m300-0007");
        let other = GenSpec::parse("family=random-dag,seed=43,count=2").unwrap();
        assert_ne!(spec.circuit_name(0), other.circuit_name(0), "seed is part of the key");
        let wider = GenSpec::parse("family=random-dag,seed=42,count=2,width=7").unwrap();
        assert_ne!(spec.circuit_name(0), wider.circuit_name(0), "knobs are part of the key");
    }

    #[test]
    fn spec_string_roundtrips_every_knob() {
        for family in Family::ALL {
            let mut spec = GenSpec::new(family, u64::MAX, 3);
            spec.width = 9;
            spec.mux_permille = 450;
            spec.taps = 5;
            let reparsed = GenSpec::parse(&spec.spec_string()).unwrap();
            assert_eq!(reparsed, spec, "{}", spec.spec_string());
        }
        // Display stays compact (and lossy) — spec_string is the wire form.
        let spec = GenSpec::parse("family=random-dag,seed=1,count=2,width=9").unwrap();
        assert!(!spec.to_string().contains("width"));
        assert!(spec.spec_string().contains("width=9"));
    }

    #[test]
    fn family_roundtrips_through_its_name() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()).unwrap(), family);
        }
    }
}
