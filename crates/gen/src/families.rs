//! The circuit-family builders.
//!
//! Every builder is a pure function of its `StdRng` stream and its knobs:
//! the only entropy source is the seeded splitmix generator, so a fixed
//! `(seed, index, knobs)` triple always reproduces the same CDFG, node for
//! node and edge for edge.

use cdfg::{Cdfg, CdfgBuilder, NodeId, Op};
use rand::rngs::StdRng;
use rand::Rng;

/// Uniformly picks one element of a non-empty slice.
fn pick(rng: &mut StdRng, items: &[NodeId]) -> NodeId {
    items[rng.gen_range(0usize..items.len())]
}

/// Adds primary outputs for every functional node nothing consumes, so the
/// finished graph has no dangling computations.  Returns the output count.
fn emit_sinks(b: &mut CdfgBuilder) -> usize {
    let sinks: Vec<NodeId> = b
        .cdfg()
        .slices()
        .functional()
        .iter()
        .copied()
        .filter(|&n| b.cdfg().data_successors(n).is_empty())
        .collect();
    for (i, sink) in sinks.iter().enumerate() {
        b.output(&format!("o{i}"), *sink).expect("fresh output name");
    }
    sinks.len()
}

/// A random layered DAG.
///
/// Each of `depth` layers adds `width` nodes whose operands are drawn from
/// everything built so far.  `mux_permille` of the nodes are multiplexors
/// (their selects come from a pool of comparators, grown on demand); the
/// rest split between comparators and an add/sub/mul mix.  Every
/// consumer-less node becomes a primary output.
pub fn random_dag(name: &str, rng: &mut StdRng, width: u32, depth: u32, mux_permille: u16) -> Cdfg {
    let mut b = CdfgBuilder::new(name);
    let mut values: Vec<NodeId> = (0..width.max(2)).map(|i| b.input(&format!("i{i}"))).collect();
    let mut conds: Vec<NodeId> = Vec::new();

    for _layer in 0..depth {
        let mut fresh: Vec<NodeId> = Vec::new();
        for _slot in 0..width {
            let roll: u16 = rng.gen_range(0u16..1000);
            if roll < mux_permille {
                // A multiplexor; grow the comparator pool first if empty.
                if conds.is_empty() {
                    let a = pick(rng, &values);
                    let c = pick(rng, &values);
                    conds.push(b.gt(a, c).expect("comparator operands"));
                }
                let sel = pick(rng, &conds);
                let lo = pick(rng, &values);
                let hi = pick(rng, &values);
                fresh.push(b.mux(sel, lo, hi).expect("mux operands"));
            } else if roll < mux_permille.saturating_add(120) {
                let a = pick(rng, &values);
                let c = pick(rng, &values);
                conds.push(b.gt(a, c).expect("comparator operands"));
            } else {
                let a = pick(rng, &values);
                let c = pick(rng, &values);
                // Arithmetic mix weighted towards the cheap operations,
                // with enough multipliers to make shutdown worthwhile.
                let node = match rng.gen_range(0u16..11) {
                    0..=4 => b.add(a, c),
                    5..=8 => b.sub(a, c),
                    _ => b.mul(a, c),
                }
                .expect("arithmetic operands");
                fresh.push(node);
            }
        }
        values.extend(fresh);
    }
    emit_sinks(&mut b);
    b.finish().expect("random dag is structurally valid")
}

/// A conditional-heavy multiplexor tree of the given depth.
///
/// `2^depth` small arithmetic leaves are selected through a complete binary
/// tree of multiplexors; each tree level shares one fresh comparator (a
/// nested if/else ladder), so almost the whole datapath sits inside
/// mutually exclusive, shutdownable branches — the structure the paper's
/// transformation exploits best.
pub fn mux_tree(name: &str, rng: &mut StdRng, depth: u32) -> Cdfg {
    let mut b = CdfgBuilder::new(name);
    let n_inputs = 4 + rng.gen_range(0u32..3);
    let inputs: Vec<NodeId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();

    let leaves = 1usize << depth.min(6);
    let mut level: Vec<NodeId> = (0..leaves)
        .map(|_| {
            let a = pick(rng, &inputs);
            let c = pick(rng, &inputs);
            match rng.gen_range(0u16..10) {
                0..=3 => b.add(a, c),
                4..=6 => b.sub(a, c),
                _ => b.mul(a, c),
            }
            .expect("leaf operands")
        })
        .collect();

    while level.len() > 1 {
        let a = pick(rng, &inputs);
        let c = pick(rng, &inputs);
        let sel = b.gt(a, c).expect("level comparator");
        level =
            level.chunks(2).map(|pair| b.mux(sel, pair[0], pair[1]).expect("tree mux")).collect();
    }
    b.output("root", level[0]).expect("root output");
    // Every node is consumed by construction: leaves and level comparators
    // feed the tree muxes, interior muxes the next level, and the root the
    // output just added — so sink emission has provably nothing to do here
    // (debug builds assert that instead of paying for the scan).
    debug_assert_eq!(emit_sinks(&mut b), 0, "mux tree left a dangling node");
    b.finish().expect("mux tree is structurally valid")
}

/// A DSP-like kernel; `index mod 3` cycles through an FIR tap chain, an
/// IIR-style section and a butterfly ladder so one spec covers all three.
pub fn dsp_chain(name: &str, rng: &mut StdRng, taps: u32, index: usize) -> Cdfg {
    match index % 3 {
        0 => fir(name, rng, taps),
        1 => iir(name, rng, taps),
        _ => butterfly(name, rng, taps),
    }
}

/// FIR filter: per-tap constant multiplies, an accumulation chain, and a
/// conditional saturation stage on the way out.
fn fir(name: &str, rng: &mut StdRng, taps: u32) -> Cdfg {
    let mut b = CdfgBuilder::new(name);
    let xs: Vec<NodeId> = (0..taps).map(|i| b.input(&format!("x{i}"))).collect();
    let mut acc: Option<NodeId> = None;
    for &x in &xs {
        let coeff = b.constant(rng.gen_range(1i64..32));
        let prod = b.mul(coeff, x).expect("tap product");
        acc = Some(match acc {
            None => prod,
            Some(sum) => b.add(sum, prod).expect("tap accumulate"),
        });
    }
    let sum = acc.expect("at least two taps");
    let limit = b.constant(rng.gen_range(64i64..256));
    let over = b.gt(sum, limit).expect("saturation compare");
    let clamped = b.mux(over, sum, limit).expect("saturation mux");
    b.output("y", clamped).expect("output");
    b.finish().expect("fir is structurally valid")
}

/// IIR-style section: a feed-forward and a feedback half (previous outputs
/// arrive as primary inputs — one iteration of the recurrence), plus a
/// bypass multiplexor driven by an enable comparison.
fn iir(name: &str, rng: &mut StdRng, taps: u32) -> Cdfg {
    let mut b = CdfgBuilder::new(name);
    let x = b.input("x");
    // Exactly `taps` multiply/accumulate taps in total: ceil on the
    // feed-forward half, floor on the feedback half.
    let forward = taps.div_ceil(2);
    let feedback = (taps / 2).max(1);

    let mut acc = x;
    for i in 0..forward {
        let state = b.input(&format!("x{}", i + 1));
        let coeff = b.constant(rng.gen_range(1i64..16));
        let prod = b.mul(coeff, state).expect("forward product");
        acc = b.add(acc, prod).expect("forward accumulate");
    }
    for i in 0..feedback {
        let state = b.input(&format!("y{}", i + 1));
        let coeff = b.constant(rng.gen_range(1i64..16));
        let prod = b.mul(coeff, state).expect("feedback product");
        acc = b.sub(acc, prod).expect("feedback subtract");
    }
    let threshold = b.constant(rng.gen_range(1i64..32));
    let enabled = b.ge(x, threshold).expect("enable compare");
    let out = b.mux(enabled, x, acc).expect("bypass mux");
    b.output("y", out).expect("output");
    b.finish().expect("iir is structurally valid")
}

/// Butterfly ladder: FFT-style `(a+b, a-b)` stages over a power-of-two
/// vector, with a conditional right-shift (block-floating-point style
/// overflow scaling) between stages.
fn butterfly(name: &str, rng: &mut StdRng, taps: u32) -> Cdfg {
    let mut b = CdfgBuilder::new(name);
    let lanes = (taps.next_power_of_two()).clamp(4, 16) as usize;
    let mut values: Vec<NodeId> = (0..lanes).map(|i| b.input(&format!("a{i}"))).collect();
    let one = b.constant(1);
    let stages = 2 + (lanes.trailing_zeros() % 2);

    for _stage in 0..stages {
        let mut next = Vec::with_capacity(values.len());
        for pair in values.chunks(2) {
            let sum = b.add(pair[0], pair[1]).expect("butterfly sum");
            let diff = b.sub(pair[0], pair[1]).expect("butterfly diff");
            next.push(sum);
            next.push(diff);
        }
        // Conditional scaling: if the first lane overflows a random limit,
        // every lane is shifted right one bit.
        let limit = b.constant(rng.gen_range(128i64..1024));
        let ovf = b.gt(next[0], limit).expect("overflow compare");
        values = next
            .into_iter()
            .map(|v| {
                let scaled = b.op(Op::Shr, &[v, one]).expect("scale shift");
                b.mux(ovf, v, scaled).expect("scale mux")
            })
            .collect();
    }
    for (i, v) in values.iter().enumerate() {
        b.output(&format!("y{i}"), *v).expect("lane output");
    }
    b.finish().expect("butterfly is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_dag_has_the_requested_shape_knobs() {
        let g = random_dag("t", &mut rng(1), 6, 8, 300);
        g.validate().unwrap();
        let counts = g.op_counts();
        assert!(counts.mux > 0, "mux density 300 produces multiplexors");
        assert!(counts.comp > 0);
        assert!(g.critical_path_length() >= 1);
    }

    #[test]
    fn random_dag_with_zero_mux_density_has_no_muxes() {
        let g = random_dag("t", &mut rng(2), 4, 4, 0);
        assert_eq!(g.op_counts().mux, 0);
    }

    #[test]
    fn mux_tree_is_mux_dominated() {
        let g = mux_tree("t", &mut rng(3), 4);
        g.validate().unwrap();
        let counts = g.op_counts();
        // 2^4 leaves need 15 tree muxes over 4 shared level comparators.
        assert!(counts.mux >= 15);
        assert!(counts.mux > counts.add + counts.sub, "conditional-heavy by construction");
    }

    #[test]
    fn dsp_variants_cycle_by_index() {
        let fir = dsp_chain("f", &mut rng(4), 8, 0);
        let iir = dsp_chain("i", &mut rng(4), 8, 1);
        let bfly = dsp_chain("b", &mut rng(4), 8, 2);
        for g in [&fir, &iir, &bfly] {
            g.validate().unwrap();
        }
        assert_eq!(fir.op_counts().mul, 8, "one multiplier per FIR tap");
        assert!(iir.op_counts().sub > 0, "feedback half subtracts");
        assert!(bfly.op_counts().mux >= 8, "conditional scaling muxes");
    }

    #[test]
    fn builders_are_deterministic_for_equal_streams() {
        let a = random_dag("t", &mut rng(9), 5, 5, 250);
        let b = random_dag("t", &mut rng(9), 5, 5, 250);
        assert_eq!(cdfg::dot::to_dot(&a), cdfg::dot::to_dot(&b));
    }
}
