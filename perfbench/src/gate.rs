//! The correctness gate every run passes its outputs through.
//!
//! * Report bytes are fingerprinted with FNV-1a and compared against the
//!   digests pinned in `pins.txt` (the paper's sweep for every seed; the
//!   design exploration and online session for the seeds listed there).
//! * Every exploration front is re-derived from its points: a point is on
//!   the front exactly when no other point of its circuit dominates it.
//! * Service reports are compared byte for byte with the in-process
//!   report of the same job (in the service workload itself).

use engine::{ExplorePoint, ParetoReport};

/// The pinned digests: `<what> <seed or *> <16 hex digits>` per line.
const PINS: &str = include_str!("../pins.txt");

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The digest pinned for `what` at `seed` (or for every seed), if any.
pub fn pinned(what: &str, seed: u64) -> Option<u64> {
    PINS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (name, key, digest) = (fields.next()?, fields.next()?, fields.next()?);
        let applies = key == "*" || key.parse::<u64>().ok() == Some(seed);
        (name == what && applies).then(|| u64::from_str_radix(digest, 16).ok()).flatten()
    })
}

/// Checks `report` against the digest pinned for `what` at `seed`; a
/// report with no pin passes.
///
/// # Errors
///
/// Names the mismatching digest.
pub fn check_pin(what: &str, seed: u64, report: &str) -> Result<(), String> {
    match pinned(what, seed) {
        Some(pin) if pin != fnv1a64(report.as_bytes()) => Err(format!(
            "{what} report digest {:016x} differs from the pinned {pin:016x} (seed {seed})",
            fnv1a64(report.as_bytes())
        )),
        _ => Ok(()),
    }
}

/// Whether `a` dominates `b` on (budget, energy, area), all minimised.
fn dominates(a: &ExplorePoint, b: &ExplorePoint) -> bool {
    let le = |x: f64, y: f64| x.total_cmp(&y).is_le();
    let lt = |x: f64, y: f64| x.total_cmp(&y).is_lt();
    a.budget <= b.budget
        && le(a.energy, b.energy)
        && le(a.area, b.area)
        && (a.budget < b.budget || lt(a.energy, b.energy) || lt(a.area, b.area))
}

/// Sets each point's `on_front` flag from the points of its own walk.
pub fn mark_front(points: &mut [ExplorePoint]) {
    for i in 0..points.len() {
        let dominated = (0..points.len()).any(|j| j != i && dominates(&points[j], &points[i]));
        points[i].on_front = !dominated;
    }
}

/// Checks that every exploration front is exactly the non-dominated set of
/// its circuit's points and that no walk failed.
///
/// # Errors
///
/// Names the first circuit whose front is wrong or whose walk failed.
pub fn check_fronts(report: &ParetoReport) -> Result<(), String> {
    for circuit in &report.circuits {
        if let Some((budget, error)) = circuit.failures.first() {
            return Err(format!("{} failed at budget {budget}: {error}", circuit.circuit));
        }
        let mut derived = circuit.points.clone();
        mark_front(&mut derived);
        for (point, expected) in circuit.points.iter().zip(&derived) {
            if point.on_front != expected.on_front {
                return Err(format!(
                    "{} budget {}: on_front is {} but the point is {}dominated",
                    circuit.circuit,
                    point.budget,
                    point.on_front,
                    if expected.on_front { "not " } else { "" }
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn the_sweep_pin_applies_to_every_seed() {
        assert!(pinned("sweep", 0).is_some());
        assert_eq!(pinned("sweep", 0), pinned("sweep", 123_456_789));
        assert_eq!(pinned("no-such-report", 0), None);
    }
}
