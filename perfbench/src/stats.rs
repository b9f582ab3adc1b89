//! Order statistics for the benchmark's timings.

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank index of the `permille`-th per-mille percentile in a
/// sorted sample of `n` values.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).max(1) - 1
}

/// A percentile read off a sample, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in tenths of a percent (990 = p99).
    pub permille: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

impl Tail {
    /// The percentile as a label, e.g. `p99` or `p99.9`.
    pub fn label(&self) -> String {
        if self.permille % 10 == 0 {
            format!("p{}", self.permille / 10)
        } else {
            format!("p{}.{}", self.permille / 10, self.permille % 10)
        }
    }
}

/// The value at `permille` (nearest rank), if at least ten samples lie
/// beyond it.
pub fn percentile(values: &[f64], permille: u32) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let index = rank(n, permille);
    let beyond = n - 1 - index;
    (beyond >= 10).then(|| Tail { permille, value: sorted[index], beyond })
}

/// The highest percentile of the ladder (p99.9, p99, p95, p90, p75, p50)
/// that still has at least ten samples beyond it; `None` for fewer than
/// eleven samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    tail_at_most(values, TAIL_LADDER[0])
}

/// The highest ladder percentile at or below `cap` with at least ten
/// samples beyond it.
pub fn tail_at_most(values: &[f64], cap: u32) -> Option<Tail> {
    TAIL_LADDER.iter().filter(|&&p| p <= cap).find_map(|&permille| percentile(values, permille))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(rank(100, 990), 98);
        assert_eq!(rank(100, 500), 49);
        assert_eq!(rank(1, 990), 0);
    }
}
