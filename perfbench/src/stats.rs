//! The benchmark's own arithmetic: medians, tail percentiles with their
//! sample support, and shares that always carry their base.

/// 1-based nearest rank of the `per_mille`-th permille in `n` samples,
/// in integers so that e.g. p99 of 1000 samples is exactly rank 990.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of `sorted` (ascending), given in permille
/// (`990` is p99).
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((1..=1000).contains(&per_mille), "percentile {per_mille}‰ out of range");
    sorted[rank(per_mille, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank p50 of an unsorted sample: the same rank rule as every
/// reported tail percentile, so a tail is never below it.
pub fn p50(values: &[f64]) -> f64 {
    percentile(&sorted(values), 500)
}

/// Ascending copy of `values` (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Percentiles (in permille) a tail falls back to, highest first.
const TAIL_LADDER: [usize; 5] = [990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile this is (e.g. `99.0`).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly greater than the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The `per_mille` percentile of `values`, if at least [`TAIL_SUPPORT`]
/// samples lie beyond its rank.
pub fn tail_at(values: &[f64], per_mille: usize) -> Option<Tail> {
    let n = values.len();
    let beyond = n.saturating_sub(rank(per_mille, n));
    (n > 0 && beyond >= TAIL_SUPPORT).then(|| Tail {
        percentile: per_mille as f64 / 10.0,
        value: percentile(&sorted(values), per_mille),
        beyond,
        samples: n,
    })
}

/// The highest percentile on the fallback ladder with at least
/// [`TAIL_SUPPORT`] samples beyond its rank, or `None` when even the median
/// lacks that support (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    TAIL_LADDER.iter().find_map(|&pm| tail_at(values, pm))
}

/// The workload's tail percentile `per_mille` when the sample supports it,
/// else the highest supported percentile, else the maximum; with a line
/// naming which it is and the sample count.
pub fn tail_or_max(values: &[f64], per_mille: usize) -> (f64, String) {
    match tail_at(values, per_mille).or_else(|| tail(values)) {
        Some(t) => (
            t.value,
            format!("p{} of {} samples ({} beyond it)", t.percentile, t.samples, t.beyond),
        ),
        None => (
            percentile(&sorted(values), 1000),
            format!("the maximum of {} samples: too few for a percentile", values.len()),
        ),
    }
}

/// A ratio that is never printed without its base.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Share {
    /// Numerator.
    pub part: u64,
    /// Denominator.
    pub base: u64,
}

impl Share {
    /// `part / base`, or `None` for an empty base.
    pub fn value(&self) -> Option<f64> {
        (self.base > 0).then(|| self.part as f64 / self.base as f64)
    }
}

impl std::fmt::Display for Share {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v:.6} ({} of {})", self.part, self.base),
            None => write!(f, "n/a (0 of 0)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p50_is_a_sample() {
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn tail_picks_highest_supported_percentile() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s).expect("supported");
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 990.0, 10, 1000));
        assert_eq!(tail_at(&s, 999), None, "p99.9 of 1000 has 1 sample beyond it");
        // 999 samples: p99 has 9 beyond (rank 990), so p95 is reported.
        let t = tail(&s[..999]).expect("supported");
        assert_eq!(t.percentile, 95.0);
        assert!(t.beyond >= TAIL_SUPPORT);
        // 40 samples: p75 has 10 beyond; p90 only 4.
        let t = tail(&s[..40]).expect("supported");
        assert_eq!((t.percentile, t.beyond), (75.0, 10));
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        assert_eq!(tail(&[]), None);
        let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>()).expect("median supported");
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn tail_or_max_says_which() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_or_max(&s, 900), (180.0, "p90 of 200 samples (20 beyond it)".to_owned()));
        // p90 of 40 has 4 beyond it: fall back to the highest supported.
        assert_eq!(
            tail_or_max(&s[..40], 900),
            (30.0, "p75 of 40 samples (10 beyond it)".to_owned())
        );
        let (max, why) = tail_or_max(&s[..5], 900);
        assert_eq!(max, 5.0);
        assert!(why.starts_with("the maximum of 5 samples"), "{why}");
    }

    #[test]
    fn share_always_shows_its_base() {
        let s = Share { part: 3, base: 4 };
        assert_eq!(s.value(), Some(0.75));
        assert_eq!(s.to_string(), "0.750000 (3 of 4)");
        let empty = Share { part: 0, base: 0 };
        assert_eq!(empty.value(), None);
        assert_eq!(empty.to_string(), "n/a (0 of 0)");
    }
}
