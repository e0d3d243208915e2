//! Order statistics used by every reported number.

/// Samples beyond a reported tail percentile: a tail value read off fewer
/// samples than this is noise, so the percentile is lowered instead.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in (0, 99].
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile, at most p99, that has at least
/// [`TAIL_SAMPLES_BEYOND`] samples above it (nearest rank). `None` when
/// the sample is too small to leave that many beyond any rank.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank r (1-based) has n - r samples beyond it.
    let p99_rank = (n * 99).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_SAMPLES_BEYOND);
    Some(Tail {
        pct: rank as f64 * 100.0 / n as f64,
        value: v[rank - 1],
        n,
    })
}

/// Latency of one open-loop request, measured from when it was *due*
/// (its slot in the arrival schedule) rather than from when the
/// generator got round to sending it, so a stalled generator cannot
/// hide the wait it imposed. Returns `(latency, generator lag)`, both in
/// the unit of the inputs.
pub fn latency_from_due(due: u64, sent: u64, done: u64) -> (u64, u64) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p99_with_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_drops_below_p99_on_small_samples() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 11 samples leave room for exactly one rank.
        let t = tail(&xs[..11]).unwrap();
        assert_eq!(xs[..11].iter().filter(|&&x| x > t.value).count(), 10);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn tail_caps_at_p99_on_large_samples() {
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 4950.0);
    }

    #[test]
    fn latency_counts_generator_lag() {
        // Due at 100, sent late at 130, done at 180: the request waited
        // 80 from its due time, 30 of them in the generator.
        assert_eq!(latency_from_due(100, 130, 180), (80, 30));
        // A punctual generator adds nothing.
        assert_eq!(latency_from_due(100, 100, 180), (80, 0));
    }
}
