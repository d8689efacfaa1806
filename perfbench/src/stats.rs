//! Order statistics over per-op latency samples.

/// One percentile read from a sample set, with the sample count it rests
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank (nearest-rank method).
    pub value: u64,
    /// Samples the percentile was read from.
    pub count: usize,
}

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th quantile (`0 < p < 1`) of `sorted` (ascending) by the
/// nearest-rank method. Refuses a percentile with fewer than
/// [`MIN_BEYOND`] samples beyond it: such a tail is a handful of single
/// events, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("percentile {p} is outside (0, 1)"));
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            p * 100.0
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        count: n,
    })
}

/// Median of a non-empty list of measurements (mean of the middle pair for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<u64> = (1..=1000).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.count), (500, 1000));
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.count), (990, 1000));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 999 samples put only 9 beyond p99.
        let samples: Vec<u64> = (1..=999).collect();
        assert!(percentile(&samples, 0.99).is_err());
        // Exactly 10 beyond is enough.
        let samples: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&samples, 0.99).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&samples[..15], 0.5).is_err());
        assert!(percentile(&samples, 1.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
