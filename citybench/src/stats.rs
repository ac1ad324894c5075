//! Order statistics over one run's op timings.

/// Fewest samples that must lie beyond a reported tail percentile. A
/// tail read off fewer samples than this is a handful of outliers, not
/// a percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile of `values`, refused (`Err`) when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie above it.
pub fn tail(values: &[f64], p: f64) -> Result<f64, String> {
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed"
        ));
    }
    Ok(sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value with exactly 10 beyond it.
        assert_eq!(tail(&hundred, 90.0), Ok(90.0));
        // p99 of 100 samples would rest on a single sample.
        assert!(tail(&hundred, 99.0).is_err());
        // One sample fewer and p90 has only 9 beyond it.
        assert!(tail(&hundred[..99], 90.0).is_err());
        assert!(tail(&[], 50.0).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 99.0), Ok(990.0));
    }
}
