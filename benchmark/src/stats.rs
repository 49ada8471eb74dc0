//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// two nearest ranks. Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `p`-th percentile, or `None` when fewer than ten samples lie
/// beyond it (a tail read off fewer is noise).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - p / 100.0).min(p / 100.0);
    (beyond >= 10.0).then(|| quantile(samples, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..500).map(f64::from).collect();
        // 1 % of 500 is 5 samples: p99 is refused, p90 (50 beyond) stands.
        assert_eq!(percentile(&v, 99.0), None);
        assert!(percentile(&v, 90.0).is_some());
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert!(percentile(&v[..20], 50.0).is_some());
    }
}
