//! Order statistics over raw samples and over the serving layer's
//! fixed-bucket histograms.

use lhmm_eval::histogram::LatencyHistogram;

/// The `q`-quantile of `samples` with linear interpolation between order
/// statistics (the "type 7" estimator). Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of a serving histogram, in seconds, interpolated
/// geometrically inside the bucket that holds the rank.
///
/// `LatencyHistogram::quantile_upper_s` reports the bucket's upper bound,
/// which moves in steps of 2x; interpolating inside bucket
/// `[2^i, 2^(i+1)) µs` by the rank's position among that bucket's samples
/// gives a continuous estimate that can be subtracted from a client-side
/// quantile. Returns 0 for an empty histogram.
pub fn histogram_quantile_s(h: &LatencyHistogram, q: f64) -> f64 {
    let counts = h.bucket_counts();
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut seen = 0.0;
    let finite = counts.len() - 1;
    for (i, &c) in counts[..finite].iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            let frac = (rank - seen) / c;
            let lower = (1u64 << i) as f64 * 1e-6;
            return lower * 2f64.powf(frac);
        }
        seen += c;
    }
    (1u64 << finite) as f64 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(150e-6); // bucket [128, 256) µs
        }
        let p50 = histogram_quantile_s(&h, 0.5);
        assert!((128e-6..=256e-6).contains(&p50), "{p50}");
        assert!(histogram_quantile_s(&h, 0.9) > p50);
        assert_eq!(histogram_quantile_s(&LatencyHistogram::new(), 0.5), 0.0);
    }
}
