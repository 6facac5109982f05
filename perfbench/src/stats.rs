//! Order statistics over measured samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between
/// order statistics. Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above `threshold`.
pub fn beyond(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&s| s > threshold).count()
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Divides, answering 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
