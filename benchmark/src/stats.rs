//! Order statistics over timing samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample, by the
/// serving crate's rule; `NaN` for an empty sample so a missing measurement
/// can never pass as a number.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        ie_serve::percentile(values, q)
    }
}

/// Median of an unsorted sample: the mean of the two middle values for an
/// even count, so two samples report their midpoint rather than the lower.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_rules() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
