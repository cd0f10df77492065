//! Order statistics for timing samples.

/// Median (mean of the two middle values for an even count); `0.0` for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond the tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the `(n − 10)`-th smallest sample, with its percentile. With too few
/// samples for that the maximum is returned, at percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 100.0);
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return (sorted[n - 1], 100.0);
    }
    let index = n - TAIL_BEYOND - 1;
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 is the 30th of 40 samples: exactly ten lie beyond it.
        assert_eq!(tail(&samples), (30.0, 75.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
