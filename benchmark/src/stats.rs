//! Order statistics over timing samples.

/// Sample count, extremes, median and quartiles of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `p`-quantile (`0.0..=1.0`) with linear interpolation between the
/// two closest ranks — the same rule for the median, the quartiles and
/// the tail percentiles, so every reported order statistic is comparable.
///
/// # Panics
/// Panics on an empty sample: every timing is taken at least once.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    quantile_of_sorted(&sorted(samples), p)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn quantile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = sorted(samples);
    let at = |p| quantile_of_sorted(&sorted, p);
    Summary {
        n: sorted.len(),
        min: at(0.0),
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        max: at(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.5], 0.5), 7.5);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!((s.min, s.max), (1.0, 5.0));
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
    }

    #[test]
    fn tail_percentile_and_extremes() {
        let samples: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.999), 999.0);
        assert_eq!(quantile(&samples, 0.0), 0.0);
        assert_eq!(quantile(&samples, 1.0), 1000.0);
        // out-of-range p clamps rather than indexing out of bounds
        assert_eq!(quantile(&samples, 1.5), 1000.0);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        assert_eq!(
            summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]),
            summarize(&[1.0, 2.0, 3.0, 4.0, 5.0])
        );
    }
}
