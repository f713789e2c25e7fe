//! Small statistics toolbox used across FTIO-rs.
//!
//! Everything operates on `&[f64]` and is written so empty inputs return
//! well-defined values (usually `0.0` or `NaN`-free defaults) rather than
//! panicking, because the analysis pipeline frequently deals with empty
//! candidate sets (e.g. no outliers found).

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Weighted arithmetic mean. Returns `0.0` if the weights sum to zero.
///
/// # Panics
///
/// Panics if `data` and `weights` have different lengths.
pub fn weighted_mean(data: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        data.len(),
        weights.len(),
        "weighted_mean: data and weights must have the same length"
    );
    let wsum: f64 = weights.iter().sum();
    if wsum == 0.0 {
        return 0.0;
    }
    data.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>() / wsum
}

/// Running first and second moments, accumulated in a single pass with
/// Welford's algorithm (numerically stable: no catastrophic cancellation
/// between a large mean and a small spread).
///
/// This is the fused kernel behind [`variance`], [`std_dev`],
/// [`mean_and_std`] and the Z-score machinery in [`crate::zscore`]: the hot
/// outlier-detection path used to walk the data once for the mean, once more
/// (inside the variance) for a second mean, and again for the squared
/// deviations — `Moments` replaces all of that with one pass and no
/// intermediate allocations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Moments {
    /// Number of accumulated samples.
    pub count: usize,
    /// Running arithmetic mean.
    pub mean: f64,
    /// Sum of squared deviations from the running mean (`M2` in Welford's
    /// recurrence); divide by `count` for the population variance.
    pub m2: f64,
}

impl Moments {
    /// Accumulates the moments of `data` in one pass.
    pub fn of(data: &[f64]) -> Self {
        let mut moments = Moments::default();
        for &x in data {
            moments.push(x);
        }
        moments
    }

    /// Accumulates the moments of an iterator (used to fold `|x|` magnitudes
    /// without materialising them).
    pub fn of_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut moments = Moments::default();
        for x in iter {
            moments.push(x);
        }
        moments
    }

    /// Folds one sample into the running moments.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Population variance (divides by `N`); `0.0` for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Population variance (divides by `N`). Returns `0.0` for fewer than two
/// samples. Single pass ([`Moments`]).
pub fn variance(data: &[f64]) -> f64 {
    Moments::of(data).variance()
}

/// Population standard deviation.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Mean and population standard deviation in one fused pass. An empty slice
/// yields `(0.0, 0.0)` (the fold's starting values).
pub fn mean_and_std(data: &[f64]) -> (f64, f64) {
    let moments = Moments::of(data);
    (moments.mean, moments.std_dev())
}

/// Coefficient of variation `σ/µ` (population σ). Returns `0.0` when the mean
/// is zero. Single pass ([`Moments`]).
pub fn coefficient_of_variation(data: &[f64]) -> f64 {
    let (m, sd) = mean_and_std(data);
    if m == 0.0 {
        return 0.0;
    }
    sd / m.abs()
}

/// Geometric mean of strictly positive values.
///
/// Values `<= 0` are ignored; returns `0.0` if no positive values remain. The
/// Set-10 evaluation (paper §IV) aggregates stretch and I/O slowdown with the
/// geometric mean.
pub fn geometric_mean(data: &[f64]) -> f64 {
    let logs: Vec<f64> = data.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Median (linear interpolation is not needed: even lengths average the two middle values).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 50.0)
}

/// Percentile in `[0, 100]` using linear interpolation between closest ranks.
///
/// Returns `0.0` for an empty slice.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in data"));
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Minimum value; `0.0` for an empty slice.
pub fn min(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value; `0.0` for an empty slice.
pub fn max(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Five-number summary plus mean, matching what the paper's box plots show.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoxStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub count: usize,
    /// Lower whisker at `Q1 - 1.5*IQR`, clamped to the data range.
    pub whisker_lo: f64,
    /// Upper whisker at `Q3 + 1.5*IQR`, clamped to the data range.
    pub whisker_hi: f64,
    /// Number of observations outside the whiskers.
    pub outliers: usize,
}

impl BoxStats {
    /// Computes the summary for `data`. The whiskers use the conventional
    /// `1.5 * IQR` rule used by the paper's box plots (Fig. 8 and 17).
    pub fn from(data: &[f64]) -> Self {
        if data.is_empty() {
            return BoxStats::default();
        }
        let q1 = percentile(data, 25.0);
        let q3 = percentile(data, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let dmin = min(data);
        let dmax = max(data);
        let whisker_lo = data
            .iter()
            .copied()
            .filter(|&x| x >= lo_fence)
            .fold(f64::INFINITY, f64::min);
        let whisker_hi = data
            .iter()
            .copied()
            .filter(|&x| x <= hi_fence)
            .fold(f64::NEG_INFINITY, f64::max);
        let outliers = data
            .iter()
            .filter(|&&x| x < lo_fence || x > hi_fence)
            .count();
        BoxStats {
            min: dmin,
            q1,
            median: percentile(data, 50.0),
            q3,
            max: dmax,
            mean: mean(data),
            count: data.len(),
            whisker_lo,
            whisker_hi,
            outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_sequence() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn weighted_mean_matches_hand_computation() {
        let v = weighted_mean(&[1.0, 3.0], &[1.0, 3.0]);
        assert!((v - 2.5).abs() < 1e-12);
        assert_eq!(weighted_mean(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn weighted_mean_length_mismatch_panics() {
        weighted_mean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn variance_and_std_dev() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&data) - 4.0).abs() < 1e-12);
        assert!((std_dev(&data) - 2.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn fused_moments_match_the_two_pass_definitions() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let moments = Moments::of(&data);
        assert_eq!(moments.count, 8);
        let two_pass_mean = data.iter().sum::<f64>() / data.len() as f64;
        let two_pass_var = data
            .iter()
            .map(|x| (x - two_pass_mean) * (x - two_pass_mean))
            .sum::<f64>()
            / data.len() as f64;
        assert!((moments.mean - two_pass_mean).abs() < 1e-12);
        assert!((moments.variance() - two_pass_var).abs() < 1e-12);
        let (m, sd) = mean_and_std(&data);
        assert!((m - two_pass_mean).abs() < 1e-12);
        assert!((sd - two_pass_var.sqrt()).abs() < 1e-12);
        // Welford stays stable when a large offset dwarfs the spread.
        let offset: Vec<f64> = data.iter().map(|x| x + 1.0e9).collect();
        assert!((variance(&offset) - two_pass_var).abs() < 1e-6);
        // Degenerate sizes keep their documented defaults.
        assert_eq!(mean_and_std(&[]), (0.0, 0.0));
        assert_eq!(mean_and_std(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn coefficient_of_variation_basic() {
        let data = [10.0, 10.0, 10.0];
        assert_eq!(coefficient_of_variation(&data), 0.0);
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&data) - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn geometric_mean_ignores_non_positive() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0, 0.0, -3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[-1.0]), 0.0);
    }

    #[test]
    fn median_and_percentiles() {
        let data = [7.0, 1.0, 3.0, 5.0];
        assert!((median(&data) - 4.0).abs() < 1e-12);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 7.0);
        let odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&odd), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let data = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&data, -5.0), 1.0);
        assert_eq!(percentile(&data, 150.0), 3.0);
    }

    #[test]
    fn min_max_handle_empty() {
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(min(&[3.0, -1.0, 2.0]), -1.0);
        assert_eq!(max(&[3.0, -1.0, 2.0]), 3.0);
    }

    #[test]
    fn box_stats_quartiles_and_whiskers() {
        let data: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let b = BoxStats::from(&data);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 9.0);
        assert_eq!(b.count, 9);
        assert_eq!(b.outliers, 0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 9.0);
    }

    #[test]
    fn box_stats_flags_outliers() {
        let mut data: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        data.push(1000.0);
        let b = BoxStats::from(&data);
        assert_eq!(b.outliers, 1);
        assert!(b.whisker_hi <= 20.0);
        assert_eq!(b.max, 1000.0);
    }

    #[test]
    fn box_stats_empty_is_default() {
        assert_eq!(BoxStats::from(&[]), BoxStats::default());
    }
}
