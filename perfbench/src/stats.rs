//! Order statistics for job timings.

/// Minimum number of jobs strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest percentile of a timing sample that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent: the share of samples at or below `value`.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub count: usize,
}

/// The `(count - 10)`-th smallest of `count` samples: the highest order
/// statistic with ten samples beyond it, at percentile
/// `100 * (count - 10) / count`. With ten samples or fewer no sample has
/// ten beyond it, and the tail is the maximum at percentile 100.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let count = s.len();
    if count == 0 {
        return None;
    }
    if count <= TAIL_BEYOND {
        return Some(Tail { value: s[count - 1], percentile: 100.0, count });
    }
    let at = count - TAIL_BEYOND;
    Some(Tail { value: s[at - 1], percentile: 100.0 * at as f64 / count as f64, count })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `num / den`, or `0.0` when `den` is zero (a layer the workload never
/// reaches).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 90th smallest is 90, with 91..=100 beyond it.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.count, 100);
        let beyond = samples.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let samples: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 390.0);
        assert_eq!(t.percentile, 97.5);
    }

    #[test]
    fn tail_of_eleven_samples_is_the_smallest() {
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_small_samples_is_the_maximum() {
        let t = tail(&[0.2, 0.1, 0.3]).unwrap();
        assert_eq!(t.value, 0.3);
        assert_eq!(t.percentile, 100.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn metric_name_charset() {
        for good in ["setup_s", "job_p50_s", "sched.steal_ratio", "a-b", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "has space", "slash/s", "é", "x\"y", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn ratio_of_zero_denominator_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
