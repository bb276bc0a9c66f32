//! Order statistics with the sample-count discipline the report follows:
//! a timing is a median plus the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, always printed with its sample count.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the report considers, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The median (mean of the two middle values for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The highest sample; `None` when there are no samples. Throughput is
/// reported as the fastest of several identical passes: on a shared host,
/// other tenants only ever slow a pass down (the same pass took up to a
/// third more CPU time during slow spells), so the fastest pass is the least
/// disturbed measurement of the program itself.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::max)
}

/// The nearest-rank `pct`-th percentile, reported only when at least
/// [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The highest of the report's tail percentiles that [`percentile`] allows,
/// as `(percentile, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .iter()
        .find_map(|&pct| percentile(samples, pct).map(|v| (pct, v)))
}

/// One-line rendering of a timing: median, reportable tail and sample count.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let Some(mid) = median(samples) else {
        return "no samples (n=0)".to_string();
    };
    match tail(samples) {
        Some((pct, value)) => format!(
            "p50 {mid:.4} {unit}, p{pct} {value:.4} {unit} (n={})",
            samples.len()
        ),
        None => format!(
            "p50 {mid:.4} {unit}, no tail percentile with {MIN_BEYOND} samples beyond (n={})",
            samples.len()
        ),
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or digit
/// and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fastest_is_the_highest_sample() {
        assert_eq!(fastest(&[]), None);
        assert_eq!(fastest(&[2.0, 7.5, 3.0]), Some(7.5));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 99 samples: p90 has rank 90, leaving 9 beyond — not reportable.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&short, 90.0), None);
        // 100 samples: rank 90, exactly 10 beyond.
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90.0), Some(90.0));
        // p99 of 100 samples has one beyond: refused.
        assert_eq!(percentile(&enough, 99.0), None);
        // So the tail falls back to the highest reportable percentile.
        assert_eq!(tail(&enough), Some((90.0, 90.0)));
        assert_eq!(tail(&short), Some((75.0, 75.0)));
        let tiny = [1.0, 2.0, 3.0];
        assert_eq!(tail(&tiny), None);
        assert!(describe(&tiny, "ms").contains("n=3"));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
    }

    #[test]
    fn metric_name_charset() {
        for good in ["cases_per_s", "tv.decided.refuted-abstract", "9lives", "a"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "slash/name",
            "ünicode",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
