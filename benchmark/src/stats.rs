//! Order statistics and the reporting rules the benchmark applies to
//! every timing it prints.

/// Sorted copy of `values` (NaN-free input assumed; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spread a reader computes
/// from printed samples matches this report. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// A tail percentile chosen by the reporting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 means the slowest sample).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile.
    pub beyond: usize,
}

/// Percentiles the rule chooses among, from least to most extreme.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder with at least ten samples beyond
/// it (nearest-rank). With fewer than twenty samples no percentile
/// qualifies and the slowest sample is reported as percentile 100.
/// `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let chosen = LADDER.iter().rev().find_map(|&p| {
        // The epsilon keeps float error in `n·p` from bumping an exact rank.
        let rank = ((n as f64) * p / 100.0 - 1e-9).ceil() as usize;
        let beyond = n - rank.max(1);
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank.max(1) - 1],
            beyond,
        })
    });
    Some(chosen.unwrap_or(Tail {
        percentile: 100.0,
        value: v[n - 1],
        beyond: 0,
    }))
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=8000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        // p99.9 would leave only 8 samples beyond; p99 leaves 80.
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 7920.0);
        assert_eq!(t.beyond, 80);

        let v: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 99.9);

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_slowest_sample() {
        let t = tail(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 5.0, 0));
        assert!(tail(&[]).is_none());
        // 19 samples: p50 leaves only 9 beyond.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 100.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "core.scan.merge_ms",
            "nn.gemm_calls_per_window",
            "p99-ms",
            "9a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
