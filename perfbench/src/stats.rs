//! Percentiles, the median band, the stage-sum arithmetic and the result
//! line: the pure parts of the benchmark, kept apart so they are tested.

use std::fmt::Write as _;

/// Samples that must lie strictly above a percentile's rank before the
/// percentile is reported as measured rather than guessed.
pub const TAIL_MIN: usize = 10;

/// Percentiles the tail report chooses from, highest first.
pub const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n that is integral in exact arithmetic from
    // rounding up a rank when the product lands a hair above it.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether `n` samples leave at least [`TAIL_MIN`] samples beyond the
/// rank of quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= TAIL_MIN
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn tail_quantile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| supports(n, q))
}

/// Sorts a copy ascending (`NaN` never occurs: failures are `+inf`).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), 0.5)
    }
}

/// Mean of values (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Indices of the rows whose total falls in the middle fifth of the
/// distribution (ranks 40 % to 60 %), at least one row: the "typical"
/// requests whose stage times explain the median.
pub fn median_band(totals: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..totals.len()).collect();
    order.sort_by(|&a, &b| totals[a].total_cmp(&totals[b]));
    let n = order.len();
    if n == 0 {
        return order;
    }
    let lo = n * 2 / 5;
    let hi = (n * 3).div_ceil(5).max(lo + 1).min(n);
    order[lo..hi].to_vec()
}

/// A median round trip split into stages that add up to it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSum {
    /// Median of the per-request totals.
    pub total: f64,
    /// Each stage's mean over the median band, in input order.
    pub stages: Vec<(&'static str, f64)>,
    /// `total` minus the stages: what no stage explains.
    pub residual: f64,
}

/// Splits the median of `totals` into the band means of each stage
/// column (`rows[i][s]` is request `i`'s time in stage `s`) plus a
/// residual, so that the stages and the residual sum to the median.
pub fn stage_sum(names: &[&'static str], rows: &[Vec<f64>], totals: &[f64]) -> StageSum {
    assert_eq!(rows.len(), totals.len(), "one stage row per total");
    let band = median_band(totals);
    let stages: Vec<(&'static str, f64)> = names
        .iter()
        .enumerate()
        .map(|(s, &name)| {
            let column: Vec<f64> = band.iter().map(|&i| rows[i][s]).collect();
            (name, mean(&column))
        })
        .collect();
    let total = median(totals);
    let explained: f64 = stages.iter().map(|(_, v)| v).sum();
    StageSum {
        total,
        stages,
        residual: total - explained,
    }
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// A JSON number with all its digits; a non-finite value (a failed op
/// counted as `+inf`) becomes the largest finite double.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Panics on an invalid or repeated name, which
/// is a bug in the benchmark.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "invalid unit {:?}", m.unit);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {:?} reported twice",
            m.name
        );
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99), "rank 990 leaves 10 beyond");
        assert!(!supports(999, 0.99), "rank 990 leaves 9 beyond");
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let with_failure = sorted(&[3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(
            percentile(&with_failure, 1.0),
            f64::INFINITY,
            "a failure ranks last"
        );
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn band_is_the_middle_fifth() {
        let totals: Vec<f64> = (0..10).rev().map(f64::from).collect();
        let mut band: Vec<f64> = median_band(&totals).iter().map(|&i| totals[i]).collect();
        band.sort_by(f64::total_cmp);
        assert_eq!(band, vec![4.0, 5.0]);
        assert_eq!(median_band(&[9.0]), vec![0]);
        assert_eq!(median_band(&[2.0, 1.0]).len(), 2);
        assert!(median_band(&[]).is_empty());
    }

    #[test]
    fn stages_and_residual_sum_to_the_median() {
        // Ten requests; each spends 1 in "a", i in "b", the rest unexplained.
        let totals: Vec<f64> = (0..10).map(|i| 10.0 + 2.0 * i as f64).collect();
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64]).collect();
        let s = stage_sum(&["a", "b"], &rows, &totals);
        assert_eq!(s.total, 18.0, "nearest-rank median of 10..28 step 2");
        assert_eq!(
            s.stages,
            vec![("a", 1.0), ("b", 4.5)],
            "band is requests 4 and 5"
        );
        assert_eq!(s.residual, 12.5);
        let sum: f64 = s.stages.iter().map(|(_, v)| v).sum::<f64>() + s.residual;
        assert_eq!(sum, s.total);
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        for ok in [
            "p50_ms",
            "client.wait_us",
            "setup_s",
            "ppa.first_response_us",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ü",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "us", "MB", "ratio", "bytes"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-and-more!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.into(),
            value,
            unit,
        };
        let line = result_line(
            true,
            12,
            1,
            &[m("p50_ms", 1.25, "ms"), m("p99_ms", f64::INFINITY, "ms")],
        );
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.ends_with("}}"));
        assert!(!line.contains("inf"), "JSON has no infinity");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn result_line_rejects_a_repeated_name() {
        let m = Metric {
            name: "x".into(),
            value: 1.0,
            unit: "ms",
        };
        result_line(true, 1, 0, &[m.clone(), m]);
    }
}
