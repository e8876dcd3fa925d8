//! Sample summaries, the tail-percentile rule, metric records and the
//! result line.

use std::fmt::Write as _;

/// Percentiles the tail rule chooses among, highest last.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported tail percentile must have beyond it.
const TAIL_SAMPLES: f64 = 10.0;
/// Slack for `1 − p/100` not being exact in binary.
const EPS: f64 = 1e-9;

/// The highest candidate percentile with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES - EPS)
}

/// Sample count needed for percentile `p` to have ten samples beyond it.
pub fn samples_for(p: f64) -> usize {
    ((TAIL_SAMPLES - EPS) / (1.0 - p / 100.0)).ceil() as usize
}

/// Percentile `p` (0–100) of `xs` by linear interpolation between
/// closest ranks.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric: its samples and how to read them.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Every sample; the reported value is their median.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, better: Better, samples: Vec<f64>) -> Self {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(!samples.is_empty(), "metric {name} has no samples");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "metric {name} has a non-finite sample"
        );
        Self {
            name,
            unit,
            better,
            samples,
        }
    }

    /// A metric with a single (exact or already-aggregated) value.
    pub fn one(name: &'static str, unit: &'static str, better: Better, value: f64) -> Self {
        Self::new(name, unit, better, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// `name unit (direction): median [q1, q3] n=…`.
    pub fn table_row(&self) -> String {
        format!(
            "  {:<28} {:>14.6e} {:<6} {:<6} q1 {:.6e} q3 {:.6e} n={}",
            self.name,
            self.value(),
            self.unit,
            self.better.as_str(),
            percentile(&self.samples, 25.0),
            percentile(&self.samples, 75.0),
            self.samples.len()
        )
    }

    fn summary_json(&self) -> String {
        format!(
            "{{\"value\":{},\"unit\":\"{}\",\"better\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{}}}",
            self.value(),
            self.unit,
            self.better.as_str(),
            percentile(&self.samples, 25.0),
            percentile(&self.samples, 75.0),
            self.samples.len()
        )
    }
}

/// The final stdout line: `{"correct","attempted","failed","metrics"}`
/// with each metric as `{"value","unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            m.value(),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// A metric list as a JSON object of full summaries (median, quartiles,
/// sample count), for the results file.
pub fn summaries_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, m.summary_json()))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for p in TAIL_CANDIDATES {
            assert_eq!(tail_percentile(samples_for(p)), Some(p));
            assert!(tail_percentile(samples_for(p) - 1) < Some(p));
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "kernel.spmv_s",
            "parx.kernel_speedup_1t",
            "p-50",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "ünï",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = [
            Metric::one("latency_ms", "ms", Better::Lower, 1.25),
            Metric::new("setup_s", "s", Better::Lower, vec![0.3, 0.1, 0.2]),
        ];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.2, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_samples_are_rejected() {
        let _ = Metric::one("x", "s", Better::Lower, f64::NAN);
    }
}
