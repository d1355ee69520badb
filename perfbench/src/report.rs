//! Summary statistics, the metric-name grammar and the result line.

use std::fmt::Write as _;

/// Median of `samples` (mean of the middle pair for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean of the middle half of `samples` (the interquartile mean): as
/// robust to outliers as the median, but it moves smoothly when latencies
/// cluster at a few levels, where the median jumps between them. `None`
/// when there are no samples.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    (!mid.is_empty()).then(|| mid.iter().sum::<f64>() / mid.len() as f64)
}

/// The tail of a latency distribution: the highest nearest-rank
/// percentile that still has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (`100 * rank / n`).
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// [`Tail`] of `samples`; `None` with fewer than `TAIL_MARGIN + 1`
/// samples, where no percentile has ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_MARGIN {
        return None;
    }
    // Nearest rank r (1-based) leaves n - r samples beyond it.
    let rank = n - TAIL_MARGIN;
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Metric names: a letter or digit first, then letters, digits, `_`, `.`
/// and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark invocation found: its metrics and the operations
/// it attempted and failed. Failed output checks count as failed
/// operations.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Records a metric. Names and units come from this crate, so a bad
    /// one is a bug here, not an input error.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric { name, unit, value });
    }

    /// Counts one operation or output check; `ok == false` counts it
    /// failed and prints why on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Folds another outcome's counts and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            self.metric(m.name, m.unit, m.value);
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `keep`, in that order. A metric that was not measured, or
    /// is not finite, makes the result incorrect and is reported as 0.
    pub fn result_line(&self, keep: &[&str]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = String::new();
        for (i, name) in keep.iter().enumerate() {
            let (value, unit) = match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => (m.value, m.unit),
                found => {
                    eprintln!("perfbench: metric {name} missing or not finite: {found:?}");
                    correct = false;
                    (0.0, found.map_or("count", |m| m.unit))
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).expect("eleven samples have a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11, 20, 57, 100, 1000, 1234] {
            let v = ramp(n);
            let t = tail(&v).expect("tail");
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_MARGIN, "n = {n}");
            assert!((t.pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
        let t = tail(&ramp(1000)).expect("tail");
        assert!((t.pct - 99.0).abs() < 1e-9, "1000 samples give p99");
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[5.0]), Some(5.0));
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), Some(2.5));
        // Two latency levels: the median jumps, the interquartile mean
        // follows the share of the upper level.
        let mut v = vec![80.0; 50];
        v.extend([100.0; 50]);
        assert_eq!(interquartile_mean(&v), Some(90.0));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "ur8-knee.noc-sim.self_ns_per_node_cycle.mSEEC",
            "seec_accepted_0.12",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "quote\"",
            "ünicode",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("ms") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_is_flat_and_ordered() {
        let mut o = Outcome::default();
        o.metric("b", "s", 0.5);
        o.metric("a", "ms", 1.25);
        o.check(true, String::new);
        assert_eq!(
            o.result_line(&["a", "b"]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // A missing metric makes the run incorrect.
        assert!(o
            .result_line(&["a", "c"])
            .starts_with("{\"correct\": false"));
    }
}
