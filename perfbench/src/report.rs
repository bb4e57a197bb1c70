//! Metrics, percentiles and the run's output lines.
//!
//! Every run prints a human-readable record (host calibration, every
//! metric's sample count and quartiles, workload-specific tables) and, as
//! its last line, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use hap_codec::Value;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail-percentile rule: a percentile `q` is reportable only when at
/// least ten samples lie beyond it, i.e. `n * (1 - q) >= 10` (p99 needs
/// 1000 samples, p90 needs 100, the median 20).
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// A sample of latencies (or any measured quantity). Failed requests are
/// recorded as `+inf`, so they count as missing every latency limit.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    values: Vec<f64>,
}

impl Sample {
    pub fn new() -> Sample {
        Sample::default()
    }

    pub fn from_vec(values: Vec<f64>) -> Sample {
        Sample { values }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Sample) {
        self.values.extend_from_slice(&other.values);
    }

    /// Records a request that failed: it misses every latency limit.
    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` quantile under the tail rule, or an error naming why it
    /// cannot be reported (too few samples, or it lands on a failure).
    pub fn quantile(&self, q: f64) -> Result<f64, String> {
        if !tail_supported(self.len(), q) {
            return Err(format!(
                "p{} needs {} samples, have {}",
                q * 100.0,
                (10.0 / (1.0 - q) - 1e-9).ceil(),
                self.len()
            ));
        }
        let v = nearest_rank(&self.sorted(), q);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("p{} falls on a failed request", q * 100.0))
        }
    }

    /// The sample with every value multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Sample {
        Sample { values: self.values.iter().map(|v| v * factor).collect() }
    }

    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len().max(1) as f64
    }

    /// Median without the tail rule's sample floor (every median of one or
    /// more samples has half the sample beyond it); used for small,
    /// deterministic-work samples such as per-cell plan times.
    pub fn median(&self) -> f64 {
        nearest_rank(&self.sorted(), 0.5)
    }

    /// Count, quartiles, min and max, for the run record.
    pub fn summary(&self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        let s = self.sorted();
        Some(Summary {
            n: s.len(),
            q1: nearest_rank(&s, 0.25),
            median: nearest_rank(&s, 0.5),
            q3: nearest_rank(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
        })
    }
}

/// Dispersion of one metric's underlying sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The sample behind the value (absent for counts and ratios).
    pub summary: Option<Summary>,
}

/// True when `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Accumulates a run's metrics, checks and record lines.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, None);
    }

    pub fn metric_with(&mut self, name: &str, unit: &'static str, value: f64, sample: &Sample) {
        self.push(name, unit, value, sample.summary());
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, summary: Option<Summary>) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.metrics.iter().all(|m| m.name != name), "metric {name} reported twice");
        self.metrics.push(Metric { name: name.to_string(), unit, value, summary });
    }

    /// Reports the `q` quantile of `sample` under the tail rule. A quantile
    /// the sample cannot support fails the run (and reads 0).
    pub fn quantile_metric(&mut self, name: &str, sample: &Sample, q: f64) {
        let value = match sample.quantile(q) {
            Ok(v) => v,
            Err(e) => {
                self.check(false, || format!("{name}: {e}"));
                0.0
            }
        };
        self.metric_with(name, "ms", value, sample);
    }

    /// Records an output check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.check_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Prints every metric with its sample count and quartiles.
    pub fn print_record(&self) {
        println!("# metrics (name = value unit  [n q1 median q3 min max])");
        for m in &self.metrics {
            match &m.summary {
                Some(s) => println!(
                    "#   {} = {} {}  [n={} q1={} med={} q3={} min={} max={}]",
                    m.name, m.value, m.unit, s.n, s.q1, s.median, s.q3, s.min, s.max
                ),
                None => println!("#   {} = {} {}", m.name, m.value, m.unit),
            }
        }
    }

    /// The final JSON line, restricted to the metrics named in `names`
    /// (in that order).
    pub fn result_line(&self, names: &[&str]) -> String {
        let metrics = names
            .iter()
            .map(|&n| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == n)
                    .unwrap_or_else(|| panic!("metric {n} was not measured"));
                (
                    n.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .render()
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty() && values.iter().all(|&v| v > 0.0));
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(100, 0.90));
        assert!(tail_supported(20, 0.5));
        let s = Sample::from_vec((1..=999).map(f64::from).collect());
        assert!(s.quantile(0.99).is_err());
        let s = Sample::from_vec((1..=1000).map(f64::from).collect());
        assert_eq!(s.quantile(0.99).unwrap(), 990.0);
        assert_eq!(s.quantile(0.5).unwrap(), 500.0);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut s = Sample::from_vec((1..=1000).map(f64::from).collect());
        for _ in 0..11 {
            s.push_failed();
        }
        // Eleven failures sit beyond p99 of 1011 samples: the percentile
        // lands on a failure and cannot be reported as a latency.
        assert!(s.quantile(0.99).is_err());
        assert!(s.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["latency_p50_ms", "net.frame_us", "bench.timed.requests_sent", "9a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "lat%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let layer = crate::LAYER_METRICS.iter().map(|(n, _)| n);
        for name in crate::E2E_METRICS.iter().chain(layer) {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = hap_codec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.field(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, crate::E2E_METRICS);
        let layer: Vec<(String, String)> =
            crate::LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("a", "ms", 1.25);
        r.attempted = 3;
        let v = hap_codec::parse(&r.result_line(&["a"])).unwrap();
        let Value::Obj(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.field("metrics")
                .unwrap()
                .field("a")
                .unwrap()
                .field("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.25
        );
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
