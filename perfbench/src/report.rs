//! Metric records, summary statistics and the result line.

use std::collections::BTreeMap;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for single measurements).
    pub samples: usize,
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    /// Operations attempted (flushes or traces).
    pub attempted: u64,
    /// Operations that failed an output check or got no answer.
    pub failed: u64,
    /// Why checks failed, for the human-readable part of the output.
    pub failures: Vec<String>,
}

impl Report {
    /// Records `name`; a later record under the same name replaces it.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64, "count", 1);
    }

    /// Records p50 and p99 of `values` as `<name>.p50` and `<name>.p99`.
    pub fn percentiles(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.set(
            &format!("{name}.p50"),
            percentile(values, 50.0),
            unit,
            values.len(),
        );
        self.set(
            &format!("{name}.p99"),
            percentile(values, 99.0),
            unit,
            values.len(),
        );
    }

    /// Counts a failed check (with `operations` failed operations).
    pub fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations.max(1);
        self.failures.push(why);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Prints every metric in `names` by name, unit and sample count, then
    /// the one-line JSON result. A name the workload did not record is a bug
    /// in the benchmark and panics.
    pub fn print(&self, names: &[(&str, &str)]) {
        for why in &self.failures {
            println!("CHECK FAILED: {why}");
        }
        let mut json = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let metric = self
                .metrics
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(metric.unit, *unit, "unit of {name}");
            println!(
                "{name:<34} {:>16} {:<6} (n={})",
                format!("{:.6}", metric.value),
                metric.unit,
                metric.samples
            );
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(metric.value),
                metric.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted samples; 0
/// for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a few repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}
