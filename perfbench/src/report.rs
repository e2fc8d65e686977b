//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;

use wimesh_obs::json::push_f64;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric with its name, unit and value.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Renders the report as one JSON line. Non-finite values are
    /// written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.metrics.len());
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{\"value\": ", m.name);
            push_f64(&mut out, m.value);
            let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line() {
        let r = RunReport {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", "ms", 1.25),
                Metric::new("bad", "s", f64::NAN),
            ],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
