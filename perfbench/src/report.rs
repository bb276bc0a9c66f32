//! The run's result: human-readable lines on standard output while the run
//! goes, then one JSON object as the last line.

use crate::stats::valid_metric_name;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric. Every untraced run of every
/// workload reports all of them. Peak resident set is printed next to them
/// but not reported here: on serve-mixed, whose server runs two connections,
/// it depends on whether two large Stage-3 sweeps happen to overlap in time,
/// and moves by a third from run to run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cases_per_s", "cases/s"),
    ("found", "count"),
    ("success_rate", "fraction"),
];

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured work.
    pub attempted: u64,
    /// Operations that failed, were rejected, or failed an output check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric and prints it with its sample count.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name} = {value} {unit} (n={samples})");
        self.metrics.push(Metric { name, value, unit });
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Checks the metric names and that every expected metric is present
    /// exactly once.
    pub fn validate(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        for m in &self.metrics {
            if !valid_metric_name(m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
        }
        for (name, unit) in expected {
            let found: Vec<&Metric> = self.metrics.iter().filter(|m| m.name == *name).collect();
            if found.len() != 1 || found[0].unit != *unit {
                return Err(format!(
                    "metric {name} ({unit}) reported {} times",
                    found.len()
                ));
            }
        }
        if self.metrics.len() != expected.len() {
            return Err("unexpected extra metrics".to_string());
        }
        Ok(())
    }
}

/// Every digit Rust's shortest round-trip rendering gives; integers keep a
/// plain form.
fn json_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Times a set-up step: runs it at least `min_reps` times and until
/// `min_seconds` have passed (at most 5,000 times), appends every
/// repetition's duration in seconds to `times`, and returns the last result.
///
/// The host's speed changes over seconds, so runs time a block of set-ups
/// before the warm-up and one more block after every timed pass, and report
/// the median over all of them.
pub fn time_setup<T>(
    min_reps: usize,
    min_seconds: f64,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
) -> T {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let rep = Instant::now();
        let value = setup();
        times.push(rep.elapsed().as_secs_f64());
        reps += 1;
        let enough = reps >= min_reps && started.elapsed().as_secs_f64() >= min_seconds;
        if enough || reps >= 5000 {
            return value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        outcome.metrics.push(Metric {
            name: "setup_s",
            value: 0.125,
            unit: "s",
        });
        outcome.metrics.push(Metric {
            name: "found",
            value: 7.0,
            unit: "count",
        });
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"found\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        assert!(outcome
            .validate(&[("setup_s", "s"), ("found", "count")])
            .is_ok());
        assert!(outcome.validate(&[("setup_s", "s")]).is_err());
        assert!(outcome
            .validate(&[("setup_s", "s"), ("found", "ms")])
            .is_err());
    }

    #[test]
    fn end_to_end_names_are_valid() {
        for (name, _) in END_TO_END {
            assert!(valid_metric_name(name));
        }
    }
}
