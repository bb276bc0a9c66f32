//! The per-layer metric registry and accumulator.
//!
//! Every traced run reports every metric in [`PER_LAYER`]; a layer that does
//! not run on a workload reports 0 there. Raw helper counts (used to form
//! ratios) may also be accumulated but are not reported.

use crate::trace::Span;
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, grouped by the module it
/// measures.
pub const PER_LAYER: &[(&str, &str)] = &[
    // lpo-llm: model sessions.
    ("llm.sessions", "count"),
    ("llm.proposals", "count"),
    ("llm.propose_s", "s"),
    ("llm.failed", "count"),
    // lpo-ir: parsing completions, printing prompts.
    ("ir.parse_s", "s"),
    ("ir.print_s", "s"),
    ("ir.syntax_errors", "count"),
    // lpo-opt: Stage 1 canonicalization.
    ("opt.canon_calls", "count"),
    ("opt.canon_s", "s"),
    // lpo::interestingness + lpo-mca: Stage 2.
    ("interest.calls", "count"),
    ("interest.s", "s"),
    ("interest.pass_ratio", "fraction"),
    // lpo-tv: Stage 3.
    ("tv.verify_calls", "count"),
    ("tv.verify_s", "s"),
    ("tv.sweep_s", "s"),
    ("tv.shards", "count"),
    ("tv.probe_rejects", "count"),
    ("tv.survivors", "count"),
    ("tv.plane_sweeps", "count"),
    ("tv.compiles", "count"),
    ("tv.compile_hits", "count"),
    ("tv.decided.proved", "count"),
    ("tv.decided.tested", "count"),
    ("tv.decided.refuted-abstract", "count"),
    ("tv.decided.refuted-concrete", "count"),
    ("tv.correct_ratio", "fraction"),
    ("tv.repeat_ratio", "fraction"),
    // lpo-absint: the abstract pre-verification tier.
    ("absint.proved", "count"),
    ("absint.refuted", "count"),
    // lpo::exec / lpo::shard: the engine.
    ("exec.batches", "count"),
    ("exec.overhead_s", "s"),
    ("exec.busy_ratio", "fraction"),
    ("exec.dedup_hits", "count"),
    ("exec.shards_executed", "count"),
    ("exec.shards_stolen", "count"),
    // lpo-store: the verdict store behind the server.
    ("store.verdict_hits", "count"),
    ("store.verdict_misses", "count"),
    ("store.hit_rate", "fraction"),
    ("store.bytes_appended", "bytes"),
    // lpo-serve: client-side frame spans.
    ("serve.accept_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.frames", "count"),
    ("serve.bytes_out", "bytes"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.first_case_p50_ms", "ms"),
    // lpo-corpus / lpo-extract: input generation.
    ("corpus.gen_s", "s"),
    ("extract.s", "s"),
    ("extract.sequences", "count"),
];

/// Span names whose summed duration is a per-layer time metric.
const SPAN_TIMES: &[(&str, &str)] = &[
    ("llm.propose", "llm.propose_s"),
    ("ir.parse", "ir.parse_s"),
    ("ir.print", "ir.print_s"),
    ("opt.canon", "opt.canon_s"),
    ("interest", "interest.s"),
    ("tv.verify", "tv.verify_s"),
    ("tv.sweep", "tv.sweep_s"),
    ("corpus.gen", "corpus.gen_s"),
    ("extract", "extract.s"),
];

/// Accumulated per-layer values, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Adds `amount` to `name`.
    pub fn add(&mut self, name: &str, amount: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += amount;
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The accumulated value of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Accumulates a ratio's two halves under `name.num` / `name.den`;
    /// [`set_ratio`](Self::set_ratio) turns them into the ratio.
    pub fn add_ratio(&mut self, name: &str, numerator: f64, denominator: f64) {
        self.add(&format!("{name}.num"), numerator);
        self.add(&format!("{name}.den"), denominator);
        self.set_ratio(name, &format!("{name}.num"), &format!("{name}.den"));
    }

    /// Sets `name` to `numerator / denominator` of two accumulated values
    /// (0 when the denominator is 0).
    pub fn set_ratio(&mut self, name: &str, numerator: &str, denominator: &str) {
        let den = self.get(denominator);
        self.set(
            name,
            if den > 0.0 {
                self.get(numerator) / den
            } else {
                0.0
            },
        );
    }

    /// Adds the summed durations of the layer spans in `spans`.
    pub fn add_span_times(&mut self, spans: &[Span]) {
        for span in spans {
            if let Some((_, metric)) = SPAN_TIMES.iter().find(|(name, _)| *name == span.name) {
                self.add(metric, span.duration().as_secs_f64());
            }
        }
    }

    /// Every registered metric divided by `passes`, in registry order, as
    /// `(name, value, unit)`. Ratios, percentiles and the once-per-run
    /// input-generation metrics are left as they are.
    pub fn per_pass(&self, passes: usize) -> Vec<(&'static str, f64, &'static str)> {
        let passes = passes.max(1) as f64;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name);
                let once = unit == "fraction"
                    || unit == "ms"
                    || name.starts_with("corpus.")
                    || name.starts_with("extract.");
                let scaled = if once { value } else { value / passes };
                (name, scaled, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn every_registered_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in PER_LAYER {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        for (_, metric) in SPAN_TIMES {
            assert!(PER_LAYER.iter().any(|(name, _)| name == metric), "{metric}");
        }
    }

    #[test]
    fn ratios_and_per_pass_scaling() {
        let mut layers = Layers::default();
        layers.add("interest.calls", 8.0);
        layers.add("interest.passed", 2.0);
        layers.set_ratio("interest.pass_ratio", "interest.passed", "interest.calls");
        layers.add_ratio("exec.busy_ratio", 1.0, 4.0);
        layers.add_ratio("exec.busy_ratio", 2.0, 4.0);
        let values = layers.per_pass(2);
        let get = |name: &str| values.iter().find(|(n, _, _)| *n == name).unwrap().1;
        assert_eq!(get("interest.calls"), 4.0);
        assert_eq!(get("interest.pass_ratio"), 0.25);
        assert_eq!(get("exec.busy_ratio"), 3.0 / 8.0);
        assert_eq!(get("serve.frames"), 0.0);
        assert_eq!(values.len(), PER_LAYER.len());
    }
}
