//! The batch workloads' shared machinery: a plan of `Lpo::run_sequences`
//! calls, an engine pass over it (optionally with spans around each call),
//! and the traced replica that drives each case through the public stage
//! functions in the same order as the engine.

use crate::layers::Layers;
use crate::trace::{Trace, Tracer};
use lpo::exec::DedupPlan;
use lpo::interestingness::SourceCost;
use lpo::prelude::{
    CaseOutcome, CaseReport, ExecConfig, ExecStats, Lpo, LpoConfig, RuntimeSweepDriver,
    ShardRuntime,
};
use lpo_ir::function::Function;
use lpo_ir::hash::hash_function;
use lpo_ir::parser::parse_function;
use lpo_ir::printer::print_function;
use lpo_llm::prelude::{ModelFactory, Prompt, SimulatedModelFactory};
use lpo_opt::pipeline::{optimize_function, Pipeline};
use lpo_tv::prelude::{
    EvalArena, SourceCache, SweepDriver, SweepShard, SweepSlot, Verdict, VerdictTier,
};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One `Lpo::run_sequences` call of a pass.
pub struct BatchCall {
    /// Index into [`BatchPlan::pipelines`].
    pub pipeline: usize,
    /// The model factory for the call.
    pub factory: SimulatedModelFactory,
    /// The experiment round.
    pub round: u64,
    /// Index into [`BatchPlan::inputs`].
    pub input: usize,
}

/// Everything one pass of a batch workload runs.
pub struct BatchPlan {
    /// Pipeline configurations; every pass builds fresh pipelines from these,
    /// so each pass starts with a cold compile cache, like a fresh driver run.
    pub pipelines: Vec<LpoConfig>,
    /// Input sequence lists, shared between calls.
    pub inputs: Vec<Vec<Function>>,
    /// The calls, in order.
    pub calls: Vec<BatchCall>,
    /// Engine configuration of every call.
    pub exec: ExecConfig,
}

impl BatchPlan {
    /// Cases per pass.
    pub fn cases(&self) -> usize {
        self.calls
            .iter()
            .map(|call| self.inputs[call.input].len())
            .sum()
    }

    fn fresh_pipelines(&self) -> Vec<Lpo> {
        self.pipelines
            .iter()
            .map(|config| Lpo::new(config.clone()))
            .collect()
    }
}

/// The reports of one pass, per call, in plan order.
pub type PassReports = Vec<Vec<CaseReport>>;

/// One engine pass.
pub struct EnginePass {
    /// Reports per call.
    pub reports: PassReports,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Engine statistics per call.
    pub stats: Vec<ExecStats>,
}

/// Runs every call of the plan through `Lpo::run_sequences` on fresh
/// pipelines. With a tracer, each call gets an `exec.batch` span.
pub fn engine_pass(plan: &BatchPlan, tracer: Option<(&Tracer, &str)>) -> EnginePass {
    run_calls(plan, plan.calls.len(), tracer)
}

/// Runs the first quarter of the plan's calls on fresh pipelines and
/// returns how long that took. The results are discarded.
pub fn warm_up(plan: &BatchPlan) -> Duration {
    run_calls(plan, plan.calls.len().div_ceil(4), None).wall
}

fn run_calls(plan: &BatchPlan, count: usize, tracer: Option<(&Tracer, &str)>) -> EnginePass {
    let start = Instant::now();
    let pipelines = plan.fresh_pipelines();
    let mut reports = Vec::with_capacity(count);
    let mut stats = Vec::with_capacity(count);
    for (index, call) in plan.calls.iter().take(count).enumerate() {
        let lpo = &pipelines[call.pipeline];
        let sequences = &plan.inputs[call.input];
        let run = || lpo.run_sequences(&call.factory, call.round, sequences, &plan.exec);
        let batch = match tracer {
            Some((tracer, trace)) => tracer.span(
                "exec.batch",
                &format!("{trace}/batch{index}").into(),
                None,
                |_| run(),
            ),
            None => run(),
        };
        reports.push(batch.reports);
        stats.push(batch.stats);
    }
    EnginePass {
        reports,
        wall: start.elapsed(),
        stats,
    }
}

/// Adds an engine pass's engine-level numbers to `layers`: batch count,
/// worker time outside the cases, busy ratio, dedup hits, shard counts, and the
/// Stage-3 decision tiers of the reports.
pub fn record_engine_layers(plan: &BatchPlan, pass: &EnginePass, layers: &mut Layers) {
    let mut case_time = Duration::ZERO;
    let mut worker_time = Duration::ZERO;
    let mut overhead = Duration::ZERO;
    for ((call, stats), reports) in plan.calls.iter().zip(&pass.stats).zip(&pass.reports) {
        let dedup = DedupPlan::new(&plan.inputs[call.input], plan.exec.dedup);
        let summed: Duration = dedup
            .unique_indices()
            .iter()
            .map(|&i| reports[i].wall_time)
            .sum();
        // Worker time not spent inside a case: the engine's own work plus
        // idle workers. At `jobs 1` this is the call's wall time minus its
        // summed case wall times.
        let workers = stats.wall_time * stats.jobs as u32;
        case_time += summed;
        worker_time += workers;
        overhead += workers.saturating_sub(summed);
        layers.add("exec.batches", 1.0);
        layers.add("exec.dedup_hits", stats.cache_hits as f64);
        layers.add("exec.shards_executed", stats.tv.shards_executed as f64);
        layers.add("exec.shards_stolen", stats.tv.shards_stolen as f64);
        for &i in dedup.unique_indices() {
            if let Some(tier) = reports[i].tier {
                layers.add(tier_metric(tier), 1.0);
            }
        }
    }
    layers.add("exec.overhead_s", overhead.as_secs_f64());
    layers.add_ratio(
        "exec.busy_ratio",
        case_time.as_secs_f64(),
        worker_time.as_secs_f64(),
    );
}

/// The per-layer metric counting verdicts decided by `tier`.
pub fn tier_metric(tier: VerdictTier) -> &'static str {
    match tier {
        VerdictTier::Proved => "tv.decided.proved",
        VerdictTier::Tested => "tv.decided.tested",
        VerdictTier::RefutedAbstract => "tv.decided.refuted-abstract",
        VerdictTier::RefutedConcrete => "tv.decided.refuted-concrete",
    }
}

/// A [`SweepDriver`] that times each survivor sweep as a `tv.sweep` span
/// under the current `tv.verify` span and counts the shards it drives.
struct TimingDriver<'a> {
    inner: &'a dyn SweepDriver,
    tracer: &'a Tracer,
    trace: RefCell<Trace>,
    parent: Cell<Option<u64>>,
    shards: Cell<usize>,
}

impl SweepDriver for TimingDriver<'_> {
    fn drive(&self, shards: Vec<SweepShard>, arena: &mut EvalArena) -> Vec<SweepSlot> {
        self.shards.set(self.shards.get() + shards.len());
        let trace = self.trace.borrow().clone();
        self.tracer
            .span("tv.sweep", &trace, self.parent.get(), |_| {
                self.inner.drive(shards, arena)
            })
    }
}

/// Runs one pass of the plan with every case replayed through the public
/// stage functions — the same steps, in the same order, as the engine's
/// per-case loop — with a span around each stage call. Cases run serially on
/// a one-worker shard runtime; structural duplicates replay their first
/// occurrence, as in the engine.
pub fn replica_pass(
    plan: &BatchPlan,
    tracer: &Tracer,
    trace: &str,
    layers: &mut Layers,
) -> (PassReports, Duration) {
    let start = Instant::now();
    let pipelines = plan.fresh_pipelines();
    // One Stage-1 pipeline per `Lpo`, as each `Lpo` holds its own.
    let opts: Vec<Pipeline> = pipelines
        .iter()
        .map(|lpo| Pipeline::new(lpo.config().opt_level))
        .collect();
    let mut seen_pairs = HashSet::new();
    let mut out = Vec::with_capacity(plan.calls.len());
    for (index, call) in plan.calls.iter().enumerate() {
        let lpo = &pipelines[call.pipeline];
        // A fresh arena per call, as the engine gives each batch.
        let mut arena = EvalArena::new();
        let runtime = ShardRuntime::new(1, lpo.shard_counters().clone());
        let inner = RuntimeSweepDriver::new(runtime);
        let mut replica = Replica {
            lpo,
            opt: &opts[call.pipeline],
            tracer,
            driver: TimingDriver {
                inner: &inner,
                tracer,
                trace: RefCell::new(Trace::from("")),
                parent: Cell::new(None),
                shards: Cell::new(0),
            },
            seen_pairs: &mut seen_pairs,
            layers: &mut *layers,
        };
        let sequences = &plan.inputs[call.input];
        let dedup = DedupPlan::new(sequences, plan.exec.dedup);
        let mut computed: Vec<Option<CaseReport>> = vec![None; sequences.len()];
        for &case in dedup.unique_indices() {
            let case_trace: Trace = format!("{trace}/batch{index}/case{case}").into();
            computed[case] = Some(replica.run_case(
                &call.factory,
                call.round,
                case,
                &sequences[case],
                &mut arena,
                plan.exec.shard_size,
                &case_trace,
            ));
        }
        let shards = replica.driver.shards.get();
        layers.add("tv.shards", shards as f64);
        out.push(
            (0..sequences.len())
                .map(|i| {
                    computed[dedup.representative(i)]
                        .clone()
                        .expect("representative computed")
                })
                .collect(),
        );
    }
    let wall = start.elapsed();
    for lpo in &pipelines {
        let tv = lpo.tv_snapshot();
        layers.add("tv.compiles", tv.compiles as f64);
        layers.add("tv.compile_hits", tv.compile_cache_hits as f64);
    }
    (out, wall)
}

struct Replica<'a, 'l> {
    lpo: &'a Lpo,
    opt: &'a Pipeline,
    tracer: &'a Tracer,
    driver: TimingDriver<'a>,
    seen_pairs: &'l mut HashSet<(u64, u64)>,
    layers: &'l mut Layers,
}

impl Replica<'_, '_> {
    /// One case, step for step as the engine runs it. Returns the report the
    /// engine would have produced.
    #[allow(clippy::too_many_arguments)]
    fn run_case(
        &mut self,
        factory: &dyn ModelFactory,
        round: u64,
        case_index: usize,
        source: &Function,
        arena: &mut EvalArena,
        shard_size: usize,
        trace: &Trace,
    ) -> CaseReport {
        let tracer = self.tracer;
        tracer.span("case", trace, None, |case_span| {
            let start = Instant::now();
            let config = self.lpo.config();
            let parent = Some(case_span);
            let mut session = tracer.span("llm.session", trace, parent, |_| {
                factory.session(round, case_index as u64)
            });
            self.layers.add("llm.sessions", 1.0);

            let mut canonical = source.clone();
            tracer.span("opt.canon", trace, parent, |_| self.opt.run(&mut canonical));
            self.layers.add("opt.canon_calls", 1.0);
            let source = &canonical;
            let source_cost = tracer.span("interest", trace, parent, |_| {
                SourceCost::new(source, config.target)
            });
            let source_text = tracer.span("ir.print", trace, parent, |_| print_function(source));
            let source_digest = hash_function(source).0;
            let mut prompt = Prompt::initial(source_text);
            let mut modeled = Duration::ZERO;
            let mut cost = 0.0;
            let mut attempts = 0;
            let mut outcome = CaseOutcome::NotInteresting;
            let mut tier = None;
            let tv_case = SourceCache::new(source, config.tv.clone())
                .with_compile_cache(self.lpo.compile_cache());
            *self.driver.trace.borrow_mut() = trace.clone();

            while attempts < config.attempt_limit {
                attempts += 1;
                tier = None;
                let retry = config.feedback && attempts < config.attempt_limit;
                self.layers.add("llm.proposals", 1.0);
                let completion = match tracer.span("llm.propose", trace, parent, |_| {
                    session.try_propose(&prompt)
                }) {
                    Ok(completion) => completion,
                    Err(fault) => {
                        self.layers.add("llm.failed", 1.0);
                        outcome = CaseOutcome::Failed {
                            error: fault.to_string(),
                        };
                        break;
                    }
                };
                modeled += completion.latency + config.verification_overhead;
                cost += completion.cost_usd;

                let parsed = tracer.span("ir.parse", trace, parent, |_| {
                    parse_function(&completion.text)
                });
                let candidate = match parsed.map_err(|e| e.to_string()).and_then(|mut func| {
                    self.layers.add("opt.canon_calls", 1.0);
                    tracer
                        .span("opt.canon", trace, parent, |_| {
                            optimize_function(&mut func, self.opt)
                        })
                        .map(|_| func)
                }) {
                    Err(message) => {
                        self.layers.add("ir.syntax_errors", 1.0);
                        outcome = CaseOutcome::SyntaxError;
                        if retry {
                            prompt = prompt.with_feedback(message);
                            continue;
                        }
                        break;
                    }
                    Ok(func) => func,
                };

                self.layers.add("interest.calls", 1.0);
                if !tracer.span("interest", trace, parent, |_| {
                    source_cost.is_interesting(&candidate)
                }) {
                    outcome = CaseOutcome::NotInteresting;
                    break;
                }
                self.layers.add("interest.passed", 1.0);

                self.layers.add("tv.verify_calls", 1.0);
                if !self
                    .seen_pairs
                    .insert((source_digest, hash_function(&candidate).0))
                {
                    self.layers.add("tv.repeats", 1.0);
                }
                let verdict = tracer.span("tv.verify", trace, parent, |verify_span| {
                    self.driver.parent.set(Some(verify_span));
                    tv_case.verify_with_driver(&candidate, arena, &self.driver, shard_size)
                });
                tier = tv_case.last_tier();
                match verdict {
                    Verdict::Correct { .. } => {
                        self.layers.add("tv.correct", 1.0);
                        outcome = CaseOutcome::Found { candidate };
                        break;
                    }
                    Verdict::Incorrect(cex) => {
                        outcome = CaseOutcome::Rejected;
                        if retry {
                            prompt = prompt.with_feedback(cex.to_string());
                            continue;
                        }
                        break;
                    }
                    Verdict::Error(message) => {
                        outcome = CaseOutcome::Rejected;
                        if retry {
                            prompt = prompt.with_feedback(message);
                            continue;
                        }
                        break;
                    }
                }
            }

            self.layers
                .add("tv.probe_rejects", tv_case.probe_rejects() as f64);
            self.layers.add("tv.survivors", tv_case.survivors() as f64);
            self.layers
                .add("tv.plane_sweeps", tv_case.plane_sweeps() as f64);
            self.layers.add("absint.proved", tv_case.proved() as f64);
            self.layers
                .add("absint.refuted", tv_case.absint_refuted() as f64);
            CaseReport {
                outcome,
                attempts,
                wall_time: start.elapsed(),
                modeled_time: modeled,
                cost_usd: cost,
                tier,
                store_hits: 0,
            }
        })
    }
}

/// Indices `(call, case)` where two passes' reports differ by
/// [`CaseReport::fingerprint`] (or in shape).
pub fn fingerprint_mismatches(expected: &PassReports, actual: &PassReports) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (call, (want, got)) in expected.iter().zip(actual).enumerate() {
        let cases = want.len().max(got.len());
        for case in 0..cases {
            let same = match (want.get(case), got.get(case)) {
                (Some(a), Some(b)) => a.fingerprint() == b.fingerprint(),
                _ => false,
            };
            if !same {
                out.push((call, case));
            }
        }
    }
    if expected.len() != actual.len() {
        out.push((expected.len().min(actual.len()), 0));
    }
    out
}

/// Per-layer metrics derived from the replica's raw counts.
pub fn finish_replica_layers(layers: &mut Layers) {
    layers.set_ratio("interest.pass_ratio", "interest.passed", "interest.calls");
    layers.set_ratio("tv.correct_ratio", "tv.correct", "tv.verify_calls");
    layers.set_ratio("tv.repeat_ratio", "tv.repeats", "tv.verify_calls");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_llm::prelude::{gemini2_0t, gemma3};

    /// A small plan over a few rq1 issues, both pipelines, two models.
    fn small_plan() -> BatchPlan {
        let suite = lpo_corpus::rq1_suite();
        let inputs: Vec<Vec<Function>> = suite
            .iter()
            .take(6)
            .map(|case| vec![case.function.clone()])
            .collect();
        let mut calls = Vec::new();
        for (input, case) in suite.iter().take(6).enumerate() {
            for profile in [gemma3(), gemini2_0t()] {
                for pipeline in 0..2 {
                    calls.push(BatchCall {
                        pipeline,
                        factory: SimulatedModelFactory::new(profile.clone(), case.issue_id as u64),
                        round: 0,
                        input,
                    });
                }
            }
        }
        BatchPlan {
            pipelines: vec![LpoConfig::without_feedback(), LpoConfig::default()],
            inputs,
            calls,
            exec: ExecConfig::serial(),
        }
    }

    #[test]
    fn replica_matches_the_engine_and_an_altered_case_is_caught() {
        let plan = small_plan();
        let engine = engine_pass(&plan, None);
        let tracer = Tracer::new();
        let mut layers = Layers::default();
        let (replica, _) = replica_pass(&plan, &tracer, "test", &mut layers);
        assert!(fingerprint_mismatches(&engine.reports, &replica).is_empty());
        assert!(layers.get("llm.proposals") >= plan.cases() as f64);
        assert!(tracer.spans().iter().any(|span| span.name == "tv.verify"));

        // Alter one replayed case: the check must flag exactly that case.
        let mut altered = replica.clone();
        altered[3][0].attempts += 1;
        assert_eq!(
            fingerprint_mismatches(&engine.reports, &altered),
            vec![(3, 0)]
        );
        let mut altered = replica;
        altered[5][0].outcome = CaseOutcome::Rejected;
        altered[5][0].cost_usd += 1.0;
        assert_eq!(
            fingerprint_mismatches(&engine.reports, &altered),
            vec![(5, 0)]
        );
    }

    #[test]
    fn engine_passes_are_repeatable() {
        let plan = small_plan();
        let first = engine_pass(&plan, None);
        let second = engine_pass(&plan, None);
        assert!(fingerprint_mismatches(&first.reports, &second.reports).is_empty());
    }
}
