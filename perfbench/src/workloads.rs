//! The two batch workloads — rq1-detect and corpus-scan — and the runner
//! they share: set-up, a discarded warm-up (a quarter pass), timed passes
//! until the run's time is up, then the output checks.

use crate::batch::{self, BatchCall, BatchPlan, PassReports};
use crate::check;
use crate::host;
use crate::layers::Layers;
use crate::report::{time_setup, Outcome};
use crate::stats;
use crate::trace::{self, Trace, Tracer};
use lpo::exec::DedupPlan;
use lpo::prelude::{CaseOutcome, ExecConfig, LpoConfig};
use lpo_corpus::{generate_corpus, CorpusConfig};
use lpo_extract::{ExtractConfig, Extractor};
use lpo_ir::function::Function;
use lpo_llm::prelude::{gemini2_0t, gemini2_5, gemma3, llama3_3, o4_mini, SimulatedModelFactory};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds per rq1-detect pass. Seed `s` runs rounds `ROUNDS·s .. ROUNDS·s +
/// ROUNDS`, so seed 0 covers `repro table2`'s rounds 0 and 1. The cost of
/// one round's 200 cases varies by about 20% from round to round (it
/// depends on how many `i16` sweeps the sessions reach), so a pass averages
/// many rounds to make runs on different seeds comparable.
pub const RQ1_ROUNDS: u64 = 16;

/// Rounds per model in a corpus-scan pass. Dedup gives each distinct
/// sequence one model session per batch, and the few sequences that reach
/// Stage 3 carry much of the time, so one round leaves a pass's cost at the
/// mercy of a handful of sessions; several rounds average them.
pub const CORPUS_ROUNDS: u64 = 8;

/// Modules per project in the corpus-scan corpus. `found` counts dedup
/// replays too, so one often-repeated sequence found or not moves it: at 16
/// modules it spread by 16% of its median over ten seeds, at 32 by 9%.
pub const CORPUS_MODULES: usize = 32;

/// A deterministic stream for seeded choices (SplitMix64).
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated per `stream` purpose.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The rq1-detect plan: the 25 rq1 issues × {Gemma3, Llama3.3, Gemini2.0T,
/// o4-mini} × {LPO⁻, LPO} × the seed's rounds, one one-case batch each, at
/// `jobs 1`, the default shard size and no store — the LPO part of Table 2.
pub fn rq1_plan(seed: u64) -> BatchPlan {
    let suite = lpo_corpus::rq1_suite();
    let models = [gemma3(), llama3_3(), gemini2_0t(), o4_mini()];
    let rounds = RQ1_ROUNDS * seed..RQ1_ROUNDS * seed + RQ1_ROUNDS;
    let mut calls = Vec::new();
    for (input, case) in suite.iter().enumerate() {
        for profile in &models {
            // One factory per (issue, model), seeded by the issue id: the
            // same sessions `repro table2` draws.
            let factory = SimulatedModelFactory::new(profile.clone(), case.issue_id as u64);
            for pipeline in 0..2 {
                for round in rounds.clone() {
                    calls.push(BatchCall {
                        pipeline,
                        factory: factory.clone(),
                        round,
                        input,
                    });
                }
            }
        }
    }
    BatchPlan {
        pipelines: vec![LpoConfig::without_feedback(), LpoConfig::default()],
        inputs: suite.into_iter().map(|case| vec![case.function]).collect(),
        calls,
        exec: ExecConfig::serial(),
    }
}

/// Generates the seeded 14-project corpus and extracts its sequences the way
/// `repro table4` does (one extractor per module, so cross-module duplicates
/// reach the engine's dedup). With a tracer, generation and extraction get
/// `corpus.gen` / `extract` spans.
pub fn corpus_sequences(
    seed: u64,
    modules_per_project: usize,
    functions_per_module: usize,
    tracer: Option<&Tracer>,
) -> Vec<Function> {
    let config = CorpusConfig {
        seed: SplitMix::new(seed, 1).next_u64(),
        modules_per_project,
        functions_per_module,
        ..CorpusConfig::default()
    };
    let timed = |name: &'static str, body: &mut dyn FnMut()| match tracer {
        Some(tracer) => tracer.span(name, &Trace::from("setup"), None, |_| body()),
        None => body(),
    };
    let mut corpus = Vec::new();
    timed("corpus.gen", &mut || corpus = generate_corpus(&config));
    let mut sequences = Vec::new();
    timed("extract", &mut || {
        for module in corpus.iter().flat_map(|project| &project.modules) {
            let mut extractor = Extractor::new(ExtractConfig {
                min_instructions: 2,
                ..Default::default()
            });
            sequences.extend(
                extractor
                    .extract_module(module)
                    .into_iter()
                    .map(|seq| seq.function),
            );
        }
    });
    sequences
}

/// The corpus-scan plan: the seeded corpus (32 modules × 6 functions per
/// project), one batch per model (Llama3.3, Gemini2.5) and round at `jobs 1`,
/// no store. One worker leaves the host's second vCPU to everything else:
/// at `jobs 2` on a 2-vCPU host the throughput moved about twice as much
/// from run to run.
pub fn corpus_plan(seed: u64, tracer: Option<&Tracer>) -> BatchPlan {
    let sequences = corpus_sequences(seed, CORPUS_MODULES, 6, tracer);
    let mut calls = Vec::new();
    for profile in [llama3_3(), gemini2_5()] {
        let factory = SimulatedModelFactory::new(profile, 0xbeef);
        for round in 0..CORPUS_ROUNDS {
            calls.push(BatchCall {
                pipeline: 0,
                factory: factory.clone(),
                round,
                input: 0,
            });
        }
    }
    BatchPlan {
        pipelines: vec![LpoConfig::default()],
        inputs: vec![sequences],
        calls,
        exec: ExecConfig::serial(),
    }
}

/// Runs a batch workload and returns its outcome. `setup` builds the plan
/// (with set-up spans when given a tracer).
pub fn run_batch_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    setup: impl Fn(Option<&Tracer>) -> BatchPlan,
) -> Outcome {
    let probe = host::HostProbe::start();
    let mut setup_times = Vec::new();
    let mut plan = time_setup(3, 0.2, &mut setup_times, || setup(None));
    let tracer = Tracer::new();
    let mut layers = Layers::default();
    if traced {
        plan = setup(Some(&tracer));
        if tracer.spans().iter().any(|span| span.name == "extract") {
            layers.set(
                "extract.sequences",
                plan.cases() as f64 / plan.calls.len() as f64,
            );
        }
    }
    let cases = plan.cases();
    let distinct: usize = plan
        .calls
        .iter()
        .map(|call| {
            DedupPlan::new(&plan.inputs[call.input], plan.exec.dedup)
                .unique_indices()
                .len()
        })
        .sum();
    println!(
        "workload {workload}: seed {seed}, {} calls, {cases} cases per pass ({distinct} run, the rest dedup replays), jobs {}",
        plan.calls.len(),
        plan.exec.jobs
    );

    // The first work in a process runs slower: a quarter pass is run and
    // discarded before timing starts.
    println!("warm-up: {:.3} s", batch::warm_up(&plan).as_secs_f64());
    let budget = Duration::from_secs(seconds);
    let window = Instant::now();
    let mut rates = Vec::new();
    let mut pass_cpu = Vec::new();
    let mut traced_rates = Vec::new();
    let mut traced_passes = 0;
    let mut iterations = Vec::new();
    // The first timed pass is the reference every later pass (engine or
    // replica) must reproduce. Each later pass is compared as soon as it ends
    // and then dropped, so memory does not grow with the pass count.
    let mut reference: Option<PassReports> = None;
    let mut bad: Vec<Vec<bool>> = Vec::new();
    let mut mismatches = 0;
    let mut compared = 0;
    loop {
        let started = Instant::now();
        let cpu_before = host::cpu_seconds();
        let pass = batch::engine_pass(&plan, None);
        rates.push(cases as f64 / pass.wall.as_secs_f64());
        if let (Some(before), Some(after)) = (cpu_before, host::cpu_seconds()) {
            pass_cpu.push(after - before);
        }
        let mut fresh = vec![pass.reports];
        // A traced run traces one engine pass (`exec.batch` spans) and one
        // replica pass (stage spans, hundreds of thousands of them); its
        // other passes are untraced, for the overhead comparison.
        if traced && traced_passes == 0 {
            let label = format!("{workload}/pass0");
            let engine = batch::engine_pass(&plan, Some((&tracer, &label)));
            batch::record_engine_layers(&plan, &engine, &mut layers);
            fresh.push(engine.reports);
            let (replayed, wall) = batch::replica_pass(&plan, &tracer, &label, &mut layers);
            traced_rates.push(cases as f64 / wall.as_secs_f64());
            fresh.push(replayed);
            traced_passes = 1;
        }
        for reports in fresh {
            compared += 1;
            let Some(first) = &reference else {
                bad = reports.iter().map(|call| vec![false; call.len()]).collect();
                reference = Some(reports);
                continue;
            };
            for (call, case) in batch::fingerprint_mismatches(first, &reports) {
                mismatches += 1;
                if let Some(slot) = bad.get_mut(call).and_then(|row| row.get_mut(case)) {
                    *slot = true;
                }
            }
        }
        iterations.push(started.elapsed().as_secs_f64());
        time_setup(1, 0.02, &mut setup_times, || setup(None));
        // Stop when another iteration would mostly run past the budget; an
        // untraced run always makes at least two passes to compare.
        let typical = iterations.iter().sum::<f64>() / iterations.len() as f64;
        let minimum = if traced { 1 } else { 2 };
        if iterations.len() >= minimum
            && window.elapsed().as_secs_f64() + typical / 2.0 >= budget.as_secs_f64()
        {
            break;
        }
    }
    let reference = reference.expect("at least one timed pass");
    println!("setup: {}", stats::describe(&setup_times, "s"));
    println!(
        "timed passes: {}, fastest {:.4} cases/s",
        stats::describe(&rates, "cases/s"),
        stats::fastest(&rates).unwrap_or(0.0)
    );
    println!("  per pass: {rates:.1?} cases/s");
    println!("  per pass: {pass_cpu:.2?} CPU s");
    // Peak memory of the measured work, before the output checks add theirs.
    println!(
        "peak_rss_mb = {} MB (VmHWM at the end of the timed passes; not gated)",
        host::peak_rss_mb().unwrap_or(0.0)
    );

    // Output checks: every pass (engine or replica) reproduced the first
    // timed pass (above), and every distinct find re-verifies on the
    // reference checker.
    let check_start = Instant::now();
    let originals = || {
        plan.calls
            .iter()
            .zip(&reference)
            .flat_map(|(call, reports)| plan.inputs[call.input].iter().zip(reports.iter()))
    };
    let (pairs, wrong) = check::verify_found(originals());
    for (call, reports) in reference.iter().enumerate() {
        let sources = &plan.inputs[plan.calls[call].input];
        for (case, report) in reports.iter().enumerate() {
            if check::is_bad_find(&sources[case], report, &wrong) || report.outcome.is_failed() {
                bad[call][case] = true;
            }
        }
    }
    println!(
        "output check: {pairs} distinct found pairs re-verified by the reference checker ({} wrong) in {:.2} s; {mismatches} case fingerprint mismatches over {} passes",
        wrong.len(),
        check_start.elapsed().as_secs_f64(),
        compared
    );

    let bad_per_pass: usize = bad.iter().flatten().filter(|&&b| b).count();
    let found = reference
        .iter()
        .flatten()
        .filter(|report| matches!(report.outcome, CaseOutcome::Found { .. }))
        .count();
    let attempted = (cases * compared) as u64;
    let failed = (bad_per_pass * compared).min(attempted as usize) as u64;
    let mut outcome = Outcome {
        correct: bad_per_pass == 0 && mismatches == 0 && wrong.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
    };
    println!("host: {}", probe.summary());
    if traced {
        let spans = tracer.spans();
        layers.add_span_times(&spans);
        batch::finish_replica_layers(&mut layers);
        let untraced = stats::median(&rates).unwrap_or(0.0);
        let replica = stats::median(&traced_rates).unwrap_or(0.0);
        println!(
            "tracing overhead: traced replica {replica:.1} cases/s (serial, stage spans) vs untraced engine {untraced:.1} cases/s: ratio {:.3} (n={} traced, {} untraced passes)",
            if untraced > 0.0 { replica / untraced } else { 0.0 },
            traced_rates.len(),
            rates.len()
        );
        write_trace(workload, seed, &spans);
        for (name, value, unit) in layers.per_pass(traced_passes) {
            outcome.metric(name, value, unit, traced_passes);
        }
    } else {
        let rate = stats::fastest(&rates).unwrap_or(0.0);
        outcome.metric(
            "setup_s",
            stats::median(&setup_times).unwrap_or(0.0),
            "s",
            setup_times.len(),
        );
        outcome.metric("cases_per_s", rate, "cases/s", rates.len());
        outcome.metric("found", found as f64, "count", 1);
        let success = (attempted - failed) as f64 / attempted as f64;
        outcome.metric("success_rate", success, "fraction", attempted as usize);
    }
    outcome
}

/// Writes the run's spans under `.bench_out/` and prints the per-layer
/// self-time table.
pub fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = Path::new(".bench_out").join(format!("trace-{workload}-s{seed}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
    print!("{}", trace::render_totals(spans));
}
