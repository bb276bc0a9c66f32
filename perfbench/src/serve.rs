//! serve-mixed: an in-process `lpo-serve` server on loopback, driven by two
//! closed-loop clients over the wire protocol.
//!
//! Each pass starts a fresh server on a fresh file-backed store, warms the
//! store with one submission of every warm-pool job (untimed), then times
//! the seeded job list: about 70% warm resubmissions of rq1/rq2, whose
//! verdicts all replay from the store, and about 30% modules of never-
//! submitted sequences, which bring verdict misses and store appends.

use crate::batch::tier_metric;
use crate::check;
use crate::host;
use crate::layers::Layers;
use crate::report::{time_setup, Outcome};
use crate::stats;
use crate::trace::{Trace, Tracer};
use crate::workloads::{corpus_sequences, write_trace, SplitMix};
use lpo::prelude::{CaseReport, ExecConfig, Lpo, LpoConfig, RunSummary, StoreStats, VerdictStore};
use lpo_ir::function::Function;
use lpo_ir::printer::print_function;
use lpo_llm::prelude::{
    by_name, Completion, ModelFactory, ModelProfile, ModelSession, Prompt, SessionError,
    SimulatedModelFactory,
};
use lpo_serve::json::Json;
use lpo_serve::prelude::{
    DefaultFactoryProvider, FactoryProvider, ServeConfig, Server, SubmitOptions,
};
use lpo_tv::prelude::VerdictTier;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs in one pass's timed list.
const JOBS_PER_PASS: usize = 60;
/// Sequences per fresh module.
const FRESH_MODULE_CASES: usize = 25;
/// Models fresh jobs draw from.
const FRESH_MODELS: [&str; 2] = ["Gemini2.0T", "Llama3.3"];
/// The warm pool: `(corpus, model, seed)` resubmitted across the run.
const WARM_POOL: [(&str, &str, u64); 4] = [
    ("rq1", "Gemini2.0T", 1),
    ("rq1", "Llama3.3", 2),
    ("rq2", "Gemini2.0T", 3),
    ("rq2", "Llama3.3", 4),
];

/// Whether a job resubmits a warm-pool entry or a never-submitted module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Warm,
    Fresh,
}

/// One submission and what a batch run of it needs.
struct Job {
    kind: Kind,
    options: SubmitOptions,
    model: ModelProfile,
    seed: u64,
    functions: Vec<Function>,
}

/// The run's inputs.
struct Inputs {
    pool: Vec<Job>,
    jobs: Vec<Job>,
    /// Sequences the fresh-module corpus yielded.
    extracted: usize,
}

fn pool_job(&(corpus, model, seed): &(&str, &str, u64)) -> Job {
    let suite = match corpus {
        "rq1" => lpo_corpus::rq1_suite(),
        _ => lpo_corpus::rq2_suite(),
    };
    let mut options = SubmitOptions::corpus(corpus);
    options.model = Some(model.to_string());
    options.seed = Some(seed);
    Job {
        kind: Kind::Warm,
        options,
        model: by_name(model).expect("warm pool names a known model"),
        seed,
        functions: suite.into_iter().map(|case| case.function).collect(),
    }
}

/// Draws the job list from `seed` and generates the fresh modules it needs
/// from a seeded synthetic corpus.
fn build_inputs(seed: u64, tracer: Option<&Tracer>) -> Inputs {
    let pool: Vec<Job> = WARM_POOL.iter().map(pool_job).collect();
    let mut rng = SplitMix::new(seed, 2);
    // A fixed 70/30 mix with the warm jobs spread evenly over the pool, in a
    // seeded order: the seed decides the order and the fresh modules, not
    // the proportions, so runs on different seeds do comparable work.
    let fresh_jobs = JOBS_PER_PASS * 3 / 10;
    let mut plan: Vec<Option<usize>> = (0..JOBS_PER_PASS - fresh_jobs)
        .map(|i| Some(i % WARM_POOL.len()))
        .chain(std::iter::repeat_n(None, fresh_jobs))
        .collect();
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let fresh_needed = fresh_jobs * FRESH_MODULE_CASES;
    // Grow the corpus until it yields enough distinct sequences.
    let mut modules_per_project = 2;
    let sequences = loop {
        let sequences = corpus_sequences(seed ^ 0x5e12_7e00, modules_per_project, 6, tracer);
        if sequences.len() >= fresh_needed {
            break sequences;
        }
        modules_per_project *= 2;
    };
    let extracted = sequences.len();
    let mut fresh = sequences.chunks(FRESH_MODULE_CASES);
    let jobs = plan
        .into_iter()
        .map(|slot| match slot {
            Some(entry) => pool_job(&WARM_POOL[entry]),
            None => {
                let functions: Vec<Function> = fresh
                    .next()
                    .expect("corpus sized for every fresh job")
                    .iter()
                    .enumerate()
                    .map(|(i, function)| {
                        let mut function = function.clone();
                        function.name = format!("f{i}");
                        function
                    })
                    .collect();
                let text: Vec<String> = functions.iter().map(print_function).collect();
                let model = FRESH_MODELS[rng.below(FRESH_MODELS.len() as u64) as usize];
                let job_seed = 100 + rng.below(1000);
                let mut options = SubmitOptions::module(&text.join("\n"));
                options.model = Some(model.to_string());
                options.seed = Some(job_seed);
                Job {
                    kind: Kind::Fresh,
                    options,
                    model: by_name(model).expect("fresh models are known"),
                    seed: job_seed,
                    functions,
                }
            }
        })
        .collect();
    Inputs {
        pool,
        jobs,
        extracted,
    }
}

/// Client-side timestamps and results of one served job.
struct JobRecord {
    job: usize,
    submit: Instant,
    accepted: Instant,
    first_case: Option<Instant>,
    last_case: Option<Instant>,
    done_at: Instant,
    frames: usize,
    bytes: usize,
    cases: Vec<Json>,
    done: Option<Json>,
    /// Filled by [`JobRecord::settle`], which then drops the frames.
    settled: Settled,
}

/// What is kept of a job once its frames have been checked.
#[derive(Default)]
struct Settled {
    ok: bool,
    cases: usize,
    found: f64,
    dedup_hits: f64,
    tiers: Vec<&'static str>,
}

impl JobRecord {
    fn latency_ms(&self) -> f64 {
        ms(self.done_at - self.submit)
    }

    /// Checks the job's frames against its batch reference, keeps the
    /// numbers the report needs and drops the frames.
    fn settle(&mut self, reference: &Reference) {
        let number = |key: &str| {
            self.done
                .as_ref()
                .and_then(|d| d.get(key))
                .and_then(Json::as_num)
        };
        self.settled = Settled {
            ok: served_matches(self, &reference.reports, &reference.summary),
            cases: self.cases.len(),
            found: number("found").unwrap_or(0.0),
            dedup_hits: number("dedup_hits").unwrap_or(0.0),
            tiers: self
                .cases
                .iter()
                .filter(|frame| frame.get("dedup").and_then(Json::as_bool) == Some(false))
                .filter_map(|frame| {
                    frame
                        .get("tier")
                        .and_then(Json::as_str)
                        .and_then(VerdictTier::parse)
                })
                .map(tier_metric)
                .collect(),
        };
        self.cases = Vec::new();
        self.done = None;
    }
}

/// A job's batch-mode reference: its reports and summary fingerprint.
struct Reference {
    reports: Vec<CaseReport>,
    summary: String,
}

/// References for every distinct job, keyed by the job's request line.
type References = BTreeMap<String, Reference>;

fn key(job: &Job) -> String {
    job.options.request_line()
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// One client connection, reading frames line by line to timestamp them.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn frame(&mut self) -> std::io::Result<(Json, usize)> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let json = Json::parse(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok((json, n))
    }

    fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.writer.write_all(line.as_bytes())?;
        Ok(self.frame()?.0)
    }

    /// Submits a job and drains its stream. A rejection returns a record
    /// with no `done` frame.
    fn submit(&mut self, job: usize, options: &SubmitOptions) -> std::io::Result<JobRecord> {
        let submit = Instant::now();
        self.writer.write_all(options.request_line().as_bytes())?;
        let (first, bytes) = self.frame()?;
        let accepted = Instant::now();
        let mut record = JobRecord {
            job,
            submit,
            accepted,
            first_case: None,
            last_case: None,
            done_at: accepted,
            frames: 1,
            bytes,
            cases: Vec::new(),
            done: None,
            settled: Settled::default(),
        };
        if first.get("kind").and_then(Json::as_str) != Some("accepted") {
            return Ok(record);
        }
        loop {
            let (frame, bytes) = self.frame()?;
            let at = Instant::now();
            record.frames += 1;
            record.bytes += bytes;
            match frame.get("kind").and_then(Json::as_str) {
                Some("case") => {
                    record.first_case.get_or_insert(at);
                    record.last_case = Some(at);
                    record.cases.push(frame);
                }
                Some("done") => {
                    record.done_at = at;
                    record.done = Some(frame);
                    return Ok(record);
                }
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("expected case/done, got {other:?}"),
                    ))
                }
            }
        }
    }
}

/// Model-session accounting behind the timing provider.
#[derive(Default)]
struct LlmCounters {
    sessions: AtomicU64,
    proposals: AtomicU64,
    failed: AtomicU64,
}

impl LlmCounters {
    /// `[sessions, proposals, failed]` so far.
    fn snapshot(&self) -> [u64; 3] {
        [&self.sessions, &self.proposals, &self.failed].map(|c| c.load(Ordering::Relaxed))
    }
}

/// A [`FactoryProvider`] that wraps the default provider's factories so
/// every model call is timed as an `llm.propose` span.
struct TimingProvider {
    tracer: Arc<Tracer>,
    counters: Arc<LlmCounters>,
}

impl FactoryProvider for TimingProvider {
    fn build(&self, profile: ModelProfile, seed: u64) -> Box<dyn ModelFactory> {
        let trace = format!("serve/{}/s{seed}", profile.name).into();
        Box::new(TimingFactory {
            inner: DefaultFactoryProvider.build(profile, seed),
            tracer: self.tracer.clone(),
            counters: self.counters.clone(),
            trace,
        })
    }
}

struct TimingFactory {
    inner: Box<dyn ModelFactory>,
    tracer: Arc<Tracer>,
    counters: Arc<LlmCounters>,
    trace: Trace,
}

impl ModelFactory for TimingFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> Option<&ModelProfile> {
        self.inner.profile()
    }

    fn session(&self, round: u64, case_index: u64) -> Box<dyn ModelSession> {
        self.counters.sessions.fetch_add(1, Ordering::Relaxed);
        Box::new(TimingSession {
            inner: self.inner.session(round, case_index),
            tracer: self.tracer.clone(),
            counters: self.counters.clone(),
            trace: format!("{}/r{round}/case{case_index}", self.trace).into(),
        })
    }
}

struct TimingSession {
    inner: Box<dyn ModelSession>,
    tracer: Arc<Tracer>,
    counters: Arc<LlmCounters>,
    trace: Trace,
}

impl ModelSession for TimingSession {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, prompt: &Prompt) -> Completion {
        self.inner.propose(prompt)
    }

    fn try_propose(&mut self, prompt: &Prompt) -> Result<Completion, SessionError> {
        self.counters.proposals.fetch_add(1, Ordering::Relaxed);
        let result = self.tracer.span("llm.propose", &self.trace, None, |_| {
            self.inner.try_propose(prompt)
        });
        if result.is_err() {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

/// What one pass measured.
struct PassResult {
    records: Vec<JobRecord>,
    /// Start and end of the timed job list.
    timed: (Instant, Instant),
    warmup: Vec<JobRecord>,
    store: StoreStats,
    bytes_appended: u64,
    /// `[sessions, proposals, failed]` during the timed job list, when the
    /// pass ran with the timing provider.
    llm: [u64; 3],
}

impl PassResult {
    fn wall(&self) -> Duration {
        self.timed.1 - self.timed.0
    }
}

/// Opens a fresh store under `dir` and binds a server on it.
fn start_server(
    dir: &Path,
    provider: Option<Box<dyn FactoryProvider>>,
) -> (Server, Arc<VerdictStore>, PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
    let path = dir.join("store.log");
    let store = Arc::new(VerdictStore::open(&path).expect("open the pass's store"));
    let config = ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    };
    let provider = provider.unwrap_or_else(|| Box::new(DefaultFactoryProvider));
    let server = Server::bind_with_provider("127.0.0.1:0", config, store.clone(), provider)
        .expect("bind a loopback server");
    (server, store, path)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// One pass: fresh server and store, untimed warm-up of the pool, then the
/// job list through two closed-loop clients.
fn run_pass(
    inputs: &Inputs,
    references: &References,
    dir: &Path,
    timing: Option<(&Arc<Tracer>, &Arc<LlmCounters>)>,
) -> PassResult {
    let provider = timing.map(|(tracer, counters)| -> Box<dyn FactoryProvider> {
        Box::new(TimingProvider {
            tracer: tracer.clone(),
            counters: counters.clone(),
        })
    });
    let (server, store, path) = start_server(dir, provider);
    let llm = || timing.map_or([0; 3], |(_, counters)| counters.snapshot());
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let mut control = Conn::connect(&addr).expect("connect to the server");
    let mut warmup: Vec<JobRecord> = inputs
        .pool
        .iter()
        .enumerate()
        .map(|(i, job)| control.submit(i, &job.options).expect("warm-up submission"))
        .collect();

    let store_before = store.stats();
    let bytes_before = file_len(&path);
    let llm_before = llm();
    let cursor = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(inputs.jobs.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut conn = Conn::connect(&addr).expect("connect a client");
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = inputs.jobs.get(index) else {
                        break;
                    };
                    let record = conn.submit(index, &job.options).expect("submission");
                    records.lock().expect("records poisoned").push(record);
                }
            });
        }
    });
    let end = Instant::now();
    let wall = end - start;
    let llm_after = llm();
    let store_stats = store.stats().since(store_before);
    let bytes_appended = file_len(&path).saturating_sub(bytes_before);

    let stats = control
        .request("{\"kind\":\"stats\"}\n")
        .expect("stats request");
    let completed = stats
        .get("jobs_completed")
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    control
        .request("{\"kind\":\"shutdown\"}\n")
        .expect("shutdown request");
    server_thread
        .join()
        .expect("server thread panicked")
        .expect("server run");
    let mut records = records.into_inner().expect("records poisoned");
    records.sort_by_key(|record| record.job);
    for record in &mut warmup {
        record.settle(&references[&key(&inputs.pool[record.job])]);
    }
    for record in &mut records {
        record.settle(&references[&key(&inputs.jobs[record.job])]);
    }
    println!(
        "pass: {} jobs in {:.3} s, server reports {completed} jobs completed, peak rss {:.1} MB",
        records.len(),
        wall.as_secs_f64(),
        host::peak_rss_mb().unwrap_or(0.0)
    );
    PassResult {
        records,
        timed: (start, end),
        warmup,
        store: store_stats,
        bytes_appended,
        llm: [0, 1, 2].map(|i| llm_after[i] - llm_before[i]),
    }
}

/// Checks one served job against its reference: a clean `done` frame whose
/// summary fingerprint equals the batch run's, and a case frame per case
/// whose fingerprint equals the batch report's.
fn served_matches(record: &JobRecord, reference: &[CaseReport], summary: &str) -> bool {
    let Some(done) = &record.done else {
        return false;
    };
    let clean = done.get("cancelled").and_then(Json::as_bool) == Some(false)
        && done.get("failed").and_then(Json::as_num) == Some(0.0);
    let same_summary = done.get("summary").and_then(Json::as_str) == Some(summary);
    let mut seen = vec![false; reference.len()];
    let cases_match = record.cases.len() == reference.len()
        && record.cases.iter().all(|frame| {
            let index = frame.get("case").and_then(Json::as_num).map(|n| n as usize);
            match index.and_then(|i| reference.get(i).map(|r| (i, r))) {
                Some((i, report)) if !seen[i] => {
                    seen[i] = true;
                    frame.get("fingerprint").and_then(Json::as_str)
                        == Some(report.fingerprint().as_str())
                }
                _ => false,
            }
        });
    clean && same_summary && cases_match
}

/// Runs serve-mixed and returns its outcome.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let probe = host::HostProbe::start();
    let root = Path::new(".bench_out").join(format!("serve-{}", std::process::id()));
    // Set-up: inputs plus a server bound on a freshly opened store.
    let mut setup_rep = 0;
    let mut setup = || {
        let inputs = build_inputs(seed, None);
        let (server, store, _) = start_server(&root.join(format!("setup{setup_rep}")), None);
        setup_rep += 1;
        drop(server);
        drop(store);
        inputs
    };
    let mut setup_times = Vec::new();
    let mut inputs = time_setup(3, 0.2, &mut setup_times, &mut setup);
    let tracer = Arc::new(Tracer::new());
    let mut layers = Layers::default();
    if traced {
        inputs = build_inputs(seed, Some(&tracer));
        layers.set("extract.sequences", inputs.extracted as f64);
    }
    let fresh_jobs = inputs
        .jobs
        .iter()
        .filter(|job| job.kind == Kind::Fresh)
        .count();
    println!(
        "workload serve-mixed: seed {seed}, {} jobs per pass ({} warm, {fresh_jobs} fresh of {FRESH_MODULE_CASES} sequences), 2 closed-loop clients, server jobs 1",
        inputs.jobs.len(),
        inputs.jobs.len() - fresh_jobs
    );

    // The batch-mode reference of every distinct job, computed before any
    // pass, outside the timed window; each pass checks its jobs against them
    // as it ends.
    let check_start = Instant::now();
    let lpo = Lpo::new(LpoConfig::default());
    let mut references = References::new();
    for job in inputs.pool.iter().chain(&inputs.jobs) {
        references.entry(key(job)).or_insert_with(|| {
            let factory = SimulatedModelFactory::new(job.model.clone(), job.seed);
            let reports = lpo
                .run_sequences(&factory, 0, &job.functions, &ExecConfig::serial())
                .reports;
            let summary = RunSummary::from_reports(&reports).fingerprint();
            Reference { reports, summary }
        });
    }
    let reference_s = check_start.elapsed().as_secs_f64();

    let counters = Arc::new(LlmCounters::default());
    let warmup_pass = run_pass(&inputs, &references, &root.join("warmup"), None);
    println!("warm-up pass: {:.3} s", warmup_pass.wall().as_secs_f64());
    let budget = Duration::from_secs(seconds);
    let window = Instant::now();
    let mut passes = Vec::new();
    let mut traced_flags = Vec::new();
    // A traced run alternates untraced and traced passes, so the tracing
    // overhead is measured under the same host conditions. Passes stop when
    // another one would mostly run past the budget.
    loop {
        let minimum = if traced { 2 } else { 1 };
        if passes.len() >= minimum {
            let typical = window.elapsed().as_secs_f64() / passes.len() as f64;
            if window.elapsed().as_secs_f64() + typical / 2.0 >= budget.as_secs_f64() {
                break;
            }
        }
        let trace_this = traced && passes.len() % 2 == 1;
        let timing = trace_this.then_some((&tracer, &counters));
        let dir = root.join(format!("pass{}", passes.len()));
        passes.push(run_pass(&inputs, &references, &dir, timing));
        traced_flags.push(trace_this);
        time_setup(1, 0.02, &mut setup_times, &mut setup);
    }

    // Peak memory of the served work, before the output checks add theirs.
    println!(
        "peak_rss_mb = {} MB (VmHWM at the end of the timed passes; not gated)",
        host::peak_rss_mb().unwrap_or(0.0)
    );

    // Every distinct find of the references re-verifies on the reference
    // checker; a job with a wrong find fails wherever it was served.
    let check_start = Instant::now();
    let (pairs, wrong) = check::verify_found(
        inputs
            .pool
            .iter()
            .chain(&inputs.jobs)
            .flat_map(|job| job.functions.iter().zip(&references[&key(job)].reports)),
    );
    let wrong_find = |job: &Job| {
        job.functions
            .iter()
            .zip(&references[&key(job)].reports)
            .any(|(f, r)| check::is_bad_find(f, r, &wrong))
    };
    let job_failed = |list: &[Job], r: &JobRecord| !r.settled.ok || wrong_find(&list[r.job]);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untimed_failures = 0;
    for pass in std::iter::once(&warmup_pass).chain(&passes) {
        untimed_failures += pass
            .warmup
            .iter()
            .filter(|r| job_failed(&inputs.pool, r))
            .count();
    }
    untimed_failures += warmup_pass
        .records
        .iter()
        .filter(|r| job_failed(&inputs.jobs, r))
        .count();
    for pass in &passes {
        attempted += inputs.jobs.len() as u64;
        failed += (inputs.jobs.len() - pass.records.len()) as u64;
        failed += pass
            .records
            .iter()
            .filter(|r| job_failed(&inputs.jobs, r))
            .count() as u64;
    }
    println!(
        "output check: {} distinct jobs run in batch mode in {reference_s:.2} s; {pairs} distinct found pairs re-verified ({} wrong) in {:.2} s; {failed} failed timed jobs, {untimed_failures} failed untimed jobs",
        references.len(),
        wrong.len(),
        check_start.elapsed().as_secs_f64()
    );

    // Per-pass numbers.
    let found_of =
        |pass: &PassResult| -> f64 { pass.records.iter().map(|r| r.settled.found).sum() };
    let reference_found = found_of(&warmup_pass);
    let consistent = passes.iter().all(|pass| found_of(pass) == reference_found);
    let rates: Vec<f64> = passes
        .iter()
        .map(|pass| {
            pass.records.iter().map(|r| r.settled.cases).sum::<usize>() as f64
                / pass.wall().as_secs_f64()
        })
        .collect();
    let records: Vec<&JobRecord> = passes.iter().flat_map(|pass| &pass.records).collect();
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms()).collect();
    let first_cases: Vec<f64> = records
        .iter()
        .filter_map(|r| r.first_case.map(|at| ms(at - r.submit)))
        .collect();
    println!("setup: {}", stats::describe(&setup_times, "s"));
    println!(
        "timed passes: {}, fastest {:.4} cases/s",
        stats::describe(&rates, "cases/s"),
        stats::fastest(&rates).unwrap_or(0.0)
    );
    println!("  per pass: {rates:.1?} cases/s");
    println!(
        "job_p50_ms / job_p90_ms (submit to done): {}",
        stats::describe(&latencies, "ms")
    );
    println!(
        "first_case_p50_ms (submit to first case frame): {}",
        stats::describe(&first_cases, "ms")
    );
    for kind in [Kind::Warm, Kind::Fresh] {
        let of_kind: Vec<f64> = records
            .iter()
            .filter(|r| inputs.jobs[r.job].kind == kind)
            .map(|r| r.latency_ms())
            .collect();
        println!("  {kind:?} jobs: {}", stats::describe(&of_kind, "ms"));
    }
    let correct = failed == 0 && untimed_failures == 0 && wrong.is_empty() && consistent;
    if !consistent {
        println!("output check: found counts differ between passes");
    }
    let mut outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    println!("host: {}", probe.summary());

    if traced {
        let traced_passes: Vec<&PassResult> = passes
            .iter()
            .zip(&traced_flags)
            .filter(|(_, &t)| t)
            .map(|(p, _)| p)
            .collect();
        let untraced_rates: Vec<f64> = rates
            .iter()
            .zip(&traced_flags)
            .filter(|(_, &t)| !t)
            .map(|(r, _)| *r)
            .collect();
        let traced_rates: Vec<f64> = rates
            .iter()
            .zip(&traced_flags)
            .filter(|(_, &t)| t)
            .map(|(r, _)| *r)
            .collect();
        let (u, t) = (
            stats::median(&untraced_rates).unwrap_or(0.0),
            stats::median(&traced_rates).unwrap_or(0.0),
        );
        println!(
            "tracing overhead: traced {t:.1} cases/s vs untraced {u:.1} cases/s: ratio {:.3} (n={} traced, {} untraced passes)",
            if u > 0.0 { t / u } else { 0.0 },
            traced_rates.len(),
            untraced_rates.len()
        );
        let n = traced_passes.len();
        let (mut accept, mut stream, mut tail) = (Vec::new(), Vec::new(), Vec::new());
        for (pass_index, pass) in traced_passes.iter().enumerate() {
            for r in &pass.records {
                let trace: Trace = format!("serve-mixed/pass{pass_index}/job{}", r.job).into();
                let job_span = tracer.record("serve.job", &trace, None, r.submit, r.done_at);
                tracer.record("serve.accept", &trace, Some(job_span), r.submit, r.accepted);
                accept.push(ms(r.accepted - r.submit));
                if let (Some(first), Some(last)) = (r.first_case, r.last_case) {
                    tracer.record("serve.stream", &trace, Some(job_span), first, last);
                    tracer.record("serve.tail", &trace, Some(job_span), last, r.done_at);
                    stream.push(ms(last - first));
                    tail.push(ms(r.done_at - last));
                }
                layers.add("serve.frames", r.frames as f64);
                layers.add("serve.bytes_out", r.bytes as f64);
                layers.add("exec.dedup_hits", r.settled.dedup_hits);
                for tier in &r.settled.tiers {
                    layers.add(tier, 1.0);
                }
            }
            layers.add("store.verdict_hits", pass.store.verdict_hits as f64);
            layers.add("store.verdict_misses", pass.store.verdict_misses as f64);
            layers.add("store.bytes_appended", pass.bytes_appended as f64);
            for (name, count) in ["llm.sessions", "llm.proposals", "llm.failed"]
                .iter()
                .zip(pass.llm)
            {
                layers.add(name, count as f64);
            }
        }
        println!("serve.accept_ms: {}", stats::describe(&accept, "ms"));
        println!("serve.stream_ms: {}", stats::describe(&stream, "ms"));
        println!("serve.tail_ms: {}", stats::describe(&tail, "ms"));
        layers.set("serve.accept_ms", stats::median(&accept).unwrap_or(0.0));
        layers.set("serve.stream_ms", stats::median(&stream).unwrap_or(0.0));
        layers.set("serve.tail_ms", stats::median(&tail).unwrap_or(0.0));
        let lookups = layers.get("store.verdict_hits") + layers.get("store.verdict_misses");
        layers.set(
            "store.hit_rate",
            if lookups > 0.0 {
                layers.get("store.verdict_hits") / lookups
            } else {
                0.0
            },
        );
        // Latency percentiles over every timed job of the run (client-side
        // spans cost nothing the server sees).
        layers.set("serve.job_p50_ms", stats::median(&latencies).unwrap_or(0.0));
        layers.set(
            "serve.job_p90_ms",
            stats::percentile(&latencies, 90.0).unwrap_or(0.0),
        );
        layers.set(
            "serve.first_case_p50_ms",
            stats::median(&first_cases).unwrap_or(0.0),
        );
        // Model calls of each traced pass's untimed warm-up are traced too;
        // the per-layer times count only those inside the timed job lists.
        let spans = tracer.spans();
        let windows: Vec<(Duration, Duration)> = traced_passes
            .iter()
            .map(|pass| (tracer.offset(pass.timed.0), tracer.offset(pass.timed.1)))
            .collect();
        let timed: Vec<_> = spans
            .iter()
            .filter(|span| {
                windows
                    .iter()
                    .any(|&(from, to)| span.start >= from && span.start < to)
            })
            .cloned()
            .collect();
        layers.add_span_times(&timed);
        write_trace("serve-mixed", seed, &spans);
        for (name, value, unit) in layers.per_pass(n) {
            outcome.metric(name, value, unit, n);
        }
    } else {
        outcome.metric(
            "setup_s",
            stats::median(&setup_times).unwrap_or(0.0),
            "s",
            setup_times.len(),
        );
        outcome.metric(
            "cases_per_s",
            stats::fastest(&rates).unwrap_or(0.0),
            "cases/s",
            rates.len(),
        );
        outcome.metric("found", reference_found, "count", 1);
        let success = (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64;
        outcome.metric("success_rate", success, "fraction", attempted as usize);
    }
    let _ = std::fs::remove_dir_all(&root);
    outcome
}
