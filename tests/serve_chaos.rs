//! Chaos and crash-recovery tests for the serving shell.
//!
//! The serving layer inherits the engine's failure model and must not
//! weaken it at the wire boundary:
//!
//! - **Containment over the socket** — with a [`FaultyModelFactory`]
//!   injecting seeded faults behind the server's factory boundary, cases
//!   the chaos never touched stream byte-identically to a fault-free run;
//!   faulted cases arrive as ordinary `failed` frames; the job's `done`
//!   frame arrives and the queue keeps serving afterwards.
//! - **Kill + restart resume** — a client that dies mid-job cancels the
//!   job but keeps its completed checkpoints; a server restarted on the
//!   same `--store` path (even with a torn tail from the kill) serves a
//!   `"resume": true` resubmission that converges to the uninterrupted
//!   fingerprints.
//!
//! Like `tests/fault_injection.rs`, every test walks a fixed chaos-seed
//! block and appends a rotating seed from `LPO_CHAOS_SEED` when set (the CI
//! chaos-smoke step derives it from the commit hash), so any failure is
//! replayable with `LPO_CHAOS_SEED=<seed> cargo test --test serve_chaos`.

use lpo::prelude::*;
use lpo_corpus::rq1_suite;
use lpo_ir::function::Function;
use lpo_llm::model::ModelFactory;
use lpo_llm::prelude::{gemini2_0t, FaultRates, FaultyModelFactory, SimulatedModelFactory};
use lpo_llm::profiles::ModelProfile;
use lpo_serve::json::Json;
use lpo_serve::prelude::{
    FactoryProvider, JobOutcome, ServeClient, ServeConfig, Server, SubmitOptions,
};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The acceptance fault rate, matching the engine-level chaos tests.
const CHAOS_RATE: f64 = 0.10;

fn suite() -> Vec<Function> {
    rq1_suite().into_iter().map(|case| case.function).collect()
}

fn reference() -> (Vec<String>, String) {
    let lpo = Lpo::new(LpoConfig::default());
    let factory = SimulatedModelFactory::new(gemini2_0t(), 42);
    let batch = lpo::exec::run_batch_persisted(
        &lpo,
        &factory,
        0,
        &suite(),
        &ExecConfig::with_jobs(2),
        None,
    );
    (batch.reports.iter().map(CaseReport::fingerprint).collect(), batch.summary.fingerprint())
}

/// The fixed chaos seeds plus (flagged `true`) the rotating `LPO_CHAOS_SEED`.
/// Injection-volume assertions only apply to the fixed block — a
/// commit-derived seed may legitimately draw few faults.
fn chaos_seeds() -> Vec<(u64, bool)> {
    let mut seeds =
        vec![(0x5e4e_5eed_0000_0001, false), (0x9e37_79b9_7f4a_7c15, false)];
    if let Some(rotating) = rotating_seed() {
        eprintln!("serve chaos: appending rotating seed LPO_CHAOS_SEED={rotating:#x}");
        seeds.push((rotating, true));
    }
    seeds
}

fn rotating_seed() -> Option<u64> {
    let raw = std::env::var("LPO_CHAOS_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("LPO_CHAOS_SEED must be a u64 (decimal or 0x hex), got {raw:?}"),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lpo-serve-chaos-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{tag}.log"))
}

/// Opens the scratch store, retrying briefly: after `Server::run` returns,
/// a connection thread may still be dropping its last `Arc` to the store,
/// and the lock is only released on the final drop.
fn open_store_retry(path: &Path) -> VerdictStore {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match VerdictStore::open(path) {
            Ok(store) => return store,
            Err(err) => {
                assert!(Instant::now() < deadline, "store stayed locked: {err:?}");
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn clean(path: &Path) {
    let _ = fs::remove_file(path);
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    let _ = fs::remove_file(PathBuf::from(lock));
}

/// A provider that hands every job the same shared faulty factory, keeping a
/// test-side handle to its injected-fault ledger.
struct ChaosProvider {
    faulty: Arc<FaultyModelFactory<SimulatedModelFactory>>,
}

impl FactoryProvider for ChaosProvider {
    fn build(&self, _profile: ModelProfile, _seed: u64) -> Box<dyn ModelFactory> {
        Box::new(Arc::clone(&self.faulty))
    }
}

fn streamed(outcome: &JobOutcome, cases: usize) -> Vec<(String, String)> {
    let mut slots: Vec<Option<(String, String)>> = vec![None; cases];
    for frame in outcome.cases() {
        let index = frame.get("case").and_then(Json::as_num).expect("case index") as usize;
        let outcome_kind =
            frame.get("outcome").and_then(Json::as_str).expect("outcome").to_string();
        let fingerprint =
            frame.get("fingerprint").and_then(Json::as_str).expect("fingerprint").to_string();
        assert!(slots[index].is_none(), "case {index} streamed twice");
        slots[index] = Some((outcome_kind, fingerprint));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.unwrap_or_else(|| panic!("case {index} never streamed")))
        .collect()
}

#[test]
fn faulted_jobs_stream_contained_failures_and_never_wedge_the_queue() {
    let (expected, _) = reference();
    for (chaos_seed, rotating) in chaos_seeds() {
        let faulty = Arc::new(FaultyModelFactory::new(
            SimulatedModelFactory::new(gemini2_0t(), 42),
            FaultRates::uniform(CHAOS_RATE),
            chaos_seed,
        ));
        let store = Arc::new(VerdictStore::in_memory());
        let server = Server::bind_with_provider(
            "127.0.0.1:0",
            ServeConfig { jobs: 2, ..ServeConfig::default() },
            store,
            Box::new(ChaosProvider { faulty: Arc::clone(&faulty) }),
        )
        .expect("bind chaos server");
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.run());
        let mut client = ServeClient::connect(&addr).expect("connect");

        let chaotic = client.submit(&SubmitOptions::corpus("rq1")).expect("chaotic submit");
        let faulted: BTreeSet<u64> = faulty
            .faulted_cases()
            .into_iter()
            .filter(|(round, _)| *round == 0)
            .map(|(_, case)| case)
            .collect();
        let cases = streamed(&chaotic, expected.len());
        let mut compared = 0usize;
        for (index, (outcome_kind, fingerprint)) in cases.iter().enumerate() {
            if faulted.contains(&(index as u64)) {
                continue;
            }
            compared += 1;
            assert_eq!(
                fingerprint,
                &expected[index],
                "unfaulted case {index} diverged over the wire (seed {chaos_seed:#x}, \
                 outcome {outcome_kind})"
            );
        }
        assert!(compared > 0, "every case faulted at rate {CHAOS_RATE} (seed {chaos_seed:#x})");
        if !rotating {
            assert!(
                faulty.injected().total() > 0,
                "fixed chaos seed {chaos_seed:#x} injected nothing; the chaos path is untested"
            );
        }

        // The queue must keep serving after a faulted job: the next job
        // completes end to end on the same connection and a fresh one.
        let again = client.submit(&SubmitOptions::corpus("rq1")).expect("submit after chaos");
        assert_eq!(again.cases().len(), expected.len());
        let mut second = ServeClient::connect(&addr).expect("second connection");
        let other = second.submit(&SubmitOptions::corpus("rq1")).expect("fresh-client submit");
        assert_eq!(other.cases().len(), expected.len());

        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }
}

#[test]
fn panic_storms_stream_as_failed_frames_and_the_done_frame_still_arrives() {
    // A panic-heavy storm (mirroring the engine-level chaos test): every
    // blast must surface as an ordinary `failed` case frame — the job's
    // `done` frame still arrives, and the next job serves cleanly.
    let faulty = Arc::new(FaultyModelFactory::new(
        SimulatedModelFactory::new(gemini2_0t(), 42),
        FaultRates { timeout: 0.05, garbage: 0.05, error: 0.05, panic: 0.30 },
        0xabad_5eed_0dd5_0c1a,
    ));
    let store = Arc::new(VerdictStore::in_memory());
    let server = Server::bind_with_provider(
        "127.0.0.1:0",
        ServeConfig { jobs: 2, ..ServeConfig::default() },
        store,
        Box::new(ChaosProvider { faulty: Arc::clone(&faulty) }),
    )
    .expect("bind storm server");
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run());
    let mut client = ServeClient::connect(&addr).expect("connect");

    let stormy = client.submit(&SubmitOptions::corpus("rq1")).expect("storm submit");
    assert!(faulty.injected().panics > 0, "a 0.3 panic rate must inject at least one panic");
    let failed_frames = stormy
        .cases()
        .iter()
        .filter(|f| f.get("outcome").and_then(Json::as_str) == Some("failed"))
        .count();
    assert!(failed_frames > 0, "injected panics must stream as failed case frames");
    let done_failed = stormy.done().get("failed").and_then(Json::as_num).expect("failed count");
    assert_eq!(failed_frames as f64, done_failed, "done frame disagrees with the stream");
    assert_eq!(stormy.cases().len(), suite().len(), "a panic dropped a case from the stream");

    // The storm must not wedge the queue: the next job completes in full.
    let next = client.submit(&SubmitOptions::corpus("rq1")).expect("submit after storm");
    assert_eq!(next.cases().len(), suite().len());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn killed_job_resumes_on_a_restarted_server_with_a_torn_store_tail() {
    let (expected, expected_summary) = reference();
    let path = scratch("serve-kill-resume");
    clean(&path);
    let config = ServeConfig { jobs: 1, ..ServeConfig::default() };

    // Server 1: a client submits, reads a few streamed cases, then dies.
    {
        let store = Arc::new(open_store_retry(&path));
        let server = Server::bind("127.0.0.1:0", config.clone(), store).expect("bind server 1");
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.run());

        {
            let mut victim = ServeClient::connect(&addr).expect("connect victim");
            victim.send_line(&SubmitOptions::corpus("rq1").request_line()).expect("submit");
            let accepted = victim.read_frame().expect("accepted");
            assert_eq!(accepted.get("kind").and_then(Json::as_str), Some("accepted"));
            for _ in 0..3 {
                let frame = victim.read_frame().expect("streamed case");
                assert_eq!(frame.get("kind").and_then(Json::as_str), Some("case"));
            }
            // Drop the connection mid-job: the reader must cancel the rest.
        }

        // Wait for the server to settle the killed job, then stop it.
        let mut closer = ServeClient::connect(&addr).expect("connect closer");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = closer.stats().expect("stats");
            let settled = stats.get("jobs_completed").and_then(Json::as_num).unwrap_or(0.0)
                + stats.get("jobs_cancelled").and_then(Json::as_num).unwrap_or(0.0);
            if settled >= 1.0 {
                break;
            }
            assert!(Instant::now() < deadline, "killed job never settled");
            thread::sleep(Duration::from_millis(25));
        }
        closer.shutdown().expect("shutdown server 1");
        handle.join().expect("server 1 thread").expect("server 1 run");
    }

    // The kill could have torn the store's final write: chop a few bytes.
    // Wait for the last store handle to drop before touching the file.
    drop(open_store_retry(&path));
    let image = fs::read(&path).expect("read store image");
    assert!(!image.is_empty(), "the killed job checkpointed nothing");
    fs::write(&path, &image[..image.len().saturating_sub(3)]).expect("write torn image");

    // Server 2 on the same path: a resume resubmission must replay the
    // surviving checkpoints and converge to the uninterrupted fingerprints.
    {
        let store = Arc::new(open_store_retry(&path));
        let server = Server::bind("127.0.0.1:0", config, store).expect("bind server 2");
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.run());
        let mut client = ServeClient::connect(&addr).expect("connect");

        let mut resume = SubmitOptions::corpus("rq1");
        resume.resume = true;
        let resumed = client.submit(&resume).expect("resume submit");
        let cases = streamed(&resumed, expected.len());
        for (index, (outcome_kind, fingerprint)) in cases.iter().enumerate() {
            assert_ne!(outcome_kind.as_str(), "failed", "case {index} failed after resume");
            assert_eq!(
                fingerprint,
                &expected[index],
                "case {index} diverged after kill + restart + torn-tail recovery"
            );
        }
        assert_eq!(
            resumed.done().get("summary").and_then(Json::as_str),
            Some(expected_summary.as_str()),
            "resumed summary diverged from the uninterrupted reference"
        );
        let replayed =
            resumed.done().get("resumed").and_then(Json::as_num).expect("resumed count");
        assert!(
            replayed > 0.0,
            "the restarted server replayed no checkpoints from the killed job"
        );
        let resumed_frames = resumed
            .cases()
            .iter()
            .filter(|f| f.get("resumed") == Some(&Json::Bool(true)))
            .count();
        assert_eq!(resumed_frames as f64, replayed, "resumed tags disagree with the counter");

        client.shutdown().expect("shutdown server 2");
        handle.join().expect("server 2 thread").expect("server 2 run");
    }
    clean(&path);
}
