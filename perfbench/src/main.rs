//! The LPO benchmark: three seeded workloads measured end to end, plus a
//! separate traced run that splits each workload's time by module.
//!
//! ```text
//! perfbench --workload <corpus-scan|serve-mixed|rq1-detect> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the traced
//! run (`--trace 1`) prints every per-layer metric and writes its spans to
//! `.bench_out/`. Both print human-readable lines first and one JSON object
//! as the last line, and exit non-zero when an output check fails.

mod batch;
mod check;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, END_TO_END};
use std::process::ExitCode;

/// The workloads `BENCHMARK.json` lists, by name.
const WORKLOADS: [&str; 2] = ["corpus-scan", "serve-mixed"];

/// Workloads that run but are not listed in `BENCHMARK.json`. rq1-detect's
/// throughput moved by a quarter between runs minutes apart on a 2-vCPU
/// host (its Stage-3 sweeps and page faults make it the most sensitive to
/// memory contention from other tenants), more than any allowed bound.
const EXTRA_WORKLOADS: [&str; 1] = ["rq1-detect"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS
        .iter()
        .chain(&EXTRA_WORKLOADS)
        .any(|&w| w == workload)
    {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}|{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|"),
                EXTRA_WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "rq1-detect" => workloads::run_batch_workload(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            |_| workloads::rq1_plan(args.seed),
        ),
        "corpus-scan" => workloads::run_batch_workload(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            |tracer| workloads::corpus_plan(args.seed, tracer),
        ),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let expected: Vec<(&str, &str)> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    if let Err(message) = outcome.validate(&expected) {
        eprintln!("perfbench: internal error: {message}");
        return ExitCode::from(3);
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: an output check failed ({} of {} operations)",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = parse("--workload serve-mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("serve-mixed", 7, 3, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload rq1-detect --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload rq1-detect --seed").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        use lpo_serve::json::Json;
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("metric field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(layers::PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
