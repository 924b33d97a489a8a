//! perfbench: the repository benchmark.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One process sets a workload up several times (the median is
//! `setup_s`), runs its timed phase for at least `--seconds` host
//! seconds, checks every output, tears it down, and prints as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones. With
//! `--trace 1` an untraced and a traced phase each run for half the
//! time, each on a fresh set-up, and the metrics are the per-layer ones
//! computed from the traced phase's spans and the layers' counters.
//!
//! The workloads, their metrics and what each layer metric should move
//! are described in `perfbench/METRICS.md`.

mod kv;
mod layers;
mod onesided;
mod report;
mod trace;
mod txn;

use std::process::ExitCode;
use std::time::Instant;

use report::{median, peak_rss_mb, result_line, Metrics};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The span file keeps the spans of each client's first requests.
const SPAN_FILE_REQS: u64 = 10_000;

/// What one timed phase produced.
pub struct Phase {
    /// Requests issued (ops, KV requests or transactions).
    pub attempted: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub mismatches: Vec<String>,
    /// Host seconds the timed phase took.
    pub host_secs: f64,
    /// Virtual-clock end-to-end metrics.
    pub virt: Metrics,
    /// Layer counters (reported by the traced run).
    pub counters: Metrics,
    /// Peer pairs wired during the timed phase (must be 0).
    pub lazy_connects: u64,
    /// Human-readable lines printed before the metrics (sample counts).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// One benchmark workload.
pub trait Workload {
    type Env;

    /// Boots the cluster, registers memory, spawns services, loads
    /// tables and warms every path the timed phase will use.
    fn setup(seed: u64, tracer: Tracer) -> Result<Self::Env, String>;

    /// Runs until the workload's fixed virtual sample is complete and
    /// at least `seconds` host seconds have passed.
    fn run(env: &mut Self::Env, seed: u64, seconds: f64) -> Result<Phase, String>;

    /// Stops services and frees the cluster; returns counters that
    /// only teardown can measure.
    fn teardown(env: Self::Env) -> Metrics;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <onesided-mix|kv-zipf-open|txn-ycsb-a> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "onesided-mix" => drive::<onesided::OneSided>(&args),
        "kv-zipf-open" => drive::<kv::KvZipf>(&args),
        "txn-ycsb-a" => drive::<txn::TxnYcsbA>(&args),
        w => Err(format!("unknown workload {w}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload end to end and prints its result; returns whether
/// every output check passed.
fn drive<W: Workload>(args: &Args) -> Result<bool, String> {
    let epoch = Instant::now();
    // A traced run reports no `setup_s`, so it sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut env = None;
    for k in 0..setups {
        let t = Instant::now();
        let e = W::setup(args.seed, Tracer::new(false, epoch))?;
        setup_secs.push(t.elapsed().as_secs_f64());
        if k + 1 < setups {
            W::teardown(e);
        } else {
            env = Some(e);
        }
    }
    let mut env = env.expect("at least one set-up");

    let (phase, mut counters) = if args.trace {
        let untraced = W::run(&mut env, args.seed, args.seconds / 2.0)?;
        W::teardown(env);
        let mut env = W::setup(args.seed, Tracer::new(true, epoch))?;
        let mut traced = W::run(&mut env, args.seed, args.seconds / 2.0)?;
        let mut counters = W::teardown(env);
        counters.extend(std::mem::take(&mut traced.counters));
        let rate = |p: &Phase| p.attempted as f64 / p.host_secs;
        counters.push(
            "harness.trace_overhead",
            1.0 - rate(&traced) / rate(&untraced),
            "share",
        );
        traced.mismatches.extend(untraced.mismatches);
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced.lazy_connects += untraced.lazy_connects;
        (traced, counters)
    } else {
        let phase = W::run(&mut env, args.seed, args.seconds)?;
        W::teardown(env);
        (phase, Metrics::default())
    };

    let mut checks = phase.mismatches.clone();
    if phase.lazy_connects > 0 {
        checks.push(format!(
            "{} peer pairs were wired during the timed phase; warm-up missed them",
            phase.lazy_connects
        ));
    }
    for c in checks.iter().take(20) {
        eprintln!("check failed: {c}");
    }
    let correct = checks.is_empty();

    let metrics = if args.trace {
        // Relative to the working directory, the root of the checkout.
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}.jsonl", args.workload));
        phase
            .tracer
            .write_spans(&path, SPAN_FILE_REQS)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        let mut m = phase.tracer.layer_metrics();
        let p50 = |name: &str| m.get(&format!("{name}.virt_us_p50")).unwrap_or(0.0);
        counters.push(
            "lite.api.overhead_us",
            p50("lite.api.lt_read64") - p50("rnic.post_read64"),
            "us",
        );
        m.extend(layers::all_counters(counters));
        m
    } else {
        let mut m = Metrics::default();
        m.push("setup_s", median(&setup_secs), "s");
        m.push(
            "host_ops_per_s",
            phase.attempted as f64 / phase.host_secs,
            "ops/s",
        );
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        m.extend(phase.virt);
        m
    };
    for n in &phase.notes {
        println!("{n}");
    }
    for x in &metrics.0 {
        println!("{:<44} {:>16.4} {}", x.name, x.value, x.unit);
    }
    println!(
        "{}",
        result_line(correct, phase.attempted, phase.failed, &metrics)
    );
    Ok(correct)
}
