//! `txn-ycsb-a`: a closed loop of two client threads on nodes 0 and 1
//! running `lite-txn` OCC transactions against a 64-record table homed
//! on node 2 (txnbench's table size).
//!
//! Each transaction reads two distinct records drawn zipf θ 0.99. Half
//! are read-only; half also move a seeded amount from one record to the
//! other, which conserves the table's sum. Conflicts are retried with
//! backoff. It uses the one-sided layer very differently from
//! `onesided-mix` (lock CAS, validation fetch-adds, contention, aborts)
//! and is the workload commit-path batching must move.

use std::sync::Arc;
use std::time::Instant;

use lite::{LiteCluster, LiteHandle};
use lite_txn::{TableSpec, Txn, TxnError, TxnResult, TxnTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{Ctx, Nanos, Zipf};

use crate::layers::Snapshot;
use crate::report::{class_note, virt_metrics, Metrics, Samples};
use crate::trace::Tracer;
use crate::{Phase, Workload};

const CLIENTS: [usize; 2] = [0, 1];
const HOME: usize = 2;
const RECORDS: u64 = 64;
const INITIAL: u64 = 100;
const TABLE: &str = "perfbench.txn";
/// Attempts before a transaction counts as failed.
const MAX_ATTEMPTS: u32 = 256;
/// Transactions per client whose latencies make the virtual metrics.
const VIRT_TXNS: usize = 150_000;

pub struct Env {
    cluster: Arc<LiteCluster>,
    clients: Vec<(LiteHandle, Ctx, TxnTable)>,
    tracer: Tracer,
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    all: Samples,
    rmw: Samples,
    attempted: u64,
    failed: u64,
    commit_attempts: u64,
    commits: u64,
    validation_fails: u64,
    virt_elapsed: Nanos,
}

fn u64_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte record"))
}

pub struct TxnYcsbA;

impl Workload for TxnYcsbA {
    type Env = Env;

    fn setup(_seed: u64, tracer: Tracer) -> Result<Env, String> {
        let cluster = LiteCluster::start(3).map_err(|e| format!("cluster start: {e}"))?;
        let mut clients = Vec::new();
        for (t, &node) in CLIENTS.iter().enumerate() {
            let mut h = cluster.attach(node).map_err(|e| format!("attach: {e}"))?;
            let mut ctx = Ctx::new();
            let table = if t == 0 {
                let table =
                    TxnTable::create(&mut h, &mut ctx, HOME, TABLE, TableSpec::new(RECORDS, 8))
                        .map_err(|e| format!("create table: {e}"))?;
                let recs: Vec<u64> = (0..RECORDS).collect();
                for chunk in recs.chunks(16) {
                    let mut init = table.begin();
                    for &rec in chunk {
                        init.write(rec, &INITIAL.to_le_bytes())
                            .map_err(|e| format!("load: {e}"))?;
                    }
                    init.commit(&mut h, &mut ctx)
                        .map_err(|e| format!("load: {e}"))?;
                }
                table
            } else {
                TxnTable::open(&mut h, &mut ctx, TABLE).map_err(|e| format!("open table: {e}"))?
            };
            clients.push((h, ctx, table));
        }
        // Warm-up: each client reads every record and commits one
        // unchanged write, which wires its QPs and touches the records,
        // lock words and decision slots before timing.
        for (h, ctx, table) in &mut clients {
            let mut txn = table.begin();
            let mut first = 0;
            for rec in 0..RECORDS {
                let v = u64_of(&txn.read(h, ctx, rec).map_err(|e| format!("warm-up: {e}"))?);
                if rec == 0 {
                    first = v;
                }
            }
            txn.write(0, &first.to_le_bytes())
                .map_err(|e| format!("warm-up: {e}"))?;
            txn.commit(h, ctx).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(Env {
            cluster,
            clients,
            tracer,
        })
    }

    fn run(env: &mut Env, seed: u64, seconds: f64) -> Result<Phase, String> {
        let before = Snapshot::take(&env.cluster);
        let zipf = Zipf::new(RECORDS as usize, 0.99);
        let start = Instant::now();
        let results: Vec<(Client, Tracer)> = std::thread::scope(|s| {
            let joins: Vec<_> = env
                .clients
                .iter_mut()
                .enumerate()
                .map(|(t, (h, ctx, table))| {
                    let mut tracer = env.tracer.fork();
                    let zipf = &zipf;
                    let rng = SmallRng::seed_from_u64(seed ^ ((t as u64 + 1) << 48));
                    s.spawn(move || {
                        let r = client_loop(h, ctx, table, zipf, rng, &mut tracer, start, seconds);
                        (r, tracer)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread panicked"))
                .collect()
        });
        let host_secs = start.elapsed().as_secs_f64();
        let timed = Snapshot::take(&env.cluster).since(&before);

        let mut all = Client::default();
        for (r, tracer) in results {
            all.all.extend(r.all);
            all.rmw.extend(r.rmw);
            all.attempted += r.attempted;
            all.failed += r.failed;
            all.commit_attempts += r.commit_attempts;
            all.commits += r.commits;
            all.validation_fails += r.validation_fails;
            all.virt_elapsed = all.virt_elapsed.max(r.virt_elapsed);
            env.tracer.merge(tracer);
        }
        let mismatches = check_sum(env)?;

        let virt = virt_metrics(
            &all.all,
            &all.rmw,
            all.all.len() as f64 * 1e9 / all.virt_elapsed.max(1) as f64,
        );
        let notes = vec![
            class_note("txns (txn_p50_us, txn_p99_us)", &all.all)?,
            class_note("read-modify-write txns", &all.rmw)?,
        ];
        let mut counters = timed.metrics(all.attempted);
        counters.push(
            "lite-txn.attempts_per_commit",
            all.commit_attempts as f64 / all.commits.max(1) as f64,
            "count",
        );
        counters.push(
            "lite-txn.validation_fails",
            all.validation_fails as f64,
            "count",
        );
        Ok(Phase {
            attempted: all.attempted,
            failed: all.failed,
            mismatches,
            host_secs,
            virt,
            counters,
            lazy_connects: timed.lazy_connects(),
            notes,
            tracer: env.tracer.take(),
        })
    }

    fn teardown(env: Env) -> Metrics {
        drop(env);
        Metrics::default()
    }
}

/// Reads every record in one transaction and checks that transfers
/// conserved the table's sum.
fn check_sum(env: &mut Env) -> Result<Vec<String>, String> {
    let (h, ctx, table) = &mut env.clients[0];
    let mut txn = table.begin();
    let mut sum = 0u64;
    for rec in 0..RECORDS {
        sum += u64_of(
            &txn.read(h, ctx, rec)
                .map_err(|e| format!("final read: {e}"))?,
        );
    }
    txn.commit(h, ctx).map_err(|e| format!("final read: {e}"))?;
    Ok(if sum == RECORDS * INITIAL {
        Vec::new()
    } else {
        vec![format!("records sum to {sum}, not {}", RECORDS * INITIAL)]
    })
}

/// One attempt of a transaction: read both records and, when `amount`
/// is given, move up to it from `a` to `b`; then commit.
#[allow(clippy::too_many_arguments)]
fn transfer(
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    mut txn: Txn<'_>,
    tracer: &mut Tracer,
    req: u64,
    parent: Option<usize>,
    (a, b): (u64, u64),
    amount: Option<u64>,
    r: &mut Client,
) -> TxnResult<()> {
    let va = u64_of(&tracer.call("lite-txn.read", req, parent, ctx, |c| txn.read(h, c, a))?);
    let vb = u64_of(&tracer.call("lite-txn.read", req, parent, ctx, |c| txn.read(h, c, b))?);
    if let Some(amount) = amount {
        let moved = amount.min(va);
        txn.write(a, &(va - moved).to_le_bytes())?;
        txn.write(b, &(vb + moved).to_le_bytes())?;
    }
    r.commit_attempts += 1;
    tracer.call("lite-txn.commit", req, parent, ctx, |c| txn.commit(h, c))
}

/// One client: closed-loop transactions until its share of the virtual
/// sample is done and `seconds` have passed.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    table: &TxnTable,
    zipf: &Zipf,
    mut rng: SmallRng,
    tracer: &mut Tracer,
    start: Instant,
    seconds: f64,
) -> Client {
    let mut r = Client::default();
    let virt_start = ctx.now();
    let mut i = 0usize;
    while i < VIRT_TXNS || start.elapsed().as_secs_f64() < seconds {
        let a = zipf.sample(&mut rng) as u64;
        let mut b = zipf.sample(&mut rng) as u64;
        if b == a {
            b = (a + 1) % RECORDS;
        }
        let rmw = rng.gen_bool(0.5);
        let amount = rng.gen_range(1..8u64);
        let t0 = ctx.now();
        let req = tracer.open("txn.request", i as u64, None, ctx);
        let mut outcome = Err(());
        for attempt in 0..MAX_ATTEMPTS {
            let txn = table.begin();
            let tag = i as u64;
            match transfer(
                h,
                ctx,
                txn,
                tracer,
                tag,
                req,
                (a, b),
                rmw.then_some(amount),
                &mut r,
            ) {
                Ok(()) => {
                    r.commits += 1;
                    outcome = Ok(());
                    break;
                }
                Err(TxnError::Conflict { validation }) => {
                    r.validation_fails += u64::from(validation);
                    ctx.work(200 << attempt.min(4));
                }
                Err(_) => break,
            }
        }
        tracer.close(req, ctx, outcome.is_ok());
        r.attempted += 1;
        r.failed += u64::from(outcome.is_err());
        if i < VIRT_TXNS && outcome.is_ok() {
            let lat = ctx.now() - t0;
            r.all.record(lat);
            if rmw {
                r.rmw.record(lat);
            }
            r.virt_elapsed = ctx.now() - virt_start;
        }
        i += 1;
    }
    r
}
