//! `kv-zipf-open`: an open loop over a replicated `lite-kv` service.
//!
//! Layout: leader on node 1, a fast follower on 2, a slow follower on 3
//! (20 µs of apply per record), clients on 0 and 4. The two client
//! threads replay one seeded schedule at a fixed offered 20 k ops/s in
//! 200 µs-on / 100 µs-off bursts: zipf θ 0.99 keys over 1 M users, 90 %
//! gets at High priority and 10 % puts at Low, under SW-Pri. Latency
//! runs from each op's scheduled arrival, so a stall also charges the
//! requests queued behind it. This is the only workload that reaches
//! the kernel RPC path and poller, QoS, `lt_multicast_rpc_partial`,
//! `lite-log` and `lite-kv`.
//!
//! There is one offered rate only: at higher rates host scheduling
//! leaks into virtual time and identical runs disagree widely.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::SkewGate;
use lite::{LiteCluster, Priority, QosMode};
use lite_kv::workload::{OpSpec, WorkloadSpec};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use simnet::{Ctx, Nanos};

use crate::layers::{rpc_p99s, Snapshot};
use crate::report::{class_note, virt_metrics, Metrics, Samples};
use crate::trace::Tracer;
use crate::{Phase, Workload};

const CLIENTS: [usize; 2] = [0, 4];
const LEADER: usize = 1;
const FOLLOWERS: [usize; 2] = [2, 3];
const SLOW_APPLY_NS: u64 = 20_000;
/// Max virtual-clock skew between the two client threads.
const SKEW_WINDOW: Nanos = 100_000;
/// kvbench's get target, scheduled arrival to completion.
const SLO_GET_NS: Nanos = 150_000;
/// Offered rate while a burst is on.
const RATE_OPS_PER_S: f64 = 20_000.0;
/// Scheduled requests whose latencies make the virtual metrics.
const VIRT_OPS: usize = 100_000;
/// Schedule length: what the timed phase may use to fill `--seconds`.
const SCHEDULE_OPS: usize = 4 * VIRT_OPS;

/// The open-loop schedule: a pure function of the seed.
fn schedule(seed: u64, ops: usize) -> Vec<OpSpec> {
    WorkloadSpec {
        rate_ops_per_sec: RATE_OPS_PER_S,
        ops,
        burst_on_ns: 200_000,
        burst_off_ns: 100_000,
        seed,
        ..WorkloadSpec::default()
    }
    .schedule()
}

/// The value request `i` of the schedule puts: it names its writer.
fn value_of(user: usize, i: usize) -> Vec<u8> {
    format!("u{user}#{i}").into_bytes()
}

/// Whether `value` is one the schedule puts under `user`'s key.
fn was_put(schedule: &[OpSpec], user: usize, value: &[u8]) -> bool {
    let Some((u, i)) = std::str::from_utf8(value)
        .ok()
        .and_then(|s| s.strip_prefix('u'))
        .and_then(|s| s.split_once('#'))
    else {
        return false;
    };
    match (u.parse::<usize>(), i.parse::<usize>()) {
        (Ok(u), Ok(i)) => {
            u == user
                && schedule
                    .get(i)
                    .is_some_and(|op| op.user == user && !op.is_read)
        }
        _ => false,
    }
}

pub struct Env {
    cluster: Arc<LiteCluster>,
    svc: KvService,
    clients: Vec<(KvClient, Ctx)>,
    tracer: Tracer,
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    gets: Samples,
    puts: Samples,
    gets_attempted: u64,
    gets_in_slo: u64,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    late_max: Nanos,
    lag_max: u64,
    gate_wait: Duration,
    virt_end: Nanos,
}

pub struct KvZipf;

impl Workload for KvZipf {
    type Env = Env;

    fn setup(_seed: u64, tracer: Tracer) -> Result<Env, String> {
        let cluster = LiteCluster::start(5).map_err(|e| format!("cluster start: {e}"))?;
        cluster.set_qos_mode(QosMode::SwPri);
        let svc = KvService::spawn(&cluster, spec());
        let mut clients = Vec::new();
        // Warm-up: each client reaches every replica with gets and the
        // leader with a put, so QPs and RPC rings exist before timing.
        for (t, &node) in CLIENTS.iter().enumerate() {
            let mut c = KvClient::connect(&cluster, node, &spec(), SessionMode::Eventual)
                .map_err(|e| format!("connect: {e}"))?;
            let mut ctx = Ctx::new();
            let key = format!("warmup:{t}").into_bytes();
            for round in 0..2 {
                for _ in 0..spec().replicas().len() {
                    c.get(&mut ctx, &key)
                        .map_err(|e| format!("warm-up get: {e}"))?;
                }
                if round == 0 {
                    c.put(&mut ctx, &key, b"w")
                        .map_err(|e| format!("warm-up put: {e}"))?;
                }
            }
            clients.push((c, ctx));
        }
        // Let both followers apply the warm-up writes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while FOLLOWERS
            .iter()
            .any(|&f| svc.applied_seq(f) < svc.committed_seq())
        {
            if Instant::now() > deadline {
                return Err("followers did not apply the warm-up writes".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(Env {
            cluster,
            svc,
            clients,
            tracer,
        })
    }

    fn run(env: &mut Env, seed: u64, seconds: f64) -> Result<Phase, String> {
        let requests = schedule(seed, SCHEDULE_OPS);
        let before = Snapshot::take(&env.cluster);
        // Arrivals start after the latest warm-up clock.
        let base = env.clients.iter().map(|(_, c)| c.now()).max().unwrap_or(0) + 10_000;
        let gate = SkewGate::new(CLIENTS.len(), SKEW_WINDOW);
        let start = Instant::now();
        let (svc, requests) = (&env.svc, &requests);
        let results: Vec<(Client, Tracer)> = std::thread::scope(|s| {
            let joins: Vec<_> = env
                .clients
                .iter_mut()
                .enumerate()
                .map(|(t, (c, ctx))| {
                    let mut tracer = env.tracer.fork();
                    let gate = &gate;
                    s.spawn(move || {
                        let r = client_loop(
                            t,
                            c,
                            ctx,
                            &mut tracer,
                            gate,
                            svc,
                            requests,
                            base,
                            start,
                            seconds,
                        );
                        gate.finish(t);
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
            all.gets.extend(r.gets);
            all.puts.extend(r.puts);
            all.gets_attempted += r.gets_attempted;
            all.gets_in_slo += r.gets_in_slo;
            all.attempted += r.attempted;
            all.failed += r.failed;
            all.mismatches.extend(r.mismatches);
            all.late_max = all.late_max.max(r.late_max);
            all.lag_max = all.lag_max.max(r.lag_max);
            all.gate_wait += r.gate_wait;
            all.virt_end = all.virt_end.max(r.virt_end);
            env.tracer.merge(tracer);
        }
        let virt = virt_metrics(
            &all.gets,
            &all.puts,
            VIRT_OPS as f64 * 1e9 / (all.virt_end - base).max(1) as f64,
        );
        let attainment = all.gets_in_slo as f64 / all.gets_attempted.max(1) as f64;
        let notes = vec![
            class_note("gets (get_p50_us, get_p99_us)", &all.gets)?,
            class_note("puts (put_p99_us)", &all.puts)?,
            format!(
                "get_slo_attainment={attainment:.4} of {} gets within {} us",
                all.gets_attempted,
                SLO_GET_NS / 1_000
            ),
        ];
        let mut counters = timed.metrics(all.attempted);
        counters.extend(rpc_p99s(&env.cluster, CLIENTS[0]));
        counters.push("lite-kv.replication_lag_max", all.lag_max as f64, "records");
        counters.push("lite-kv.gen_late_us_max", all.late_max as f64 / 1e3, "us");
        counters.push(
            "harness.gate_wait_ms",
            all.gate_wait.as_secs_f64() * 1e3,
            "ms",
        );
        let p99 = |s: &Samples| s.pct_us(99.0).unwrap_or(0.0);
        counters.push("kv-zipf-open.get_p99_us", p99(&all.gets), "us");
        counters.push("kv-zipf-open.put_p99_us", p99(&all.puts), "us");
        counters.push("kv-zipf-open.get_slo_attainment", attainment, "share");
        Ok(Phase {
            attempted: all.attempted,
            failed: all.failed,
            mismatches: all.mismatches,
            host_secs,
            virt,
            counters,
            lazy_connects: timed.lazy_connects(),
            notes,
            tracer: env.tracer.take(),
        })
    }

    fn teardown(env: Env) -> Metrics {
        let Env {
            cluster,
            svc,
            clients,
            ..
        } = env;
        drop(clients);
        let t = Instant::now();
        svc.stop();
        let mut m = Metrics::default();
        m.push("lite-kv.stop_s", t.elapsed().as_secs_f64(), "s");
        drop(cluster);
        m
    }
}

fn spec() -> KvSpec {
    let mut spec = KvSpec::new("perfbench.kv", LEADER, &FOLLOWERS);
    spec.log_capacity = 16 << 20;
    spec.arena_bytes = 32 << 20;
    spec.slow_followers = vec![(FOLLOWERS[1], SLOW_APPLY_NS)];
    spec
}

/// Client thread `t`: replays every other scheduled request, starting
/// each at its arrival time, until its share of the virtual sample is
/// done and `seconds` have passed.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    t: usize,
    c: &mut KvClient,
    ctx: &mut Ctx,
    tracer: &mut Tracer,
    gate: &SkewGate,
    svc: &KvService,
    schedule: &[OpSpec],
    base: Nanos,
    start: Instant,
    seconds: f64,
) -> Client {
    let mut r = Client::default();
    for (i, op) in schedule.iter().enumerate().skip(t).step_by(CLIENTS.len()) {
        if i >= VIRT_OPS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if tracer.enabled() {
            let g = Instant::now();
            gate.pace(t, ctx.now());
            r.gate_wait += g.elapsed();
        } else {
            gate.pace(t, ctx.now());
        }
        let at = base + op.at;
        if ctx.now() < at {
            ctx.wait_until(at);
        }
        r.late_max = r.late_max.max(ctx.now() - at);
        let req = tracer.open_from("kv.request", i as u64, None, ctx, at);
        let key = WorkloadSpec::key_of(op.user);
        let ok = if op.is_read {
            c.set_priority(Priority::High);
            match tracer.call("lite-kv.get", i as u64, req, ctx, |ctx| c.get(ctx, &key)) {
                Ok(Some(v)) => {
                    if !was_put(schedule, op.user, &v) {
                        r.mismatches.push(format!(
                            "get {i} of user {} returned {:?}, which was never put",
                            op.user,
                            String::from_utf8_lossy(&v)
                        ));
                    }
                    true
                }
                Ok(None) => true,
                Err(_) => false,
            }
        } else {
            c.set_priority(Priority::Low);
            tracer
                .call("lite-kv.put", i as u64, req, ctx, |ctx| {
                    c.put(ctx, &key, &value_of(op.user, i))
                })
                .is_ok()
        };
        tracer.close(req, ctx, ok);
        let lat = ctx.now() - at;
        r.attempted += 1;
        r.failed += u64::from(!ok);
        if i < VIRT_OPS {
            if op.is_read {
                r.gets_attempted += 1;
                if ok {
                    r.gets.record(lat);
                    r.gets_in_slo += u64::from(lat <= SLO_GET_NS);
                }
            } else if ok {
                r.puts.record(lat);
            }
            r.virt_end = r.virt_end.max(ctx.now());
        }
        // The slow follower's lag in records, behind every request.
        let lag = svc
            .committed_seq()
            .saturating_sub(svc.applied_seq(FOLLOWERS[1]));
        r.lag_max = r.lag_max.max(lag);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &[OpSpec]) -> Vec<u8> {
        s.iter()
            .flat_map(|o| {
                let mut b = o.at.to_le_bytes().to_vec();
                b.extend_from_slice(&(o.user as u64).to_le_bytes());
                b.push(u8::from(o.is_read));
                b
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        assert_eq!(bytes(&schedule(7, 5_000)), bytes(&schedule(7, 5_000)));
        assert_ne!(bytes(&schedule(7, 5_000)), bytes(&schedule(8, 5_000)));
    }

    #[test]
    fn gets_accept_only_values_the_schedule_put() {
        let s = schedule(3, 2_000);
        let (i, put) = s.iter().enumerate().find(|(_, o)| !o.is_read).unwrap();
        assert!(was_put(&s, put.user, &value_of(put.user, i)));
        assert!(!was_put(&s, put.user + 1, &value_of(put.user, i)));
        let (j, get) = s.iter().enumerate().find(|(_, o)| o.is_read).unwrap();
        assert!(!was_put(&s, get.user, &value_of(get.user, j)));
        assert!(!was_put(&s, put.user, b"garbage"));
    }
}
