//! `onesided-mix`: a closed loop of one client on node 0 against 64
//! LMRs of 1 MB mastered on node 1.
//!
//! Seven ops in eight are 64 B `lt_read` / `lt_write` / `lt_fetch_add`
//! / `lt_cmp_swap` (where per-op cost dominates); one in eight is a
//! 64 KB read or write (where the link dominates), all at seeded random
//! offsets. It exercises `lite::api`, the kernel datapath, the RNIC and
//! `simnet` resources and bypasses the RPC ring, poller, QoS and every
//! app. With one client thread its virtual results are exact: the same
//! seed gives bit-identical virtual metrics.

use std::sync::Arc;
use std::time::Instant;

use bench::VerbsEnv;
use lite::{Lh, LiteCluster, LiteHandle, Perm};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rnic::{Access, Qp, RemoteAddr, Sge};
use simnet::Ctx;

use crate::layers::Snapshot;
use crate::report::{class_note, virt_metrics, Metrics, Samples};
use crate::trace::Tracer;
use crate::{Phase, Workload};

const LMRS: usize = 64;
const LMR_BYTES: usize = 1 << 20;
const SMALL: usize = 64;
const BULK: usize = 64 << 10;
/// Ops whose virtual latencies make the virtual metrics. Fixed, so the
/// virtual metrics depend on the seed alone and not on host speed.
const VIRT_OPS: u64 = 200_000;
/// Raw-verbs reference calls per kind in the traced run.
const VERBS_OPS: usize = 2_000;

/// The raw-verbs reference beneath LITE: node 0 → one 1 MB MR on node 1.
struct Verbs {
    env: VerbsEnv,
    qp: Arc<Qp>,
    lkey: u32,
    local: u64,
    remote: RemoteAddr,
}

pub struct Env {
    cluster: Arc<LiteCluster>,
    h: LiteHandle,
    ctx: Ctx,
    lhs: Vec<Lh>,
    /// What every LMR must hold.
    shadow: Vec<Vec<u8>>,
    verbs: Option<Verbs>,
    tracer: Tracer,
    /// Ops in the virtual sample ([`VIRT_OPS`]; tests take fewer).
    virt_ops: u64,
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Write,
    FetchAdd(u64),
    CmpSwap { hit: bool, new: u64 },
    BulkRead,
    BulkWrite,
}

fn gen_op(rng: &mut SmallRng) -> (Op, usize, usize) {
    let lmr = rng.gen_range(0..LMRS);
    let pick = rng.gen_range(0..16u32);
    let op = match pick {
        0 => Op::BulkRead,
        1 => Op::BulkWrite,
        p => match p % 4 {
            0 => Op::Read,
            1 => Op::Write,
            2 => Op::FetchAdd(rng.gen_range(1..1_000u64)),
            _ => Op::CmpSwap {
                hit: rng.gen_bool(0.5),
                new: rng.gen(),
            },
        },
    };
    let off = match op {
        Op::BulkRead | Op::BulkWrite => rng.gen_range(0..LMR_BYTES - BULK + 1),
        Op::FetchAdd(_) | Op::CmpSwap { .. } => rng.gen_range(0..LMR_BYTES / 8) * 8,
        Op::Read | Op::Write => rng.gen_range(0..LMR_BYTES - SMALL + 1),
    };
    (op, lmr, off)
}

fn word(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

fn verbs_reference() -> Result<Verbs, String> {
    let env = VerbsEnv::new(2);
    let mut ctx = Ctx::new();
    let err = |e: &dyn std::fmt::Debug| format!("verbs set-up: {e:?}");
    let region = env.spaces[1].mmap(LMR_BYTES as u64).map_err(|e| err(&e))?;
    let mr = env
        .fabric
        .nic(1)
        .register_mr(
            &mut ctx,
            &env.spaces[1],
            region,
            LMR_BYTES as u64,
            Access::RW,
        )
        .map_err(|e| err(&e))?;
    let local = env.spaces[0].mmap(SMALL as u64).map_err(|e| err(&e))?;
    let lmr = env
        .fabric
        .nic(0)
        .register_mr(&mut ctx, &env.spaces[0], local, SMALL as u64, Access::LOCAL)
        .map_err(|e| err(&e))?;
    let (qp, _) = env.fabric.rc_pair(0, 1);
    Ok(Verbs {
        qp,
        lkey: lmr.lkey(),
        local,
        remote: RemoteAddr {
            rkey: mr.rkey(),
            addr: mr.base(),
        },
        env,
    })
}

impl Verbs {
    /// Raw 64 B reads and writes at seeded offsets, each in a span.
    fn run(&self, seed: u64, tracer: &mut Tracer) -> Result<(), String> {
        let mut ctx = Ctx::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7665_7262);
        let nic = self.env.fabric.nic(0);
        let poll = self.env.fabric.cost().cq_poll_ns;
        let sge = Sge::Virt {
            lkey: self.lkey,
            addr: self.local,
            len: SMALL,
        };
        // The first read and write are untraced: they warm the QP and caches.
        for i in 0..2 * VERBS_OPS + 2 {
            let remote = RemoteAddr {
                rkey: self.remote.rkey,
                addr: self.remote.addr + rng.gen_range(0..(LMR_BYTES - SMALL) as u64),
            };
            let read = i % 2 == 0;
            let name = if read {
                "rnic.post_read64"
            } else {
                "rnic.post_write64"
            };
            let span = if i >= 2 {
                tracer.open(name, i as u64, None, &ctx)
            } else {
                None
            };
            let comp = if read {
                nic.post_read(&mut ctx, &self.qp, i as u64, &sge, remote, true)
            } else {
                nic.post_write(&mut ctx, &self.qp, i as u64, &sge, remote, None, true)
            };
            let comp = comp.map_err(|e| format!("raw verbs op {i}: {e:?}"))?;
            ctx.wait_until(comp);
            ctx.work(poll);
            tracer.close(span, &ctx, true);
        }
        Ok(())
    }
}

pub struct OneSided;

impl Workload for OneSided {
    type Env = Env;

    fn setup(seed: u64, mut tracer: Tracer) -> Result<Env, String> {
        let cluster = LiteCluster::start(2).map_err(|e| format!("cluster start: {e}"))?;
        let mut h = cluster.attach(0).map_err(|e| format!("attach: {e}"))?;
        let mut ctx = Ctx::new();
        let mut lhs = Vec::with_capacity(LMRS);
        for i in 0..LMRS {
            let name = format!("perfbench.onesided.{i}");
            let lh = tracer
                .call("lite.api.lt_malloc", i as u64, None, &mut ctx, |c| {
                    h.lt_malloc(c, 1, LMR_BYTES as u64, &name, Perm::RW)
                })
                .map_err(|e| format!("lt_malloc {i}: {e}"))?;
            lhs.push(lh);
        }
        // Warm-up: write every byte of every LMR with seeded data, which
        // touches every page and wires the QPs before timing starts.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6669_6c6c);
        let mut shadow = Vec::with_capacity(LMRS);
        for &lh in &lhs {
            let mut bytes = vec![0u8; LMR_BYTES];
            for w in bytes.chunks_exact_mut(8) {
                w.copy_from_slice(&rng.gen::<u64>().to_le_bytes());
            }
            for (k, piece) in bytes.chunks(BULK).enumerate() {
                h.lt_write(&mut ctx, lh, (k * BULK) as u64, piece)
                    .map_err(|e| format!("warm-up write: {e}"))?;
            }
            shadow.push(bytes);
        }
        let verbs = if tracer.enabled() {
            Some(verbs_reference()?)
        } else {
            None
        };
        Ok(Env {
            cluster,
            h,
            ctx,
            lhs,
            shadow,
            verbs,
            tracer,
            virt_ops: VIRT_OPS,
        })
    }

    fn run(env: &mut Env, seed: u64, seconds: f64) -> Result<Phase, String> {
        let Env {
            cluster,
            h,
            ctx,
            lhs,
            shadow,
            tracer,
            verbs,
            virt_ops,
        } = env;
        let virt_ops = *virt_ops;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut small = Samples::default();
        let mut small_writes = Samples::default();
        let (mut bulk_ns, mut bulk_bytes) = (0u128, 0u128);
        let mut mismatches = Vec::new();
        let (mut done, mut failed) = (0u64, 0u64);
        let mut buf = vec![0u8; BULK];
        let before = Snapshot::take(cluster);
        let virt_start = ctx.now();
        let mut virt_end = virt_start;
        let start = Instant::now();
        while done < virt_ops || start.elapsed().as_secs_f64() < seconds {
            let (op, lmr, off) = gen_op(&mut rng);
            let (lh, mem) = (lhs[lmr], &mut shadow[lmr]);
            let t0 = ctx.now();
            let ok = match op {
                Op::Read | Op::BulkRead => {
                    let (len, name) = match op {
                        Op::Read => (SMALL, "lite.api.lt_read64"),
                        _ => (BULK, "lite.api.lt_read64k"),
                    };
                    let r = tracer.call(name, done, None, ctx, |c| {
                        h.lt_read(c, lh, off as u64, &mut buf[..len])
                    });
                    if r.is_ok() && buf[..len] != mem[off..off + len] {
                        mismatches.push(format!("op {done}: read of LMR {lmr} at {off} differs"));
                    }
                    r.is_ok()
                }
                Op::Write | Op::BulkWrite => {
                    let (len, name) = match op {
                        Op::Write => (SMALL, "lite.api.lt_write64"),
                        _ => (BULK, "lite.api.lt_write64k"),
                    };
                    for w in buf[..len].chunks_exact_mut(8) {
                        w.copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                    }
                    let r = tracer.call(name, done, None, ctx, |c| {
                        h.lt_write(c, lh, off as u64, &buf[..len])
                    });
                    if r.is_ok() {
                        mem[off..off + len].copy_from_slice(&buf[..len]);
                    }
                    r.is_ok()
                }
                Op::FetchAdd(delta) => {
                    let r = tracer.call("lite.api.lt_fetch_add", done, None, ctx, |c| {
                        h.lt_fetch_add(c, lh, off as u64, delta)
                    });
                    if let Ok(old) = r {
                        let want = word(mem, off);
                        if old != want {
                            mismatches
                                .push(format!("op {done}: fetch_add returned {old}, not {want}"));
                        }
                        mem[off..off + 8].copy_from_slice(&want.wrapping_add(delta).to_le_bytes());
                    }
                    r.is_ok()
                }
                Op::CmpSwap { hit, new } => {
                    let cur = word(mem, off);
                    let expect = if hit { cur } else { cur.wrapping_add(1) };
                    let r = tracer.call("lite.api.lt_cmp_swap", done, None, ctx, |c| {
                        h.lt_cmp_swap(c, lh, off as u64, expect, new)
                    });
                    if let Ok(old) = r {
                        if old != cur {
                            mismatches
                                .push(format!("op {done}: cmp_swap returned {old}, not {cur}"));
                        }
                        if cur == expect {
                            mem[off..off + 8].copy_from_slice(&new.to_le_bytes());
                        }
                    }
                    r.is_ok()
                }
            };
            failed += u64::from(!ok);
            if done < virt_ops && ok {
                let lat = ctx.now() - t0;
                match op {
                    Op::BulkRead | Op::BulkWrite => {
                        bulk_ns += lat as u128;
                        bulk_bytes += BULK as u128;
                    }
                    Op::Read => small.record(lat),
                    _ => {
                        small.record(lat);
                        small_writes.record(lat);
                    }
                }
                virt_end = ctx.now();
            }
            done += 1;
        }
        let host_secs = start.elapsed().as_secs_f64();
        let timed = Snapshot::take(cluster).since(&before);
        if let Some(v) = verbs {
            v.run(seed, tracer)?;
        }

        let virt = virt_metrics(
            &small,
            &small_writes,
            virt_ops.min(done) as f64 * 1e9 / (virt_end - virt_start).max(1) as f64,
        );
        let bulk_gbps = bulk_bytes as f64 * 8.0 / bulk_ns.max(1) as f64;
        let notes = vec![
            class_note("small (small_p50_us, small_p99_us)", &small)?,
            class_note("small writes and atomics", &small_writes)?,
            format!(
                "bulk: n={} bulk_gbps={bulk_gbps:.4} Gb/s",
                bulk_bytes / BULK as u128
            ),
        ];
        let counters = timed.metrics(done);
        Ok(Phase {
            attempted: done,
            failed,
            mismatches,
            host_secs,
            virt,
            counters,
            lazy_connects: timed.lazy_connects(),
            notes,
            tracer: tracer.take(),
        })
    }

    fn teardown(env: Env) -> Metrics {
        drop(env);
        Metrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual metrics of a short run, as exact bit patterns.
    fn virt_bits(seed: u64, traced: bool) -> Vec<(String, u64)> {
        let mut env = OneSided::setup(seed, Tracer::new(traced, Instant::now())).unwrap();
        env.virt_ops = 3_000;
        let p = OneSided::run(&mut env, seed, 0.0).unwrap();
        assert_eq!((p.failed, p.mismatches.len(), p.lazy_connects), (0, 0, 0));
        p.virt
            .0
            .into_iter()
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    }

    #[test]
    fn virtual_metrics_are_a_function_of_the_seed_alone() {
        let first = virt_bits(11, false);
        assert_eq!(first, virt_bits(11, false), "same seed, same bits");
        assert_eq!(
            first,
            virt_bits(11, true),
            "tracing moves no virtual metric"
        );
        assert_ne!(first, virt_bits(12, false), "another seed, another mix");
    }
}
