//! Additional Verbs-layer coverage: UC semantics, CQ/RQ sharing (SRQ),
//! counters, resource resets, error surfaces, and doorbell chains.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rnic::qp::{RecvEntry, RecvQueue};
use rnic::{
    Access, AtomicKind, ChainOutcome, ChainWr, Cq, FaultPlan, FaultRule, IbConfig, IbFabric, Mr,
    QpType, RemoteAddr, Sge, VerbsError, WritePost,
};
use simnet::Ctx;
use smem::{AddrSpace, PhysAllocator};

fn setup(nodes: usize) -> (Arc<IbFabric>, Vec<Arc<AddrSpace>>) {
    let fabric = IbFabric::new(IbConfig::with_nodes(nodes));
    let spaces = (0..nodes)
        .map(|_| {
            Arc::new(AddrSpace::new(Arc::new(Mutex::new(PhysAllocator::new(
                0,
                1 << 28,
            )))))
        })
        .collect();
    (fabric, spaces)
}

/// UC writes complete at the wire (no ack leg) — earlier than RC.
#[test]
fn uc_write_completes_before_rc() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();

    let rc_a = fabric.nic(0).create_qp(QpType::Rc);
    let rc_b = fabric.nic(1).create_qp(QpType::Rc);
    fabric.connect(&rc_a, &rc_b);
    let uc_a = fabric.nic(0).create_qp(QpType::Uc);
    let uc_b = fabric.nic(1).create_qp(QpType::Uc);
    fabric.connect(&uc_a, &uc_b);

    let sge = Sge::Virt {
        lkey: src.lkey(),
        addr: src_va,
        len: 64,
    };
    let remote = RemoteAddr {
        rkey: dst.rkey(),
        addr: dst_va,
    };
    // Warm, then compare completion deltas from the same instant.
    fabric
        .nic(0)
        .post_write(&mut ctx, &rc_a, 0, &sge, remote, None, false)
        .unwrap();
    fabric
        .nic(0)
        .post_write(&mut ctx, &uc_a, 0, &sge, remote, None, false)
        .unwrap();
    let t = ctx.now();
    let rc_comp = fabric
        .nic(0)
        .post_write(&mut ctx, &rc_a, 0, &sge, remote, None, false)
        .unwrap();
    ctx.wait_until(t); // same epoch for the UC probe
    let uc_comp = fabric
        .nic(0)
        .post_write(&mut ctx, &uc_a, 0, &sge, remote, None, false)
        .unwrap();
    assert!(
        uc_comp < rc_comp,
        "UC ({uc_comp}) must complete before RC ({rc_comp}) — no ack leg"
    );
    // UC still refuses reads and atomics.
    assert!(matches!(
        fabric
            .nic(0)
            .post_read(&mut ctx, &uc_a, 0, &sge, remote, false),
        Err(VerbsError::BadOpForQpType)
    ));
    assert!(matches!(
        fabric.nic(0).fetch_add(&mut ctx, &uc_a, remote, 1),
        Err(VerbsError::BadOpForQpType)
    ));
}

/// Several QPs sharing one recv CQ and one receive queue (SRQ style):
/// messages from different senders drain through the shared structures.
#[test]
fn srq_style_sharing_across_qps() {
    let (fabric, spaces) = setup(3);
    let mut ctx = Ctx::new();
    let shared_cq = Arc::new(Cq::new());
    let shared_rq = Arc::new(RecvQueue::new());

    // Node 2 hosts two QPs (one per peer) on the shared structures.
    let mk_server_qp = |peer: usize| {
        let q2 = fabric.nic(2).create_qp_with(
            QpType::Rc,
            Arc::new(Cq::new()),
            Arc::clone(&shared_cq),
            Arc::clone(&shared_rq),
        );
        let qp = fabric.nic(2).create_qp(QpType::Rc); // placeholder peer end
        let q_peer = fabric.nic(peer).create_qp(QpType::Rc);
        fabric.connect(&q2, &q_peer);
        drop(qp);
        q_peer
    };
    let q0 = mk_server_qp(0);
    let q1 = mk_server_qp(1);

    // Post shared buffers.
    let rbuf_va = spaces[2].mmap(16 * 1024).unwrap();
    let rbuf = fabric
        .nic(2)
        .register_mr(&mut ctx, &spaces[2], rbuf_va, 16 * 1024, Access::LOCAL)
        .unwrap();
    for i in 0..8 {
        shared_rq.post(RecvEntry {
            wr_id: i,
            sge: Some(Sge::Virt {
                lkey: rbuf.lkey(),
                addr: rbuf_va + i * 1024,
                len: 1024,
            }),
        });
    }

    // Both peers send through their own QPs.
    for (node, qp, tag) in [(0usize, &q0, 0xAAu8), (1, &q1, 0xBB)] {
        let sva = spaces[node].mmap(4096).unwrap();
        let smr = fabric
            .nic(node)
            .register_mr(&mut ctx, &spaces[node], sva, 4096, Access::LOCAL)
            .unwrap();
        let pa = spaces[node].translate(sva).unwrap();
        fabric.mem(node).write(pa, &[tag; 32]).unwrap();
        fabric
            .nic(node)
            .post_send(
                &mut ctx,
                qp,
                7,
                &Sge::Virt {
                    lkey: smr.lkey(),
                    addr: sva,
                    len: 32,
                },
                None,
                false,
            )
            .unwrap();
    }
    // Both arrive in the one shared CQ.
    let mut rctx = Ctx::new();
    let mut seen = Vec::new();
    for _ in 0..2 {
        let wc = shared_cq
            .poll_blocking(&mut rctx, fabric.cost(), false, Duration::from_secs(2))
            .unwrap();
        seen.push(wc.src.unwrap().0);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1]);
    assert_eq!(shared_rq.depth(), 6, "two buffers consumed from the SRQ");
}

/// NIC statistics reflect traffic, and resets clear queueing state.
#[test]
fn stats_and_resets() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(1 << 16).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 1 << 16, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src.lkey(),
        addr: src_va,
        len: 256,
    };
    for _ in 0..10 {
        fabric
            .nic(0)
            .post_write(
                &mut ctx,
                &qa,
                0,
                &sge,
                RemoteAddr {
                    rkey: dst.rkey(),
                    addr: dst_va,
                },
                None,
                false,
            )
            .unwrap();
    }
    let s = fabric.nic(0).stats();
    assert_eq!(s.one_sided_ops, 10);
    assert_eq!(s.bytes_tx, 2560);
    assert_eq!(s.live_mrs, 1);
    assert!(s.live_qps >= 1);
    fabric.nic(0).reset_resources();
    fabric.nic(1).reset_resources();
    // After a reset, a fresh clock on a *fresh QP* starts immediately
    // (an existing QP keeps its per-QP FIFO ordering horizon).
    let (qf, _) = fabric.rc_pair(0, 1);
    let mut fresh = Ctx::new();
    let comp = fabric
        .nic(0)
        .post_write(
            &mut fresh,
            &qf,
            0,
            &sge,
            RemoteAddr {
                rkey: dst.rkey(),
                addr: dst_va,
            },
            None,
            false,
        )
        .unwrap();
    assert!(comp < 10_000, "reset state should serve a t=0 client fast");
}

/// Deregistered keys stop working; unknown keys are typed errors.
#[test]
fn key_lifecycle_errors() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let dst_va = spaces[1].mmap(4096).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(&mut ctx, &spaces[1], dst_va, 4096, Access::RW)
        .unwrap();
    let src_va = spaces[0].mmap(4096).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(&mut ctx, &spaces[0], src_va, 4096, Access::LOCAL)
        .unwrap();
    let (qa, _) = fabric.rc_pair(0, 1);
    let sge = Sge::Virt {
        lkey: src.lkey(),
        addr: src_va,
        len: 16,
    };
    let remote = RemoteAddr {
        rkey: dst.rkey(),
        addr: dst_va,
    };
    fabric
        .nic(0)
        .post_write(&mut ctx, &qa, 0, &sge, remote, None, false)
        .unwrap();
    fabric.nic(1).deregister_mr(&mut ctx, &dst).unwrap();
    assert!(matches!(
        fabric
            .nic(0)
            .post_write(&mut ctx, &qa, 0, &sge, remote, None, false),
        Err(VerbsError::BadKey { .. })
    ));
    // Bogus local key too.
    let bad = Sge::Virt {
        lkey: 0xDEAD,
        addr: src_va,
        len: 16,
    };
    assert!(matches!(
        fabric.nic(0).post_send(&mut ctx, &qa, 0, &bad, None, false),
        Err(VerbsError::BadKey { .. })
    ));
}

/// A 64 KB source MR on node 0 and a 64 KB destination MR on node 1.
fn chain_mrs(
    fabric: &IbFabric,
    spaces: &[Arc<AddrSpace>],
    ctx: &mut Ctx,
) -> ((Mr, u64), (Mr, u64)) {
    let src_va = spaces[0].mmap(64 * 1024).unwrap();
    let src = fabric
        .nic(0)
        .register_mr(ctx, &spaces[0], src_va, 64 * 1024, Access::LOCAL)
        .unwrap();
    let dst_va = spaces[1].mmap(64 * 1024).unwrap();
    let dst = fabric
        .nic(1)
        .register_mr(ctx, &spaces[1], dst_va, 64 * 1024, Access::RW)
        .unwrap();
    ((src, src_va), (dst, dst_va))
}

/// The u64 at virtual address `va` of node 1's space.
fn peek(fabric: &IbFabric, space: &AddrSpace, va: u64) -> u64 {
    let mut word = [0u8; 8];
    fabric
        .mem(1)
        .read(space.translate(va).unwrap(), &mut word)
        .unwrap();
    u64::from_le_bytes(word)
}

fn write_wr(src: &(Mr, u64), dst: &(Mr, u64), off: u64, len: usize) -> WritePost {
    WritePost {
        wr_id: 0,
        sge: Sge::Virt {
            lkey: src.0.lkey(),
            addr: src.1 + off,
            len,
        },
        remote: RemoteAddr {
            rkey: dst.0.rkey(),
            addr: dst.1 + off,
        },
        imm: None,
        signaled: false,
    }
}

fn atomic_wr(dst: &(Mr, u64), off: u64, kind: AtomicKind, token: Option<(usize, u64)>) -> ChainWr {
    ChainWr::Atomic {
        remote: RemoteAddr {
            rkey: dst.0.rkey(),
            addr: dst.1 + off,
        },
        kind,
        token,
    }
}

/// A write-only chain charges exactly what the write-only doorbell batch
/// it replaced charged: every completion stamp, the poster's clock, the
/// signaled send completion and the write-imm receive completion, cold
/// and warm. The expected stamps were recorded from that batch verb.
#[test]
fn write_chain_charges_like_the_write_batch_it_replaced() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let (src, dst) = chain_mrs(&fabric, &spaces, &mut ctx);
    let qa = fabric.nic(0).create_qp(QpType::Rc);
    let qb = fabric.nic(1).create_qp(QpType::Rc);
    fabric.connect(&qa, &qb);
    let mut rctx = Ctx::new();
    for i in 0..2 {
        fabric.nic(1).post_recv(
            &mut rctx,
            &qb,
            RecvEntry {
                wr_id: i,
                sge: None,
            },
        );
    }
    let wrs: Vec<ChainWr> = [64usize, 4096, 8, 1024]
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let mut p = write_wr(&src, &dst, i as u64 * 8192, len);
            p.remote.addr += 8192;
            p.wr_id = i as u64;
            p.imm = (i == 2).then_some(42);
            p.signaled = i == 3;
            ChainWr::Write(p)
        })
        .collect();
    // (poster clock after the post, completion stamps, write-imm receive)
    let expected = [
        (21_300, [28_327, 28_328, 28_329, 28_330], 27_729),
        (28_430, [30_057, 31_091, 31_092, 31_093], 30_492),
    ];
    let cost = fabric.nic(0).cost().clone();
    for (round, (now, stamps, recv)) in expected.into_iter().enumerate() {
        let mut done: Vec<ChainOutcome> = Vec::new();
        fabric
            .nic(0)
            .post_chain(&mut ctx, &qa, &wrs, &mut done)
            .unwrap();
        assert_eq!(ctx.now(), now, "round {round}: poster clock");
        let got: Vec<u64> = done.iter().map(|o| o.completion).collect();
        assert_eq!(got, stamps, "round {round}: completion stamps");
        let r: Vec<u64> = qb
            .recv_cq
            .poll(&mut rctx, &cost, 8)
            .iter()
            .map(|w| w.ready_at)
            .collect();
        assert_eq!(r, vec![recv], "round {round}: write-imm receive");
        let s: Vec<(u64, u64)> = qa
            .send_cq
            .poll(&mut rctx, &cost, 8)
            .iter()
            .map(|w| (w.wr_id, w.ready_at))
            .collect();
        assert_eq!(
            s,
            vec![(3, stamps[3])],
            "round {round}: signaled completion"
        );
        ctx.wait_until(stamps[3]);
    }
}

/// A mixed write/CAS chain rings one doorbell for five one-sided ops,
/// applies them in order, and stamps each completion at or after its
/// predecessor's.
#[test]
fn mixed_chain_rings_one_doorbell() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let (src, dst) = chain_mrs(&fabric, &spaces, &mut ctx);
    let (qa, _) = fabric.rc_pair(0, 1);
    let src_pa = spaces[0].translate(src.1).unwrap();
    fabric.mem(0).write(src_pa, &[5u8; 64]).unwrap();
    let wrs = vec![
        ChainWr::Write(write_wr(&src, &dst, 0, 64)),
        atomic_wr(&dst, 64, AtomicKind::CmpSwap(0, 9), None),
        ChainWr::Write(write_wr(&src, &dst, 128, 64)),
        atomic_wr(&dst, 64, AtomicKind::CmpSwap(9, 11), None),
        atomic_wr(&dst, 64, AtomicKind::CmpSwap(0, 1), None),
    ];
    let before = fabric.nic(0).stats();
    let mut done = Vec::new();
    fabric
        .nic(0)
        .post_chain(&mut ctx, &qa, &wrs, &mut done)
        .unwrap();
    let after = fabric.nic(0).stats();
    assert_eq!(after.doorbells - before.doorbells, 1);
    assert_eq!(after.one_sided_ops - before.one_sided_ops, 5);
    assert_eq!(after.bytes_tx - before.bytes_tx, 128);
    let olds: Vec<u64> = done.iter().map(|o| o.value).collect();
    assert_eq!(olds, vec![0, 0, 0, 9, 11], "CASes apply in chain order");
    assert!(done.windows(2).all(|w| w[0].completion <= w[1].completion));
    assert_eq!(peek(&fabric, &spaces[1], dst.1 + 64), 11);
    // A single post is one doorbell too.
    let sge = Sge::Virt {
        lkey: src.0.lkey(),
        addr: src.1,
        len: 8,
    };
    let remote = RemoteAddr {
        rkey: dst.0.rkey(),
        addr: dst.1,
    };
    fabric
        .nic(0)
        .post_write(&mut ctx, &qa, 0, &sge, remote, None, false)
        .unwrap();
    assert_eq!(fabric.nic(0).stats().doorbells - after.doorbells, 1);
}

/// A lost atomic ack stops the chain at that atomic: `done` holds the
/// work requests before it, the retry resumes there, the exactly-once
/// token replays the landed apply, and no write is posted twice.
#[test]
fn chain_resumes_at_the_atomic_whose_ack_was_lost() {
    let (fabric, spaces) = setup(2);
    let mut ctx = Ctx::new();
    let (src, dst) = chain_mrs(&fabric, &spaces, &mut ctx);
    let (qa, _) = fabric.rc_pair(0, 1);
    let wrs = vec![
        ChainWr::Write(write_wr(&src, &dst, 0, 64)),
        atomic_wr(&dst, 64, AtomicKind::FetchAdd(3), Some((0, 1))),
        ChainWr::Write(write_wr(&src, &dst, 128, 32)),
    ];
    fabric.install_fault_plan(FaultPlan::seeded(1).with(FaultRule::DropAtomicAck {
        src: Some(0),
        dst: Some(1),
        prob: 1.0,
        max_drops: 1,
    }));
    let before = fabric.nic(0).stats();
    let mut done = Vec::new();
    assert!(matches!(
        fabric.nic(0).post_chain(&mut ctx, &qa, &wrs, &mut done),
        Err(VerbsError::Timeout)
    ));
    assert_eq!(
        done.len(),
        1,
        "only the write ahead of the atomic completed"
    );
    fabric
        .nic(0)
        .post_chain(&mut ctx, &qa, &wrs[done.len()..], &mut done)
        .unwrap();
    assert_eq!(fabric.fault_stats().ack_drops, 1);
    fabric.clear_fault_plan();
    let after = fabric.nic(0).stats();
    assert_eq!(done.len(), 3);
    assert_eq!(
        done[1].value, 0,
        "the replay returns the memoized old value"
    );
    assert_eq!(after.bytes_tx - before.bytes_tx, 96, "no write re-posted");
    assert_eq!(after.doorbells - before.doorbells, 2);
    assert_eq!(
        peek(&fabric, &spaces[1], dst.1 + 64),
        3,
        "applied exactly once"
    );
}
