//! Core OCC semantics: atomic visibility, read-your-writes, conflicts,
//! validation, and the outcomes commits report.

use std::sync::Arc;

use lite::{LiteCluster, TxnHistory, TxnLog};
use lite_txn::{TableSpec, TxnError, TxnTable};
use simnet::Ctx;

fn start(nodes: usize) -> Arc<LiteCluster> {
    LiteCluster::start(nodes).unwrap()
}

fn u64s(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

#[test]
fn commit_makes_writes_atomically_visible() {
    let cluster = start(2);
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, "txn.basic", TableSpec::new(8, 8)).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, "txn.basic").unwrap();

    // Stage two writes; nothing is visible before commit.
    let mut w = t0.begin();
    w.write(2, &7u64.to_le_bytes()).unwrap();
    w.write(5, &9u64.to_le_bytes()).unwrap();
    let mut r = t1.begin();
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 2).unwrap()), 0);
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 5).unwrap()), 0);
    r.commit(&mut h1, &mut c1).unwrap();

    w.commit(&mut h0, &mut c0).unwrap();
    let mut r = t1.begin();
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 2).unwrap()), 7);
    assert_eq!(u64s(&r.read(&mut h1, &mut c1, 5).unwrap()), 9);
    r.commit(&mut h1, &mut c1).unwrap();
}

#[test]
fn read_your_own_writes() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.ryw", TableSpec::new(4, 8)).unwrap();

    let mut txn = t.begin();
    assert_eq!(u64s(&txn.read(&mut h, &mut ctx, 1).unwrap()), 0);
    txn.write(1, &42u64.to_le_bytes()).unwrap();
    assert_eq!(u64s(&txn.read(&mut h, &mut ctx, 1).unwrap()), 42);
    txn.commit(&mut h, &mut ctx).unwrap();
}

#[test]
fn stale_read_set_fails_validation() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.stale", TableSpec::new(4, 8)).unwrap();

    // T1 reads record 0 then record 1; between the two, T2 commits a
    // write to record 0. T1's write-commit must fail validation.
    let mut t1 = t.begin();
    let _ = t1.read(&mut h, &mut ctx, 0).unwrap();
    let mut t2 = t.begin();
    t2.write(0, &5u64.to_le_bytes()).unwrap();
    t2.commit(&mut h, &mut ctx).unwrap();
    let _ = t1.read(&mut h, &mut ctx, 1).unwrap();
    t1.write(1, &6u64.to_le_bytes()).unwrap();
    assert_eq!(
        t1.commit(&mut h, &mut ctx),
        Err(TxnError::Conflict { validation: true })
    );

    // The abort unwound cleanly: record 1 is untouched and writable.
    let mut t3 = t.begin();
    assert_eq!(u64s(&t3.read(&mut h, &mut ctx, 1).unwrap()), 0);
    t3.write(1, &8u64.to_le_bytes()).unwrap();
    t3.commit(&mut h, &mut ctx).unwrap();
}

#[test]
fn read_only_txn_validates_too() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.ro", TableSpec::new(4, 8)).unwrap();

    let mut ro = t.begin();
    let _ = ro.read(&mut h, &mut ctx, 0).unwrap();
    let mut w = t.begin();
    w.write(0, &1u64.to_le_bytes()).unwrap();
    w.commit(&mut h, &mut ctx).unwrap();
    assert_eq!(
        ro.commit(&mut h, &mut ctx),
        Err(TxnError::Conflict { validation: true })
    );
}

#[test]
fn lost_update_is_impossible() {
    // Two increments racing on one record: OCC must serialize them —
    // one may abort and retry, but the final value counts both.
    let cluster = start(2);
    let mut h0 = cluster.attach(0).unwrap();
    let mut h1 = cluster.attach(1).unwrap();
    let mut c0 = Ctx::new();
    let mut c1 = Ctx::new();
    let t0 = TxnTable::create(&mut h0, &mut c0, 1, "txn.incr", TableSpec::new(2, 8)).unwrap();
    let t1 = TxnTable::open(&mut h1, &mut c1, "txn.incr").unwrap();

    // Interleave: both read 0, both try to write 1; the loser retries.
    let mut a = t0.begin();
    let va = u64s(&a.read(&mut h0, &mut c0, 0).unwrap());
    let mut b = t1.begin();
    let vb = u64s(&b.read(&mut h1, &mut c1, 0).unwrap());
    a.write(0, &(va + 1).to_le_bytes()).unwrap();
    b.write(0, &(vb + 1).to_le_bytes()).unwrap();
    assert!(a.commit(&mut h0, &mut c0).is_ok());
    assert!(matches!(
        b.commit(&mut h1, &mut c1),
        Err(TxnError::Conflict { .. })
    ));
    // The loser's retry sees the winner's value.
    let mut b = t1.begin();
    let vb = u64s(&b.read(&mut h1, &mut c1, 0).unwrap());
    assert_eq!(vb, 1);
    b.write(0, &(vb + 1).to_le_bytes()).unwrap();
    b.commit(&mut h1, &mut c1).unwrap();

    let mut r = t0.begin();
    assert_eq!(u64s(&r.read(&mut h0, &mut c0, 0).unwrap()), 2);
    r.commit(&mut h0, &mut c0).unwrap();
}

#[test]
fn explicit_abort_leaves_no_trace() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.abort", TableSpec::new(2, 8)).unwrap();

    let mut a = t.begin();
    a.write(0, &99u64.to_le_bytes()).unwrap();
    a.abort(&mut h, &mut ctx);
    let mut r = t.begin();
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, 0).unwrap()), 0);
    r.commit(&mut h, &mut ctx).unwrap();
}

#[test]
fn commit_results_report_commits_and_aborts() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.stats", TableSpec::new(4, 8)).unwrap();

    let mut a = t.begin();
    a.write(0, &1u64.to_le_bytes()).unwrap();
    assert_eq!(a.commit(&mut h, &mut ctx), Ok(()));

    let mut ro = t.begin();
    let _ = ro.read(&mut h, &mut ctx, 0).unwrap();
    let mut w = t.begin();
    w.write(0, &2u64.to_le_bytes()).unwrap();
    assert_eq!(w.commit(&mut h, &mut ctx), Ok(()));
    // The read-only transaction's snapshot went stale under the writer.
    assert_eq!(
        ro.commit(&mut h, &mut ctx),
        Err(TxnError::Conflict { validation: true })
    );

    let mut e = t.begin();
    e.write(1, &3u64.to_le_bytes()).unwrap();
    e.abort(&mut h, &mut ctx); // explicit abort
    let mut r = t.begin();
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, 1).unwrap()), 0);
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, 0).unwrap()), 2);
    assert_eq!(r.commit(&mut h, &mut ctx), Ok(()));
}

#[test]
fn armed_log_yields_serializable_history() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let log = Arc::new(TxnLog::new());
    let mut t = TxnTable::create(&mut h, &mut ctx, 1, "txn.log", TableSpec::new(4, 8)).unwrap();
    t.arm_txn_log(log.clone());

    for i in 1..=4u64 {
        let mut w = t.begin();
        let cur = u64s(&w.read(&mut h, &mut ctx, 0).unwrap());
        w.write(0, &(cur + i).to_le_bytes()).unwrap();
        w.commit(&mut h, &mut ctx).unwrap();
    }
    let history: TxnHistory = log.take();
    assert_eq!(history.txns.len(), 4);
    let out = history.check();
    assert!(out.is_serializable(), "{:?}", out.violation);
    assert_eq!(out.committed, 4);
}

/// An uncontended two-record transfer commits in five round trips: the
/// claim CAS (from the cached slot header), the redo + lease chain, the
/// lock chain, the decision CAS, and the apply + release + drain chain —
/// 11 one-sided ops from the client NIC in under 20 µs of virtual time.
#[test]
fn uncontended_transfer_commits_in_five_round_trips() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.rtt", TableSpec::new(8, 8)).unwrap();
    let nic = cluster.fabric().nic(0);
    for round in 0..3u64 {
        let mut txn = t.begin();
        let a = u64s(&txn.read(&mut h, &mut ctx, 2).unwrap());
        let b = u64s(&txn.read(&mut h, &mut ctx, 5).unwrap());
        txn.write(2, &(a + 1).to_le_bytes()).unwrap();
        txn.write(5, &(b + 1).to_le_bytes()).unwrap();
        let ops = nic.stats().one_sided_ops;
        let t0 = ctx.now();
        txn.commit(&mut h, &mut ctx).unwrap();
        let took = ctx.now() - t0;
        let posted = nic.stats().one_sided_ops - ops;
        assert_eq!(posted, 11, "round {round}: one-sided ops per commit");
        assert!(took <= 20_000, "round {round}: commit took {took} ns");
    }
    let mut r = t.begin();
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, 2).unwrap()), 3);
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, 5).unwrap()), 3);
    r.commit(&mut h, &mut ctx).unwrap();
}

/// A lock chain that loses one CAS keeps only the ascending prefix below
/// the loser, unwinds any lock won above it, and aborts cleanly when the
/// loser stays held: every version word is back, the claimed slot is
/// drained, and once the holder lets go the same transfer commits.
#[test]
fn partial_lock_chain_failure_unwinds_cleanly() {
    let cluster = start(2);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let t = TxnTable::create(&mut h, &mut ctx, 1, "txn.partial", TableSpec::new(8, 8)).unwrap();
    let (a, b) = (2u64, 5u64);
    // A live lock word held by someone else: locked, lease never expires.
    let held = 1 | (0xffff_ffff << 17);
    let version = |h: &mut lite::LiteHandle, ctx: &mut Ctx, rec: u64| {
        h.lt_fetch_add(ctx, t.lh(), t.version_offset(rec), 0)
            .unwrap()
    };
    // First the higher record is held (the chain wins a, loses b), then
    // the lower one (the chain loses a and must unwind its win on b).
    for (round, victim) in [b, a].into_iter().enumerate() {
        let transfer = |h: &mut lite::LiteHandle, ctx: &mut Ctx| {
            let mut txn = t.begin();
            let va = u64s(&txn.read(h, ctx, a).unwrap());
            let vb = u64s(&txn.read(h, ctx, b).unwrap());
            txn.write(a, &(va + 1).to_le_bytes()).unwrap();
            txn.write(b, &(vb + 1).to_le_bytes()).unwrap();
            txn
        };
        let txn = transfer(&mut h, &mut ctx);
        let before = (version(&mut h, &mut ctx, a), version(&mut h, &mut ctx, b));
        let victim_v = version(&mut h, &mut ctx, victim);
        let prev = h
            .lt_cmp_swap(&mut ctx, t.lh(), t.version_offset(victim), victim_v, held)
            .unwrap();
        assert_eq!(prev, victim_v);
        assert_eq!(
            txn.commit(&mut h, &mut ctx),
            Err(TxnError::Conflict { validation: false })
        );
        let other = if victim == a { b } else { a };
        let after = version(&mut h, &mut ctx, other);
        let other_before = if victim == a { before.1 } else { before.0 };
        assert_eq!(after, other_before, "round {round}: won lock unwound");
        assert_eq!(version(&mut h, &mut ctx, victim), held);
        assert_eq!(t.busy_slots(&mut h, &mut ctx).unwrap(), 0, "round {round}");

        // The holder lets go; the same transfer now commits.
        h.lt_cmp_swap(&mut ctx, t.lh(), t.version_offset(victim), held, victim_v)
            .unwrap();
        transfer(&mut h, &mut ctx).commit(&mut h, &mut ctx).unwrap();
        assert_eq!(version(&mut h, &mut ctx, a), before.0 + 2);
        assert_eq!(version(&mut h, &mut ctx, b), before.1 + 2);
    }
    let mut r = t.begin();
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, a).unwrap()), 2);
    assert_eq!(u64s(&r.read(&mut h, &mut ctx, b).unwrap()), 2);
    r.commit(&mut h, &mut ctx).unwrap();
}
