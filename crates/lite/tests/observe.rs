//! Observability acceptance tests: the concurrent histogram against an
//! exact-quantile oracle under multi-threaded recording, `lt_stats()`
//! percentiles after a mixed workload, per-priority separation under
//! SW-Pri contention, and the JSON export.

use std::sync::Arc;

use lite::{
    ConcurrentHistogram, EventKind, LiteCluster, OpClass, Perm, Priority, QosMode, USER_FUNC_MIN,
};
use proptest::prelude::*;
use simnet::stats::{bucket_floor, bucket_of};
use simnet::Ctx;

/// What the log-scaled histogram must report for rank-`target` (1-based)
/// of `sorted`: the floor of the bucket holding that sample, clamped to
/// the exact extremes (and the exact max at the top rank).
fn oracle(sorted: &[u64], p: f64) -> u64 {
    let count = sorted.len() as u64;
    let target = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    let min = sorted[0];
    let max = *sorted.last().unwrap();
    if target >= count {
        return max;
    }
    bucket_floor(bucket_of(sorted[target as usize - 1])).clamp(min, max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded concurrent recording merges into exactly the same
    /// histogram a serial recorder would produce: every percentile
    /// equals the bucket-floor oracle over the sorted values, and the
    /// extremes are exact.
    #[test]
    fn concurrent_histogram_matches_exact_quantile_oracle(
        values in prop::collection::vec(1u64..1_000_000_000, 64..512),
    ) {
        let hist = Arc::new(ConcurrentHistogram::new());
        let threads = 4;
        let chunk = values.len().div_ceil(threads);
        std::thread::scope(|s| {
            for part in values.chunks(chunk) {
                let hist = Arc::clone(&hist);
                s.spawn(move || {
                    for &v in part {
                        hist.record(v);
                    }
                });
            }
        });
        prop_assert_eq!(hist.count(), values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = hist.snapshot();
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(
                snap.percentile(p),
                oracle(&sorted, p),
                "percentile {} diverged from the exact oracle",
                p
            );
        }
        prop_assert_eq!(snap.percentile(0.0), sorted[0]);
        prop_assert_eq!(snap.percentile(100.0), *sorted.last().unwrap());
    }
}

/// After a mixed workload (one-sided writes + reads + RPC), `lt_stats()`
/// reports non-zero p50/p99 for every exercised class, live per-peer
/// accounting, and trace-ring occupancy.
#[test]
fn lt_stats_reports_mixed_workload_latencies() {
    const FN_ECHO: u8 = USER_FUNC_MIN + 1;
    let cluster = LiteCluster::start(2).unwrap();
    cluster.attach(1).unwrap().register_rpc(FN_ECHO).unwrap();

    let server = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut h = cluster.attach(1).unwrap();
            let mut ctx = Ctx::new();
            for _ in 0..32 {
                let call = h.lt_recv_rpc(&mut ctx, FN_ECHO).unwrap();
                h.lt_reply_rpc(&mut ctx, &call, &call.input).unwrap();
            }
        })
    };

    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 1 << 16, "obs.mix", Perm::RW)
        .unwrap();
    let payload = vec![0x5a_u8; 4096];
    for i in 0..64u64 {
        h.lt_write(&mut ctx, lh, (i % 8) * 4096, &payload).unwrap();
        let mut buf = vec![0u8; 4096];
        h.lt_read(&mut ctx, lh, (i % 8) * 4096, &mut buf).unwrap();
    }
    for _ in 0..32 {
        let reply = h.lt_rpc(&mut ctx, 1, FN_ECHO, b"ping", 64).unwrap();
        assert_eq!(reply, b"ping");
    }
    server.join().unwrap();

    let report = h.lt_stats();
    assert_eq!(report.node, 0);
    assert_eq!(report.sample_rate, 1);
    for class in [OpClass::Read, OpClass::Write, OpClass::Rpc] {
        let lat = report
            .class_any_prio(class)
            .unwrap_or_else(|| panic!("{} recorded no latencies", class.name()));
        assert!(lat.count > 0, "{}: empty summary", class.name());
        assert!(lat.p50 > 0, "{}: zero p50", class.name());
        assert!(lat.p99 > 0, "{}: zero p99", class.name());
        assert!(lat.p99 >= lat.p50, "{}: p99 below p50", class.name());
    }
    // Per-peer view: node 0 talked to node 1 and it is alive.
    let peer = report
        .peers
        .iter()
        .find(|p| p.peer == 1)
        .expect("peer 1 must appear in the report");
    assert!(peer.ops > 0);
    assert!(peer.bytes > 0);
    assert!(peer.alive);
    assert_eq!(peer.failures, 0);
    // The trace ring saw posted + completed lifecycles.
    assert!(report.trace.occupancy > 0);
    assert!(report.trace_count(EventKind::Posted) > 0);
    assert!(report.trace_count(EventKind::Completed) > 0);
    assert_eq!(report.trace_count(EventKind::Failed), 0);
}

/// Under SW-Pri with sustained high-priority contention, low-priority
/// writes are rate-limited and their latency histogram separates from
/// the high-priority one (the Fig 14 behavior, observed through
/// `lt_stats()` instead of a benchmark harness).
#[test]
fn sw_pri_contention_separates_priority_histograms() {
    let cluster = LiteCluster::start(2).unwrap();
    cluster.set_qos_mode(QosMode::SwPri);

    let mut hi = cluster.attach(0).unwrap();
    let mut lo = cluster.attach(0).unwrap();
    lo.set_priority(Priority::Low);

    let mut ctx = Ctx::new();
    let lh_hi = hi
        .lt_malloc(&mut ctx, 1, 1 << 18, "obs.hi", Perm::RW)
        .unwrap();
    let lh_lo = lo
        .lt_malloc(&mut ctx, 1, 1 << 18, "obs.lo", Perm::RW)
        .unwrap();
    let block = vec![0xa5_u8; 64 * 1024];
    // Interleave on one virtual clock: the high stream keeps the
    // receiver's monitor hot (policies 1/3), so the low stream hits the
    // token bucket on most ops.
    for _ in 0..120 {
        hi.lt_write(&mut ctx, lh_hi, 0, &block).unwrap();
        lo.lt_write(&mut ctx, lh_lo, 0, &block).unwrap();
    }

    let report = hi.lt_stats();
    let high = report
        .class(OpClass::Write, Priority::High)
        .expect("high-priority writes recorded");
    let low = report
        .class(OpClass::Write, Priority::Low)
        .expect("low-priority writes recorded");
    assert!(high.count >= 120 && low.count >= 120);
    assert!(
        low.p50 > high.p50,
        "SW-Pri contention must throttle low priority: low p50 {} <= high p50 {}",
        low.p50,
        high.p50
    );
    assert!(low.p99 > high.p99, "low tail must sit above the high tail");
}

/// The JSON export carries the documented schema: kernel counters (and
/// no app counters), per-class cells keyed `class.prio`, peers, trace
/// gauges, QoS mode.
#[test]
fn stats_report_exports_json() {
    let cluster = LiteCluster::start(2).unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 4096, "obs.json", Perm::RW)
        .unwrap();
    h.lt_write(&mut ctx, lh, 0, b"json").unwrap();

    let json = h.lt_stats().to_json();
    for key in [
        "\"node\":0",
        "\"sample_rate\":1",
        "\"kernel\":{",
        "\"lt_writes\":",
        "\"p999\":",
        "\"classes\":{",
        "\"write.high\":",
        "\"peers\":[",
        "\"trace\":{",
        "\"capacity\":",
        "\"qos\":{\"mode\":\"none\"",
    ] {
        assert!(json.contains(key), "JSON export missing {key}: {json}");
    }
    // The kernel block knows no app: txn and KV outcomes live in their
    // own crates.
    let kernel = json
        .split("\"kernel\":{")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("kernel block");
    for app_key in ["\"txn_", "\"kv_"] {
        assert!(
            !kernel.contains(app_key),
            "kernel block has {app_key}: {kernel}"
        );
    }
}
