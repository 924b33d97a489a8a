//! Cluster-wide counters read from the layers' public stats, diffed
//! over the timed phase.

use lite::LiteCluster;

use crate::report::Metrics;

/// Counters the traced run reports besides the per-boundary figures,
/// in output order, with their units. A workload that does not reach a
/// layer reports its counters as 0.
pub const COUNTERS: &[(&str, &str)] = &[
    ("lite.api.overhead_us", "us"),
    ("lite.kernel.retries", "count"),
    ("lite.kernel.ops_failed", "count"),
    ("lite.kernel.rpc_per_op", "count"),
    ("lite.kernel.lazy_connects_timed", "count"),
    ("lite.observe.rpc_high_p99_us", "us"),
    ("lite.observe.rpc_low_p99_us", "us"),
    ("lite-txn.attempts_per_commit", "count"),
    ("lite-txn.validation_fails", "count"),
    ("lite-kv.replication_lag_max", "records"),
    ("lite-kv.gen_late_us_max", "us"),
    ("lite-kv.stop_s", "s"),
    ("rnic.verbs_per_op", "count"),
    ("rnic.bytes_per_op", "B"),
    ("rnic.sram_miss_ratio", "share"),
    ("rnic.page_faults", "count"),
    ("lite.mm.first_touch_faults", "count"),
    ("lite.mm.evictions", "count"),
    ("harness.gate_wait_ms", "ms"),
    ("harness.trace_overhead", "share"),
    ("kv-zipf-open.get_p99_us", "us"),
    ("kv-zipf-open.put_p99_us", "us"),
    ("kv-zipf-open.get_slo_attainment", "share"),
];

/// Sums of the counters over every node of a cluster.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snapshot {
    retries: u64,
    ops_failed: u64,
    rpc: u64,
    lazy_connects: u64,
    verbs: u64,
    bytes: u64,
    sram_hits: u64,
    sram_misses: u64,
    page_faults: u64,
    first_touch_faults: u64,
    evictions: u64,
}

impl Snapshot {
    pub fn take(cluster: &LiteCluster) -> Snapshot {
        let mut s = Snapshot::default();
        for n in 0..cluster.num_nodes() {
            let k = cluster.kernel(n).stats();
            s.retries += k.retries;
            s.ops_failed += k.ops_failed;
            s.rpc += k.rpc_dispatched;
            s.lazy_connects += k.lazy_connects;
            let nic = cluster.fabric().nic(n).stats();
            s.verbs += nic.one_sided_ops + nic.send_ops;
            s.bytes += nic.bytes_tx;
            s.sram_hits += nic.mr_hits + nic.pte_hits;
            s.sram_misses += nic.mr_misses + nic.pte_misses;
            s.page_faults += nic.page_faults;
            let mm = cluster.kernel(n).mm_stats();
            s.first_touch_faults += mm.first_touch_faults;
            s.evictions += mm.evictions;
        }
        s
    }

    /// Counters gained since `before`.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            retries: self.retries - before.retries,
            ops_failed: self.ops_failed - before.ops_failed,
            rpc: self.rpc - before.rpc,
            lazy_connects: self.lazy_connects - before.lazy_connects,
            verbs: self.verbs - before.verbs,
            bytes: self.bytes - before.bytes,
            sram_hits: self.sram_hits - before.sram_hits,
            sram_misses: self.sram_misses - before.sram_misses,
            page_faults: self.page_faults - before.page_faults,
            first_touch_faults: self.first_touch_faults - before.first_touch_faults,
            evictions: self.evictions - before.evictions,
        }
    }

    /// Peer pairs wired during the interval: nonzero means the timed
    /// phase paid connection set-up that warm-up should have paid.
    pub fn lazy_connects(&self) -> u64 {
        self.lazy_connects
    }

    /// The interval's counters, per request where a ratio is asked for.
    pub fn metrics(&self, requests: u64) -> Metrics {
        let per = |v: u64| v as f64 / requests.max(1) as f64;
        let mut m = Metrics::default();
        m.push("lite.kernel.retries", self.retries as f64, "count");
        m.push("lite.kernel.ops_failed", self.ops_failed as f64, "count");
        m.push("lite.kernel.rpc_per_op", per(self.rpc), "count");
        m.push(
            "lite.kernel.lazy_connects_timed",
            self.lazy_connects as f64,
            "count",
        );
        m.push("rnic.verbs_per_op", per(self.verbs), "count");
        m.push("rnic.bytes_per_op", per(self.bytes), "B");
        let lookups = (self.sram_hits + self.sram_misses).max(1);
        m.push(
            "rnic.sram_miss_ratio",
            self.sram_misses as f64 / lookups as f64,
            "share",
        );
        m.push("rnic.page_faults", self.page_faults as f64, "count");
        m.push(
            "lite.mm.first_touch_faults",
            self.first_touch_faults as f64,
            "count",
        );
        m.push("lite.mm.evictions", self.evictions as f64, "count");
        m
    }
}

/// The p99s of the RPC latency histograms a client node's kernel kept,
/// split by QoS priority (whole run: the histograms are cumulative).
pub fn rpc_p99s(cluster: &LiteCluster, node: usize) -> Metrics {
    let stats = cluster.kernel(node).lt_stats();
    let p99 = |prio| {
        stats
            .class(lite::OpClass::Rpc, prio)
            .map_or(0.0, |s| s.p99 as f64 / 1e3)
    };
    let mut m = Metrics::default();
    m.push(
        "lite.observe.rpc_high_p99_us",
        p99(lite::Priority::High),
        "us",
    );
    m.push(
        "lite.observe.rpc_low_p99_us",
        p99(lite::Priority::Low),
        "us",
    );
    m
}

/// Orders `found` as [`COUNTERS`], filling counters it lacks with 0.
pub fn all_counters(mut found: Metrics) -> Metrics {
    let mut m = Metrics::default();
    for &(name, unit) in COUNTERS {
        let v = match found.0.iter().position(|x| x.name == name) {
            Some(i) => found.0.swap_remove(i).value,
            None => 0.0,
        };
        m.push(name, v, unit);
    }
    let left: Vec<&str> = found.0.iter().map(|x| x.name.as_str()).collect();
    assert!(left.is_empty(), "counters missing from COUNTERS: {left:?}");
    m
}
