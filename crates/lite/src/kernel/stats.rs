//! Kernel statistics: lock-free counters updated on the hot paths and
//! the aggregate snapshot handed to benchmarks.
//!
//! # Snapshot consistency contract
//!
//! Each counter is updated independently, so a snapshot is **not** a
//! point-in-time cut across all of them. The one cross-counter invariant
//! readers may rely on is `bytes` vs the op counters: every hot-path
//! update bumps the op counter (relaxed) *before* adding to `bytes` with
//! `Release`, and the snapshot loads `bytes` first with `Acquire` before
//! the op counters. Every byte visible in a snapshot therefore belongs
//! to an op already visible in it — derived rates like bytes/op can
//! *under*-estimate in-flight traffic but never attribute bytes to ops
//! the snapshot has not counted. All remaining counters are monotonic
//! relaxed totals with no ordering relative to one another.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate kernel statistics.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// RPC requests dispatched by the poller.
    pub rpc_dispatched: u64,
    /// One-sided writes issued through LITE.
    pub lt_writes: u64,
    /// One-sided reads issued through LITE.
    pub lt_reads: u64,
    /// Bytes moved by LITE one-sided ops.
    pub lt_bytes: u64,
    /// Total RC QPs this kernel created (K × (N-1)).
    pub qps: usize,
    /// Datapath attempts repeated by the recovery layer (backoff retries
    /// plus post-reconnect replays).
    pub retries: u64,
    /// Broken shared QPs this node tore down and re-established.
    pub qp_reconnects: u64,
    /// Peers this node's liveness monitor declared dead.
    pub peers_marked_dead: u64,
    /// Datapath ops that failed after recovery gave up (deadline
    /// exhausted, dead peer, or a non-retryable fault).
    pub ops_failed: u64,
    /// Cleanup paths that failed (allocation rollback, handle teardown)
    /// — previously swallowed with `let _ = ...`; each one is a leaked
    /// remote chunk or scratch region.
    pub cleanup_failures: u64,
    /// Lock-word unwinds: failed acquires that rolled their `fetch_add`
    /// back, keeping the lock word consistent under faults.
    pub lock_unwinds: u64,
    /// Lock fault paths that could not restore consistency (abort
    /// unreachable, unwind failed, or a release grant undeliverable) —
    /// the lock involved should be considered poisoned.
    pub sync_leaks: u64,
    /// Host-wall nanoseconds this node's boot (`finish_setup`) took.
    pub boot_ns: u64,
    /// Host-wall nanoseconds spent wiring peer pairs lazily (shared QP
    /// pools + RPC rings) after boot.
    pub mesh_ns: u64,
    /// Peer pairs this node wired on first use (incremental membership).
    pub lazy_connects: u64,
}

/// The kernel's live counters (relaxed atomics; snapshot via
/// [`KernelCounters::snapshot`]).
#[derive(Debug, Default)]
pub(crate) struct KernelCounters {
    pub(crate) rpc: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) reads: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) cleanup_failures: AtomicU64,
    pub(crate) lock_unwinds: AtomicU64,
    pub(crate) sync_leaks: AtomicU64,
}

/// Recovery-layer counters, owned by the node's datapath (the retry
/// wrapper is the only writer).
#[derive(Debug, Default)]
pub(crate) struct RetryCounters {
    pub(crate) retries: AtomicU64,
    pub(crate) qp_reconnects: AtomicU64,
    pub(crate) peers_marked_dead: AtomicU64,
    pub(crate) ops_failed: AtomicU64,
}

impl KernelCounters {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    // Op counter (relaxed) strictly before bytes (release) — see the
    // module-level snapshot consistency contract.

    pub(crate) fn count_write(&self, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Release);
    }

    pub(crate) fn count_writes(&self, n: u64, bytes: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Release);
    }

    pub(crate) fn count_read(&self, bytes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Release);
    }

    pub(crate) fn count_rpc(&self) {
        self.rpc.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_cleanup_failure(&self) {
        self.cleanup_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_lock_unwind(&self) {
        self.lock_unwinds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_sync_leak(&self) {
        self.sync_leaks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot with the QP count and recovery counters supplied by the
    /// kernel (which owns the pool tables and the datapath).
    pub(crate) fn snapshot(&self, qps: usize, retry: Option<&RetryCounters>) -> KernelStats {
        let r = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // Bytes first (acquire): pairs with the release adds so the op
        // counters read afterwards can only be ahead of, never behind,
        // the ops that produced these bytes.
        let lt_bytes = self.bytes.load(Ordering::Acquire);
        KernelStats {
            rpc_dispatched: r(&self.rpc),
            lt_writes: r(&self.writes),
            lt_reads: r(&self.reads),
            lt_bytes,
            qps,
            retries: retry.map_or(0, |c| r(&c.retries)),
            qp_reconnects: retry.map_or(0, |c| r(&c.qp_reconnects)),
            peers_marked_dead: retry.map_or(0, |c| r(&c.peers_marked_dead)),
            ops_failed: retry.map_or(0, |c| r(&c.ops_failed)),
            cleanup_failures: r(&self.cleanup_failures),
            lock_unwinds: r(&self.lock_unwinds),
            sync_leaks: r(&self.sync_leaks),
            // Gauges owned by the kernel/datapath; folded in by
            // `LiteKernel::stats` after this snapshot.
            boot_ns: 0,
            mesh_ns: 0,
            lazy_connects: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot() {
        let c = KernelCounters::new();
        c.count_write(100);
        c.count_writes(2, 50);
        c.count_read(7);
        c.count_rpc();
        c.count_cleanup_failure();
        c.count_lock_unwind();
        c.count_sync_leak();
        let s = c.snapshot(6, None);
        assert_eq!(s.lt_writes, 3);
        assert_eq!(s.lt_reads, 1);
        assert_eq!(s.lt_bytes, 157);
        assert_eq!(s.rpc_dispatched, 1);
        assert_eq!(s.qps, 6);
        assert_eq!(s.retries, 0);
        assert_eq!(s.cleanup_failures, 1);
        assert_eq!(s.lock_unwinds, 1);
        assert_eq!(s.sync_leaks, 1);
    }

    #[test]
    fn retry_counters_fold_into_snapshot() {
        let c = KernelCounters::new();
        let r = RetryCounters::default();
        r.retries.fetch_add(4, Ordering::Relaxed);
        r.qp_reconnects.fetch_add(1, Ordering::Relaxed);
        r.peers_marked_dead.fetch_add(2, Ordering::Relaxed);
        r.ops_failed.fetch_add(3, Ordering::Relaxed);
        let s = c.snapshot(0, Some(&r));
        assert_eq!(s.retries, 4);
        assert_eq!(s.qp_reconnects, 1);
        assert_eq!(s.peers_marked_dead, 2);
        assert_eq!(s.ops_failed, 3);
    }
}
