//! LITE configuration, including the ablation switches called out in
//! DESIGN.md §5, and the fixed costs of the kernel's virtual-time model.

use simnet::Nanos;

/// One user/kernel crossing (§5.2 measures ~0.17 µs for the two
/// crossings left on the RPC fast path).
pub const SYSCALL_CROSSING_NS: Nanos = 85;

/// Kernel-side mapping + permission check for a one-sided op (§4.2:
/// "less than 0.3 µs" for RPC metadata; one-sided is cheaper).
pub const MAP_CHECK_NS: Nanos = 100;

/// RPC metadata handling (mapping + protection for an RPC, §4.2).
pub const RPC_META_NS: Nanos = 300;

/// Poller cost to parse an IMM and dispatch to a queue.
pub const IMM_DISPATCH_NS: Nanos = 300;

/// How long a user thread busy-checks the shared completion page before
/// sleeping (the "adaptive" thread model of §5.2).
pub const ADAPTIVE_SPIN_NS: Nanos = 2_000;

/// Maximum RPC payload (input or reply).
pub const MAX_RPC_PAYLOAD: usize = 4 << 20;

/// Cap on the recovery layer's exponential retry backoff (DESIGN.md §6).
pub const RETRY_MAX_BACKOFF_NS: Nanos = 1_000_000;

/// Tunables of the LITE kernel module.
#[derive(Debug, Clone)]
pub struct LiteConfig {
    /// K, the number of shared RC QPs per peer node (§6.1: LITE uses K×N
    /// QPs per node; 1..=4 measured best).
    pub qp_factor: usize,
    /// Size of each per-client RPC ring LMR at a server node (§5.1 uses
    /// 16 MB).
    pub rpc_ring_bytes: u64,
    /// Receive-credit pool pre-posted per QP (write-imm consumes one; the
    /// polling thread reposts in the background).
    pub recv_credits: usize,
    /// Maximum physically-consecutive chunk of an LMR (§4.1 splits large
    /// LMRs to avoid external fragmentation).
    pub max_lmr_chunk: u64,
    /// Liveness bound on any blocking LITE call, in host wall time.
    pub op_timeout: std::time::Duration,

    // ---- scale-out (DESIGN.md §12 "Sharded kernel state") ----
    /// Shard count for the kernel's hot tables (lh entries, master
    /// records, names, locks, barriers, RPC slots/queues). Rounded up to
    /// a power of two, minimum 1. More shards = less lock contention
    /// between unrelated keys; 16 is plenty up to thousands of contexts.
    pub kernel_shards: usize,

    // ---- fault recovery (DESIGN.md "Fault model & recovery") ----
    /// `false` disables the kernel recovery layer: datapath ops fail on
    /// the first transport fault instead of being retried, broken QPs
    /// are never re-established, and peers are never declared dead.
    pub retry_enabled: bool,
    /// Initial retry backoff (virtual time); doubles per failed attempt.
    pub retry_base_ns: Nanos,
    /// Consecutive deadline-exhausted ops towards one peer after which
    /// the peer is declared dead; subsequent ops fail fast with
    /// [`crate::LiteError::PeerDead`] until incoming traffic or a probe
    /// revives it.
    pub peer_dead_threshold: u32,

    // ---- observability (DESIGN.md "Observability") ----
    /// Record 1 in `stats_sample_rate` op latencies into the kernel
    /// histograms (and their posted/completed trace events). Lifecycle
    /// *error* events — retried, reconnected, failed — are always
    /// recorded regardless of the rate, so recovery accounting stays
    /// exact. 1 (the default) records everything; recording costs host
    /// cycles only and never advances virtual clocks.
    pub stats_sample_rate: u32,
    /// Capacity of the per-node op-lifecycle trace ring, in events
    /// (rounded up to a power of two, minimum 64). Oldest events are
    /// evicted once full.
    pub trace_ring_slots: usize,

    // ---- memory tiering (DESIGN.md §11 "Memory tiering") ----
    /// Per-node physical-memory budget for LMR chunks, in bytes. When the
    /// resident bytes of locally-mastered LMRs exceed the budget, the
    /// [`crate::mm`] manager evicts cold chunks to swap nodes over the
    /// datapath. 0 (the default) disables tiering entirely: nothing is
    /// tracked or evicted — the ablation baseline.
    pub mem_budget_bytes: u64,
    /// How often the background memory manager wakes to check pressure
    /// and pull faulted LMRs home, in host wall time.
    pub mm_sweep_interval: std::time::Duration,
    /// Pin-free on-demand registration (DESIGN.md §13). `false` (the
    /// default) pins every LMR page up front, so registration cost
    /// scales with size (the paper's Fig 8 malloc line). `true` defers
    /// pinning to first touch at the datapath — O(1) registration, a
    /// one-time page-fault penalty per touched page, and a background
    /// unpinner that releases pages cold for a full sweep epoch.
    pub lazy_pinning: bool,

    // ---- ablation switches ----
    /// `false` reverts §5.2's crossing optimizations: every RPC pays
    /// 3 syscalls / 6 crossings instead of 2 crossings.
    pub fast_syscalls: bool,
    /// `false` makes the shared polling thread and user waiters burn CPU
    /// for their whole wait (no adaptive sleep) — the Fig 13 ablation.
    pub adaptive_poll: bool,
    /// `false` disables doorbell-batched posting: chains handed to
    /// `DataPath::post_many` degrade to one host post + QP-context touch
    /// per work request instead of one per chain.
    pub batch_posting: bool,
}

impl Default for LiteConfig {
    fn default() -> Self {
        LiteConfig {
            qp_factor: 2,
            rpc_ring_bytes: 16 << 20,
            recv_credits: 4_096,
            max_lmr_chunk: 4 << 20,
            op_timeout: std::time::Duration::from_secs(5),
            kernel_shards: 16,
            retry_enabled: true,
            retry_base_ns: 2_000,
            peer_dead_threshold: 3,
            stats_sample_rate: 1,
            trace_ring_slots: 4_096,
            mem_budget_bytes: 0,
            mm_sweep_interval: std::time::Duration::from_millis(2),
            lazy_pinning: false,
            fast_syscalls: true,
            adaptive_poll: true,
            batch_posting: true,
        }
    }
}

impl LiteConfig {
    /// Config with a given QP sharing factor.
    pub fn with_qp_factor(k: usize) -> Self {
        LiteConfig {
            qp_factor: k,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LiteConfig::default();
        assert_eq!(c.rpc_ring_bytes, 16 << 20);
        assert_eq!(c.max_lmr_chunk, 4 << 20);
        assert!((1..=4).contains(&c.qp_factor));
        // Two crossings ≈ 0.17 µs.
        assert_eq!(2 * SYSCALL_CROSSING_NS, 170);
    }
}
