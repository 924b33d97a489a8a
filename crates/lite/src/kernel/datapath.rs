//! The transport-agnostic datapath: op descriptors and their dispatch.
//!
//! The LITE kernel used to call `rnic` verbs directly from a dozen call
//! sites. This module narrows all of that to one seam: callers describe
//! work as [`Op`] descriptors and hand them to a [`DataPath`], which owns
//! transport selection, QoS, QP choice, and posting. Two implementations
//! exist:
//!
//! * [`RnicDataPath`] — the real thing: the global physical MR (§4.1),
//!   K shared RC QPs per peer (§6.1), HW-Sep/SW-Pri QoS (§6.2), and
//!   doorbell-batched posting ([`DataPath::post_many`]) that pays the
//!   host post cost and QP-context touch once per chain.
//! * [`TcpDataPath`] — the same descriptors over a modeled TCP/IPoIB
//!   stack, so baselines and apps can swap transports without touching
//!   their data plane.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rnic::{
    AtomicKind, ChainOutcome, ChainWr, FaultAction, IbConfig, IbFabric, NodeId, Qp, QpId, QpType,
    RemoteAddr, Sge, VerbsError, WritePost,
};
use simnet::{transfer_time, Ctx, Nanos, Resource};
use smem::{PhysAllocator, PhysMem};
use transport::TcpCostModel;

use super::chunkio::{read_chunks, write_chunks};
use super::stats::RetryCounters;
use super::LiteKernel;
use crate::config::{LiteConfig, MAP_CHECK_NS, RETRY_MAX_BACKOFF_NS};
use crate::directory::ClusterDirectory;
use crate::error::{LiteError, LiteResult};
use crate::observe::{EventKind, Observability, OpClass};
use crate::qos::{Priority, QosMode, QosState};

pub use smem::Chunk;

/// Cost of a local atomic executed by the kernel (no NIC involved).
const LOCAL_ATOMIC_NS: Nanos = 120;

/// A one-sided datapath operation, described in terms of physical
/// addresses under the global MR rather than verbs objects.
#[derive(Debug, Clone)]
pub enum Op {
    /// RDMA-write `len` bytes gathered from local `src` chunks to
    /// `(dst_node, dst_addr)`; optionally carries immediate data (which
    /// consumes a receive credit and wakes the remote poller).
    Write {
        /// Destination node.
        dst_node: NodeId,
        /// Destination physical address.
        dst_addr: u64,
        /// Local source chunks (gather list).
        src: Vec<Chunk>,
        /// Bytes to move.
        len: usize,
        /// Encoded immediate value, if any.
        imm: Option<u32>,
    },
    /// RDMA-read `len` bytes from `(src_node, src_addr)` scattered into
    /// local `dst` chunks.
    Read {
        /// Source node.
        src_node: NodeId,
        /// Source physical address.
        src_addr: u64,
        /// Local destination chunks (scatter list).
        dst: Vec<Chunk>,
        /// Bytes to move.
        len: usize,
    },
    /// One-sided atomic fetch-and-add on a remote u64.
    FetchAdd {
        /// Target node.
        node: NodeId,
        /// Physical address of the u64 cell.
        addr: u64,
        /// Addend.
        delta: u64,
    },
    /// One-sided atomic compare-and-swap on a remote u64.
    CmpSwap {
        /// Target node.
        node: NodeId,
        /// Physical address of the u64 cell.
        addr: u64,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
}

impl Op {
    /// Plain write descriptor (no immediate).
    pub fn write(dst_node: NodeId, dst_addr: u64, src: Vec<Chunk>, len: usize) -> Op {
        Op::Write {
            dst_node,
            dst_addr,
            src,
            len,
            imm: None,
        }
    }

    /// Plain read descriptor.
    pub fn read(src_node: NodeId, src_addr: u64, dst: Vec<Chunk>, len: usize) -> Op {
        Op::Read {
            src_node,
            src_addr,
            dst,
            len,
        }
    }

    /// The remote node this op touches.
    pub fn dst_node(&self) -> NodeId {
        match self {
            Op::Write { dst_node, .. } => *dst_node,
            Op::Read { src_node, .. } => *src_node,
            Op::FetchAdd { node, .. } | Op::CmpSwap { node, .. } => *node,
        }
    }

    /// The observability class this op records under.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Write { .. } => OpClass::Write,
            Op::Read { .. } => OpClass::Read,
            Op::FetchAdd { .. } | Op::CmpSwap { .. } => OpClass::Atomic,
        }
    }

    /// Payload bytes this op moves (8 for atomics).
    pub fn bytes(&self) -> u64 {
        match self {
            Op::Write { len, .. } | Op::Read { len, .. } => *len as u64,
            Op::FetchAdd { .. } | Op::CmpSwap { .. } => 8,
        }
    }
}

/// Outcome of a posted op.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Virtual time at which the op is complete (remotely visible for
    /// writes, locally filled for reads, executed for atomics).
    pub stamp: Nanos,
    /// Returned value for atomics (the previous cell contents); 0 for
    /// reads and writes.
    pub value: u64,
}

/// A transport under the LITE data plane: posts [`Op`] descriptors and
/// reports completion stamps.
///
/// Implementations own everything below the descriptor — QP/socket
/// selection, QoS, retry — so consumers (the kernel itself, `lite-graph`
/// backends, `lite-mr`) never special-case the transport.
pub trait DataPath: Send + Sync {
    /// The node this datapath instance posts from.
    fn node(&self) -> NodeId;

    /// The fabric whose physical memory the descriptors address (staging
    /// buffers are filled through it; moving host bytes into simulated
    /// memory carries no virtual-time cost).
    fn fabric(&self) -> &Arc<IbFabric>;

    /// Allocates `bytes` of remote-accessible physical memory on this
    /// datapath's node; returns its physical address.
    fn alloc(&self, bytes: u64) -> LiteResult<u64>;

    /// Posts one op; returns its completion. The caller's clock advances
    /// through the post path only (block with `ctx.wait_until` on the
    /// stamp when needed); atomics are blocking, like their verbs.
    fn post(&self, ctx: &mut Ctx, prio: Priority, op: &Op) -> LiteResult<Completion>;

    /// Posts a chain of ops. The default issues them one by one;
    /// implementations may amortize (doorbell batching). Completions are
    /// returned in op order.
    fn post_many(&self, ctx: &mut Ctx, prio: Priority, ops: &[Op]) -> LiteResult<Vec<Completion>> {
        ops.iter().map(|op| self.post(ctx, prio, op)).collect()
    }
}

// ---------------------------------------------------------------------
// RNIC implementation
// ---------------------------------------------------------------------

/// Liveness view of one peer node: consecutive deadline-exhausted ops
/// are counted, and past [`LiteConfig::peer_dead_threshold`] the peer is
/// declared dead — subsequent ops fail fast with [`LiteError::PeerDead`]
/// instead of burning a full timeout each. Revival comes from incoming
/// traffic (the poller marks the source alive) or from a rate-limited
/// probe attempt.
#[derive(Default)]
struct PeerHealth {
    consecutive_timeouts: AtomicU32,
    dead: AtomicBool,
    last_probe: Mutex<Option<Instant>>,
}

/// The verbs-backed datapath of the LITE kernel.
pub struct RnicDataPath {
    fabric: Arc<IbFabric>,
    node: NodeId,
    batch: bool,
    global_lkey: u32,
    /// Cluster membership: peer rkeys, QoS views, and memory managers
    /// all come from here instead of boot-time broadcast vectors.
    dir: Arc<ClusterDirectory>,
    /// Back-reference to the owning kernel (shared CQs for lazy QP
    /// wiring and repairs).
    kernel: Weak<LiteKernel>,
    /// K, the shared-QP factor per peer pair (§6.1).
    qp_factor: usize,
    /// Per-peer shared QP pools, sized to fabric capacity; empty until
    /// the pair is wired on first use. Mutable so the recovery layer can
    /// swap broken QPs for fresh ones underneath in-flight traffic.
    qp_pools: Vec<Mutex<Vec<Arc<Qp>>>>,
    /// Per-peer wired latch, set on *both* ends when a pair is built so
    /// a pair is wired exactly once no matter which side touches it
    /// first.
    wired: Box<[AtomicBool]>,
    rr: AtomicUsize,
    qos: Arc<QosState>,
    alloc: Arc<Mutex<PhysAllocator>>,
    retry_enabled: bool,
    retry_base_ns: Nanos,
    peer_dead_threshold: u32,
    op_timeout: Duration,
    health: Vec<PeerHealth>,
    retry: RetryCounters,
    obs: Arc<Observability>,
    /// Host-wall nanoseconds spent wiring QP pairs lazily (gauge).
    mesh_ns: AtomicU64,
    /// Lazy pair connects performed from this end (gauge).
    lazy_connects: AtomicU64,
    /// Per-logical-op sequence for remote atomics. Allocated once in
    /// `post` — *outside* the retry loop — so every retry attempt of the
    /// same fetch-add/cmp-swap carries the same exactly-once token to
    /// the responder NIC's dedup filter.
    atomic_seq: AtomicU64,
}

/// Observability identity of one in-flight op, threaded through the
/// recovery layer so lifecycle events land in the trace ring at exactly
/// the points where the matching counters increment.
#[derive(Clone, Copy)]
struct OpTrace {
    op_id: u64,
    class: OpClass,
    prio: Priority,
}

impl RnicDataPath {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        fabric: Arc<IbFabric>,
        node: NodeId,
        config: &LiteConfig,
        global_lkey: u32,
        qos: Arc<QosState>,
        alloc: Arc<Mutex<PhysAllocator>>,
        dir: Arc<ClusterDirectory>,
        kernel: Weak<LiteKernel>,
    ) -> Self {
        let peers = dir.capacity();
        RnicDataPath {
            fabric,
            node,
            batch: config.batch_posting,
            global_lkey,
            dir,
            kernel,
            qp_factor: config.qp_factor,
            qp_pools: (0..peers).map(|_| Mutex::new(Vec::new())).collect(),
            wired: (0..peers).map(|_| AtomicBool::new(false)).collect(),
            rr: AtomicUsize::new(0),
            qos,
            alloc,
            retry_enabled: config.retry_enabled,
            retry_base_ns: config.retry_base_ns.max(1),
            peer_dead_threshold: config.peer_dead_threshold.max(1),
            op_timeout: config.op_timeout,
            health: (0..peers).map(|_| PeerHealth::default()).collect(),
            retry: RetryCounters::default(),
            obs: Arc::new(Observability::new(
                peers,
                config.stats_sample_rate,
                config.trace_ring_slots,
            )),
            mesh_ns: AtomicU64::new(0),
            lazy_connects: AtomicU64::new(0),
            atomic_seq: AtomicU64::new(0),
        }
    }

    /// Host-wall nanoseconds spent wiring QP pairs lazily.
    pub(crate) fn mesh_host_ns(&self) -> u64 {
        self.mesh_ns.load(Ordering::Relaxed)
    }

    /// Lazy pair connects performed from this end.
    pub(crate) fn lazy_connects(&self) -> u64 {
        self.lazy_connects.load(Ordering::Relaxed)
    }

    /// Ensures the K-QP shared pool towards `peer` is wired (§6.1),
    /// establishing the pair on first use under the directory's connect
    /// lock. Wiring installs BOTH ends' pools and latches, so a pair is
    /// built exactly once no matter which side posts first.
    pub(crate) fn ensure_qps(&self, peer: NodeId) -> LiteResult<()> {
        if peer == self.node {
            return Ok(());
        }
        match self.wired.get(peer) {
            Some(w) if w.load(Ordering::Acquire) => return Ok(()),
            Some(_) => {}
            None => return Err(LiteError::NodeDown { node: peer }),
        }
        let start = Instant::now();
        let _g = self.dir.lock_connect();
        // Double-check under the lock (the peer's ensure may have won).
        if self.wired[peer].load(Ordering::Acquire) {
            return Ok(());
        }
        self.wire_peer(peer)?;
        self.mesh_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.lazy_connects.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Builds the K shared QPs between this node and `peer`, installing
    /// both ends' pools. Caller holds the directory's connect lock.
    fn wire_peer(&self, peer: NodeId) -> LiteResult<()> {
        let me = self
            .kernel
            .upgrade()
            .ok_or(LiteError::NodeDown { node: self.node })?;
        let other = self
            .dir
            .kernel(peer)
            .ok_or(LiteError::NodeDown { node: peer })?;
        let other_dp = other.try_datapath()?;
        for _ in 0..self.qp_factor.max(1) {
            let (sa, ra, rqa) = me.shared_queues();
            let (sb, rb, rqb) = other.shared_queues();
            let qa = self
                .fabric
                .nic(self.node)
                .create_qp_with(QpType::Rc, sa, ra, rqa);
            let qb = self
                .fabric
                .nic(peer)
                .create_qp_with(QpType::Rc, sb, rb, rqb);
            self.fabric.connect(&qa, &qb);
            self.add_qp(peer, qa);
            other_dp.add_qp(self.node, qb);
        }
        // Latch both ends so neither side re-wires the pair.
        self.wired[peer].store(true, Ordering::Release);
        if let Some(w) = other_dp.wired.get(self.node) {
            w.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// This node's observability surface (histograms + trace ring).
    pub(crate) fn observer(&self) -> &Arc<Observability> {
        &self.obs
    }

    pub(crate) fn num_qps(&self) -> usize {
        self.qp_pools.iter().map(|p| p.lock().len()).sum()
    }

    fn mem(&self) -> &Arc<PhysMem> {
        self.fabric.mem(self.node)
    }

    /// Feeds the target node's memory manager one access: promotes the
    /// touched chunk in its LRU. Called once per op (not per retry
    /// attempt).
    fn touch_mm(&self, op: &Op) {
        let (node, addr) = match op {
            Op::Write {
                dst_node, dst_addr, ..
            } => (*dst_node, *dst_addr),
            Op::Read {
                src_node, src_addr, ..
            } => (*src_node, *src_addr),
            Op::FetchAdd { node, addr, .. } | Op::CmpSwap { node, addr, .. } => (*node, *addr),
        };
        if let Some(mm) = self.dir.mm(node) {
            mm.touch(addr);
        }
    }

    /// Picks a QP towards `peer` (§6.1 sharing; §6.2 HW-Sep partitions
    /// the pool between priorities).
    pub(crate) fn qp_to(&self, peer: NodeId, prio: Priority) -> LiteResult<Arc<Qp>> {
        let pool = self
            .qp_pools
            .get(peer)
            .ok_or(LiteError::NodeDown { node: peer })?
            .lock();
        if pool.is_empty() {
            // Transient while a reconnect swaps the pool contents, or
            // permanent for an unwired peer — the retry layer decides.
            return Err(LiteError::NodeDown { node: peer });
        }
        let k = pool.len();
        let (lo, hi) = if self.qos.mode() == QosMode::HwSep {
            let (h, _) = self.qos.hw_partition(k);
            match prio {
                Priority::High => (0, h),
                Priority::Low => {
                    if h < k {
                        (h, k)
                    } else {
                        (0, k)
                    }
                }
            }
        } else {
            (0, k)
        };
        let n = hi - lo;
        let idx = lo + self.rr.fetch_add(1, Ordering::Relaxed) % n;
        Ok(Arc::clone(&pool[idx]))
    }

    // ------------------------------------------------------------------
    // Recovery layer: retry/backoff, QP re-establishment, peer liveness.
    // ------------------------------------------------------------------

    /// Live recovery counters (folded into the kernel stats snapshot).
    pub(crate) fn retry_counters(&self) -> &RetryCounters {
        &self.retry
    }

    /// Removes a (broken) QP from the pool towards `peer`; `false` when
    /// it was already gone — the peer's reconnect got there first.
    pub(crate) fn remove_qp(&self, peer: NodeId, qp_id: QpId) -> bool {
        let Some(pool) = self.qp_pools.get(peer) else {
            return false;
        };
        let mut pool = pool.lock();
        let before = pool.len();
        pool.retain(|q| q.id != qp_id);
        pool.len() != before
    }

    /// Adds a freshly connected QP to the pool towards `peer`.
    pub(crate) fn add_qp(&self, peer: NodeId, qp: Arc<Qp>) {
        if let Some(pool) = self.qp_pools.get(peer) {
            pool.lock().push(qp);
        }
    }

    /// Whether the liveness monitor currently considers `peer` dead.
    pub(crate) fn peer_is_dead(&self, peer: NodeId) -> bool {
        self.health
            .get(peer)
            .is_some_and(|h| h.dead.load(Ordering::Acquire))
    }

    /// Evidence of life from `peer` — a completed op or incoming traffic
    /// (the poller calls this on every remote completion it dispatches).
    pub(crate) fn mark_peer_alive(&self, peer: NodeId) {
        let Some(h) = self.health.get(peer) else {
            return;
        };
        h.consecutive_timeouts.store(0, Ordering::Relaxed);
        if h.dead.swap(false, Ordering::AcqRel) {
            *h.last_probe.lock() = None;
        }
    }

    /// Records a deadline-exhausted op towards `peer`; past the threshold
    /// the peer is declared dead.
    fn note_peer_timeout(&self, peer: NodeId) {
        let Some(h) = self.health.get(peer) else {
            return;
        };
        let n = h.consecutive_timeouts.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= self.peer_dead_threshold && !h.dead.swap(true, Ordering::AcqRel) {
            self.retry.peers_marked_dead.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// At most one probe per interval towards a dead peer: the winning
    /// caller gets one real attempt, everyone else fails fast without
    /// touching the fabric.
    fn claim_probe(&self, peer: NodeId) -> bool {
        let Some(h) = self.health.get(peer) else {
            return false;
        };
        let interval = (self.op_timeout / 4).max(Duration::from_millis(5));
        let mut last = h.last_probe.lock();
        let due = last.is_none_or(|t| t.elapsed() >= interval);
        if due {
            *last = Some(Instant::now());
        }
        due
    }

    /// Tears down and re-establishes a broken shared QP pair, touching
    /// both ends' pools through the directory. Serialized by the same
    /// connect lock as lazy wiring and runtime joins; the pool-membership
    /// check makes the repair idempotent when both ends of a broken pair
    /// race into their retry loops. Returns whether this call actually
    /// rebuilt the pair (`false`: the other end got there first).
    fn reconnect_qp(&self, peer: NodeId, qp: QpId) -> LiteResult<bool> {
        let _g = self.dir.lock_connect();
        let me = self
            .kernel
            .upgrade()
            .ok_or(LiteError::NodeDown { node: self.node })?;
        let other = self
            .dir
            .kernel(peer)
            .ok_or(LiteError::NodeDown { node: peer })?;
        let other_dp = other.try_datapath()?;
        // Already repaired from the other end?
        if !self.remove_qp(peer, qp) {
            return Ok(false);
        }
        // Tear down both halves of the broken pair...
        let nic = self.fabric.nic(self.node);
        if let Ok(q) = nic.qp(qp) {
            if let Ok((_, peer_qp)) = q.peer() {
                other_dp.remove_qp(self.node, peer_qp);
                if let Ok(pqp) = self.fabric.nic(peer).qp(peer_qp) {
                    self.fabric.nic(peer).destroy_qp(&pqp);
                }
            }
            nic.destroy_qp(&q);
        }
        // ...and wire a fresh one on the same shared queues.
        let (sa, ra, rqa) = me.shared_queues();
        let (sb, rb, rqb) = other.shared_queues();
        let qa = nic.create_qp_with(QpType::Rc, sa, ra, rqa);
        let qb = self
            .fabric
            .nic(peer)
            .create_qp_with(QpType::Rc, sb, rb, rqb);
        self.fabric.connect(&qa, &qb);
        self.add_qp(peer, qa);
        other_dp.add_qp(self.node, qb);
        self.retry.qp_reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// The recovery wrapper around every remote post. Faults are injected
    /// before any side effect, so a failed attempt is safe to repeat:
    ///
    /// * transient faults (drops, down nodes, pools mid-swap) retry with
    ///   exponential virtual-time backoff, bounded by the `op_timeout`
    ///   host-wall budget;
    /// * a broken QP is torn down and re-established transparently, then
    ///   the op is replayed;
    /// * a peer past the liveness threshold fails fast with
    ///   [`LiteError::PeerDead`], except for one rate-limited probe that
    ///   can revive it after a restart.
    fn with_retry<T>(
        &self,
        ctx: &mut Ctx,
        peer: NodeId,
        trace: Option<OpTrace>,
        mut attempt: impl FnMut(&Self, &mut Ctx) -> LiteResult<T>,
    ) -> LiteResult<T> {
        // Lifecycle *error* events are recorded unsampled, exactly where
        // the matching counter increments — the chaos tests assert that
        // trace-ring `Retried` events equal `KernelStats.retries`.
        let trace_retry = |t: &OpTrace, at: Nanos| {
            self.obs
                .trace(t.op_id, t.class, EventKind::Retried, t.prio, peer, at);
            self.obs.record_retry(peer);
        };
        if peer == self.node {
            return attempt(self, ctx);
        }
        if !self.retry_enabled {
            return attempt(self, ctx).inspect_err(|_| {
                self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
            });
        }
        if self.peer_is_dead(peer) {
            if self.claim_probe(peer) {
                if let Ok(v) = attempt(self, ctx) {
                    self.mark_peer_alive(peer);
                    return Ok(v);
                }
            }
            self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
            return Err(LiteError::PeerDead { node: peer });
        }
        let deadline = Instant::now() + self.op_timeout;
        let mut backoff = self.retry_base_ns;
        loop {
            match attempt(self, ctx) {
                Ok(v) => {
                    self.mark_peer_alive(peer);
                    return Ok(v);
                }
                Err(LiteError::Verbs(VerbsError::QpBroken { qp })) => {
                    match self.reconnect_qp(peer, qp) {
                        Ok(rebuilt) => {
                            if rebuilt {
                                if let Some(t) = &trace {
                                    self.obs.trace(
                                        t.op_id,
                                        t.class,
                                        EventKind::Reconnected,
                                        t.prio,
                                        peer,
                                        ctx.now(),
                                    );
                                }
                            }
                        }
                        Err(e) => {
                            self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                    self.retry.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &trace {
                        trace_retry(t, ctx.now());
                    }
                }
                Err(e @ (LiteError::Timeout | LiteError::NodeDown { .. })) => {
                    if Instant::now() >= deadline {
                        self.note_peer_timeout(peer);
                        self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    self.retry.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &trace {
                        trace_retry(t, ctx.now());
                    }
                    ctx.wait_until(ctx.now() + backoff);
                    // A little host-wall pacing so a down peer does not
                    // turn the bounded wait into a hot spin.
                    std::thread::sleep(Duration::from_nanos(backoff.min(100_000)));
                    backoff = (backoff * 2).min(RETRY_MAX_BACKOFF_NS);
                }
                Err(e) => {
                    self.retry.ops_failed.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
    }

    /// The global rkey of `node`, or a graceful [`LiteError::NodeDown`]
    /// when `node` has not joined the cluster.
    fn rkey(&self, node: NodeId) -> LiteResult<u32> {
        self.dir.rkey(node).ok_or(LiteError::NodeDown { node })
    }

    /// Applies QoS before an op of `bytes` towards `dst`: HW-Sep
    /// partitions the sender; SW-Pri consults the *receiver's* monitor
    /// (the paper's policy 3 explicitly uses receiver-side information).
    /// An unknown `dst` falls back to the sender's own state — the op
    /// itself will fail cleanly at the rkey/QP lookup.
    fn qos_before(&self, ctx: &mut Ctx, prio: Priority, dst: NodeId, bytes: u64) {
        let state = match self.qos.mode() {
            QosMode::SwPri => self.dir.qos(dst).unwrap_or(&self.qos),
            _ => &self.qos,
        };
        state.before_op(ctx, prio, bytes);
    }

    /// Records a completed high-priority op at the receiver's monitor.
    fn qos_after_high(&self, dst: NodeId, finish: Nanos, bytes: u64, latency: Nanos) {
        if let Some(q) = self.dir.qos(dst) {
            q.after_high_op(finish, bytes, latency);
        }
    }

    /// Posts a doorbell chain on `qp`, appending to `done`. Write-imm
    /// posts race with the remote poller's credit reposting; RNR
    /// (exhausted credits) is transient and fails validation before any
    /// side effect, so the remaining suffix retries briefly.
    fn chain_rnr_retry(
        &self,
        ctx: &mut Ctx,
        qp: &Qp,
        wrs: &[ChainWr],
        done: &mut Vec<ChainOutcome>,
    ) -> LiteResult<()> {
        let nic = self.fabric.nic(self.node);
        let mut tries = 0;
        loop {
            match nic.post_chain(ctx, qp, &wrs[done.len()..], done) {
                Ok(()) => return Ok(()),
                Err(rnic::VerbsError::ReceiverNotReady) if tries < 1000 => {
                    tries += 1;
                    std::thread::yield_now();
                    ctx.clock.advance(200);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One attempt at a doorbell chain of remote writes and atomics
    /// towards `dst`, resuming after the `done.len()` ops that already
    /// completed: per-op mapping checks (and QoS for writes), then one
    /// [`rnic::Nic::post_chain`], so the host post cost and QP-context
    /// touch are paid once for the whole remaining run. `aseqs` holds
    /// each atomic's exactly-once sequence.
    fn post_chain_once(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        dst: NodeId,
        ops: &[Op],
        aseqs: &[u64],
        done: &mut Vec<Completion>,
    ) -> LiteResult<()> {
        let start = ctx.now();
        let first = done.len();
        let mut wrs = Vec::with_capacity(ops.len() - first);
        for (op, &aseq) in ops[first..].iter().zip(&aseqs[first..]) {
            let (addr, kind) = match op {
                Op::Write {
                    dst_addr,
                    src,
                    len,
                    imm,
                    ..
                } => {
                    if imm.is_none() {
                        ctx.work(MAP_CHECK_NS);
                    }
                    self.qos_before(ctx, prio, dst, *len as u64);
                    wrs.push(ChainWr::Write(WritePost {
                        wr_id: 0,
                        sge: Sge::Phys {
                            lkey: self.global_lkey,
                            chunks: src.clone(),
                        },
                        remote: RemoteAddr {
                            rkey: self.rkey(dst)?,
                            addr: *dst_addr,
                        },
                        imm: *imm,
                        signaled: false,
                    }));
                    continue;
                }
                Op::FetchAdd { addr, delta, .. } => (*addr, AtomicKind::FetchAdd(*delta)),
                Op::CmpSwap {
                    addr, expect, new, ..
                } => (*addr, AtomicKind::CmpSwap(*expect, *new)),
                Op::Read { .. } => unreachable!("chains carry writes and atomics only"),
            };
            ctx.work(MAP_CHECK_NS);
            wrs.push(ChainWr::Atomic {
                remote: RemoteAddr {
                    rkey: self.rkey(dst)?,
                    addr,
                },
                kind,
                // Tagged with the logical-op sequence: a resumed chain
                // replays a landed atomic from the responder's memo.
                token: Some((self.node, aseq)),
            });
        }
        let qp = self.qp_to(dst, prio)?;
        let mut outcomes = Vec::with_capacity(wrs.len());
        let result = self.chain_rnr_retry(ctx, &qp, &wrs, &mut outcomes);
        for (op, o) in ops[first..].iter().zip(outcomes) {
            if let Op::Write { len, imm: None, .. } = op {
                if prio == Priority::High {
                    let latency = o.completion.saturating_sub(start);
                    self.qos_after_high(dst, o.completion, *len as u64, latency);
                }
            }
            done.push(Completion {
                stamp: o.completion,
                value: o.value,
            });
        }
        result
    }

    /// A single posting attempt of one op — the body of `post` before
    /// the recovery layer existed. Faults are injected before any side
    /// effect, so the retry wrapper can replay this safely; local ops
    /// cannot fault and never repeat.
    fn post_once(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        op: &Op,
        aseq: u64,
    ) -> LiteResult<Completion> {
        match op {
            Op::Write {
                dst_node,
                dst_addr,
                src,
                len,
                imm,
            } => {
                if *dst_node == self.node {
                    // Local LMR: plain memory copy, no NIC. (Loop-back
                    // write-imm goes through the kernel's RPC layer, not
                    // here — it must land in the shared receive CQ.)
                    debug_assert!(imm.is_none(), "loopback imm handled by the RPC layer");
                    ctx.work(MAP_CHECK_NS);
                    let cost = self.fabric.cost();
                    let data = read_chunks(self.mem(), src, *len)?;
                    self.mem().write(*dst_addr, &data)?;
                    ctx.work(cost.memcpy_time(*len as u64));
                    return Ok(Completion {
                        stamp: ctx.now(),
                        value: 0,
                    });
                }
                let start = ctx.now();
                if imm.is_none() {
                    // Write-imm paths pay their (cheaper) mapping cost as
                    // part of RPC metadata handling instead.
                    ctx.work(MAP_CHECK_NS);
                }
                self.qos_before(ctx, prio, *dst_node, *len as u64);
                let qp = self.qp_to(*dst_node, prio)?;
                let sge = Sge::Phys {
                    lkey: self.global_lkey,
                    chunks: src.clone(),
                };
                let remote = RemoteAddr {
                    rkey: self.rkey(*dst_node)?,
                    addr: *dst_addr,
                };
                let comp = if imm.is_some() {
                    let wrs = [ChainWr::Write(WritePost {
                        wr_id: 0,
                        sge,
                        remote,
                        imm: *imm,
                        signaled: false,
                    })];
                    // Single-element chain: identical to a plain post, but
                    // shares the RNR retry loop.
                    let mut done = Vec::with_capacity(1);
                    self.chain_rnr_retry(ctx, &qp, &wrs, &mut done)?;
                    done[0].completion
                } else {
                    self.fabric
                        .nic(self.node)
                        .post_write(ctx, &qp, 0, &sge, remote, None, false)?
                };
                if imm.is_none() && prio == Priority::High {
                    self.qos_after_high(*dst_node, comp, *len as u64, comp.saturating_sub(start));
                }
                Ok(Completion {
                    stamp: comp,
                    value: 0,
                })
            }
            Op::Read {
                src_node,
                src_addr,
                dst,
                len,
            } => {
                let start = ctx.now();
                ctx.work(MAP_CHECK_NS);
                if *src_node == self.node {
                    let cost = self.fabric.cost();
                    let mut data = vec![0u8; *len];
                    self.mem().read(*src_addr, &mut data)?;
                    write_chunks(self.mem(), dst, &data)?;
                    ctx.work(cost.memcpy_time(*len as u64));
                    return Ok(Completion {
                        stamp: ctx.now(),
                        value: 0,
                    });
                }
                self.qos_before(ctx, prio, *src_node, *len as u64);
                let qp = self.qp_to(*src_node, prio)?;
                let sge = Sge::Phys {
                    lkey: self.global_lkey,
                    chunks: dst.clone(),
                };
                let comp = self.fabric.nic(self.node).post_read(
                    ctx,
                    &qp,
                    0,
                    &sge,
                    RemoteAddr {
                        rkey: self.rkey(*src_node)?,
                        addr: *src_addr,
                    },
                    false,
                )?;
                if prio == Priority::High {
                    self.qos_after_high(*src_node, comp, *len as u64, comp.saturating_sub(start));
                }
                Ok(Completion {
                    stamp: comp,
                    value: 0,
                })
            }
            Op::FetchAdd { node, addr, delta } => {
                ctx.work(MAP_CHECK_NS);
                if *node == self.node {
                    ctx.work(LOCAL_ATOMIC_NS);
                    // Stamped apply: the completion stamp is taken inside
                    // the cell's critical section so conflicting atomics'
                    // stamps follow the real apply order (history-checker
                    // soundness; see `PhysMem::fetch_add_u64_stamped`).
                    let (value, stamp) =
                        self.mem().fetch_add_u64_stamped(*addr, *delta, ctx.now())?;
                    ctx.wait_until(stamp);
                    return Ok(Completion { stamp, value });
                }
                let qp = self.qp_to(*node, prio)?;
                // Tagged with the logical-op sequence: a retry after a
                // lost ack hits the responder's dedup filter instead of
                // applying the delta a second time.
                let value = self.fabric.nic(self.node).fetch_add_tagged(
                    ctx,
                    &qp,
                    RemoteAddr {
                        rkey: self.rkey(*node)?,
                        addr: *addr,
                    },
                    *delta,
                    (self.node, aseq),
                )?;
                Ok(Completion {
                    stamp: ctx.now(),
                    value,
                })
            }
            Op::CmpSwap {
                node,
                addr,
                expect,
                new,
            } => {
                ctx.work(MAP_CHECK_NS);
                if *node == self.node {
                    ctx.work(LOCAL_ATOMIC_NS);
                    let (value, stamp) =
                        self.mem()
                            .cas_u64_stamped(*addr, *expect, *new, ctx.now())?;
                    ctx.wait_until(stamp);
                    return Ok(Completion { stamp, value });
                }
                let qp = self.qp_to(*node, prio)?;
                let value = self.fabric.nic(self.node).cmp_swap_tagged(
                    ctx,
                    &qp,
                    RemoteAddr {
                        rkey: self.rkey(*node)?,
                        addr: *addr,
                    },
                    *expect,
                    *new,
                    (self.node, aseq),
                )?;
                Ok(Completion {
                    stamp: ctx.now(),
                    value,
                })
            }
        }
    }
}

impl DataPath for RnicDataPath {
    fn node(&self) -> NodeId {
        self.node
    }

    fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    fn alloc(&self, bytes: u64) -> LiteResult<u64> {
        Ok(self.alloc.lock().alloc(bytes)?)
    }

    /// One op through the recovery layer — retry/backoff, transparent QP
    /// re-establishment, and the peer-liveness fast path — around a
    /// replayable [`RnicDataPath::post_once`] attempt. The op's lifecycle
    /// (posted/retried/reconnected/completed/failed) is traced and its
    /// post→completion latency recorded per class, priority, and peer.
    fn post(&self, ctx: &mut Ctx, prio: Priority, op: &Op) -> LiteResult<Completion> {
        let peer = op.dst_node();
        if peer != self.node {
            self.ensure_qps(peer)?;
        }
        let class = op.class();
        self.touch_mm(op);
        let start = ctx.now();
        let sampled = self.obs.sample();
        let op_id = self.obs.next_op_id();
        if sampled {
            self.obs
                .trace(op_id, class, EventKind::Posted, prio, peer, start);
        }
        let trace = OpTrace { op_id, class, prio };
        // One sequence per *logical* op, minted before the retry loop:
        // every attempt below replays the same exactly-once token.
        let aseq = self.atomic_seq.fetch_add(1, Ordering::Relaxed);
        match self.with_retry(ctx, peer, Some(trace), |dp, ctx| {
            dp.post_once(ctx, prio, op, aseq)
        }) {
            Ok(c) => {
                self.record_done(op, trace, peer, start, c, sampled);
                Ok(c)
            }
            Err(e) => {
                self.record_cell(op, 0, false, start, ctx.now());
                self.obs.record_failure(peer);
                self.obs
                    .trace(op_id, class, EventKind::Failed, prio, peer, ctx.now());
                Err(e)
            }
        }
    }

    /// Doorbell batching: every run of two or more remote writes and
    /// atomics towards the same peer is chained through one
    /// [`rnic::Nic::post_chain`] (one host post, one QP-context touch,
    /// one engine batch — §6.1's sharing taken one step further). Reads
    /// and local ops post alone, as does every op when `batch_posting`
    /// is off.
    fn post_many(&self, ctx: &mut Ctx, prio: Priority, ops: &[Op]) -> LiteResult<Vec<Completion>> {
        if !self.batch || ops.len() < 2 {
            return ops.iter().map(|op| self.post(ctx, prio, op)).collect();
        }
        let chains_to = |op: &Op, dst: NodeId| {
            dst != self.node && op.dst_node() == dst && !matches!(op, Op::Read { .. })
        };
        let mut out = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let dst = ops[i].dst_node();
            let run = ops[i..].iter().take_while(|op| chains_to(op, dst)).count();
            if run >= 2 {
                out.extend(self.post_chain(ctx, prio, dst, &ops[i..i + run])?);
                i += run;
            } else {
                out.push(self.post(ctx, prio, &ops[i])?);
                i += 1;
            }
        }
        Ok(out)
    }
}

impl RnicDataPath {
    /// History capture for the linearizability checker: atomics are
    /// recorded here, at the datapath, so lock-word traffic is seen too —
    /// not just `lt_fetch_add`/`lt_test_set`. Faults inject before side
    /// effects and retries are replay-exact, so an Ok completion's value
    /// is the one real apply; an Err is recorded as pending (the checker
    /// explores both did/didn't branches). Non-atomics record nothing.
    fn record_cell(&self, op: &Op, ret: u64, ok: bool, invoke: Nanos, response: Nanos) {
        let (node, addr, kind) = match op {
            Op::FetchAdd { node, addr, delta } => (
                *node,
                *addr,
                crate::verify::OpKind::FetchAdd { delta: *delta },
            ),
            Op::CmpSwap {
                node,
                addr,
                expect,
                new,
            } => (
                *node,
                *addr,
                crate::verify::OpKind::TestSet {
                    expect: *expect,
                    new: *new,
                },
            ),
            _ => return,
        };
        let Some(log) = self.obs.history() else {
            return;
        };
        // Key atomic histories by *logical* location when the cell lives
        // in a tracked LMR chunk: the physical address changes when the
        // chunk migrates, but the (LMR id, offset) identity does not — so
        // histories on a cell stay one linearizable history across
        // eviction and fetch-back. Untracked cells (lock words, budget-0
        // runs) keep their physical key, byte-identical to the
        // pre-tiering behavior.
        let key = match self.dir.mm(node).and_then(|mm| mm.logical_cell(addr)) {
            Some((id, off)) => crate::verify::Key::LogicalCell {
                node: id.node,
                idx: id.idx,
                off,
            },
            None => crate::verify::Key::Cell { node, addr },
        };
        log.record(crate::verify::HistOp {
            proc: crate::verify::proc_id(self.node, 0),
            key,
            kind,
            ret,
            ok,
            invoke,
            response,
        });
    }

    /// Books one completed op: its history entry, its latency sample,
    /// and — when sampled — its `Completed` trace event.
    fn record_done(
        &self,
        op: &Op,
        t: OpTrace,
        peer: NodeId,
        start: Nanos,
        c: Completion,
        sampled: bool,
    ) {
        self.record_cell(op, c.value, true, start, c.stamp);
        self.obs.record_completion(
            t.class,
            t.prio,
            peer,
            op.bytes(),
            c.stamp.saturating_sub(start),
            c.stamp,
            sampled,
        );
        if sampled {
            self.obs.trace(
                t.op_id,
                t.class,
                EventKind::Completed,
                t.prio,
                peer,
                c.stamp,
            );
        }
    }

    /// A doorbell chain of remote writes and atomics towards `dst`
    /// through the recovery layer. A retried attempt resumes after the
    /// ops that already completed — behind a lost atomic ack, that is
    /// the atomic itself, which its exactly-once token replays — so no
    /// completed op is ever posted twice. Every op is booked as if
    /// posted alone; the retry/failure events carry the id of the
    /// chain's first op.
    fn post_chain(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        dst: NodeId,
        ops: &[Op],
    ) -> LiteResult<Vec<Completion>> {
        self.ensure_qps(dst)?;
        for op in ops {
            self.touch_mm(op);
        }
        let start = ctx.now();
        let sampled = self.obs.sample();
        let traces: Vec<OpTrace> = ops
            .iter()
            .map(|op| OpTrace {
                op_id: self.obs.next_op_id(),
                class: op.class(),
                prio,
            })
            .collect();
        if sampled {
            for t in &traces {
                for kind in [EventKind::Posted, EventKind::Batched] {
                    self.obs.trace(t.op_id, t.class, kind, prio, dst, start);
                }
            }
        }
        // One exactly-once sequence per atomic, minted before the retry
        // loop (writes need none).
        let aseqs: Vec<u64> = ops
            .iter()
            .map(|op| match op.class() {
                OpClass::Atomic => self.atomic_seq.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            })
            .collect();
        let mut done = Vec::with_capacity(ops.len());
        let result = self.with_retry(ctx, dst, Some(traces[0]), |dp, ctx| {
            dp.post_chain_once(ctx, prio, dst, ops, &aseqs, &mut done)
        });
        for ((op, &t), &c) in ops.iter().zip(&traces).zip(&done) {
            self.record_done(op, t, dst, start, c, sampled);
        }
        match result {
            Ok(()) => Ok(done),
            Err(e) => {
                for op in &ops[done.len()..] {
                    self.record_cell(op, 0, false, start, ctx.now());
                }
                self.obs.record_failure(dst);
                let t = traces[done.len()];
                self.obs
                    .trace(t.op_id, t.class, EventKind::Failed, prio, dst, ctx.now());
                Err(e)
            }
        }
    }
}

// ---------------------------------------------------------------------
// TCP implementation
// ---------------------------------------------------------------------

/// Per-node TCP/IPoIB stack resources (mirrors `transport::tcp`).
struct TcpStack {
    kernel: Resource,
    wire: Resource,
}

/// The same op descriptors over a modeled kernel TCP stack on IPoIB.
///
/// One-sided semantics are emulated request/response style: writes push
/// the bytes with one message, reads and atomics pay a round trip. Used
/// by baselines that want LITE's data plane shape without its RDMA
/// substrate — build a set of connected paths with
/// [`TcpDataPath::mesh`].
pub struct TcpDataPath {
    fabric: Arc<IbFabric>,
    node: NodeId,
    cost: TcpCostModel,
    stacks: Arc<Vec<TcpStack>>,
    alloc: Mutex<PhysAllocator>,
}

/// Bytes of a read request / atomic request / atomic response message.
const TCP_CTRL_BYTES: usize = 24;

impl TcpDataPath {
    /// Builds one connected datapath per node over a fresh memory fabric.
    pub fn mesh(nodes: usize, cost: TcpCostModel) -> Vec<Arc<TcpDataPath>> {
        let fabric = IbFabric::new(IbConfig::with_nodes(nodes));
        let stacks = Arc::new(
            (0..nodes)
                .map(|_| TcpStack {
                    kernel: Resource::with_slack("tcp-kernel", 40_000),
                    wire: Resource::with_slack("ipoib-wire", 40_000),
                })
                .collect::<Vec<_>>(),
        );
        (0..nodes)
            .map(|node| {
                let size = fabric.mem(node).size();
                Arc::new(TcpDataPath {
                    fabric: Arc::clone(&fabric),
                    node,
                    cost: cost.clone(),
                    stacks: Arc::clone(&stacks),
                    alloc: Mutex::new(PhysAllocator::new(0, size)),
                })
            })
            .collect()
    }

    fn segs(&self, len: usize) -> u64 {
        len.max(1).div_ceil(self.cost.mss) as u64
    }

    fn copy_time(&self, len: usize) -> Nanos {
        transfer_time(len as u64, self.cost.copy_bytes_per_sec)
    }

    fn wire_time(&self, len: usize) -> Nanos {
        transfer_time(len as u64, self.cost.bytes_per_sec)
    }

    /// Send path from this node, charged to the caller's CPU; returns the
    /// arrival stamp at the peer (post-wakeup, pre-copy).
    fn send_leg(&self, ctx: &mut Ctx, len: usize) -> Nanos {
        let c = &self.cost;
        ctx.work(c.syscall_ns + self.copy_time(len));
        let seg = self.stacks[self.node]
            .kernel
            .acquire(ctx.now(), c.segment_ns * self.segs(len));
        let wire = self.stacks[self.node]
            .wire
            .acquire(seg.finish, self.wire_time(len));
        wire.finish + c.propagation_ns + c.rx_wakeup_ns
    }

    /// Response path from `from`, starting at virtual time `start`
    /// (remote CPU; nothing charged to the caller).
    fn return_leg(&self, from: NodeId, start: Nanos, len: usize) -> Nanos {
        let c = &self.cost;
        let cpu = c.syscall_ns + self.copy_time(len);
        let seg = self.stacks[from]
            .kernel
            .acquire(start + cpu, c.segment_ns * self.segs(len));
        let wire = self.stacks[from]
            .wire
            .acquire(seg.finish, self.wire_time(len));
        wire.finish + c.propagation_ns + c.rx_wakeup_ns
    }

    /// Receiver-side cost folded into the completion stamp.
    fn rx_done(&self, arrive: Nanos, len: usize) -> Nanos {
        arrive + self.cost.syscall_ns + self.copy_time(len)
    }

    /// Mirror of the RNIC datapath's injection point: TCP ops consult
    /// the fabric's fault plan and node-down state before touching the
    /// wire, so both transports honor the same fault model. There is no
    /// QP to break on a socket path, so `BreakQp` rules never match
    /// (`fault_check` is called without a QP).
    fn fault_gate(&self, ctx: &mut Ctx, dst: NodeId) -> LiteResult<()> {
        match self.fabric.fault_check(self.node, dst, None) {
            FaultAction::Delay(d) => ctx.wait_until(ctx.now() + d),
            FaultAction::Drop => return Err(LiteError::Timeout),
            _ => {}
        }
        if self.fabric.is_down(self.node) || self.fabric.is_down(dst) {
            return Err(LiteError::Timeout);
        }
        Ok(())
    }
}

impl DataPath for TcpDataPath {
    fn node(&self) -> NodeId {
        self.node
    }

    fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    fn alloc(&self, bytes: u64) -> LiteResult<u64> {
        Ok(self.alloc.lock().alloc(bytes)?)
    }

    fn post(&self, ctx: &mut Ctx, _prio: Priority, op: &Op) -> LiteResult<Completion> {
        let local_mem = self.fabric.mem(self.node);
        match op {
            Op::Write {
                dst_node,
                dst_addr,
                src,
                len,
                ..
            } => {
                let data = read_chunks(local_mem, src, *len)?;
                if *dst_node == self.node {
                    local_mem.write(*dst_addr, &data)?;
                    ctx.work(self.copy_time(*len));
                    return Ok(Completion {
                        stamp: ctx.now(),
                        value: 0,
                    });
                }
                self.fault_gate(ctx, *dst_node)?;
                let arrive = self.send_leg(ctx, *len);
                self.fabric.mem(*dst_node).write(*dst_addr, &data)?;
                Ok(Completion {
                    stamp: self.rx_done(arrive, *len),
                    value: 0,
                })
            }
            Op::Read {
                src_node,
                src_addr,
                dst,
                len,
            } => {
                if *src_node == self.node {
                    let mut data = vec![0u8; *len];
                    local_mem.read(*src_addr, &mut data)?;
                    write_chunks(local_mem, dst, &data)?;
                    ctx.work(self.copy_time(*len));
                    return Ok(Completion {
                        stamp: ctx.now(),
                        value: 0,
                    });
                }
                self.fault_gate(ctx, *src_node)?;
                let req_arrive = self.send_leg(ctx, TCP_CTRL_BYTES);
                let mut data = vec![0u8; *len];
                self.fabric.mem(*src_node).read(*src_addr, &mut data)?;
                write_chunks(local_mem, dst, &data)?;
                let back = self.return_leg(*src_node, req_arrive, *len);
                Ok(Completion {
                    stamp: self.rx_done(back, *len),
                    value: 0,
                })
            }
            Op::FetchAdd { node, addr, delta } => {
                if *node == self.node {
                    ctx.work(LOCAL_ATOMIC_NS);
                    // Stamped applies keep conflicting atomics' stamps
                    // monotone in apply order (history-checker soundness).
                    let (value, stamp) =
                        local_mem.fetch_add_u64_stamped(*addr, *delta, ctx.now())?;
                    ctx.wait_until(stamp);
                    return Ok(Completion { stamp, value });
                }
                self.fault_gate(ctx, *node)?;
                let req_arrive = self.send_leg(ctx, TCP_CTRL_BYTES);
                let back = self.return_leg(*node, req_arrive, TCP_CTRL_BYTES);
                let done = self.rx_done(back, TCP_CTRL_BYTES);
                let (value, stamp) = self
                    .fabric
                    .mem(*node)
                    .fetch_add_u64_stamped(*addr, *delta, done)?;
                // Response-leg injection point, mirroring the RNIC path:
                // the apply above landed; a dropped ack surfaces as a
                // timeout. The TCP path has no retry layer, so the op
                // fails indeterminate — which is exactly how the history
                // checker treats it (pending, explored both ways).
                if self.fabric.fault_check_ack(self.node, *node) == FaultAction::Drop {
                    return Err(LiteError::Timeout);
                }
                ctx.wait_until(stamp); // atomics are blocking, like their verbs
                Ok(Completion { stamp, value })
            }
            Op::CmpSwap {
                node,
                addr,
                expect,
                new,
            } => {
                if *node == self.node {
                    ctx.work(LOCAL_ATOMIC_NS);
                    let (value, stamp) =
                        local_mem.cas_u64_stamped(*addr, *expect, *new, ctx.now())?;
                    ctx.wait_until(stamp);
                    return Ok(Completion { stamp, value });
                }
                self.fault_gate(ctx, *node)?;
                let req_arrive = self.send_leg(ctx, TCP_CTRL_BYTES);
                let back = self.return_leg(*node, req_arrive, TCP_CTRL_BYTES);
                let done = self.rx_done(back, TCP_CTRL_BYTES);
                let (value, stamp) = self
                    .fabric
                    .mem(*node)
                    .cas_u64_stamped(*addr, *expect, *new, done)?;
                if self.fabric.fault_check_ack(self.node, *node) == FaultAction::Drop {
                    return Err(LiteError::Timeout);
                }
                ctx.wait_until(stamp);
                Ok(Completion { stamp, value })
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared synchronization helper
// ---------------------------------------------------------------------

/// A sense-free spin barrier built from nothing but [`Op`] descriptors:
/// one cumulative counter cell on a home node, bumped with
/// [`Op::FetchAdd`] and polled with one-sided reads. Lets any
/// [`DataPath`] consumer (the graph and MapReduce apps) synchronize
/// without a second transport-specific mechanism.
///
/// The counter is monotonic: the barrier with sequence `seq` releases
/// once the cell reaches `(seq + 1) * parties`, so one cell serves every
/// round of a run.
pub struct DataPathBarrier {
    dp: Arc<dyn DataPath>,
    home: NodeId,
    cell: u64,
    parties: u64,
    /// Local 8-byte landing pad the polls read into.
    spin: u64,
}

impl DataPathBarrier {
    /// Allocates and zeroes a counter cell on `home`'s node (call once,
    /// share the address with every party).
    pub fn alloc_cell(home: &Arc<dyn DataPath>) -> LiteResult<u64> {
        let cell = home.alloc(8)?;
        home.fabric().mem(home.node()).write(cell, &[0u8; 8])?;
        Ok(cell)
    }

    /// A party's view of the barrier at `cell` on node `home`.
    pub fn new(dp: Arc<dyn DataPath>, home: NodeId, cell: u64, parties: u64) -> LiteResult<Self> {
        let spin = dp.alloc(8)?;
        Ok(DataPathBarrier {
            dp,
            home,
            cell,
            parties,
            spin,
        })
    }

    /// Joins barrier `seq` (0, 1, 2, … over the life of the cell) and
    /// blocks until all parties have.
    pub fn wait(&self, ctx: &mut Ctx, seq: u64) -> LiteResult<()> {
        let target = (seq + 1) * self.parties;
        self.dp.post(
            ctx,
            Priority::High,
            &Op::FetchAdd {
                node: self.home,
                addr: self.cell,
                delta: 1,
            },
        )?;
        let poll = Op::read(
            self.home,
            self.cell,
            vec![Chunk {
                addr: self.spin,
                len: 8,
            }],
            8,
        );
        loop {
            let comp = self.dp.post(ctx, Priority::High, &poll)?;
            ctx.wait_until(comp.stamp);
            let mut b = [0u8; 8];
            self.dp
                .fabric()
                .mem(self.dp.node())
                .read(self.spin, &mut b)?;
            if u64::from_le_bytes(b) >= target {
                return Ok(());
            }
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------
// Kernel wrappers: counters + delegation to the node's RnicDataPath.
// ---------------------------------------------------------------------

impl LiteKernel {
    /// This node's datapath (available after cluster wiring).
    ///
    /// Panics when wiring never ran; op paths use
    /// [`LiteKernel::try_datapath`] so a half-built kernel fails ops
    /// instead of crashing.
    pub(crate) fn datapath(&self) -> &Arc<RnicDataPath> {
        self.datapath.get().expect("setup complete")
    }

    /// Fallible [`LiteKernel::datapath`] for op paths.
    pub(crate) fn try_datapath(&self) -> LiteResult<&Arc<RnicDataPath>> {
        self.datapath
            .get()
            .ok_or(LiteError::Internal("op posted before cluster wiring"))
    }

    /// RDMA-writes `len` bytes from local physical `src_chunks` to
    /// `(dst_node, dst_addr)`. Returns the completion stamp; the caller
    /// decides whether to block on it (LT_write always does).
    pub(crate) fn rdma_write(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        dst_node: NodeId,
        dst_addr: u64,
        src_chunks: &[Chunk],
        len: usize,
    ) -> LiteResult<Nanos> {
        self.counters.count_write(len as u64);
        let op = Op::write(dst_node, dst_addr, src_chunks.to_vec(), len);
        Ok(self.try_datapath()?.post(ctx, prio, &op)?.stamp)
    }

    /// RDMA-reads `len` bytes from `(src_node, src_addr)` into local
    /// physical `dst_chunks`.
    pub(crate) fn rdma_read(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        src_node: NodeId,
        src_addr: u64,
        dst_chunks: &[Chunk],
        len: usize,
    ) -> LiteResult<Nanos> {
        self.counters.count_read(len as u64);
        let op = Op::read(src_node, src_addr, dst_chunks.to_vec(), len);
        Ok(self.try_datapath()?.post(ctx, prio, &op)?.stamp)
    }

    /// Writes a scatter list of `(dst_node, dst_addr, src_chunk)` pieces,
    /// chaining consecutive remote pieces towards the same node into one
    /// doorbell batch. Returns the latest completion stamp.
    pub(crate) fn rdma_write_vec(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        pieces: &[(NodeId, u64, Chunk)],
    ) -> LiteResult<Nanos> {
        let mut last = ctx.now();
        let mut i = 0;
        while i < pieces.len() {
            let node = pieces[i].0;
            let mut j = i + 1;
            while j < pieces.len() && pieces[j].0 == node {
                j += 1;
            }
            let run = &pieces[i..j];
            if run.len() >= 2 && node != self.node {
                let total: u64 = run.iter().map(|(_, _, c)| c.len).sum();
                self.counters.count_writes(run.len() as u64, total);
                let ops: Vec<Op> = run
                    .iter()
                    .map(|(n, addr, c)| Op::write(*n, *addr, vec![*c], c.len as usize))
                    .collect();
                for comp in self.try_datapath()?.post_many(ctx, prio, &ops)? {
                    last = last.max(comp.stamp);
                }
            } else {
                for (n, addr, c) in run {
                    let comp = self.rdma_write(ctx, prio, *n, *addr, &[*c], c.len as usize)?;
                    last = last.max(comp);
                }
            }
            i = j;
        }
        Ok(last)
    }

    /// Posts a list of one-sided writes and atomics in order; runs
    /// towards one remote node share a doorbell chain
    /// ([`DataPath::post_many`]). Completions are returned in op order.
    pub(crate) fn rdma_chain(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        ops: &[Op],
    ) -> LiteResult<Vec<Completion>> {
        for op in ops {
            if let Op::Write { len, .. } = op {
                self.counters.count_write(*len as u64);
            }
        }
        self.try_datapath()?.post_many(ctx, prio, ops)
    }

    /// One-sided fetch-and-add on a u64 anywhere in the cluster.
    pub(crate) fn fetch_add(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        node: NodeId,
        addr: u64,
        delta: u64,
    ) -> LiteResult<u64> {
        let op = Op::FetchAdd { node, addr, delta };
        Ok(self.try_datapath()?.post(ctx, prio, &op)?.value)
    }

    /// One-sided compare-and-swap on a u64 anywhere in the cluster.
    pub(crate) fn cmp_swap(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        node: NodeId,
        addr: u64,
        expect: u64,
        new: u64,
    ) -> LiteResult<u64> {
        let op = Op::CmpSwap {
            node,
            addr,
            expect,
            new,
        };
        Ok(self.try_datapath()?.post(ctx, prio, &op)?.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_descriptor_accessors() {
        let w = Op::write(3, 0x1000, vec![Chunk { addr: 0, len: 64 }], 64);
        assert_eq!(w.dst_node(), 3);
        assert_eq!(w.bytes(), 64);
        let r = Op::read(1, 0x2000, vec![Chunk { addr: 0, len: 9 }], 9);
        assert_eq!(r.dst_node(), 1);
        assert_eq!(r.bytes(), 9);
        let fa = Op::FetchAdd {
            node: 2,
            addr: 8,
            delta: 1,
        };
        assert_eq!((fa.dst_node(), fa.bytes()), (2, 8));
        let cs = Op::CmpSwap {
            node: 0,
            addr: 8,
            expect: 0,
            new: 1,
        };
        assert_eq!((cs.dst_node(), cs.bytes()), (0, 8));
    }

    #[test]
    fn tcp_mesh_moves_bytes_and_counts_time() {
        let paths = TcpDataPath::mesh(2, TcpCostModel::default());
        let dst = paths[1].alloc(4096).unwrap();
        let src = paths[0].alloc(4096).unwrap();
        paths[0]
            .fabric()
            .mem(0)
            .write(src, b"over the socket")
            .unwrap();
        let mut ctx = Ctx::new();
        let comp = paths[0]
            .post(
                &mut ctx,
                Priority::High,
                &Op::write(1, dst, vec![Chunk { addr: src, len: 15 }], 15),
            )
            .unwrap();
        // Kernel TCP write-path: tens of microseconds end to end.
        assert!(comp.stamp > 10_000, "stamp {}", comp.stamp);
        let mut back = [0u8; 15];
        paths[1].fabric().mem(1).read(dst, &mut back).unwrap();
        assert_eq!(&back, b"over the socket");

        // Round trip the same bytes with a read from the other side.
        let hole = paths[0].alloc(64).unwrap();
        let mut c0 = Ctx::new();
        let rc = paths[0]
            .post(
                &mut c0,
                Priority::High,
                &Op::read(
                    1,
                    dst,
                    vec![Chunk {
                        addr: hole,
                        len: 15,
                    }],
                    15,
                ),
            )
            .unwrap();
        assert!(rc.stamp > comp.stamp - comp.stamp / 2);
        let mut got = [0u8; 15];
        paths[0].fabric().mem(0).read(hole, &mut got).unwrap();
        assert_eq!(&got, b"over the socket");

        // Atomics return the previous value and block the caller.
        let cell = paths[1].alloc(64).unwrap();
        let fa = paths[0]
            .post(
                &mut c0,
                Priority::High,
                &Op::FetchAdd {
                    node: 1,
                    addr: cell,
                    delta: 5,
                },
            )
            .unwrap();
        assert_eq!(fa.value, 0);
        assert_eq!(c0.now(), fa.stamp);
        let cs = paths[0]
            .post(
                &mut c0,
                Priority::High,
                &Op::CmpSwap {
                    node: 1,
                    addr: cell,
                    expect: 5,
                    new: 9,
                },
            )
            .unwrap();
        assert_eq!(cs.value, 5);
    }
}
