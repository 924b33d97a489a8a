//! The per-node LITE kernel module: composition root.
//!
//! One `LiteKernel` per node owns everything the paper's loadable module
//! owns: the node's physical allocator, the single *global physical MR*
//! (§4.1), K shared RC QPs per peer attached to one shared receive CQ
//! (§6.1), per-peer RPC rings (§5.1), the shared polling thread, the lh
//! tables, master records, and the kernel-internal services (naming,
//! mapping, locks, barriers, memory ops) that the LITE API is built on.
//!
//! This file only holds the struct, construction, and cluster wiring;
//! the behavior lives in focused submodules:
//!
//! * [`datapath`] — op descriptors, the [`datapath::DataPath`] trait,
//!   and the verbs/TCP implementations (one-sided plane + batching).
//! * [`rpc`] — rings, completion slots, reply routing, the poll loop.
//! * [`msg`] — kernel services (naming, mapping, locks, barriers).
//! * [`chunkio`] — gather/scatter between chunk lists and memory.
//! * [`stats`] — hot-path counters and the stats snapshot.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use rnic::qp::{RecvEntry, RecvQueue};
use rnic::{Cq, IbFabric, NodeId};
use simnet::{CpuMeter, Ctx};
use smem::{PhysAllocator, PhysMem};

use crate::config::LiteConfig;
use crate::directory::ClusterDirectory;
use crate::error::{LiteError, LiteResult};
use crate::mm::MemManager;
use crate::observe::{self, Observability, QosReport, StatsReport};
use crate::qos::{QosConfig, QosState};
use crate::ring::{ClientRing, ServerRing};
use crate::shard::ShardedMap;

pub(crate) mod chunkio;
pub mod datapath;
mod msg;
mod rpc;
mod stats;

pub use rpc::Incoming;
pub use stats::KernelStats;

pub(crate) use msg::{byte_to_perm, perm_to_byte};
pub(crate) use rpc::ReplyRoute;

use datapath::RnicDataPath;
use msg::{BarrierState, LockState, MasterTable};
use rpc::{CallSlot, RpcQueue};
use stats::KernelCounters;

// ---------------------------------------------------------------------
// Kernel-internal RPC function ids (< USER_FUNC_MIN).
// ---------------------------------------------------------------------

/// One-way messaging (LT_send / LT_recv).
pub const FN_MSG: u8 = 1;
pub(crate) const FN_MALLOC: u8 = 2;
pub(crate) const FN_FREE_CHUNKS: u8 = 3;
pub(crate) const FN_INVALIDATE: u8 = 4;
pub(crate) const FN_REGNAME: u8 = 5;
pub(crate) const FN_QUERYNAME: u8 = 6;
pub(crate) const FN_MAP: u8 = 7;
pub(crate) const FN_UNMAP: u8 = 8;
pub(crate) const FN_MEMSET: u8 = 9;
pub(crate) const FN_MEMCPY: u8 = 10;
pub(crate) const FN_LOCK: u8 = 11;
pub(crate) const FN_BARRIER: u8 = 12;
pub(crate) const FN_TAKE_RECORD: u8 = 13;
pub(crate) const FN_GRANT: u8 = 14;
pub(crate) const FN_UNREGNAME: u8 = 15;
/// Asks a node's memory manager to evict a chunk of one of its LMRs.
pub(crate) const FN_EVICT: u8 = 16;
/// Asks a node's memory manager to fetch an evicted LMR back home.
pub(crate) const FN_FETCH_BACK: u8 = 17;
/// First function id available to applications.
pub const USER_FUNC_MIN: u8 = 18;

/// The cluster-manager node (name registry; §3.3's management service).
pub const MANAGER_NODE: NodeId = 0;

/// Number of pre-allocated lock cells per node.
const LOCK_CELLS: u64 = 4_096;

// ---------------------------------------------------------------------
// The kernel proper.
// ---------------------------------------------------------------------

/// The LITE kernel module instance on one node.
pub struct LiteKernel {
    pub(crate) node: NodeId,
    pub(crate) config: LiteConfig,
    pub(crate) fabric: Arc<IbFabric>,
    pub(crate) alloc: Arc<Mutex<PhysAllocator>>,
    global_mr: rnic::Mr,
    datapath: OnceLock<Arc<RnicDataPath>>,
    /// Cluster membership directory (rkeys, head sinks, peer kernels).
    dir: OnceLock<Arc<ClusterDirectory>>,
    pub(crate) shared_recv_cq: Arc<Cq>,
    shared_send_cq: Arc<Cq>,
    shared_rq: Arc<RecvQueue>,
    /// Client-side ring views, indexed by server node. Slots fill lazily
    /// on the first RPC towards a peer (under the directory's connect
    /// lock); the `RwLock` read on the fast path is uncontended.
    client_rings: RwLock<Vec<Option<Arc<ClientRing>>>>,
    /// Server-side ring state, indexed by client node; filled lazily by
    /// the *client's* `ensure_ring`.
    server_rings: RwLock<Vec<Option<Arc<ServerRing>>>>,
    /// This node's 64-byte head-update sink cell.
    head_sink: u64,
    /// Base of the lock-cell array.
    lock_cells: u64,
    next_lock: AtomicU64,
    slots: ShardedMap<u32, Arc<CallSlot>>,
    next_slot: AtomicU32,
    queues: ShardedMap<u8, Arc<RpcQueue>>,
    locks: ShardedMap<u64, LockState>,
    barriers: ShardedMap<u64, BarrierState>,
    masters: MasterTable,
    names: ShardedMap<String, u32>,
    lhs: ShardedMap<(u32, u64), crate::lmr::LhEntry>,
    next_pid: AtomicU32,
    next_lh: AtomicU64,
    pub(crate) qos: Arc<QosState>,
    /// Memory-tiering manager (budget, residency, eviction policy).
    mm: Arc<MemManager>,
    mm_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    shutdown: AtomicBool,
    poller: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// CPU meter of the shared polling thread.
    pub poller_cpu: Arc<CpuMeter>,
    counters: KernelCounters,
    /// Sequence half of the cluster-unique synchronization tokens
    /// (enqueue / release identities on the lock fault paths).
    next_sync_token: AtomicU64,
    /// Host-wall nanoseconds this node's `finish_setup` took (gauge).
    boot_host_ns: AtomicU64,
    /// Host-wall nanoseconds spent wiring rings lazily (gauge; QP
    /// wiring time is tracked by the datapath).
    mesh_host_ns: AtomicU64,
}

impl LiteKernel {
    /// Creates the kernel for `node`; the cluster finishes wiring with
    /// [`LiteKernel::finish_setup`].
    pub(crate) fn new(
        node: NodeId,
        config: LiteConfig,
        qos_cfg: QosConfig,
        fabric: Arc<IbFabric>,
    ) -> LiteResult<Self> {
        let mem_size = fabric.mem(node).size();
        let alloc = Arc::new(Mutex::new(PhysAllocator::new(0, mem_size)));
        let mut ctx = Ctx::new();
        let nic = fabric.nic(node);
        // The heart of §4.1: one MR covering all physical memory,
        // registered with physical addresses. With the ablation switch
        // off, this MR is still created but LMR traffic goes through
        // per-LMR virtual MRs instead (see `ablation` tests).
        let global_mr = nic.register_phys_mr(&mut ctx, 0, mem_size, rnic::Access::RW)?;
        let (head_sink, lock_cells) = {
            let mut a = alloc.lock();
            (a.alloc(64)?, a.alloc(LOCK_CELLS * 8)?)
        };
        let link = fabric.cost().link_bytes_per_sec;
        let mm = Arc::new(MemManager::new(node, fabric.num_nodes(), &config));
        let shards = config.kernel_shards;
        let capacity = fabric.num_nodes();
        let kernel = LiteKernel {
            node,
            config,
            fabric,
            alloc,
            global_mr,
            datapath: OnceLock::new(),
            dir: OnceLock::new(),
            shared_recv_cq: Arc::new(Cq::new()),
            shared_send_cq: Arc::new(Cq::new()),
            shared_rq: Arc::new(RecvQueue::new()),
            client_rings: RwLock::new(vec![None; capacity]),
            server_rings: RwLock::new(vec![None; capacity]),
            head_sink,
            lock_cells,
            next_lock: AtomicU64::new(0),
            slots: ShardedMap::new(shards),
            next_slot: AtomicU32::new(1),
            queues: ShardedMap::new(shards),
            locks: ShardedMap::new(shards),
            barriers: ShardedMap::new(shards),
            masters: MasterTable::new(shards),
            names: ShardedMap::new(shards),
            lhs: ShardedMap::new(shards),
            next_pid: AtomicU32::new(1),
            next_lh: AtomicU64::new(1),
            qos: Arc::new(QosState::new(qos_cfg, link)),
            mm,
            mm_thread: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            poller: Mutex::new(None),
            poller_cpu: Arc::new(CpuMeter::new()),
            counters: KernelCounters::new(),
            next_sync_token: AtomicU64::new(1),
            boot_host_ns: AtomicU64::new(0),
            mesh_host_ns: AtomicU64::new(0),
        };
        // FN_MSG delivers through a queue like user functions do.
        kernel.queues.insert(FN_MSG, Arc::new(RpcQueue::new()));
        Ok(kernel)
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The LITE configuration.
    pub fn config(&self) -> &LiteConfig {
        &self.config
    }

    /// The fabric under this kernel.
    pub fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    /// QoS control surface.
    pub fn qos(&self) -> &QosState {
        &self.qos
    }

    /// Shared handle to this node's QoS state (cluster wiring).
    pub(crate) fn qos_arc(&self) -> Arc<QosState> {
        Arc::clone(&self.qos)
    }

    /// The node's memory-tiering manager.
    pub fn mm(&self) -> &Arc<MemManager> {
        &self.mm
    }

    /// Shared handle to this node's memory manager (cluster wiring).
    pub(crate) fn mm_arc(&self) -> Arc<MemManager> {
        Arc::clone(&self.mm)
    }

    /// Memory-tiering gauges.
    pub fn mm_stats(&self) -> crate::mm::MmReport {
        self.mm.stats()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> KernelStats {
        let mut s = match self.datapath.get() {
            Some(dp) => {
                let mut s = self
                    .counters
                    .snapshot(dp.num_qps(), Some(dp.retry_counters()));
                s.mesh_ns = self.mesh_host_ns.load(Ordering::Relaxed) + dp.mesh_host_ns();
                s.lazy_connects = dp.lazy_connects();
                s
            }
            None => self.counters.snapshot(0, None),
        };
        s.boot_ns = self.boot_host_ns.load(Ordering::Relaxed);
        s
    }

    /// Structured observability report: per-class × priority latency
    /// percentiles, per-peer gauges and liveness, trace-ring occupancy,
    /// and QoS state. Before cluster wiring the report is empty (no
    /// classes, no peers, zero-capacity ring).
    pub fn lt_stats(&self) -> StatsReport {
        let qos = QosReport {
            mode: self.qos.mode(),
            rtt_ewma_ns: self.qos.rtt_estimate(),
        };
        match self.datapath.get() {
            Some(dp) => observe::build_report(
                self.node,
                self.stats(),
                dp.observer(),
                |peer| !dp.peer_is_dead(peer),
                qos,
                self.mm.stats(),
            ),
            None => StatsReport {
                node: self.node,
                kernel: self.stats(),
                classes: Vec::new(),
                peers: Vec::new(),
                trace: Default::default(),
                qos,
                mm: self.mm.stats(),
                sample_rate: self.config.stats_sample_rate,
            },
        }
    }

    /// The node's observability state (op traces + histograms), once the
    /// cluster has wired the datapath.
    pub fn observe(&self) -> Option<&Arc<Observability>> {
        self.datapath.get().map(|dp| dp.observer())
    }

    /// A cluster-unique synchronization token: node id in the top bits,
    /// a local sequence below. One token names one enqueue attempt or
    /// one release, which is what makes lock fault-path recovery
    /// (idempotent grants, definite aborts) possible.
    pub(crate) fn next_sync_token(&self) -> u64 {
        ((self.node as u64) << 40) | self.next_sync_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts a swallowed cleanup failure (allocation rollback, handle
    /// teardown) and emits a Mgmt/Failed trace event so leaks are
    /// observable instead of silent.
    pub(crate) fn note_cleanup_failure(&self, peer: NodeId, stamp: simnet::Nanos) {
        self.counters.count_cleanup_failure();
        if let Some(obs) = self.observe() {
            let id = obs.next_op_id();
            obs.trace(
                id,
                crate::observe::OpClass::Mgmt,
                crate::observe::EventKind::Failed,
                crate::qos::Priority::Low,
                peer,
                stamp,
            );
        }
    }

    /// Counts a lock-word unwind (a failed acquire rolled its
    /// `fetch_add` back so the lock word stays consistent).
    pub(crate) fn note_lock_unwind(&self) {
        self.counters.count_lock_unwind();
    }

    /// Free bytes in this node's kernel scratch allocator (staging
    /// cells, reply buffers, ring space). A leak detector for tests:
    /// any `lt_*` call that returns — successfully or not — must leave
    /// this balance where it found it.
    pub fn scratch_free_bytes(&self) -> u64 {
        self.alloc.lock().free_bytes()
    }

    /// Counts a synchronization-state leak: a lock fault path that could
    /// not restore consistency (abort unreachable, unwind failed, or a
    /// release grant undeliverable). Also traced as Mgmt/Failed.
    pub(crate) fn note_sync_leak(&self, peer: NodeId, stamp: simnet::Nanos) {
        self.counters.count_sync_leak();
        if let Some(obs) = self.observe() {
            let id = obs.next_op_id();
            obs.trace(
                id,
                crate::observe::OpClass::Mgmt,
                crate::observe::EventKind::Failed,
                crate::qos::Priority::Low,
                peer,
                stamp,
            );
        }
    }

    fn mem(&self) -> &Arc<PhysMem> {
        self.fabric.mem(self.node)
    }

    // ------------------------------------------------------------------
    // Cluster wiring
    // ------------------------------------------------------------------

    /// Second-phase setup, run once per node under the directory's
    /// connect lock: builds the datapath (empty QP pools — peers are
    /// wired lazily on first use), wires the self-loopback RPC ring,
    /// pre-posts receive credits, and starts the poller. O(1) per node,
    /// which is what makes cluster boot O(N) instead of the old O(N²·K)
    /// full-mesh bring-up. Running it twice (or failing to spawn the
    /// poller) is reported as [`LiteError::Internal`] instead of
    /// panicking, so a misused builder degrades to a failed start.
    pub(crate) fn finish_setup(self: &Arc<Self>, dir: &Arc<ClusterDirectory>) -> LiteResult<()> {
        let boot_start = std::time::Instant::now();
        let once = LiteError::Internal("cluster setup ran twice on one node");
        self.dir.set(Arc::clone(dir)).map_err(|_| once.clone())?;
        self.mm.set_directory(Arc::clone(dir));
        let dp = Arc::new(RnicDataPath::new(
            Arc::clone(&self.fabric),
            self.node,
            &self.config,
            self.global_mr.lkey(),
            Arc::clone(&self.qos),
            Arc::clone(&self.alloc),
            Arc::clone(dir),
            Arc::downgrade(self),
        ));
        self.datapath.set(dp).map_err(|_| once)?;
        // The self-loopback ring is wired eagerly: kernel services RPC
        // their own node (manager calls on node 0, local lock homes),
        // and a node is always a member of itself.
        let base = self.alloc_ring(self.node)?;
        let size = self.config.rpc_ring_bytes;
        self.server_rings.write()[self.node] = Some(Arc::new(ServerRing::new(base, size)?));
        self.client_rings.write()[self.node] = Some(Arc::new(ClientRing::new(base, size)?));
        // Pre-post receive credits for write-imm (the paper's background
        // IMM-buffer posting).
        for _ in 0..self.config.recv_credits {
            self.shared_rq.post(RecvEntry {
                wr_id: 0,
                sge: None,
            });
        }
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("lite-poller-{}", self.node))
            .spawn(move || me.poll_loop())
            .map_err(|_| LiteError::Internal("could not spawn the polling thread"))?;
        *self.poller.lock() = Some(handle);
        // The tiering manager only runs when it has work — a budget to
        // enforce or lazy pins to reap — so default clusters (neither)
        // get no extra thread and byte-identical behavior.
        if self.mm.tracking() {
            let me = Arc::clone(self);
            let mm_handle = std::thread::Builder::new()
                .name(format!("lite-mm-{}", self.node))
                .spawn(move || crate::mm::run(me))
                .map_err(|_| LiteError::Internal("could not spawn the memory manager"))?;
            *self.mm_thread.lock() = Some(mm_handle);
        }
        let ns = boot_start.elapsed().as_nanos() as u64;
        self.boot_host_ns.store(ns, Ordering::Relaxed);
        dir.note_boot(ns);
        Ok(())
    }

    /// The cluster directory, once this node has joined.
    pub(crate) fn try_dir(&self) -> LiteResult<&Arc<ClusterDirectory>> {
        self.dir
            .get()
            .ok_or(LiteError::Internal("op posted before cluster wiring"))
    }

    /// Installs the server-side ring state for messages from `client`.
    /// Called by the *client's* `ensure_ring` (under the directory's
    /// connect lock) before it builds its own view, so a request can
    /// never arrive at a server without ring state.
    pub(crate) fn install_server_ring(&self, client: NodeId, ring: Arc<ServerRing>) {
        if let Some(slot) = self.server_rings.write().get_mut(client) {
            *slot = Some(ring);
        }
    }

    /// Adds host-wall nanoseconds to the lazy ring-wiring gauge.
    pub(crate) fn note_mesh_ns(&self, ns: u64) {
        self.mesh_host_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Gives the cluster what it needs to wire this node: the shared CQs
    /// and receive queue for QP creation.
    pub(crate) fn shared_queues(&self) -> (Arc<Cq>, Arc<Cq>, Arc<RecvQueue>) {
        (
            Arc::clone(&self.shared_send_cq),
            Arc::clone(&self.shared_recv_cq),
            Arc::clone(&self.shared_rq),
        )
    }

    /// This node's head-sink physical address (for the cluster exchange).
    pub(crate) fn head_sink_addr(&self) -> u64 {
        self.head_sink
    }

    /// This node's global rkey (for the cluster exchange).
    pub(crate) fn global_rkey(&self) -> u32 {
        self.global_mr.rkey()
    }

    /// Allocates the server-side ring for messages from `client`.
    pub(crate) fn alloc_ring(&self, _client: NodeId) -> LiteResult<u64> {
        Ok(self.alloc.lock().alloc(self.config.rpc_ring_bytes)?)
    }

    /// Begins shutdown: stops the memory manager (it issues kernel calls
    /// of its own, so it must quiesce while the pollers still run), then
    /// the poller, then closes CQs.
    pub(crate) fn stop(&self) {
        self.mm.begin_shutdown();
        if let Some(h) = self.mm_thread.lock().take() {
            let _ = h.join();
        }
        self.shutdown.store(true, Ordering::Release);
        self.shared_recv_cq.close();
        if let Some(h) = self.poller.lock().take() {
            let _ = h.join();
        }
    }
}
