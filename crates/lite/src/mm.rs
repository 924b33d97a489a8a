//! `lite::mm` — per-node memory tiering for LMR chunks.
//!
//! The paper's §4 indirection argument is that opaque `lh` handles free
//! the kernel to move, evict, and swap LMR chunks without application
//! involvement. This module is that freedom exercised: a per-node memory
//! manager that enforces a physical-memory budget
//! ([`crate::LiteConfig::mem_budget_bytes`]), tracks chunk temperature
//! with an LRU ([`simnet::Lru`]), evicts cold chunks of locally-mastered
//! LMRs to swap nodes over the existing datapath, and transparently
//! redirects or faults accesses that land on evicted chunks (NP-RDMA's
//! on-demand materialization + RDMAbox's remote paging, folded into
//! LITE).
//!
//! # Residency state machine
//!
//! Every tracked *segment* (one physically-consecutive piece of an LMR,
//! initially 1:1 with its allocation chunks) is in one of five states:
//!
//! ```text
//!             evict: drain pins, copy out, update record
//!   Resident ──────────▶ Evicting ──────────▶ Remote
//!    ▲ ▲  │                  ▲                  │
//!    │ │  │ bg unpin (cold,  │ evict            │
//!    │ │  │  lazy mode)      │                  │
//!    │ │  ▼                  │                  │
//!    │ └─ Unpinned ──────────┘                  │
//!    │   first-touch fault (pages pin on pin()) │
//!    └────────── FetchingBack ◀─────────────────┘
//!          fetch-back: drain pins, copy home, update record
//! ```
//!
//! `Unpinned` is the pin-free registration tier
//! ([`crate::LiteConfig::lazy_pinning`], NP-RDMA's first-touch model):
//! the bytes are home but their pages hold no pin — registration was
//! O(1). The first access faults the touched pages in (the datapath
//! charges the NIC page-fault cost) and promotes the segment to
//! `Resident`; the sweeper demotes cold, pin-free segments back to
//! `Unpinned`, releasing their page pins. Eviction may start from either
//! tier — `Unpinned` segments are the cheapest victims.
//!
//! `Evicting`/`FetchingBack` fence new accesses (pins wait); in-flight
//! accesses hold a pin that the migrator drains before moving bytes.
//! Because one-sided op effects apply synchronously during `post()`, a
//! pin held across stage+post is a sound fence. A migrated-away range
//! leaves a `Moved` tombstone in the address map, so accesses through a
//! stale cached location observe [`crate::LiteError::Relocated`] and the
//! API layer re-fetches the mapping from the master and retries.
//!
//! Budget is policy, not capacity: allocation never fails because of the
//! budget, so forward progress is guaranteed even when eviction cannot
//! keep up (swap nodes dead, pins never draining).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rnic::NodeId;
use simnet::{Ctx, Lru};
use smem::Chunk;

use crate::api::LiteHandle;
use crate::config::LiteConfig;
use crate::error::{LiteError, LiteResult};
use crate::kernel::LiteKernel;
use crate::lmr::{LmrId, Location};
use crate::observe::{ConcurrentHistogram, LatencySummary};

/// How long a migrator waits for in-flight pins to drain before giving
/// up on this attempt (the segment reverts to its previous state).
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

/// How long an access waits on an `Evicting`/`FetchingBack` segment
/// before reporting `Relocated` and letting the API refresh-retry.
const PIN_DEADLINE: Duration = Duration::from_secs(2);

/// Track at most this many segments in the recency list; beyond it the
/// LRU sheds recency info (victim selection falls back to map order).
const LRU_CAPACITY: usize = 65_536;

/// Remote map-faults on an evicted LMR after which the manager pulls its
/// chunks home (fetch-back), budget permitting.
const FETCH_BACK_FAULTS: u32 = 3;

/// Residency of one tracked segment, from its master node's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Bytes live on the master node.
    Resident,
    /// An eviction is draining pins and copying out.
    Evicting,
    /// Bytes live on a swap node (the segment's current host).
    Remote,
    /// A fetch-back is draining pins and copying home.
    FetchingBack,
    /// Bytes are home but their pages hold no pin (lazy mode): the next
    /// access faults them in; the background sweeper parks cold segments
    /// here.
    Unpinned,
}

const R_RESIDENT: u8 = 0;
const R_EVICTING: u8 = 1;
const R_REMOTE: u8 = 2;
const R_FETCHING: u8 = 3;
const R_UNPINNED: u8 = 4;

fn residency_of(v: u8) -> Residency {
    match v {
        R_EVICTING => Residency::Evicting,
        R_REMOTE => Residency::Remote,
        R_FETCHING => Residency::FetchingBack,
        R_UNPINNED => Residency::Unpinned,
        _ => Residency::Resident,
    }
}

/// Logical identity of a segment: which LMR, at which byte offset.
/// Stable across migration — the physical address changes, the key does
/// not, which is what keeps linearizability histories joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegKey {
    /// Owning LMR.
    pub id: LmrId,
    /// Byte offset of the segment within the LMR.
    pub off: u64,
}

/// One tracked physically-consecutive piece of an LMR. Shared (`Arc`)
/// between the master node's logical table and whichever node currently
/// hosts the bytes, so pins taken at the host fence the master's
/// migrations too.
pub struct Segment {
    key: SegKey,
    len: u64,
    /// Physical address of the bytes on the current host.
    addr: AtomicU64,
    /// Node the bytes currently live on.
    host: AtomicUsize,
    residency: AtomicU8,
    /// In-flight accesses through this segment (API-layer fencing).
    pins: AtomicU32,
    /// Set when the owning LMR is unregistered (free / move / record
    /// takeover) or its storage freed while a migration may be in
    /// flight: the migrator re-checks it under the state lock and rolls
    /// back instead of committing segments of a dead LMR.
    dead: AtomicBool,
    /// Sweep epoch of the last access (background-unpinner input: a
    /// segment untouched for a full epoch is cold enough to unpin).
    last_touch: AtomicU64,
}

impl Segment {
    fn new(key: SegKey, len: u64, addr: u64, host: NodeId, residency: u8) -> Self {
        Segment {
            key,
            len,
            addr: AtomicU64::new(addr),
            host: AtomicUsize::new(host),
            residency: AtomicU8::new(residency),
            pins: AtomicU32::new(0),
            dead: AtomicBool::new(false),
            last_touch: AtomicU64::new(0),
        }
    }

    /// Logical identity.
    pub fn key(&self) -> SegKey {
        self.key
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment is empty (never true for tracked segments).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current residency.
    pub fn residency(&self) -> Residency {
        residency_of(self.residency.load(Ordering::Acquire))
    }
}

/// A held pin: the segment cannot migrate until this drops.
pub struct PinGuard {
    seg: Arc<Segment>,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.seg.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Outcome of fencing one physical access range.
pub enum PinOutcome {
    /// The range is not managed by this node's manager — proceed.
    Untracked,
    /// Pinned; hold the guard across the access.
    Pinned(PinGuard),
    /// The range was migrated (tombstone), is mid-migration past the
    /// wait deadline, or belongs to a different LMR than expected —
    /// the caller's cached location is stale.
    Relocated,
}

/// One entry of the per-node physical address map.
enum Slot {
    /// A tracked segment whose bytes live here.
    Entry(Arc<Segment>),
    /// Bytes moved away; the range was freed. Kept as a tombstone so
    /// stale cached locations fault instead of touching recycled memory;
    /// scrubbed when the range is re-registered or re-freed.
    Moved(u64),
}

impl Slot {
    fn len(&self) -> u64 {
        match self {
            Slot::Entry(s) => s.len,
            Slot::Moved(len) => *len,
        }
    }
}

/// An asynchronous request to the manager thread.
#[derive(Debug, Clone, Copy)]
pub enum MmRequest {
    /// Evict the segment of LMR `idx` containing byte `off`
    /// (`off == u64::MAX`: every resident segment of the LMR).
    Evict {
        /// Local master-table index.
        idx: u32,
        /// Byte offset within the LMR.
        off: u64,
    },
    /// Fetch every remote segment of LMR `idx` back home.
    FetchBack {
        /// Local master-table index.
        idx: u32,
    },
}

struct MmState {
    /// Local physical space: segments hosted here (ours or foreign) and
    /// tombstones of ranges migrated away.
    by_addr: BTreeMap<u64, Slot>,
    /// Logical segments of locally-mastered LMRs (resident or remote).
    segs: HashMap<SegKey, Arc<Segment>>,
    /// Recency over locally-resident owned segments.
    lru: Lru<SegKey, ()>,
    /// Remote map-faults per locally-mastered LMR (fetch-back trigger).
    faults: HashMap<u32, u32>,
    resident_bytes: u64,
    evicted_bytes: u64,
    hosted_bytes: u64,
}

impl MmState {
    /// The slot covering `addr`, with its start address.
    fn covering(&self, addr: u64) -> Option<(u64, &Slot)> {
        let (&start, slot) = self.by_addr.range(..=addr).next_back()?;
        (addr < start + slot.len()).then_some((start, slot))
    }

    /// Removes tombstones overlapping `[addr, addr+len)` so a fresh
    /// registration owns the range (ABA closure: a tombstone only
    /// survives until something tracked reclaims the space).
    fn scrub_moved(&mut self, addr: u64, len: u64) {
        let doomed: Vec<u64> = self
            .by_addr
            .range(..addr + len)
            .rev()
            .take_while(|(&s, slot)| s + slot.len() > addr)
            .filter(|(_, slot)| matches!(slot, Slot::Moved(_)))
            .map(|(&s, _)| s)
            .collect();
        for s in doomed {
            self.by_addr.remove(&s);
        }
    }
}

/// The per-node memory manager. Created disabled (budget 0) unless the
/// config sets a budget; a disabled manager tracks nothing and its hot
/// path hooks return immediately — the ablation baseline.
pub struct MemManager {
    node: NodeId,
    nodes: usize,
    budget: u64,
    /// Pin-free registration ([`crate::LiteConfig::lazy_pinning`]).
    lazy: bool,
    next_swap: AtomicUsize,
    state: Mutex<MmState>,
    /// Peer managers via cluster membership (normal wiring).
    dir: OnceLock<Arc<crate::directory::ClusterDirectory>>,
    /// Peer managers as an explicit vector (standalone tests).
    cluster: OnceLock<Vec<Arc<MemManager>>>,
    queue: StdMutex<VecDeque<MmRequest>>,
    wake: Condvar,
    shutdown: AtomicBool,
    evictions: AtomicU64,
    fetch_backs: AtomicU64,
    redirects: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    fetch_back_lat: ConcurrentHistogram,
    /// Page-granular pin accounting for tracked ranges on this node.
    pins: smem::PinTable,
    /// Sweep epoch: bumped once per manager sweep; cold detection input.
    epoch: AtomicU64,
    first_touch_faults: AtomicU64,
    bg_unpins: AtomicU64,
    /// Registration (`lt_malloc`/`lt_map`) latency, virtual ns.
    reg_lat: ConcurrentHistogram,
}

impl MemManager {
    /// Creates the manager for `node` in a cluster of `nodes` nodes.
    pub(crate) fn new(node: NodeId, nodes: usize, config: &LiteConfig) -> Self {
        MemManager {
            node,
            nodes,
            budget: config.mem_budget_bytes,
            lazy: config.lazy_pinning,
            next_swap: AtomicUsize::new(0),
            state: Mutex::new(MmState {
                by_addr: BTreeMap::new(),
                segs: HashMap::new(),
                lru: Lru::new(LRU_CAPACITY),
                faults: HashMap::new(),
                resident_bytes: 0,
                evicted_bytes: 0,
                hosted_bytes: 0,
            }),
            dir: OnceLock::new(),
            cluster: OnceLock::new(),
            queue: StdMutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            evictions: AtomicU64::new(0),
            fetch_backs: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fetch_back_lat: ConcurrentHistogram::new(),
            pins: smem::PinTable::new(),
            epoch: AtomicU64::new(1),
            first_touch_faults: AtomicU64::new(0),
            bg_unpins: AtomicU64::new(0),
            reg_lat: ConcurrentHistogram::new(),
        }
    }

    /// Whether tiering is on (a budget was configured).
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Whether this manager tracks segments at all: tiering (budget) or
    /// pin-free registration (lazy) — either needs the residency machine
    /// and the manager thread.
    pub fn tracking(&self) -> bool {
        self.budget > 0 || self.lazy
    }

    /// Whether pin-free (lazy) registration is on.
    pub fn lazy(&self) -> bool {
        self.lazy
    }

    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The configured budget in bytes (0 = disabled).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Wires peer-manager lookup through the cluster directory (normal
    /// boot path; resolves late joiners too).
    pub(crate) fn set_directory(&self, dir: Arc<crate::directory::ClusterDirectory>) {
        let _ = self.dir.set(dir);
    }

    /// Wires peer-manager lookup through an explicit vector (standalone
    /// unit tests that run managers without kernels).
    #[cfg(test)]
    pub(crate) fn set_cluster(&self, all: Vec<Arc<MemManager>>) {
        let _ = self.cluster.set(all);
    }

    pub(crate) fn peer(&self, node: NodeId) -> Option<&Arc<MemManager>> {
        if let Some(dir) = self.dir.get() {
            return dir.mm(node);
        }
        self.cluster.get()?.get(node)
    }

    // ------------------------------------------------------------------
    // Registration (master-record lifecycle hooks)
    // ------------------------------------------------------------------

    /// Tracks the locally-resident extents of a freshly created
    /// locally-mastered LMR. Remote extents (cross-node LMRs) stay
    /// untracked, exactly as before this module existed.
    pub(crate) fn register(&self, id: LmrId, location: &Location) {
        if !self.tracking() || id.node as NodeId != self.node {
            return;
        }
        // Lazy mode registers pin-free: segments start Unpinned and the
        // datapath faults their pages in on first touch. Eager mode pins
        // the whole extent now (the Figure 8 register-time cost).
        let residency = if self.lazy { R_UNPINNED } else { R_RESIDENT };
        let epoch = self.current_epoch();
        let mut st = self.state.lock();
        let mut off = 0u64;
        for (node, c) in &location.extents {
            if *node == self.node && c.len > 0 {
                let key = SegKey { id, off };
                let seg = Arc::new(Segment::new(key, c.len, c.addr, self.node, residency));
                seg.last_touch.store(epoch, Ordering::Relaxed);
                if !self.lazy {
                    self.pins.fault_in(c.addr, c.len);
                }
                st.scrub_moved(c.addr, c.len);
                st.by_addr.insert(c.addr, Slot::Entry(Arc::clone(&seg)));
                st.segs.insert(key, seg);
                st.lru.insert(key, ());
                st.resident_bytes += c.len;
            }
            off += c.len;
        }
    }

    /// Drops every segment of LMR `idx` (free / move / record takeover).
    /// Hosted copies at other nodes are cleaned up by the `FN_FREE_CHUNKS`
    /// traffic that accompanies the free/move.
    pub(crate) fn unregister_lmr(&self, idx: u32) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        let keys: Vec<SegKey> = st
            .segs
            .keys()
            .filter(|k| k.id.idx == idx && k.id.node as NodeId == self.node)
            .copied()
            .collect();
        for key in keys {
            let Some(seg) = st.segs.remove(&key) else {
                continue;
            };
            seg.dead.store(true, Ordering::Release);
            st.lru.remove(&key);
            if seg.host.load(Ordering::Acquire) == self.node {
                let addr = seg.addr.load(Ordering::Acquire);
                if matches!(st.by_addr.get(&addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, &seg)) {
                    st.by_addr.remove(&addr);
                }
                self.pins.unpin_all(addr, seg.len);
                st.resident_bytes = st.resident_bytes.saturating_sub(seg.len);
            } else {
                st.evicted_bytes = st.evicted_bytes.saturating_sub(seg.len);
            }
        }
        st.faults.remove(&idx);
    }

    /// A chunk at `addr` was freed through the allocator service. Drops
    /// the segment that covered it but leaves a `Moved` tombstone in its
    /// place (and keeps an existing one): the freed range is exactly
    /// where a stale mapper view may still point, and removing the slot
    /// would let that view pin `Untracked` — no fence at all — and post
    /// into recycled memory. The tombstone bounces it `Relocated` into a
    /// refresh instead, and is scrubbed when the range is next handed
    /// out (`on_alloc` / `register` / the migration stages).
    pub(crate) fn on_free(&self, addr: u64) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        let Some(Slot::Entry(seg)) = st.by_addr.get(&addr) else {
            return;
        };
        let seg = Arc::clone(seg);
        st.by_addr.insert(addr, Slot::Moved(seg.len));
        seg.dead.store(true, Ordering::Release);
        self.pins.unpin_all(addr, seg.len);
        if seg.key.id.node as NodeId == self.node {
            let key = seg.key;
            // A staged landing (mid-migration) lives in by_addr only:
            // it never counted toward resident_bytes and must not
            // decrement it — or evict a committed segment that happens
            // to share its key.
            if matches!(st.segs.get(&key), Some(e) if Arc::ptr_eq(e, &seg)) {
                st.resident_bytes = st.resident_bytes.saturating_sub(seg.len);
                st.segs.remove(&key);
                st.lru.remove(&key);
            }
        } else {
            st.hosted_bytes = st.hosted_bytes.saturating_sub(seg.len);
        }
    }

    /// Chunks at these addresses were just handed out by the local
    /// allocator service (`FN_MALLOC`): scrub any `Moved` tombstones
    /// they cover, since the range now has a fresh owner (ABA closure
    /// for ranges that are never `register()`ed here, e.g. cross-node
    /// LMR storage).
    pub(crate) fn on_alloc(&self, chunks: &[Chunk]) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        for c in chunks {
            st.scrub_moved(c.addr, c.len);
        }
    }

    // ------------------------------------------------------------------
    // Hot-path hooks (datapath / API)
    // ------------------------------------------------------------------

    /// Records one access at `addr`: promotes the segment in the LRU and
    /// stamps it warm for the background unpinner.
    pub(crate) fn touch(&self, addr: u64) {
        if !self.tracking() {
            return;
        }
        let mut st = self.state.lock();
        let Some((_, slot)) = st.covering(addr) else {
            return;
        };
        let Slot::Entry(seg) = slot else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let seg = Arc::clone(seg);
        seg.last_touch
            .store(self.current_epoch(), Ordering::Relaxed);
        if seg.key.id.node as NodeId == self.node {
            st.lru.touch(&seg.key);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fences an access to `[addr, addr+len)` that the caller believes
    /// belongs to LMR `id` at byte offset `lmr_off`. Verifying the
    /// identity closes the ABA window where the range was freed and
    /// recycled for a different tracked LMR.
    #[cfg(test)]
    pub(crate) fn pin(&self, addr: u64, len: u64, id: LmrId, lmr_off: u64) -> PinOutcome {
        self.pin_inner(addr, len, Some((id, lmr_off)), true).0
    }

    /// Like [`MemManager::pin`], but also reports how many pages the
    /// access faulted in (lazy mode's first-touch pins), so the caller
    /// can charge the NIC page-fault cost in virtual time.
    pub(crate) fn pin_touch(
        &self,
        addr: u64,
        len: u64,
        id: LmrId,
        lmr_off: u64,
    ) -> (PinOutcome, usize) {
        self.pin_inner(addr, len, Some((id, lmr_off)), true)
    }

    /// Fences a raw physical range (kernel services that operate on raw
    /// addresses, e.g. `FN_MEMSET`): no identity expectation, and no
    /// waiting — these run on the poller, which must never block, so a
    /// mid-migration range answers `Relocated` immediately and the
    /// caller retries after a refresh. Also reports first-touch faults.
    pub(crate) fn pin_raw_nowait(&self, addr: u64, len: u64) -> (PinOutcome, usize) {
        self.pin_inner(addr, len, None, false)
    }

    fn pin_inner(
        &self,
        addr: u64,
        len: u64,
        expect: Option<(LmrId, u64)>,
        wait: bool,
    ) -> (PinOutcome, usize) {
        if !self.tracking() {
            return (PinOutcome::Untracked, 0);
        }
        let deadline = Instant::now() + PIN_DEADLINE;
        loop {
            {
                let st = self.state.lock();
                let Some((start, slot)) = st.covering(addr) else {
                    return (PinOutcome::Untracked, 0);
                };
                let Slot::Entry(seg) = slot else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.redirects.fetch_add(1, Ordering::Relaxed);
                    return (PinOutcome::Relocated, 0);
                };
                if addr + len > start + seg.len {
                    // Straddles out of the tracked range — stale view.
                    self.redirects.fetch_add(1, Ordering::Relaxed);
                    return (PinOutcome::Relocated, 0);
                }
                if let Some((id, lmr_off)) = expect {
                    let actual_off = seg.key.off + (addr - start);
                    if seg.key.id != id || actual_off != lmr_off {
                        self.redirects.fetch_add(1, Ordering::Relaxed);
                        return (PinOutcome::Relocated, 0);
                    }
                }
                match seg.residency.load(Ordering::Acquire) {
                    R_EVICTING | R_FETCHING => { /* wait below, lock released */ }
                    r => {
                        // Lazy mode: fault the touched pages in (only the
                        // ones not yet resident) and promote an Unpinned
                        // segment. Done under the state lock, so the
                        // background unpinner (which also holds it) can
                        // never unpin between fault-in and the pin.
                        let mut faulted = 0;
                        if self.lazy {
                            faulted = self.pins.fault_in(addr, len);
                            if faulted > 0 {
                                self.first_touch_faults
                                    .fetch_add(faulted as u64, Ordering::Relaxed);
                            }
                            if r == R_UNPINNED {
                                seg.residency.store(R_RESIDENT, Ordering::Release);
                            }
                        }
                        seg.last_touch
                            .store(self.current_epoch(), Ordering::Relaxed);
                        seg.pins.fetch_add(1, Ordering::SeqCst);
                        // Our state lock only serializes against claims
                        // on segments WE master. A hosted copy is the
                        // origin's Arc: its evict/fetch-back claim runs
                        // under the origin's lock, so it can land between
                        // the residency read above and the increment —
                        // with its pin drain reading zero in that window
                        // and migrating under a live pin. Publish the pin
                        // first, then re-validate; both sides are SeqCst
                        // RMW-then-load, so at least one observes the
                        // other (see drain_pins).
                        if matches!(
                            seg.residency.load(Ordering::SeqCst),
                            R_EVICTING | R_FETCHING
                        ) {
                            seg.pins.fetch_sub(1, Ordering::AcqRel);
                            // Lost to a claim: wait below, lock released.
                        } else {
                            return (
                                PinOutcome::Pinned(PinGuard {
                                    seg: Arc::clone(seg),
                                }),
                                faulted,
                            );
                        }
                    }
                }
            }
            if !wait || Instant::now() >= deadline {
                self.redirects.fetch_add(1, Ordering::Relaxed);
                return (PinOutcome::Relocated, 0);
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// The logical identity of the byte at `addr`, if tracked: the
    /// owning LMR and the byte's offset within it. Used to key atomic
    /// histories by logical location so they survive migration.
    pub(crate) fn logical_cell(&self, addr: u64) -> Option<(LmrId, u64)> {
        if !self.tracking() {
            return None;
        }
        let st = self.state.lock();
        let (start, slot) = st.covering(addr)?;
        match slot {
            Slot::Entry(seg) => Some((seg.key.id, seg.key.off + (addr - start))),
            Slot::Moved(_) => None,
        }
    }

    /// Counts one remote map-fault on locally-mastered LMR `idx` (a
    /// mapper re-fetched a location with remote extents). Enough faults
    /// trigger a fetch-back on the next sweep.
    pub(crate) fn note_map_fault(&self, idx: u32) {
        if !self.tracking() {
            return;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        *self.state.lock().faults.entry(idx).or_insert(0) += 1;
    }

    // ------------------------------------------------------------------
    // Requests and gauges
    // ------------------------------------------------------------------

    /// Enqueues an asynchronous request for the manager thread.
    pub fn request(&self, req: MmRequest) {
        if !self.tracking() {
            return;
        }
        self.queue.lock().expect("mm queue").push_back(req);
        self.wake.notify_one();
    }

    fn drain_requests(&self, interval: Duration) -> Vec<MmRequest> {
        let q = self.queue.lock().expect("mm queue");
        if q.is_empty() && !self.shutdown.load(Ordering::Acquire) {
            let (mut q, _) = self.wake.wait_timeout(q, interval).expect("mm queue");
            return q.drain(..).collect();
        }
        let mut q = q;
        q.drain(..).collect()
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Records one registration's virtual latency (whole `lt_malloc` /
    /// `lt_map` call) into the `reg_lat` histogram.
    pub(crate) fn record_reg_latency(&self, ns: u64) {
        self.reg_lat.record(ns.max(1));
    }

    /// Memory-tiering gauges (folded into [`crate::StatsReport`]).
    pub fn stats(&self) -> MmReport {
        let (resident_bytes, evicted_bytes, hosted_bytes, resident_chunks, evicted_chunks) = {
            let st = self.state.lock();
            let evicted = st
                .segs
                .values()
                .filter(|s| s.host.load(Ordering::Relaxed) != self.node)
                .count();
            (
                st.resident_bytes,
                st.evicted_bytes,
                st.hosted_bytes,
                st.segs.len() - evicted,
                evicted,
            )
        };
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        MmReport {
            enabled: self.enabled(),
            lazy: self.lazy,
            budget_bytes: self.budget,
            resident_bytes,
            evicted_bytes,
            hosted_bytes,
            resident_chunks,
            evicted_chunks,
            evictions: self.evictions.load(Ordering::Relaxed),
            fetch_backs: self.fetch_backs.load(Ordering::Relaxed),
            redirects: self.redirects.load(Ordering::Relaxed),
            lru_hits: hits,
            lru_misses: misses,
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            pinned_pages: self.pins.pinned_pages(),
            first_touch_faults: self.first_touch_faults.load(Ordering::Relaxed),
            bg_unpins: self.bg_unpins.load(Ordering::Relaxed),
            fetch_back_lat: LatencySummary::of(&self.fetch_back_lat),
            reg_lat: LatencySummary::of(&self.reg_lat),
        }
    }

    // ------------------------------------------------------------------
    // Victim / swap-node selection
    // ------------------------------------------------------------------

    /// Bytes of locally-resident tracked segments over the budget.
    /// Always zero without a budget (lazy-only mode must not evict).
    fn pressure(&self) -> u64 {
        if self.budget == 0 {
            return 0;
        }
        self.state.lock().resident_bytes.saturating_sub(self.budget)
    }

    /// The coldest locally-resident segment (LRU order, falling back to
    /// map order for segments the LRU shed). Unpinned segments qualify —
    /// they are the cheapest victims (no pages to release).
    fn pick_victim(&self) -> Option<SegKey> {
        let st = self.state.lock();
        let resident = |key: &SegKey| {
            st.segs.get(key).is_some_and(|s| {
                matches!(s.residency.load(Ordering::Acquire), R_RESIDENT | R_UNPINNED)
            })
        };
        if let Some(key) = st.lru.iter_lru().find(|k| resident(k)).copied() {
            return Some(key);
        }
        st.segs
            .iter()
            .filter(|(k, _)| resident(k))
            .map(|(k, _)| *k)
            .next()
    }

    /// Picks the swap node for the next eviction: round-robin over
    /// alive peers.
    fn pick_swap_node(&self, alive: impl Fn(NodeId) -> bool) -> Option<NodeId> {
        let peers: Vec<NodeId> = (0..self.nodes).filter(|&n| n != self.node).collect();
        if peers.is_empty() {
            return None;
        }
        let start = self.next_swap.fetch_add(1, Ordering::Relaxed);
        (0..peers.len())
            .map(|i| peers[(start + i) % peers.len()])
            .find(|&n| alive(n))
    }

    // ------------------------------------------------------------------
    // Migration primitives (called from the manager thread only)
    // ------------------------------------------------------------------

    /// Claims `key` for eviction: Resident/Unpinned → Evicting. Returns
    /// the segment and the state it came from (for rollback); `None`
    /// when the segment is gone or mid-transition.
    fn begin_evict(&self, key: &SegKey) -> Option<(Arc<Segment>, u8)> {
        let st = self.state.lock();
        let seg = st.segs.get(key)?;
        for from in [R_RESIDENT, R_UNPINNED] {
            // SeqCst pairs with pin_inner's publish-then-revalidate: the
            // claim RMW and the drain's pin load must order as a unit
            // against the pin RMW and its residency re-load.
            if seg
                .residency
                .compare_exchange(from, R_EVICTING, Ordering::SeqCst, Ordering::Acquire)
                .is_ok()
            {
                return Some((Arc::clone(seg), from));
            }
        }
        None
    }

    /// Claims `key` for fetch-back: Remote → FetchingBack.
    fn begin_fetch_back(&self, key: &SegKey) -> Option<Arc<Segment>> {
        let st = self.state.lock();
        let seg = st.segs.get(key)?;
        seg.residency
            .compare_exchange(R_REMOTE, R_FETCHING, Ordering::SeqCst, Ordering::Acquire)
            .ok()?;
        Some(Arc::clone(seg))
    }

    fn abort_transition(&self, seg: &Segment, back_to: u8) {
        seg.residency.store(back_to, Ordering::Release);
    }

    /// Waits for in-flight pins to drain; `false` on deadline.
    fn drain_pins(&self, seg: &Segment) -> bool {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        // SeqCst: see pin_inner's publish-then-revalidate. If a pin's
        // increment is not visible here, the claim preceding this load
        // is visible to that pin's residency re-check, and it backs off.
        while seg.pins.load(Ordering::SeqCst) != 0 {
            if Instant::now() >= deadline || self.stopping() {
                return false;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        true
    }

    /// Builds one per-chunk segment for a migration landing zone,
    /// created directly in claimed state `state` so datapath pins block
    /// (or bounce, for no-wait pins) instead of posting unfenced against
    /// bytes that are still being copied.
    fn landing_segs(
        &self,
        seg: &Segment,
        chunks: &[Chunk],
        host: NodeId,
        state: u8,
    ) -> Vec<Arc<Segment>> {
        let mut staged = Vec::with_capacity(chunks.len());
        let mut off = seg.key.off;
        for c in chunks {
            staged.push(Arc::new(Segment::new(
                SegKey {
                    id: seg.key.id,
                    off,
                },
                c.len,
                c.addr,
                host,
                state,
            )));
            off += c.len;
        }
        staged
    }

    /// Stages an outbound migration's landing range at the target
    /// *before* the data copy: hosted entries in the claimed Evicting
    /// state. Without this, the window between `replace_extents` (which
    /// publishes the new location) and registration — and, worse, a
    /// stale view of a recycled address whose `Moved` tombstone the
    /// landing `FN_MALLOC` just scrubbed — pins `Untracked` and posts
    /// unfenced while the bytes are in flight: a concurrent claim's
    /// pin drain reads zero and migrates under a live access, losing
    /// the op's effect. `finish_evict` flips the stage Remote once the
    /// record points at it; `unstage_hosted` removes it on any abort.
    fn stage_hosted(&self, seg: &Segment, target: NodeId, chunks: &[Chunk]) -> Vec<Arc<Segment>> {
        let staged = self.landing_segs(seg, chunks, target, R_EVICTING);
        if let Some(peer) = self.peer(target) {
            let mut pst = peer.state.lock();
            for s in &staged {
                let addr = s.addr.load(Ordering::Relaxed);
                pst.scrub_moved(addr, s.len);
                peer.pins.fault_in(addr, s.len);
                pst.by_addr.insert(addr, Slot::Entry(Arc::clone(s)));
                pst.hosted_bytes += s.len;
            }
        }
        staged
    }

    /// Rolls a staged outbound landing back out of the target's address
    /// map (aborted copy, vanished record, or dead LMR).
    fn unstage_hosted(&self, target: NodeId, staged: &[Arc<Segment>]) {
        if let Some(peer) = self.peer(target) {
            let mut pst = peer.state.lock();
            for s in staged {
                let addr = s.addr.load(Ordering::Relaxed);
                if matches!(pst.by_addr.get(&addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, s)) {
                    pst.by_addr.remove(&addr);
                    peer.pins.unpin_all(addr, s.len);
                    pst.hosted_bytes = pst.hosted_bytes.saturating_sub(s.len);
                }
            }
        }
    }

    /// Finalizes an outbound migration: tombstones the local range and
    /// replaces `seg` with the staged hosted segments, flipped Remote
    /// now that the record points at them (releasing any pins that
    /// queued against the stage during the copy). Returns the local
    /// address to free — or `None` when the LMR was unregistered
    /// (freed/moved/taken) mid-flight, in which case the stage is
    /// rolled back: committing would resurrect segments of a dead LMR
    /// (leaking `evicted_bytes`) and leave hosted entries over chunks
    /// the dropper frees at the target.
    fn finish_evict(
        &self,
        seg: &Arc<Segment>,
        target: NodeId,
        staged: &[Arc<Segment>],
    ) -> Option<u64> {
        let old_addr = seg.addr.load(Ordering::Acquire);
        let mut st = self.state.lock();
        // Re-verify liveness under our own lock: unregister_lmr/on_free
        // serialize on it, so a dead or replaced segment is definitely
        // visible here. (Target lock and ours are never held at once,
        // so cross-node managers cannot deadlock on each other.)
        if seg.dead.load(Ordering::Acquire)
            || !matches!(st.segs.get(&seg.key), Some(e) if Arc::ptr_eq(e, seg))
        {
            drop(st);
            self.unstage_hosted(target, staged);
            return None;
        }
        st.segs.remove(&seg.key);
        st.lru.remove(&seg.key);
        if matches!(st.by_addr.get(&old_addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, seg)) {
            st.by_addr.insert(old_addr, Slot::Moved(seg.len));
        }
        // The local pages are about to be freed: release whatever pins
        // they held (all of them eager, only the faulted subset lazy).
        self.pins.unpin_all(old_addr, seg.len);
        st.resident_bytes = st.resident_bytes.saturating_sub(seg.len);
        st.evicted_bytes += seg.len;
        for s in staged {
            st.segs.insert(s.key, Arc::clone(s));
            s.residency.store(R_REMOTE, Ordering::Release);
        }
        Some(old_addr)
    }

    /// Stages an inbound migration's landing range in our own address
    /// map *before* the data copy (claimed FetchingBack entries), for
    /// the same reason as [`MemManager::stage_hosted`]: a stale view of
    /// the recycled local address must block on the stage, not pin
    /// `Untracked` and post unfenced against bytes still in flight.
    fn stage_local(&self, seg: &Segment, chunks: &[Chunk]) -> Vec<Arc<Segment>> {
        let staged = self.landing_segs(seg, chunks, self.node, R_FETCHING);
        let mut st = self.state.lock();
        for s in &staged {
            let addr = s.addr.load(Ordering::Relaxed);
            st.scrub_moved(addr, s.len);
            self.pins.fault_in(addr, s.len);
            st.by_addr.insert(addr, Slot::Entry(Arc::clone(s)));
        }
        staged
    }

    /// Rolls a staged inbound landing back out of our address map. The
    /// chunks themselves stay allocated — the caller (or, when the LMR
    /// died after `replace_extents` adopted them, the dropper) frees
    /// them.
    fn unstage_local(&self, staged: &[Arc<Segment>]) {
        let mut st = self.state.lock();
        for s in staged {
            let addr = s.addr.load(Ordering::Relaxed);
            if matches!(st.by_addr.get(&addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, s)) {
                st.by_addr.remove(&addr);
                self.pins.unpin_all(addr, s.len);
            }
        }
    }

    /// Finalizes an inbound migration: replaces the remote `seg` with
    /// the staged local segments (flipped Resident now that the record
    /// points at them), tombstones the range at the old host, and
    /// returns the remote address to free there — or `None` when the
    /// LMR was unregistered mid-flight (the stage is rolled back; the
    /// caller still frees the remote copy, while the landed local
    /// chunks belong to the record and are freed by the dropper).
    fn finish_fetch_back(
        &self,
        seg: &Arc<Segment>,
        host: NodeId,
        staged: &[Arc<Segment>],
    ) -> Option<u64> {
        let remote_addr = seg.addr.load(Ordering::Acquire);
        if let Some(peer) = self.peer(host) {
            let mut pst = peer.state.lock();
            if matches!(pst.by_addr.get(&remote_addr), Some(Slot::Entry(e)) if Arc::ptr_eq(e, seg))
            {
                pst.by_addr.insert(remote_addr, Slot::Moved(seg.len));
                peer.pins.unpin_all(remote_addr, seg.len);
                pst.hosted_bytes = pst.hosted_bytes.saturating_sub(seg.len);
            }
        }
        let mut st = self.state.lock();
        // Same liveness re-check as finish_evict: committing resident
        // segments of a dead LMR would resurrect it in segs/by_addr.
        if seg.dead.load(Ordering::Acquire)
            || !matches!(st.segs.get(&seg.key), Some(e) if Arc::ptr_eq(e, seg))
        {
            drop(st);
            self.unstage_local(staged);
            return None;
        }
        st.segs.remove(&seg.key);
        st.evicted_bytes = st.evicted_bytes.saturating_sub(seg.len);
        for s in staged {
            // The bytes just DMAed in, so they land pinned (the stage
            // faulted them) and warm (a fetch-back is demand-driven).
            s.last_touch
                .store(self.epoch.load(Ordering::Relaxed), Ordering::Relaxed);
            st.segs.insert(s.key, Arc::clone(s));
            st.lru.insert(s.key, ());
            st.resident_bytes += s.len;
            s.residency.store(R_RESIDENT, Ordering::Release);
        }
        Some(remote_addr)
    }

    /// Segments of LMR `idx` matching `off` (`u64::MAX` = all) that are
    /// currently resident here.
    fn resident_segs_of(&self, idx: u32, off: u64) -> Vec<SegKey> {
        let st = self.state.lock();
        st.segs
            .values()
            .filter(|s| {
                s.key.id.idx == idx
                    && s.host.load(Ordering::Relaxed) == self.node
                    && (off == u64::MAX || (s.key.off <= off && off < s.key.off + s.len))
            })
            .map(|s| s.key)
            .collect()
    }

    /// Remote segments of LMR `idx`.
    fn remote_segs_of(&self, idx: u32) -> Vec<SegKey> {
        let st = self.state.lock();
        st.segs
            .values()
            .filter(|s| s.key.id.idx == idx && s.host.load(Ordering::Relaxed) != self.node)
            .map(|s| s.key)
            .collect()
    }

    /// LMRs whose remote map-faults crossed the fetch-back threshold and
    /// whose remote bytes fit under the budget. Consumes the counts.
    fn take_fetch_back_candidates(&self) -> Vec<u32> {
        let mut st = self.state.lock();
        let resident = st.resident_bytes;
        let ready: Vec<u32> = st
            .faults
            .iter()
            .filter(|&(_, &n)| n >= FETCH_BACK_FAULTS)
            .map(|(&idx, _)| idx)
            .collect();
        let mut headroom = self.budget.saturating_sub(resident);
        let mut out = Vec::new();
        for idx in ready {
            let need: u64 = st
                .segs
                .values()
                .filter(|s| s.key.id.idx == idx && s.host.load(Ordering::Relaxed) != self.node)
                .map(|s| s.len)
                .sum();
            if need > 0 && need <= headroom {
                headroom -= need;
                out.push(idx);
                st.faults.remove(&idx);
            } else if need == 0 {
                st.faults.remove(&idx);
            }
        }
        out
    }

    /// Background unpinner (lazy mode only): closes the sweep epoch and
    /// demotes locally-resident segments that went a full epoch without
    /// a touch and have no pins in flight — Resident → Unpinned, pages
    /// released. Runs entirely under the state lock, so it can never
    /// interleave with `pin_inner`'s fault-in/pin sequence: a segment is
    /// either demoted before a pin (the pin refaults it) or after (the
    /// pin count blocks the demotion).
    fn bg_unpin_sweep(&self) {
        if !self.lazy {
            return;
        }
        // `prev` is the epoch that just ended; anything last touched
        // before it has been cold for at least one full sweep interval.
        let prev = self.epoch.fetch_add(1, Ordering::AcqRel);
        let st = self.state.lock();
        for seg in st.segs.values() {
            if seg.host.load(Ordering::Relaxed) != self.node
                || seg.pins.load(Ordering::Acquire) != 0
                || seg.last_touch.load(Ordering::Relaxed) >= prev
                || seg
                    .residency
                    .compare_exchange(R_RESIDENT, R_UNPINNED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
            {
                continue;
            }
            let released = self
                .pins
                .unpin_all(seg.addr.load(Ordering::Acquire), seg.len);
            if released > 0 {
                self.bg_unpins.fetch_add(released as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Memory-tiering gauges for one node.
#[derive(Debug, Clone, Default)]
pub struct MmReport {
    /// Whether a budget is configured.
    pub enabled: bool,
    /// Whether pin-free (lazy) registration is on.
    pub lazy: bool,
    /// The configured budget, bytes.
    pub budget_bytes: u64,
    /// Bytes of tracked chunks resident on this node.
    pub resident_bytes: u64,
    /// Bytes of this node's LMR chunks currently evicted to swap nodes.
    pub evicted_bytes: u64,
    /// Bytes this node hosts on behalf of other nodes' evictions.
    pub hosted_bytes: u64,
    /// Tracked chunks resident here.
    pub resident_chunks: usize,
    /// This node's chunks living remotely.
    pub evicted_chunks: usize,
    /// Chunks evicted over the node's lifetime.
    pub evictions: u64,
    /// Chunks fetched back over the node's lifetime.
    pub fetch_backs: u64,
    /// Accesses that landed on migrated chunks and were redirected
    /// (refresh + retry) instead of served in place.
    pub redirects: u64,
    /// Accesses that found their chunk resident.
    pub lru_hits: u64,
    /// Accesses/faults that missed (evicted chunk or map-fault).
    pub lru_misses: u64,
    /// `lru_hits / (lru_hits + lru_misses)`, 0.0 when idle.
    pub hit_rate: f64,
    /// Pages of tracked memory currently pinned on this node.
    pub pinned_pages: usize,
    /// Pages pinned at the datapath by lazy first-touch faults.
    pub first_touch_faults: u64,
    /// Pages released by the background unpinner.
    pub bg_unpins: u64,
    /// Fetch-back latency (virtual nanoseconds, whole operation).
    pub fetch_back_lat: LatencySummary,
    /// Registration latency (virtual nanoseconds, whole `lt_malloc`).
    pub reg_lat: LatencySummary,
}

impl MmReport {
    /// JSON object fragment (same hand-rolled style as the rest of the
    /// stats report).
    pub fn json(&self) -> String {
        format!(
            "{{\"enabled\":{},\"lazy\":{},\"budget_bytes\":{},\"resident_bytes\":{},\"evicted_bytes\":{},\"hosted_bytes\":{},\"resident_chunks\":{},\"evicted_chunks\":{},\"evictions\":{},\"fetch_backs\":{},\"redirects\":{},\"lru_hits\":{},\"lru_misses\":{},\"hit_rate\":{:.4},\"pinned_pages\":{},\"first_touch_faults\":{},\"bg_unpins\":{},\"fetch_back_lat\":{{\"count\":{},\"mean_ns\":{:.1},\"p50\":{},\"p99\":{}}},\"reg_lat\":{{\"count\":{},\"mean_ns\":{:.1},\"p50\":{},\"p99\":{}}}}}",
            self.enabled,
            self.lazy,
            self.budget_bytes,
            self.resident_bytes,
            self.evicted_bytes,
            self.hosted_bytes,
            self.resident_chunks,
            self.evicted_chunks,
            self.evictions,
            self.fetch_backs,
            self.redirects,
            self.lru_hits,
            self.lru_misses,
            self.hit_rate,
            self.pinned_pages,
            self.first_touch_faults,
            self.bg_unpins,
            self.fetch_back_lat.count,
            self.fetch_back_lat.mean_ns,
            self.fetch_back_lat.p50,
            self.fetch_back_lat.p99,
            self.reg_lat.count,
            self.reg_lat.mean_ns,
            self.reg_lat.p50,
            self.reg_lat.p99,
        )
    }
}

// ---------------------------------------------------------------------
// The manager thread
// ---------------------------------------------------------------------

/// The body of the `lite-mm-{node}` thread: drains requests, relieves
/// budget pressure, pulls faulted LMRs home, and (lazy mode) unpins cold
/// segments.
/// Spawned by `finish_setup` only when a budget is configured.
pub(crate) fn run(kernel: Arc<LiteKernel>) {
    let mm = Arc::clone(kernel.mm());
    let mut ctx = Ctx::new();
    let Ok(mut handle) = LiteHandle::new(Arc::clone(&kernel), false) else {
        return;
    };
    let interval = kernel.config().mm_sweep_interval;
    while !mm.stopping() {
        for req in mm.drain_requests(interval) {
            if mm.stopping() {
                break;
            }
            match req {
                MmRequest::Evict { idx, off } => {
                    for key in mm.resident_segs_of(idx, off) {
                        let _ = evict_one(&kernel, &mut ctx, &mut handle, key);
                    }
                }
                MmRequest::FetchBack { idx } => {
                    for key in mm.remote_segs_of(idx) {
                        let _ = fetch_back_one(&kernel, &mut ctx, &mut handle, key);
                    }
                }
            }
        }
        if mm.stopping() {
            break;
        }
        sweep(&kernel, &mut ctx, &mut handle);
    }
}

fn sweep(kernel: &Arc<LiteKernel>, ctx: &mut Ctx, handle: &mut LiteHandle) {
    let mm = Arc::clone(kernel.mm());
    // 1. Budget pressure: evict coldest-first until under budget (or
    //    nothing evictable / a migration fails — retried next sweep).
    let mut guard = 0;
    while mm.pressure() > 0 && !mm.stopping() && guard < 1_024 {
        guard += 1;
        let Some(victim) = mm.pick_victim() else {
            break;
        };
        if evict_one(kernel, ctx, handle, victim).is_err() {
            break;
        }
    }
    // 2. Fault-driven fetch-back: LMRs whose mappers keep faulting on
    //    remote extents come home when the budget has headroom.
    for idx in mm.take_fetch_back_candidates() {
        if mm.stopping() {
            return;
        }
        for key in mm.remote_segs_of(idx) {
            let _ = fetch_back_one(kernel, ctx, handle, key);
        }
    }
    // 3. Lazy mode: release pins of segments cold for a full epoch.
    mm.bg_unpin_sweep();
}

/// Best-effort remote free of `chunks` on `node` (rollback paths).
fn remote_free(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    node: NodeId,
    chunks: &[Chunk],
) {
    if handle
        .free_chunks(ctx, node, chunks.iter().map(|c| c.addr))
        .is_err()
    {
        kernel.note_cleanup_failure(node, ctx.now());
    }
}

/// Tells every mapper of `idx` (and local handles) that the LMR's
/// location changed under them — kind 1: refreshable, not fatal.
fn invalidate_mappers(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    id: LmrId,
    mappers: &[NodeId],
) {
    kernel.invalidate_lmr_relocated(id);
    for &m in mappers {
        if m == kernel.node() {
            continue;
        }
        let payload = crate::wire::Enc::new()
            .u32(id.node)
            .u32(id.idx)
            .u8(1)
            .done();
        if handle
            .kcall(ctx, m, crate::kernel::FN_INVALIDATE, payload)
            .is_err()
        {
            kernel.note_cleanup_failure(m, ctx.now());
        }
    }
}

/// Evicts one resident segment to a swap node: drain pins,
/// remote-allocate, copy out over the datapath, update the master
/// record, register the hosted copy, tombstone and free the local range,
/// invalidate mappers.
fn evict_one(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    key: SegKey,
) -> LiteResult<()> {
    let mm = Arc::clone(kernel.mm());
    let alive = |n: NodeId| kernel.try_datapath().is_ok_and(|dp| !dp.peer_is_dead(n));
    let Some(target) = mm.pick_swap_node(alive) else {
        return Err(LiteError::Internal("no alive swap node"));
    };
    let Some((seg, was)) = mm.begin_evict(&key) else {
        return Ok(()); // gone or mid-transition; nothing to do
    };
    if !mm.drain_pins(&seg) {
        mm.abort_transition(&seg, was);
        return Err(LiteError::Timeout);
    }
    let src_addr = seg.addr.load(Ordering::Acquire);
    // Land space on the swap node.
    let chunks = match handle.alloc_chunks(ctx, target, seg.len) {
        Ok(c) => c,
        Err(e) => {
            mm.abort_transition(&seg, was);
            return Err(e);
        }
    };
    // Fence the landing range at the target before any byte moves, so
    // a stale (or freshly-refreshed) view of those addresses blocks on
    // the staged entries instead of posting unfenced mid-copy.
    let staged = mm.stage_hosted(&seg, target, &chunks);
    // Copy out over the datapath (one-sided writes from the segment's
    // own physical range — no staging copy).
    let mut done = 0u64;
    for c in &chunks {
        let src = [Chunk {
            addr: src_addr + done,
            len: c.len,
        }];
        match kernel.rdma_write(ctx, Priority::Low, target, c.addr, &src, c.len as usize) {
            Ok(comp) => ctx.wait_until(comp),
            Err(e) => {
                mm.unstage_hosted(target, &staged);
                remote_free(kernel, ctx, handle, target, &chunks);
                mm.abort_transition(&seg, was);
                return Err(e);
            }
        }
        done += c.len;
    }
    // Point the master record at the new home. Failure means the record
    // vanished (freed/moved concurrently) — roll back.
    let repl: Vec<(NodeId, Chunk)> = chunks.iter().map(|c| (target, *c)).collect();
    if !kernel.replace_extents(key.id.idx, key.off, seg.len, &repl) {
        mm.unstage_hosted(target, &staged);
        remote_free(kernel, ctx, handle, target, &chunks);
        mm.abort_transition(&seg, was);
        return Err(LiteError::Internal("record vanished during migration"));
    }
    let mappers = kernel.record_mappers(key.id.idx).unwrap_or_default();
    let Some(old_addr) = mm.finish_evict(&seg, target, &staged) else {
        // The LMR was freed/moved after replace_extents pointed its
        // record at the landed chunks: the dropper owns (and frees)
        // those, but nothing else releases our local copy.
        if kernel.alloc.lock().free(src_addr).is_err() {
            kernel.note_cleanup_failure(kernel.node(), ctx.now());
        }
        return Err(LiteError::Internal("record vanished during migration"));
    };
    // Release the local pages last: the tombstone is already in place.
    let freed = kernel.alloc.lock().free(old_addr).is_ok();
    if !freed {
        kernel.note_cleanup_failure(kernel.node(), ctx.now());
    }
    mm.evictions.fetch_add(1, Ordering::Relaxed);
    invalidate_mappers(kernel, ctx, handle, key.id, &mappers);
    Ok(())
}

/// Pulls one remote segment home: drain pins, local-allocate, read the
/// bytes back over the datapath, update the master record, free the
/// remote copy, invalidate mappers. Latency lands in the fetch-back
/// histogram cell.
fn fetch_back_one(
    kernel: &Arc<LiteKernel>,
    ctx: &mut Ctx,
    handle: &mut LiteHandle,
    key: SegKey,
) -> LiteResult<()> {
    let mm = Arc::clone(kernel.mm());
    let Some(seg) = mm.begin_fetch_back(&key) else {
        return Ok(());
    };
    let started = ctx.now();
    let host = seg.host.load(Ordering::Acquire);
    if !mm.drain_pins(&seg) {
        mm.abort_transition(&seg, R_REMOTE);
        return Err(LiteError::Timeout);
    }
    // Land local space straight from our allocator (no RPC to self).
    let local = {
        let mut a = kernel.alloc.lock();
        a.alloc_chunked(seg.len, kernel.config().max_lmr_chunk)
    };
    let local = match local {
        Ok(c) => c,
        Err(e) => {
            mm.abort_transition(&seg, R_REMOTE);
            return Err(e.into());
        }
    };
    // Fence the landing range before any byte moves (see stage_hosted
    // for why): a stale view of a recycled local address must block on
    // the stage, not post unfenced against a half-copied range.
    let staged = mm.stage_local(&seg, &local);
    let remote_addr = seg.addr.load(Ordering::Acquire);
    let mut done = 0u64;
    for c in &local {
        let dst = [*c];
        match kernel.rdma_read(
            ctx,
            Priority::High,
            host,
            remote_addr + done,
            &dst,
            c.len as usize,
        ) {
            Ok(comp) => ctx.wait_until(comp),
            Err(e) => {
                mm.unstage_local(&staged);
                let mut a = kernel.alloc.lock();
                let _ = a.free_chunks(&local);
                drop(a);
                mm.abort_transition(&seg, R_REMOTE);
                return Err(e);
            }
        }
        done += c.len;
    }
    let repl: Vec<(NodeId, Chunk)> = local.iter().map(|c| (kernel.node(), *c)).collect();
    if !kernel.replace_extents(key.id.idx, key.off, seg.len, &repl) {
        mm.unstage_local(&staged);
        let mut a = kernel.alloc.lock();
        let _ = a.free_chunks(&local);
        drop(a);
        mm.abort_transition(&seg, R_REMOTE);
        return Err(LiteError::Internal("record vanished during fetch-back"));
    }
    let mappers = kernel.record_mappers(key.id.idx).unwrap_or_default();
    let Some(freed_remote) = mm.finish_fetch_back(&seg, host, &staged) else {
        // The LMR was freed after replace_extents pointed its record at
        // the landed local chunks: the dropper frees those; the remote
        // copy is still ours to release.
        remote_free(
            kernel,
            ctx,
            handle,
            host,
            &[Chunk {
                addr: seg.addr.load(Ordering::Acquire),
                len: seg.len,
            }],
        );
        return Err(LiteError::Internal("record vanished during fetch-back"));
    };
    remote_free(
        kernel,
        ctx,
        handle,
        host,
        &[Chunk {
            addr: freed_remote,
            len: seg.len,
        }],
    );
    mm.fetch_backs.fetch_add(1, Ordering::Relaxed);
    mm.fetch_back_lat
        .record(ctx.now().saturating_sub(started).max(1));
    invalidate_mappers(kernel, ctx, handle, key.id, &mappers);
    Ok(())
}

use crate::qos::Priority;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget: u64) -> LiteConfig {
        LiteConfig {
            mem_budget_bytes: budget,
            ..Default::default()
        }
    }

    fn loc(node: NodeId, extents: &[(u64, u64)]) -> Location {
        Location {
            extents: extents
                .iter()
                .map(|&(addr, len)| (node, Chunk { addr, len }))
                .collect(),
        }
    }

    #[test]
    fn disabled_manager_tracks_nothing() {
        let mm = MemManager::new(0, 2, &cfg(0));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        assert!(matches!(mm.pin(0x1000, 64, id, 0), PinOutcome::Untracked));
        let r = mm.stats();
        assert!(!r.enabled);
        assert_eq!(r.resident_bytes, 0);
    }

    #[test]
    fn register_pin_and_identity_check() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096), (0x4000, 4096)]));
        assert_eq!(mm.stats().resident_bytes, 8192);
        assert_eq!(mm.stats().resident_chunks, 2);
        // Pin inside the second chunk: lmr offset 4096 + 16.
        match mm.pin(0x4010, 32, id, 4096 + 16) {
            PinOutcome::Pinned(_) => {}
            _ => panic!("expected pin"),
        }
        // Wrong identity → Relocated.
        let other = LmrId { node: 0, idx: 9 };
        assert!(matches!(mm.pin(0x1000, 8, other, 0), PinOutcome::Relocated));
        // Wrong offset → Relocated.
        assert!(matches!(mm.pin(0x1000, 8, id, 64), PinOutcome::Relocated));
        // Outside tracked space → Untracked.
        assert!(matches!(mm.pin(0x9000, 8, id, 0), PinOutcome::Untracked));
    }

    #[test]
    fn logical_cell_maps_addresses() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 3 };
        mm.register(id, &loc(0, &[(0x1000, 128), (0x8000, 128)]));
        assert_eq!(mm.logical_cell(0x1008), Some((id, 8)));
        assert_eq!(mm.logical_cell(0x8000), Some((id, 128)));
        assert_eq!(mm.logical_cell(0x500), None);
    }

    #[test]
    fn unregister_and_on_free_clean_up() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        mm.on_free(0x1000);
        assert_eq!(mm.stats().resident_bytes, 0);
        mm.register(id, &loc(0, &[(0x2000, 4096)]));
        mm.unregister_lmr(1);
        assert_eq!(mm.stats().resident_bytes, 0);
        assert!(matches!(mm.pin(0x2000, 8, id, 0), PinOutcome::Untracked));
    }

    #[test]
    fn touch_feeds_lru() {
        let mm = MemManager::new(0, 3, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096), (0x4000, 4096)]));
        mm.touch(0x1000);
        mm.touch(0x1080);
        mm.touch(0x4000);
        let r = mm.stats();
        assert_eq!(r.lru_hits, 3);
        // The coldest segment is the one at 0x4000? No: 0x4000 touched
        // last, so the 0x1000 segment is colder only by insertion; both
        // were touched. Victim selection still returns something.
        assert!(mm.pick_victim().is_some());
    }

    #[test]
    fn tombstone_relocates_and_scrubs() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        {
            let mut st = mm.state.lock();
            st.by_addr.insert(0x1000, Slot::Moved(4096));
            st.segs.clear();
            st.resident_bytes = 0;
        }
        assert!(matches!(
            mm.pin(0x1800, 8, id, 0x800),
            PinOutcome::Relocated
        ));
        assert!(mm.stats().redirects >= 1);
        // Re-registration scrubs the tombstone.
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        assert!(matches!(mm.pin(0x1000, 8, id, 0), PinOutcome::Pinned(_)));
    }

    #[test]
    fn pin_blocks_until_transition_ends() {
        let mm = Arc::new(MemManager::new(0, 2, &cfg(1 << 20)));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096)]));
        let key = SegKey { id, off: 0 };
        let (seg, was) = mm.begin_evict(&key).expect("claim");
        assert_eq!(was, R_RESIDENT);
        let mm2 = Arc::clone(&mm);
        let t = std::thread::spawn(move || {
            // Blocks while Evicting, succeeds once reverted.
            matches!(mm2.pin(0x1000, 8, id, 0), PinOutcome::Pinned(_))
        });
        std::thread::sleep(Duration::from_millis(5));
        mm.abort_transition(&seg, R_RESIDENT);
        assert!(t.join().unwrap());
    }

    #[test]
    fn victim_is_coldest() {
        let mm = MemManager::new(0, 2, &cfg(1));
        let id = LmrId { node: 0, idx: 1 };
        mm.register(id, &loc(0, &[(0x1000, 4096), (0x4000, 4096)]));
        // Touch the first; the second becomes the LRU victim.
        mm.touch(0x1000);
        assert_eq!(mm.pick_victim(), Some(SegKey { id, off: 4096 }));
    }

    #[test]
    fn on_alloc_scrubs_tombstones() {
        let mm = MemManager::new(0, 2, &cfg(1 << 20));
        {
            let mut st = mm.state.lock();
            st.by_addr.insert(0x1000, Slot::Moved(4096));
        }
        // Recycling the range through the allocator service (e.g. for a
        // cross-node LMR that is never register()ed here) must clear the
        // tombstone, or every access would answer Relocated forever.
        mm.on_alloc(&[Chunk {
            addr: 0x1000,
            len: 4096,
        }]);
        assert!(matches!(
            mm.pin_raw_nowait(0x1000, 64).0,
            PinOutcome::Untracked
        ));
    }

    fn pair() -> (Arc<MemManager>, Arc<MemManager>) {
        let a = Arc::new(MemManager::new(0, 2, &cfg(1 << 20)));
        let b = Arc::new(MemManager::new(1, 2, &cfg(1 << 20)));
        let cluster = vec![Arc::clone(&a), Arc::clone(&b)];
        a.set_cluster(cluster.clone());
        b.set_cluster(cluster);
        (a, b)
    }

    #[test]
    fn finish_evict_rolls_back_when_lmr_dies() {
        let (a, b) = pair();
        let id = LmrId { node: 0, idx: 1 };
        a.register(id, &loc(0, &[(0x1000, 4096)]));
        let key = SegKey { id, off: 0 };
        let (seg, _) = a.begin_evict(&key).expect("claim");
        let landed = [Chunk {
            addr: 0x9000,
            len: 4096,
        }];
        let staged = a.stage_hosted(&seg, 1, &landed);
        // The LMR is freed while the migration is mid-flight.
        a.unregister_lmr(1);
        assert!(a.finish_evict(&seg, 1, &staged).is_none());
        // Nothing resurrected on the master, nothing left at the target.
        assert_eq!(a.stats().evicted_bytes, 0);
        assert_eq!(a.stats().resident_bytes, 0);
        assert!(a.state.lock().segs.is_empty());
        assert_eq!(b.stats().hosted_bytes, 0);
        assert!(b.state.lock().by_addr.is_empty());
    }

    #[test]
    fn finish_fetch_back_rolls_back_when_lmr_dies() {
        let (a, b) = pair();
        let id = LmrId { node: 0, idx: 2 };
        let key = SegKey { id, off: 0 };
        let seg = Arc::new(Segment::new(key, 4096, 0x9000, 1, R_REMOTE));
        {
            let mut st = a.state.lock();
            st.segs.insert(key, Arc::clone(&seg));
            st.evicted_bytes = 4096;
        }
        {
            let mut st = b.state.lock();
            st.by_addr.insert(0x9000, Slot::Entry(Arc::clone(&seg)));
            st.hosted_bytes = 4096;
        }
        let seg = a.begin_fetch_back(&key).expect("claim");
        let landed = [Chunk {
            addr: 0x2000,
            len: 4096,
        }];
        let staged = a.stage_local(&seg, &landed);
        a.unregister_lmr(2);
        assert!(a.finish_fetch_back(&seg, 1, &staged).is_none());
        assert_eq!(a.stats().resident_bytes, 0);
        assert_eq!(a.stats().evicted_bytes, 0);
        assert!(a.state.lock().segs.is_empty());
        // The rolled-back stage leaves no pinned pages or address slots.
        assert_eq!(a.stats().pinned_pages, 0);
        assert!(!a.state.lock().by_addr.contains_key(&0x2000));
    }

    #[test]
    fn fetch_back_candidates_respect_budget() {
        let mm = MemManager::new(0, 2, &cfg(8192));
        let id = LmrId { node: 0, idx: 7 };
        // One remote segment of 4096 bytes.
        {
            let mut st = mm.state.lock();
            let seg = Arc::new(Segment::new(
                SegKey { id, off: 0 },
                4096,
                0x9000,
                1,
                R_REMOTE,
            ));
            st.segs.insert(seg.key, seg);
            st.evicted_bytes = 4096;
        }
        for _ in 0..3 {
            mm.note_map_fault(7);
        }
        assert_eq!(mm.take_fetch_back_candidates(), vec![7]);
        // Counts consumed.
        assert!(mm.take_fetch_back_candidates().is_empty());
    }
}
