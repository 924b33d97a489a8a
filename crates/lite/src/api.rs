//! The LITE API (paper Table 1).
//!
//! A [`LiteHandle`] is one process's view of LITE on one node. Handles
//! come in two flavors: *user-level* (charges syscall-crossing costs,
//! §5.2) and *kernel-level* (no crossings — what LITE-DSM uses). A handle
//! is intended to be used by a single thread; spawn one per worker.
//!
//! | Paper API        | Here                                     |
//! |------------------|------------------------------------------|
//! | `LT_join`        | [`crate::LiteCluster::attach`]           |
//! | `LT_malloc`      | [`LiteHandle::lt_malloc`]                |
//! | `LT_free`        | [`LiteHandle::lt_free`]                  |
//! | `LT_map/unmap`   | [`LiteHandle::lt_map`] / [`LiteHandle::lt_unmap`] |
//! | `LT_read/write`  | [`LiteHandle::lt_read`] / [`LiteHandle::lt_write`] |
//! | `LT_memset`      | [`LiteHandle::lt_memset`]                |
//! | `LT_memcpy/move` | [`LiteHandle::lt_memcpy`] / [`LiteHandle::lt_memmove`] |
//! | `LT_regRPC`      | [`LiteHandle::register_rpc`]             |
//! | `LT_RPC`         | [`LiteHandle::lt_rpc`]                   |
//! | `LT_recvRPC`     | [`LiteHandle::lt_recv_rpc`]              |
//! | `LT_replyRPC`    | [`LiteHandle::lt_reply_rpc`] (+ combined [`LiteHandle::lt_reply_recv`]) |
//! | `LT_send`        | [`LiteHandle::lt_send`] / [`LiteHandle::lt_recv_msg`] |
//! | `LT_(un)lock`    | [`LiteHandle::lt_lock`] / [`LiteHandle::lt_unlock`] |
//! | `LT_barrier`     | [`LiteHandle::lt_barrier`]               |
//! | `LT_fetch-add`   | [`LiteHandle::lt_fetch_add`]             |
//! | `LT_test-set`    | [`LiteHandle::lt_test_set`]              |
//! | `LT_cmp-swap`    | [`LiteHandle::lt_cmp_swap`] (general CAS; `lt_test_set` delegates) |
//! | (extension)      | [`LiteHandle::lt_chain`]: writes and atomics on one LMR, one doorbell per node |

use std::sync::Arc;

use parking_lot::Mutex;
use rnic::NodeId;
use simnet::{Ctx, Nanos};
use smem::Chunk;

use crate::config::{MAX_RPC_PAYLOAD, RPC_META_NS, SYSCALL_CROSSING_NS};
use crate::error::{LiteError, LiteResult};
use crate::kernel::datapath::Op;
use crate::kernel::{
    perm_to_byte, LiteKernel, ReplyRoute, FN_BARRIER, FN_FREE_CHUNKS, FN_GRANT, FN_INVALIDATE,
    FN_LOCK, FN_MALLOC, FN_MAP, FN_MEMCPY, FN_MEMSET, FN_MSG, FN_QUERYNAME, FN_REGNAME,
    FN_TAKE_RECORD, FN_UNMAP, FN_UNREGNAME, MANAGER_NODE, USER_FUNC_MIN,
};
use crate::lmr::{LhEntry, LmrId, Location, Perm};
use crate::observe::{EventKind, OpClass, StatsReport};
use crate::qos::Priority;
use crate::wire::{Dec, Enc, Imm, MsgHeader, HEADER_BYTES};

/// A cluster-wide lock identity (§7.2: a 64-bit integer in an internal
/// LMR with an owner node). `Copy` — distribute it to other nodes through
/// an LMR, a message, or any other channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockId {
    /// Owner node (maintains the FIFO wait queue).
    pub node: NodeId,
    /// Physical address of the lock word on the owner node.
    pub addr: u64,
}

/// An opaque LITE handle to an LMR (the paper's `lh`).
pub type Lh = u64;

/// One op of an [`LiteHandle::lt_chain`], addressed by byte offset in
/// the chain's LMR.
#[derive(Debug, Clone, Copy)]
pub enum ChainOp<'a> {
    /// Write `data` at `offset`.
    Write {
        /// Byte offset in the LMR.
        offset: u64,
        /// Payload.
        data: &'a [u8],
    },
    /// Fetch-and-add `delta` to the u64 at `offset`.
    FetchAdd {
        /// Byte offset of the word.
        offset: u64,
        /// Addend.
        delta: u64,
    },
    /// Compare-and-swap the u64 at `offset` from `expect` to `new`.
    CmpSwap {
        /// Byte offset of the word.
        offset: u64,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
}

impl ChainOp<'_> {
    /// The checked range: `(offset, len)`.
    fn range(&self) -> (u64, usize) {
        match *self {
            ChainOp::Write { offset, data } => (offset, data.len()),
            ChainOp::FetchAdd { offset, .. } | ChainOp::CmpSwap { offset, .. } => (offset, 8),
        }
    }
}

/// An incoming RPC held by a server thread; reply through
/// [`LiteHandle::lt_reply_rpc`].
pub struct RpcCall {
    /// The request payload.
    pub input: Vec<u8>,
    /// Calling node.
    pub src_node: NodeId,
    /// Calling process.
    pub src_pid: u32,
    pub(crate) route: ReplyRoute,
    /// Deferred ring-release head update, flushed together with the
    /// reply in one doorbell batch (only set with `batch_posting`, for
    /// remote two-way calls).
    pub(crate) pending_head: Mutex<Option<Op>>,
}

/// A physical scratch region owned by a handle.
struct Scratch {
    addr: u64,
    cap: usize,
}

/// One process's LITE endpoint.
pub struct LiteHandle {
    kernel: Arc<LiteKernel>,
    pid: u32,
    user_level: bool,
    prio: Priority,
    staging: Scratch,
    reply: Scratch,
    /// Reply cells for multicast calls, one `max_reply`-sized cell per
    /// destination, allocated lazily on the first multicast. Persistent
    /// like [`LiteHandle::reply`] (never freed while the handle lives):
    /// a straggler reply landing after a slot timeout scribbles scratch
    /// this handle owns, never allocator memory someone else reused.
    mcast_reply: Option<Scratch>,
}

const INIT_SCRATCH: usize = 64 * 1024;

impl LiteHandle {
    pub(crate) fn new(kernel: Arc<LiteKernel>, user_level: bool) -> LiteResult<Self> {
        let pid = kernel.alloc_pid();
        let staging = Scratch {
            addr: kernel.alloc.lock().alloc(INIT_SCRATCH as u64)?,
            cap: INIT_SCRATCH,
        };
        let reply = Scratch {
            addr: kernel.alloc.lock().alloc(INIT_SCRATCH as u64)?,
            cap: INIT_SCRATCH,
        };
        Ok(LiteHandle {
            kernel,
            pid,
            user_level,
            prio: Priority::High,
            staging,
            reply,
            mcast_reply: None,
        })
    }

    /// The node this handle lives on.
    pub fn node(&self) -> NodeId {
        self.kernel.node()
    }

    /// Process id on this node.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Sets the priority for subsequent operations (QoS, §6.2).
    pub fn set_priority(&mut self, prio: Priority) {
        self.prio = prio;
    }

    /// Current priority.
    pub fn priority(&self) -> Priority {
        self.prio
    }

    /// The kernel under this handle (stats, QoS control).
    pub fn kernel(&self) -> &Arc<LiteKernel> {
        &self.kernel
    }

    /// Structured observability report for this node: per-class latency
    /// percentiles, per-peer gauges and liveness, trace-ring occupancy,
    /// and QoS state (see DESIGN.md "Observability").
    pub fn lt_stats(&self) -> StatsReport {
        self.kernel.lt_stats()
    }

    /// The cluster-wide LMR id behind a local handle. The id is stable
    /// across chunk migrations (only the physical location moves), so
    /// tooling can use it to target `MmRequest`s at a specific LMR.
    pub fn lh_id(&self, lh: Lh) -> LiteResult<crate::lmr::LmrId> {
        Ok(self.kernel.lookup_lh(self.pid, lh)?.id)
    }

    /// Records a completed API-level round trip (RPC/lock/barrier) into
    /// the class histograms and — when sampled — the trace ring. Spans
    /// feed only the class view; the datapath posts underneath them
    /// already account per-peer traffic.
    fn span(&self, class: OpClass, peer: NodeId, start: Nanos, end: Nanos) {
        let Some(obs) = self.kernel.observe() else {
            return;
        };
        obs.record_span(class, self.prio, end.saturating_sub(start));
        if obs.sample() {
            let id = obs.next_op_id();
            obs.trace(id, class, EventKind::Posted, self.prio, peer, start);
            obs.trace(id, class, EventKind::Completed, self.prio, peer, end);
        }
    }

    /// Appends one op to the linearizability history, when recording is
    /// armed (see [`crate::LiteCluster::record_history`]). One `OnceLock`
    /// load when unarmed: `kind` (and any fingerprint inside it) is built
    /// only once a log is installed.
    fn record_hist(
        &self,
        key: crate::verify::Key,
        kind: impl FnOnce() -> crate::verify::OpKind,
        ret: u64,
        ok: bool,
        invoke: Nanos,
        response: Nanos,
    ) {
        let Some(log) = self.kernel.observe().and_then(|obs| obs.history()) else {
            return;
        };
        log.record(crate::verify::HistOp {
            proc: crate::verify::proc_id(self.kernel.node(), self.pid),
            key,
            kind: kind(),
            ret,
            ok,
            invoke,
            response,
        });
    }

    // ------------------------------------------------------------------
    // syscall model
    // ------------------------------------------------------------------

    /// Runs `body` as one simulated system call (§5.2). A user-level
    /// handle pays the entry crossing and — whatever `body` returns,
    /// errors included — the return path; kernel-level handles pay
    /// neither.
    fn syscall<T>(
        &mut self,
        ctx: &mut Ctx,
        body: impl FnOnce(&mut Self, &mut Ctx) -> LiteResult<T>,
    ) -> LiteResult<T> {
        if self.user_level {
            ctx.work(SYSCALL_CROSSING_NS);
        }
        let out = body(self, ctx);
        // With the §5.2 optimizations the return path is observed through
        // the shared page — no further crossing. The ablation restores
        // the full syscall return plus a re-entry to fetch results.
        if self.user_level && !self.kernel.config.fast_syscalls {
            ctx.work(2 * SYSCALL_CROSSING_NS);
        }
        out
    }

    // ------------------------------------------------------------------
    // scratch management (simulation plumbing: user buffers live in Rust
    // memory; LITE addresses them physically with zero copies, so moving
    // bytes into the scratch region carries no virtual-time cost)
    // ------------------------------------------------------------------

    fn ensure(kernel: &LiteKernel, s: &mut Scratch, need: usize) -> LiteResult<()> {
        if need <= s.cap {
            return Ok(());
        }
        let new_cap = need.next_power_of_two();
        let mut a = kernel.alloc.lock();
        let new_addr = a.alloc(new_cap as u64)?;
        a.free(s.addr)?;
        s.addr = new_addr;
        s.cap = new_cap;
        Ok(())
    }

    fn stage(&mut self, data: &[u8]) -> LiteResult<u64> {
        Self::ensure(&self.kernel, &mut self.staging, data.len())?;
        self.kernel
            .fabric()
            .mem(self.kernel.node())
            .write(self.staging.addr, data)?;
        Ok(self.staging.addr)
    }

    fn unstage(&self, addr: u64, buf: &mut [u8]) -> LiteResult<()> {
        self.kernel
            .fabric()
            .mem(self.kernel.node())
            .read(addr, buf)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // kernel-call plumbing
    // ------------------------------------------------------------------

    /// Sends one LITE RPC (request write-imm → slot wait) and returns the
    /// reply bytes. `func` may be a kernel service or a user function.
    fn call_raw(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        payload: &[u8],
        max_reply: usize,
        oneway: bool,
    ) -> LiteResult<Vec<u8>> {
        let cfg = self.kernel.config.clone();
        if payload.len() > MAX_RPC_PAYLOAD {
            return Err(LiteError::TooLarge {
                len: payload.len(),
                max: MAX_RPC_PAYLOAD,
            });
        }
        ctx.work(RPC_META_NS);
        let span_start = ctx.now();
        let total = HEADER_BYTES as u64 + payload.len() as u64;
        let r = self.kernel.reserve_ring(ctx, server, total)?;
        let (slot_id, slot) = if oneway {
            (0, None)
        } else {
            Self::ensure(&self.kernel, &mut self.reply, max_reply.max(1))?;
            let (id, s) = self.kernel.alloc_slot();
            (id, Some(s))
        };
        let hdr = MsgHeader {
            func,
            slot: slot_id,
            len: payload.len() as u32,
            reply_addr: self.reply.addr,
            reply_max: max_reply as u32,
            src_node: self.kernel.node() as u32,
            src_pid: self.pid,
            skip: r.skip as u32,
        };
        // One write-imm carries header + input (§5.1 step 2).
        let mut msg = Vec::with_capacity(total as usize);
        msg.extend_from_slice(&hdr.encode());
        msg.extend_from_slice(payload);
        let staged = self.stage(&msg)?;
        let chunks = [Chunk {
            addr: staged,
            len: msg.len() as u64,
        }];
        let dst = self.kernel.ring_remote_addr(server, r.offset)?;
        let imm = Imm::Request {
            granule: (r.offset / crate::wire::RING_GRANULE) as u32,
        };
        let post = self
            .kernel
            .post_write_imm(ctx, self.prio, server, dst, &chunks, msg.len(), imm);
        let Some(slot) = slot else {
            post?;
            return Ok(Vec::new());
        };
        let result = post.and_then(|_| slot.wait(ctx, &cfg, cfg.op_timeout));
        self.kernel.free_slot(slot_id);
        let res = result?;
        self.span(OpClass::Rpc, server, span_start, res.stamp);
        if !res.ok {
            return Err(LiteError::UnknownRpc { func });
        }
        if res.len as usize > max_reply {
            return Err(LiteError::TooLarge {
                len: res.len as usize,
                max: max_reply,
            });
        }
        // The reply was RDMA-written straight into our reply buffer —
        // zero-copy at the client.
        let mut out = vec![0u8; res.len as usize];
        self.unstage(self.reply.addr, &mut out)?;
        Ok(out)
    }

    /// Kernel-service call; checks the leading status byte.
    pub(crate) fn kcall(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        payload: Vec<u8>,
    ) -> LiteResult<Vec<u8>> {
        let resp = self.call_raw(ctx, server, func, &payload, 64 * 1024, false)?;
        match resp.first() {
            Some(0) => Ok(resp[1..].to_vec()),
            Some(&code) => Err(map_status(code)),
            None => Err(LiteError::Remote(0xFB)),
        }
    }

    /// Allocates `len` bytes on `target` through its kernel allocator
    /// (`FN_MALLOC`); returns the landed chunks.
    pub(crate) fn alloc_chunks(
        &mut self,
        ctx: &mut Ctx,
        target: NodeId,
        len: u64,
    ) -> LiteResult<Vec<Chunk>> {
        let max_chunk = self.kernel.config.max_lmr_chunk;
        let resp = self.kcall(
            ctx,
            target,
            FN_MALLOC,
            Enc::new().u64(len).u64(max_chunk).done(),
        )?;
        Dec::new(&resp).chunks()
    }

    /// Frees the chunks starting at `addrs` on `node` (`FN_FREE_CHUNKS`).
    pub(crate) fn free_chunks(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        addrs: impl ExactSizeIterator<Item = u64>,
    ) -> LiteResult<()> {
        let mut e = Enc::new().u32(addrs.len() as u32);
        for a in addrs {
            e = e.u64(a);
        }
        self.kcall(ctx, node, FN_FREE_CHUNKS, e.done()).map(|_| ())
    }

    // ------------------------------------------------------------------
    // Memory API
    // ------------------------------------------------------------------

    /// LT_malloc: allocates a `size`-byte LMR on `target` (any node,
    /// including this one), names it, and returns a master lh.
    pub fn lt_malloc(
        &mut self,
        ctx: &mut Ctx,
        target: NodeId,
        size: u64,
        name: &str,
        default_perm: Perm,
    ) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| {
            let reg_started = ctx.now();
            let chunks = this.alloc_chunks(ctx, target, size)?;
            let location = Location {
                extents: chunks.into_iter().map(|c| (target, c)).collect(),
            };
            let id = this.kernel.create_master_record(
                location.clone(),
                Some(name.to_string()),
                default_perm,
            );
            // Register the name with the cluster manager; roll back on clash.
            let binding = Enc::new()
                .bytes(name.as_bytes())
                .u32(this.kernel.node() as u32)
                .done();
            if let Err(e) = this.kcall(ctx, MANAGER_NODE, FN_REGNAME, binding.clone()) {
                this.kernel.remove_master_record(id.idx);
                // The registration may have landed with only its reply lost;
                // best-effort guarded scrub so a half-registered name cannot
                // outlive the record it pointed at. A clean name clash
                // (Remote(1)) means someone else owns the binding — the
                // guard makes scrubbing it a no-op either way.
                let clash = matches!(e, LiteError::Remote(1));
                if !clash {
                    let _ = this.kcall(ctx, MANAGER_NODE, FN_UNREGNAME, binding);
                }
                let addrs = location.extents.iter().map(|(_, c)| c.addr);
                if this.free_chunks(ctx, target, addrs).is_err() {
                    // Rollback failed: the chunks on `target` are leaked.
                    // Count it and trace it instead of swallowing it.
                    this.kernel.note_cleanup_failure(target, ctx.now());
                }
                return Err(if clash {
                    LiteError::NameExists {
                        name: name.to_string(),
                    }
                } else {
                    e
                });
            }
            let entry = LhEntry::new(id, name.to_string(), location, Perm::MASTER);
            let lh = this.kernel.install_lh(this.pid, entry);
            this.kernel
                .mm()
                .record_reg_latency(ctx.now().saturating_sub(reg_started));
            Ok(lh)
        })
    }

    /// LT_map: acquires an lh for a named LMR (manager lookup + master
    /// map, §4.1).
    pub fn lt_map(&mut self, ctx: &mut Ctx, name: &str) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| {
            let resp = this
                .kcall(
                    ctx,
                    MANAGER_NODE,
                    FN_QUERYNAME,
                    Enc::new().bytes(name.as_bytes()).done(),
                )
                .map_err(|e| named_err(e, name))?;
            let master = Dec::new(&resp).u32()? as NodeId;
            this.map_at(ctx, name, master)
        })
    }

    /// LT_map with a known master node (the paper's
    /// `LT_map(name, master)` form) — skips the manager lookup.
    pub fn lt_map_at(&mut self, ctx: &mut Ctx, name: &str, master: NodeId) -> LiteResult<Lh> {
        self.syscall(ctx, |this, ctx| this.map_at(ctx, name, master))
    }

    fn map_at(&mut self, ctx: &mut Ctx, name: &str, master: NodeId) -> LiteResult<Lh> {
        let (id, perm, location) = self
            .fetch_map(ctx, master, name)
            .map_err(|e| named_err(e, name))?;
        let entry = LhEntry::new(id, name.to_string(), location, perm);
        Ok(self.kernel.install_lh(self.pid, entry))
    }

    /// Asks `master` to map the LMR `name` for this node (`FN_MAP`);
    /// returns its identity, the permission granted to this node, and
    /// its current location.
    fn fetch_map(
        &mut self,
        ctx: &mut Ctx,
        master: NodeId,
        name: &str,
    ) -> LiteResult<(LmrId, Perm, Location)> {
        let resp = self.kcall(
            ctx,
            master,
            FN_MAP,
            Enc::new().bytes(name.as_bytes()).done(),
        )?;
        let mut d = Dec::new(&resp);
        let id = LmrId {
            node: d.u32()?,
            idx: d.u32()?,
        };
        let perm = crate::kernel::byte_to_perm(d.u8()?);
        let extents = d.extents()?;
        Ok((id, perm, Location { extents }))
    }

    /// Transparently refreshes an lh whose cached location went stale
    /// under memory tiering (the master's `lite::mm` migrated chunks):
    /// re-fetches the location from the master and reinstalls the entry
    /// under the *same* lh number. The permission the handle already
    /// carries is preserved — a plain `FN_MAP` reply would downgrade a
    /// master handle to the granted perm.
    fn refresh_lh(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        let entry = self.kernel.lookup_lh(self.pid, lh)?;
        let (id, _granted, location) = self
            .fetch_map(ctx, entry.id.node as NodeId, &entry.name)
            .map_err(|e| match e {
                // The LMR vanished while we held a relocated handle: the
                // handle is dead, not merely stale.
                LiteError::NameNotFound { .. } => LiteError::BadLh { lh },
                other => other,
            })?;
        let fresh = LhEntry::new(id, entry.name, location, entry.perm);
        self.kernel.reinstall_lh(self.pid, lh, fresh);
        Ok(())
    }

    /// The one access path of the memory API (§4): looks up and checks
    /// every range — `len` bytes at `offset` in the LMR behind `lh`,
    /// needing `perm` — and hands the entries and their physical pieces
    /// to `op`. `op` fences the pieces itself: one-sided ops pin them
    /// locally ([`Self::pin_pieces`]); `FN_MEMSET`/`FN_MEMCPY` pin at the
    /// remote handler.
    ///
    /// On `Err(Relocated)` from a check or from `op`, every range's lh is
    /// refreshed from its master and the access is redone, at most 3
    /// attempts; any other result is final. A redo is safe because
    /// `Relocated` is only ever returned before a side effect: by
    /// `check`, by a pin taken before the first byte is posted, or by a
    /// remote handler whose no-wait pin failed before it touched memory
    /// (pieces an earlier call already wrote are rewritten idempotently).
    fn access<T>(
        &mut self,
        ctx: &mut Ctx,
        ranges: &[(Lh, u64, usize, Perm)],
        mut op: impl FnMut(&mut Self, &mut Ctx, &[Checked]) -> LiteResult<T>,
    ) -> LiteResult<T> {
        let mut result = Err(LiteError::Relocated);
        for attempt in 0..3 {
            if attempt > 0 {
                for &(lh, ..) in ranges {
                    self.refresh_lh(ctx, lh)?;
                }
            }
            let checked = ranges
                .iter()
                .map(|&(lh, offset, len, perm)| {
                    let entry = self.kernel.lookup_lh(self.pid, lh)?;
                    let pieces = entry.check(offset, len, perm)?;
                    Ok(Checked { entry, pieces })
                })
                .collect::<LiteResult<Vec<_>>>();
            result = checked.and_then(|checked| op(self, ctx, &checked));
            if !matches!(result, Err(LiteError::Relocated)) {
                break;
            }
        }
        result
    }

    /// Pins every piece at its storage node's memory manager before a
    /// one-sided access, so eviction cannot pull the chunks out from
    /// under the in-flight op. The pin verifies piece identity (LMR id +
    /// byte offset), closing the window where a cached location points
    /// at freed-and-recycled memory. `Err(Relocated)` happens before any
    /// side effect, so [`Self::access`] may refresh the lh and retry.
    ///
    /// Under lazy pinning this is also where memory becomes real: pages
    /// never touched before fault in here (the simulated NIC page
    /// fault), and each one charges the fault-service cost to the
    /// caller's clock — first touch is dear, steady state is free.
    fn pin_pieces(
        &self,
        ctx: &mut Ctx,
        entry: &LhEntry,
        offset: u64,
        pieces: &[(NodeId, Chunk)],
    ) -> LiteResult<Vec<crate::mm::PinGuard>> {
        let mut guards = Vec::new();
        let mut lmr_off = offset;
        let mut faulted = 0usize;
        for (node, c) in pieces {
            if let Some(mm) = self.kernel.mm().peer(*node) {
                match mm.pin_touch(c.addr, c.len, entry.id, lmr_off) {
                    (crate::mm::PinOutcome::Untracked, _) => {}
                    (crate::mm::PinOutcome::Pinned(g), f) => {
                        guards.push(g);
                        faulted += f;
                    }
                    (crate::mm::PinOutcome::Relocated, _) => return Err(LiteError::Relocated),
                }
            }
            lmr_off += c.len;
        }
        if faulted > 0 {
            ctx.work(self.kernel.fabric().cost().fault_page_ns * faulted as u64);
        }
        Ok(guards)
    }

    /// LT_unmap: drops the lh and tells the master.
    pub fn lt_unmap(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.kernel.remove_lh(this.pid, lh)?;
            let _ = this.kcall(
                ctx,
                entry.id.node as NodeId,
                FN_UNMAP,
                Enc::new()
                    .u32(entry.id.idx)
                    .u32(this.kernel.node() as u32)
                    .done(),
            );
            Ok(())
        })
    }

    /// The entry behind `lh`, which must carry master rights.
    fn master_entry(&self, lh: Lh) -> LiteResult<LhEntry> {
        let entry = self.kernel.lookup_lh(self.pid, lh)?;
        if !entry.perm.master {
            return Err(LiteError::NotMaster);
        }
        Ok(entry)
    }

    /// LT_free: frees the LMR everywhere and invalidates every mapper.
    /// Requires a master lh.
    pub fn lt_free(&mut self, ctx: &mut Ctx, lh: Lh) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.master_entry(lh)?;
            let resp = this.kcall(
                ctx,
                entry.id.node as NodeId,
                FN_TAKE_RECORD,
                Enc::new().bytes(entry.name.as_bytes()).done(),
            )?;
            let mut d = Dec::new(&resp);
            let id = LmrId {
                node: d.u32()?,
                idx: d.u32()?,
            };
            let extents = d.extents()?;
            let mapped = (0..d.u32()?)
                .map(|_| d.u32().map(|n| n as NodeId))
                .collect::<LiteResult<Vec<_>>>()?;
            // Scrub the name binding *now*, immediately after the record was
            // taken — before the fallible chunk frees below. The old
            // ordering (unregister last) leaked the binding whenever a free
            // failed mid-way: the record was gone but the name stayed,
            // pointing at a master that would answer "unknown" forever and
            // blocking re-registration. The trailing u32 guards the scrub:
            // the manager only removes the binding if it still names this
            // master, so a name freed and re-registered by someone else in
            // the meantime is left alone.
            let _ = this.kcall(
                ctx,
                MANAGER_NODE,
                FN_UNREGNAME,
                Enc::new()
                    .bytes(entry.name.as_bytes())
                    .u32(entry.id.node)
                    .done(),
            );
            this.release_storage(ctx, id, &extents, mapped)?;
            let _ = this.kernel.remove_lh(this.pid, lh);
            Ok(())
        })
    }

    /// Frees an LMR's old storage, one `FN_FREE_CHUNKS` per storage node,
    /// then invalidates every mapper of `id` (including ourselves, via
    /// loop-back) so their next access fails fast.
    fn release_storage(
        &mut self,
        ctx: &mut Ctx,
        id: LmrId,
        extents: &[(NodeId, Chunk)],
        mapped: Vec<NodeId>,
    ) -> LiteResult<()> {
        let mut by_node: std::collections::HashMap<NodeId, Vec<u64>> = Default::default();
        for (node, c) in extents {
            by_node.entry(*node).or_default().push(c.addr);
        }
        for (node, addrs) in by_node {
            self.free_chunks(ctx, node, addrs.into_iter())?;
        }
        for node in mapped {
            let _ = self.kcall(
                ctx,
                node,
                FN_INVALIDATE,
                Enc::new().u32(id.node).u32(id.idx).done(),
            );
        }
        Ok(())
    }

    /// Copies one segment: the source's storage node pushes `len` bytes
    /// to the destination — locally if co-located, with a one-sided write
    /// otherwise (§7.1). The remote handler fences both ranges.
    fn copy_segment(&mut self, ctx: &mut Ctx, s: &Segment) -> LiteResult<()> {
        let op = if s.src_node == s.dst_node { 0u8 } else { 1u8 };
        self.kcall(
            ctx,
            s.src_node,
            FN_MEMCPY,
            Enc::new()
                .u8(op)
                .u64(s.src)
                .u64(s.len)
                .u32(s.dst_node as u32)
                .u64(s.dst)
                .done(),
        )
        .map(|_| ())
    }

    /// LT_move (§4.1 master role): migrates the LMR's bytes to `target`
    /// and updates the master record; every other mapper's lh is
    /// invalidated so their next access fails fast and they re-map.
    /// Requires a master lh, and (in this implementation) must run on the
    /// LMR's record-holder node.
    pub fn lt_move(&mut self, ctx: &mut Ctx, lh: Lh, target: NodeId) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.master_entry(lh)?;
            if entry.id.node as NodeId != this.kernel.node() {
                return Err(LiteError::NotMaster);
            }
            let len = entry.location.len();
            let chunks = this.alloc_chunks(ctx, target, len)?;
            let new_loc = Location {
                extents: chunks.into_iter().map(|c| (target, c)).collect(),
            };
            let src_pieces = entry.location.slice(0, len)?;
            for seg in segments(&src_pieces, &new_loc.slice(0, len)?) {
                this.copy_segment(ctx, &seg)?;
            }
            // Swap the record, free the old storage, invalidate mappers.
            let me = this.kernel.node();
            let Some((id, old_loc, mapped)) =
                this.kernel
                    .swap_master_location(&entry.name, me, new_loc.clone())
            else {
                return Err(LiteError::NotMaster);
            };
            this.release_storage(ctx, id, &old_loc.extents, mapped)?;
            // Our own lh keeps its number and points at the new home.
            let fresh = LhEntry::new(id, entry.name, new_loc, Perm::MASTER);
            this.kernel.reinstall_lh(this.pid, lh, fresh);
            Ok(())
        })
    }

    /// Grants `perm` on a named LMR to `node` (master only).
    pub fn lt_grant(&mut self, ctx: &mut Ctx, lh: Lh, node: NodeId, perm: Perm) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let entry = this.master_entry(lh)?;
            this.kcall(
                ctx,
                entry.id.node as NodeId,
                FN_GRANT,
                Enc::new()
                    .bytes(entry.name.as_bytes())
                    .u32(node as u32)
                    .u8(perm_to_byte(perm))
                    .done(),
            )
            .map(|_| ())
        })
    }

    /// LT_write: blocking one-sided write of `data` at `offset` in the
    /// LMR. Returns when the data is remotely visible (§4.2).
    pub fn lt_write(&mut self, ctx: &mut Ctx, lh: Lh, offset: u64, data: &[u8]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            // Failures before the pins return with no side effect and
            // are not recorded in the history (a no-effect op adds no
            // constraint); failures past them may have partially applied
            // and are recorded as failed writes.
            let start = ctx.now();
            let range = (lh, offset, data.len(), Perm::RW);
            this.access(ctx, &[range], |this, ctx, c| {
                let Checked { entry, pieces } = &c[0];
                let pins = this.pin_pieces(ctx, entry, offset, pieces)?;
                let result = this.write_pieces(ctx, pieces, data);
                drop(pins);
                this.record_hist(
                    crate::verify::Key::Reg {
                        node: entry.id.node,
                        idx: entry.id.idx,
                        offset,
                        len: data.len() as u64,
                    },
                    || crate::verify::OpKind::Write {
                        fp: crate::verify::fingerprint(data),
                    },
                    0,
                    result.is_ok(),
                    start,
                    ctx.now(),
                );
                result
            })
        })
    }

    fn write_pieces(
        &mut self,
        ctx: &mut Ctx,
        pieces: &[(NodeId, Chunk)],
        data: &[u8],
    ) -> LiteResult<()> {
        let staged = self.stage(data)?;
        let mut off = 0u64;
        let mut vec_pieces = Vec::with_capacity(pieces.len());
        for (node, c) in pieces {
            vec_pieces.push((
                *node,
                c.addr,
                Chunk {
                    addr: staged + off,
                    len: c.len,
                },
            ));
            off += c.len;
        }
        // Multi-extent writes towards one node chain into a single
        // doorbell batch; single-extent writes post as before.
        let last = self.kernel.rdma_write_vec(ctx, self.prio, &vec_pieces)?;
        self.finish_blocking(ctx, last);
        Ok(())
    }

    /// LT_read: blocking one-sided read into `buf` from `offset`.
    pub fn lt_read(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        buf: &mut [u8],
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let start = ctx.now();
            let range = (lh, offset, buf.len(), Perm::RO);
            this.access(ctx, &[range], |this, ctx, c| {
                let Checked { entry, pieces } = &c[0];
                let pins = this.pin_pieces(ctx, entry, offset, pieces)?;
                let result = this.read_pieces(ctx, pieces, buf);
                drop(pins);
                this.record_hist(
                    crate::verify::Key::Reg {
                        node: entry.id.node,
                        idx: entry.id.idx,
                        offset,
                        len: buf.len() as u64,
                    },
                    || crate::verify::OpKind::Read {
                        // Failed reads are excluded by the checker; fp is
                        // meaningful only on the ok path.
                        fp: if result.is_ok() {
                            crate::verify::fingerprint(buf)
                        } else {
                            0
                        },
                    },
                    0,
                    result.is_ok(),
                    start,
                    ctx.now(),
                );
                result
            })
        })
    }

    fn read_pieces(
        &mut self,
        ctx: &mut Ctx,
        pieces: &[(NodeId, Chunk)],
        buf: &mut [u8],
    ) -> LiteResult<()> {
        Self::ensure(&self.kernel, &mut self.staging, buf.len())?;
        let staged = self.staging.addr;
        let mut off = 0u64;
        let mut last = ctx.now();
        for (node, c) in pieces {
            let dst = [Chunk {
                addr: staged + off,
                len: c.len,
            }];
            let comp =
                self.kernel
                    .rdma_read(ctx, self.prio, *node, c.addr, &dst, c.len as usize)?;
            last = last.max(comp);
            off += c.len;
        }
        self.finish_blocking(ctx, last);
        self.unstage(staged, buf)?;
        Ok(())
    }

    fn finish_blocking(&self, ctx: &mut Ctx, comp: Nanos) {
        ctx.wait_until(comp);
        ctx.work(self.kernel.fabric().cost().cq_poll_ns);
    }

    /// LT_memset: sets `len` bytes at `offset` to `byte`, executed at the
    /// node(s) storing the LMR (§7.1).
    pub fn lt_memset(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        len: usize,
        byte: u8,
    ) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            this.access(ctx, &[(lh, offset, len, Perm::RW)], |this, ctx, c| {
                for (node, c) in &c[0].pieces {
                    this.kcall(
                        ctx,
                        *node,
                        FN_MEMSET,
                        Enc::new().u64(c.addr).u64(c.len).u8(byte).done(),
                    )?;
                }
                Ok(())
            })
        })
    }

    /// LT_memcpy: copies between LMRs. Each source piece is pushed by the
    /// node that stores it — locally if source and destination are
    /// co-located, with a one-sided write otherwise (§7.1).
    pub fn lt_memcpy(
        &mut self,
        ctx: &mut Ctx,
        src_lh: Lh,
        src_off: u64,
        dst_lh: Lh,
        dst_off: u64,
        len: usize,
    ) -> LiteResult<()> {
        self.copy_ranges(ctx, src_lh, src_off, dst_lh, dst_off, len, false)
    }

    /// Shared body of `lt_memcpy`/`lt_memmove`. With `memmove`, an
    /// overlapping copy whose destination sits above its source issues
    /// the segments from the highest address down — each FN_MEMCPY call
    /// buffers its whole segment before writing, so segment order is the
    /// only thing that matters for overlapping ranges.
    #[allow(clippy::too_many_arguments)]
    fn copy_ranges(
        &mut self,
        ctx: &mut Ctx,
        src_lh: Lh,
        src_off: u64,
        dst_lh: Lh,
        dst_off: u64,
        len: usize,
        memmove: bool,
    ) -> LiteResult<()> {
        let ranges = [
            (src_lh, src_off, len, Perm::RO),
            (dst_lh, dst_off, len, Perm::RW),
        ];
        self.syscall(ctx, |this, ctx| {
            this.access(ctx, &ranges, |this, ctx, c| {
                let (src, dst) = (&c[0], &c[1]);
                // A retry after Relocated rebuilds the segments from fresh
                // pieces, so a stale segment list is never re-issued.
                let mut segs = segments(&src.pieces, &dst.pieces);
                let overlaps = src.entry.id == dst.entry.id
                    && src_off < dst_off + len as u64
                    && dst_off < src_off + len as u64;
                if memmove && overlaps && dst_off > src_off {
                    segs.reverse();
                }
                for seg in &segs {
                    this.copy_segment(ctx, seg)?;
                }
                Ok(())
            })
        })
    }

    /// LT_memmove: memcpy with memmove semantics for overlapping ranges
    /// inside one LMR. Each FN_MEMCPY call buffers its whole subrange
    /// before writing, so a single segment can never tear itself; the
    /// overlap hazard is *between* segments — a later segment reading
    /// source bytes an earlier segment already overwrote. Copying
    /// ascending is safe when the destination sits below the source;
    /// descending when it sits above (exactly `memmove`'s rule).
    pub fn lt_memmove(
        &mut self,
        ctx: &mut Ctx,
        src_lh: Lh,
        src_off: u64,
        dst_lh: Lh,
        dst_off: u64,
        len: usize,
    ) -> LiteResult<()> {
        self.copy_ranges(ctx, src_lh, src_off, dst_lh, dst_off, len, true)
    }

    // ------------------------------------------------------------------
    // RPC / messaging
    // ------------------------------------------------------------------

    /// LT_regRPC: binds `func` (≥ [`USER_FUNC_MIN`]) on this node.
    pub fn register_rpc(&self, func: u8) -> LiteResult<()> {
        self.kernel.register_rpc(func)
    }

    /// LT_RPC: calls `func` on `server`; returns the reply.
    pub fn lt_rpc(
        &mut self,
        ctx: &mut Ctx,
        server: NodeId,
        func: u8,
        input: &[u8],
        max_reply: usize,
    ) -> LiteResult<Vec<u8>> {
        if func < USER_FUNC_MIN {
            return Err(LiteError::ReservedFunc { func });
        }
        self.syscall(ctx, |this, ctx| {
            this.call_raw(ctx, server, func, input, max_reply, false)
        })
    }

    /// LT_recvRPC: receives the next call for `func`. The payload move
    /// out of the ring is the single memory move of §5.2.
    pub fn lt_recv_rpc(&mut self, ctx: &mut Ctx, func: u8) -> LiteResult<RpcCall> {
        self.syscall(ctx, |this, ctx| this.recv(ctx, func))
    }

    /// Blocks (up to `op_timeout`) for the next call for `func`.
    fn recv(&mut self, ctx: &mut Ctx, func: u8) -> LiteResult<RpcCall> {
        let timeout = self.kernel.config.op_timeout;
        let inc = self.kernel.pop_rpc(ctx, func, timeout)?;
        self.finish_recv(ctx, inc)
    }

    fn finish_recv(&mut self, ctx: &mut Ctx, inc: crate::kernel::Incoming) -> LiteResult<RpcCall> {
        let client = inc.hdr.src_node as NodeId;
        let input = self.kernel.read_ring_payload(client, &inc)?;
        ctx.work(self.kernel.fabric().cost().memcpy_time(input.len() as u64));
        ctx.work(RPC_META_NS);
        // For remote two-way calls with batching on, defer the
        // ring-release head update: the reply path chains it with the
        // reply into one doorbell batch (one post for §5.1 steps e+f).
        let defer =
            self.kernel.config.batch_posting && inc.hdr.slot != 0 && client != self.kernel.node();
        let pending_head = if defer {
            self.kernel.release_ring_op(client, &inc)
        } else {
            self.kernel.release_ring(ctx, client, &inc)?;
            None
        };
        Ok(RpcCall {
            input,
            src_node: client,
            src_pid: inc.hdr.src_pid,
            route: ReplyRoute::of_hdr(&inc.hdr),
            pending_head: Mutex::new(pending_head),
        })
    }

    /// Non-blocking LT_recvRPC: returns `Ok(None)` when no call is
    /// queued. Lets servers interleave RPC service with other work.
    pub fn lt_try_recv_rpc(&mut self, ctx: &mut Ctx, func: u8) -> LiteResult<Option<RpcCall>> {
        self.syscall(ctx, |this, ctx| {
            match this.kernel.try_pop_rpc(ctx, func)? {
                Some(inc) => this.finish_recv(ctx, inc).map(Some),
                None => Ok(None),
            }
        })
    }

    /// LT_replyRPC: sends the return value for `call`.
    pub fn lt_reply_rpc(&mut self, ctx: &mut Ctx, call: &RpcCall, output: &[u8]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| this.reply(ctx, call, output))
    }

    /// The combined reply-and-receive of §5.2 (one crossing for both).
    pub fn lt_reply_recv(
        &mut self,
        ctx: &mut Ctx,
        call: &RpcCall,
        output: &[u8],
        func: u8,
    ) -> LiteResult<RpcCall> {
        self.syscall(ctx, |this, ctx| {
            this.reply(ctx, call, output)?;
            this.recv(ctx, func)
        })
    }

    fn reply(&mut self, ctx: &mut Ctx, call: &RpcCall, output: &[u8]) -> LiteResult<()> {
        ctx.work(RPC_META_NS);
        let staged = self.stage(output)?;
        let chunks = [Chunk {
            addr: staged,
            len: output.len() as u64,
        }];
        let head = call.pending_head.lock().take();
        self.kernel
            .send_reply_with(ctx, self.prio, call.route, &chunks, output.len(), head)
            .map(|_| ())
    }

    /// LT_send: one-way message to `node` (received via
    /// [`LiteHandle::lt_recv_msg`]).
    pub fn lt_send(&mut self, ctx: &mut Ctx, node: NodeId, data: &[u8]) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            this.call_raw(ctx, node, FN_MSG, data, 0, true).map(|_| ())
        })
    }

    /// Receives the next message sent to this node with LT_send.
    pub fn lt_recv_msg(&mut self, ctx: &mut Ctx) -> LiteResult<(NodeId, Vec<u8>)> {
        self.syscall(ctx, |this, ctx| {
            let call = this.recv(ctx, FN_MSG)?;
            Ok((call.src_node, call.input))
        })
    }

    /// Multicast RPC (§8.4): issues the same call to several servers
    /// concurrently and gathers every reply.
    ///
    /// All-or-nothing view of [`LiteHandle::lt_multicast_rpc_partial`]:
    /// if any destination fails, the first error is returned and the
    /// successful replies are discarded. Replication layers that must
    /// stay available when one destination is down want the partial
    /// variant instead.
    pub fn lt_multicast_rpc(
        &mut self,
        ctx: &mut Ctx,
        servers: &[NodeId],
        func: u8,
        input: &[u8],
        max_reply: usize,
    ) -> LiteResult<Vec<Vec<u8>>> {
        self.lt_multicast_rpc_partial(ctx, servers, func, input, max_reply)?
            .into_iter()
            .collect()
    }

    /// Multicast RPC with per-destination outcomes, in `servers` order.
    ///
    /// The outer `Err` covers only call-wide preconditions (reserved
    /// func, staging/reply-scratch growth); everything per-destination —
    /// ring reservation, posting, the reply wait — lands in that
    /// destination's slot of the returned vector, and a failure towards
    /// one server never blocks the posts to (or discards the replies
    /// from) the others. Every transient resource (completion slots,
    /// header staging cells) is released on every path; a mid-fan-out
    /// error must not leak the resources of the destinations already
    /// posted. Reply cells come from a persistent per-handle scratch
    /// region, so a straggler reply arriving after a slot timeout can
    /// never land in allocator memory that was reused by someone else.
    pub fn lt_multicast_rpc_partial(
        &mut self,
        ctx: &mut Ctx,
        servers: &[NodeId],
        func: u8,
        input: &[u8],
        max_reply: usize,
    ) -> LiteResult<Vec<LiteResult<Vec<u8>>>> {
        if func < USER_FUNC_MIN {
            return Err(LiteError::ReservedFunc { func });
        }
        self.syscall(ctx, |this, ctx| {
            let cfg = this.kernel.config.clone();
            ctx.work(RPC_META_NS);
            // Stage input once; carve one reply cell per destination out of
            // the persistent multicast scratch.
            let cell = max_reply.max(1);
            let staged = this.stage(input)?;
            if this.mcast_reply.is_none() {
                this.mcast_reply = Some(Scratch {
                    addr: this.kernel.alloc.lock().alloc(INIT_SCRATCH as u64)?,
                    cap: INIT_SCRATCH,
                });
            }
            let scratch = this.mcast_reply.as_mut().expect("just initialized");
            Self::ensure(&this.kernel, scratch, cell.saturating_mul(servers.len()))?;
            let reply_base = scratch.addr;
            let total = HEADER_BYTES as u64 + input.len() as u64;
            // Fan-out: per destination, a posted completion slot or the
            // error that stopped it. Failed destinations keep their entry so
            // the gather below stays index-aligned with `servers`.
            let mut pending = Vec::with_capacity(servers.len());
            for (i, &server) in servers.iter().enumerate() {
                let raddr = reply_base + (i * cell) as u64;
                let r = match this.kernel.reserve_ring(ctx, server, total) {
                    Ok(r) => r,
                    Err(e) => {
                        pending.push(Err(e));
                        continue;
                    }
                };
                let (slot_id, slot) = this.kernel.alloc_slot();
                let hdr = MsgHeader {
                    func,
                    slot: slot_id,
                    len: input.len() as u32,
                    reply_addr: raddr,
                    reply_max: max_reply as u32,
                    src_node: this.kernel.node() as u32,
                    src_pid: this.pid,
                    skip: r.skip as u32,
                };
                // Header goes through a tiny transient staging cell so the
                // shared input staging stays untouched.
                let hdr_addr = match this.kernel.alloc.lock().alloc(HEADER_BYTES as u64) {
                    Ok(a) => a,
                    Err(e) => {
                        this.kernel.free_slot(slot_id);
                        pending.push(Err(LiteError::from(e)));
                        continue;
                    }
                };
                let post = this
                    .kernel
                    .fabric()
                    .mem(this.kernel.node())
                    .write(hdr_addr, &hdr.encode())
                    .map_err(LiteError::from)
                    .and_then(|()| {
                        let chunks = [
                            Chunk {
                                addr: hdr_addr,
                                len: HEADER_BYTES as u64,
                            },
                            Chunk {
                                addr: staged,
                                len: input.len() as u64,
                            },
                        ];
                        let dst = this.kernel.ring_remote_addr(server, r.offset)?;
                        let imm = Imm::Request {
                            granule: (r.offset / crate::wire::RING_GRANULE) as u32,
                        };
                        this.kernel.post_write_imm(
                            ctx,
                            this.prio,
                            server,
                            dst,
                            &chunks,
                            total as usize,
                            imm,
                        )
                    });
                if this.kernel.alloc.lock().free(hdr_addr).is_err() {
                    this.kernel.note_cleanup_failure(server, ctx.now());
                }
                match post {
                    Ok(_) => pending.push(Ok((slot_id, slot))),
                    Err(e) => {
                        this.kernel.free_slot(slot_id);
                        pending.push(Err(e));
                    }
                }
            }
            // Gather replies; every posted slot is waited on and freed
            // whatever its outcome.
            let mut results = Vec::with_capacity(pending.len());
            for (i, posted) in pending.into_iter().enumerate() {
                let result = match posted {
                    Ok((slot_id, slot)) => {
                        let waited = slot.wait(ctx, &cfg, cfg.op_timeout);
                        this.kernel.free_slot(slot_id);
                        match waited {
                            Ok(r) if r.ok => {
                                let mut buf = vec![0u8; (r.len as usize).min(cell)];
                                this.unstage(reply_base + (i * cell) as u64, &mut buf)
                                    .map(|()| buf)
                            }
                            Ok(_) => Err(LiteError::UnknownRpc { func }),
                            Err(e) => Err(e),
                        }
                    }
                    Err(e) => Err(e),
                };
                results.push(result);
            }
            Ok(results)
        })
    }

    // ------------------------------------------------------------------
    // Synchronization (§7.2)
    // ------------------------------------------------------------------

    /// Creates a distributed lock owned by this node.
    pub fn lt_create_lock(&mut self, ctx: &mut Ctx) -> LiteResult<LockId> {
        self.syscall(ctx, |this, _| {
            let (addr, _idx) = this.kernel.alloc_lock_cell()?;
            Ok(LockId {
                node: this.kernel.node(),
                addr,
            })
        })
    }

    /// LT_lock: fetch-add fast path; FIFO enqueue at the owner otherwise.
    ///
    /// Fault behavior: an `Err` means this handle does **not** hold the
    /// lock and the lock word has been restored (unwound) whenever the
    /// owner was reachable; retrying `lt_lock` is always safe. The one
    /// unrecoverable case — the owner unreachable with our enqueue fate
    /// unknown — is counted in [`crate::KernelStats::sync_leaks`].
    pub fn lt_lock(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let start = ctx.now();
            let result = this.lock_inner(ctx, lock);
            let end = ctx.now();
            this.record_hist(
                crate::verify::Key::Lock {
                    node: lock.node,
                    addr: lock.addr,
                },
                || crate::verify::OpKind::Lock,
                0,
                result.is_ok(),
                start,
                end,
            );
            if result.is_ok() {
                this.span(OpClass::Lock, lock.node, start, end);
            }
            result
        })
    }

    fn lock_inner(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        let old = self
            .kernel
            .fetch_add(ctx, self.prio, lock.node, lock.addr, 1)?;
        if old == 0 {
            return Ok(());
        }
        // Contended: wait in the owner's FIFO queue (reply == grant).
        // The token names this enqueue attempt; on failure it lets the
        // abort ask the owner what actually happened.
        let token = self.kernel.next_sync_token();
        match self.kcall(
            ctx,
            lock.node,
            FN_LOCK,
            Enc::new().u8(1).u64(lock.addr).u64(token).done(),
        ) {
            Ok(_) => Ok(()),
            Err(e) => {
                // The enqueue's fate is unknown: the request or the
                // grant may have been dropped, or we may merely have
                // timed out while still queued. The per-pair ring is
                // FIFO and drops are terminal, so by the time the abort
                // runs the enqueue either ran or never will.
                match self.lock_abort(ctx, lock, token) {
                    // The grant won the race — we hold the lock.
                    Ok(1) => Ok(()),
                    // Dequeued (0) or never arrived (2): we don't hold
                    // it; roll our fetch_add back so the word stays
                    // consistent.
                    Ok(_) => {
                        self.unwind_lock_word(ctx, lock);
                        Err(e)
                    }
                    // Owner unreachable: our queue entry (if any) is
                    // stranded and the word may stay elevated.
                    Err(_) => {
                        self.kernel.note_sync_leak(lock.node, ctx.now());
                        Err(e)
                    }
                }
            }
        }
    }

    /// Asks the lock owner to cancel enqueue `token`; returns the
    /// owner's answer (0 = dequeued, 1 = already granted, 2 = never
    /// arrived). The owner memoizes the answer per token, so the
    /// bounded retries here are idempotent.
    fn lock_abort(&mut self, ctx: &mut Ctx, lock: LockId, token: u64) -> LiteResult<u8> {
        let payload = Enc::new().u8(3).u64(lock.addr).u64(token).done();
        let mut last = LiteError::Timeout;
        for _ in 0..3 {
            match self.kcall(ctx, lock.node, FN_LOCK, payload.clone()) {
                Ok(resp) => return resp.first().copied().ok_or(LiteError::Remote(0xFB)),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Best-effort rollback of a failed acquire's `fetch_add`.
    fn unwind_lock_word(&mut self, ctx: &mut Ctx, lock: LockId) {
        match self
            .kernel
            .fetch_add(ctx, self.prio, lock.node, lock.addr, u64::MAX)
        {
            Ok(_) => self.kernel.note_lock_unwind(),
            Err(_) => self.kernel.note_sync_leak(lock.node, ctx.now()),
        }
    }

    /// LT_unlock: fetch-sub; hands the lock to the next waiter if any.
    ///
    /// Fault behavior: the release carries a token the owner dedups on,
    /// so the handover is retried internally without ever granting two
    /// waiters. An `Err` means the release state is indeterminate — the
    /// lock is poisoned and the caller must **not** call `lt_unlock`
    /// again (the internal retries are already exhausted; another call
    /// would decrement the lock word a second time). Counted in
    /// [`crate::KernelStats::sync_leaks`].
    pub fn lt_unlock(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let start = ctx.now();
            let result = this.unlock_inner(ctx, lock);
            this.record_hist(
                crate::verify::Key::Lock {
                    node: lock.node,
                    addr: lock.addr,
                },
                || crate::verify::OpKind::Unlock,
                0,
                result.is_ok(),
                start,
                ctx.now(),
            );
            result
        })
    }

    fn unlock_inner(&mut self, ctx: &mut Ctx, lock: LockId) -> LiteResult<()> {
        let old = self
            .kernel
            .fetch_add(ctx, self.prio, lock.node, lock.addr, u64::MAX)?; // -1
        if old == 0 {
            // Unlock of a free lock (app bug or a forbidden retry after
            // a poisoned unlock): restore the word — leaving it at
            // `u64::MAX` would let every subsequent acquire fast-path.
            let _ = self
                .kernel
                .fetch_add(ctx, self.prio, lock.node, lock.addr, 1);
            return Err(LiteError::Internal("unlock of a free lock"));
        }
        if old == 1 {
            return Ok(()); // no waiters
        }
        // Another increment is outstanding: hand the lock over. The
        // release token is generated once and reused verbatim across
        // retries — the owner's dedup on consumed tokens is what makes
        // the retries safe (a release whose ack was lost cannot grant a
        // second waiter). "No waiter yet" (sub-code 3) means the
        // winner's enqueue is still in flight *or* its increment was
        // unwound by an abort; re-reading the word tells the two apart
        // (0 = nothing outstanding, the lock is simply free).
        let token = self.kernel.next_sync_token();
        let payload = Enc::new().u8(2).u64(lock.addr).u64(token).done();
        // Each failed kcall already burns up to one op_timeout, so the
        // attempt budget (not the deadline) bounds the error path; the
        // deadline bounds the fast "no waiter yet" polling loop.
        let deadline = std::time::Instant::now() + self.kernel.config.op_timeout * 4;
        let mut errs = 0;
        let mut last = None;
        loop {
            match self.kcall(ctx, lock.node, FN_LOCK, payload.clone()) {
                Ok(resp) if resp.first() == Some(&3) => {
                    match self
                        .kernel
                        .fetch_add(ctx, self.prio, lock.node, lock.addr, 0)
                    {
                        Ok(0) => return Ok(()),
                        Ok(_) => {}
                        Err(e) => last = Some(e),
                    }
                }
                Ok(_) => return Ok(()),
                Err(e) => {
                    errs += 1;
                    last = Some(e);
                    if errs >= 3 {
                        break;
                    }
                }
            }
            if std::time::Instant::now() >= deadline {
                break;
            }
            // Back off before re-asking: the in-flight enqueue (or the
            // aborting waiter's unwind) needs time to land.
            ctx.work(2_000);
            std::thread::yield_now();
        }
        // The word is already decremented but the handover may or may
        // not have been processed: indeterminate — poisoned.
        self.kernel.note_sync_leak(lock.node, ctx.now());
        Err(last.unwrap_or(LiteError::Timeout))
    }

    /// LT_barrier: blocks until `count` participants arrive at barrier
    /// `id` (coordinated by the manager node).
    pub fn lt_barrier(&mut self, ctx: &mut Ctx, id: u64, count: u32) -> LiteResult<()> {
        self.syscall(ctx, |this, ctx| {
            let start = ctx.now();
            let result = this
                .kcall(
                    ctx,
                    MANAGER_NODE,
                    FN_BARRIER,
                    Enc::new().u64(id).u32(count).done(),
                )
                .map(|_| ());
            let end = ctx.now();
            this.record_hist(
                crate::verify::Key::Barrier { id },
                || crate::verify::OpKind::Barrier { count },
                0,
                result.is_ok(),
                start,
                end,
            );
            if result.is_ok() {
                this.span(OpClass::Barrier, MANAGER_NODE, start, end);
            }
            result
        })
    }

    /// LT_fetch-add on a u64 inside an LMR; returns the previous value.
    pub fn lt_fetch_add(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        delta: u64,
    ) -> LiteResult<u64> {
        self.atomic(ctx, lh, offset, |kernel, ctx, prio, node, addr| {
            kernel.fetch_add(ctx, prio, node, addr, delta)
        })
    }

    /// LT_test-set on a u64 inside an LMR: compare-and-swap
    /// `expect -> new`; returns the previous value (acquired iff it
    /// equals `expect`). A convenience alias of [`Self::lt_cmp_swap`],
    /// kept for the paper's API surface (Table 1).
    pub fn lt_test_set(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        expect: u64,
        new: u64,
    ) -> LiteResult<u64> {
        self.lt_cmp_swap(ctx, lh, offset, expect, new)
    }

    /// Compare-and-swap on a u64 inside an LMR: atomically replaces the
    /// word with `new` iff it currently equals `expect`; returns the
    /// previous value (the CAS won iff it equals `expect`). This is the
    /// primitive OCC commit protocols build on (lock-word acquire and
    /// version-check release), exposed with the same Relocated-healing
    /// and pin discipline as [`Self::lt_fetch_add`]; the datapath records
    /// the CAS in the verification history so `lite::verify` sees lock
    /// traffic.
    pub fn lt_cmp_swap(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        expect: u64,
        new: u64,
    ) -> LiteResult<u64> {
        self.atomic(ctx, lh, offset, |kernel, ctx, prio, node, addr| {
            kernel.cmp_swap(ctx, prio, node, addr, expect, new)
        })
    }

    /// Shared body of the 8-byte atomics: `post` runs against the word's
    /// storage node and physical address.
    fn atomic(
        &mut self,
        ctx: &mut Ctx,
        lh: Lh,
        offset: u64,
        post: impl Fn(&LiteKernel, &mut Ctx, Priority, NodeId, u64) -> LiteResult<u64>,
    ) -> LiteResult<u64> {
        self.syscall(ctx, |this, ctx| {
            this.access(ctx, &[(lh, offset, 8, Perm::RW)], |this, ctx, c| {
                let Checked { entry, pieces } = &c[0];
                // The pin is taken before the atomic posts, so a retry after
                // Relocated never re-applies a landed atomic — and the
                // target address is only read out of the piece list *after*
                // the pin has verified that list against the live mapping.
                // (Extracting it first reads from a snapshot a concurrent
                // eviction may already have invalidated; the pin would still
                // catch it, but only because nothing was cached before it.)
                let pin = this.pin_pieces(ctx, entry, offset, pieces)?;
                // The word must live inside one chunk: `check` passed, so
                // more than one piece means it straddles a chunk boundary.
                let [(node, word)] = pieces[..] else {
                    return Err(LiteError::StraddlesChunk { offset, len: 8 });
                };
                let result = post(&this.kernel, ctx, this.prio, node, word.addr);
                // The guard must outlive the post: eviction drains pins, so
                // the chunk cannot move (or be freed) mid-atomic.
                drop(pin);
                result
            })
        })
    }

    /// Runs `ops` — one-sided writes and atomics on the LMR behind `lh`
    /// — in order, and returns each atomic's old value in chain order.
    ///
    /// The whole chain is one system call and one [`Self::access`]:
    /// every range is checked and pinned before the first post, so an
    /// unknown lh, a missing permission or an out-of-bounds op fails the
    /// chain before any byte lands. Runs of ops towards one node go out
    /// as one doorbell chain on one QP, and the call waits once, for
    /// the last completion. A one-op chain, and every chain with
    /// `batch_posting` off (the doorbell ablation), runs each op as its
    /// own call, exactly as if issued through [`Self::lt_write`],
    /// [`Self::lt_fetch_add`] and [`Self::lt_cmp_swap`] one by one.
    pub fn lt_chain(&mut self, ctx: &mut Ctx, lh: Lh, ops: &[ChainOp]) -> LiteResult<Vec<u64>> {
        if ops.len() < 2 || !self.kernel.config.batch_posting {
            return self.chain_unbatched(ctx, lh, ops);
        }
        self.syscall(ctx, |this, ctx| {
            let start = ctx.now();
            let ranges: Vec<_> = ops
                .iter()
                .map(|op| {
                    let (offset, len) = op.range();
                    (lh, offset, len, Perm::RW)
                })
                .collect();
            this.access(ctx, &ranges, |this, ctx, checked| {
                let mut pins = Vec::with_capacity(ops.len());
                for (op, c) in ops.iter().zip(checked) {
                    pins.push(this.pin_pieces(ctx, &c.entry, op.range().0, &c.pieces)?);
                }
                // Build every descriptor before the first post; write
                // payloads are staged back to back in the scratch region.
                let staged_len = ops.iter().map(|op| match op {
                    ChainOp::Write { data, .. } => data.len(),
                    _ => 0,
                });
                Self::ensure(&this.kernel, &mut this.staging, staged_len.sum())?;
                let mem = Arc::clone(this.kernel.fabric().mem(this.kernel.node()));
                let mut staged = this.staging.addr;
                let mut kops = Vec::with_capacity(ops.len());
                let mut atomics = Vec::new();
                for (op, Checked { pieces, .. }) in ops.iter().zip(checked) {
                    // An atomic's word must live inside one chunk.
                    let word = || match pieces[..] {
                        [(node, word)] => Ok((node, word.addr)),
                        _ => Err(LiteError::StraddlesChunk {
                            offset: op.range().0,
                            len: 8,
                        }),
                    };
                    match *op {
                        ChainOp::Write { data, .. } => {
                            mem.write(staged, data)?;
                            for (node, c) in pieces {
                                let src = vec![Chunk {
                                    addr: staged,
                                    len: c.len,
                                }];
                                kops.push(Op::write(*node, c.addr, src, c.len as usize));
                                staged += c.len;
                            }
                        }
                        ChainOp::FetchAdd { delta, .. } => {
                            let (node, addr) = word()?;
                            atomics.push(kops.len());
                            kops.push(Op::FetchAdd { node, addr, delta });
                        }
                        ChainOp::CmpSwap { expect, new, .. } => {
                            let (node, addr) = word()?;
                            atomics.push(kops.len());
                            kops.push(Op::CmpSwap {
                                node,
                                addr,
                                expect,
                                new,
                            });
                        }
                    }
                }
                let result = this.kernel.rdma_chain(ctx, this.prio, &kops);
                if let Ok(comps) = &result {
                    let last = comps.iter().map(|c| c.stamp).fold(ctx.now(), Nanos::max);
                    this.finish_blocking(ctx, last);
                }
                // The guards outlive every post: eviction drains pins.
                drop(pins);
                for (op, c) in ops.iter().zip(checked) {
                    if let ChainOp::Write { offset, data } = *op {
                        this.record_hist(
                            crate::verify::Key::Reg {
                                node: c.entry.id.node,
                                idx: c.entry.id.idx,
                                offset,
                                len: data.len() as u64,
                            },
                            || crate::verify::OpKind::Write {
                                fp: crate::verify::fingerprint(data),
                            },
                            0,
                            result.is_ok(),
                            start,
                            ctx.now(),
                        );
                    }
                }
                let comps = result?;
                Ok(atomics.into_iter().map(|k| comps[k].value).collect())
            })
        })
    }

    /// [`Self::lt_chain`] without a doorbell chain: every range is
    /// checked first (for free — a bad op still fails the whole chain
    /// before any byte lands, charging one call), then each op runs as
    /// its own call. A stale (relocated) range is left to the op's own
    /// call to refresh.
    fn chain_unbatched(&mut self, ctx: &mut Ctx, lh: Lh, ops: &[ChainOp]) -> LiteResult<Vec<u64>> {
        let bad = ops.iter().find_map(|op| {
            let (offset, len) = op.range();
            match self
                .kernel
                .lookup_lh(self.pid, lh)
                .and_then(|e| e.check(offset, len, Perm::RW))
            {
                Ok(_) | Err(LiteError::Relocated) => None,
                Err(e) => Some(e),
            }
        });
        if let Some(e) = bad {
            return self.syscall(ctx, |_, _| Err(e));
        }
        let mut values = Vec::new();
        for op in ops {
            match *op {
                ChainOp::Write { offset, data } => self.lt_write(ctx, lh, offset, data)?,
                ChainOp::FetchAdd { offset, delta } => {
                    values.push(self.lt_fetch_add(ctx, lh, offset, delta)?)
                }
                ChainOp::CmpSwap {
                    offset,
                    expect,
                    new,
                } => values.push(self.lt_cmp_swap(ctx, lh, offset, expect, new)?),
            }
        }
        Ok(values)
    }
}

impl Drop for LiteHandle {
    fn drop(&mut self) {
        let node = self.kernel.node();
        let mut failures = 0;
        {
            let mut a = self.kernel.alloc.lock();
            let mcast = self.mcast_reply.as_ref().map(|s| s.addr);
            for addr in [self.staging.addr, self.reply.addr]
                .into_iter()
                .chain(mcast)
            {
                if a.free(addr).is_err() {
                    failures += 1;
                }
            }
        }
        // Count leaked scratch regions (outside the allocator lock —
        // note_cleanup_failure walks the observability surface). No Ctx
        // in Drop, so the trace stamp is 0.
        for _ in 0..failures {
            self.kernel.note_cleanup_failure(node, 0);
        }
    }
}

fn map_status(code: u8) -> LiteError {
    match code {
        1 => LiteError::Remote(1),
        2 => LiteError::NameNotFound {
            name: String::new(),
        },
        3 => LiteError::NotMaster,
        4 => LiteError::Relocated,
        other => LiteError::Remote(other),
    }
}

fn named_err(e: LiteError, name: &str) -> LiteError {
    match e {
        LiteError::NameNotFound { .. } => LiteError::NameNotFound {
            name: name.to_string(),
        },
        other => other,
    }
}

/// One checked range of an access: the lh entry and the physical pieces
/// the range maps to.
struct Checked {
    entry: LhEntry,
    pieces: Vec<(NodeId, Chunk)>,
}

/// One `FN_MEMCPY` call: `len` bytes from `src` on `src_node` to `dst`
/// on `dst_node`.
struct Segment {
    src_node: NodeId,
    src: u64,
    dst_node: NodeId,
    dst: u64,
    len: u64,
}

/// Walks a source and a destination piece list covering the same bytes
/// in lockstep, cutting them into segments that each lie inside one
/// source piece and one destination piece, in ascending address order.
fn segments(src: &[(NodeId, Chunk)], dst: &[(NodeId, Chunk)]) -> Vec<Segment> {
    let (mut si, mut di) = (0usize, 0usize);
    let (mut s_used, mut d_used) = (0u64, 0u64);
    let mut segs = Vec::new();
    while si < src.len() && di < dst.len() {
        let (s_node, s_c) = &src[si];
        let (d_node, d_c) = &dst[di];
        let len = (s_c.len - s_used).min(d_c.len - d_used);
        segs.push(Segment {
            src_node: *s_node,
            src: s_c.addr + s_used,
            dst_node: *d_node,
            dst: d_c.addr + d_used,
            len,
        });
        s_used += len;
        d_used += len;
        if s_used == s_c.len {
            si += 1;
            s_used = 0;
        }
        if d_used == d_c.len {
            di += 1;
            d_used = 0;
        }
    }
    segs
}
