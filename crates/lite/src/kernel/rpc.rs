//! The RPC plane: completion slots, per-function queues, ring
//! reservation/release, reply routing, and the shared polling thread
//! (§5.1, §5.2, §6.1).
//!
//! Everything here speaks [`Op`] descriptors through the node's
//! datapath; the only NIC-adjacent artifact left is the loop-back
//! delivery, which fabricates a completion into the shared receive CQ.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rnic::qp::RecvEntry;
use rnic::{NodeId, Wc, WcOpcode};
use simnet::{Ctx, Nanos};
use smem::Chunk;

use super::datapath::{DataPath, Op};
use super::{LiteKernel, FN_MSG, USER_FUNC_MIN};
use crate::config::{LiteConfig, ADAPTIVE_SPIN_NS, IMM_DISPATCH_NS, RPC_META_NS};
use crate::error::{LiteError, LiteResult};
use crate::qos::Priority;
use crate::ring::{ClientRing, Reservation, ServerRing};
use crate::wire::{Imm, MsgHeader, HEADER_BYTES, RING_GRANULE};

/// Simulation-internal cost of a loop-back delivery (RPC to self).
const LOOPBACK_NS: Nanos = 400;

/// A per-call completion slot: the simulation analogue of §5.2's shared
/// user/kernel page through which the LITE library observes completion
/// without a kernel-to-user crossing.
pub(crate) struct CallSlot {
    state: Mutex<Option<SlotResult>>,
    cv: Condvar,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotResult {
    pub stamp: Nanos,
    pub len: u32,
    pub ok: bool,
}

impl CallSlot {
    fn new() -> Self {
        CallSlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, r: SlotResult) {
        *self.state.lock() = Some(r);
        self.cv.notify_all();
    }

    /// Blocks for the result; models the adaptive busy-check-then-sleep
    /// wait of the LITE library (§5.2).
    pub(crate) fn wait(
        &self,
        ctx: &mut Ctx,
        cfg: &LiteConfig,
        timeout: Duration,
    ) -> LiteResult<SlotResult> {
        let mut st = self.state.lock();
        let r = loop {
            match *st {
                Some(r) => break r,
                None => {
                    if self.cv.wait_for(&mut st, timeout).timed_out() && st.is_none() {
                        return Err(LiteError::Timeout);
                    }
                }
            }
        };
        drop(st);
        let gap = r.stamp.saturating_sub(ctx.now());
        if cfg.adaptive_poll {
            // Busy-check briefly, then sleep until completion.
            ctx.cpu.charge(gap.min(ADAPTIVE_SPIN_NS));
        } else {
            ctx.cpu.charge(gap);
        }
        ctx.wait_until(r.stamp);
        Ok(r)
    }
}

/// An incoming RPC parked in a function queue, payload still in the ring.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Decoded header.
    pub hdr: MsgHeader,
    /// Ring byte offset of the message start.
    pub ring_offset: u64,
    /// Virtual arrival stamp.
    pub stamp: Nanos,
}

/// Queue of incoming calls for one RPC function id.
pub(crate) struct RpcQueue {
    q: Mutex<std::collections::VecDeque<Incoming>>,
    cv: Condvar,
}

impl RpcQueue {
    pub(super) fn new() -> Self {
        RpcQueue {
            q: Mutex::new(std::collections::VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, inc: Incoming) {
        self.q.lock().push_back(inc);
        self.cv.notify_one();
    }

    fn pop(&self, timeout: Duration) -> Option<Incoming> {
        let mut q = self.q.lock();
        loop {
            if let Some(inc) = q.pop_front() {
                return Some(inc);
            }
            if self.cv.wait_for(&mut q, timeout).timed_out() {
                return q.pop_front();
            }
        }
    }

    fn try_pop(&self) -> Option<Incoming> {
        self.q.lock().pop_front()
    }
}

/// Where to send a (possibly delayed) reply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyRoute {
    pub node: u32,
    pub slot: u32,
    pub reply_addr: u64,
    pub reply_max: u32,
}

impl ReplyRoute {
    pub(crate) fn of_hdr(hdr: &MsgHeader) -> Self {
        ReplyRoute {
            node: hdr.src_node,
            slot: hdr.slot,
            reply_addr: hdr.reply_addr,
            reply_max: hdr.reply_max,
        }
    }
}

/// Reconstructs a monotonic head position from its truncated 30-bit
/// granule counter, relative to the current head (which it can only be
/// ahead of, by less than the wrap period).
fn reconstruct_head(cur: u64, granule30: u32) -> u64 {
    let cur_g = (cur / RING_GRANULE) & ((1 << 30) - 1);
    let delta = (granule30 as u64).wrapping_sub(cur_g) & ((1 << 30) - 1);
    // Heads only move forward; a stale (reordered) update decodes as a
    // huge delta — ignore it by treating > half the period as stale.
    if delta > (1 << 29) {
        return cur;
    }
    cur + delta * RING_GRANULE
}

impl LiteKernel {
    pub(super) fn client_ring(&self, server: NodeId) -> LiteResult<Arc<ClientRing>> {
        self.client_rings
            .read()
            .get(server)
            .and_then(|r| r.clone())
            .ok_or(LiteError::NodeDown { node: server })
    }

    pub(super) fn server_ring(&self, client: NodeId) -> LiteResult<Arc<ServerRing>> {
        self.server_rings
            .read()
            .get(client)
            .and_then(|r| r.clone())
            .ok_or(LiteError::NodeDown { node: client })
    }

    /// Ensures the RPC ring pair towards `server` exists, wiring it on
    /// first use under the directory's connect lock (incremental
    /// membership: boot wires no rings except self-loopback). The wiring
    /// is client-driven and installs the *server's* ring state before
    /// the local client view, so a request can never arrive at a server
    /// that lacks ring state.
    pub(crate) fn ensure_ring(&self, server: NodeId) -> LiteResult<()> {
        if self
            .client_rings
            .read()
            .get(server)
            .is_some_and(Option::is_some)
        {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let dir = self.try_dir()?;
        let _g = dir.lock_connect();
        // Double-check under the lock (another thread may have wired
        // the pair while this one waited).
        if self
            .client_rings
            .read()
            .get(server)
            .ok_or(LiteError::NodeDown { node: server })?
            .is_some()
        {
            return Ok(());
        }
        let srv = dir
            .kernel(server)
            .ok_or(LiteError::NodeDown { node: server })?;
        let base = srv.alloc_ring(self.node)?;
        let size = srv.config.rpc_ring_bytes;
        srv.install_server_ring(self.node, Arc::new(ServerRing::new(base, size)?));
        self.client_rings.write()[server] = Some(Arc::new(ClientRing::new(base, size)?));
        self.note_mesh_ns(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Posts a write-imm carrying `len` bytes from `src_chunks` to
    /// `(dst_node, dst_addr)`. Loop-back (self) deliveries bypass the NIC
    /// but flow through the same shared CQ and poller; remote ones are an
    /// [`Op::Write`] with immediate data.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_write_imm(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        dst_node: NodeId,
        dst_addr: u64,
        src_chunks: &[Chunk],
        len: usize,
        imm: Imm,
    ) -> LiteResult<Nanos> {
        if dst_node == self.node {
            let data = super::chunkio::read_chunks(self.mem(), src_chunks, len)?;
            self.mem().write(dst_addr, &data)?;
            let cost = self.fabric.cost();
            ctx.work(cost.memcpy_time(len as u64));
            let stamp = ctx.now() + LOOPBACK_NS;
            let mut wc = Wc::new(0, WcOpcode::RecvRdmaWithImm, len, stamp);
            wc.imm = Some(imm.encode());
            wc.src = Some((self.node, u64::MAX)); // loopback marker
            self.shared_recv_cq.push(wc);
            return Ok(stamp);
        }
        let op = Op::Write {
            dst_node,
            dst_addr,
            src: src_chunks.to_vec(),
            len,
            imm: Some(imm.encode()),
        };
        Ok(self.try_datapath()?.post(ctx, prio, &op)?.stamp)
    }

    /// Reserves ring space towards `server`, waiting (bounded) for head
    /// updates when the ring is full.
    pub(crate) fn reserve_ring(
        &self,
        ctx: &mut Ctx,
        server: NodeId,
        total_len: u64,
    ) -> LiteResult<Reservation> {
        // The single chokepoint every outgoing RPC passes through: wire
        // the ring pair lazily here.
        self.ensure_ring(server)?;
        let ring = self.client_ring(server)?;
        let deadline = std::time::Instant::now() + self.config.op_timeout;
        loop {
            match ring.try_reserve(total_len) {
                Ok(r) => return Ok(r),
                Err(LiteError::RingFull) => {
                    if std::time::Instant::now() > deadline {
                        return Err(LiteError::RingFull);
                    }
                    let (_, stamp) = ring.head();
                    ctx.wait_until(stamp);
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Ring slot → physical address at the server.
    pub(crate) fn ring_remote_addr(&self, server: NodeId, offset: u64) -> LiteResult<u64> {
        Ok(self.client_ring(server)?.remote_base + offset)
    }

    /// Registers a fresh completion slot.
    pub(crate) fn alloc_slot(&self) -> (u32, Arc<CallSlot>) {
        loop {
            let id = self.next_slot.fetch_add(1, Ordering::Relaxed) & ((1 << 30) - 1);
            if id == 0 {
                continue;
            }
            let slot = Arc::new(CallSlot::new());
            if self.slots.insert_if_absent(id, Arc::clone(&slot)) {
                return (id, slot);
            }
        }
    }

    /// Drops a completion slot (after wait or timeout).
    pub(crate) fn free_slot(&self, id: u32) {
        self.slots.remove(&id);
    }

    /// Binds an RPC function id to a fresh queue (LT_regRPC).
    pub fn register_rpc(&self, func: u8) -> LiteResult<()> {
        if func < USER_FUNC_MIN {
            return Err(LiteError::ReservedFunc { func });
        }
        self.queues.with_shard_of(&func, |m| {
            m.entry(func).or_insert_with(|| Arc::new(RpcQueue::new()));
        });
        Ok(())
    }

    pub(crate) fn queue_of(&self, func: u8) -> LiteResult<Arc<RpcQueue>> {
        self.queues.get(&func).ok_or(LiteError::UnknownRpc { func })
    }

    /// Blocking dequeue of the next call for `func` (LT_recvRPC's kernel
    /// half).
    pub(crate) fn pop_rpc(
        &self,
        ctx: &mut Ctx,
        func: u8,
        timeout: Duration,
    ) -> LiteResult<Incoming> {
        let q = self.queue_of(func)?;
        let inc = q.pop(timeout).ok_or(LiteError::Timeout)?;
        let gap = inc.stamp.saturating_sub(ctx.now());
        if self.config.adaptive_poll {
            ctx.cpu.charge(gap.min(ADAPTIVE_SPIN_NS));
        } else {
            ctx.cpu.charge(gap);
        }
        ctx.wait_until(inc.stamp);
        Ok(inc)
    }

    /// Non-blocking dequeue (used by servers that interleave work).
    pub(crate) fn try_pop_rpc(&self, ctx: &mut Ctx, func: u8) -> LiteResult<Option<Incoming>> {
        let q = self.queue_of(func)?;
        Ok(q.try_pop().inspect(|inc| {
            ctx.wait_until(inc.stamp);
        }))
    }

    /// Copies a parked message's payload out of the ring.
    pub(crate) fn read_ring_payload(&self, client: NodeId, inc: &Incoming) -> LiteResult<Vec<u8>> {
        let ring = self.server_ring(client)?;
        let mut buf = vec![0u8; inc.hdr.len as usize];
        self.mem()
            .read(ring.base + inc.ring_offset + HEADER_BYTES as u64, &mut buf)?;
        Ok(buf)
    }

    /// Frees the ring span of a consumed message and pushes the head
    /// update to the client (§5.1 step f).
    pub(crate) fn release_ring(
        &self,
        ctx: &mut Ctx,
        client: NodeId,
        inc: &Incoming,
    ) -> LiteResult<()> {
        let total = HEADER_BYTES as u64 + inc.hdr.len as u64;
        let ring = self.server_ring(client)?;
        if let Some(head) = ring.consume(inc.ring_offset, total, inc.hdr.skip as u64) {
            let sink = self
                .try_dir()?
                .head_sink(client)
                .ok_or(LiteError::NodeDown { node: client })?;
            let imm = Imm::Head {
                granule: ((head / RING_GRANULE) & ((1 << 30) - 1)) as u32,
            };
            self.post_write_imm(ctx, Priority::High, client, sink, &[], 0, imm)?;
        }
        Ok(())
    }

    /// Like [`LiteKernel::release_ring`], but returns the head-update as
    /// an unposted [`Op`] so the caller can chain it with a reply in one
    /// doorbell batch. Remote clients only — loop-back deliveries must go
    /// through [`LiteKernel::release_ring`]. Deferring a head update is
    /// safe: heads are monotonic cumulative positions, so a later release
    /// covers an earlier one.
    pub(crate) fn release_ring_op(&self, client: NodeId, inc: &Incoming) -> Option<Op> {
        debug_assert_ne!(client, self.node, "loopback releases are not deferrable");
        let total = HEADER_BYTES as u64 + inc.hdr.len as u64;
        let ring = self.server_ring(client).ok()?;
        let head = ring.consume(inc.ring_offset, total, inc.hdr.skip as u64)?;
        let sink = self.try_dir().ok()?.head_sink(client)?;
        let imm = Imm::Head {
            granule: ((head / RING_GRANULE) & ((1 << 30) - 1)) as u32,
        };
        Some(Op::Write {
            dst_node: client,
            dst_addr: sink,
            src: Vec::new(),
            len: 0,
            imm: Some(imm.encode()),
        })
    }

    /// Sends a reply (LT_replyRPC's kernel half): writes the payload to
    /// the client's reply buffer and signals its slot.
    pub(crate) fn send_reply(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        route: ReplyRoute,
        src_chunks: &[Chunk],
        len: usize,
    ) -> LiteResult<Nanos> {
        self.send_reply_with(ctx, prio, route, src_chunks, len, None)
    }

    /// [`LiteKernel::send_reply`] with an optional deferred head-update
    /// op: when present, head and reply are chained through one doorbell
    /// batch towards the client — one host post and one QP-context touch
    /// for both (§5.1 steps e+f amortized).
    pub(crate) fn send_reply_with(
        &self,
        ctx: &mut Ctx,
        prio: Priority,
        route: ReplyRoute,
        src_chunks: &[Chunk],
        len: usize,
        head: Option<Op>,
    ) -> LiteResult<Nanos> {
        if route.slot == 0 {
            // One-way message: nothing to send (deferral never happens
            // for slot-0 traffic; flush defensively).
            if let Some(h) = head {
                self.try_datapath()?.post(ctx, Priority::High, &h)?;
            }
            return Ok(ctx.now());
        }
        if len > route.reply_max as usize {
            // The reply fails, but the ring span was consumed: the head
            // update must still reach the client.
            if let Some(h) = head {
                self.try_datapath()?.post(ctx, Priority::High, &h)?;
            }
            return Err(LiteError::TooLarge {
                len,
                max: route.reply_max as usize,
            });
        }
        let dst = route.node as NodeId;
        let reply_imm = Imm::Reply { slot: route.slot };
        if dst == self.node {
            debug_assert!(head.is_none(), "loopback replies are never deferred");
            return self.post_write_imm(
                ctx,
                prio,
                dst,
                route.reply_addr,
                src_chunks,
                len,
                reply_imm,
            );
        }
        let reply = Op::Write {
            dst_node: dst,
            dst_addr: route.reply_addr,
            src: src_chunks.to_vec(),
            len,
            imm: Some(reply_imm.encode()),
        };
        match head {
            Some(h) => {
                let comps = self.try_datapath()?.post_many(ctx, prio, &[h, reply])?;
                let stamp = comps.last().map(|c| c.stamp).unwrap_or_else(|| ctx.now());
                Ok(stamp)
            }
            None => Ok(self.try_datapath()?.post(ctx, prio, &reply)?.stamp),
        }
    }

    /// Sends an error reply (consumes no reply-buffer space).
    pub(super) fn send_error_reply(&self, ctx: &mut Ctx, route: ReplyRoute) -> LiteResult<()> {
        if route.slot == 0 {
            return Ok(());
        }
        self.post_write_imm(
            ctx,
            Priority::High,
            route.node as NodeId,
            route.reply_addr,
            &[],
            0,
            Imm::ReplyErr { slot: route.slot },
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // The shared polling thread (§5.1/§6.1: one per node).
    // ------------------------------------------------------------------

    pub(super) fn poll_loop(self: Arc<Self>) {
        let mut ctx = Ctx::with_meter(Arc::clone(&self.poller_cpu));
        let cost = self.fabric.cost().clone();
        let spin = !self.config.adaptive_poll;
        while !self.shutdown.load(Ordering::Acquire) {
            let Some(wc) =
                self.shared_recv_cq
                    .poll_blocking(&mut ctx, &cost, spin, Duration::from_millis(50))
            else {
                if self.shared_recv_cq.is_closed() {
                    break;
                }
                continue;
            };
            let (src_node, src_qp) = wc.src.unwrap_or((self.node, u64::MAX));
            // Repost the consumed receive credit (not for loop-backs,
            // which never consumed one).
            if src_qp != u64::MAX {
                self.shared_rq.post(RecvEntry {
                    wr_id: 0,
                    sge: None,
                });
                ctx.work(cost.post_wr_ns);
                if src_node != self.node {
                    // Traffic from a peer is proof of life: revive it
                    // for the liveness monitor without waiting for a
                    // probe (a restarted node announces itself with its
                    // first RPC).
                    if let Some(dp) = self.datapath.get() {
                        dp.mark_peer_alive(src_node);
                    }
                }
            }
            ctx.work(IMM_DISPATCH_NS);
            match Imm::decode(wc.imm.unwrap_or(0)) {
                Imm::Request { granule } => {
                    self.counters.count_rpc();
                    let offset = granule as u64 * RING_GRANULE;
                    self.handle_request(&mut ctx, src_node, offset, wc.ready_at);
                }
                Imm::Reply { slot } => {
                    if let Some(s) = self.slots.get(&slot) {
                        s.complete(SlotResult {
                            stamp: ctx.now(),
                            len: wc.byte_len as u32,
                            ok: true,
                        });
                    }
                }
                Imm::ReplyErr { slot } => {
                    if let Some(s) = self.slots.get(&slot) {
                        s.complete(SlotResult {
                            stamp: ctx.now(),
                            len: 0,
                            ok: false,
                        });
                    }
                }
                Imm::Head { granule } => {
                    if let Ok(ring) = self.client_ring(src_node) {
                        let (cur, _) = ring.head();
                        ring.update_head(reconstruct_head(cur, granule), ctx.now());
                    }
                }
            }
        }
    }

    fn handle_request(&self, ctx: &mut Ctx, client: NodeId, offset: u64, stamp: Nanos) {
        let Ok(ring) = self.server_ring(client) else {
            return;
        };
        let ring_base = ring.base;
        let mut hbuf = [0u8; HEADER_BYTES];
        if self.mem().read(ring_base + offset, &mut hbuf).is_err() {
            return;
        }
        let Ok(hdr) = MsgHeader::decode(&hbuf) else {
            return;
        };
        let inc = Incoming {
            hdr,
            ring_offset: offset,
            stamp,
        };
        if hdr.func >= USER_FUNC_MIN || hdr.func == FN_MSG {
            match self.queues.get(&hdr.func) {
                Some(q) => q.push(inc),
                None => {
                    // No handler bound: error-reply and release the ring.
                    let _ = self.release_ring(ctx, client, &inc);
                    let _ = self.send_error_reply(ctx, ReplyRoute::of_hdr(&hdr));
                }
            }
            return;
        }
        // Kernel service: read payload, free the ring, run the handler.
        let payload = match self.read_ring_payload(client, &inc) {
            Ok(p) => p,
            Err(_) => return,
        };
        let _ = self.release_ring(ctx, client, &inc);
        ctx.work(RPC_META_NS);
        let route = ReplyRoute::of_hdr(&hdr);
        match self.kernel_service(ctx, &hdr, &payload) {
            Ok(Some(resp)) => {
                let _ = self.reply_bytes(ctx, route, &resp);
            }
            Ok(None) => {} // delayed reply (locks, barriers) or one-way
            Err(_) => {
                let _ = self.send_error_reply(ctx, route);
            }
        }
    }

    /// Stages `bytes` in a scratch allocation and write-imm's them as a
    /// reply. Used by poller-side handlers (user replies go through the
    /// caller's staging buffer instead).
    pub(super) fn reply_bytes(
        &self,
        ctx: &mut Ctx,
        route: ReplyRoute,
        bytes: &[u8],
    ) -> LiteResult<()> {
        if route.slot == 0 {
            return Ok(());
        }
        let addr = {
            let mut a = self.alloc.lock();
            a.alloc(bytes.len().max(1) as u64)?
        };
        self.mem().write(addr, bytes)?;
        let chunks = [Chunk {
            addr,
            len: bytes.len() as u64,
        }];
        let r = self.send_reply(ctx, Priority::High, route, &chunks, bytes.len());
        self.alloc.lock().free(addr)?;
        r.map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_reconstruction() {
        // Simple forward movement.
        assert_eq!(reconstruct_head(0, 10), 10 * RING_GRANULE);
        let cur = 100 * RING_GRANULE;
        assert_eq!(reconstruct_head(cur, 100), cur, "no movement");
        assert_eq!(reconstruct_head(cur, 150), 150 * RING_GRANULE);
        // Stale update (behind current) is ignored.
        assert_eq!(reconstruct_head(cur, 50), cur);
        // Across the 30-bit wrap.
        let near_wrap = ((1u64 << 30) - 2) * RING_GRANULE;
        let new = reconstruct_head(near_wrap, 3);
        assert_eq!(new, near_wrap + 5 * RING_GRANULE);
    }
}
