//! The replicated KV service proper: leader, followers, replicator, and
//! the client. See the crate docs and DESIGN.md §15 for the protocol.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;

use lite::{Lh, LiteCluster, LiteError, LiteHandle, Perm, Priority, USER_FUNC_MIN};
use lite_log::LiteLog;
use simnet::Ctx;

use crate::{KvError, KvResult};

/// Offset the three service functions claim above `spec.func_base`.
const FN_PUT: u8 = 0;
const FN_GET: u8 = 1;
const FN_REPL: u8 = 2;

/// GET reply status bytes.
const GET_HIT: u8 = 0;
const GET_MISS: u8 = 1;
const GET_BEHIND: u8 = 2;

/// PUT reply status bytes.
const PUT_OK: u8 = 0;
const PUT_STORE_FULL: u8 = 1;
const PUT_LOG_FULL: u8 = 2;

/// How long a follower sits out of the replication fan-out after a
/// failed multicast before the replicator probes it again (rounds).
const DOWN_ROUNDS: u32 = 20;

/// Value arena allocations are rounded up to this, so in-place
/// overwrites absorb small size changes.
const ARENA_ALIGN: u64 = 8;

/// Static description of one KV service instance.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Service name; prefixes every LMR the service allocates.
    pub name: String,
    /// Node hosting the leader (write path + ordering log).
    pub leader: usize,
    /// Follower replica nodes (read path + redundancy).
    pub followers: Vec<usize>,
    /// First of three consecutive RPC function ids (PUT/GET/REPL).
    pub func_base: u8,
    /// Byte capacity of the ordering log ring.
    pub log_capacity: u64,
    /// Byte capacity of each replica's value arena.
    pub arena_bytes: u64,
    /// Largest value a client may read back (sizes reply buffers).
    pub max_value: usize,
    /// Max updates streamed per replication multicast.
    pub repl_batch: usize,
    /// Per-node artificial apply cost (virtual ns per update), for
    /// modelling deliberately slow consumer replicas.
    pub slow_followers: Vec<(usize, u64)>,
}

impl KvSpec {
    /// A spec with defaults sized for tests and CI smoke runs.
    pub fn new(name: &str, leader: usize, followers: &[usize]) -> KvSpec {
        KvSpec {
            name: name.to_string(),
            leader,
            followers: followers.to_vec(),
            func_base: USER_FUNC_MIN,
            log_capacity: 4 << 20,
            arena_bytes: 1 << 20,
            max_value: 4096,
            repl_batch: 32,
            slow_followers: Vec::new(),
        }
    }

    /// All replica nodes, leader first.
    pub fn replicas(&self) -> Vec<usize> {
        let mut v = vec![self.leader];
        v.extend_from_slice(&self.followers);
        v
    }

    fn fn_put(&self) -> u8 {
        self.func_base + FN_PUT
    }
    fn fn_get(&self) -> u8 {
        self.func_base + FN_GET
    }
    fn fn_repl(&self) -> u8 {
        self.func_base + FN_REPL
    }

    fn apply_delay(&self, node: usize) -> u64 {
        self.slow_followers
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(0, |(_, d)| *d)
    }
}

/// Per-replica state shared between the service threads and the
/// accessors tests use.
struct ReplicaState {
    node: usize,
    /// Highest sequence number applied to this replica's store.
    applied: AtomicU64,
    /// Log offset of the record carrying `applied + 1`.
    next_off: AtomicU64,
    /// Test hook: a paused follower acks but does not apply, modelling
    /// a stalled consumer; it catches up from the log when resumed.
    paused: AtomicBool,
}

/// One record of the event log, as returned by [`KvClient::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvEvent {
    /// Log offset of this record.
    pub offset: u64,
    /// Offset of the next record (pass back to continue scanning).
    pub next: u64,
    /// Key written.
    pub key: Vec<u8>,
    /// Value written.
    pub value: Vec<u8>,
}

/// Read-consistency mode of a [`KvClient`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Reads take whatever the chosen replica has applied — possibly
    /// stale, never blocking on replication.
    Eventual,
    /// Reads carry the session's last written sequence number; a replica
    /// that has not applied that far reports "behind" and the client
    /// retries on the leader.
    ReadYourWrites,
}

// ---------------------------------------------------------------------------
// Wire encoding (little-endian throughout).
// ---------------------------------------------------------------------------

fn enc_put(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + key.len() + value.len());
    b.extend_from_slice(&(key.len() as u16).to_le_bytes());
    b.extend_from_slice(key);
    b.extend_from_slice(value);
    b
}

fn dec_put(req: &[u8]) -> Option<(&[u8], &[u8])> {
    let klen = u16::from_le_bytes(req.get(0..2)?.try_into().ok()?) as usize;
    let key = req.get(2..2 + klen)?;
    Some((key, &req[2 + klen..]))
}

fn enc_get(need_seq: u64, key: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 + key.len());
    b.extend_from_slice(&need_seq.to_le_bytes());
    b.extend_from_slice(key);
    b
}

struct Frame {
    seq: u64,
    off: u64,
    key: Vec<u8>,
    value: Vec<u8>,
}

fn enc_frames(frames: &[Frame]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    for f in frames {
        b.extend_from_slice(&f.seq.to_le_bytes());
        b.extend_from_slice(&f.off.to_le_bytes());
        b.extend_from_slice(&(f.key.len() as u16).to_le_bytes());
        b.extend_from_slice(&(f.value.len() as u32).to_le_bytes());
        b.extend_from_slice(&f.key);
        b.extend_from_slice(&f.value);
    }
    b
}

fn dec_frames(req: &[u8]) -> Option<Vec<Frame>> {
    let count = u32::from_le_bytes(req.get(0..4)?.try_into().ok()?) as usize;
    let mut pos = 4usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = u64::from_le_bytes(req.get(pos..pos + 8)?.try_into().ok()?);
        let off = u64::from_le_bytes(req.get(pos + 8..pos + 16)?.try_into().ok()?);
        let klen = u16::from_le_bytes(req.get(pos + 16..pos + 18)?.try_into().ok()?) as usize;
        let vlen = u32::from_le_bytes(req.get(pos + 18..pos + 22)?.try_into().ok()?) as usize;
        pos += 22;
        let key = req.get(pos..pos + klen)?.to_vec();
        pos += klen;
        let value = req.get(pos..pos + vlen)?.to_vec();
        pos += vlen;
        out.push(Frame {
            seq,
            off,
            key,
            value,
        });
    }
    Some(out)
}

/// Size of the log record a (key, value) update commits as.
fn update_record_size(key: &[u8], value: &[u8]) -> u64 {
    LiteLog::record_size(&[key, value])
}

// ---------------------------------------------------------------------------
// Replica store: a bump-allocated value arena (an LMR, so mm tiering
// applies) plus an in-memory index.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Loc {
    off: u64,
    len: u32,
    cap: u32,
}

struct Store {
    arena: Lh,
    cap: u64,
    bump: u64,
    index: HashMap<Vec<u8>, Loc>,
}

impl Store {
    fn create(h: &mut LiteHandle, ctx: &mut Ctx, spec: &KvSpec, node: usize) -> Store {
        let arena = h
            .lt_malloc(
                ctx,
                node,
                spec.arena_bytes,
                &format!("{}.arena{}", spec.name, node),
                Perm::RW,
            )
            .expect("kv replica arena allocation");
        Store {
            arena,
            cap: spec.arena_bytes,
            bump: 0,
            index: HashMap::new(),
        }
    }

    fn aligned(len: usize) -> u64 {
        (len.max(1) as u64).div_ceil(ARENA_ALIGN) * ARENA_ALIGN
    }

    /// Whether `apply` would succeed — checked on the leader *before*
    /// the log commit, so only applyable updates enter the order.
    fn can_apply(&self, key: &[u8], vlen: usize) -> bool {
        match self.index.get(key) {
            Some(loc) if vlen <= loc.cap as usize => true,
            _ => self.bump + Self::aligned(vlen) <= self.cap,
        }
    }

    fn apply(
        &mut self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        key: &[u8],
        value: &[u8],
    ) -> KvResult<()> {
        if let Some(loc) = self.index.get_mut(key) {
            if value.len() <= loc.cap as usize {
                if !value.is_empty() {
                    h.lt_write(ctx, self.arena, loc.off, value)?;
                }
                loc.len = value.len() as u32;
                return Ok(());
            }
        }
        let need = Self::aligned(value.len());
        if self.bump + need > self.cap {
            return Err(KvError::StoreFull);
        }
        let off = self.bump;
        if !value.is_empty() {
            h.lt_write(ctx, self.arena, off, value)?;
        }
        self.bump += need;
        self.index.insert(
            key.to_vec(),
            Loc {
                off,
                len: value.len() as u32,
                cap: need as u32,
            },
        );
        Ok(())
    }

    fn get(&self, h: &mut LiteHandle, ctx: &mut Ctx, key: &[u8]) -> KvResult<Option<Vec<u8>>> {
        let Some(loc) = self.index.get(key) else {
            return Ok(None);
        };
        let mut buf = vec![0u8; loc.len as usize];
        if !buf.is_empty() {
            h.lt_read(ctx, self.arena, loc.off, &mut buf)?;
        }
        Ok(Some(buf))
    }
}

// ---------------------------------------------------------------------------
// Service.
// ---------------------------------------------------------------------------

/// A running KV service: one leader thread, one replicator thread, and
/// one thread per follower, all polling their node's RPC queues.
pub struct KvService {
    spec: KvSpec,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    replicas: Vec<Arc<ReplicaState>>,
    lag: Arc<AtomicU64>,
}

impl KvService {
    /// Creates the log and arenas, starts all service threads, and
    /// returns once every replica is serving.
    pub fn spawn(cluster: &Arc<LiteCluster>, spec: KvSpec) -> KvService {
        let stop = Arc::new(AtomicBool::new(false));
        let lag = Arc::new(AtomicU64::new(0));
        let replicas: Vec<Arc<ReplicaState>> = spec
            .replicas()
            .iter()
            .map(|&node| {
                Arc::new(ReplicaState {
                    node,
                    applied: AtomicU64::new(0),
                    next_off: AtomicU64::new(0),
                    paused: AtomicBool::new(false),
                })
            })
            .collect();
        // Leader creates the shared LMRs before followers open them;
        // everyone (plus the spawner) meets at `ready` before traffic.
        let log_ready = Arc::new(Barrier::new(1 + spec.followers.len()));
        let ready = Arc::new(Barrier::new(2 + spec.followers.len()));
        let mut threads = Vec::new();

        // Leader.
        threads.push({
            let cluster = Arc::clone(cluster);
            let spec = spec.clone();
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&replicas[0]);
            let log_ready = Arc::clone(&log_ready);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let mut h = cluster.attach(spec.leader).expect("leader attach");
                let mut ctx = Ctx::new();
                let log =
                    LiteLog::create(&mut h, &mut ctx, spec.leader, &spec.name, spec.log_capacity)
                        .expect("kv log create");
                let mut store = Store::create(&mut h, &mut ctx, &spec, spec.leader);
                h.register_rpc(spec.fn_put()).expect("register PUT");
                h.register_rpc(spec.fn_get()).expect("register GET");
                log_ready.wait();
                ready.wait();
                serve_leader(&spec, &stop, &state, &mut h, &mut ctx, &log, &mut store);
            })
        });

        // Followers.
        for (i, &node) in spec.followers.iter().enumerate() {
            let cluster = Arc::clone(cluster);
            let spec = spec.clone();
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&replicas[1 + i]);
            let log_ready = Arc::clone(&log_ready);
            let ready = Arc::clone(&ready);
            threads.push(std::thread::spawn(move || {
                log_ready.wait();
                let mut h = cluster.attach(node).expect("follower attach");
                let mut ctx = Ctx::new();
                let log = LiteLog::open(&mut h, &mut ctx, &spec.name, spec.log_capacity)
                    .expect("kv log open");
                let mut store = Store::create(&mut h, &mut ctx, &spec, node);
                h.register_rpc(spec.fn_repl()).expect("register REPL");
                h.register_rpc(spec.fn_get()).expect("register GET");
                ready.wait();
                serve_follower(&spec, &stop, &state, &mut h, &mut ctx, &log, &mut store);
            }));
        }

        ready.wait();

        // Replicator (runs on the leader node with its own handle).
        threads.push({
            let cluster = Arc::clone(cluster);
            let spec = spec.clone();
            let stop = Arc::clone(&stop);
            let leader_state = Arc::clone(&replicas[0]);
            let lag = Arc::clone(&lag);
            std::thread::spawn(move || {
                run_replicator(&cluster, &spec, &stop, &leader_state, &lag);
            })
        });

        KvService {
            spec,
            stop,
            threads,
            replicas,
            lag,
        }
    }

    /// The spec this service was started with.
    pub fn spec(&self) -> &KvSpec {
        &self.spec
    }

    /// Sequence number the leader has committed and applied.
    pub fn committed_seq(&self) -> u64 {
        self.replicas[0].applied.load(Ordering::Acquire)
    }

    /// Sequence number `node`'s replica has applied.
    pub fn applied_seq(&self, node: usize) -> u64 {
        self.replicas
            .iter()
            .find(|r| r.node == node)
            .map_or(0, |r| r.applied.load(Ordering::Acquire))
    }

    /// Last replication lag the replicator computed (committed minus
    /// the slowest follower's acknowledged seq).
    pub fn replication_lag(&self) -> u64 {
        self.lag.load(Ordering::Acquire)
    }

    /// Stalls `node`'s apply loop: it keeps acking (so the leader sees
    /// it alive) but stops applying, and its staleness grows.
    pub fn pause_follower(&self, node: usize) {
        if let Some(r) = self.replicas.iter().find(|r| r.node == node) {
            r.paused.store(true, Ordering::Release);
        }
    }

    /// Resumes `node`; it catches up from the log on the next frame.
    pub fn resume_follower(&self, node: usize) {
        if let Some(r) = self.replicas.iter().find(|r| r.node == node) {
            r.paused.store(false, Ordering::Release);
        }
    }

    /// Stops all service threads and waits for them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Poll backoff when a service thread finds its queues empty.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

fn serve_leader(
    spec: &KvSpec,
    stop: &AtomicBool,
    state: &ReplicaState,
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    log: &LiteLog,
    store: &mut Store,
) {
    while !stop.load(Ordering::Acquire) {
        let mut busy = false;
        // Writes: order through the log, apply locally, ack with seq.
        while let Ok(Some(call)) = h.lt_try_recv_rpc(ctx, spec.fn_put()) {
            busy = true;
            let reply = match dec_put(&call.input) {
                Some((key, value)) if store.can_apply(key, value.len()) => {
                    match log.commit(h, ctx, &[key, value]) {
                        Ok(off) => {
                            store.apply(h, ctx, key, value).expect("checked apply");
                            let seq = state.applied.load(Ordering::Acquire) + 1;
                            state.applied.store(seq, Ordering::Release);
                            state
                                .next_off
                                .store(off + update_record_size(key, value), Ordering::Release);
                            let mut r = vec![PUT_OK];
                            r.extend_from_slice(&seq.to_le_bytes());
                            r
                        }
                        Err(LiteError::OutOfBounds { .. }) => vec![PUT_LOG_FULL],
                        Err(_) => vec![PUT_LOG_FULL],
                    }
                }
                Some(_) => vec![PUT_STORE_FULL],
                None => vec![PUT_STORE_FULL],
            };
            let _ = h.lt_reply_rpc(ctx, &call, &reply);
        }
        busy |= serve_gets(spec, state, h, ctx, store);
        if !busy {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Drains the GET queue; shared by leader and followers. Returns
/// whether any call was served.
fn serve_gets(
    spec: &KvSpec,
    state: &ReplicaState,
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    store: &Store,
) -> bool {
    let mut busy = false;
    while let Ok(Some(call)) = h.lt_try_recv_rpc(ctx, spec.fn_get()) {
        busy = true;
        let applied = state.applied.load(Ordering::Acquire);
        let reply = match call.input.get(0..8) {
            Some(need) => {
                let need = u64::from_le_bytes(need.try_into().expect("8 bytes"));
                let key = &call.input[8..];
                if need > applied {
                    let mut r = vec![GET_BEHIND];
                    r.extend_from_slice(&applied.to_le_bytes());
                    r
                } else {
                    match store.get(h, ctx, key) {
                        Ok(Some(v)) => {
                            let mut r = vec![GET_HIT];
                            r.extend_from_slice(&applied.to_le_bytes());
                            r.extend_from_slice(&v);
                            r
                        }
                        _ => {
                            let mut r = vec![GET_MISS];
                            r.extend_from_slice(&applied.to_le_bytes());
                            r
                        }
                    }
                }
            }
            None => vec![GET_MISS, 0, 0, 0, 0, 0, 0, 0, 0],
        };
        let _ = h.lt_reply_rpc(ctx, &call, &reply);
    }
    busy
}

fn serve_follower(
    spec: &KvSpec,
    stop: &AtomicBool,
    state: &ReplicaState,
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    log: &LiteLog,
    store: &mut Store,
) {
    let delay = spec.apply_delay(state.node);
    let mut idle_rounds = 0u32;
    while !stop.load(Ordering::Acquire) {
        let mut busy = false;
        // Replication stream: always drained and acked promptly (the
        // leader must never block on a slow consumer); applied unless
        // paused. A gap means missed frames — recover from the log.
        while let Ok(Some(call)) = h.lt_try_recv_rpc(ctx, spec.fn_repl()) {
            busy = true;
            if !state.paused.load(Ordering::Acquire) {
                for f in dec_frames(&call.input).unwrap_or_default() {
                    apply_stream_frame(state, h, ctx, log, store, &f, delay);
                }
            }
            let mut r = Vec::with_capacity(16);
            r.extend_from_slice(&state.applied.load(Ordering::Acquire).to_le_bytes());
            r.extend_from_slice(&state.next_off.load(Ordering::Acquire).to_le_bytes());
            let _ = h.lt_reply_rpc(ctx, &call, &r);
        }
        busy |= serve_gets(spec, state, h, ctx, store);
        if busy {
            idle_rounds = 0;
            continue;
        }
        // Idle anti-entropy: a follower that was paused (or missed the
        // stream entirely) pulls itself forward from the log without
        // waiting for the leader to send anything.
        idle_rounds += 1;
        if idle_rounds.is_multiple_of(20) && !state.paused.load(Ordering::Acquire) {
            if let Ok(target) = log.committed(h, ctx) {
                if target > state.applied.load(Ordering::Acquire) {
                    catch_up_from_log(state, h, ctx, log, store, target, delay, spec.repl_batch);
                    continue;
                }
            }
        }
        std::thread::sleep(IDLE_SLEEP);
    }
}

/// Replays log records with one-sided reads until `state` reaches
/// `target` or `max` records were applied (the LITE move: recovery
/// reads the leader's memory directly, never its CPU). Returns whether
/// `target` was reached.
#[allow(clippy::too_many_arguments)]
fn catch_up_from_log(
    state: &ReplicaState,
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    log: &LiteLog,
    store: &mut Store,
    target: u64,
    delay: u64,
    max: usize,
) -> bool {
    let mut applied = state.applied.load(Ordering::Acquire);
    let mut steps = 0usize;
    while applied < target && steps < max {
        let off = state.next_off.load(Ordering::Acquire);
        let Ok(txn) = log.read_at(h, ctx, off) else {
            return false; // record not readable yet; retry later
        };
        let [key, value] = &txn.entries[..] else {
            return false;
        };
        if store.apply(h, ctx, key, value).is_err() {
            return false;
        }
        if delay > 0 {
            ctx.work(delay);
        }
        applied += 1;
        steps += 1;
        state.applied.store(applied, Ordering::Release);
        state
            .next_off
            .store(off + update_record_size(key, value), Ordering::Release);
    }
    applied >= target
}

/// Applies one replication frame, first closing any gap (missed
/// frames) by replaying the log.
fn apply_stream_frame(
    state: &ReplicaState,
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    log: &LiteLog,
    store: &mut Store,
    frame: &Frame,
    delay: u64,
) {
    if frame.seq <= state.applied.load(Ordering::Acquire) {
        return; // duplicate (leader re-streamed after a lost ack)
    }
    if !catch_up_from_log(state, h, ctx, log, store, frame.seq - 1, delay, usize::MAX) {
        return;
    }
    if store.apply(h, ctx, &frame.key, &frame.value).is_err() {
        return;
    }
    if delay > 0 {
        ctx.work(delay);
    }
    state.applied.store(frame.seq, Ordering::Release);
    state.next_off.store(
        frame.off + update_record_size(&frame.key, &frame.value),
        Ordering::Release,
    );
}

/// The leader-side replication pump: streams committed updates to the
/// followers in multicast batches, tracks acknowledgements, publishes
/// the lag gauge, and cleans the log behind the slowest ack.
fn run_replicator(
    cluster: &Arc<LiteCluster>,
    spec: &KvSpec,
    stop: &AtomicBool,
    leader: &ReplicaState,
    lag: &AtomicU64,
) {
    let mut h = cluster.attach(spec.leader).expect("replicator attach");
    let mut ctx = Ctx::new();
    let log = LiteLog::open(&mut h, &mut ctx, &spec.name, spec.log_capacity)
        .expect("replicator log open");
    let n = spec.followers.len();
    let mut acked = vec![0u64; n]; // seq each follower acknowledged
    let mut acked_off = vec![0u64; n]; // their matching log offsets
    let mut down = vec![0u32; n]; // rounds left in a failure backoff
    let mut repl_seq = 0u64; // last seq streamed
    let mut repl_off = 0u64; // offset of seq repl_seq + 1
    let mut cleaned = 0u64; // log bytes already reclaimed
    let mut idle_rounds = 0u32;
    while !stop.load(Ordering::Acquire) {
        for d in down.iter_mut() {
            *d = d.saturating_sub(1);
        }
        let committed = leader.applied.load(Ordering::Acquire);
        // Read the next batch out of the log (one-sided; the leader's
        // serving thread is not involved).
        let mut frames = Vec::new();
        while repl_seq < committed && frames.len() < spec.repl_batch {
            let Ok(txn) = log.read_at(&mut h, &mut ctx, repl_off) else {
                break;
            };
            let [key, value] = &txn.entries[..] else {
                break;
            };
            let size = update_record_size(key, value);
            frames.push(Frame {
                seq: repl_seq + 1,
                off: repl_off,
                key: key.clone(),
                value: value.clone(),
            });
            repl_seq += 1;
            repl_off += size;
        }
        if frames.is_empty() {
            // Nothing new to stream. If some follower still trails
            // (paused, recovering, restarted), probe it with an empty
            // batch now and then: followers pull the data from the log
            // themselves, but only an ack round updates our lag view.
            idle_rounds += 1;
            let trailing = n > 0 && acked.iter().any(|&a| a < committed);
            if !trailing || !idle_rounds.is_multiple_of(20) {
                publish_lag(lag, committed, &acked, n);
                std::thread::sleep(IDLE_SLEEP);
                continue;
            }
        } else {
            idle_rounds = 0;
        }
        let buf = enc_frames(&frames);
        // Skip followers sitting out a failure backoff; a partial
        // multicast failure towards one follower must not stall the
        // stream to the others (they recover from the log anyway).
        let targets: Vec<(usize, usize)> = spec
            .followers
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| down[*i] == 0)
            .collect();
        let nodes: Vec<usize> = targets.iter().map(|&(_, node)| node).collect();
        if !nodes.is_empty() {
            let results = h
                .lt_multicast_rpc_partial(&mut ctx, &nodes, spec.fn_repl(), &buf, 32)
                .unwrap_or_else(|_| vec![Err(LiteError::Timeout); nodes.len()]);
            for ((i, _), result) in targets.iter().zip(results) {
                match result {
                    Ok(rep) if rep.len() >= 16 => {
                        let seq = u64::from_le_bytes(rep[0..8].try_into().expect("8"));
                        let off = u64::from_le_bytes(rep[8..16].try_into().expect("8"));
                        acked[*i] = acked[*i].max(seq);
                        acked_off[*i] = acked_off[*i].max(off);
                    }
                    _ => down[*i] = DOWN_ROUNDS,
                }
            }
        }
        publish_lag(lag, committed, &acked, n);
        // Ack-aware cleaning: reclaim only what every follower has
        // durably applied. A dead follower pins the log; staleness is
        // bounded by the log capacity (DESIGN.md §15).
        let min_off = acked_off.iter().copied().min().unwrap_or(repl_off);
        if min_off.saturating_sub(cleaned) >= spec.log_capacity / 4 {
            if let Ok(txns) = log.clean(&mut h, &mut ctx, min_off - cleaned) {
                for t in &txns {
                    let refs: Vec<&[u8]> = t.entries.iter().map(|e| e.as_slice()).collect();
                    cleaned += LiteLog::record_size(&refs);
                }
            }
        }
    }
}

fn publish_lag(lag: &AtomicU64, committed: u64, acked: &[u64], n: usize) {
    let slowest = if n == 0 {
        committed
    } else {
        acked.iter().copied().min().unwrap_or(0)
    };
    lag.store(committed.saturating_sub(slowest), Ordering::Release);
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// A client session against a [`KvService`].
pub struct KvClient {
    h: LiteHandle,
    leader: usize,
    replicas: Vec<usize>,
    func_base: u8,
    max_value: usize,
    mode: SessionMode,
    session_seq: u64,
    prefer: Option<usize>,
    rr: usize,
    log: Option<LiteLog>,
    log_name: String,
    log_capacity: u64,
}

impl KvClient {
    /// Opens a session from `node` against the service described by
    /// `spec` (pass the same spec the service was spawned with).
    pub fn connect(
        cluster: &Arc<LiteCluster>,
        node: usize,
        spec: &KvSpec,
        mode: SessionMode,
    ) -> KvResult<KvClient> {
        Ok(KvClient {
            h: cluster.attach(node)?,
            leader: spec.leader,
            replicas: spec.replicas(),
            func_base: spec.func_base,
            max_value: spec.max_value,
            mode,
            session_seq: 0,
            prefer: None,
            rr: 0,
            log: None,
            log_name: spec.name.clone(),
            log_capacity: spec.log_capacity,
        })
    }

    /// Pins reads to one replica instead of round-robining.
    pub fn prefer_replica(&mut self, node: usize) {
        self.prefer = Some(node);
    }

    /// QoS priority for this session's subsequent operations.
    pub fn set_priority(&mut self, prio: Priority) {
        self.h.set_priority(prio);
    }

    /// Highest sequence number this session has written.
    pub fn session_seq(&self) -> u64 {
        self.session_seq
    }

    /// Writes `key = value` through the leader; returns the assigned
    /// sequence number.
    pub fn put(&mut self, ctx: &mut Ctx, key: &[u8], value: &[u8]) -> KvResult<u64> {
        let rep = self.h.lt_rpc(
            ctx,
            self.leader,
            self.func_base + FN_PUT,
            &enc_put(key, value),
            16,
        )?;
        match rep.first() {
            Some(&PUT_OK) if rep.len() >= 9 => {
                let seq = u64::from_le_bytes(rep[1..9].try_into().expect("8"));
                self.session_seq = self.session_seq.max(seq);
                Ok(seq)
            }
            Some(&PUT_STORE_FULL) => Err(KvError::StoreFull),
            Some(&PUT_LOG_FULL) => Err(KvError::LogFull),
            _ => Err(KvError::BadReply),
        }
    }

    /// Reads `key` from a replica (preferred or round-robin). In
    /// read-your-writes mode a lagging replica answers "behind" and the
    /// read retries on the leader; a replica that cannot be reached at
    /// all fails over to the leader too.
    pub fn get(&mut self, ctx: &mut Ctx, key: &[u8]) -> KvResult<Option<Vec<u8>>> {
        let replica = self.prefer.unwrap_or_else(|| {
            let r = self.replicas[self.rr % self.replicas.len()];
            self.rr += 1;
            r
        });
        let need = match self.mode {
            SessionMode::Eventual => 0,
            SessionMode::ReadYourWrites => self.session_seq,
        };
        let max_reply = 9 + self.max_value;
        if replica != self.leader {
            let rep = self.h.lt_rpc(
                ctx,
                replica,
                self.func_base + FN_GET,
                &enc_get(need, key),
                max_reply,
            );
            match rep.as_deref().map(Self::dec_get) {
                Ok(Ok(Some(hit))) => return Ok(hit),
                Ok(Ok(None)) => {} // behind: fall through to the leader
                Ok(Err(e)) => return Err(e),
                Err(_) => {} // unreachable replica: fail over
            }
        }
        // The leader applies synchronously, so need_seq 0 suffices.
        let rep = self.h.lt_rpc(
            ctx,
            self.leader,
            self.func_base + FN_GET,
            &enc_get(0, key),
            max_reply,
        )?;
        match Self::dec_get(&rep)? {
            Some(hit) => Ok(hit),
            None => Err(KvError::BadReply), // the leader is never behind
        }
    }

    /// `Ok(Some(hit))` = served (hit is the optional value);
    /// `Ok(None)` = replica behind the session.
    #[allow(clippy::type_complexity)]
    fn dec_get(rep: &[u8]) -> KvResult<Option<Option<Vec<u8>>>> {
        match rep.first() {
            Some(&GET_HIT) if rep.len() >= 9 => Ok(Some(Some(rep[9..].to_vec()))),
            Some(&GET_MISS) => Ok(Some(None)),
            Some(&GET_BEHIND) => Ok(None),
            _ => Err(KvError::BadReply),
        }
    }

    /// Scans the event log (the service's write order) starting at
    /// `from` (0 = the beginning, or a previous event's `next`),
    /// returning at most `max` events. Reads the log with one-sided
    /// operations — no server thread is involved.
    pub fn events(&mut self, ctx: &mut Ctx, from: u64, max: usize) -> KvResult<Vec<KvEvent>> {
        if self.log.is_none() {
            self.log = Some(LiteLog::open(
                &mut self.h,
                ctx,
                &self.log_name,
                self.log_capacity,
            )?);
        }
        let log = self.log.as_ref().expect("just opened");
        let mut off = from;
        let mut out = Vec::new();
        while out.len() < max {
            match log.read_at(&mut self.h, ctx, off) {
                Ok(txn) => {
                    let [key, value] = &txn.entries[..] else {
                        return Err(KvError::BadReply);
                    };
                    let next = off + update_record_size(key, value);
                    out.push(KvEvent {
                        offset: off,
                        next,
                        key: key.clone(),
                        value: value.clone(),
                    });
                    off = next;
                }
                // Unwritten/scrubbed record: end of the committed log.
                Err(LiteError::Remote(0xA0)) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }
}
