//! The OCC core: versioned record tables and the transaction commit
//! protocol.
//!
//! # Table layout (one LMR, home on the creating node)
//!
//! ```text
//! [ meta 64 B ][ decision slots ][ records ]
//!
//! slot   = header u64 | lease u64 | count u64 | max_writes × entry
//! entry  = rec_idx u64 | old_version u64 | payload (rounded to 8)
//! record = version word u64 | payload (rounded to 8)
//! ```
//!
//! # Version / lock words
//!
//! An **unlocked** record's version word has bit 0 clear; committed
//! writes bump it by 2. A **locked** word encodes the committing
//! transaction:
//!
//! ```text
//! bit 0      : 1 (locked)
//! bits 1..17 : decision slot index
//! bits 17..49: lease expiry (host-wall ms, low 32 bits)
//! bits 49..64: slot epoch (low 15 bits)
//! ```
//!
//! # Commit protocol
//!
//! Five round trips for a transaction whose reads all fall in its write
//! set; every multi-op step is one [`LiteHandle::lt_chain`], so its ops
//! share a doorbell and stay ordered on one QP.
//!
//! 1. **Claim a slot** on the table's home: CAS the header from a
//!    claimable state (`FREE`/`DRAINED`) to `(epoch+1, UNDECIDED)`. The
//!    CAS goes straight out from the header this handle cached; on a
//!    miss it returns the current header, so no separate read is needed.
//! 2. **Publish** the redo log (write set with old versions and new
//!    payloads), then the lease word, as one chain. The redo lands
//!    *before* the lease, so a lease whose epoch matches the header
//!    certifies a complete redo.
//! 3. **Lock the write set**: one chain CASes every version word, in
//!    ascending record order, from its expected version to the lock
//!    word. If a CAS loses, the locks won above the first loser are
//!    unwound and the per-record retry loop resumes at the loser: the
//!    committer only ever waits while holding an ascending prefix.
//! 4. **Validate** the read set with one chain of zero fetch-adds: every
//!    read-but-not-written record must still carry the version observed
//!    by [`Txn::read`] (write-set records were validated by the lock CAS
//!    itself). Then **decide**: CAS the slot header
//!    `UNDECIDED -> COMMITTED`, alone. This single word is the
//!    transaction's atomic commit point.
//! 5. **Apply, release, drain** as one chain: every staged payload, then
//!    each lock word CAS to `old_version + 2`, then the slot
//!    `COMMITTED -> DRAINED`, making it claimable again only after every
//!    lock word referencing it is gone.
//!
//! Every abort path unwinds: locks CAS back to their old versions (one
//! chain), the slot is finalized `ABORTED` and drained.
//!
//! # Crash recovery
//!
//! A committer that dies mid-protocol leaves lock words behind. Leases
//! make them reclaimable: any transaction that runs into an **expired**
//! lock word reads the owning slot, finalizes it — steal-aborting an
//! `UNDECIDED` slot via the same header CAS the owner would have used
//! to commit, so the decision stays atomic — and then settles *every*
//! redo entry: roll forward (`COMMITTED`: copy the redo payload, CAS
//! the lock word to `old+2`) or roll back (`ABORTED`: CAS to `old`).
//! Settling the whole redo before the slot drains is what keeps lock
//! words from outliving the slot metadata that explains them.
//!
//! Leases are **host-wall** milliseconds (simnet virtual clocks are
//! per-thread and unsynchronized, so they cannot order a crashed
//! committer against its recoverer). A live committer re-checks its own
//! lease once, before posting the apply chain; once expired it stops
//! touching the table and reports [`TxnError::Indeterminate`] — recovery
//! owns the outcome. The check-then-post window is not atomic, so leases
//! must exceed the worst-case commit latency.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

use lite::verify::{fingerprint, proc_id, TxnLog, TxnOp, TxnOutcome};
use lite::{ChainOp, Lh, LiteError, LiteHandle, Perm};
use simnet::{Ctx, Nanos};

/// Errors surfaced by the transaction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction lost an OCC race and aborted cleanly; retry it.
    /// `validation` is set when a read-set version check failed (the
    /// OCC conflict signal proper) rather than lock contention or slot
    /// exhaustion.
    Conflict {
        /// Whether read-set re-validation (not lock contention) failed.
        validation: bool,
    },
    /// The commit outcome is unknown (lease expired mid-commit or a
    /// crash hook fired): the transaction may or may not be durable,
    /// and recovery — not the issuer — will settle it.
    Indeterminate,
    /// Malformed use of the API (payload too large, write set over the
    /// table's `max_writes`, record out of range).
    Invalid(&'static str),
    /// An underlying LITE operation failed.
    Lite(LiteError),
}

impl From<LiteError> for TxnError {
    fn from(e: LiteError) -> Self {
        TxnError::Lite(e)
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict { validation: true } => write!(f, "conflict (validation failed)"),
            TxnError::Conflict { validation: false } => write!(f, "conflict (contention)"),
            TxnError::Indeterminate => write!(f, "indeterminate commit outcome"),
            TxnError::Invalid(why) => write!(f, "invalid: {why}"),
            TxnError::Lite(e) => write!(f, "lite: {e}"),
        }
    }
}

/// Result alias for the transaction layer.
pub type TxnResult<T> = Result<T, TxnError>;

/// Shape of a [`TxnTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Number of records.
    pub records: u64,
    /// Payload bytes per record (rounded up to 8 internally).
    pub payload: usize,
    /// Decision slots (concurrent committers the table can serve).
    pub slots: u16,
    /// Max write-set size per transaction (sizes the redo area).
    pub max_writes: usize,
    /// Lock/slot lease in host-wall milliseconds. Must exceed the
    /// worst-case lock-to-release latency of a healthy commit.
    pub lease_ms: u64,
}

impl TableSpec {
    /// A spec with default concurrency knobs (32 slots, 16-write
    /// transactions, 50 ms leases).
    pub fn new(records: u64, payload: usize) -> Self {
        TableSpec {
            records,
            payload,
            slots: 32,
            max_writes: 16,
            lease_ms: 50,
        }
    }
}

// Slot header states (low 4 bits; epoch in the high 60).
const S_FREE: u64 = 0;
const S_UNDECIDED: u64 = 1;
const S_COMMITTED: u64 = 2;
const S_ABORTED: u64 = 3;
const S_DRAINED: u64 = 4;

const MAGIC: u64 = 0x4c54_584e_0000_0001; // "LTXN" v1
const META_LEN: u64 = 64;

/// Bounded snapshot attempts before a read reports a conflict. Sized
/// so the accumulated backoff comfortably outlasts a default lease:
/// a reader parked on a healthy committer's lock must still be waiting
/// when the lease expires and recovery becomes legal.
const READ_ATTEMPTS: u32 = 512;
/// Bounded CAS attempts per lock acquisition.
const LOCK_ATTEMPTS: u32 = 16;

/// Host-wall milliseconds since a process-global base (never 0). Leases
/// deliberately use host time, not simnet virtual time: virtual clocks
/// are per-thread and cannot order a crashed committer's silence
/// against a recovering peer's progress.
fn now_ms() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    base.elapsed().as_millis() as u64 + 1
}

fn lock_word(slot: u16, epoch: u64, expiry_ms: u64) -> u64 {
    1 | ((slot as u64) << 1) | ((expiry_ms & 0xffff_ffff) << 17) | ((epoch & 0x7fff) << 49)
}

fn is_locked(w: u64) -> bool {
    w & 1 == 1
}

fn lock_slot(w: u64) -> u16 {
    ((w >> 1) & 0xffff) as u16
}

fn lock_expiry(w: u64) -> u64 {
    (w >> 17) & 0xffff_ffff
}

fn lock_epoch15(w: u64) -> u64 {
    w >> 49
}

fn lock_expired(w: u64) -> bool {
    (now_ms() & 0xffff_ffff) > lock_expiry(w)
}

/// Whether a slot header can be claimed (`FREE` or `DRAINED`).
fn claimable(hdr: u64) -> bool {
    matches!(hdr & 0xf, S_FREE | S_DRAINED)
}

/// Where to stop a commit mid-protocol without unwinding — the
/// crash-of-committer hook the recovery tests and chaos sweeps drive.
/// A fired hook returns [`TxnError::Indeterminate`] and leaves every
/// lock word and the decision slot exactly as a dead committer would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// No crash: run the full protocol.
    #[default]
    None,
    /// Crash after locking the write set, before deciding (recovery
    /// must steal-abort and roll back).
    AfterLock,
    /// Crash right after the commit-point CAS, before any apply
    /// (recovery must roll forward from the redo).
    AfterDecide,
    /// Crash after applying the first payload (recovery completes the
    /// partially applied write set).
    MidApply,
    /// Crash after releasing the first lock (recovery settles the
    /// remainder).
    MidRelease,
}

/// A versioned record table inside one LMR, shared by name.
pub struct TxnTable {
    lh: Lh,
    spec: TableSpec,
    payload_p: u64,
    log: Option<Arc<TxnLog>>,
    /// Per decision slot, the header this handle last wrote or saw. A
    /// hint only: the claim CAS goes straight out from it, and a miss
    /// returns the current header.
    hdr_cache: Vec<AtomicU64>,
}

impl TxnTable {
    fn layout(spec: &TableSpec) -> (u64, u64, u64) {
        let payload_p = (spec.payload as u64).div_ceil(8) * 8;
        let slot_size = 24 + spec.max_writes as u64 * (16 + payload_p);
        let rec_base = META_LEN + spec.slots as u64 * slot_size;
        (payload_p, slot_size, rec_base)
    }

    /// Creates the table's LMR on `home` and initializes its metadata.
    pub fn create(
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        home: usize,
        name: &str,
        spec: TableSpec,
    ) -> TxnResult<Self> {
        if spec.records == 0 || spec.slots == 0 || spec.max_writes == 0 {
            return Err(TxnError::Invalid("empty table spec"));
        }
        let (payload_p, _, rec_base) = Self::layout(&spec);
        let total = rec_base + spec.records * (8 + payload_p);
        let lh = h.lt_malloc(ctx, home, total, name, Perm::RW)?;
        let mut meta = [0u8; META_LEN as usize];
        for (i, v) in [
            MAGIC,
            spec.records,
            spec.payload as u64,
            spec.slots as u64,
            spec.max_writes as u64,
            spec.lease_ms,
        ]
        .into_iter()
        .enumerate()
        {
            meta[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        h.lt_write(ctx, lh, 0, &meta)?;
        Ok(Self::with_spec(lh, spec))
    }

    /// Opens a table created elsewhere by name; the spec is read back
    /// from the table's own metadata.
    pub fn open(h: &mut LiteHandle, ctx: &mut Ctx, name: &str) -> TxnResult<Self> {
        let lh = h.lt_map(ctx, name)?;
        let mut meta = [0u8; META_LEN as usize];
        h.lt_read(ctx, lh, 0, &mut meta)?;
        let word = |i: usize| u64::from_le_bytes(meta[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != MAGIC {
            return Err(TxnError::Invalid("not a lite-txn table"));
        }
        let spec = TableSpec {
            records: word(1),
            payload: word(2) as usize,
            slots: word(3) as u16,
            max_writes: word(4) as usize,
            lease_ms: word(5),
        };
        Ok(Self::with_spec(lh, spec))
    }

    fn with_spec(lh: Lh, spec: TableSpec) -> Self {
        let (payload_p, _, _) = Self::layout(&spec);
        TxnTable {
            lh,
            spec,
            payload_p,
            log: None,
            // A fresh table's slot headers are zero: FREE at epoch 0.
            hdr_cache: (0..spec.slots).map(|_| AtomicU64::new(S_FREE)).collect(),
        }
    }

    /// The table's shape.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The lh of the table's LMR.
    pub fn lh(&self) -> Lh {
        self.lh
    }

    /// Byte offset of record `rec`'s version word in the table's LMR.
    pub fn version_offset(&self, rec: u64) -> u64 {
        self.rec_off(rec)
    }

    /// Counts the decision slots whose transaction is still in flight or
    /// unsettled (neither `FREE` nor `DRAINED`), reading every header.
    pub fn busy_slots(&self, h: &mut LiteHandle, ctx: &mut Ctx) -> TxnResult<usize> {
        let mut busy = 0;
        for s in 0..self.spec.slots {
            busy += usize::from(!claimable(self.read_word(h, ctx, self.slot_off(s))?));
        }
        Ok(busy)
    }

    /// Arms serializability recording: every commit/abort through this
    /// handle's transactions appends one [`TxnOp`] (record index as the
    /// key, payload [`fingerprint`] as the value). Arm one log per
    /// table — record indices are the checker's keys, so histories from
    /// different tables must not share a log.
    pub fn arm_txn_log(&mut self, log: Arc<TxnLog>) {
        self.log = Some(log);
    }

    /// Begins a transaction against this table.
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            table: self,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            invoke: None,
        }
    }

    fn slot_off(&self, s: u16) -> u64 {
        let (_, slot_size, _) = Self::layout(&self.spec);
        META_LEN + s as u64 * slot_size
    }

    fn slot_entry_off(&self, s: u16, j: usize) -> u64 {
        self.slot_off(s) + 24 + j as u64 * (16 + self.payload_p)
    }

    fn rec_off(&self, r: u64) -> u64 {
        let (_, _, rec_base) = Self::layout(&self.spec);
        rec_base + r * (8 + self.payload_p)
    }

    fn read_word(&self, h: &mut LiteHandle, ctx: &mut Ctx, off: u64) -> TxnResult<u64> {
        let mut b = [0u8; 8];
        h.lt_read(ctx, self.lh, off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Checks that every `(rec, version)` of `reads` still holds, with
    /// one chain of zero fetch-adds rather than plain reads. Each
    /// atomic's completion stamp is monotone with the conflicting
    /// lock/release CASes on the same word, and the call advances the
    /// caller's virtual clock past the last of them — which is what
    /// makes the `[invoke, response]` intervals recorded for the
    /// serializability checker sound across unsynchronized per-thread
    /// clocks: a transaction that observed another's commit can never
    /// be real-time-ordered before it.
    fn versions_unchanged(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        reads: &[(u64, u64)],
    ) -> TxnResult<bool> {
        let probes: Vec<ChainOp> = reads
            .iter()
            .map(|&(rec, _)| ChainOp::FetchAdd {
                offset: self.rec_off(rec),
                delta: 0,
            })
            .collect();
        let seen = h.lt_chain(ctx, self.lh, &probes)?;
        Ok(seen.iter().zip(reads).all(|(&cur, &(_, v))| cur == v))
    }

    /// The last header this handle knows for slot `s`.
    fn cached_hdr(&self, s: u16) -> u64 {
        self.hdr_cache[s as usize].load(Ordering::Relaxed)
    }

    fn note_hdr(&self, s: u16, hdr: u64) {
        self.hdr_cache[s as usize].store(hdr, Ordering::Relaxed);
    }

    /// A chain of CASes moving each `(rec, from, to)` version word.
    fn cas_chain(&self, moves: impl IntoIterator<Item = (u64, u64, u64)>) -> Vec<ChainOp<'static>> {
        moves
            .into_iter()
            .map(|(rec, expect, new)| ChainOp::CmpSwap {
                offset: self.rec_off(rec),
                expect,
                new,
            })
            .collect()
    }

    /// Acquires one record's lock word with bounded CAS retries,
    /// recovering expired lock words on the way; `false` is a conflict.
    /// `seen` is the result of a lock CAS already issued (by the lock
    /// chain), counted as the first attempt.
    fn lock_record(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        rec: u64,
        old_v: u64,
        lw: u64,
        mut seen: Option<u64>,
    ) -> TxnResult<bool> {
        for attempt in 0..LOCK_ATTEMPTS {
            let cur = match seen.take() {
                Some(cur) => cur,
                None => h.lt_cmp_swap(ctx, self.lh, self.rec_off(rec), old_v, lw)?,
            };
            if cur == old_v {
                return Ok(true);
            }
            if !is_locked(cur) {
                return Ok(false); // version moved: straight conflict
            }
            if lock_expired(cur) {
                self.recover_from_lock(h, ctx, cur)?;
            } else {
                Self::backoff(ctx, attempt);
            }
        }
        Ok(false)
    }

    /// One contention backoff step: virtual think time plus a little
    /// host-wall sleep so lock leases (host time) can actually expire
    /// while we wait.
    fn backoff(ctx: &mut Ctx, attempt: u32) {
        ctx.work(200u64 << attempt.min(4));
        if attempt > 1 {
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
    }

    /// Snapshots one record: a consistent `(version, payload)` pair
    /// obtained by the version-payload-version read dance, recovering
    /// expired lock words along the way.
    fn snapshot_record(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        rec: u64,
    ) -> TxnResult<(u64, Vec<u8>)> {
        if rec >= self.spec.records {
            return Err(TxnError::Invalid("record out of range"));
        }
        for attempt in 0..READ_ATTEMPTS {
            // One blob read covers the version word and the payload —
            // the snapshot is *optimistic* (Silo-style): it is not
            // verified here but by the stamped version check every
            // commit performs (`read_version` in validation, or the
            // lock CAS for write records). That check is sound against
            // torn blobs because a payload byte can only be written
            // strictly between two version transitions (lock, then
            // release-to-`old+2`), so a commit-time version equal to
            // the blob's unlocked `v1` certifies the payload was never
            // concurrently written. It is also what keeps recorded
            // serializability intervals clock-sound: the stamped
            // validation orders every committed reader after the
            // writers it observed.
            let mut blob = vec![0u8; 8 + self.payload_p as usize];
            h.lt_read(ctx, self.lh, self.rec_off(rec), &mut blob)?;
            let v1 = u64::from_le_bytes(blob[..8].try_into().unwrap());
            if is_locked(v1) {
                if lock_expired(v1) {
                    self.recover_from_lock(h, ctx, v1)?;
                } else {
                    Self::backoff(ctx, attempt);
                }
                continue;
            }
            let mut payload = blob.split_off(8);
            payload.truncate(self.spec.payload);
            return Ok((v1, payload));
        }
        Err(TxnError::Conflict { validation: false })
    }

    /// Recovery entry point for an expired lock word observed on some
    /// record: finalize the owning slot and settle its whole redo.
    fn recover_from_lock(&self, h: &mut LiteHandle, ctx: &mut Ctx, lw: u64) -> TxnResult<()> {
        let slot = lock_slot(lw);
        if slot >= self.spec.slots {
            return Err(TxnError::Invalid("lock word names a bogus slot"));
        }
        let hdr = self.read_word(h, ctx, self.slot_off(slot))?;
        let epoch = hdr >> 4;
        if (epoch & 0x7fff) != lock_epoch15(lw) {
            // The owning epoch is gone; the lock word must have been
            // settled concurrently — let the caller re-read.
            return Ok(());
        }
        self.settle_slot(h, ctx, slot, hdr)
    }

    /// Finalizes (steal-aborting if undecided) and fully settles one
    /// slot, then drains it. Safe to race: every step is a CAS that
    /// loses harmlessly.
    fn settle_slot(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        slot: u16,
        hdr_seen: u64,
    ) -> TxnResult<()> {
        let epoch = hdr_seen >> 4;
        let mut state = hdr_seen & 0xf;
        if state == S_UNDECIDED {
            // The same CAS the owner uses to commit: whoever wins, the
            // decision is made exactly once.
            let prev = h.lt_cmp_swap(
                ctx,
                self.lh,
                self.slot_off(slot),
                (epoch << 4) | S_UNDECIDED,
                (epoch << 4) | S_ABORTED,
            )?;
            if prev == ((epoch << 4) | S_UNDECIDED) {
                state = S_ABORTED;
            } else if prev >> 4 != epoch {
                return Ok(()); // slot moved on entirely
            } else {
                state = prev & 0xf; // owner (or another recoverer) decided
            }
        }
        if state != S_COMMITTED && state != S_ABORTED {
            return Ok(()); // FREE or DRAINED: nothing left to settle
        }
        let count = self.read_word(h, ctx, self.slot_off(slot) + 16)?;
        if count > self.spec.max_writes as u64 {
            return Err(TxnError::Invalid("corrupt redo count"));
        }
        let mut all_settled = true;
        for j in 0..count as usize {
            let eoff = self.slot_entry_off(slot, j);
            let mut entry = [0u8; 16];
            h.lt_read(ctx, self.lh, eoff, &mut entry)?;
            let rec = u64::from_le_bytes(entry[..8].try_into().unwrap());
            let old_v = u64::from_le_bytes(entry[8..].try_into().unwrap());
            if rec >= self.spec.records {
                return Err(TxnError::Invalid("corrupt redo entry"));
            }
            let mut settled = false;
            for attempt in 0..LOCK_ATTEMPTS {
                let cur = self.read_word(h, ctx, self.rec_off(rec))?;
                if !is_locked(cur)
                    || lock_slot(cur) != slot
                    || lock_epoch15(cur) != (epoch & 0x7fff)
                {
                    settled = true; // not (or no longer) held by this txn
                    break;
                }
                if state == S_ABORTED {
                    // Roll back: no payload to touch, the guarded CAS
                    // alone restores the version.
                    let _ = h.lt_cmp_swap(ctx, self.lh, self.rec_off(rec), cur, old_v)?;
                    continue; // re-read to confirm
                }
                // Roll forward. The payload write below is not CAS
                // guarded, so it must happen under an *exclusive*
                // lease: take the lock over (same slot/epoch, fresh
                // expiry) before touching the record. A stale
                // recoverer that lost this handoff can never clobber
                // a later transaction's committed payload.
                if !lock_expired(cur) {
                    TxnTable::backoff(ctx, attempt); // live owner/recoverer
                    continue;
                }
                let fresh = lock_word(slot, epoch, (now_ms() + self.spec.lease_ms) & 0xffff_ffff);
                if h.lt_cmp_swap(ctx, self.lh, self.rec_off(rec), cur, fresh)? != cur {
                    continue; // someone else claimed it; re-read
                }
                let mut payload = vec![0u8; self.payload_p as usize];
                h.lt_read(ctx, self.lh, eoff + 16, &mut payload)?;
                h.lt_write(ctx, self.lh, self.rec_off(rec) + 8, &payload)?;
                let _ = h.lt_cmp_swap(
                    ctx,
                    self.lh,
                    self.rec_off(rec),
                    fresh,
                    old_v.wrapping_add(2),
                )?;
                settled = true;
                break;
            }
            all_settled &= settled;
        }
        // Only a slot whose every redo entry is confirmed settled may
        // be reclaimed — lock words must never outlive their slot.
        if all_settled {
            let prev = h.lt_cmp_swap(
                ctx,
                self.lh,
                self.slot_off(slot),
                (epoch << 4) | state,
                (epoch << 4) | S_DRAINED,
            )?;
            let now = if prev == (epoch << 4) | state {
                (epoch << 4) | S_DRAINED
            } else {
                prev
            };
            self.note_hdr(slot, now);
        }
        Ok(())
    }

    /// Claims a decision slot, publishing the redo log and lease for
    /// `writes`. Scavenges expired slots when the ring is exhausted.
    ///
    /// The claim CAS goes straight out from the cached header (normally
    /// this handle's own last drain); on a miss the CAS returns the
    /// current header, which gets one more CAS when it is claimable.
    /// Only a cached header that is not claimable costs a read.
    #[allow(clippy::type_complexity)]
    fn claim_slot(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        writes: &[(u64, u64, &[u8])],
        expiry: u64,
    ) -> TxnResult<(u16, u64)> {
        let start = (h.node() as u64 * 31 + h.pid() as u64) % self.spec.slots as u64;
        for pass in 0..3u32 {
            for i in 0..self.spec.slots as u64 {
                let s = ((start + i) % self.spec.slots as u64) as u16;
                let mut hdr = self.cached_hdr(s);
                if !claimable(hdr) {
                    hdr = self.read_word(h, ctx, self.slot_off(s))?;
                }
                for _ in 0..2 {
                    if !claimable(hdr) {
                        break;
                    }
                    let epoch = (hdr >> 4) + 1;
                    let next = (epoch << 4) | S_UNDECIDED;
                    let prev = h.lt_cmp_swap(ctx, self.lh, self.slot_off(s), hdr, next)?;
                    if prev == hdr {
                        self.note_hdr(s, next);
                        self.publish_redo(h, ctx, s, epoch, writes, expiry)?;
                        return Ok((s, epoch));
                    }
                    hdr = prev;
                }
                self.note_hdr(s, hdr);
                if pass > 0 && !claimable(hdr) {
                    // Ring exhausted once already: scavenge expired
                    // slots (lease epoch must match the header's, or
                    // the owner hasn't published its lease yet).
                    let epoch = hdr >> 4;
                    let lease = self.read_word(h, ctx, self.slot_off(s) + 8)?;
                    if (lease & 0xffff) == (epoch & 0xffff)
                        && (now_ms() & 0xffff_ffff) > (lease >> 16) & 0xffff_ffff
                    {
                        self.settle_slot(h, ctx, s, hdr)?;
                    }
                }
            }
            Self::backoff(ctx, pass);
        }
        Err(TxnError::Conflict { validation: false })
    }

    /// Publishes a claimed slot's redo log (write set with old versions
    /// and new payloads), then its lease, as one chain. The chain keeps
    /// them ordered on the QP, so a lease whose epoch matches the header
    /// certifies a complete redo.
    #[allow(clippy::type_complexity)]
    fn publish_redo(
        &self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        s: u16,
        epoch: u64,
        writes: &[(u64, u64, &[u8])],
        expiry: u64,
    ) -> TxnResult<()> {
        let entry_sz = (16 + self.payload_p) as usize;
        let mut redo = vec![0u8; 8 + writes.len() * entry_sz];
        redo[..8].copy_from_slice(&(writes.len() as u64).to_le_bytes());
        for (j, (rec, old_v, payload)) in writes.iter().enumerate() {
            let e = &mut redo[8 + j * entry_sz..8 + (j + 1) * entry_sz];
            e[..8].copy_from_slice(&rec.to_le_bytes());
            e[8..16].copy_from_slice(&old_v.to_le_bytes());
            e[16..16 + payload.len()].copy_from_slice(payload);
        }
        let lease = ((expiry << 16) | (epoch & 0xffff)).to_le_bytes();
        let publish = [
            ChainOp::Write {
                offset: self.slot_off(s) + 16,
                data: &redo,
            },
            ChainOp::Write {
                offset: self.slot_off(s) + 8,
                data: &lease,
            },
        ];
        h.lt_chain(ctx, self.lh, &publish)?;
        Ok(())
    }

    fn record_txn(
        &self,
        h: &LiteHandle,
        invoke: Nanos,
        response: Nanos,
        reads: &BTreeMap<u64, (u64, Vec<u8>)>,
        writes: &BTreeMap<u64, Vec<u8>>,
        outcome: TxnOutcome,
    ) {
        if let Some(log) = &self.log {
            log.record(TxnOp {
                proc: proc_id(h.node(), h.pid()),
                reads: reads
                    .iter()
                    .filter(|(r, _)| !writes.contains_key(r))
                    .map(|(&r, (_, p))| (r, fingerprint(p)))
                    .collect(),
                writes: writes.iter().map(|(&r, p)| (r, fingerprint(p))).collect(),
                outcome,
                invoke,
                response,
            });
        }
    }
}

/// One optimistic transaction: buffered consistent reads and locally
/// staged writes, atomically published by [`Txn::commit`].
pub struct Txn<'t> {
    table: &'t TxnTable,
    /// rec -> (version observed, payload observed).
    reads: BTreeMap<u64, (u64, Vec<u8>)>,
    /// rec -> staged payload (padded to the table's rounded width).
    writes: BTreeMap<u64, Vec<u8>>,
    invoke: Option<Nanos>,
}

impl Txn<'_> {
    /// Reads one record. Own staged writes are returned as-is
    /// (read-your-writes); otherwise the first read of a record takes a
    /// version-consistent snapshot that `commit` later re-validates.
    pub fn read(&mut self, h: &mut LiteHandle, ctx: &mut Ctx, rec: u64) -> TxnResult<Vec<u8>> {
        self.invoke.get_or_insert(ctx.now());
        if let Some(w) = self.writes.get(&rec) {
            let mut out = w.clone();
            out.truncate(self.table.spec.payload);
            return Ok(out);
        }
        if let Some((_, p)) = self.reads.get(&rec) {
            return Ok(p.clone());
        }
        let (v, payload) = self.table.snapshot_record(h, ctx, rec)?;
        self.reads.insert(rec, (v, payload.clone()));
        Ok(payload)
    }

    /// Stages one write; nothing is visible remotely until `commit`.
    pub fn write(&mut self, rec: u64, data: &[u8]) -> TxnResult<()> {
        if rec >= self.table.spec.records {
            return Err(TxnError::Invalid("record out of range"));
        }
        if data.len() > self.table.spec.payload {
            return Err(TxnError::Invalid("payload too large"));
        }
        let mut padded = vec![0u8; self.table.payload_p as usize];
        padded[..data.len()].copy_from_slice(data);
        self.writes.insert(rec, padded);
        Ok(())
    }

    /// Aborts explicitly: staged state is dropped, nothing was ever
    /// visible remotely.
    pub fn abort(self, h: &mut LiteHandle, ctx: &mut Ctx) {
        let invoke = self.invoke.unwrap_or_else(|| ctx.now());
        self.table.record_txn(
            h,
            invoke,
            ctx.now(),
            &self.reads,
            &self.writes,
            TxnOutcome::Aborted,
        );
        h.kernel().note_txn_abort(false);
    }

    /// Commits: locks the write set, validates the read set, decides,
    /// applies, releases. On [`TxnError::Conflict`] the transaction
    /// aborted cleanly (all locks unwound) and may simply be retried.
    pub fn commit(self, h: &mut LiteHandle, ctx: &mut Ctx) -> TxnResult<()> {
        self.commit_at(h, ctx, CrashPoint::None)
    }

    /// `commit` with a crash hook — the recovery-test surface. A fired
    /// hook abandons the protocol mid-flight exactly as a committer
    /// crash would; see [`CrashPoint`].
    pub fn commit_at(
        mut self,
        h: &mut LiteHandle,
        ctx: &mut Ctx,
        crash: CrashPoint,
    ) -> TxnResult<()> {
        let t = self.table;
        let invoke = self.invoke.unwrap_or_else(|| ctx.now());
        let fail = |this: &Self, h: &mut LiteHandle, ctx: &mut Ctx, validation: bool| {
            t.record_txn(
                h,
                invoke,
                ctx.now(),
                &this.reads,
                &this.writes,
                TxnOutcome::Aborted,
            );
            h.kernel().note_txn_abort(validation);
            Err(TxnError::Conflict { validation })
        };

        // Read-only fast path: validate and return — no slot, no locks.
        if self.writes.is_empty() {
            let reads: Vec<(u64, u64)> = self.reads.iter().map(|(&r, &(v, _))| (r, v)).collect();
            if !t.versions_unchanged(h, ctx, &reads)? {
                return fail(&self, h, ctx, true);
            }
            t.record_txn(
                h,
                invoke,
                ctx.now(),
                &self.reads,
                &self.writes,
                TxnOutcome::Committed,
            );
            h.kernel().note_txn_commit();
            return Ok(());
        }
        if self.writes.len() > t.spec.max_writes {
            return Err(TxnError::Invalid("write set exceeds table max_writes"));
        }

        // Every write record needs a base version for its lock CAS;
        // blind writes fetch one now.
        let blind: Vec<u64> = self
            .writes
            .keys()
            .filter(|r| !self.reads.contains_key(r))
            .copied()
            .collect();
        for rec in blind {
            let (v, payload) = t.snapshot_record(h, ctx, rec)?;
            self.reads.insert(rec, (v, payload));
        }

        let expiry = (now_ms() + t.spec.lease_ms) & 0xffff_ffff;
        let write_list: Vec<(u64, u64, &[u8])> = self
            .writes
            .iter()
            .map(|(&rec, p)| (rec, self.reads[&rec].0, p.as_slice()))
            .collect();
        let (slot, epoch) = match t.claim_slot(h, ctx, &write_list, expiry) {
            Ok(se) => se,
            Err(TxnError::Conflict { .. }) => return fail(&self, h, ctx, false),
            Err(e) => return Err(e),
        };
        let lw = lock_word(slot, epoch, expiry);
        let hdr_undecided = (epoch << 4) | S_UNDECIDED;

        let unwind = |h: &mut LiteHandle, ctx: &mut Ctx, locked: &[(u64, u64)]| -> TxnResult<()> {
            let release = t.cas_chain(locked.iter().map(|&(rec, old_v)| (rec, lw, old_v)));
            h.lt_chain(ctx, t.lh, &release)?;
            // Finalize + drain our own slot (steal-abort CAS cannot
            // fail against ourselves unless a scavenger beat us to it —
            // either way the slot ends settled).
            t.settle_slot(h, ctx, slot, hdr_undecided)
        };

        // Lock the write set in ascending record order, as one chain.
        let acquire = t.cas_chain(write_list.iter().map(|&(rec, old_v, _)| (rec, old_v, lw)));
        let seen = h.lt_chain(ctx, t.lh, &acquire)?;
        let won = |k: usize| seen[k] == write_list[k].1;
        let first_lost = (0..write_list.len()).find(|&k| !won(k));
        let held = first_lost.unwrap_or(write_list.len());
        let mut locked: Vec<(u64, u64)> = write_list[..held]
            .iter()
            .map(|&(rec, old_v, _)| (rec, old_v))
            .collect();
        if let Some(k) = first_lost {
            // Keep only the ascending prefix below the first loser: locks
            // won above it are unwound, so the committer never waits on
            // a record while holding a higher one.
            let above = t.cas_chain(
                (k + 1..write_list.len())
                    .filter(|&j| won(j))
                    .map(|j| (write_list[j].0, lw, write_list[j].1)),
            );
            h.lt_chain(ctx, t.lh, &above)?;
            for (j, &(rec, old_v, _)) in write_list.iter().enumerate().skip(k) {
                let first = (j == k).then_some(seen[k]);
                if !t.lock_record(h, ctx, rec, old_v, lw, first)? {
                    unwind(h, ctx, &locked)?;
                    return fail(&self, h, ctx, false);
                }
                locked.push((rec, old_v));
            }
        }
        if crash == CrashPoint::AfterLock {
            return self.vanish(h, ctx, invoke);
        }

        // Validate the read set (reads not covered by a lock CAS).
        let reads: Vec<(u64, u64)> = self
            .reads
            .iter()
            .filter(|(r, _)| !self.writes.contains_key(r))
            .map(|(&r, &(v, _))| (r, v))
            .collect();
        if !t.versions_unchanged(h, ctx, &reads)? {
            unwind(h, ctx, &locked)?;
            return fail(&self, h, ctx, true);
        }

        // The commit point: one CAS on the decision slot.
        let prev = h.lt_cmp_swap(
            ctx,
            t.lh,
            t.slot_off(slot),
            hdr_undecided,
            (epoch << 4) | S_COMMITTED,
        )?;
        if prev != hdr_undecided {
            // A scavenger steal-aborted us (lease looked expired):
            // roll back — versions never moved.
            unwind(h, ctx, &locked)?;
            return fail(&self, h, ctx, false);
        }
        if crash == CrashPoint::AfterDecide {
            return self.vanish(h, ctx, invoke);
        }

        // Apply, release and drain as one chain: the QP keeps every
        // payload ahead of the releases that publish it. Once our own
        // lease is expired we must stop touching the table (recovery
        // may already be rolling us forward) and report indeterminate.
        if (now_ms() & 0xffff_ffff) > expiry {
            return self.vanish(h, ctx, invoke);
        }
        let hdr_committed = (epoch << 4) | S_COMMITTED;
        let hdr_drained = (epoch << 4) | S_DRAINED;
        let mut finish: Vec<ChainOp> = self
            .writes
            .iter()
            .map(|(&rec, payload)| ChainOp::Write {
                offset: t.rec_off(rec) + 8,
                data: payload,
            })
            .collect();
        finish.extend(
            t.cas_chain(
                locked
                    .iter()
                    .map(|&(rec, old_v)| (rec, lw, old_v.wrapping_add(2))),
            ),
        );
        finish.push(ChainOp::CmpSwap {
            offset: t.slot_off(slot),
            expect: hdr_committed,
            new: hdr_drained,
        });
        // A crash hook posts only the prefix up to its crash point.
        let n = locked.len();
        let cut = match crash {
            CrashPoint::MidApply if n > 1 => Some(1),
            CrashPoint::MidRelease if n > 1 => Some(n + 1),
            _ => None,
        };
        if let Some(cut) = cut {
            h.lt_chain(ctx, t.lh, &finish[..cut])?;
            return self.vanish(h, ctx, invoke);
        }
        let olds = h.lt_chain(ctx, t.lh, &finish)?;
        let prev = olds.last().copied().unwrap_or(hdr_committed);
        t.note_hdr(
            slot,
            if prev == hdr_committed {
                hdr_drained
            } else {
                prev
            },
        );

        t.record_txn(
            h,
            invoke,
            ctx.now(),
            &self.reads,
            &self.writes,
            TxnOutcome::Committed,
        );
        h.kernel().note_txn_commit();
        Ok(())
    }

    /// The crash/lease-loss exit: record an indeterminate outcome and
    /// abandon the protocol without unwinding anything.
    fn vanish(self, h: &mut LiteHandle, ctx: &mut Ctx, invoke: Nanos) -> TxnResult<()> {
        self.table.record_txn(
            h,
            invoke,
            ctx.now(),
            &self.reads,
            &self.writes,
            TxnOutcome::Indeterminate,
        );
        h.kernel().note_txn_abort(false);
        Err(TxnError::Indeterminate)
    }
}

/// Runs `body` (build + commit one transaction) with bounded retries on
/// clean conflicts — the standard OCC loop. Indeterminate and invalid
/// outcomes surface immediately.
pub fn with_txn_retry<T>(
    h: &mut LiteHandle,
    ctx: &mut Ctx,
    mut attempts: u32,
    mut body: impl FnMut(&mut LiteHandle, &mut Ctx) -> TxnResult<T>,
) -> TxnResult<T> {
    let mut attempt = 0u32;
    loop {
        match body(h, ctx) {
            Err(TxnError::Conflict { .. }) if attempts > 1 => {
                attempts -= 1;
                TxnTable::backoff(ctx, attempt);
                attempt += 1;
            }
            other => return other,
        }
    }
}
