#![warn(missing_docs)]

//! lite-txn: optimistic (OCC) transactions over LITE LMRs.
//!
//! Everything here is built purely on the public `lt_*` API — one-sided
//! reads/writes plus `lt_cmp_swap` — exactly the way a LITE application
//! would build it (paper §8: LITE's indirection makes one-sided
//! primitives safe enough to compose into real systems).
//!
//! Three layers:
//!
//! * [`TxnTable`] / [`Txn`] — the OCC core. A table is one LMR holding
//!   versioned records plus a ring of *decision slots*. `Txn::read`
//!   takes version-consistent snapshots, `Txn::write` stages locally,
//!   and `commit` runs lock → validate → decide → apply → release with
//!   every abort path unwinding its CAS locks. Committer crashes are
//!   survivable: lock words carry leases and name their decision slot,
//!   so any peer can finalize and roll the victim forward or back (see
//!   the [`table`] module docs for the full protocol).
//! * [`RemoteHashMap`] — a fixed-bucket, linear-probing hash map whose
//!   operations are transactions, giving atomic multi-probe updates
//!   and serializable gets.
//! * [`OrderedIndex`] — an append-friendly ordered index (B-tree-lite):
//!   a sorted run with an O(1)-write append fast path, transactional
//!   binary-search lookups, and range scans.
//!
//! Each commit's outcome is the [`TxnResult`] its caller gets back, and
//! [`TxnTable::arm_txn_log`] records whole transactions for
//! `lite::verify`'s txn-level serializability checker.

pub mod index;
pub mod map;
pub mod table;

pub use index::OrderedIndex;
pub use map::RemoteHashMap;
pub use table::{with_txn_retry, CrashPoint, TableSpec, Txn, TxnError, TxnResult, TxnTable};
