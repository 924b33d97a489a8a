//! Regression tests for `lt_memmove` overlap semantics (and the
//! segment-ordered `lt_memcpy` rewrite behind it). The pre-fix
//! `lt_memmove` was a blind alias of `lt_memcpy`: with an overlapping
//! range split across several chunk segments, an ascending copy
//! overwrites source bytes a later segment still has to read.
//!
//! Also `lt_chain`: a mixed write/atomic chain must act exactly like the
//! same ops issued one by one, only cheaper.

use std::time::{Duration, Instant};

use lite::mm::MmRequest;
use lite::{ChainOp, Lh, LiteCluster, LiteConfig, LiteHandle, Perm};
use rnic::IbConfig;
use simnet::Ctx;

const CHUNK: u64 = 4096;

fn small_chunk_cluster() -> std::sync::Arc<LiteCluster> {
    let config = LiteConfig {
        max_lmr_chunk: CHUNK,
        ..LiteConfig::default()
    };
    LiteCluster::start_with(IbConfig::with_nodes(2), config, lite::QosConfig::default()).unwrap()
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Runs one memmove against the byte oracle (`copy_within`).
fn check_move(home: rnic::NodeId, src_off: u64, dst_off: u64, len: usize) {
    let cluster = small_chunk_cluster();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let total = 4 * CHUNK as usize;
    let lh = h
        .lt_malloc(&mut ctx, home, total as u64, "memmove.arena", Perm::RW)
        .unwrap();
    let init = pattern(total);
    h.lt_write(&mut ctx, lh, 0, &init).unwrap();

    h.lt_memmove(&mut ctx, lh, src_off, lh, dst_off, len)
        .unwrap();

    let mut oracle = init;
    oracle.copy_within(src_off as usize..src_off as usize + len, dst_off as usize);
    let mut got = vec![0u8; total];
    h.lt_read(&mut ctx, lh, 0, &mut got).unwrap();
    assert_eq!(
        got, oracle,
        "memmove src_off={src_off} dst_off={dst_off} len={len} home={home} diverged from oracle"
    );
}

/// Forward overlap (dst above src) across chunk boundaries — the case
/// the pre-fix ascending copy corrupted: by the time the second segment
/// is copied, its source bytes were already overwritten by the first.
#[test]
fn memmove_forward_overlap_multi_chunk() {
    check_move(0, 0, CHUNK / 2, 2 * CHUNK as usize);
}

/// Same forward overlap on a remote LMR (pieces pushed by the peer).
#[test]
fn memmove_forward_overlap_remote() {
    check_move(1, 512, 512 + CHUNK / 2, 2 * CHUNK as usize);
}

/// Backward overlap (dst below src): ascending order is the safe one.
#[test]
fn memmove_backward_overlap_multi_chunk() {
    check_move(0, CHUNK / 2, 0, 2 * CHUNK as usize);
    check_move(1, CHUNK, 128, 3 * CHUNK as usize - 256);
}

/// Overlap confined to a single chunk: one FN_MEMCPY call, whose handler
/// buffers the whole subrange — both directions must hold.
#[test]
fn memmove_overlap_single_chunk() {
    check_move(0, 100, 300, 1024);
    check_move(0, 300, 100, 1024);
}

/// Degenerate and disjoint cases keep plain-memcpy behavior.
#[test]
fn memmove_disjoint_and_identity() {
    // Disjoint ranges in the same LMR.
    check_move(0, 0, 3 * CHUNK, 1024);
    // Exactly adjacent (no overlap).
    check_move(0, 0, CHUNK, CHUNK as usize);
    // Self-copy onto itself.
    check_move(0, CHUNK, CHUNK, 512);
}

/// Cross-LMR memmove degrades to memcpy (handles never alias).
#[test]
fn memmove_across_lmrs_is_memcpy() {
    let cluster = small_chunk_cluster();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let len = 2 * CHUNK as usize;
    let a = h
        .lt_malloc(&mut ctx, 0, len as u64, "memmove.a", Perm::RW)
        .unwrap();
    let b = h
        .lt_malloc(&mut ctx, 1, len as u64, "memmove.b", Perm::RW)
        .unwrap();
    let data = pattern(len);
    h.lt_write(&mut ctx, a, 0, &data).unwrap();
    h.lt_memmove(&mut ctx, a, 0, b, 0, len).unwrap();
    let mut got = vec![0u8; len];
    h.lt_read(&mut ctx, b, 0, &mut got).unwrap();
    assert_eq!(got, data);
}

fn chain_cluster(batch_posting: bool) -> std::sync::Arc<LiteCluster> {
    let config = LiteConfig {
        batch_posting,
        ..LiteConfig::default()
    };
    LiteCluster::start_with(IbConfig::with_nodes(2), config, lite::QosConfig::default()).unwrap()
}

/// The mixed chain under test: `[write 64 B, cmp_swap, fetch_add, write]`
/// on words the setup initializes to 3 (at 128) and 10 (at 136).
fn mixed_chain<'a>(head: &'a [u8], tail: &'a [u8]) -> [ChainOp<'a>; 4] {
    [
        ChainOp::Write {
            offset: 0,
            data: head,
        },
        ChainOp::CmpSwap {
            offset: 128,
            expect: 3,
            new: 7,
        },
        ChainOp::FetchAdd {
            offset: 136,
            delta: 5,
        },
        ChainOp::Write {
            offset: 192,
            data: tail,
        },
    ]
}

/// Runs the mixed chain on a fresh remote LMR — as one `lt_chain` or as
/// the same ops one call each — and returns the old values, the LMR's
/// first 256 bytes afterwards, and the virtual time the ops took.
fn run_mixed(batch_posting: bool, chained: bool) -> (Vec<u64>, Vec<u8>, u64) {
    let cluster = chain_cluster(batch_posting);
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 1, 4096, "chain.mixed", Perm::RW)
        .unwrap();
    let mut init = vec![0u8; 256];
    init[128..136].copy_from_slice(&3u64.to_le_bytes());
    init[136..144].copy_from_slice(&10u64.to_le_bytes());
    h.lt_write(&mut ctx, lh, 0, &init).unwrap();
    let (head, tail) = (pattern(64), vec![0xab; 64]);
    let ops = mixed_chain(&head, &tail);
    let start = ctx.now();
    let olds = if chained {
        h.lt_chain(&mut ctx, lh, &ops).unwrap()
    } else {
        let mut olds = Vec::new();
        for op in ops {
            match op {
                ChainOp::Write { offset, data } => h.lt_write(&mut ctx, lh, offset, data).unwrap(),
                ChainOp::CmpSwap {
                    offset,
                    expect,
                    new,
                } => olds.push(h.lt_cmp_swap(&mut ctx, lh, offset, expect, new).unwrap()),
                ChainOp::FetchAdd { offset, delta } => {
                    olds.push(h.lt_fetch_add(&mut ctx, lh, offset, delta).unwrap())
                }
            }
        }
        olds
    };
    let took = ctx.now() - start;
    let mut bytes = vec![0u8; 256];
    h.lt_read(&mut ctx, lh, 0, &mut bytes).unwrap();
    (olds, bytes, took)
}

/// A mixed chain returns the same old values and leaves the same bytes
/// as its ops issued one by one.
#[test]
fn chain_matches_ops_issued_one_by_one() {
    let (olds, bytes, _) = run_mixed(true, true);
    let (seq_olds, seq_bytes, _) = run_mixed(true, false);
    assert_eq!(olds, vec![3, 10]);
    assert_eq!(olds, seq_olds);
    assert_eq!(bytes, seq_bytes);
    assert_eq!(&bytes[..64], &pattern(64)[..]);
    assert_eq!(u64::from_le_bytes(bytes[128..136].try_into().unwrap()), 7);
    assert_eq!(u64::from_le_bytes(bytes[136..144].try_into().unwrap()), 15);
    assert_eq!(&bytes[192..256], &[0xab; 64][..]);
}

/// One call and one doorbell make the chain cheaper than the sequential
/// sum; under the doorbell ablation every op is its own call, so the
/// chain costs exactly the sum.
#[test]
fn chain_beats_sequential_sum_and_equals_it_unbatched() {
    let (_, _, chained) = run_mixed(true, true);
    let (_, _, sequential) = run_mixed(true, false);
    assert!(
        chained < sequential,
        "chain took {chained} ns, one by one {sequential} ns"
    );
    let (_, _, unbatched) = run_mixed(false, true);
    let (_, _, unbatched_seq) = run_mixed(false, false);
    assert_eq!(unbatched_seq, sequential);
    assert_eq!(unbatched, sequential);
}

/// An unknown lh or an out-of-bounds op fails the whole chain before
/// any byte lands.
#[test]
fn bad_chain_fails_before_any_byte_lands() {
    for batch_posting in [true, false] {
        let cluster = chain_cluster(batch_posting);
        let mut h = cluster.attach(0).unwrap();
        let mut ctx = Ctx::new();
        let lh = h
            .lt_malloc(&mut ctx, 1, 4096, "chain.bad", Perm::RW)
            .unwrap();
        let data = [9u8; 64];
        let unknown: Lh = lh + 1000;
        let ok_write = ChainOp::Write {
            offset: 0,
            data: &data,
        };
        let ok_add = ChainOp::FetchAdd {
            offset: 64,
            delta: 1,
        };
        assert!(h.lt_chain(&mut ctx, unknown, &[ok_write, ok_add]).is_err());
        let past_end = ChainOp::Write {
            offset: 4096 - 32,
            data: &data,
        };
        assert!(h
            .lt_chain(&mut ctx, lh, &[ok_write, ok_add, past_end])
            .is_err());
        let atomic_past_end = ChainOp::CmpSwap {
            offset: 4096,
            expect: 0,
            new: 1,
        };
        assert!(h
            .lt_chain(&mut ctx, lh, &[ok_write, ok_add, atomic_past_end])
            .is_err());
        let mut got = vec![0u8; 72];
        h.lt_read(&mut ctx, lh, 0, &mut got).unwrap();
        assert_eq!(got, vec![0u8; 72], "batch_posting={batch_posting}");
    }
}

/// A chain through a handle whose LMR was evicted to another node still
/// lands: `access` refreshes the relocated lh before the first post.
#[test]
fn chain_lands_on_evicted_lmr() {
    let total = 32 * 1024usize;
    let config = LiteConfig {
        mem_budget_bytes: 4 << 20,
        mm_sweep_interval: Duration::from_millis(1),
        max_lmr_chunk: 8 * 1024,
        ..LiteConfig::default()
    };
    let cluster =
        LiteCluster::start_with(IbConfig::with_nodes(2), config, lite::QosConfig::default())
            .unwrap();
    let mut h = cluster.attach(0).unwrap();
    let mut ctx = Ctx::new();
    let lh = h
        .lt_malloc(&mut ctx, 0, total as u64, "chain.evicted", Perm::RW)
        .unwrap();
    h.lt_write(&mut ctx, lh, 0, &vec![0u8; total]).unwrap();
    let id = h.lh_id(lh).unwrap();
    let kernel = cluster.kernel(0);
    kernel.mm().request(MmRequest::Evict {
        idx: id.idx,
        off: u64::MAX,
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while kernel.mm_stats().evicted_chunks < total / (8 * 1024) {
        assert!(Instant::now() < deadline, "evict did not complete");
        std::thread::sleep(Duration::from_millis(5));
    }

    let data = pattern(64);
    let olds = h
        .lt_chain(
            &mut ctx,
            lh,
            &[
                ChainOp::Write {
                    offset: 9 * 1024,
                    data: &data,
                },
                ChainOp::FetchAdd {
                    offset: 16,
                    delta: 4,
                },
                ChainOp::CmpSwap {
                    offset: 16,
                    expect: 4,
                    new: 40,
                },
            ],
        )
        .unwrap();
    assert_eq!(olds, vec![0, 4]);
    let mut remote: LiteHandle = cluster.attach(1).unwrap();
    let rlh = remote.lt_map(&mut ctx, "chain.evicted").unwrap();
    let mut got = vec![0u8; 64];
    remote.lt_read(&mut ctx, rlh, 9 * 1024, &mut got).unwrap();
    assert_eq!(got, data);
    assert_eq!(remote.lt_fetch_add(&mut ctx, rlh, 16, 0).unwrap(), 40);
}
