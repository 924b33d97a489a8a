//! End-to-end tests of the replicated KV service: write/read round
//! trips on every replica, session consistency with a stalled
//! follower, event-log scans, capacity overflow over `lite::mm`
//! tiering, and the kernel gauges the service feeds.

use std::time::{Duration, Instant};

use lite::{LiteCluster, LiteConfig, QosConfig};
use lite_kv::{KvClient, KvService, KvSpec, SessionMode};
use rnic::IbConfig;
use simnet::Ctx;

/// Polls `cond` (host time) until it holds or `timeout` passes.
fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

#[test]
fn put_get_roundtrip_on_every_replica() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());

    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
    let n = 20usize;
    for i in 0..n {
        let seq = c
            .put(
                &mut ctx,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        assert_eq!(seq, (i + 1) as u64, "leader assigns a dense order");
    }
    // Overwrites keep the same key, new value.
    c.put(&mut ctx, b"k0", b"v0-new").unwrap();

    // Read-your-writes: correct answers immediately, whatever replica
    // the session happens to pick.
    for i in 0..n {
        let v = c.get(&mut ctx, format!("k{i}").as_bytes()).unwrap();
        let expect = if i == 0 {
            "v0-new".into()
        } else {
            format!("v{i}")
        };
        assert_eq!(v.as_deref(), Some(expect.as_bytes()));
    }
    assert_eq!(c.get(&mut ctx, b"nope").unwrap(), None);

    // Once replication catches up, every replica serves the data
    // locally under eventual consistency.
    assert!(
        eventually(Duration::from_secs(10), || {
            spec.replicas()
                .iter()
                .all(|&r| svc.applied_seq(r) == svc.committed_seq())
        }),
        "followers converge: {:?} vs committed {}",
        spec.replicas()
            .iter()
            .map(|&r| svc.applied_seq(r))
            .collect::<Vec<_>>(),
        svc.committed_seq(),
    );
    for &replica in &spec.replicas() {
        let mut e = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
        e.prefer_replica(replica);
        let v = e.get(&mut ctx, b"k7").unwrap();
        assert_eq!(v.as_deref(), Some(b"v7".as_ref()), "replica {replica}");
    }

    // The event log replays the write order, including the overwrite.
    let events = c.events(&mut ctx, 0, 100).unwrap();
    assert_eq!(events.len(), n + 1);
    assert_eq!(events[0].key, b"k0");
    assert_eq!(events[0].value, b"v0");
    assert_eq!(events[n].key, b"k0");
    assert_eq!(events[n].value, b"v0-new");
    // Offsets chain: each event's `next` is the next event's offset.
    for w in events.windows(2) {
        assert_eq!(w[0].next, w[1].offset);
    }

    // Every put, the overwrite included, committed exactly once.
    assert_eq!(svc.committed_seq(), (n + 1) as u64);
    svc.stop();
}

#[test]
fn paused_follower_bounds_staleness_not_availability() {
    let cluster = LiteCluster::start(4).unwrap();
    let spec = KvSpec::new("kv", 1, &[2, 3]);
    let svc = KvService::spawn(&cluster, spec.clone());

    let mut ctx = Ctx::new();
    let mut rw = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
    rw.put(&mut ctx, b"warm", b"base").unwrap();
    assert!(eventually(Duration::from_secs(10), || {
        svc.applied_seq(2) == svc.committed_seq()
    }));

    // Stall follower 2, then write past it.
    svc.pause_follower(2);
    for i in 0..10 {
        rw.put(&mut ctx, b"hot", format!("v{i}").as_bytes())
            .unwrap();
    }
    // The session still reads its own writes — the stalled replica
    // answers "behind" and the client falls back to the leader.
    rw.prefer_replica(2);
    assert_eq!(
        rw.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(b"v9".as_ref())
    );

    // An eventual session pinned to the stalled replica sees bounded
    // staleness (the old world), not an error.
    let mut ev = KvClient::connect(&cluster, 0, &spec, SessionMode::Eventual).unwrap();
    ev.prefer_replica(2);
    assert_eq!(
        ev.get(&mut ctx, b"hot").unwrap(),
        None,
        "stalled replica is stale"
    );
    assert_eq!(
        ev.get(&mut ctx, b"warm").unwrap().as_deref(),
        Some(b"base".as_ref())
    );

    // The replicator notices and publishes the lag.
    assert!(
        eventually(Duration::from_secs(10), || svc.replication_lag() > 0),
        "lag gauge never rose"
    );

    // Resume: the follower recovers from the log and the lag drains.
    svc.resume_follower(2);
    assert!(eventually(Duration::from_secs(10), || {
        svc.applied_seq(2) == svc.committed_seq() && svc.replication_lag() == 0
    }));
    assert_eq!(
        ev.get(&mut ctx, b"hot").unwrap().as_deref(),
        Some(b"v9".as_ref())
    );
    svc.stop();
}

/// With a memory budget far below the working set, the value arenas
/// overflow onto `lite::mm` swap: evictions happen, reads fault values
/// back, and every byte still comes back correct.
#[test]
fn capacity_overflow_rides_mm_tiering() {
    let config = LiteConfig {
        mem_budget_bytes: 256 * 1024,
        mm_sweep_interval: Duration::from_millis(1),
        // Small chunks so tiering moves values, not whole arenas.
        max_lmr_chunk: 16 * 1024,
        ..Default::default()
    };
    let cluster =
        LiteCluster::start_with(IbConfig::with_nodes(4), config, QosConfig::default()).unwrap();
    let mut spec = KvSpec::new("kv", 1, &[2]);
    spec.arena_bytes = 1 << 20;
    spec.log_capacity = 2 << 20;
    spec.max_value = 20 * 1024;
    let svc = KvService::spawn(&cluster, spec.clone());

    let mut ctx = Ctx::new();
    let mut c = KvClient::connect(&cluster, 0, &spec, SessionMode::ReadYourWrites).unwrap();
    // ~40 × 16 KiB values ≈ 640 KiB per replica — several times the
    // 256 KiB node budget.
    let blob = |i: usize| vec![(i % 251) as u8; 16 * 1024];
    for i in 0..40 {
        c.put(&mut ctx, format!("big{i}").as_bytes(), &blob(i))
            .unwrap_or_else(|e| panic!("put big{i}: {e}"));
    }
    for i in 0..40 {
        let v = c.get(&mut ctx, format!("big{i}").as_bytes()).unwrap();
        assert_eq!(v.as_deref(), Some(blob(i).as_slice()), "big{i}");
    }
    let mm = cluster.kernel(1).mm_stats();
    assert!(mm.enabled);
    assert!(
        mm.evictions > 0,
        "budget {} should have forced evictions: {mm:?}",
        256 * 1024
    );
    svc.stop();
}
