//! Memory-tiering smoke benchmark: a shadow-verified random workload
//! with the per-node budget at 50 % of the working set vs unlimited.
//! Exits nonzero if the budgeted run fails to make forward progress,
//! corrupts a read, or never evicts — or if the unlimited run evicts
//! at all (the ablation must be behavior-identical to pre-tiering).
//! `--json <path>` writes the full report as the CI artifact.

fn main() {
    let full = bench::full_mode();
    let json_path = bench::json_path();

    let report = bench::figs::mempressure::mempressure(full);
    bench::print_table(
        "Memory tiering under pressure (budget = 50% of working set)",
        "case",
        &report.rows,
    );

    let u = &report.unlimited;
    let b = &report.budgeted;
    assert_eq!(u.verify_failures, 0, "corruption with tiering OFF");
    assert_eq!(
        u.evictions() + u.fetch_backs(),
        0,
        "unlimited budget must never migrate (ablation)"
    );
    assert!(
        !u.mm.iter().any(|m| m.enabled),
        "budget 0 must leave tiering disabled"
    );
    assert_eq!(b.verify_failures, 0, "corruption under eviction");
    assert!(b.evictions() > 0, "budgeted run never evicted");
    assert_eq!(b.ops_done, u.ops_done, "budgeted run lost forward progress");
    println!(
        "ok: {} ops, {} evictions, {} fetch-backs, 0 verify failures",
        b.ops_done,
        b.evictions(),
        b.fetch_backs()
    );

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        println!("wrote mempressure report to {path}");
    }
}
