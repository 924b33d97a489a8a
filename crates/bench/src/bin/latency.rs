//! Per-op latency percentiles from the kernel's own observability
//! layer (`lt_stats()`), after a mixed read/write/RPC/lock/barrier
//! workload. `--json <path>` also writes every node's full structured
//! report as a JSON array — the CI artifact.

fn main() {
    let full = bench::full_mode();
    let json_path = bench::json_path();

    let report = bench::figs::latency::latency(full);
    bench::print_table(
        "Kernel observability: per-class op latency (lt_stats)",
        "class.prio",
        &report.rows,
    );

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        println!("wrote per-node stats reports to {path}");
    }
}
