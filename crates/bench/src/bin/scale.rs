//! Scale-out sweep (DESIGN.md §12): boot time versus node count under
//! incremental membership, and throughput / write-p99 versus client
//! context count over the sharded kernel tables. `--full` runs the
//! paper-scale sweep (boot out to 512 nodes, 10⁴ contexts against 256
//! nodes); `--json <path>` writes both sweeps as a JSON artifact.

fn main() {
    let full = bench::full_mode();
    let json_path = bench::json_path();

    let report = bench::figs::scale::scale(full);
    bench::print_table(
        "Scale-out: boot cost vs cluster size (lazy mesh)",
        "cluster",
        &report.boot_rows,
    );
    bench::print_table(
        "Scale-out: client contexts vs throughput and write p99",
        "nodes x contexts",
        &report.ctx_rows,
    );

    // The linearity claim, stated on the data: per-node boot cost must
    // not grow with the cluster (allow generous slack for host noise).
    if let (Some(first), Some(last)) = (report.boot_points.first(), report.boot_points.last()) {
        let ratio = last.boot_per_node_us / first.boot_per_node_us.max(1e-9);
        println!(
            "boot linearity: {:.1} us/node @ {} nodes -> {:.1} us/node @ {} nodes (x{:.2})",
            first.boot_per_node_us, first.nodes, last.boot_per_node_us, last.nodes, ratio
        );
        assert!(
            ratio < 8.0,
            "per-node boot cost grew superlinearly (x{ratio:.2})"
        );
    }
    for p in &report.boot_points {
        assert_eq!(
            p.qps_after_boot, 0,
            "boot must not wire data QPs (lazy mesh)"
        );
    }

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        println!("wrote scale sweep to {path}");
    }
}
