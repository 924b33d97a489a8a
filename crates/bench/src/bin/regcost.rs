//! Registration-cost smoke benchmark (the Fig 8 sweep, eager vs lazy).
//! Exits nonzero if lazy registration latency is not flat across LMR
//! sizes, if eager latency fails to scale with size, if lazy
//! registration pins anything up front, or if the steady-state datapath
//! tax of lazy pinning on a hot working set exceeds 10 % over eager.
//! `--json <path>` writes the full report as the CI artifact.

fn main() {
    let full = bench::full_mode();
    let json_path = bench::json_path();

    let report = bench::figs::regcost::regcost(full);
    bench::print_table(
        "Registration cost: eager (pin-at-register) vs lazy (pin-free)",
        "LMR size",
        &report.rows,
    );

    let sweep = &report.sweep;
    let lazy_min = sweep.iter().map(|p| p.lazy_ns).min().unwrap().max(1);
    let lazy_max = sweep.iter().map(|p| p.lazy_ns).max().unwrap();
    assert!(
        lazy_max < 2 * lazy_min,
        "lazy registration latency must be flat across sizes: min={lazy_min}ns max={lazy_max}ns"
    );
    for p in sweep {
        assert_eq!(
            p.lazy_pinned_pages,
            0,
            "lazy registration of {} MB pinned pages up front",
            p.size_bytes >> 20
        );
    }
    let (first, last) = (&sweep[0], &sweep[sweep.len() - 1]);
    let size_ratio = last.size_bytes / first.size_bytes;
    assert!(
        last.eager_ns > (size_ratio / 4) * first.eager_ns,
        "eager registration should scale ~linearly with pages: \
         {}MB={}ns {}MB={}ns (size ratio {size_ratio}x)",
        first.size_bytes >> 20,
        first.eager_ns,
        last.size_bytes >> 20,
        last.eager_ns
    );
    assert!(
        last.eager_ns > 10 * last.lazy_ns,
        "eager should dwarf lazy at {} MB: eager={}ns lazy={}ns",
        last.size_bytes >> 20,
        last.eager_ns,
        last.lazy_ns
    );

    let s = &report.steady;
    assert!(
        s.overhead <= 1.10,
        "lazy steady-state tax over eager exceeds 10%: {:.2}% \
         (eager {:.3}us, lazy {:.3}us)",
        (s.overhead - 1.0) * 100.0,
        s.eager_mean_us,
        s.lazy_mean_us
    );
    assert!(
        s.lazy_mm.first_touch_faults > 0,
        "lazy run never faulted — warm-up did not exercise the lazy path"
    );
    println!(
        "ok: lazy flat ({lazy_min}..{lazy_max} ns), eager {}x at {} MB, \
         steady-state tax {:.2}%",
        last.eager_ns / last.lazy_ns.max(1),
        last.size_bytes >> 20,
        (s.overhead - 1.0) * 100.0
    );

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        println!("wrote regcost report to {path}");
    }
}
