//! Spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only: each call the
//! benchmark makes into a layer's public API is wrapped, and nothing
//! inside the program is instrumented. A disabled [`Tracer`] records
//! nothing and never touches the virtual clock, so virtual results are
//! the same traced and untraced.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use simnet::{Ctx, Nanos};

use crate::report::{Metrics, Samples};

/// Every boundary the traced run reports, in output order. Request
/// spans (`*.request`) are the parents of the layer calls they make.
const BOUNDARIES: &[&str] = &[
    "kv.request",
    "lite-kv.get",
    "lite-kv.put",
    "txn.request",
    "lite-txn.read",
    "lite-txn.commit",
    "lite.api.lt_read64",
    "lite.api.lt_write64",
    "lite.api.lt_read64k",
    "lite.api.lt_write64k",
    "lite.api.lt_fetch_add",
    "lite.api.lt_cmp_swap",
    "lite.api.lt_malloc",
    "rnic.post_read64",
    "rnic.post_write64",
];

/// Boundaries whose spans have children; they also report their mean
/// self time (duration minus what their children cover). A leaf's self
/// time is its whole duration.
const PARENTS: &[&str] = &["kv.request", "txn.request"];

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The request this call serves (shared by a request's spans).
    req: u64,
    /// Index of the parent span in the same tracer.
    parent: Option<usize>,
    virt_start: Nanos,
    virt_end: Nanos,
    /// Host ns since the run's epoch.
    host_start: u64,
    host_end: u64,
    /// Client CPU charged (`CpuMeter`) while the span was open.
    cpu: Nanos,
    ok: bool,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// An empty tracer with the same switch and epoch, for another
    /// thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Moves the recorded spans out, leaving this tracer empty.
    pub fn take(&mut self) -> Tracer {
        let empty = self.fork();
        std::mem::replace(self, empty)
    }

    /// Opens a span; returns its index, or `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        ctx: &Ctx,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let host = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            virt_start: ctx.now(),
            virt_end: 0,
            host_start: host,
            host_end: 0,
            cpu: ctx.cpu.total(),
            ok: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose virtual start is `virt_start` rather than
    /// now: an open-loop request starts at its scheduled arrival.
    pub fn open_from(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        ctx: &Ctx,
        virt_start: Nanos,
    ) -> Option<usize> {
        let id = self.open(name, req, parent, ctx)?;
        self.spans[id].virt_start = virt_start;
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>, ctx: &Ctx, ok: bool) {
        let Some(i) = id else { return };
        let host = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[i];
        s.virt_end = ctx.now();
        s.host_end = host;
        s.cpu = ctx.cpu.total() - s.cpu;
        s.ok = ok;
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T, E>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut Ctx) -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.open(name, req, parent, ctx);
        let r = f(ctx);
        self.close(id, ctx, r.is_ok());
        r
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-boundary figures for every name in [`BOUNDARIES`], in a fixed
    /// order; names no span carries report zeros.
    pub fn layer_metrics(&self) -> Metrics {
        #[derive(Default)]
        struct Acc {
            calls: u64,
            fails: u64,
            virt: Samples,
            virt_sum: u128,
            child_sum: u128,
            host_sum: u128,
            cpu_sum: u128,
        }
        let mut acc: BTreeMap<&str, Acc> = BTreeMap::new();
        let mut child: Vec<u128> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.virt_end - s.virt_start) as u128;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let a = acc.entry(s.name).or_default();
            let d = s.virt_end - s.virt_start;
            a.calls += 1;
            a.fails += u64::from(!s.ok);
            a.virt.record(d);
            a.virt_sum += d as u128;
            a.child_sum += child[i].min(d as u128);
            a.host_sum += (s.host_end - s.host_start) as u128;
            a.cpu_sum += s.cpu as u128;
        }
        let mut m = Metrics::default();
        for &name in BOUNDARIES {
            let a = acc.remove(name).unwrap_or_default();
            let calls = a.calls.max(1) as f64;
            let stats = [
                ("calls", a.calls as f64, "count"),
                ("virt_us_p50", a.virt.pct_us_any(50.0), "us"),
                ("virt_us_p99", a.virt.pct_us_any(99.0), "us"),
                ("host_ns_mean", a.host_sum as f64 / calls, "ns"),
                // Client CPU over virtual duration: work versus waiting.
                (
                    "cpu_share",
                    a.cpu_sum as f64 / a.virt_sum.max(1) as f64,
                    "share",
                ),
                ("fails", a.fails as f64, "count"),
            ];
            for (stat, v, unit) in stats {
                m.push(format!("{name}.{stat}"), v, unit);
            }
            if PARENTS.contains(&name) {
                let self_us = (a.virt_sum - a.child_sum) as f64 / calls / 1e3;
                m.push(format!("{name}.self_us_mean"), self_us, "us");
            }
        }
        assert!(
            acc.is_empty(),
            "span names missing from BOUNDARIES: {:?}",
            acc.keys()
        );
        m
    }

    /// Writes the spans of requests numbered below `max_req`, one JSON
    /// object per line. The per-layer figures use every span; the file
    /// keeps a bounded prefix so a long run does not write gigabytes.
    pub fn write_spans(&self, path: &std::path::Path, max_req: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            if s.req >= max_req {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"virt_start\":{},\"virt_end\":{},\"host_start\":{},\"host_end\":{},\
                 \"cpu\":{},\"ok\":{}}}",
                s.name, s.req, s.virt_start, s.virt_end, s.host_start, s.host_end, s.cpu, s.ok
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let mut ctx = Ctx::new();
        let req = t.open("txn.request", 1, None, &ctx);
        ctx.work(100);
        t.call("lite-txn.read", 1, req, &mut ctx, |c| {
            c.work(300);
            Ok::<(), ()>(())
        })
        .unwrap();
        let _ = t.call("lite-txn.commit", 1, req, &mut ctx, |c| {
            c.wait_until(c.now() + 500);
            Err::<(), ()>(())
        });
        t.close(req, &ctx, true);
        let m = t.layer_metrics();
        assert_eq!(m.get("txn.request.calls"), Some(1.0));
        assert_eq!(m.get("txn.request.self_us_mean"), Some(0.1));
        assert_eq!(m.get("lite-txn.read.virt_us_p50"), Some(0.3));
        assert_eq!(m.get("lite-txn.read.cpu_share"), Some(1.0));
        assert_eq!(m.get("lite-txn.commit.cpu_share"), Some(0.0));
        assert_eq!(m.get("lite-txn.commit.fails"), Some(1.0));
        assert_eq!(m.get("lite-kv.get.calls"), Some(0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let mut ctx = Ctx::new();
        t.call("lite-kv.get", 0, None, &mut ctx, |_| Ok::<(), ()>(()))
            .unwrap();
        assert!(t.spans.is_empty());
    }
}
