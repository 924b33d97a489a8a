//! Sample summaries, process measurements and the result line.

use simnet::Nanos;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, printed in insertion order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Windows a run's samples are cut into for [`Samples::windowed_mean_us`].
const WINDOWS: usize = 10;

/// Latency samples (virtual ns) of one request class, in the order each
/// client recorded them.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<Nanos>);

impl Samples {
    pub fn record(&mut self, v: Nanos) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Mean in microseconds (0 for no samples).
    pub fn mean_us(&self) -> f64 {
        let sum: u128 = self.0.iter().map(|&v| v as u128).sum();
        sum as f64 / self.0.len().max(1) as f64 / 1e3
    }

    /// The median, over ten consecutive slices of the samples, of each
    /// slice's mean, in microseconds. A host stall that slows one
    /// stretch of a multi-threaded run moves one slice, not the figure.
    pub fn windowed_mean_us(&self) -> f64 {
        let size = self.0.len().div_ceil(WINDOWS).max(1);
        let means: Vec<f64> = self
            .0
            .chunks(size)
            .map(|w| Samples(w.to_vec()).mean_us())
            .collect();
        if means.is_empty() {
            0.0
        } else {
            median(&means)
        }
    }

    /// Nearest-rank percentile in microseconds, or `None` when fewer
    /// than ten samples lie beyond it: a tail read from fewer samples
    /// is noise, not a measurement.
    pub fn pct_us(&self, pct: f64) -> Option<f64> {
        let n = self.0.len();
        if (n as f64) * (1.0 - pct / 100.0) < 10.0 {
            return None;
        }
        Some(self.pct_us_any(pct))
    }

    /// Like [`Samples::pct_us`] but reports whatever the samples give
    /// (0 for none); for per-layer figures, whose call counts are
    /// printed beside them.
    pub fn pct_us_any(&self, pct: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
    }
}

/// The virtual end-to-end metrics every workload reports: the mean
/// latency (windowed) of its primary requests and of its state-changing
/// requests, and requests completed per virtual second.
pub fn virt_metrics(primary: &Samples, writes: &Samples, per_virt_sec: f64) -> Metrics {
    let mut m = Metrics::default();
    m.push("mean_us", primary.windowed_mean_us(), "us");
    m.push("write_mean_us", writes.windowed_mean_us(), "us");
    m.push("virt_ops_per_s", per_virt_sec, "ops/s");
    m
}

/// One line summarizing a request class: sample count, mean, p50 and
/// p99. Fails when fewer than ten samples lie beyond the p99.
pub fn class_note(label: &str, s: &Samples) -> Result<String, String> {
    let n = s.len();
    let too_few = || format!("{label}: {n} samples are too few for a p99");
    let p50 = s.pct_us(50.0).ok_or_else(too_few)?;
    let p99 = s.pct_us(99.0).ok_or_else(too_few)?;
    Ok(format!(
        "{label}: n={n} mean={:.4} us p50={p50:.4} us p99={p99:.4} us",
        s.mean_us()
    ))
}

/// Median of a non-empty list.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB, from `getrusage`.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    // `long` counters of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // declared above, which `getrusage` fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    ru.maxrss as f64 / 1024.0
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for v in 1..=999 {
            s.record(v * 1000);
        }
        assert_eq!(s.pct_us(99.0), None);
        s.record(1_000_000);
        assert_eq!(s.pct_us(99.0), Some(990.0));
        assert_eq!(s.pct_us(50.0), Some(500.0));
    }

    #[test]
    fn windowed_mean_is_robust_to_one_slow_window() {
        let mut s = Samples::default();
        for w in 0..10 {
            for _ in 0..100 {
                s.record(if w == 3 { 1_000_000 } else { 2_000 });
            }
        }
        assert_eq!(s.windowed_mean_us(), 2.0);
        assert!(s.mean_us() > 100.0);
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let mut m = Metrics::default();
        m.push("p50_us", 2.5, "us");
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"p50_us":{"value":2.5,"unit":"us"}}}"#
        );
    }
}
