//! Metric collection, order statistics, the box fingerprint and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::trace::json_escape;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics; a name may appear once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Appends `other`, prefixing every name with `prefix`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &Metrics) {
        for m in other.iter() {
            self.push(format!("{prefix}{}", m.name), m.value, m.unit);
        }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (sorted in place).
/// Returns 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Resident set of this process in KiB from `/proc/self/statm` (cheaper to
/// read than `status`; x86-64 Linux pages are 4 KiB), 0 if unreadable.
fn resident_kib() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0, |pages| pages * 4)
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Samples this process's resident set every 10 ms on a helper thread
/// until [`RssSampler::finish`]. `VmHWM` is the maximum over the whole
/// process and hinges on the single largest buffer; the median of the
/// samples describes the footprint of the whole pass.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<u64>>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut kib = vec![resident_kib()];
            // The flag publishes nothing else: Relaxed.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(10));
                kib.push(resident_kib());
            }
            kib
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns its samples in MiB.
    pub fn finish(mut self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        let kib = self
            .handle
            .take()
            .map(|h| h.join().expect("the sampler thread does not panic"))
            .unwrap_or_default();
        kib.into_iter().map(|k| k as f64 / 1024.0).collect()
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // Only reached when `finish` was not called: samples unused.
            let _ = h.join();
        }
    }
}

/// What the result depends on besides the code: cores, threads used, CPU
/// model and compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub threads: usize,
    pub cpu: String,
    pub rustc: String,
}

impl Fingerprint {
    pub fn detect(threads: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            threads,
            cpu,
            rustc: env!("REPOBENCH_RUSTC_VERSION").to_string(),
        }
    }

    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("threads", self.threads.to_string()),
            ("cpu", self.cpu.clone()),
            ("rustc", self.rustc.clone()),
        ]
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A finite JSON number with every digit of the measurement (Rust's `{}`
/// prints the shortest string that round-trips the `f64`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(&m.name),
            json_number(m.value),
            json_escape(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("slots_per_s", 1234.5, "1/s");
        m.push("setup_s", 2.0, "s");
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"slots_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_names_are_a_bug() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("a", 2.0, "s");
    }

    #[test]
    fn resident_set_is_plausible() {
        let kib = resident_kib();
        assert!(kib > 1024 && kib < 1 << 30, "resident set {kib} KiB");
    }

    #[test]
    fn sampler_sees_a_live_buffer() {
        let sampler = RssSampler::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let buf = vec![1u8; 64 << 20];
        std::thread::sleep(std::time::Duration::from_millis(100));
        std::hint::black_box(&buf);
        let mut mib = sampler.finish();
        assert!(mib.len() >= 5);
        let (lo, hi) = (quantile(&mut mib, 0.0), quantile(&mut mib, 1.0));
        assert!(hi > lo + 32.0, "samples span {lo}..{hi} MiB");
        // Other tests share the process, and the kernel folds their freed
        // memory into the high-water mark lazily, so compare against the
        // buffer that is still live rather than the sampled maximum.
        assert!(peak_rss_mib() >= 64.0);
    }
}
