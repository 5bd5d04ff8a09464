//! Outside-in span recorder and the order statistics the benchmark
//! reports.
//!
//! A span is the wall time of one public call into a layer, taken from
//! the benchmark's side of the call. Spans stay in memory and are folded
//! into per-layer totals, call counts and p99 latencies when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-name lists of span durations.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Vec<Duration>>,
}

impl Spans {
    /// Runs `f`, records its wall time under `name`, and returns its value.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.add(name, start.elapsed());
        value
    }

    /// Records one span of length `d` under `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        self.by_name.entry(name).or_default().push(d);
    }

    /// Summed duration of every span named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> Duration {
        self.by_name
            .get(name)
            .map_or(Duration::ZERO, |v| v.iter().sum())
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn calls(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// The 99th-percentile span named `name`, in microseconds (0 when
    /// there is none).
    #[must_use]
    pub fn p99_us(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .by_name
            .get(name)
            .map(|v| v.iter().map(|d| d.as_secs_f64() * 1e6).collect())
            .unwrap_or_default();
        if ms.is_empty() {
            0.0
        } else {
            quantile(&ms, 0.99)
        }
    }

    /// Summed duration of every span whose name is in `names`.
    #[must_use]
    pub fn sum_of(&self, names: &[&str]) -> Duration {
        names.iter().map(|n| self.total(n)).sum()
    }
}

/// The `q`-quantile of `values` by the nearest-rank rule (the smallest
/// value with at least `q·n` values at or below it).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail latency the benchmark reports as p99: the 99th percentile
/// when at least ten samples lie beyond it (1000 or more samples), else
/// the highest nearest-rank quantile with ten samples beyond it, else
/// (under 20 samples) the median.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 20 {
        return median(values);
    }
    quantile(values, (1.0 - 10.0 / n as f64).min(0.99))
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), 990.0);
        assert_eq!(tail(&v[..40]), 30.0);
        assert_eq!(tail(&v[..5]), 3.0);
    }

    #[test]
    fn spans_accumulate_per_name() {
        let mut s = Spans::default();
        s.add("a", Duration::from_millis(2));
        s.add("a", Duration::from_millis(3));
        assert_eq!(s.total("a"), Duration::from_millis(5));
        assert_eq!(s.calls("a"), 2);
        assert_eq!(s.calls("b"), 0);
        assert_eq!(s.p99_us("b"), 0.0);
        assert_eq!(s.time("b", || 7), 7);
        assert_eq!(s.calls("b"), 1);
    }
}
