//! Metric names, units and kinds, and the one-line JSON result.

use crate::spans::Spans;

/// Where a value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read from the wall clock or the OS: varies from run to run.
    Measured,
    /// Computed by the program's cost model: repeats exactly per seed.
    Model,
}

impl Kind {
    /// Label printed in the human table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Model => "model",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured or model output.
    pub kind: Kind,
}

/// The end-to-end metrics every workload prints with tracing off, in
/// `BENCHMARK.json` order: `(name, unit, kind)`.
pub const END_TO_END: [(&str, &str, Kind); 10] = [
    ("setup_s", "s", Kind::Measured),
    ("queries_per_s", "1/s", Kind::Measured),
    ("epoch_ms_p50", "ms", Kind::Measured),
    ("epoch_ms_p99", "ms", Kind::Measured),
    ("bytes_per_query", "bytes", Kind::Model),
    ("migrated_bytes", "bytes", Kind::Model),
    ("served_frac", "frac", Kind::Model),
    ("place_s", "s", Kind::Measured),
    ("placement_cost", "bytes", Kind::Model),
    ("peak_rss_mb", "MiB", Kind::Measured),
];

/// Timed layer spans of the traced run: `(span, heavy)`. Every span
/// yields `<span>` in ms and its call count; heavy ones also yield the
/// p99 µs per call. A span name ending in `.ms` or `_ms` names the total;
/// the count and p99 swap that suffix for `calls` and `p99_us`.
pub const LAYER_SPANS: [(&str, bool); 23] = [
    ("pipeline.build_ms", false),
    ("trace.generate_ms", false),
    ("search.index_ms", false),
    ("trace.instance_ms", false),
    ("problem.build_ms", false),
    ("controller.init_ms", false),
    ("trace.drift_ms", true),
    ("trace.sample_ms", true),
    ("serve.ms", true),
    ("online.observe_ms", true),
    ("controller.fold_ms", true),
    ("controller.evaluate_ms", true),
    ("controller.accept_ms", true),
    ("migrate.advance_ms", true),
    ("search.cluster_ms", true),
    ("replica.spread_ms", true),
    ("resilience.ladder_ms", true),
    ("resilience.rung.partial_lprr_ms", false),
    ("resilience.rung.greedy_ms", false),
    ("resilience.rung.hash_ms", false),
    ("migrate.replica_polish_ms", true),
    ("graph.cost_ms", false),
    ("persist.report_ms", false),
];

/// Per-layer counts and ratios of the traced run: `(name, unit)`.
pub const LAYER_COUNTS: [(&str, &str); 12] = [
    ("serve.batches", "count"),
    ("serve.max_batch", "count"),
    ("serve.executed_frac", "frac"),
    ("migrate.slices", "count"),
    ("migrate.abandoned", "count"),
    ("controller.evaluations", "count"),
    ("controller.migrations", "count"),
    ("controller.accept_ratio", "frac"),
    ("resilience.degraded", "count"),
    ("migrate.replica_polish_moves", "count"),
    ("tracing.covered_frac", "frac"),
    ("tracing.overhead_frac", "frac"),
];

fn span_prefix(span: &str) -> &str {
    span.strip_suffix("ms").expect("span names end in ms")
}

/// Every per-layer metric name with its unit, in print order.
#[must_use]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (span, heavy) in LAYER_SPANS {
        let prefix = span_prefix(span);
        out.push((span.to_string(), "ms"));
        out.push((format!("{prefix}calls"), "count"));
        if heavy {
            out.push((format!("{prefix}p99_us"), "us"));
        }
    }
    out.extend(LAYER_COUNTS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Folds the recorded spans plus the named counts into the per-layer
/// metric list (every name of [`layer_metric_names`]; an unused layer
/// reads 0). `counts` must name only [`LAYER_COUNTS`] entries.
///
/// # Panics
///
/// Panics if `counts` names a metric outside [`LAYER_COUNTS`].
#[must_use]
pub fn layer_metrics(spans: &Spans, counts: &[(&str, f64)]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (span, heavy) in LAYER_SPANS {
        let prefix = span_prefix(span);
        out.push(measured(span, spans.total(span).as_secs_f64() * 1e3, "ms"));
        out.push(measured(
            &format!("{prefix}calls"),
            spans.calls(span) as f64,
            "count",
        ));
        if heavy {
            out.push(measured(
                &format!("{prefix}p99_us"),
                spans.p99_us(span),
                "us",
            ));
        }
    }
    for &(name, _) in counts {
        assert!(
            LAYER_COUNTS.iter().any(|&(n, _)| n == name),
            "unknown layer count {name}"
        );
    }
    for (name, unit) in LAYER_COUNTS {
        let value = counts
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        out.push(measured(name, value, unit));
    }
    out
}

fn measured(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        kind: Kind::Measured,
    }
}

/// Builds the end-to-end metric list from `values`, which must hold one
/// value per [`END_TO_END`] name in the same order.
#[must_use]
pub fn end_to_end(values: [f64; 10]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, kind), value)| Metric {
            name: name.to_string(),
            value,
            unit,
            kind,
        })
        .collect()
}

/// What one benchmark invocation reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (queries offered, or placement solves).
    pub attempted: u64,
    /// Operations whose answer was missing or wrong.
    pub failed: u64,
    /// Correctness gates that failed, by description. Empty on success.
    pub gate_failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Records a correctness gate: `ok == false` fails the run.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.gate_failures.push(what.into());
        }
    }

    /// True when every gate held and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON object the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// `true` when `name` matches `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_are_unique_and_valid() {
        let names = layer_metric_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, _) in &names {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        assert!(names.len() <= 128);
        assert!(seen.contains("serve.calls") && seen.contains("controller.accept_p99_us"));
    }

    #[test]
    fn json_is_one_line_with_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            metrics: end_to_end([1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 0.25, 9.0, 10.0]),
            ..RunResult::default()
        };
        let j = r.to_json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(j.contains("\"queries_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}"));
        assert!(!j.contains('\n'));
        r.gate(false, "broken");
        assert!(!r.correct());
    }
}
