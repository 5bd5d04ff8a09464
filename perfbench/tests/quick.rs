//! The benchmark's own checks, at quick sizes: every workload prints
//! every metric under a valid name, the traced replay matches the
//! untraced run, and the live report does not depend on the thread
//! count.

use cca_perfbench::live::{run_once, LiveSpec};
use cca_perfbench::metrics::{layer_metric_names, valid_name, END_TO_END};
use cca_perfbench::{run, workload, Scale, Workload, LIVE_SEED, WORKLOADS};

const SEED: u64 = 5;

fn names(result: &cca_perfbench::metrics::RunResult) -> Vec<String> {
    result.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected: Vec<String> = END_TO_END.iter().map(|&(n, _, _)| n.to_string()).collect();
    for name in WORKLOADS {
        let w = workload(name, Scale::Quick).expect("known workload");
        let result = run(&w, SEED, 0.1, false);
        assert!(result.correct(), "{name}: {:?}", result.gate_failures);
        assert_eq!(names(&result), expected, "{name}");
        for m in &result.metrics {
            assert!(valid_name(&m.name), "{name}: {}", m.name);
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        }
        assert!(result.attempted >= 1, "{name}");
        assert_eq!(result.failed, 0, "{name}");
        let json = result.to_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"correct\": true, "), "{name}: {json}");
    }
}

#[test]
fn traced_replay_matches_and_prints_every_layer_metric() {
    let expected: Vec<String> = layer_metric_names().into_iter().map(|(n, _)| n).collect();
    for name in WORKLOADS {
        let w = workload(name, Scale::Quick).expect("known workload");
        let result = run(&w, SEED, 0.1, true);
        // A mismatch between the replay and the untraced run is a failed
        // gate, and then no per-layer number is printed at all.
        assert!(result.correct(), "{name}: {:?}", result.gate_failures);
        assert_eq!(names(&result), expected, "{name}");
        for n in &expected {
            assert!(valid_name(n), "{n}");
        }
        let covered = result
            .metrics
            .iter()
            .find(|m| m.name == "tracing.covered_frac")
            .expect("coverage reported")
            .value;
        assert!(covered > 0.5 && covered <= 1.0, "{name}: covered {covered}");
    }
}

#[test]
fn unknown_workloads_are_rejected() {
    assert!(workload("live", Scale::Quick).is_none());
    assert!(workload("", Scale::Full).is_none());
}

fn quick_live(name: &str) -> LiveSpec {
    match workload(name, Scale::Quick) {
        Some(Workload::Live(spec)) => spec,
        _ => panic!("{name} is a live workload"),
    }
}

#[test]
fn live_report_digest_is_identical_at_one_and_two_threads() {
    for name in ["live-shift", "live-steady-r3"] {
        let two = quick_live(name);
        let one = LiveSpec {
            threads: 1,
            ..two.clone()
        };
        let a = run_once(&two.inputs(LIVE_SEED));
        let b = run_once(&one.inputs(LIVE_SEED));
        assert_eq!(a.outcome.report, b.outcome.report, "{name}");
        if name == "live-shift" {
            assert!(a.outcome.report.migrated_bytes > 0, "exercise migration");
        }
        assert_eq!(a.epochs, b.epochs, "{name}");
    }
}
