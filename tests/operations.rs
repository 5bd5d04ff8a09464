//! Operational-scenario integration tests: node decommission, budgeted
//! migration, and persistence, all against the full pipeline.

use cca::algo::{
    drain_node, format_placement, migration_bytes, read_placement, reconcile, MigrateOptions,
    Strategy,
};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::search::{AggregationPolicy, Cluster, QueryEngine};
use cca::trace::TraceConfig;

fn pipeline(nodes: usize) -> Pipeline {
    let mut config = PipelineConfig::new(TraceConfig::tiny(), nodes);
    config.seed = 61;
    Pipeline::build(&config)
}

/// Decommissioning a node keeps the system serving with modest extra
/// traffic, and the drained node really is empty.
#[test]
fn node_decommission_end_to_end() {
    let p = pipeline(5);
    let lprr = p.place(&Strategy::lprr(), Some(80)).unwrap();
    let before = p.replay(&lprr.placement).total_bytes;

    let drained = drain_node(&p.problem, &lprr.placement, 2, &MigrateOptions::default())
        .expect("survivors have 2x-average capacity headroom");
    for o in p.problem.objects() {
        assert_ne!(drained.placement.node_of(o), 2, "{o} left on drained node");
    }
    // Replay still works; traffic should not explode (drain keeps
    // correlation clusters together).
    let after = p.replay(&drained.placement).total_bytes;
    let random = p.evaluate(&Strategy::RandomHash, None).unwrap().replay.total_bytes;
    assert!(
        after <= random,
        "drained placement ({after}) should stay below random ({random}); before was {before}"
    );
}

/// Draining and reconciling compose: drain a node, then reconcile back
/// toward the original placement once the node "returns" — with enough
/// budget and non-positive gains enabled, the placement is restored.
#[test]
fn drain_then_restore_round_trip() {
    let p = pipeline(4);
    let original = p.place(&Strategy::Greedy, Some(60)).unwrap().placement;
    let drained = drain_node(&p.problem, &original, 1, &MigrateOptions::default())
        .expect("drainable")
        .placement;
    assert!(migration_bytes(&p.problem, &original, &drained) > 0);

    let restored = reconcile(
        &p.problem,
        &drained,
        &original,
        u64::MAX,
        &MigrateOptions {
            apply_nonpositive_gains: true,
            max_sweeps: 8,
            ..MigrateOptions::default()
        },
    );
    assert_eq!(
        restored.placement, original,
        "ample budget + nonpositive gains must restore the original placement"
    );
}

/// Placements survive a save/load round trip and replay identically.
#[test]
fn persistence_preserves_replay() {
    let p = pipeline(4);
    let report = p.place(&Strategy::lprr(), Some(80)).unwrap();
    let text = format_placement(&p.problem, &report.placement);
    let loaded = read_placement(text.as_bytes(), &p.problem).unwrap();
    assert_eq!(loaded, report.placement);

    let a = p.replay(&report.placement);
    let b = p.replay(&loaded);
    assert_eq!(a.total_bytes, b.total_bytes);
}

/// A saved query log replays to identical statistics after reloading.
#[test]
fn query_log_round_trip_replays_identically() {
    let p = pipeline(4);
    let text = cca::trace::format_query_log(&p.workload.queries);
    let loaded = cca::trace::read_query_log(text.as_bytes()).unwrap();

    let placement = p.place(&Strategy::Greedy, Some(60)).unwrap().placement;
    let cluster: Cluster = p.cluster_for(&placement);
    let engine = QueryEngine::new(&p.index, &cluster, AggregationPolicy::Intersection);
    assert_eq!(
        engine.replay(&p.workload.queries),
        engine.replay(&loaded)
    );
}
