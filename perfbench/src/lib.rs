//! The repository benchmark: four named workloads, each run untraced for
//! the end-to-end metrics or traced for the per-layer ones. See
//! `README.md` beside this crate for the workloads, metrics and findings,
//! and for why `BENCHMARK.json` gates three of them.

pub mod live;
pub mod metrics;
pub mod place;
pub mod spans;

use cca::trace::TraceConfig;

use crate::live::LiveSpec;
use crate::metrics::RunResult;
use crate::place::PlaceSpec;

/// Names of the workloads.
pub const WORKLOADS: [&str; 4] = ["live-shift", "live-steady-r3", "place-zipf", "place-r3"];

/// Input sizes: the benchmark's own, or the quick ones its tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Small inputs with the same code paths, for tests.
    Quick,
}

/// A named workload.
// One is built per run, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Workload {
    /// A live serving workload.
    Live(LiveSpec),
    /// An offline placement workload.
    Place(PlaceSpec),
}

/// Workload seed of the live scenarios, as in `cca live --seed 2`.
///
/// The live workloads replay this one scenario whatever seed the run is
/// given: the controller's accept/reject decisions are discrete, and
/// another seed changes how many migrations a run accepts (2 to 9 in
/// 1000 epochs of `live-shift`), which moves its wall time by up to 2×
/// and its migrated bytes by up to 4× — far past any bound a regression
/// check could use. The placement workloads draw their instances from
/// the run's seed.
pub const LIVE_SEED: u64 = 2;

/// Worker threads of every workload: the CLI default on a 2-core host.
pub const THREADS: usize = 2;

/// Queries the live loops offer per epoch (closed loop).
pub const QUERIES_PER_EPOCH: usize = 256;

/// Admission window of the live loops' serving executor.
pub const INFLIGHT: usize = 64;

/// Zipf exponent of the placement instances' pair endpoints.
pub const SKEW: f64 = 0.8;

/// Cluster nodes of the placement workloads.
pub const PLACE_NODES: usize = 64;

/// Per-node capacity of the placement workloads, as a multiple of the
/// mean per-node load.
pub const CAPACITY_FACTOR: u64 = 2;

/// The workload named `name` at `scale`, or `None` for an unknown name.
#[must_use]
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let quick = scale == Scale::Quick;
    let live = |trace: TraceConfig| LiveSpec {
        trace: if quick { TraceConfig::small() } else { trace },
        nodes: 10,
        epochs: if quick { 160 } else { 1000 },
        threads: THREADS,
        warm_drift: 0,
        drift_sigma: 0.0,
        drift_epochs: None,
        migration_budget: 64 * 1024,
        replicas: 1,
        domains: None,
        deadline_ms: None,
        setup_reps: 3,
    };
    let place = PlaceSpec {
        objects: if quick { 2_000 } else { 200_000 },
        pairs: if quick { 20_000 } else { 2_000_000 },
        replicas: 1,
        domains: None,
        scope: if quick { 100 } else { 1_000 },
        setup_reps: 3,
        instances: 3,
    };
    Some(match name {
        // cca live --preset paper --nodes 10 --warm-drift 24 --drift-sigma 0.25
        //   --drift-epochs 0 --migration-budget 16384 --queries-per-epoch 256
        "live-shift" => Workload::Live(LiveSpec {
            warm_drift: 24,
            drift_sigma: 0.25,
            drift_epochs: Some(0),
            migration_budget: 16_384,
            ..live(TraceConfig::paper_scaled())
        }),
        // cca live --preset small --nodes 6 --replicas 3 --domains 3
        //   --drift-sigma 0 --deadline-ms 1 --queries-per-epoch 256
        "live-steady-r3" => Workload::Live(LiveSpec {
            nodes: 6,
            replicas: 3,
            domains: Some("3"),
            deadline_ms: Some(1),
            setup_reps: 25,
            ..live(TraceConfig::small())
        }),
        "place-zipf" => Workload::Place(place),
        // Small enough that one solve takes about a second, so a run holds
        // some twenty solves over twelve instances, whose difficulty differs
        // by about ±10%; the replica polish still takes almost all of each
        // solve.
        "place-r3" => Workload::Place(PlaceSpec {
            objects: if quick { 1_000 } else { 2_500 },
            pairs: if quick { 10_000 } else { 25_000 },
            replicas: 3,
            domains: Some("4x4"),
            setup_reps: 15,
            instances: 12,
            ..place
        }),
        _ => return None,
    })
}

/// Runs `workload` once: untraced for the end-to-end metrics, or traced
/// (after an untraced run it must match) for the per-layer metrics.
/// `seed` draws the placement instances; the live workloads replay the
/// [`LIVE_SEED`] scenario.
#[must_use]
pub fn run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    match (workload, trace) {
        (Workload::Live(spec), false) => live::run_untraced(spec, LIVE_SEED, seconds),
        (Workload::Live(spec), true) => live::run_traced(spec, LIVE_SEED),
        (Workload::Place(spec), false) => place::run_untraced(spec, seed, seconds),
        (Workload::Place(spec), true) => place::run_traced(spec, seed),
    }
}
