//! The `live-*` workloads: the closed-loop live runtime
//! (`cca::runtime::run_live_with`) serving a sampled query stream while
//! the drift controller re-places objects.
//!
//! The untraced run calls `run_live_with` as a user would and measures
//! it from the observer callbacks. The traced run replays the same loop
//! call for call from public functions, timing every call into a layer,
//! and must reproduce the untraced run's per-epoch migrated bytes and
//! serving digests exactly.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cca::algo::controller::{Controller, ControllerConfig, EpochOutcome};
use cca::algo::{
    format_live_report, greedy_placement, spread_copies, validate_replica_spec, DomainTree,
    Placement,
};
use cca::hashing::md5;
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::runtime::{run_live_with, LiveConfig, LiveOutcome};
use cca::search::{Cluster, InvertedIndex, StopwordList};
use cca::serve::{serve, ServeConfig, SERVICE_BYTE_NS};
use cca::trace::{DriftConfig, Query, QueryLog, TraceConfig, Workload};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;

use crate::metrics::{end_to_end, layer_metrics, RunResult};
use crate::spans::{median, peak_rss_mb, quantile, tail, Spans};
use crate::{INFLIGHT, QUERIES_PER_EPOCH};

/// Stream constant the live runtime xors into its drift seed.
const DRIFT_STREAM: u64 = 0x00d2_1f70;
/// Stream constant the live runtime xors into its sampling seed.
const SAMPLE_STREAM: u64 = 0x5a3b_1e00;

/// One live workload: the flags of the equivalent `cca live` command.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Workload generator preset.
    pub trace: TraceConfig,
    /// Cluster nodes.
    pub nodes: usize,
    /// Epochs per run of the live loop.
    pub epochs: u64,
    /// Worker threads: [`crate::THREADS`] in every workload; the live
    /// report is the same for every count.
    pub threads: usize,
    /// Drift steps applied before the first epoch (the regime shift).
    pub warm_drift: u64,
    /// Per-epoch drift σ.
    pub drift_sigma: f64,
    /// Drift only the first this-many epochs (`None`: every epoch).
    pub drift_epochs: Option<u64>,
    /// Per-epoch migration byte budget.
    pub migration_budget: u64,
    /// Copies per object.
    pub replicas: usize,
    /// Failure-domain spec (`None`: flat, and the controller's
    /// robustness probe stays per node).
    pub domains: Option<&'static str>,
    /// Per-query virtual latency budget.
    pub deadline_ms: Option<u64>,
    /// Pipeline builds timed for `setup_s`.
    pub setup_reps: usize,
}

/// A built live workload: the pipeline (with the regime shift already
/// applied to its query model) and the live-loop configuration.
pub struct LiveInputs {
    /// The pipeline the loop serves.
    pub pipeline: Pipeline,
    /// The loop configuration.
    pub config: LiveConfig,
    /// The failure-domain tree the copies spread across.
    pub tree: DomainTree,
}

impl LiveSpec {
    fn pipeline_config(&self, seed: u64) -> PipelineConfig {
        let mut config = PipelineConfig::new(self.trace.clone(), self.nodes);
        config.seed = seed;
        config
    }

    /// Builds the workload's inputs for `seed`, the way `cca live --seed`
    /// does: the pipeline from `seed`, then the regime shift drawn from
    /// the runtime's drift stream of `seed`. The shift is applied here,
    /// once, so the loop's own `warm_drift_steps` is 0 — the loop then
    /// runs exactly as `cca live` would with the same flags.
    ///
    /// # Panics
    ///
    /// Panics if the domain spec does not fit the node count.
    #[must_use]
    pub fn inputs(&self, seed: u64) -> LiveInputs {
        let mut pipeline = Pipeline::build(&self.pipeline_config(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ DRIFT_STREAM);
        let drift = DriftConfig {
            sigma: self.drift_sigma,
        };
        for _ in 0..self.warm_drift {
            pipeline.workload.model = pipeline.workload.model.drifted(drift, &mut rng);
        }
        let tree = match self.domains {
            Some(spec) => DomainTree::parse(spec, self.nodes).expect("valid domain spec"),
            None => DomainTree::flat(self.nodes),
        };
        let controller = ControllerConfig {
            threads: self.threads,
            shards: 0,
            horizon_epochs: self.epochs,
            domains: self.domains.map(|_| tree.clone()),
            ..ControllerConfig::default()
        };
        let config = LiveConfig {
            epochs: self.epochs,
            queries_per_epoch: QUERIES_PER_EPOCH,
            drift_sigma: self.drift_sigma,
            drift_epochs: self.drift_epochs,
            warm_drift_steps: 0,
            seed,
            inflight: INFLIGHT,
            threads: self.threads,
            deadline_ms: self.deadline_ms,
            migration_budget: self.migration_budget,
            replicas: self.replicas,
            domains: self.domains.map(|_| tree.clone()),
            controller,
        };
        LiveInputs {
            pipeline,
            config,
            tree,
        }
    }
}

/// What one epoch shipped and served: the pair the live report's digest
/// chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochTrace {
    /// Migration bytes shipped at the top of the epoch.
    pub migrated_bytes: u64,
    /// The epoch's serving digest.
    pub digest: String,
}

/// One untraced `run_live_with` call, measured from its observer.
pub struct LiveRep {
    /// Wall time of the call.
    pub wall: Duration,
    /// Wall-clock gap before each observer callback, in ms (the first
    /// gap starts at the call).
    pub gaps_ms: Vec<f64>,
    /// Summed gaps of the epochs whose controller step evaluated a
    /// re-placement (every outcome but `Idle`).
    pub replace_s: f64,
    /// Per-epoch migrated bytes and serving digests.
    pub epochs: Vec<EpochTrace>,
    /// The run's outcome.
    pub outcome: LiveOutcome,
}

/// Runs the live loop once, untraced.
#[must_use]
pub fn run_once(inputs: &LiveInputs) -> LiveRep {
    let epochs = inputs.config.epochs as usize;
    let mut gaps_ms = Vec::with_capacity(epochs);
    let mut trace = Vec::with_capacity(epochs);
    let mut replace_s = 0.0;
    let start = Instant::now();
    let mut last = start;
    let outcome = run_live_with(&inputs.pipeline, &inputs.config, |r| {
        let now = Instant::now();
        let gap = now - last;
        last = now;
        gaps_ms.push(gap.as_secs_f64() * 1e3);
        if r.outcome != EpochOutcome::Idle {
            replace_s += gap.as_secs_f64();
        }
        trace.push(EpochTrace {
            migrated_bytes: r.migrated_bytes,
            digest: r.report.digest.clone(),
        });
    });
    LiveRep {
        wall: start.elapsed(),
        gaps_ms,
        replace_s,
        epochs: trace,
        outcome,
    }
}

/// The replica-aware cost of the live run's final placement under the
/// base problem: the primary's cost with one copy, else the cost of the
/// copies the serving overlay spreads from it.
fn final_cost(inputs: &LiveInputs, placement: &Placement) -> f64 {
    let problem = &inputs.pipeline.problem;
    let r = inputs.config.replicas.max(1);
    let rp = spread_copies(problem, &inputs.tree, placement.clone(), r, r as f64)
        .expect("replica spec validated by the run");
    problem.eval_cost_replicas(&rp, inputs.config.threads)
}

/// The correctness gates of one live run.
fn gate_rep(result: &mut RunResult, inputs: &LiveInputs, rep: &LiveRep, first: Option<&str>) {
    let report = &rep.outcome.report;
    let offered = inputs.config.epochs * inputs.config.queries_per_epoch as u64;
    let before = result.gate_failures.len();
    result.gate(
        report.counters_consistent(),
        "live report counters_consistent",
    );
    result.gate(report.within_budget(), "live report within_budget");
    result.gate(report.final_feasible, "live report final_feasible");
    result.gate(
        report.queries == offered,
        format!(
            "live report queries {} != epochs x queries_per_epoch {offered}",
            report.queries
        ),
    );
    result.gate(
        rep.epochs.len() as u64 == inputs.config.epochs,
        "observer saw every epoch",
    );
    if let Some(d) = first {
        result.gate(
            report.digest == d,
            "repeated live runs produce one report digest",
        );
    }
    if result.gate_failures.len() > before {
        result.failed += report.queries;
    }
}

/// The untraced live workload: `setup_reps` timed pipeline builds, then
/// live-loop repetitions for about `seconds`, every end-to-end metric.
#[must_use]
pub(crate) fn run_untraced(spec: &LiveSpec, seed: u64, seconds: f64) -> RunResult {
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..spec.setup_reps.max(1) {
        // Drop the previous set-up first so peak memory holds one pipeline.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(spec.inputs(seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one setup");

    let mut result = RunResult::default();
    let mut reps: Vec<LiveRep> = Vec::new();
    let start = Instant::now();
    loop {
        let rep = run_once(&inputs);
        let first = reps.first().map(|r| r.outcome.report.digest.as_str());
        gate_rep(&mut result, &inputs, &rep, first);
        let rep_s = rep.wall.as_secs_f64();
        reps.push(rep);
        if start.elapsed().as_secs_f64() + rep_s > seconds {
            break;
        }
    }

    let last = reps.last().expect("at least one rep");
    let report = &last.outcome.report;
    let queries: u64 = reps.iter().map(|r| r.outcome.report.queries).sum();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.outcome.report.queries as f64 / r.wall.as_secs_f64())
        .collect();
    let gaps: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.gaps_ms.iter().copied())
        .collect();
    let executed = report.served + report.degraded;
    let replace: Vec<f64> = reps.iter().map(|r| r.replace_s).collect();
    result.attempted = queries;
    result.metrics = end_to_end([
        median(&setup),
        median(&rates),
        quantile(&gaps, 0.5),
        tail(&gaps),
        report.executed_bytes as f64 / executed.max(1) as f64,
        report.migrated_bytes as f64,
        report.served as f64 / report.queries.max(1) as f64,
        median(&replace),
        final_cost(&inputs, &last.outcome.placement),
        peak_rss_mb(),
    ]);
    result
}

/// Everything the traced replay of the loop produced.
struct Mirror {
    /// Per-epoch migrated bytes and serving digests.
    epochs: Vec<EpochTrace>,
    /// The epoch-chained digest, computed as the live report does.
    digest: String,
    /// The final live placement.
    placement: Placement,
    /// Wall time of the replay, report included.
    wall: Duration,
    /// Per-layer counts and ratios, named as in [`crate::metrics::LAYER_COUNTS`].
    counts: Vec<(&'static str, f64)>,
}

/// The loop spans the replay covers its wall time with.
const LOOP_SPANS: [&str; 12] = [
    "controller.init_ms",
    "trace.drift_ms",
    "trace.sample_ms",
    "serve.ms",
    "online.observe_ms",
    "controller.fold_ms",
    "controller.evaluate_ms",
    "controller.accept_ms",
    "migrate.advance_ms",
    "search.cluster_ms",
    "replica.spread_ms",
    "persist.report_ms",
];

/// The serving overlay of the live loop, timed: the cluster over the
/// primary with one copy, else over the copies spread from it.
fn cluster_of(
    spans: &mut Spans,
    inputs: &LiveInputs,
    replicas: usize,
    primary: &Placement,
) -> Cluster {
    let pipeline = &inputs.pipeline;
    if replicas == 1 {
        spans.time("search.cluster_ms", || pipeline.cluster_for(primary))
    } else {
        let rp = spans.time("replica.spread_ms", || {
            spread_copies(
                &pipeline.problem,
                &inputs.tree,
                primary.clone(),
                replicas,
                replicas as f64,
            )
            .expect("spec validated above")
        });
        spans.time("search.cluster_ms", || pipeline.cluster_for_replicas(&rp))
    }
}

/// Replays `run_live_with` call for call from public functions, timing
/// each call into a layer. `report_text` renders the untraced run's
/// report, timed as the persistence layer.
fn mirror(inputs: &LiveInputs, spans: &mut Spans, report_text: impl FnOnce() -> String) -> Mirror {
    let start = Instant::now();
    let pipeline = &inputs.pipeline;
    let config = &inputs.config;
    let problem = &pipeline.problem;
    let replicas = config.replicas.max(1);

    let mut controller = spans.time("controller.init_ms", || {
        validate_replica_spec(replicas, &inputs.tree).expect("replica spec must be valid");
        let initial = greedy_placement(problem);
        let mut controller_config = config.controller.clone();
        controller_config.migration_budget_per_epoch = Some(config.migration_budget);
        Controller::new(problem, initial, controller_config)
    });
    let mut cluster = cluster_of(spans, inputs, replicas, controller.placement());

    let mut model = pipeline.workload.model.clone();
    let drift = DriftConfig {
        sigma: config.drift_sigma,
    };
    let mut drift_rng = StdRng::seed_from_u64(config.seed ^ DRIFT_STREAM);
    let mut sample_rng = StdRng::seed_from_u64(config.seed ^ SAMPLE_STREAM);
    for _ in 0..config.warm_drift_steps {
        model = spans.time("trace.drift_ms", || model.drifted(drift, &mut drift_rng));
    }

    let mut epochs = Vec::with_capacity(config.epochs as usize);
    let (mut batches, mut max_batch, mut executed, mut offered, mut slices) =
        (0u64, 0usize, 0u64, 0u64, 0u64);
    for epoch in 1..=config.epochs {
        let mut migrated = 0u64;
        if let Some(slice) = spans.time("migrate.advance_ms", || controller.advance_migration()) {
            slices += 1;
            migrated = slice.bytes;
            if slice.moves > 0 {
                cluster = cluster_of(spans, inputs, replicas, controller.placement());
            }
        }

        if config.drift_epochs.is_none_or(|k| epoch <= k) {
            model = spans.time("trace.drift_ms", || model.drifted(drift, &mut drift_rng));
        }
        let log = spans.time("trace.sample_ms", || {
            model.sample_log(config.queries_per_epoch, &mut sample_rng)
        });
        let overhead_ns = if log.queries.is_empty() {
            0
        } else {
            migrated.saturating_mul(SERVICE_BYTE_NS) / log.queries.len() as u64
        };
        let out = spans.time("serve.ms", || {
            serve(
                &pipeline.index,
                &cluster,
                pipeline.config().aggregation,
                &log.queries,
                &ServeConfig {
                    inflight: config.inflight,
                    threads: config.threads,
                    deadline_ms: config.deadline_ms,
                    burst: None,
                    overhead_ns,
                },
            )
        });
        batches += out.batches;
        max_batch = max_batch.max(out.max_batch);
        offered += log.queries.len() as u64;

        let obs = spans.time("online.observe_ms", || {
            let executed: Vec<Query> = out
                .responses
                .iter()
                .filter(|r| r.status.executed())
                .map(|r| log.queries[r.index].clone())
                .collect();
            let executed_log = QueryLog {
                queries: executed,
                universe: log.universe,
            };
            cca::online::epoch_observation(pipeline, &executed_log)
        });
        executed += out.responses.iter().filter(|r| r.status.executed()).count() as u64;
        let t = Instant::now();
        let outcome = controller.step(&obs);
        let span = match outcome {
            EpochOutcome::Idle => "controller.fold_ms",
            EpochOutcome::Migrated { .. } | EpochOutcome::MigrationScheduled { .. } => {
                "controller.accept_ms"
            }
            _ => "controller.evaluate_ms",
        };
        spans.add(span, t.elapsed());
        epochs.push(EpochTrace {
            migrated_bytes: migrated,
            digest: out.report.digest,
        });
    }

    let (report, digest) = spans.time("persist.report_ms", || {
        let report = controller.report();
        let digest = chained_digest(&epochs);
        std::hint::black_box(report_text());
        (report, digest)
    });
    let counts = vec![
        ("serve.batches", batches as f64),
        ("serve.max_batch", max_batch as f64),
        (
            "serve.executed_frac",
            executed as f64 / offered.max(1) as f64,
        ),
        ("migrate.slices", slices as f64),
        (
            "migrate.abandoned",
            controller.abandoned_migrations() as f64,
        ),
        ("controller.evaluations", report.evaluated as f64),
        ("controller.migrations", report.migrations as f64),
        (
            "controller.accept_ratio",
            report.migrations as f64 / report.evaluated.max(1) as f64,
        ),
    ];
    Mirror {
        epochs,
        digest,
        placement: controller.placement().clone(),
        wall: start.elapsed(),
        counts,
    }
}

/// The live report's digest: MD5 over one `epoch, migrated bytes,
/// serving digest` line per epoch.
#[must_use]
fn chained_digest(epochs: &[EpochTrace]) -> String {
    let mut stream = String::new();
    for (i, e) in epochs.iter().enumerate() {
        let _ = writeln!(stream, "{}\t{}\t{}", i + 1, e.migrated_bytes, e.digest);
    }
    md5::Md5::hex(&md5::digest(stream.as_bytes()))
}

/// The traced live workload: timed set-up layers, one untraced run, then
/// the call-for-call replay, which must match the untraced run before
/// any per-layer number is reported.
#[must_use]
pub(crate) fn run_traced(spec: &LiveSpec, seed: u64) -> RunResult {
    let mut spans = Spans::default();
    let inputs = spans.time("pipeline.build_ms", || spec.inputs(seed));
    let workload = spans.time("trace.generate_ms", || {
        Workload::generate(&spec.trace, seed)
    });
    spans.time("search.index_ms", || {
        InvertedIndex::build(
            &workload.corpus,
            &workload.vocabulary,
            &StopwordList::smart(),
        )
    });
    drop(workload);

    let base = run_once(&inputs);
    let mut result = RunResult::default();
    gate_rep(&mut result, &inputs, &base, None);
    let m = mirror(&inputs, &mut spans, || {
        format_live_report(&base.outcome.report)
    });
    spans.time("graph.cost_ms", || final_cost(&inputs, &m.placement));

    result.attempted = base.outcome.report.queries;
    let same_epochs = m.epochs == base.epochs;
    result.gate(
        same_epochs,
        "traced replay reproduces every epoch's migrated bytes and serving digest",
    );
    result.gate(
        m.digest == base.outcome.report.digest,
        "traced replay reproduces the live report digest",
    );
    result.gate(
        m.placement == base.outcome.placement,
        "traced replay ends on the same placement",
    );
    if !result.gate_failures.is_empty() {
        result.failed = result.attempted;
        return result;
    }
    let covered = spans.sum_of(&LOOP_SPANS).as_secs_f64() / m.wall.as_secs_f64();
    let base_s = base.wall.as_secs_f64();
    let mut counts = m.counts;
    counts.push(("tracing.covered_frac", covered));
    counts.push((
        "tracing.overhead_frac",
        (m.wall.as_secs_f64() - base_s) / base_s,
    ));
    result.metrics = layer_metrics(&spans, &counts);
    result
}
