//! The `place-*` workloads: one offline placement request on a synthetic
//! Zipf instance through `cca_core::solve_resilient_replicated` — graph
//! build, the degradation ladder, cost kernels and, with replicas, the
//! copy spread and its spread-preserving polish. No serving, no
//! controller.

use std::time::{Duration, Instant};

use cca::algo::{
    format_replica_placement, improve_replicas_in_place, random_hash_placement,
    replica_migration_bytes, solve_resilient_replicated, solve_resilient_with_faults,
    spread_copies, validate_replica_spec, CcaProblem, DomainTree, FaultPlan, MigrateOptions,
    ReplicaPlacement, ResilienceOptions, ResilientReplicaPlacement, Rung,
};
use cca::trace::{zipf_instance, ZipfInstance};

use crate::metrics::{end_to_end, layer_metrics, RunResult};
use crate::spans::{median, peak_rss_mb, tail, Spans};
use crate::{CAPACITY_FACTOR, PLACE_NODES, SKEW, THREADS};

/// One placement workload.
#[derive(Debug, Clone)]
pub struct PlaceSpec {
    /// Objects of the Zipf instance.
    pub objects: usize,
    /// Correlated pairs of the Zipf instance.
    pub pairs: usize,
    /// Copies per object.
    pub replicas: usize,
    /// Failure-domain spec (`None`: flat).
    pub domains: Option<&'static str>,
    /// Important-object scope of the partial-LPRR rung (paper §3.1).
    pub scope: usize,
    /// Set-ups of a run's first instance timed for `setup_s` (later
    /// instances are set up once each, also timed).
    pub setup_reps: usize,
    /// Instances per untraced run, drawn from the workload seed. Several
    /// average the seed out of the model outputs and of the solve times:
    /// with one instance, `migrated_bytes` on `place-zipf` spreads 0.09
    /// over ten seeds.
    pub instances: usize,
}

impl PlaceSpec {
    /// The instance for `seed`.
    #[must_use]
    pub fn instance(&self, seed: u64) -> ZipfInstance {
        zipf_instance(self.objects, self.pairs, SKEW, seed)
    }

    /// The placement problem over `inst`: one object per instance object,
    /// every pair, and [`PLACE_NODES`] nodes of [`CAPACITY_FACTOR`] × the
    /// mean load.
    ///
    /// # Panics
    ///
    /// Panics if the instance is malformed (it never is).
    #[must_use]
    pub fn problem(&self, inst: &ZipfInstance) -> CcaProblem {
        let mut b = CcaProblem::builder();
        let ids: Vec<_> = inst
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| b.add_object(format!("z{i}"), s))
            .collect();
        for p in &inst.pairs {
            b.add_pair(
                ids[p.a as usize],
                ids[p.b as usize],
                p.correlation,
                p.comm_cost,
            )
            .expect("instance pairs are valid");
        }
        let total: u64 = inst.sizes.iter().sum();
        let capacity = (CAPACITY_FACTOR * total).div_ceil(PLACE_NODES as u64);
        b.uniform_capacities(PLACE_NODES, capacity)
            .build()
            .expect("instance builds")
    }

    /// The failure-domain tree.
    ///
    /// # Panics
    ///
    /// Panics if the domain spec does not fit the node count.
    #[must_use]
    pub fn tree(&self) -> DomainTree {
        match self.domains {
            Some(spec) => DomainTree::parse(spec, PLACE_NODES).expect("valid domain spec"),
            None => DomainTree::flat(PLACE_NODES),
        }
    }

    /// The solve options: the ladder from partial LPRR down.
    #[must_use]
    pub fn options(&self) -> ResilienceOptions {
        ResilienceOptions {
            start: Rung::PartialLprr,
            partial_scope: Some(self.scope),
            threads: THREADS,
            ..ResilienceOptions::default()
        }
    }
}

/// The cost of `rp` by the graph kernels: `eval_cost` of the primary
/// with one copy, else `eval_cost_replicas`.
fn kernel_cost(problem: &CcaProblem, rp: &ReplicaPlacement, threads: usize) -> f64 {
    if rp.replicas() == 1 {
        problem.eval_cost(rp.primary(), threads)
    } else {
        problem.eval_cost_replicas(rp, threads)
    }
}

/// The correctness gates of one solve. Returns whether they all held.
fn gate_solve(
    result: &mut RunResult,
    out: &ResilientReplicaPlacement,
    first: Option<&ResilientReplicaPlacement>,
) -> bool {
    let before = result.gate_failures.len();
    result.gate(out.base.audit.feasible(), "placement audit is feasible");
    result.gate(out.spread_valid, "replica spread_valid holds");
    // Re-evaluated on the problem the solve audited against.
    let again = kernel_cost(&out.base.effective_problem, &out.replica, THREADS);
    result.gate(
        again.to_bits() == out.cost.to_bits(),
        format!(
            "returned cost {} equals a separate evaluation {again} bit for bit",
            out.cost
        ),
    );
    if let Some(f) = first {
        result.gate(
            f.replica == out.replica && f.cost.to_bits() == out.cost.to_bits(),
            "repeated solves return one placement",
        );
    }
    result.gate_failures.len() == before
}

/// Bytes a cluster laid out by hash placement (copies spread by the same
/// rule) ships to adopt `rp`.
fn adoption_bytes(problem: &CcaProblem, tree: &DomainTree, rp: &ReplicaPlacement) -> u64 {
    let r = rp.replicas();
    let from = spread_copies(problem, tree, random_hash_placement(problem), r, r as f64)
        .expect("replica spec validated by the solve");
    replica_migration_bytes(problem, &from, rp)
}

/// The solves of one instance within its share of the run.
struct InstanceRun {
    /// Wall time of each solve.
    solve_s: Vec<f64>,
    /// Solves whose gates all held.
    ok: u64,
    /// Pairs of the instance.
    pairs: usize,
    /// Summed pair correlations (the operation weight).
    weight: f64,
    /// The returned cost.
    cost: f64,
    /// Bytes a hash-placed cluster ships to adopt the placement.
    adoption: u64,
    /// Peak RSS of the process in MiB, read right after the first solve.
    first_peak_mb: f64,
}

/// Solves `problem` repeatedly for about `seconds` (at least once),
/// gating every solve.
fn solve_instance(
    result: &mut RunResult,
    spec: &PlaceSpec,
    problem: &CcaProblem,
    seconds: f64,
) -> InstanceRun {
    let tree = spec.tree();
    let options = spec.options();
    let mut solve_s = Vec::new();
    let mut ok = 0u64;
    let mut first: Option<ResilientReplicaPlacement> = None;
    let mut first_peak_mb = 0.0;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let out = solve_resilient_replicated(
            problem,
            &options,
            &FaultPlan::default(),
            &tree,
            spec.replicas,
        )
        .expect("valid replica spec");
        let dt = t.elapsed().as_secs_f64();
        solve_s.push(dt);
        if gate_solve(result, &out, first.as_ref()) {
            ok += 1;
        }
        if first.is_none() {
            first_peak_mb = peak_rss_mb();
            first = Some(out);
        }
        if start.elapsed().as_secs_f64() + dt > seconds {
            break;
        }
    }
    let out = first.expect("at least one solve");
    InstanceRun {
        solve_s,
        ok,
        pairs: problem.pairs().len(),
        weight: problem.pairs().iter().map(|p| p.correlation).sum(),
        cost: out.cost,
        adoption: adoption_bytes(problem, &tree, &out.replica),
        first_peak_mb,
    }
}

/// The seed of instance `k` of a run with workload seed `seed`;
/// instance 0 uses `seed` itself.
#[must_use]
fn instance_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The untraced placement workload: `instances` instances drawn from
/// `seed`, each set up (the first `setup_reps` times) and solved
/// repeatedly for its share of about `seconds`. Model outputs and
/// per-instance median solve times are averaged over the instances.
///
/// `peak_rss_mb` is the peak after the first instance's set-ups and
/// first solve: the memory one placement request needs. Repeated solves
/// in one process raise the peak further, in steps of about 2 MiB after
/// a number of solves that varies from run to run, which would be noise
/// here.
#[must_use]
pub(crate) fn run_untraced(spec: &PlaceSpec, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setup = Vec::new();
    let mut runs = Vec::new();
    let instances = spec.instances.max(1);
    for k in 0..instances {
        let reps = if k == 0 { spec.setup_reps.max(1) } else { 1 };
        let mut problem = None;
        for _ in 0..reps {
            // Drop the previous set-up first so peak memory holds one problem.
            drop(problem.take());
            let t = Instant::now();
            let inst = spec.instance(instance_seed(seed, k));
            problem = Some(spec.problem(&inst));
            drop(inst);
            setup.push(t.elapsed().as_secs_f64());
        }
        let problem = problem.expect("at least one setup");
        runs.push(solve_instance(
            &mut result,
            spec,
            &problem,
            seconds / instances as f64,
        ));
    }

    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&InstanceRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let place_s = mean(&|r| median(&r.solve_s));
    let solve_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.solve_s.iter().map(|s| s * 1e3))
        .collect();
    let solves = solve_ms.len() as u64;
    let ok: u64 = runs.iter().map(|r| r.ok).sum();
    result.attempted = solves;
    result.failed = solves - ok;
    result.metrics = end_to_end([
        median(&setup),
        mean(&|r| r.pairs as f64 / median(&r.solve_s)),
        median(&solve_ms),
        tail(&solve_ms),
        mean(&|r| r.cost / r.weight),
        mean(&|r| r.adoption as f64),
        ok as f64 / solves as f64,
        place_s,
        mean(&|r| r.cost),
        runs[0].first_peak_mb,
    ]);
    result
}

/// The span of each ladder rung's own wall time, from the public
/// degradation report.
fn rung_span(rung: Rung) -> Option<&'static str> {
    match rung {
        Rung::Lprr => None,
        Rung::PartialLprr => Some("resilience.rung.partial_lprr_ms"),
        Rung::Greedy => Some("resilience.rung.greedy_ms"),
        Rung::Hash => Some("resilience.rung.hash_ms"),
    }
}

/// The spans that partition the replay's wall time.
const SOLVE_SPANS: [&str; 5] = [
    "resilience.ladder_ms",
    "replica.spread_ms",
    "migrate.replica_polish_ms",
    "graph.cost_ms",
    "persist.report_ms",
];

/// What the traced replay of the solve produced.
struct Mirror {
    /// The replica placement.
    replica: ReplicaPlacement,
    /// Its replica-aware cost.
    cost: f64,
    /// Whether the ladder degraded.
    degraded: bool,
    /// Copies the polish moved.
    polish_moves: usize,
    /// Wall time of the solve part (ladder, spread, polish).
    solve_wall: Duration,
    /// Wall time of the whole replay.
    wall: Duration,
}

/// Replays `solve_resilient_replicated` call for call from public
/// functions, timing each call into a layer.
fn mirror(spec: &PlaceSpec, problem: &CcaProblem, tree: &DomainTree, spans: &mut Spans) -> Mirror {
    let start = Instant::now();
    let options = spec.options();
    let replicas = spec.replicas;
    let base = spans.time("resilience.ladder_ms", || {
        validate_replica_spec(replicas, tree).expect("valid replica spec");
        solve_resilient_with_faults(problem, &options, &FaultPlan::default())
    });
    for a in &base.report.attempts {
        if let Some(span) = rung_span(a.rung) {
            spans.add(span, a.elapsed);
        }
    }
    let (replica, cost, polish_moves) = if replicas == 1 {
        (
            ReplicaPlacement::from_primary(base.placement.clone()),
            base.cost,
            0,
        )
    } else {
        let effective = &base.effective_problem;
        let slack = replicas as f64;
        let spread = spans.time("replica.spread_ms", || {
            spread_copies(effective, tree, base.placement.clone(), replicas, slack)
                .expect("valid replica spec")
        });
        let polished = spans.time("migrate.replica_polish_ms", || {
            improve_replicas_in_place(
                effective,
                tree,
                &spread,
                &MigrateOptions {
                    capacity_slack: slack,
                    ..MigrateOptions::default()
                },
            )
        });
        (polished.replica, polished.comm_cost, polished.moves)
    };
    let solve_wall = start.elapsed();
    spans.time("graph.cost_ms", || {
        kernel_cost(&base.effective_problem, &replica, THREADS)
    });
    spans.time("persist.report_ms", || {
        std::hint::black_box(format_replica_placement(problem, &replica));
    });
    Mirror {
        replica,
        cost,
        degraded: base.report.degraded,
        polish_moves,
        solve_wall,
        wall: start.elapsed(),
    }
}

/// The traced placement workload: timed set-up layers, one untraced
/// solve, then the call-for-call replay, which must return the same
/// placement and cost bits before any per-layer number is reported.
#[must_use]
pub(crate) fn run_traced(spec: &PlaceSpec, seed: u64) -> RunResult {
    let mut spans = Spans::default();
    let inst = spans.time("trace.instance_ms", || spec.instance(seed));
    let problem = spans.time("problem.build_ms", || spec.problem(&inst));
    drop(inst);
    let tree = spec.tree();

    let mut result = RunResult::default();
    let t = Instant::now();
    let base = solve_resilient_replicated(
        &problem,
        &spec.options(),
        &FaultPlan::default(),
        &tree,
        spec.replicas,
    )
    .expect("valid replica spec");
    let base_wall = t.elapsed();
    gate_solve(&mut result, &base, None);
    let m = mirror(spec, &problem, &tree, &mut spans);
    result.attempted = 1;
    result.gate(
        m.replica == base.replica,
        "traced replay returns the same placement",
    );
    result.gate(
        m.cost.to_bits() == base.cost.to_bits(),
        "traced replay returns the same cost bits",
    );
    if !result.gate_failures.is_empty() {
        result.failed = result.attempted;
        return result;
    }
    let covered = spans.sum_of(&SOLVE_SPANS).as_secs_f64() / m.wall.as_secs_f64();
    let overhead = (m.solve_wall.as_secs_f64() - base_wall.as_secs_f64()) / base_wall.as_secs_f64();
    result.metrics = layer_metrics(
        &spans,
        &[
            ("resilience.degraded", f64::from(u8::from(m.degraded))),
            ("migrate.replica_polish_moves", m.polish_moves as f64),
            ("tracing.covered_frac", covered),
            ("tracing.overhead_frac", overhead),
        ],
    );
    result
}
