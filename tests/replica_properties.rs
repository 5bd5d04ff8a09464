//! Replica battery (DESIGN.md §15): the replica-aware kernels must be a
//! strict generalization of the single-copy code, and the spread
//! invariant must survive every operation that rewrites a placement.
//!
//! Four contracts, each over randomized cases with shrinking:
//!
//! 1. **r=1 bit-identity** — with one copy and a flat tree,
//!    `eval_cost_replicas` / `replica_move_delta` return the same bits
//!    as `eval_cost` / `move_delta` for every thread count in {1, 2, 8}
//!    and shard count in {unsharded, 1, 2, 7};
//! 2. **spread preservation** — `spread_copies`,
//!    `improve_replicas_in_place` and `repair_replica_spread` all leave
//!    no two copies of an object in one leaf domain (whenever enough
//!    alive domains remain);
//! 3. **domain-kill chaos** — `survive_domain_loss` evacuates every
//!    copy off the dead domain deterministically, and the repaired
//!    placement still serves reads end to end (served > 0, counters
//!    partition the offered stream);
//! 4. **batched replica deltas** — `replica_move_delta_batch` scores
//!    every target of one copy in one row walk, bit-identical to the
//!    per-target walk kept here as the oracle.
//!
//! A golden pin fixes the r=3 polish and domain-loss repair on a Zipf
//! instance: moves, migrated bytes, cost bits and placement MD5.
//!
//! Failures shrink to a minimal case and are pinned in
//! `replica_properties.regressions`.

use cca::algo::{
    format_replica_placement, greedy_placement, improve_replicas_in_place, repair_replica_spread,
    spread_copies, survive_domain_loss, CcaProblem, DomainTree, MigrateOptions, ObjectId,
    Placement, ReplicaDeltaScratch, ReplicaPlacement,
};
use cca::hashing::md5;
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::serve::{serve, ServeConfig};
use cca::trace::TraceConfig;
use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/replica_properties.regressions");

/// The bit-identity matrix from the ISSUE: every thread count crossed
/// with every shard count, including the unsharded CSR path.
const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(7)];

/// Shrinkable random instance: a correlation problem, a placement, and
/// one candidate move. Everything derives from integers so the shrinker
/// walks toward the smallest failing problem.
#[derive(Debug, Clone)]
struct ReplicaCase {
    objects: usize,
    nodes: usize,
    seed: u64,
    /// Candidate move, reduced modulo (objects, nodes) at use.
    move_object: usize,
    move_target: usize,
}

impl Shrink for ReplicaCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for objects in self.objects.shrink() {
            if objects >= 2 {
                out.push(ReplicaCase { objects, ..self.clone() });
            }
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 2 {
                out.push(ReplicaCase { nodes, ..self.clone() });
            }
        }
        for seed in self.seed.shrink() {
            out.push(ReplicaCase { seed, ..self.clone() });
        }
        for move_object in self.move_object.shrink() {
            out.push(ReplicaCase { move_object, ..self.clone() });
        }
        for move_target in self.move_target.shrink() {
            out.push(ReplicaCase { move_target, ..self.clone() });
        }
        out
    }
}

fn replica_case(rng: &mut StdRng) -> ReplicaCase {
    ReplicaCase {
        objects: rng.random_range(2usize..=12),
        nodes: rng.random_range(2usize..=6),
        seed: rng.random_range(0u64..1_000_000),
        move_object: rng.random_range(0usize..64),
        move_target: rng.random_range(0usize..64),
    }
}

/// Deterministic problem from a case: random sizes, a random subset of
/// pairs with varied correlation and weight, generous capacities so
/// every random placement is structurally valid.
fn build_problem(c: &ReplicaCase) -> CcaProblem {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let mut b = CcaProblem::builder();
    let objs: Vec<ObjectId> = (0..c.objects)
        .map(|i| b.add_object(format!("o{i}"), rng.random_range(1u64..=20)))
        .collect();
    for i in 0..c.objects {
        for j in i + 1..c.objects {
            if rng.random_range(0u32..100) < 60 {
                let corr = f64::from(rng.random_range(1u32..=100)) / 100.0;
                let weight = f64::from(rng.random_range(1u32..=10));
                b.add_pair(objs[i], objs[j], corr, weight).unwrap();
            }
        }
    }
    b.uniform_capacities(c.nodes, 20 * c.objects as u64).build().unwrap()
}

fn random_placement(c: &ReplicaCase) -> Placement {
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0x9e37_79b9_7f4a_7c15);
    let assignment: Vec<u32> =
        (0..c.objects).map(|_| rng.random_range(0u32..c.nodes as u32)).collect();
    Placement::new(assignment, c.nodes)
}

/// Contract 1: with one copy per object, the replica kernels are the
/// single-copy kernels bit for bit — cost and move delta — across the
/// full threads × shards matrix. This is the r=1 equivalence guarantee
/// the whole refactor rests on.
#[test]
fn r1_cost_and_delta_are_bit_identical_across_threads_and_shards() {
    Checker::new("r1_cost_and_delta_are_bit_identical_across_threads_and_shards")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(replica_case, |c| {
            let base = build_problem(c);
            let placement = random_placement(c);
            let rp = ReplicaPlacement::from_primary(placement.clone());
            let i = ObjectId((c.move_object % c.objects) as u32);
            let target = c.move_target % c.nodes;
            for shards in SHARDS {
                let mut problem = base.clone();
                if let Some(s) = shards {
                    problem.set_sharding(s);
                }
                for threads in THREADS {
                    let single = problem.eval_cost(&placement, threads);
                    let multi = problem.eval_cost_replicas(&rp, threads);
                    prop_assert_eq!(
                        single.to_bits(),
                        multi.to_bits(),
                        "cost bits diverge at threads={} shards={:?}: {} vs {}",
                        threads,
                        shards,
                        single,
                        multi
                    );
                }
                let single = problem.graph().move_delta(&placement, i, target);
                let multi = problem.graph().replica_move_delta(&rp, i, 0, target);
                prop_assert_eq!(
                    single.to_bits(),
                    multi.to_bits(),
                    "move delta bits diverge at shards={:?}: {} vs {}",
                    shards,
                    single,
                    multi
                );
            }
            Ok(())
        });
}

/// Contract 2: the spread invariant (no two copies of an object in one
/// leaf domain) holds after spreading, after the replica-aware local
/// search, and after repair from a whole-domain kill — and repair never
/// leaves a copy on a dead node.
#[test]
fn spread_invariant_survives_spread_migrate_and_repair() {
    Checker::new("spread_invariant_survives_spread_migrate_and_repair")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(replica_case, |c| {
            let problem = build_problem(c);
            let domains = 2 + c.seed as usize % (c.nodes - 1).max(1);
            let domains = domains.min(c.nodes);
            let tree = DomainTree::contiguous(c.nodes, domains).map_err(|e| e.to_string())?;
            let replicas = 2; // domains >= 2 by construction, so always satisfiable
            let primary = greedy_placement(&problem);
            let slack = replicas as f64;

            let rp = spread_copies(&problem, &tree, primary, replicas, slack)
                .map_err(|e| e.to_string())?;
            prop_assert!(rp.spread_valid(&tree), "spread_copies broke the invariant");

            let polished =
                improve_replicas_in_place(&problem, &tree, &rp, &MigrateOptions::default());
            prop_assert!(
                polished.replica.spread_valid(&tree),
                "local search broke the invariant after {} moves",
                polished.moves
            );

            // Kill one whole leaf domain and repair.
            let dead_domain = c.seed as usize % domains;
            let dead_nodes = tree.nodes_in(dead_domain).to_vec();
            let capacities: Vec<u64> = (0..problem.num_nodes())
                .map(|k| if dead_nodes.contains(&k) { 0 } else { problem.capacity(k) })
                .collect();
            let degraded = problem.with_capacities(capacities);
            let mut repaired = polished.replica.clone();
            let outcome =
                repair_replica_spread(&degraded, &tree, &mut repaired, &dead_nodes, slack);
            for o in problem.objects() {
                for j in 0..repaired.replicas() {
                    prop_assert!(
                        !dead_nodes.contains(&repaired.node_of(o, j)),
                        "copy {} of object {:?} still on dead domain {}",
                        j,
                        o,
                        dead_domain
                    );
                }
            }
            if domains > replicas {
                prop_assert!(
                    outcome.spread_valid,
                    "enough alive domains remain, repair must restore the spread"
                );
            }
            // Accounting: bytes move iff copies move.
            prop_assert_eq!(
                outcome.moves > 0,
                outcome.migrated_bytes > 0,
                "moves and bytes must agree: {} moves, {} bytes",
                outcome.moves,
                outcome.migrated_bytes
            );
            Ok(())
        });
}

// ---------------------------------------------------------------------
// Batched replica move-delta kernel against the per-target walk.
// ---------------------------------------------------------------------

/// The per-target replica move delta, one row walk per target: each
/// adjacent edge adds `w` when moving copy `j` of `i` to `target` newly
/// splits it and subtracts `w` when it newly joins it, in row order from
/// `0.0`. `replica_move_delta_batch` must return exactly these bits.
fn replica_move_delta_oracle(
    problem: &CcaProblem,
    rp: &ReplicaPlacement,
    i: ObjectId,
    j: usize,
    target: usize,
) -> f64 {
    let src = rp.node_of(i, j);
    if src == target {
        return 0.0;
    }
    let joined_after = |other: ObjectId| -> bool {
        (0..rp.replicas()).any(|k| {
            let n = if k == j { target } else { rp.node_of(i, k) };
            rp.colocated(other, n)
        })
    };
    let mut delta = 0.0;
    for (other, w) in problem.graph().neighbors(i) {
        match (rp.split(i, other), !joined_after(other)) {
            (false, true) => delta += w,
            (true, false) => delta -= w,
            _ => {}
        }
    }
    delta
}

/// Shrinkable kernel case: a problem, a replication factor, a tree
/// shape (0 flat, 1 contiguous, 2 zoned) and a seed for the hand-built
/// placement and the target lists.
#[derive(Debug, Clone)]
struct KernelCase {
    objects: usize,
    nodes: usize,
    seed: u64,
    replicas: usize,
    tree: usize,
}

impl Shrink for KernelCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for objects in self.objects.shrink() {
            if objects >= 2 {
                out.push(KernelCase { objects, ..self.clone() });
            }
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 3 {
                out.push(KernelCase { nodes, ..self.clone() });
            }
        }
        for seed in self.seed.shrink() {
            out.push(KernelCase { seed, ..self.clone() });
        }
        for replicas in self.replicas.shrink() {
            if replicas >= 1 {
                out.push(KernelCase { replicas, ..self.clone() });
            }
        }
        for tree in self.tree.shrink() {
            out.push(KernelCase { tree, ..self.clone() });
        }
        out
    }
}

fn kernel_case(rng: &mut StdRng) -> KernelCase {
    KernelCase {
        objects: rng.random_range(2usize..=12),
        nodes: rng.random_range(3usize..=8),
        seed: rng.random_range(0u64..1_000_000),
        replicas: rng.random_range(1usize..=3),
        tree: rng.random_range(0usize..3),
    }
}

/// The case's tree; every shape has at least `replicas` leaf domains.
fn kernel_tree(c: &KernelCase) -> Result<DomainTree, String> {
    let tree = match c.tree {
        0 => Ok(DomainTree::flat(c.nodes)),
        1 => {
            let domains = c.replicas + c.seed as usize % (c.nodes - c.replicas + 1);
            DomainTree::contiguous(c.nodes, domains)
        }
        _ => {
            let zones = if c.nodes >= 4 { 2 } else { 1 };
            DomainTree::zoned(c.nodes, zones, c.replicas.div_ceil(zones))
        }
    };
    tree.map_err(|e| e.to_string())
}

/// Copies on random nodes with no spread rule; with two or more copies,
/// about half the objects get their last copy on their primary's node,
/// so a neighbour's copies often share a node.
fn hand_built_replicas(c: &KernelCase) -> ReplicaPlacement {
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0x5851_f42d_4c95_7f2d);
    let mut columns: Vec<Vec<u32>> = (0..c.replicas)
        .map(|_| (0..c.objects).map(|_| rng.random_range(0u32..c.nodes as u32)).collect())
        .collect();
    if let [first, .., last] = columns.as_mut_slice() {
        for (node, &primary) in last.iter_mut().zip(first.iter()) {
            if rng.random_bool(0.5) {
                *node = primary;
            }
        }
    }
    ReplicaPlacement::from_columns(
        columns.into_iter().map(|col| Placement::new(col, c.nodes)).collect(),
    )
}

/// Entry `t` of `replica_move_delta_batch` equals the per-target walk
/// for `targets[t]` bit for bit, for r in {1, 2, 3} on flat, contiguous
/// and zoned trees, on spread placements and on hand-built ones whose
/// copies share nodes, for random target lists (with repeats) that
/// include the moving copy's own node. One scratch serves every call,
/// so a stale slot map would show. At r = 1 the entries also equal
/// `move_delta_batch`, and `replica_move_delta` is the batch's entry.
#[test]
fn replica_move_delta_batch_bit_equals_per_target_walk() {
    Checker::new("replica_move_delta_batch_bit_equals_per_target_walk")
        .cases(48)
        .regressions(REGRESSIONS)
        .run(kernel_case, |c| {
            let base = ReplicaCase {
                objects: c.objects,
                nodes: c.nodes,
                seed: c.seed,
                move_object: 0,
                move_target: 0,
            };
            let problem = build_problem(&base);
            let tree = kernel_tree(c)?;
            let primary = random_placement(&base);
            let spread = spread_copies(&problem, &tree, primary, c.replicas, c.replicas as f64)
                .map_err(|e| e.to_string())?;
            let graph = problem.graph();
            let mut rng = StdRng::seed_from_u64(c.seed.rotate_left(17));
            let mut scratch = ReplicaDeltaScratch::default();
            for rp in [spread, hand_built_replicas(c)] {
                for i in problem.objects() {
                    for j in 0..c.replicas {
                        let src = rp.node_of(i, j);
                        let len = rng.random_range(0usize..=2 * c.nodes);
                        let mut targets: Vec<usize> =
                            (0..len).map(|_| rng.random_range(0usize..c.nodes)).collect();
                        targets.insert(rng.random_range(0usize..=len), src);
                        let batch =
                            graph.replica_move_delta_batch(&rp, i, j, &targets, &mut scratch).to_vec();
                        prop_assert_eq!(batch.len(), targets.len());
                        for (&t, &d) in targets.iter().zip(&batch) {
                            let oracle = replica_move_delta_oracle(&problem, &rp, i, j, t);
                            prop_assert_eq!(
                                d.to_bits(),
                                oracle.to_bits(),
                                "object {:?} copy {} target {}: batch {} vs per-target {}",
                                i,
                                j,
                                t,
                                d,
                                oracle
                            );
                            let single = graph.replica_move_delta(&rp, i, j, t);
                            prop_assert_eq!(single.to_bits(), oracle.to_bits());
                        }
                        if c.replicas == 1 {
                            let flat = graph.move_delta_batch(rp.primary(), i, &targets);
                            prop_assert_eq!(
                                batch.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                                flat.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                                "r=1 batch diverges from move_delta_batch"
                            );
                        }
                    }
                }
            }
            Ok(())
        });
}

// ---------------------------------------------------------------------
// Deterministic domain-kill chaos grid (ISSUE verification clause).
// ---------------------------------------------------------------------

/// Four correlated triangles over six nodes in three leaf domains —
/// small enough to stay fast, structured enough that every domain holds
/// copies before the kill.
fn chaos_fixture() -> (CcaProblem, DomainTree, ReplicaPlacement) {
    let mut b = CcaProblem::builder();
    let mut objs = Vec::new();
    for g in 0..4 {
        for i in 0..3 {
            objs.push(b.add_object(format!("g{g}w{i}"), 10));
        }
    }
    for g in 0..4 {
        for i in 0..3 {
            for j in i + 1..3 {
                b.add_pair(objs[g * 3 + i], objs[g * 3 + j], 0.8, 5.0).unwrap();
            }
        }
    }
    let problem = b.uniform_capacities(6, 120).build().unwrap();
    let tree = DomainTree::contiguous(6, 3).unwrap();
    let primary = greedy_placement(&problem);
    let rp = spread_copies(&problem, &tree, primary, 2, 2.0).unwrap();
    (problem, tree, rp)
}

/// Killing any one of the three domains evacuates every copy, restores
/// the spread invariant (two alive domains suffice for r = 2), reports
/// consistent move/byte accounting, and is byte-identical across runs.
#[test]
fn domain_kill_grid_repairs_deterministically() {
    let (problem, tree, rp) = chaos_fixture();
    assert!(rp.spread_valid(&tree));
    for domain in 0..tree.num_domains() {
        let (degraded, repaired, report) =
            survive_domain_loss(&problem, &tree, &rp, domain, 2.0);
        assert_eq!(report.domain, domain);
        assert_eq!(report.dropped_nodes, tree.nodes_in(domain).to_vec());
        for o in problem.objects() {
            for j in 0..repaired.replicas() {
                assert!(
                    !report.dropped_nodes.contains(&repaired.node_of(o, j)),
                    "copy {j} of {o:?} left on dead domain {domain}"
                );
            }
        }
        assert!(
            report.spread_valid && repaired.spread_valid(&tree),
            "two alive domains must fit two copies (domain {domain})"
        );
        for &n in &report.dropped_nodes {
            assert_eq!(degraded.capacity(n), 0, "dead node {n} kept capacity");
        }
        // Something lived in every domain before the kill, so the repair
        // must have moved copies — and bytes must track moves.
        assert!(report.moves > 0, "domain {domain} kill moved nothing");
        assert!(report.migrated_bytes > 0);

        let (_, again, report_again) = survive_domain_loss(&problem, &tree, &rp, domain, 2.0);
        for o in problem.objects() {
            for j in 0..rp.replicas() {
                assert_eq!(
                    repaired.node_of(o, j),
                    again.node_of(o, j),
                    "nondeterministic repair for {o:?} copy {j}"
                );
            }
        }
        assert_eq!(report, report_again, "nondeterministic domain-loss report");
    }
}

/// End-to-end: kill a domain under a replicated serving cluster and the
/// read path keeps answering — served > 0 and the serving counters
/// partition the offered stream exactly (the ISSUE's chaos-harness
/// verification clause).
#[test]
fn reads_survive_domain_kill_end_to_end() {
    let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 6);
    cfg.seed = 9;
    let p = Pipeline::build(&cfg);
    let tree = DomainTree::contiguous(6, 3).unwrap();
    let primary = greedy_placement(&p.problem);
    let rp = spread_copies(&p.problem, &tree, primary, 2, 2.0).unwrap();
    assert!(rp.spread_valid(&tree));

    let (_, repaired, report) = survive_domain_loss(&p.problem, &tree, &rp, 0, 2.0);
    assert!(report.spread_valid, "repair must re-spread onto domains 1 and 2");
    for o in p.problem.objects() {
        for j in 0..repaired.replicas() {
            assert!(!report.dropped_nodes.contains(&repaired.node_of(o, j)));
        }
    }

    let cluster = p.cluster_for_replicas(&repaired);
    let mut rng = StdRng::seed_from_u64(77);
    let queries = p.workload.model.sample_log(200, &mut rng).queries;
    let out = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &queries,
        &ServeConfig { inflight: 8, threads: 2, deadline_ms: None, burst: None, overhead_ns: 0 },
    );
    assert!(out.report.served > 0, "reads must survive the domain kill");
    assert!(out.report.counters_consistent());
    assert_eq!(out.report.queries, 200);
    assert_eq!(
        out.report.served
            + out.report.degraded
            + out.report.shed_admission
            + out.report.shed_overload
            + out.report.shed_deadline,
        200,
        "counters must partition the offered stream"
    );
    assert_eq!(out.responses.len(), 200, "every offered query answered");
}

// ---------------------------------------------------------------------
// Golden pin: the r=3 polish and the domain-loss polish on a Zipf
// instance return the same placement bits from release to release.
// ---------------------------------------------------------------------

/// `zipf_instance(2500, 25000, 0.8, 1001)` on 64 nodes of twice the mean
/// load, with a `4x4` tree (four zones of four four-node leaf domains),
/// r = 3 copies spread from the greedy primary under slack 3.
fn zipf_r3_fixture() -> (CcaProblem, DomainTree, ReplicaPlacement) {
    const NODES: usize = 64;
    let inst = cca::trace::zipf_instance(2500, 25_000, 0.8, 1001);
    let mut b = CcaProblem::builder();
    let ids: Vec<ObjectId> = inst
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| b.add_object(format!("z{i}"), s))
        .collect();
    for p in &inst.pairs {
        b.add_pair(ids[p.a as usize], ids[p.b as usize], p.correlation, p.comm_cost).unwrap();
    }
    let total: u64 = inst.sizes.iter().sum();
    let problem = b.uniform_capacities(NODES, (2 * total).div_ceil(NODES as u64)).build().unwrap();
    let tree = DomainTree::parse("4x4", NODES).unwrap();
    let primary = greedy_placement(&problem);
    let rp = spread_copies(&problem, &tree, primary, 3, 3.0).unwrap();
    (problem, tree, rp)
}

fn placement_md5(problem: &CcaProblem, rp: &ReplicaPlacement) -> String {
    let text = format_replica_placement(problem, rp);
    md5::digest(text.as_bytes()).iter().map(|b| format!("{b:02x}")).collect()
}

/// The spread-preserving polish and the domain-loss repair + polish on
/// the Zipf fixture: moves, migrated bytes, cost bits and an MD5 of the
/// placement file are pinned, so any change to the replica move-delta
/// kernel or the polish's selection rule shows as a diff here.
#[test]
fn zipf_r3_polish_and_domain_loss_are_pinned() {
    let (problem, tree, rp) = zipf_r3_fixture();
    let options = MigrateOptions { capacity_slack: 3.0, ..MigrateOptions::default() };
    let polished = improve_replicas_in_place(&problem, &tree, &rp, &options);
    assert_eq!(
        (
            polished.moves,
            polished.migrated_bytes,
            polished.comm_cost.to_bits(),
            placement_md5(&problem, &polished.replica).as_str(),
        ),
        (6342, 2_533_578, 61_976f64.to_bits(), "4de6262e3db7714fbcce384be2f5b692"),
        "polish drifted"
    );

    let (_, repaired, report) = survive_domain_loss(&problem, &tree, &polished.replica, 5, 3.0);
    assert_eq!(
        (
            report.moves,
            report.migrated_bytes,
            report.spread_valid,
            problem.eval_cost_replicas(&repaired, 1).to_bits(),
            placement_md5(&problem, &repaired).as_str(),
        ),
        (1094, 395_994, true, 60_684f64.to_bits(), "1b63aa4e20d89edc2226b21551507e3a"),
        "domain-loss repair drifted"
    );
}
