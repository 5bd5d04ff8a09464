//! Shard-invariance property battery for the edge-range partition that
//! [`cca_core::CcaProblem::set_sharding`] switches on (DESIGN.md §11).
//!
//! Every equality here is **exact** (`==` on raw `f64` bits), not
//! epsilon-tolerant: the generator draws dyadic-rational weights
//! (multiples of 1/8 with small magnitudes), so every partial sum is
//! exactly representable and any reduction a sharded fold performs —
//! for **any** shard count {1, 2, 7, num_objects, num_edges + 1} at
//! **any** thread count {1, 2, 8} — must reproduce the flat CSR's bits,
//! not merely approximate them. The thread axis must never appear in any
//! result. One shard must match the serial fold on *any* weights, which
//! the non-dyadic case pins.
//!
//! Sharding is now a shard count over the one graph, so three checks of
//! the former `ShardedGraph` overlay were removed with it:
//! - sharded `move_delta` / `move_delta_batch` equal the flat row walks:
//!   there are no shard rows any more, every delta walks the flat rows;
//! - the overlay's build thread count never changes its structure,
//!   memory or results: nothing is built;
//! - the overlay's clamped shard count, edge and object counts, and its
//!   memory bound against the flat CSR: the overlay held its own copy of
//!   the edges, the partition holds none.

use cca_check::{gen, prop_assert_eq, Checker, Rng, Shrink, StdRng};
use cca_core::{CcaProblem, ObjectId, Placement, PlacementBatch, ReplicaPlacement};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/shard_properties.regressions"
);

/// Shrinkable description of a random CCA instance with dyadic weights
/// plus a batch of candidate placements over it.
#[derive(Debug, Clone)]
struct ShardCase {
    sizes: Vec<u8>,
    nodes: usize,
    /// (a, b, correlation eighths in 1..=8, cost in 1..=16)
    pairs: Vec<(usize, usize, u8, u8)>,
    /// Candidate assignments, each reduced modulo `nodes`.
    candidates: Vec<Vec<u8>>,
}

impl Shrink for ShardCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for pairs in self.pairs.shrink() {
            out.push(ShardCase {
                pairs,
                ..self.clone()
            });
        }
        for candidates in self.candidates.shrink() {
            if !candidates.is_empty() {
                out.push(ShardCase {
                    candidates,
                    ..self.clone()
                });
            }
        }
        for nodes in self.nodes.shrink() {
            if nodes >= 1 {
                out.push(ShardCase {
                    nodes,
                    ..self.clone()
                });
            }
        }
        out
    }
}

fn shard_case(rng: &mut StdRng) -> ShardCase {
    let t = rng.random_range(2usize..14);
    let sizes = (0..t).map(|_| rng.random_range(1u8..12)).collect();
    let pairs = gen::vec(rng, 0..t * 3, |r| {
        (
            r.random_range(0..t),
            r.random_range(0..t),
            r.random_range(1u8..=8),  // correlation = eighths/8 — dyadic
            r.random_range(1u8..=16), // integral cost
        )
    });
    let nodes = rng.random_range(1usize..5);
    let k = rng.random_range(1usize..7);
    let candidates = (0..k)
        .map(|_| (0..t).map(|_| rng.random_range(0u8..16)).collect())
        .collect();
    ShardCase {
        sizes,
        nodes,
        pairs,
        candidates,
    }
}

/// The case's problem with each pair's `(correlation, cost)` drawn by
/// `weight` from its raw `(eighths, cost)` fields.
fn build_weighted(c: &ShardCase, weight: impl Fn(u8, u8) -> (f64, f64)) -> CcaProblem {
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = c
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| b.add_object(format!("o{i}"), u64::from(s.max(1))))
        .collect();
    for &(a, d, eighths, cost) in &c.pairs {
        let (a, d) = (a % objs.len(), d % objs.len());
        if a != d {
            let (r, w) = weight(eighths.clamp(1, 8), cost.max(1));
            b.add_pair(objs[a], objs[d], r, w).expect("valid pair");
        }
    }
    let nodes = c.nodes.max(1);
    let total: u64 = c.sizes.iter().map(|&s| u64::from(s.max(1))).sum();
    b.uniform_capacities(nodes, total + 8)
        .build()
        .expect("valid problem")
}

/// The dyadic instance: correlations in eighths, integral costs.
fn build(c: &ShardCase) -> CcaProblem {
    build_weighted(c, |eighths, cost| {
        (f64::from(eighths) / 8.0, f64::from(cost))
    })
}

fn candidate(c: &ShardCase, p: &CcaProblem, idx: usize) -> Placement {
    let n = p.num_nodes();
    Placement::new(
        c.candidates[idx]
            .iter()
            .take(p.num_objects())
            .map(|&k| u32::from(k) % n as u32)
            .collect(),
        n,
    )
}

/// Every candidate of the case as one batch.
fn batch(c: &ShardCase, p: &CcaProblem) -> PlacementBatch {
    let mut batch = PlacementBatch::new(p.num_objects(), p.num_nodes());
    for idx in 0..c.candidates.len() {
        batch.push(&candidate(c, p, idx));
    }
    batch
}

/// Three replica columns from the case's candidates (cycled when there
/// are fewer than three).
fn three_replicas(c: &ShardCase, p: &CcaProblem) -> ReplicaPlacement {
    ReplicaPlacement::from_columns(
        (0..3)
            .map(|j| candidate(c, p, j % c.candidates.len()))
            .collect(),
    )
}

const THREADS: [usize; 3] = [1, 2, 8];

/// The shard axis: the fixed counts, one shard per object, and one more
/// shard than there are edges (so the last shard is empty).
fn shard_counts(p: &CcaProblem) -> [usize; 5] {
    [1, 2, 7, p.num_objects(), p.pairs().len() + 1]
}

/// `eval_cost` under sharding is bit-identical to the flat serial
/// [`cca_core::CorrelationGraph::cost`] for every shard count at every
/// thread count.
#[test]
fn sharded_cost_is_bitwise_flat_cost() {
    Checker::new("sharded_cost_is_bitwise_flat_cost")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let mut p = build(c);
            let pl = candidate(c, &p, 0);
            let flat = p.graph().cost(&pl);
            for shards in shard_counts(&p) {
                p.set_sharding(shards);
                for threads in THREADS {
                    let got = p.eval_cost(&pl, threads);
                    prop_assert_eq!(
                        got.to_bits(),
                        flat.to_bits(),
                        "cost diverged at {shards} shards / {threads} threads: {got} != {flat}"
                    );
                }
            }
            Ok(())
        });
}

/// `eval_cost_batch` column `c` under sharding is bit-identical to the
/// flat [`cca_core::CorrelationGraph::cost_batch`] column `c` (itself
/// pinned to the serial per-candidate walk) for every shard count at
/// every thread count — including the all-colocated `-0.0` identity
/// column.
#[test]
fn sharded_cost_batch_is_bitwise_flat_batch() {
    Checker::new("sharded_cost_batch_is_bitwise_flat_batch")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let mut p = build(c);
            let mut batch = batch(c, &p);
            // Pin the -0.0 identity column explicitly.
            batch.push(&Placement::new(vec![0; p.num_objects()], p.num_nodes()));
            let flat = p.graph().cost_batch(&batch);
            prop_assert_eq!(flat.last().copied().map(f64::to_bits), Some((-0.0f64).to_bits()));
            for shards in shard_counts(&p) {
                p.set_sharding(shards);
                for threads in THREADS {
                    let got = p.eval_cost_batch(&batch, threads);
                    prop_assert_eq!(got.len(), flat.len());
                    for (col, (g, f)) in got.iter().zip(&flat).enumerate() {
                        prop_assert_eq!(
                            g.to_bits(),
                            f.to_bits(),
                            "column {col} diverged at {shards} shards / {threads} threads: {g} != {f}"
                        );
                    }
                }
            }
            Ok(())
        });
}

/// `eval_cost_replicas` at r = 3 under sharding is bit-identical to the
/// flat serial replica fold
/// [`cca_core::CorrelationGraph::cost_replicas`] for every shard count
/// at every thread count.
#[test]
fn sharded_replica_cost_is_bitwise_flat_fold() {
    Checker::new("sharded_replica_cost_is_bitwise_flat_fold")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let mut p = build(c);
            let rp = three_replicas(c, &p);
            let flat = p.graph().cost_replicas(&rp);
            for shards in shard_counts(&p) {
                p.set_sharding(shards);
                for threads in THREADS {
                    let got = p.eval_cost_replicas(&rp, threads);
                    prop_assert_eq!(
                        got.to_bits(),
                        flat.to_bits(),
                        "r=3 cost diverged at {shards} shards / {threads} threads: {got} != {flat}"
                    );
                }
            }
            Ok(())
        });
}

/// One shard is the serial fold on **any** weights, not only dyadic
/// ones: on a non-dyadic instance (correlations in tenths, costs in
/// thirds of 7) `eval_cost`, every `eval_cost_batch` column and the r = 3
/// `eval_cost_replicas` all carry the serial fold's bits at every thread
/// count.
#[test]
fn one_shard_is_bitwise_serial_on_non_dyadic_weights() {
    Checker::new("one_shard_is_bitwise_serial_on_non_dyadic_weights")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let mut p = build_weighted(c, |tenths, cost| {
                (f64::from(tenths) / 10.0, f64::from(cost) * 7.0 / 3.0)
            });
            p.set_sharding(1);
            let pl = candidate(c, &p, 0);
            let batch = batch(c, &p);
            let rp = three_replicas(c, &p);
            let graph = p.graph();
            let flat_batch = graph.cost_batch(&batch);
            for threads in THREADS {
                prop_assert_eq!(
                    p.eval_cost(&pl, threads).to_bits(),
                    graph.cost(&pl).to_bits(),
                    "cost diverged at {threads} threads"
                );
                for (col, (g, f)) in p
                    .eval_cost_batch(&batch, threads)
                    .iter()
                    .zip(&flat_batch)
                    .enumerate()
                {
                    prop_assert_eq!(
                        g.to_bits(),
                        f.to_bits(),
                        "column {col} diverged at {threads} threads"
                    );
                }
                prop_assert_eq!(
                    p.eval_cost_replicas(&rp, threads).to_bits(),
                    graph.cost_replicas(&rp).to_bits(),
                    "r=3 cost diverged at {threads} threads"
                );
            }
            Ok(())
        });
}

/// Sharding survives `restrict_to` and `prune_pairs`: the subproblem
/// and the pruned problem keep the shard count, and their `eval_cost`
/// still matches their own flat graph at every thread count.
#[test]
fn sharding_survives_restriction_and_pruning() {
    Checker::new("sharding_survives_restriction_and_pruning")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(shard_case, |c| {
            let mut p = build(c);
            let pl = candidate(c, &p, 0);
            p.set_sharding(3);
            for threads in THREADS {
                prop_assert_eq!(
                    p.eval_cost(&pl, threads).to_bits(),
                    p.graph().cost(&pl).to_bits()
                );
            }
            // Restrict to a prefix scope; the subproblem keeps sharding
            // and its eval still matches its own flat graph.
            let scope: Vec<ObjectId> = p.objects().take(p.num_objects().div_ceil(2)).collect();
            let (sub, _) = p.restrict_to(&scope);
            prop_assert_eq!(sub.shards(), 3, "sharding must survive restrict_to");
            let sub_pl = Placement::new(
                (0..sub.num_objects() as u32)
                    .map(|i| i % sub.num_nodes() as u32)
                    .collect(),
                sub.num_nodes(),
            );
            for threads in THREADS {
                prop_assert_eq!(
                    sub.eval_cost(&sub_pl, threads).to_bits(),
                    sub.graph().cost(&sub_pl).to_bits(),
                    "restricted eval diverged at {threads} threads"
                );
            }
            // Prune to half the pairs; the shard count stays and the
            // pruned eval matches the pruned flat graph.
            p.prune_pairs(p.pairs().len() / 2);
            prop_assert_eq!(p.shards(), 3, "sharding must survive prune_pairs");
            for threads in THREADS {
                prop_assert_eq!(
                    p.eval_cost(&pl, threads).to_bits(),
                    p.graph().cost(&pl).to_bits(),
                    "pruned eval diverged at {threads} threads"
                );
            }
            Ok(())
        });
}

/// Empty shards contribute the `-0.0` reduce identity and nothing else:
/// a zero-edge problem scores `-0.0` under every shard count, and a
/// shard count larger than the edge count scores an all-colocated
/// placement `-0.0` too.
#[test]
fn empty_shards_return_the_reduce_identity() {
    let identity = (-0.0f64).to_bits();
    let mut b = CcaProblem::builder();
    let objs: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 1)).collect();
    let mut edgeless = b.uniform_capacities(2, 8).build().expect("valid problem");
    b.add_pair(objs[0], objs[1], 0.1, 3.0).expect("valid pair");
    b.add_pair(objs[2], objs[3], 0.1, 3.0).expect("valid pair");
    let mut two_edges = b.build().expect("valid problem");
    let pl = Placement::new(vec![0, 1, 0, 1], 2);
    let colocated = Placement::new(vec![1; 4], 2);
    let batch = PlacementBatch::from_placements(&[pl.clone(), colocated.clone()]);
    for shards in [1, 2, 7, 64] {
        for threads in THREADS {
            edgeless.set_sharding(shards);
            assert_eq!(edgeless.eval_cost(&pl, threads).to_bits(), identity);
            assert!(edgeless
                .eval_cost_batch(&batch, threads)
                .iter()
                .all(|c| c.to_bits() == identity));
            let rp = ReplicaPlacement::from_columns(vec![pl.clone(), colocated.clone()]);
            assert_eq!(
                edgeless.eval_cost_replicas(&rp, threads).to_bits(),
                identity
            );

            two_edges.set_sharding(shards);
            assert_eq!(two_edges.eval_cost(&colocated, threads).to_bits(), identity);
            assert_eq!(
                two_edges.eval_cost_batch(&batch, threads)[1].to_bits(),
                identity
            );
            assert_eq!(
                two_edges.eval_cost(&pl, threads).to_bits(),
                two_edges.graph().cost(&pl).to_bits(),
                "{shards} shards / {threads} threads"
            );
        }
    }
}
