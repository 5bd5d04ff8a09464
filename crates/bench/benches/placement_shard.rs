//! Edge-range sharding bench at the million-object scale — the headline
//! artifact for the sharded cost folds (DESIGN.md §11).
//!
//! The instance is `cca_trace::zipf_instance`'s 10⁶-object / 10⁷-edge
//! Zipf table (50k / 500k in quick mode), loaded into one
//! [`cca_core::CcaProblem`]. The bench measures, on it:
//!
//! * flat [`cca_core::CorrelationGraph`] build time and resident bytes;
//! * [`cca_core::CcaProblem::set_sharding`] time for shard counts
//!   {1, 2, 7} (the "sharded build" rows; nothing is built, so the
//!   partition's extra `memory_bytes` is 0);
//! * `eval_cost` and 8-wide `eval_cost_batch` time for every
//!   (shards, threads) combination vs. the flat serial walks,
//!   **hard-asserting bit identity** for each — the instance's dyadic
//!   weights (multiples of ⅛ × integral costs) make every reduction
//!   shape exact, so shard/thread invariance is `==` on raw bits, not a
//!   tolerance;
//! * the `> 2²⁴`-node **wide (f64) interleave regime**: a batch over
//!   `2²⁴ + 1` nodes scored by the flat and the 7-shard walks must agree
//!   to the bit, proving the fallback is a tested regime at generator
//!   scale.
//!
//! No speedup floor is asserted here — shard-parallel wins need cores
//! and this bench must also hold on single-core hosts; the committed
//! throughput numbers are gated by `scripts/check_shard.sh` instead.
//! Besides the TSV table it writes `BENCH_shard.json` (override the path
//! with `CCA_BENCH_OUT`).

use cca::algo::{CcaProblem, CorrelationGraph, Placement, PlacementBatch};
use cca_bench::{header, quick_mode, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};
use cca_trace::{zipf_instance, ZipfInstance};
use std::hint::black_box;
use std::time::Instant;

/// Shard counts under measurement (the ISSUE's required set).
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Thread counts swept for evaluation.
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// Candidate width of the batched-evaluation measurement.
const BATCH_K: usize = 8;

/// Evaluation nodes (narrow f32 interleave regime).
const NODES: usize = 64;

fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t = Instant::now();
        let v = f();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    (best_ms, last.expect("runs >= 1"))
}

/// The placement problem over `inst`: every object and pair, on
/// [`NODES`] nodes with room for everything.
fn problem(inst: &ZipfInstance) -> CcaProblem {
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
    b.uniform_capacities(NODES, total)
        .build()
        .expect("instance builds")
}

struct ShardResult {
    shards: usize,
    threads: usize,
    build_ms: f64,
    cost_ms: f64,
    batch_ms: f64,
    memory_bytes: usize,
    bits_match: bool,
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    objects: usize,
    edges: usize,
    instance_bytes: usize,
    flat_build_ms: f64,
    flat_cost_ms: f64,
    flat_batch_ms: f64,
    flat_bytes: usize,
    results: &[ShardResult],
    wide_nodes: usize,
    wide_bits_match: bool,
    path: &str,
) {
    let medges = edges as f64 / 1e6;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"placement_shard\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!(
        "  \"instance\": {{\"name\": \"zipf-1m\", \"objects\": {objects}, \"edges\": {edges}, \
         \"skew\": 0.8, \"raw_bytes\": {instance_bytes}}},\n"
    ));
    out.push_str(&format!(
        "  \"flat\": {{\"build_ms\": {flat_build_ms:.3}, \"cost_ms\": {flat_cost_ms:.3}, \
         \"cost_batch_ms\": {flat_batch_ms:.3}, \"k\": {BATCH_K}, \"memory_bytes\": {flat_bytes}, \
         \"build_medges_per_s\": {:.3}, \"eval_medges_per_s\": {:.3}}},\n",
        medges / (flat_build_ms / 1e3),
        medges / (flat_cost_ms / 1e3)
    ));
    out.push_str("  \"sharded\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"threads\": {}, \"build_ms\": {:.6}, \"cost_ms\": {:.3}, \
             \"cost_batch_ms\": {:.3}, \"memory_bytes\": {}, \"bits_match\": {}, \
             \"build_medges_per_s\": {:.3}, \"eval_medges_per_s\": {:.3}}}{}\n",
            r.shards,
            r.threads,
            r.build_ms,
            r.cost_ms,
            r.batch_ms,
            r.memory_bytes,
            r.bits_match,
            medges / (r.build_ms / 1e3),
            medges / (r.cost_ms / 1e3),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"wide_interleave\": {{\"num_nodes\": {wide_nodes}, \"bits_match\": {wide_bits_match}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote shard baseline to {path}");
}

fn main() {
    println!("# edge-range sharding at the million-object scale");
    let (objects, edges) = if quick_mode() {
        (50_000, 500_000)
    } else {
        (1_000_000, 10_000_000)
    };

    let t = Instant::now();
    let inst = zipf_instance(objects, edges, 0.8, BENCH_SEED);
    let gen_s = t.elapsed().as_secs_f64();
    let instance_bytes = inst.memory_bytes();
    eprintln!(
        "generated {objects} objects / {edges} pairs in {gen_s:.1}s \
         ({:.0} MiB raw)",
        instance_bytes as f64 / (1024.0 * 1024.0)
    );
    let mut problem = problem(&inst);
    drop(inst);

    // Flat CSR baseline: build, serial cost, serial 8-wide batch.
    let (flat_build_ms, rebuilt) = best_of(2, || CorrelationGraph::build(objects, problem.pairs()));
    drop(rebuilt);
    let graph = problem.graph();
    let flat_bytes = graph.memory_bytes();

    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5a4d);
    let placement = Placement::new(
        (0..objects).map(|_| rng.random_range(0..NODES as u32)).collect(),
        NODES,
    );
    // BATCH_K node-relabelled copies so no column is trivially equal.
    let rotated: Vec<Placement> = (0..BATCH_K)
        .map(|r| {
            Placement::new(
                placement
                    .as_slice()
                    .iter()
                    .map(|&j| (j + r as u32) % NODES as u32)
                    .collect(),
                NODES,
            )
        })
        .collect();
    let batch = PlacementBatch::from_placements(&rotated);

    let (flat_cost_ms, flat_cost) = best_of(3, || black_box(graph).cost(&placement));
    let (flat_batch_ms, flat_batch) = best_of(2, || black_box(graph).cost_batch(&batch));

    // Wide-interleave regime: > 2^24 nodes forces the f64 layout.
    let wide_nodes = (1usize << 24) + 1;
    let wide_batch = {
        let mut b = PlacementBatch::new(objects, wide_nodes);
        for _ in 0..4 {
            b.push(&Placement::new(
                (0..objects)
                    .map(|_| rng.random_range(0..wide_nodes as u32))
                    .collect(),
                wide_nodes,
            ));
        }
        b
    };
    let wide_flat = graph.cost_batch(&wide_batch);

    header(
        "edge-range shards vs flat CSR",
        &["shards", "threads", "build_ms", "cost_ms", "batch_ms", "bits"],
    );
    println!("flat\t-\t{flat_build_ms:.1}\t{flat_cost_ms:.2}\t{flat_batch_ms:.2}\t-");

    let mut results = Vec::new();
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            // `set_sharding` only records the count; the 1 ns floor keeps
            // the build throughput finite when the timer reads zero.
            let (build_ms, ()) = best_of(2, || black_box(&mut problem).set_sharding(shards));
            let build_ms = build_ms.max(1e-6);
            let (cost_ms, s_cost) =
                best_of(3, || black_box(&problem).eval_cost(&placement, threads));
            let (batch_ms, s_batch) =
                best_of(2, || black_box(&problem).eval_cost_batch(&batch, threads));

            let cost_match = s_cost.to_bits() == flat_cost.to_bits();
            let batch_match = s_batch.len() == flat_batch.len()
                && s_batch
                    .iter()
                    .zip(&flat_batch)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            let bits_match = cost_match && batch_match;
            assert!(
                bits_match,
                "{shards} shards / {threads} threads diverged from the flat CSR \
                 (cost {cost_match}, batch {batch_match})"
            );
            println!(
                "{shards}\t{threads}\t{build_ms:.6}\t{cost_ms:.2}\t{batch_ms:.2}\t{bits_match}"
            );
            results.push(ShardResult {
                shards,
                threads,
                build_ms,
                cost_ms,
                batch_ms,
                // The partition is a shard count: it allocates nothing.
                memory_bytes: 0,
                bits_match,
            });
        }
    }

    // The wide batch scored on 7 edge ranges must match the flat walk.
    problem.set_sharding(7);
    let wide_sharded = problem.eval_cost_batch(&wide_batch, 2);
    let wide_bits_match = wide_flat
        .iter()
        .zip(&wide_sharded)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        wide_bits_match,
        "wide (f64) interleave regime diverged between flat and sharded walks"
    );
    println!();
    println!("# wide interleave at {wide_nodes} nodes: bits_match {wide_bits_match}");

    let path = std::env::var("CCA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json").to_string()
    });
    write_json(
        objects,
        edges,
        instance_bytes,
        flat_build_ms,
        flat_cost_ms,
        flat_batch_ms,
        flat_bytes,
        &results,
        wide_nodes,
        wide_bits_match,
        &path,
    );
}
