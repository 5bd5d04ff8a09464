//! Property battery over the text codec (DESIGN.md §13/§14/§15):
//!
//! * every persisted report kind — controller, serving, live — re-reads
//!   bit for bit from its own text format, and formatting the parsed copy
//!   is a fixed point. The reports are randomized across the full field
//!   ranges (zeros, maxima, awkward floats, sparse and dense histograms),
//!   so any asymmetry between the shared writer and parser shows up as a
//!   shrunk counterexample;
//! * placements with r in {1, 2, 3} copies round-trip through the one
//!   placement codec with shuffled lines and TAB-bearing object names,
//!   and a `v1` file is exactly the `r = 1` replica placement;
//! * every reader is total: mutated valid texts (truncated at each line,
//!   a line duplicated, a value replaced by an awkward token) yield `Ok`
//!   or a typed error, never a panic, and an `Ok` re-formats to the text
//!   it parsed.

use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};
use cca_core::persist::PersistError;
use cca_core::{
    format_controller_report, format_live_report, format_placement, format_replica_placement,
    format_serving_report, read_controller_report, read_live_report, read_placement,
    read_replica_placement, read_serving_report, CcaProblem, ControllerReport, LatencyHistogram,
    LiveReport, Placement, ReplicaPlacement, ServingReport,
};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/persist_properties.regressions");

#[derive(Debug, Clone)]
struct ReportCase {
    seed: u64,
}

impl Shrink for ReportCase {
    fn shrink(&self) -> Vec<Self> {
        self.seed
            .shrink()
            .into_iter()
            .map(|seed| ReportCase { seed })
            .collect()
    }
}

fn report_case(rng: &mut StdRng) -> ReportCase {
    ReportCase {
        seed: rng.random_range(0..u64::MAX),
    }
}

/// A u64 biased toward the edges (0, small, `u64::MAX`) where text
/// formats usually break.
fn edge_u64(rng: &mut StdRng) -> u64 {
    match rng.random_range(0u8..4) {
        0 => 0,
        1 => rng.random_range(0..1_000),
        2 => u64::MAX,
        _ => rng.random_range(0..u64::MAX),
    }
}

/// Floats that stress the shortest-decimal round trip: exact zeros,
/// dyadics, classic non-representable decimals, and huge/tiny ratios.
fn edge_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0u8..5) {
        0 => 0.0,
        1 => rng.random_range(0..1_000_000) as f64 / 1024.0,
        2 => 0.1 + 0.2,
        3 => rng.random_range(0..u64::MAX) as f64 / 3.0,
        _ => rng.random_range(1..u64::MAX) as f64 * 1e-9,
    }
}

fn digest(rng: &mut StdRng) -> String {
    format!(
        "{:016x}{:016x}",
        rng.random_range(0..u64::MAX),
        rng.random_range(0..u64::MAX)
    )
}

fn histogram(rng: &mut StdRng) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for _ in 0..rng.random_range(0usize..8) {
        h.add_bucket(rng.random_range(0..65), rng.random_range(1..1_000_000));
    }
    h
}

fn controller_report(rng: &mut StdRng) -> ControllerReport {
    ControllerReport {
        epochs: edge_u64(rng),
        queries: edge_u64(rng),
        evaluated: edge_u64(rng),
        migrations: edge_u64(rng),
        objects_moved: edge_u64(rng),
        migrated_bytes: edge_u64(rng),
        rejected_not_worthwhile: edge_u64(rng),
        rejected_not_robust: edge_u64(rng),
        degradations: edge_u64(rng),
        solve_retries: edge_u64(rng),
        repairs: edge_u64(rng),
        repair_retries: edge_u64(rng),
        repair_moves: edge_u64(rng),
        repair_bytes: edge_u64(rng),
        node_losses: edge_u64(rng),
        unrecovered_losses: edge_u64(rng),
        accumulated_loss: edge_f64(rng),
        final_cost: edge_f64(rng),
        final_feasible: rng.random_range(0u8..2) == 1,
    }
}

fn serving_report(rng: &mut StdRng) -> ServingReport {
    ServingReport {
        queries: edge_u64(rng),
        served: edge_u64(rng),
        degraded: edge_u64(rng),
        shed_admission: edge_u64(rng),
        shed_overload: edge_u64(rng),
        shed_deadline: edge_u64(rng),
        executed_bytes: edge_u64(rng),
        estimated_bytes: edge_u64(rng),
        p50_ns: edge_u64(rng),
        p95_ns: edge_u64(rng),
        p99_ns: edge_u64(rng),
        histogram: histogram(rng),
        digest: digest(rng),
    }
}

fn live_report(rng: &mut StdRng) -> LiveReport {
    LiveReport {
        epochs: edge_u64(rng),
        queries: edge_u64(rng),
        served: edge_u64(rng),
        degraded: edge_u64(rng),
        shed_admission: edge_u64(rng),
        shed_overload: edge_u64(rng),
        shed_deadline: edge_u64(rng),
        executed_bytes: edge_u64(rng),
        estimated_bytes: edge_u64(rng),
        evaluated: edge_u64(rng),
        migrations: edge_u64(rng),
        abandoned_migrations: edge_u64(rng),
        migration_epochs: edge_u64(rng),
        migrated_bytes: edge_u64(rng),
        max_epoch_migrated_bytes: edge_u64(rng),
        migration_budget: edge_u64(rng),
        pre_epochs: edge_u64(rng),
        pre_queries: edge_u64(rng),
        pre_executed_bytes: edge_u64(rng),
        post_epochs: edge_u64(rng),
        post_queries: edge_u64(rng),
        post_executed_bytes: edge_u64(rng),
        p50_ns: edge_u64(rng),
        p95_ns: edge_u64(rng),
        p99_ns: edge_u64(rng),
        final_feasible: rng.random_range(0u8..2) == 1,
        digest: digest(rng),
        pre_histogram: histogram(rng),
        mid_histogram: histogram(rng),
        post_histogram: histogram(rng),
    }
}

/// Every report kind round-trips bit for bit and formatting the parsed
/// copy reproduces the exact bytes.
#[test]
fn every_report_kind_round_trips_bit_exact() {
    Checker::new("every_report_kind_round_trips_bit_exact")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(report_case, |case| {
            let mut rng = StdRng::seed_from_u64(case.seed);

            let r = controller_report(&mut rng);
            let text = format_controller_report(&r);
            prop_assert!(
                text.starts_with("# cca-controller-report v1\n"),
                "controller header missing"
            );
            let parsed = read_controller_report(text.as_bytes())
                .map_err(|e| format!("controller report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "controller report changed in flight");
            prop_assert_eq!(
                format_controller_report(&parsed),
                text,
                "controller formatting is not a fixed point"
            );

            let r = serving_report(&mut rng);
            let text = format_serving_report(&r);
            prop_assert!(
                text.starts_with("# cca-serving-report v1\n"),
                "serving header missing"
            );
            let parsed = read_serving_report(text.as_bytes())
                .map_err(|e| format!("serving report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "serving report changed in flight");
            prop_assert_eq!(
                format_serving_report(&parsed),
                text,
                "serving formatting is not a fixed point"
            );

            let r = live_report(&mut rng);
            let text = format_live_report(&r);
            prop_assert!(
                text.starts_with("# cca-live-report v1\n"),
                "live header missing"
            );
            let parsed = read_live_report(text.as_bytes())
                .map_err(|e| format!("live report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "live report changed in flight");
            prop_assert_eq!(
                format_live_report(&parsed),
                text,
                "live formatting is not a fixed point"
            );

            Ok(())
        });
}

/// The three formats are mutually exclusive: a report parses only under
/// its own header.
#[test]
fn headers_are_mutually_exclusive() {
    let mut rng = StdRng::seed_from_u64(7);
    let controller = format_controller_report(&controller_report(&mut rng));
    let serving = format_serving_report(&serving_report(&mut rng));
    let live = format_live_report(&live_report(&mut rng));
    assert!(read_controller_report(serving.as_bytes()).is_err());
    assert!(read_controller_report(live.as_bytes()).is_err());
    assert!(read_serving_report(controller.as_bytes()).is_err());
    assert!(read_serving_report(live.as_bytes()).is_err());
    assert!(read_live_report(controller.as_bytes()).is_err());
    assert!(read_live_report(serving.as_bytes()).is_err());
}

/// A problem whose object names mostly carry TABs (inside the name, never
/// at either end, since readers trim each line), so a reader that split
/// nodes off from the left would mis-assign them.
fn tabbed_problem(rng: &mut StdRng, objects: usize, nodes: usize) -> CcaProblem {
    let mut b = CcaProblem::builder();
    for i in 0..objects {
        let name = match rng.random_range(0u8..3) {
            0 => format!("kw{i}"),
            1 => format!("kw\t{i}"),
            _ => format!("a\tb\t{i}"),
        };
        b.add_object(name, rng.random_range(1..100));
    }
    b.uniform_capacities(nodes, 10_000).build().expect("valid problem")
}

/// An `r`-copy placement whose copies of each object sit on distinct
/// nodes.
fn replica_placement(rng: &mut StdRng, problem: &CcaProblem, r: usize) -> ReplicaPlacement {
    let nodes = problem.num_nodes();
    let base: Vec<usize> = problem
        .objects()
        .map(|_| rng.random_range(0..nodes))
        .collect();
    ReplicaPlacement::from_columns(
        (0..r)
            .map(|j| {
                let column = base.iter().map(|&b| ((b + j) % nodes) as u32).collect();
                Placement::new(column, nodes)
            })
            .collect(),
    )
}

/// The text with its data lines (everything after the header) shuffled.
fn shuffle_lines(rng: &mut StdRng, text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    for i in (2..lines.len()).rev() {
        let j = rng.random_range(1..=i);
        lines.swap(i, j);
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Placements with r in {1, 2, 3} copies round-trip through the one
/// placement codec with shuffled lines and TAB-bearing names; `r = 1` is
/// the `v1` file, and a `v1` file read as a replica placement is exactly
/// `from_primary` of the single-copy read.
#[test]
fn placements_round_trip_for_every_replica_count() {
    Checker::new("placements_round_trip_for_every_replica_count")
        .cases(64)
        .regressions(REGRESSIONS)
        .run(report_case, |case| {
            let mut rng = StdRng::seed_from_u64(case.seed);
            let objects = rng.random_range(1usize..12);
            let nodes = rng.random_range(3usize..7);
            let problem = tabbed_problem(&mut rng, objects, nodes);
            for r in 1..=3 {
                let rp = replica_placement(&mut rng, &problem, r);
                let text = format_replica_placement(&problem, &rp);
                let version = if r == 1 { "v1" } else { "v2" };
                prop_assert!(
                    text.starts_with(&format!("# cca-placement {version} ")),
                    "r={r} wrote the wrong header: {text:?}"
                );
                let shuffled = shuffle_lines(&mut rng, &text);
                let parsed = read_replica_placement(shuffled.as_bytes(), &problem)
                    .map_err(|e| format!("r={r} failed to parse: {e}"))?;
                prop_assert_eq!(&parsed, &rp, "r={r} changed in flight");
                prop_assert_eq!(
                    format_replica_placement(&problem, &parsed),
                    text,
                    "r={r} formatting is not a fixed point"
                );
                let single = read_placement(shuffled.as_bytes(), &problem);
                if r == 1 {
                    let primary = single.map_err(|e| format!("v1 failed to parse: {e}"))?;
                    prop_assert_eq!(format_placement(&problem, &primary), text.clone());
                    prop_assert_eq!(&ReplicaPlacement::from_primary(primary), &parsed);
                } else {
                    let typed = matches!(
                        single,
                        Err(PersistError::Replicated { replicas }) if replicas == r
                    );
                    prop_assert!(
                        typed,
                        "read_placement accepted or mis-typed an r={r} file: {single:?}"
                    );
                }
            }
            Ok(())
        });
}

/// Awkward replacement values: not numbers, out of the `u64` range by
/// one, at its edge, or empty.
const MUTATION_VALUES: [&str; 6] = [
    "NaN",
    "inf",
    "-1",
    "18446744073709551616",
    "18446744073709551615",
    "",
];

/// The mutants of a valid text: truncated after each line, each line
/// duplicated, and in each line one value replaced by every
/// [`MUTATION_VALUES`] token. A value is a TAB-separated field after the
/// first, or the part after `=` in a `key=value` header token.
fn mutants(rng: &mut StdRng, text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let join = |lines: &[String]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let owned: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mut out = Vec::new();
    for k in 0..lines.len() {
        out.push(join(&owned[..k]));
        let mut dup = owned.clone();
        dup.insert(k, owned[k].clone());
        out.push(join(&dup));
    }
    for (k, line) in lines.iter().enumerate() {
        let (sep, fields): (char, Vec<&str>) = if line.starts_with('#') {
            (' ', line.split(' ').collect())
        } else {
            ('\t', line.split('\t').collect())
        };
        let slots: Vec<usize> = (0..fields.len())
            .filter(|&i| if sep == ' ' { fields[i].contains('=') } else { i > 0 })
            .collect();
        if slots.is_empty() {
            continue;
        }
        let slot = slots[rng.random_range(0..slots.len())];
        for value in MUTATION_VALUES {
            let mut mutated: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
            mutated[slot] = match fields[slot].split_once('=') {
                Some((key, _)) if sep == ' ' => format!("{key}={value}"),
                _ => value.to_string(),
            };
            let mut text_lines = owned.clone();
            text_lines[k] = mutated.join(&sep.to_string());
            out.push(join(&text_lines));
        }
    }
    out
}

/// The lines a reader parses: the header and every non-blank, non-`#`
/// line after it (readers skip blank and comment lines). The header is
/// trimmed; a later line is split at its first TAB after leading
/// whitespace and its value trimmed at the end, so `key<TAB>` keeps its
/// TAB (an empty report string reads back as "").
fn parsed_lines(text: &str) -> String {
    text.lines()
        .enumerate()
        .filter(|(i, l)| *i == 0 || !(l.trim().is_empty() || l.trim().starts_with('#')))
        .map(|(i, l)| match l.trim_start().split_once('\t') {
            Some((key, value)) if i > 0 => format!("{key}\t{}\n", value.trim_end()),
            _ => format!("{}\n", l.trim()),
        })
        .collect()
}

/// The readers under test.
#[derive(Debug, Clone, Copy)]
enum Reader {
    Controller,
    Serving,
    Live,
    Placement,
    ReplicaPlacement,
}

/// Reads `text` with `reader` and re-formats the result: `Some` on `Ok`,
/// `None` on a typed error.
fn reparse(reader: Reader, text: &str, problem: &CcaProblem) -> Option<String> {
    let bytes = text.as_bytes();
    match reader {
        Reader::Controller => read_controller_report(bytes)
            .ok()
            .map(|r| format_controller_report(&r)),
        Reader::Serving => read_serving_report(bytes)
            .ok()
            .map(|r| format_serving_report(&r)),
        Reader::Live => read_live_report(bytes).ok().map(|r| format_live_report(&r)),
        Reader::Placement => read_placement(bytes, problem)
            .ok()
            .map(|r| format_placement(problem, &r)),
        Reader::ReplicaPlacement => read_replica_placement(bytes, problem)
            .ok()
            .map(|r| format_replica_placement(problem, &r)),
    }
}

/// Every reader is total over mutated valid texts: `Ok` or a typed
/// error, never a panic (the checker turns a panic into a failing,
/// shrunk case), and on `Ok` re-formatting reproduces the parsed lines.
#[test]
fn every_reader_is_total_over_mutated_texts() {
    Checker::new("every_reader_is_total_over_mutated_texts")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(report_case, |case| {
            let mut rng = StdRng::seed_from_u64(case.seed);
            let objects = rng.random_range(1usize..6);
            let problem = tabbed_problem(&mut rng, objects, 3);
            let v1 = replica_placement(&mut rng, &problem, 1);
            let v2 = replica_placement(&mut rng, &problem, 3);
            let texts = [
                (
                    format_controller_report(&controller_report(&mut rng)),
                    &[Reader::Controller][..],
                ),
                (
                    format_serving_report(&serving_report(&mut rng)),
                    &[Reader::Serving],
                ),
                (format_live_report(&live_report(&mut rng)), &[Reader::Live]),
                (
                    format_placement(&problem, v1.primary()),
                    &[Reader::Placement, Reader::ReplicaPlacement],
                ),
                (
                    format_replica_placement(&problem, &v2),
                    &[Reader::ReplicaPlacement],
                ),
            ];
            for (text, readers) in &texts {
                for mutant in mutants(&mut rng, text) {
                    for &reader in *readers {
                        if let Some(reformatted) = reparse(reader, &mutant, &problem) {
                            prop_assert_eq!(
                                reformatted,
                                parsed_lines(&mutant),
                                "{:?} accepted a mutant that does not re-format to itself",
                                reader
                            );
                        }
                    }
                }
            }
            Ok(())
        });
}
