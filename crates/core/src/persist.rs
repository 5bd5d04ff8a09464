//! Plain-text persistence for placements and reports: one placement
//! codec and one report codec.
//!
//! Placement format (`# cca-placement`): a header, then one line per
//! object in object-id order holding the object name followed by its
//! `r` nodes (primary first), TAB-separated. The header
//! `v1 nodes=N objects=M` is the single-copy case `r = 1`;
//! `v2 nodes=N objects=M replicas=R` carries `r = R` columns. A line's
//! last `r` fields are its nodes and everything before them is the
//! name, so names may contain TABs. Loading matches objects by name, not
//! by position, so a file survives reordering between the writing and
//! reading problem instances.
//!
//! Report formats (`# cca-controller-report v1`, `# cca-serving-report
//! v1`, `# cca-live-report v1`): one `key<TAB>value` line per scalar
//! field in table order, then one `row-key<TAB>index<TAB>count` line per
//! non-empty histogram bucket, in ascending bucket order per row kind.
//! Each report is declared once, as a single ordered field table given
//! to `report_codec!`, which generates its writer and reader over the
//! shared framing below. Floats round-trip through Rust's shortest exact
//! decimal `Display`, so a written report re-reads bit for bit.

use crate::controller::ControllerReport;
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::replica::ReplicaPlacement;
use crate::serving::{LatencyHistogram, LiveReport, ServingReport, NUM_BUCKETS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::str::FromStr;

/// Error from every reader in this module.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is malformed or does not match the given problem.
    Format {
        /// 1-based line number (0 for whole-file problems).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A replica placement (`replicas > 1`) was read as a single-copy
    /// placement; [`read_replica_placement`] reads it.
    Replicated {
        /// Copies per object the file's header declares.
        replicas: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format { line, message } => write!(f, "line {line}: {message}"),
            PersistError::Replicated { replicas } => write!(
                f,
                "line 1: placement has {replicas} copies per object, expected 1"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format { .. } | PersistError::Replicated { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn format_error(line: usize, message: impl Into<String>) -> PersistError {
    PersistError::Format {
        line,
        message: message.into(),
    }
}

/// Serialises `placement` against `problem` (names come from the
/// problem) in the single-copy `v1` format.
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn format_placement(problem: &CcaProblem, placement: &Placement) -> String {
    format_columns(problem, std::slice::from_ref(placement))
}

/// Reads a single-copy placement and matches it against `problem` by
/// object name.
///
/// # Errors
///
/// Fails on malformed input, a header whose node or object count is not
/// the problem's, unknown or missing object names, duplicate names (in
/// the file or the problem), or nodes out of range. A replica placement
/// (`replicas > 1`) fails with [`PersistError::Replicated`].
pub fn read_placement<R: Read>(
    reader: R,
    problem: &CcaProblem,
) -> Result<Placement, PersistError> {
    let mut columns = read_columns(reader, problem, 1)?;
    Ok(columns.remove(0))
}

/// Serialises a replica placement: the `v1` format for `r = 1` (so it is
/// byte-identical to [`format_placement`] on the primary column), the
/// `v2 … replicas=r` format otherwise.
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn format_replica_placement(problem: &CcaProblem, rp: &ReplicaPlacement) -> String {
    format_columns(problem, rp.columns())
}

/// Reads a placement with any number of copies: a `v1` file loads as the
/// `r = 1` replica placement, a `v2` file loads all `r` columns.
///
/// # Errors
///
/// Fails as [`read_placement`] does, and on a `replicas=` count that is 0
/// or exceeds the node count (copies of one object sit on distinct
/// nodes).
pub fn read_replica_placement<R: Read>(
    reader: R,
    problem: &CcaProblem,
) -> Result<ReplicaPlacement, PersistError> {
    Ok(ReplicaPlacement::from_columns(read_columns(
        reader,
        problem,
        usize::MAX,
    )?))
}

/// The one placement writer: `columns` holds one [`Placement`] per copy,
/// primary first.
fn format_columns(problem: &CcaProblem, columns: &[Placement]) -> String {
    let (primary, r) = (&columns[0], columns.len());
    assert_eq!(primary.num_objects(), problem.num_objects());
    let mut out = format!(
        "# cca-placement v{} nodes={} objects={}",
        if r == 1 { 1 } else { 2 },
        primary.num_nodes(),
        primary.num_objects()
    );
    if r > 1 {
        let _ = write!(out, " replicas={r}");
    }
    out.push('\n');
    for o in problem.objects() {
        out.push_str(problem.name(o));
        for column in columns {
            let _ = write!(out, "\t{}", column.node_of(o));
        }
        out.push('\n');
    }
    out
}

/// Parses a placement header against `problem` into its copy count.
/// The node and object counts must be the problem's, and the copy count
/// is bounded by the node count before anything is allocated from it.
fn parse_placement_header(header: &str, problem: &CcaProblem) -> Result<usize, PersistError> {
    let bad = |what: &str| format_error(1, format!("{what} in header {header:?}"));
    let mut tokens = header
        .strip_prefix("# cca-placement ")
        .ok_or_else(|| bad("unknown format"))?
        .split_whitespace();
    let version = tokens.next();
    let mut count = |key: &str| {
        tokens
            .next()
            .and_then(|t| t.strip_prefix(key)?.parse::<usize>().ok())
            .ok_or_else(|| bad(&format!("bad {key} field")))
    };
    let nodes = count("nodes=")?;
    let objects = count("objects=")?;
    let replicas = match version {
        Some("v1") => 1,
        Some("v2") => count("replicas=")?,
        _ => return Err(bad("unknown version")),
    };
    if tokens.next().is_some() {
        return Err(bad("trailing fields"));
    }
    if nodes != problem.num_nodes() {
        let n = problem.num_nodes();
        return Err(bad(&format!("nodes={nodes} is not the problem's {n} nodes")));
    }
    if objects != problem.num_objects() {
        let m = problem.num_objects();
        return Err(bad(&format!("objects={objects} is not the problem's {m} objects")));
    }
    if replicas == 0 || replicas > nodes {
        return Err(bad(&format!("replicas={replicas} outside 1..={nodes}")));
    }
    Ok(replicas)
}

/// The one placement reader: the file's columns, primary first, matched
/// to `problem` by object name. A file with more than `max_replicas`
/// copies fails with [`PersistError::Replicated`] before any line is read.
fn read_columns<R: Read>(
    reader: R,
    problem: &CcaProblem,
    max_replicas: usize,
) -> Result<Vec<Placement>, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .transpose()?
        .ok_or_else(|| format_error(1, "empty input"))?;
    let replicas = parse_placement_header(&header, problem)?;
    if replicas > max_replicas {
        return Err(PersistError::Replicated { replicas });
    }
    let nodes = problem.num_nodes();

    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(problem.num_objects());
    for o in problem.objects() {
        if by_name.insert(problem.name(o), o.index()).is_some() {
            return Err(format_error(
                0,
                format!(
                    "problem has duplicate object name {:?}; name-keyed loading is ambiguous",
                    problem.name(o)
                ),
            ));
        }
    }

    let mut columns = vec![vec![u32::MAX; problem.num_objects()]; replicas];
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // The last `replicas` fields are nodes (last copy first); the
        // remainder, TABs included, is the name.
        let fields: Vec<&str> = trimmed.rsplitn(replicas + 1, '\t').collect();
        if fields.len() != replicas + 1 {
            return Err(format_error(
                line_no,
                format!("expected name then {replicas} TAB-separated nodes"),
            ));
        }
        let name = fields[replicas];
        let &idx = by_name
            .get(name)
            .ok_or_else(|| format_error(line_no, format!("unknown object {name:?}")))?;
        if columns[0][idx] != u32::MAX {
            return Err(format_error(line_no, format!("object {name:?} assigned twice")));
        }
        for (column, node_str) in columns.iter_mut().zip(fields[..replicas].iter().rev()) {
            let node: usize = node_str
                .trim()
                .parse()
                .map_err(|_| format_error(line_no, format!("invalid node {node_str:?}")))?;
            if node >= nodes {
                return Err(format_error(
                    line_no,
                    format!("node {node} out of range (< {nodes})"),
                ));
            }
            column[idx] = node as u32;
        }
    }
    if let Some(missing) = columns[0].iter().position(|&a| a == u32::MAX) {
        return Err(format_error(
            0,
            format!(
                "object {:?} has no assignment",
                problem.name(ObjectId(missing as u32))
            ),
        ));
    }
    Ok(columns
        .into_iter()
        .map(|assignment| Placement::new(assignment, nodes))
        .collect())
}

// ---------------------------------------------------------------------------
// Shared `# cca-*-report v1` framing
//
// Every report format is the same line discipline: a fixed header, one
// `key<TAB>value` line per scalar field in table order, then zero or
// more repeated histogram rows (`<row-key><TAB>index<TAB>count`,
// ascending index). The writer and parser below are that discipline;
// `report_codec!` binds a report's field table to them.
// ---------------------------------------------------------------------------

/// Writer half of the shared framing: accumulates the header, scalar
/// fields, and histogram rows in emission order.
struct ReportWriter {
    out: String,
}

impl ReportWriter {
    fn new(header: &str) -> Self {
        ReportWriter {
            out: format!("{header}\n"),
        }
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.out, "{key}\t{value}");
    }

    fn buckets(&mut self, key: &str, h: &LatencyHistogram) {
        for (i, count) in h.nonempty() {
            let _ = writeln!(self.out, "{key}\t{i}\t{count}");
        }
    }

    fn finish(self) -> String {
        self.out
    }
}

/// Parser half of the shared framing: scalar values and histogram rows
/// collected with the line-numbered error discipline every report format
/// shares (unknown key, duplicate key, bucket index range, duplicate
/// bucket, missing key at line 0).
struct ParsedReport {
    values: HashMap<String, String>,
    rows: HashMap<String, LatencyHistogram>,
}

fn parse_framed<R: Read>(
    reader: R,
    header_want: &str,
    scalar_keys: &[&str],
    row_keys: &[&str],
) -> Result<ParsedReport, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .transpose()?
        .ok_or_else(|| format_error(1, "empty input"))?;
    if header.trim() != header_want {
        return Err(format_error(1, format!("bad header {header:?}")));
    }
    let mut values: HashMap<String, String> = HashMap::new();
    let mut rows: HashMap<String, LatencyHistogram> = HashMap::new();
    let mut seen_buckets: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Split before trimming the value, so an empty String field
        // (`digest<TAB>`) keeps its TAB and reads back as "".
        let (key, value) = line
            .trim_start()
            .split_once('\t')
            .ok_or_else(|| format_error(line_no, "expected key<TAB>value"))?;
        let value = value.trim_end();
        if let Some(&row_key) = row_keys.iter().find(|&&r| r == key) {
            let (idx, count) = value.split_once('\t').ok_or_else(|| {
                format_error(line_no, format!("expected {row_key}<TAB>index<TAB>count"))
            })?;
            let idx: usize = idx
                .parse()
                .map_err(|_| format_error(line_no, format!("invalid bucket index {idx:?}")))?;
            if idx >= NUM_BUCKETS {
                return Err(format_error(
                    line_no,
                    format!("bucket {idx} out of range (< {NUM_BUCKETS})"),
                ));
            }
            let seen = seen_buckets.entry(row_key).or_default();
            if seen.contains(&idx) {
                return Err(format_error(line_no, format!("duplicate bucket {idx}")));
            }
            seen.push(idx);
            let count: u64 = count
                .parse()
                .map_err(|_| format_error(line_no, format!("invalid bucket count {count:?}")))?;
            rows.entry(row_key.to_string())
                .or_default()
                .add_bucket(idx, count);
            continue;
        }
        if !scalar_keys.contains(&key) {
            return Err(format_error(line_no, format!("unknown key {key:?}")));
        }
        if values.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format_error(line_no, format!("duplicate key {key:?}")));
        }
    }
    Ok(ParsedReport { values, rows })
}

impl ParsedReport {
    /// The scalar under `key`, parsed as the field's type. Only the text
    /// the writer would emit for the parsed value is accepted (so
    /// `18446744073709551616` is not an `f64`: it writes as
    /// `18446744073709552000`), so an accepted value re-formats to the
    /// text it was read from.
    fn get<T: FromStr + std::fmt::Display>(&self, key: &str) -> Result<T, PersistError> {
        let value = self
            .values
            .get(key)
            .ok_or_else(|| format_error(0, format!("missing key {key:?}")))?;
        match value.parse::<T>() {
            Ok(parsed) if parsed.to_string() == *value => Ok(parsed),
            _ => Err(format_error(
                0,
                format!(
                    "invalid {} {value:?} for {key:?}",
                    std::any::type_name::<T>()
                ),
            )),
        }
    }

    /// The histogram collected under `row_key` (empty if it had no rows).
    fn row(&self, row_key: &str) -> LatencyHistogram {
        self.rows.get(row_key).cloned().unwrap_or_default()
    }
}

/// Declares one report's text codec from a single ordered field table:
/// `field: type` scalars (`u64 | f64 | bool | String`) in write order,
/// then optional `rows { row_key => histogram_field }` entries. It
/// generates the public writer and reader over the shared framing; the
/// reader builds the report with an exhaustive struct literal, so a
/// report field missing from its table fails to compile.
macro_rules! report_codec {
    (
        $report:ident, $header:literal, $format:ident, $read:ident,
        { $($key:ident: $ty:ty),* $(,)? }
        $(rows { $($row:ident => $hist:ident),* $(,)? })?
    ) => {
        #[doc = concat!(
            "Serialises a [`", stringify!($report), "`] in the `", $header, "` format."
        )]
        #[must_use]
        pub fn $format(report: &$report) -> String {
            let mut w = ReportWriter::new($header);
            $(w.field(stringify!($key), &report.$key);)*
            $($(w.buckets(stringify!($row), &report.$hist);)*)?
            w.finish()
        }

        #[doc = concat!("Reads a [`", stringify!($report), "`] in the `", $header, "` format.")]
        ///
        /// # Errors
        ///
        /// Fails on malformed input, unknown/duplicate/missing keys,
        /// bucket indices out of range, or unparsable values.
        pub fn $read<R: Read>(reader: R) -> Result<$report, PersistError> {
            let p = parse_framed(
                reader,
                $header,
                &[$(stringify!($key)),*],
                &[$($(stringify!($row)),*)?],
            )?;
            Ok($report {
                $($key: p.get::<$ty>(stringify!($key))?,)*
                $($($hist: p.row(stringify!($row)),)*)?
            })
        }
    };
}

report_codec! {
    ControllerReport, "# cca-controller-report v1",
    format_controller_report, read_controller_report,
    {
        epochs: u64,
        queries: u64,
        evaluated: u64,
        migrations: u64,
        objects_moved: u64,
        migrated_bytes: u64,
        rejected_not_worthwhile: u64,
        rejected_not_robust: u64,
        degradations: u64,
        solve_retries: u64,
        repairs: u64,
        repair_retries: u64,
        repair_moves: u64,
        repair_bytes: u64,
        node_losses: u64,
        unrecovered_losses: u64,
        accumulated_loss: f64,
        final_cost: f64,
        final_feasible: bool,
    }
}

report_codec! {
    ServingReport, "# cca-serving-report v1",
    format_serving_report, read_serving_report,
    {
        queries: u64,
        served: u64,
        degraded: u64,
        shed_admission: u64,
        shed_overload: u64,
        shed_deadline: u64,
        executed_bytes: u64,
        estimated_bytes: u64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
        digest: String,
    }
    rows { bucket => histogram }
}

report_codec! {
    LiveReport, "# cca-live-report v1",
    format_live_report, read_live_report,
    {
        epochs: u64,
        queries: u64,
        served: u64,
        degraded: u64,
        shed_admission: u64,
        shed_overload: u64,
        shed_deadline: u64,
        executed_bytes: u64,
        estimated_bytes: u64,
        evaluated: u64,
        migrations: u64,
        abandoned_migrations: u64,
        migration_epochs: u64,
        migrated_bytes: u64,
        max_epoch_migrated_bytes: u64,
        migration_budget: u64,
        pre_epochs: u64,
        pre_queries: u64,
        pre_executed_bytes: u64,
        post_epochs: u64,
        post_queries: u64,
        post_executed_bytes: u64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
        final_feasible: bool,
        digest: String,
    }
    rows {
        bucket_pre => pre_histogram,
        bucket_mid => mid_histogram,
        bucket_post => post_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_hash_placement;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        for i in 0..8 {
            b.add_object(format!("kw{i}"), 5 + i as u64);
        }
        b.uniform_capacities(3, 100).build().unwrap()
    }

    /// Default reports, whose String fields are empty, read back equal.
    #[test]
    fn default_reports_round_trip() {
        let serving = ServingReport::default();
        let text = format_serving_report(&serving);
        assert_eq!(
            read_serving_report(text.as_bytes()).expect("serving"),
            serving
        );
        let live = LiveReport::default();
        let text = format_live_report(&live);
        assert_eq!(read_live_report(text.as_bytes()).expect("live"), live);
        let controller = ControllerReport::default();
        let text = format_controller_report(&controller);
        assert_eq!(
            read_controller_report(text.as_bytes()).expect("controller"),
            controller
        );
    }

    #[test]
    fn round_trip() {
        let p = problem();
        let placement = random_hash_placement(&p);
        let text = format_placement(&p, &placement);
        let parsed = read_placement(text.as_bytes(), &p).expect("round trip");
        assert_eq!(parsed, placement);
    }

    #[test]
    fn name_keyed_loading_survives_reordering() {
        let p = problem();
        let placement = random_hash_placement(&p);
        let mut lines: Vec<String> = format_placement(&p, &placement)
            .lines()
            .map(String::from)
            .collect();
        lines[1..].reverse(); // shuffle data lines, keep header
        let text = lines.join("\n");
        let parsed = read_placement(text.as_bytes(), &p).expect("reordered parse");
        assert_eq!(parsed, placement);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let p = problem();
        for text in [
            "",
            "not a header\nkw0\t1\n",
            "# cca-placement v1 nodes=3 objects=8\nkw0 1\n", // no tab
            "# cca-placement v1 nodes=3 objects=8\nkw0\tfour\n",
            "# cca-placement v1 nodes=3 objects=8\nkw0\t9\n", // node range
            "# cca-placement v1 nodes=3 objects=8\nmystery\t1\n",
        ] {
            assert!(read_placement(text.as_bytes(), &p).is_err(), "{text:?}");
        }
        // Missing objects.
        let partial = "# cca-placement v1 nodes=3 objects=8\nkw0\t1\n";
        assert!(read_placement(partial.as_bytes(), &p).is_err());
        // Duplicate assignment.
        let dup = "# cca-placement v1 nodes=3 objects=8\nkw0\t1\nkw0\t2\n";
        assert!(read_placement(dup.as_bytes(), &p).is_err());
    }

    #[test]
    fn header_counts_must_match_the_problem() {
        let p = problem();
        let body = "kw0\t1\nkw1\t1\nkw2\t1\nkw3\t1\nkw4\t1\nkw5\t1\nkw6\t1\nkw7\t1\n";
        let ok = format!("# cca-placement v1 nodes=3 objects=8\n{body}");
        assert!(read_placement(ok.as_bytes(), &p).is_ok());
        for header in [
            "# cca-placement v1 nodes=8 objects=8", // more nodes than the problem
            "# cca-placement v1 nodes=2 objects=8", // fewer nodes than the problem
            "# cca-placement v1 nodes=3 objects=9",
            "# cca-placement v1 nodes=3",
            "# cca-placement v1 nodes=3 objects=8 extra",
            "# cca-placement v3 nodes=3 objects=8",
        ] {
            let text = format!("{header}\n{body}");
            match read_placement(text.as_bytes(), &p) {
                Err(PersistError::Format { line: 1, .. }) => {}
                other => panic!("{header:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn replica_count_is_bounded_before_allocating() {
        let p = problem();
        for replicas in ["0", "4", "18446744073709551615", "18446744073709551616"] {
            let text = format!("# cca-placement v2 nodes=3 objects=8 replicas={replicas}\n");
            match read_replica_placement(text.as_bytes(), &p) {
                Err(PersistError::Format { line: 1, .. }) => {}
                other => panic!("replicas={replicas} gave {other:?}"),
            }
        }
    }

    #[test]
    fn replica_file_is_a_typed_error_for_the_single_copy_reader() {
        let p = problem();
        let rp = ReplicaPlacement::from_columns(vec![
            Placement::new(vec![0, 1, 2, 0, 1, 2, 0, 1], 3),
            Placement::new(vec![1, 2, 0, 1, 2, 0, 1, 2], 3),
        ]);
        let text = format_replica_placement(&p, &rp);
        assert_eq!(read_replica_placement(text.as_bytes(), &p).unwrap(), rp);
        let err = read_placement(text.as_bytes(), &p).unwrap_err();
        assert!(matches!(err, PersistError::Replicated { replicas: 2 }), "{err:?}");
        assert!(err.to_string().contains("2 copies"), "{err}");
    }

    fn report() -> ControllerReport {
        ControllerReport {
            epochs: 10_000,
            queries: 640_000,
            evaluated: 625,
            migrations: 12,
            objects_moved: 480,
            migrated_bytes: 123_456,
            rejected_not_worthwhile: 600,
            rejected_not_robust: 13,
            degradations: 2,
            solve_retries: 2,
            repairs: 1,
            repair_retries: 1,
            repair_moves: 37,
            repair_bytes: 9_999,
            node_losses: 1,
            unrecovered_losses: 0,
            accumulated_loss: 1234.5678901234567,
            final_cost: 0.1 + 0.2, // deliberately non-representable decimal
            final_feasible: true,
        }
    }

    #[test]
    fn controller_report_round_trips_bit_exact() {
        let r = report();
        let text = format_controller_report(&r);
        assert!(text.starts_with("# cca-controller-report v1\n"));
        let parsed = read_controller_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.final_cost.to_bits(),
            r.final_cost.to_bits(),
            "shortest-decimal Display must round-trip floats exactly"
        );
    }

    fn serving_report() -> ServingReport {
        let mut r = ServingReport {
            queries: 10_000,
            served: 9_200,
            degraded: 300,
            shed_admission: 480,
            shed_overload: 15,
            shed_deadline: 5,
            executed_bytes: 123_456_789,
            estimated_bytes: 9_876,
            digest: "d41d8cd98f00b204e9800998ecf8427e".into(),
            ..ServingReport::default()
        };
        for latency in [0u64, 1, 100, 100, 5_000, u64::MAX] {
            r.histogram.record(latency);
        }
        // Make the histogram total line up with served + degraded so the
        // partition invariant is checkable on the parsed copy too.
        for _ in 0..9_494u64 {
            r.histogram.record(2_048);
        }
        r.refresh_quantiles();
        r
    }

    #[test]
    fn serving_report_round_trips_bit_exact() {
        let r = serving_report();
        assert!(r.counters_consistent());
        let text = format_serving_report(&r);
        assert!(text.starts_with("# cca-serving-report v1\n"));
        let parsed = read_serving_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.counters_consistent());
        // And the round trip is a fixed point of formatting.
        assert_eq!(format_serving_report(&parsed), text);
    }

    #[test]
    fn malformed_serving_reports_are_rejected() {
        for text in [
            "",
            "not a header\nqueries\t1\n",
            "# cca-serving-report v1\nqueries one\n",         // no tab
            "# cca-serving-report v1\nqueries\tone\n",        // bad integer
            "# cca-serving-report v1\nmystery\t1\n",          // unknown key
            "# cca-serving-report v1\nqueries\t1\nqueries\t2\n", // duplicate
            "# cca-serving-report v1\nqueries\t1\n",          // missing keys
            "# cca-serving-report v1\nbucket\t65\t1\n",       // bucket range
            "# cca-serving-report v1\nbucket\t1\n",           // bucket shape
        ] {
            assert!(read_serving_report(text.as_bytes()).is_err(), "{text:?}");
        }
        // Duplicate bucket lines are rejected even with all scalars present.
        let mut full = format_serving_report(&serving_report());
        full.push_str("bucket\t7\t1\nbucket\t7\t2\n");
        assert!(read_serving_report(full.as_bytes()).is_err());
    }

    fn live_report() -> LiveReport {
        let mut r = LiveReport {
            epochs: 400,
            queries: 25_600,
            served: 24_000,
            degraded: 600,
            shed_admission: 900,
            shed_overload: 60,
            shed_deadline: 40,
            executed_bytes: 9_876_543,
            estimated_bytes: 54_321,
            evaluated: 25,
            migrations: 2,
            abandoned_migrations: 1,
            migration_epochs: 9,
            migrated_bytes: 520_000,
            max_epoch_migrated_bytes: 65_536,
            migration_budget: 65_536,
            pre_epochs: 150,
            pre_queries: 9_000,
            pre_executed_bytes: 4_000_000,
            post_epochs: 200,
            post_queries: 12_600,
            post_executed_bytes: 3_876_543,
            final_feasible: true,
            digest: "b8eeaf2aa937b0b351101ce7dc36e65c".into(),
            ..LiveReport::default()
        };
        for _ in 0..9_000u64 {
            r.pre_histogram.record(40_000);
        }
        for _ in 0..3_000u64 {
            r.mid_histogram.record(70_000);
        }
        for _ in 0..12_600u64 {
            r.post_histogram.record(30_000);
        }
        r.refresh_quantiles();
        r
    }

    #[test]
    fn live_report_round_trips_bit_exact() {
        let r = live_report();
        assert!(r.counters_consistent());
        let text = format_live_report(&r);
        assert!(text.starts_with("# cca-live-report v1\n"));
        let parsed = read_live_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.counters_consistent());
        assert_eq!(format_live_report(&parsed), text, "formatting is a fixed point");
    }

    #[test]
    fn malformed_live_reports_are_rejected() {
        for text in [
            "",
            "not a header\nepochs\t1\n",
            "# cca-serving-report v1\nqueries\t1\n", // wrong kind
            "# cca-live-report v1\nepochs one\n",    // no tab
            "# cca-live-report v1\nepochs\tone\n",   // bad integer
            "# cca-live-report v1\nmystery\t1\n",    // unknown key
            "# cca-live-report v1\nepochs\t1\nepochs\t2\n", // duplicate
            "# cca-live-report v1\nepochs\t1\n",     // missing keys
            "# cca-live-report v1\nbucket_pre\t65\t1\n", // bucket range
            "# cca-live-report v1\nbucket_mid\t1\n", // bucket shape
            "# cca-live-report v1\nbucket\t1\t1\n",  // serving's row key
        ] {
            assert!(read_live_report(text.as_bytes()).is_err(), "{text:?}");
        }
        // The same bucket index may appear once per row kind, but not
        // twice within one kind.
        let mut full = format_live_report(&live_report());
        full.push_str("bucket_post\t3\t1\nbucket_post\t3\t2\n");
        assert!(read_live_report(full.as_bytes()).is_err());
    }

    #[test]
    fn malformed_controller_reports_are_rejected() {
        for text in [
            "",
            "not a header\nepochs\t1\n",
            "# cca-controller-report v1\nepochs one\n",      // no tab
            "# cca-controller-report v1\nepochs\tone\n",     // bad integer
            "# cca-controller-report v1\nmystery\t1\n",      // unknown key
            "# cca-controller-report v1\nepochs\t1\nepochs\t2\n", // duplicate
            "# cca-controller-report v1\nepochs\t1\n",       // missing keys
        ] {
            assert!(read_controller_report(text.as_bytes()).is_err(), "{text:?}");
        }
    }
}
