//! The scenario-matrix orchestrator: declarative cross-product campaigns
//! with journaled, resumable n ≥ 30 execution.
//!
//! The paper's methodology (§2.3, §4.5) wants *campaigns*, not single
//! runs: a factorial design over workload mix × rate pattern × target
//! rate × SUT × shard count, each cell repeated n ≥ 30 times and
//! aggregated into CI95 summaries that can be compared across cells. A
//! 2 SUT × 3 pattern × n = 30 matrix is 180 runs — hours of wall time —
//! so the orchestrator journals every completed cell-repetition to disk
//! (one JSON line with its [`RunStatus`] and headline metrics) and a
//! killed or aborted matrix picks up exactly where it stopped:
//!
//! * completed cell-repetitions are **never re-run** — their journaled
//!   metrics are reused verbatim, so per-cell aggregates are
//!   bit-identical across the interruption;
//! * the journal's header line fingerprints the matrix spec, so a
//!   journal can never silently resume a *different* matrix;
//! * a partial trailing line (the process died mid-write) is truncated
//!   away on open, and the repetition it belonged to re-runs.
//!
//! * the header also records the *inputs* every cell shares besides its
//!   factors (a stream path, options, seeds), when a caller names them, so
//!   a journal never silently resumes under different inputs either.
//!
//! Aggregation is always computed from journal records — not from
//! transient in-memory state — which is what makes "resume" and "ran in
//! one piece" indistinguishable in the output. Floats are written in
//! Rust's shortest round-trip decimal form, so parse(write(x)) == x
//! bit-for-bit.
//!
//! The matrix's cells come from a [`FactorSpace`] (§2.3: "the analyst
//! chooses a number of setups. This can range from variations of a single
//! parameter, to full factorial designs where all levels of all factors
//! are considered"): each cell is an [`Assignment`] of one level to every
//! [`Factor`].

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, Write as _};
use std::path::Path;
use std::time::Duration;

use gt_analysis::{ConfidenceInterval, Summary};
use gt_core::json::{extract_num, extract_pairs, extract_str, ObjectWriter};
use gt_core::spec::{self, SpecError};

use gt_load::{LoopModel, RatePattern};
use gt_sut::SutOptions;

use crate::watchdog::{AbortReason, RunStatus};

/// Characters that cannot appear in factor levels: they would break the
/// cell-id encoding (`;`, `|`) or the hand-rolled JSON journal lines
/// (`"`, `\`). Factor names additionally reject `=` (the cell-id
/// key/value separator); levels may contain it (chaos schedules do).
const RESERVED_CHARS: [char; 4] = [';', '|', '"', '\\'];

/// A named factor with its levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factor {
    /// Factor name (e.g. `target_rate`).
    pub name: String,
    /// The levels to evaluate, as display strings.
    pub levels: Vec<String>,
}

impl Factor {
    /// Builds a factor from displayable levels.
    pub(crate) fn new<T: fmt::Display>(name: &str, levels: impl IntoIterator<Item = T>) -> Self {
        Factor {
            name: name.to_owned(),
            levels: levels.into_iter().map(|l| l.to_string()).collect(),
        }
    }
}

/// One concrete configuration: an assignment of a level to every factor.
pub type Assignment = Vec<(String, String)>;

/// A factor space supporting the two designs the paper names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactorSpace {
    factors: Vec<Factor>,
}

impl FactorSpace {
    /// An empty space (a single, empty configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a factor last (builder style), replacing one of the same name.
    #[must_use]
    pub fn factor<T: fmt::Display>(
        mut self,
        name: &str,
        levels: impl IntoIterator<Item = T>,
    ) -> Self {
        self.factors.retain(|factor| factor.name != name);
        self.factors.push(Factor::new(name, levels));
        self
    }

    /// The factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Full factorial design: the cartesian product of all levels.
    pub fn full_factorial(&self) -> Vec<Assignment> {
        let mut out: Vec<Assignment> = vec![Vec::new()];
        for factor in &self.factors {
            assert!(
                !factor.levels.is_empty(),
                "factor `{}` has no levels",
                factor.name
            );
            let mut next = Vec::with_capacity(out.len() * factor.levels.len());
            for assignment in &out {
                for level in &factor.levels {
                    let mut extended = assignment.clone();
                    extended.push((factor.name.clone(), level.clone()));
                    next.push(extended);
                }
            }
            out = next;
        }
        out
    }

    /// One-factor-at-a-time design: every factor varied over its levels
    /// while all others stay at their first (baseline) level. The
    /// baseline configuration appears exactly once, first.
    pub fn one_factor_at_a_time(&self) -> Vec<Assignment> {
        let baseline: Assignment = self
            .factors
            .iter()
            .map(|f| {
                assert!(!f.levels.is_empty(), "factor `{}` has no levels", f.name);
                (f.name.clone(), f.levels[0].clone())
            })
            .collect();
        let mut out = vec![baseline.clone()];
        for (i, factor) in self.factors.iter().enumerate() {
            for level in factor.levels.iter().skip(1) {
                let mut assignment = baseline.clone();
                assignment[i].1 = level.clone();
                out.push(assignment);
            }
        }
        out
    }

    /// Reads a grid `A1,A2,..xB1,B2,..` (`gt-run --scale`) as two factors:
    /// `row` over the levels before the `x`, `column` over those after
    /// it, each a `,`-separated `gt_core::spec` list.
    pub fn grid(text: &str, row: &str, column: &str) -> Result<Self, SpecError> {
        let (rows, columns) = text
            .split_once('x')
            .ok_or_else(|| SpecError::new(text, text, "expected A1,A2,..xB1,B2,.."))?;
        let levels = |part| spec::list(text, part, ',', |level| Ok(level.to_owned()));
        Ok(FactorSpace::new()
            .factor(row, levels(rows)?)
            .factor(column, levels(columns)?))
    }
}

/// What one run of a `gt-run` matrix is made of: the stream, options and
/// seeds a cell starts from, plus the built-in factors its cell (or a flag)
/// sets through [`RunSpec::resolve`] — `sut`, `stream`, `rate`, `pattern`,
/// `shards`, `clients`, `loop`, `chaos` and `netem`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The stream file replayed.
    pub stream: String,
    /// The platform's registry name: its sharded variant once resolved
    /// with `shards` set.
    pub sut: String,
    /// The platform's start-up options.
    pub options: SutOptions,
    /// The target rate, events/s.
    pub rate: f64,
    /// The shape of the offered rate over time.
    pub pattern: RatePattern,
    /// 0 means single-sink replay; ≥ 1 switches to the load front.
    pub clients: usize,
    /// How the load front's clients pace themselves.
    pub loop_model: LoopModel,
    /// `;`-separated chaos schedule.
    pub chaos: Option<String>,
    /// `;`-separated netem schedule; valid on both fronts.
    pub netem: Option<String>,
    /// Runs the platform's sharded variant with this many shards.
    pub shards: Option<usize>,
    /// Seeds the load plan's partitioning and arrival schedules, and the
    /// single-sink pacer's (pareto) pattern.
    pub load_seed: u64,
    /// Seeds the chaos and netem schedules (and the stream faults).
    pub fault_seed: u64,
    /// What an a-priori fault pipeline made of the stream, if one ran.
    pub faults: Option<String>,
}

impl RunSpec {
    /// A run before any factor is set.
    pub fn new(stream: &str, load_seed: u64, fault_seed: u64) -> Self {
        RunSpec {
            stream: stream.to_owned(),
            sut: String::new(),
            options: SutOptions::new(),
            rate: 10_000.0,
            pattern: RatePattern::Uniform,
            clients: 0,
            loop_model: LoopModel::Open,
            chaos: None,
            netem: None,
            shards: None,
            load_seed,
            fault_seed,
            faults: None,
        }
    }

    /// This spec with every factor of `cell` set, on the platform's
    /// sharded variant (`tide-store` → `tide-store-sharded`) when `shards`
    /// is set. Unknown factors and unparsable levels are refused.
    pub fn resolve(&self, cell: &Assignment) -> Result<Self, String> {
        let mut spec = self.clone();
        for (name, level) in cell {
            spec.set(name, level)?;
        }
        if let Some(n) = spec.shards {
            let serial = spec.sut.strip_suffix("-sharded").unwrap_or(&spec.sut);
            spec.sut = format!("{serial}-sharded");
            spec.options.insert("shards", n.to_string());
        }
        Ok(spec)
    }

    /// Sets one factor from its level as written: the one table behind a
    /// flag and a matrix cell. A chaos or netem level may join its clauses
    /// with `+` (a cell id reserves `;`), and `none` is no schedule.
    fn set(&mut self, name: &str, level: &str) -> Result<(), String> {
        let bad = |error: SpecError| format!("factor `{name}`: {error}");
        let schedule = || (level != "none").then(|| level.replace('+', ";"));
        match name {
            "sut" => self.sut = level.to_owned(),
            "stream" => self.stream = level.to_owned(),
            "rate" => {
                self.rate = spec::value(level, level, "rate").map_err(bad)?;
                if !(self.rate.is_finite() && self.rate > 0.0) {
                    return Err(bad(SpecError::new(level, level, "must be positive")));
                }
            }
            "pattern" => self.pattern = level.parse().map_err(bad)?,
            "shards" => match spec::value(level, level, "shard count").map_err(bad)? {
                0 => return Err(bad(SpecError::new(level, level, "must be at least 1"))),
                n => self.shards = Some(n),
            },
            "clients" => self.clients = spec::value(level, level, "client count").map_err(bad)?,
            "loop" => self.loop_model = level.parse().map_err(bad)?,
            "chaos" => self.chaos = schedule(),
            "netem" => self.netem = schedule(),
            other => {
                return Err(format!(
                    "unknown factor `{other}` (known: sut, stream, rate, pattern, shards, \
                     clients, loop, chaos, netem)"
                ));
            }
        }
        Ok(())
    }
}

/// The inputs a base spec holds besides its factors, as a journal header
/// records them: `stream=..;opt=..;load_seed=..;fault_seed=..;faults=..`.
impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (stream, options) = (&self.stream, &self.options);
        let (load, fault) = (self.load_seed, self.fault_seed);
        let faults = self.faults.as_deref().unwrap_or("none");
        write!(
            f,
            "stream={stream};opt={options};load_seed={load};fault_seed={fault};faults={faults}"
        )
    }
}

/// Which §2.3 experimental design enumerates the matrix cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Cartesian product of all factor levels.
    FullFactorial,
    /// Baseline plus one-factor-at-a-time variations.
    OneFactorAtATime,
}

impl Design {
    fn label(self) -> &'static str {
        match self {
            Design::FullFactorial => "full",
            Design::OneFactorAtATime => "ofat",
        }
    }

    /// The design a spec or fingerprint names by its [`Self::label`].
    fn of_label(label: &str) -> Option<Self> {
        let designs = [Design::FullFactorial, Design::OneFactorAtATime];
        designs.into_iter().find(|design| design.label() == label)
    }
}

/// A declarative scenario matrix: the factor space, the design that
/// enumerates it, and the repetition/seeding policy shared by every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// Campaign name (journal header, reports).
    pub name: String,
    /// Repetitions per cell (the paper recommends n ≥ 30).
    pub repetitions: u32,
    /// Master seed; each cell derives its own stable seed base from it.
    pub seed: u64,
    /// The enumeration design.
    pub design: Design,
    /// The factors and their levels.
    pub space: FactorSpace,
}

impl ScenarioMatrix {
    /// Parses the line-based matrix spec format:
    ///
    /// ```text
    /// # 2 SUT x 3 rate-pattern smoke matrix
    /// matrix = pattern-smoke
    /// repetitions = 3
    /// seed = 42
    /// design = full
    /// factor sut = tide-store | tide-graph
    /// factor pattern = uniform | diurnal:10:0.4 | flash:2:4:1
    /// factor rate = 20000
    /// ```
    ///
    /// Blank lines and `#` comments are ignored. Each line is one
    /// `gt_core::spec` pair; a factor's levels are a `|`-separated list
    /// (rate-pattern and chaos specs use `:` and `,` internally).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut name = None;
        let mut repetitions = None;
        let mut seed = 42u64;
        let mut design = Design::FullFactorial;
        let mut space = FactorSpace::new();
        let mut factor_names = HashSet::new();
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = spec::key_value(line, line)?;
            let bad = |reason: &str| SpecError::new(line, value, reason);
            match key {
                "matrix" => name = Some(check_token(line, value, "matrix name")?.to_owned()),
                "repetitions" => match spec::value(line, value, "repetitions")? {
                    0 => return Err(bad("repetitions must be >= 1")),
                    n => repetitions = Some(n),
                },
                "seed" => seed = spec::value(line, value, "seed")?,
                "design" => {
                    let unknown = || bad("unknown design (expected full or ofat)");
                    design = Design::of_label(value).ok_or_else(unknown)?;
                }
                _ => {
                    let factor = match key.split_once(char::is_whitespace) {
                        Some(("factor", factor)) => {
                            check_token(line, factor.trim(), "factor name")?
                        }
                        _ => return Err(SpecError::new(line, key, "unknown key")),
                    };
                    if !factor_names.insert(factor) {
                        return Err(SpecError::new(line, factor, "duplicate factor"));
                    }
                    let levels = spec::list(line, value, '|', |level| {
                        check_token(line, level, "level").map(str::to_owned)
                    })?;
                    space = space.factor(factor, levels);
                }
            }
        }
        let whole = |reason: &str| SpecError::new(text.trim(), "", reason);
        let name = name.ok_or_else(|| whole("missing `matrix = NAME`"))?;
        let repetitions = repetitions.ok_or_else(|| whole("missing `repetitions = N`"))?;
        if space.factors().is_empty() {
            return Err(whole("needs at least one `factor NAME = LEVELS` line"));
        }
        Ok(ScenarioMatrix {
            name,
            repetitions,
            seed,
            design,
            space,
        })
    }

    /// The cells this matrix executes, in the stable enumeration order
    /// resume depends on.
    pub fn cells(&self) -> Vec<Assignment> {
        match self.design {
            Design::FullFactorial => self.space.full_factorial(),
            Design::OneFactorAtATime => self.space.one_factor_at_a_time(),
        }
    }

    /// Total cell-repetitions the matrix schedules.
    pub fn total_runs(&self) -> usize {
        self.cells().len() * self.repetitions as usize
    }

    /// The spec fingerprint stored in the journal header; any change to
    /// name, repetitions, seed, design, or factor space changes it.
    pub fn fingerprint(&self) -> String {
        let factors: Vec<String> = self
            .space
            .factors()
            .iter()
            .map(|f| format!("{}={}", f.name, f.levels.join("|")))
            .collect();
        format!(
            "{};reps={};seed={};design={};{}",
            self.name,
            self.repetitions,
            self.seed,
            self.design.label(),
            factors.join(";")
        )
    }

    /// The matrix a journal header's [`Self::fingerprint`] was made from;
    /// `None` when `text` is not one. Exact, because no token of the
    /// fingerprint may contain `;` or `|`, nor a name `=`.
    pub(crate) fn from_fingerprint(text: &str) -> Option<Self> {
        let mut parts = text.split(';');
        let name = parts.next()?.to_owned();
        let mut field = |key: &str| parts.next()?.strip_prefix(key)?.strip_prefix('=');
        let repetitions = field("reps")?.parse().ok()?;
        let seed = field("seed")?.parse().ok()?;
        let design = Design::of_label(field("design")?)?;
        let space = parts.try_fold(FactorSpace::new(), |space, factor| {
            let (name, levels) = factor.split_once('=')?;
            Some(space.factor(name, levels.split('|')))
        })?;
        Some(ScenarioMatrix {
            name,
            repetitions,
            seed,
            design,
            space,
        })
    }
}

/// Returns `token` (part of `line`) unless it contains a character the
/// cell-id or journal encodings reserve.
fn check_token<'a>(line: &str, token: &'a str, what: &str) -> Result<&'a str, SpecError> {
    let name = what.ends_with("name");
    let reserved = |c: &char| RESERVED_CHARS.contains(c) || (name && *c == '=');
    match token.chars().find(reserved) {
        Some(bad) => {
            let why = format!("{what} contains reserved character `{bad}`");
            Err(SpecError::new(line, token, why))
        }
        None => Ok(token),
    }
}

/// The stable identity of a cell: `factor=level;factor=level` in factor
/// declaration order.
pub fn cell_id(cell: &Assignment) -> String {
    cell.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// FNV-1a over the cell id: a stable, dependency-free 64-bit mix that
/// spreads per-cell seed bases far apart.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What one cell-repetition produced: how the run ended plus its
/// headline metrics (name → value, report order preserved). A matrix's
/// runner — `gt-run`'s real one, or a test's deterministic fake — returns
/// one per `(cell, rep, seed)` it is handed.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRunResult {
    /// How the run ended; aborted runs are journaled but excluded from
    /// aggregates.
    pub status: RunStatus,
    /// Headline metrics of the run.
    pub metrics: Vec<(String, f64)>,
}

/// One journal line: a completed (or aborted) cell-repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The cell's stable id (see [`cell_id`]).
    pub cell: String,
    /// Repetition index within the cell.
    pub rep: u32,
    /// The seed the repetition ran with.
    pub seed: u64,
    /// How the run ended.
    pub status: RunStatus,
    /// The run's headline metrics.
    pub metrics: Vec<(String, f64)>,
}

impl JournalRecord {
    /// Serializes to one JSON line (no trailing newline). Floats use
    /// Rust's shortest round-trip form, so parsing recovers them exactly.
    ///
    /// Panics if the cell id or a metric name holds `"` or `\`
    /// ([`gt_core::json::quote`]); a journal refuses such a matrix at its
    /// header, which holds every factor level.
    pub fn to_json_line(&self) -> String {
        ObjectWriter::new(false)
            .str("cell", &self.cell)
            .num("rep", self.rep)
            .num("seed", self.seed)
            .str("status", &encode_status(&self.status))
            .pairs("metrics", &self.metrics)
            .finish()
            .expect("cell ids and metric names hold no quote or backslash")
    }

    /// Parses one JSON line written by [`Self::to_json_line`].
    pub fn parse_json_line(line: &str) -> Result<Self, String> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err("not a JSON object".into());
        }
        Ok(JournalRecord {
            cell: extract_str(line, "cell")?.to_owned(),
            rep: extract_num(line, "rep")?,
            seed: extract_num(line, "seed")?,
            status: decode_status(extract_str(line, "status")?)?,
            metrics: extract_pairs(line, "metrics")?,
        })
    }
}

fn encode_status(status: &RunStatus) -> String {
    let (kind, millis, events) = match status {
        RunStatus::Completed => return "completed".to_owned(),
        RunStatus::Aborted(AbortReason::Stalled {
            stalled_for,
            events_delivered,
        }) => ("stalled", stalled_for, events_delivered),
        RunStatus::Aborted(AbortReason::DeadlineExceeded {
            deadline,
            events_delivered,
        }) => ("deadline", deadline, events_delivered),
    };
    format!("aborted-{kind}:{}:{events}", millis.as_millis())
}

fn decode_status(text: &str) -> Result<RunStatus, String> {
    if text == "completed" {
        return Ok(RunStatus::Completed);
    }
    let mut parts = text.split(':');
    let kind = parts.next().unwrap_or_default();
    let mut number = || parts.next().and_then(|p| p.parse::<u64>().ok());
    let bad = || format!("bad status `{text}`");
    let millis = Duration::from_millis(number().ok_or_else(bad)?);
    let events_delivered = number().ok_or_else(bad)?;
    match kind {
        "aborted-stalled" => Ok(RunStatus::Aborted(AbortReason::Stalled {
            stalled_for: millis,
            events_delivered,
        })),
        "aborted-deadline" => Ok(RunStatus::Aborted(AbortReason::DeadlineExceeded {
            deadline: millis,
            events_delivered,
        })),
        other => Err(format!("unknown status `{other}`")),
    }
}

/// A matrix journal as both its readers see it — the resume
/// ([`MatrixJournal::open`]) and the offline render (`gt-report
/// --matrix`): the header's fingerprint, then the longest prefix of valid,
/// newline-terminated record lines. Nothing past that prefix is a record —
/// not a last line cut by a kill, not a corrupt line, not what follows
/// one: the resume truncates it and re-runs those repetitions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalContents {
    /// The matrix fingerprint from the header line.
    pub fingerprint: String,
    /// The inputs the header records besides the matrix; empty for a bare
    /// header.
    pub inputs: String,
    /// The records of the valid prefix, in journal order.
    pub records: Vec<JournalRecord>,
    /// Bytes of the header line and the valid prefix.
    pub(crate) valid_len: usize,
    /// Lines past the valid prefix, a last line without newline included.
    pub ignored_lines: usize,
}

/// Reads a journal's text (see [`JournalContents`]). Fails only when the
/// header line is missing, incomplete or not a matrix header.
pub(crate) fn read_journal(text: &str) -> io::Result<JournalContents> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let Some((header_line, body)) = text.split_once('\n') else {
        return Err(invalid("journal header line is incomplete".to_owned()));
    };
    let fingerprint = extract_str(header_line, "matrix")
        .map_err(|e| invalid(format!("not a matrix journal (bad header line: {e})")))?
        .to_owned();
    let inputs = extract_str(header_line, "inputs").unwrap_or("").to_owned();
    let mut records = Vec::new();
    let mut valid_len = header_line.len() + 1;
    let mut lines = body.split_inclusive('\n');
    for line in lines.by_ref() {
        match JournalRecord::parse_json_line(line) {
            Ok(record) if line.ends_with('\n') => {
                records.push(record);
                valid_len += line.len();
            }
            _ => break,
        }
    }
    let ignored_lines = (valid_len < text.len()).then(|| 1 + lines.count());
    let ignored_lines = ignored_lines.unwrap_or(0);
    Ok(JournalContents {
        fingerprint,
        inputs,
        records,
        valid_len,
        ignored_lines,
    })
}

/// The file-backed matrix journal: header line + one JSON line per
/// finished cell-repetition, appended and flushed as runs finish.
pub struct MatrixJournal {
    file: File,
}

impl MatrixJournal {
    /// Opens (or creates) the journal for `matrix` at `path`, returning
    /// the journal and the records of its valid prefix (`read_journal`).
    ///
    /// * A fresh file gets the fingerprint header.
    /// * An existing file must carry the **same** fingerprint — resuming
    ///   a different matrix into the journal is an error, never silent.
    /// * Everything past the valid prefix (a partial line killed
    ///   mid-write, a corrupt line and what follows) is truncated away, so
    ///   the append position is always a clean line boundary and those
    ///   repetitions simply re-run.
    pub fn open(path: &Path, matrix: &ScenarioMatrix) -> io::Result<(Self, Vec<JournalRecord>)> {
        Self::open_with(path, matrix, "")
    }

    /// [`Self::open`] for a matrix whose cells share `inputs` besides their
    /// factors: a fresh header records them after the fingerprint, and an
    /// existing one must record the same.
    fn open_with(
        path: &Path,
        matrix: &ScenarioMatrix,
        inputs: &str,
    ) -> io::Result<(Self, Vec<JournalRecord>)> {
        let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
        let mut header = ObjectWriter::new(false).str("matrix", &matrix.fingerprint());
        if !inputs.is_empty() {
            header = header.str("inputs", inputs);
        }
        let header = header.finish().map_err(invalid)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;

        if text.is_empty() {
            file.write_all(format!("{header}\n").as_bytes())?;
            file.flush()?;
            return Ok((MatrixJournal { file }, Vec::new()));
        }

        let contents = read_journal(&text)?;
        if contents.fingerprint != matrix.fingerprint() {
            return Err(invalid(format!(
                "journal belongs to a different matrix:\n  journal: {}\n  spec:    {}",
                contents.fingerprint,
                matrix.fingerprint()
            )));
        }
        if contents.inputs != inputs {
            return Err(invalid(format!(
                "journal was written under different inputs:\n  journal: {}\n  now:     {inputs}",
                contents.inputs
            )));
        }
        if contents.valid_len < text.len() {
            file.set_len(contents.valid_len as u64)?;
        }
        file.seek(io::SeekFrom::Start(contents.valid_len as u64))?;
        Ok((MatrixJournal { file }, contents.records))
    }

    /// Appends one record and flushes it to disk before returning — a
    /// kill after `append` returns can never lose the repetition.
    pub(crate) fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let line = record.to_json_line();
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// How a matrix execution went: what ran, what was skipped as already
/// journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixProgress {
    /// Cell-repetitions the matrix schedules in total.
    pub total: usize,
    /// Repetitions skipped because the journal already held them.
    pub resumed: usize,
    /// Repetitions executed in this invocation.
    pub executed: usize,
}

/// One cell's aggregate over its clean repetitions.
#[derive(Debug, Clone)]
pub struct CellAggregate {
    /// The cell's stable id.
    pub cell: String,
    /// Aborted repetitions excluded from the aggregates.
    pub excluded: u32,
    /// Whether the clean-repetition count meets the paper's n ≥ 30 rule.
    pub meets_n30: bool,
    /// Per-metric summary + CI95 (Student-t below n = 30), in first-seen
    /// metric order.
    pub metrics: Vec<MetricAggregate>,
}

/// One metric's aggregate within a cell.
#[derive(Debug, Clone)]
pub struct MetricAggregate {
    /// Metric name as reported by the cell runner.
    pub name: String,
    /// Streaming summary over clean repetitions.
    pub summary: Summary,
    /// CI95 of the mean, if computable.
    pub ci95: Option<ConfidenceInterval>,
}

/// The outcome of [`run_matrix`]: per-cell aggregates (journal order) and
/// the resume accounting.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Per-cell aggregates, in first-seen journal order.
    pub cells: Vec<CellAggregate>,
    /// What ran vs. what resumed.
    pub progress: MatrixProgress,
}

/// Aggregates journal records into per-cell CI95 summaries. Pure: the
/// same records always produce the same aggregates, which is what makes
/// resumed matrices bit-identical to uninterrupted ones.
pub fn aggregate_records(records: &[JournalRecord]) -> Vec<CellAggregate> {
    // Per cell, in first-seen order: its clean-repetition count and summaries.
    let mut cells: Vec<(CellAggregate, u64)> = Vec::new();
    for record in records {
        let at = cells.iter().position(|(c, _)| c.cell == record.cell);
        let at = at.unwrap_or_else(|| {
            let (cell, metrics) = (record.cell.clone(), Vec::new());
            let aggregate = CellAggregate {
                cell,
                excluded: 0,
                meets_n30: false,
                metrics,
            };
            cells.push((aggregate, 0));
            cells.len() - 1
        });
        let (cell, clean) = &mut cells[at];
        if record.status.is_aborted() {
            cell.excluded += 1;
            continue;
        }
        *clean += 1;
        for (name, value) in &record.metrics {
            match cell.metrics.iter_mut().find(|m| m.name == *name) {
                Some(metric) => metric.summary.add(*value),
                None => cell.metrics.push(MetricAggregate {
                    name: name.clone(),
                    summary: Summary::of(&[*value]),
                    ci95: None,
                }),
            }
        }
    }
    let finish = |(mut cell, clean): (CellAggregate, u64)| {
        cell.meets_n30 = clean >= 30;
        for metric in &mut cell.metrics {
            metric.ci95 = metric.summary.ci95();
        }
        cell
    };
    cells.into_iter().map(finish).collect()
}

/// Executes (or resumes) a scenario matrix against `runner`, journaling
/// to `journal_path`. Already-journaled cell-repetitions are skipped;
/// everything else runs in stable enumeration order, each repetition
/// flushed to the journal before the next starts. Aggregates are computed
/// from the journal records.
pub fn run_matrix(
    matrix: &ScenarioMatrix,
    journal_path: &Path,
    runner: &mut dyn FnMut(&Assignment, u32, u64) -> CellRunResult,
) -> io::Result<MatrixOutcome> {
    run_matrix_with_progress(matrix, journal_path, "", None, runner, &mut |_, _, _| {})
}

/// [`run_matrix`] for cells that share `inputs` besides their factors (the
/// journal header records them; see [`MatrixJournal::open`]), with a
/// progress callback `(cell_id, rep, resumed)` invoked per
/// cell-repetition (after skipping or running it). A `pinned_seed` is the
/// seed every repetition runs with, in place of the one each derives from
/// the matrix seed — and so the one its journal line records.
pub fn run_matrix_with_progress(
    matrix: &ScenarioMatrix,
    journal_path: &Path,
    inputs: &str,
    pinned_seed: Option<u64>,
    runner: &mut dyn FnMut(&Assignment, u32, u64) -> CellRunResult,
    progress: &mut dyn FnMut(&str, u32, bool),
) -> io::Result<MatrixOutcome> {
    let (mut journal, mut records) = MatrixJournal::open_with(journal_path, matrix, inputs)?;
    let done: HashSet<(String, u32)> = records.iter().map(|r| (r.cell.clone(), r.rep)).collect();
    let resumed = records.len();
    let mut executed = 0usize;
    for cell in matrix.cells() {
        let id = cell_id(&cell);
        // Each cell's seeds start at its own base, so they never collide
        // across cells, and are recomputed from the spec alone on resume.
        let cell_seed = matrix.seed.wrapping_add(fnv1a(&id));
        for rep in 0..matrix.repetitions {
            if done.contains(&(id.clone(), rep)) {
                progress(&id, rep, true);
                continue;
            }
            let seed = pinned_seed.unwrap_or(cell_seed.wrapping_add(u64::from(rep)));
            let result = runner(&cell, rep, seed);
            let record = JournalRecord {
                cell: id.clone(),
                rep,
                seed,
                status: result.status,
                metrics: result.metrics,
            };
            journal.append(&record)?;
            records.push(record);
            executed += 1;
            progress(&id, rep, false);
        }
    }
    Ok(MatrixOutcome {
        cells: aggregate_records(&records),
        progress: MatrixProgress {
            total: matrix.total_runs(),
            resumed,
            executed,
        },
    })
}

impl fmt::Display for ScenarioMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "matrix {}: {} cells x {} reps = {} runs ({} design, seed {})",
            self.name,
            self.cells().len(),
            self.repetitions,
            self.total_runs(),
            self.design.label(),
            self.seed
        )?;
        for factor in self.space.factors() {
            writeln!(
                f,
                "  factor {} = {}",
                factor.name,
                factor.levels.join(" | ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# comment
matrix = smoke
repetitions = 3
seed = 7
design = full
factor sut = tide-store | tide-graph
factor pattern = uniform | flash:1:4:2
";

    fn runner(
        calls: &mut Vec<(String, u32, u64)>,
    ) -> impl FnMut(&Assignment, u32, u64) -> CellRunResult + '_ {
        move |cell, rep, seed| {
            calls.push((cell_id(cell), rep, seed));
            CellRunResult {
                status: RunStatus::Completed,
                metrics: vec![
                    ("achieved_rate".into(), 1000.0 + seed as f64 % 97.0),
                    ("events".into(), 500.0),
                ],
            }
        }
    }

    #[test]
    fn parses_the_spec_format() {
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();
        assert_eq!(matrix.name, "smoke");
        assert_eq!(matrix.repetitions, 3);
        assert_eq!(matrix.seed, 7);
        assert_eq!(matrix.cells().len(), 4);
        assert_eq!(matrix.total_runs(), 12);
        let ids: Vec<String> = matrix.cells().iter().map(cell_id).collect();
        assert!(ids.contains(&"sut=tide-store;pattern=flash:1:4:2".to_owned()));
    }

    #[test]
    fn rejects_malformed_specs() {
        for (bad, why) in [
            ("repetitions = 3\nfactor a = x", "missing name"),
            ("matrix = m\nfactor a = x", "missing repetitions"),
            ("matrix = m\nrepetitions = 0\nfactor a = x", "zero reps"),
            ("matrix = m\nrepetitions = 3", "no factors"),
            (
                "matrix = m\nrepetitions = 3\nfactor a = x\nfactor a = y",
                "dup factor",
            ),
            (
                "matrix = m\nrepetitions = 3\nfactor a; = x",
                "reserved char",
            ),
            ("matrix = m\nrepetitions = 3\nbogus a = x", "unknown key"),
            (
                "matrix = m\nrepetitions = 3\ndesign = fractional\nfactor a = x",
                "bad design",
            ),
        ] {
            assert!(ScenarioMatrix::parse(bad).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn journal_record_round_trips_exactly() {
        let record = JournalRecord {
            cell: "sut=tide-store;pattern=flash:1:4:2".into(),
            rep: 2,
            // Cell seeds use all 64 bits; one read through `f64` would not.
            seed: u64::MAX - 1,
            status: RunStatus::Completed,
            metrics: vec![
                ("achieved_rate".into(), 19876.54321),
                ("p99_micros".into(), 0.1 + 0.2), // deliberately awkward float
                ("events".into(), 500.0),
            ],
        };
        let parsed = JournalRecord::parse_json_line(&record.to_json_line()).unwrap();
        assert_eq!(parsed, record);
        for ((_, a), (_, b)) in record.metrics.iter().zip(&parsed.metrics) {
            assert_eq!(a.to_bits(), b.to_bits(), "float must round-trip bitwise");
        }
    }

    #[test]
    fn aborted_statuses_round_trip() {
        for status in [
            RunStatus::Aborted(AbortReason::Stalled {
                stalled_for: Duration::from_millis(1500),
                events_delivered: 42,
            }),
            RunStatus::Aborted(AbortReason::DeadlineExceeded {
                deadline: Duration::from_millis(30_000),
                events_delivered: 9001,
            }),
        ] {
            let record = JournalRecord {
                cell: "a=b".into(),
                rep: 0,
                seed: 1,
                status: status.clone(),
                metrics: vec![("partial".into(), 1.0)],
            };
            let parsed = JournalRecord::parse_json_line(&record.to_json_line()).unwrap();
            assert_eq!(parsed.status, status);
        }
    }

    #[test]
    fn runs_every_cell_repetition_once_with_distinct_seeds() {
        let dir = std::env::temp_dir().join("gt-matrix-basic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();
        let mut calls = Vec::new();
        let outcome = run_matrix(&matrix, &path, &mut runner(&mut calls)).unwrap();
        assert_eq!(calls.len(), 12);
        let mut seeds: Vec<u64> = calls.iter().map(|(_, _, s)| *s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "seeds must never collide across cells");
        assert_eq!(outcome.progress.executed, 12);
        assert_eq!(outcome.progress.resumed, 0);
        assert_eq!(outcome.cells.len(), 4);
        for cell in &outcome.cells {
            assert_eq!(cell.metrics[0].summary.count(), 3);
            assert!(!cell.meets_n30);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_skips_completed_and_matches_bitwise() {
        let dir = std::env::temp_dir().join("gt-matrix-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();

        // Reference: the full matrix in one piece.
        let full_path = dir.join("full.jsonl");
        std::fs::remove_file(&full_path).ok();
        let mut calls = Vec::new();
        let full = run_matrix(&matrix, &full_path, &mut runner(&mut calls)).unwrap();

        // Interrupted: journal truncated after 5 records, then resumed.
        let cut_path = dir.join("cut.jsonl");
        std::fs::remove_file(&cut_path).ok();
        std::fs::copy(&full_path, &cut_path).unwrap();
        let text = std::fs::read_to_string(&cut_path).unwrap();
        let keep: String = text.lines().take(1 + 5).map(|l| format!("{l}\n")).collect();
        std::fs::write(&cut_path, keep).unwrap();

        let mut resumed_calls = Vec::new();
        let resumed = run_matrix(&matrix, &cut_path, &mut runner(&mut resumed_calls)).unwrap();
        assert_eq!(resumed.progress.resumed, 5);
        assert_eq!(resumed.progress.executed, 7);
        assert_eq!(resumed_calls.len(), 7, "completed repetitions never re-run");

        // The resumed journal is byte-identical to the uninterrupted one…
        assert_eq!(
            std::fs::read_to_string(&full_path).unwrap(),
            std::fs::read_to_string(&cut_path).unwrap()
        );
        // …and so are the aggregates.
        for (a, b) in full.cells.iter().zip(&resumed.cells) {
            assert_eq!(a.cell, b.cell);
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(ma.summary.mean().to_bits(), mb.summary.mean().to_bits());
                let (ca, cb) = (ma.ci95.as_ref().unwrap(), mb.ci95.as_ref().unwrap());
                assert_eq!(ca.lo.to_bits(), cb.lo.to_bits());
                assert_eq!(ca.hi.to_bits(), cb.hi.to_bits());
            }
        }
        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&cut_path).ok();
    }

    #[test]
    fn partial_trailing_line_is_truncated_and_re_run() {
        let dir = std::env::temp_dir().join("gt-matrix-partial");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();
        let mut calls = Vec::new();
        run_matrix(&matrix, &path, &mut runner(&mut calls)).unwrap();

        // Kill mid-write: chop the file in the middle of the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 17]).unwrap();

        let mut resumed_calls = Vec::new();
        let outcome = run_matrix(&matrix, &path, &mut runner(&mut resumed_calls)).unwrap();
        assert_eq!(
            resumed_calls.len(),
            1,
            "only the mangled repetition re-runs"
        );
        assert_eq!(outcome.progress.resumed, 11);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "recovered journal matches the uninterrupted one"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_refuses_a_different_matrix() {
        let dir = std::env::temp_dir().join("gt-matrix-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();
        let mut calls = Vec::new();
        run_matrix(&matrix, &path, &mut runner(&mut calls)).unwrap();

        let mut other = matrix.clone();
        other.repetitions = 30;
        let err = run_matrix(&other, &path, &mut runner(&mut calls)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aborted_repetitions_are_journaled_but_excluded() {
        let dir = std::env::temp_dir().join("gt-matrix-aborted");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let matrix =
            ScenarioMatrix::parse("matrix = ab\nrepetitions = 4\nfactor sut = only").unwrap();
        let mut aborted_first = true;
        let outcome = run_matrix(
            &matrix,
            &path,
            &mut |_: &Assignment, _rep: u32, _seed: u64| {
                let status = if aborted_first {
                    aborted_first = false;
                    RunStatus::Aborted(AbortReason::Stalled {
                        stalled_for: Duration::from_secs(1),
                        events_delivered: 3,
                    })
                } else {
                    RunStatus::Completed
                };
                CellRunResult {
                    status,
                    metrics: vec![("rate".into(), 100.0)],
                }
            },
        )
        .unwrap();
        let cell = &outcome.cells[0];
        assert_eq!(cell.excluded, 1);
        assert_eq!(cell.metrics[0].summary.count(), 3);
        assert_eq!(cell.metrics[0].summary.mean(), 100.0);

        // Resume sees the aborted repetition as done: nothing re-runs.
        let mut reruns = 0usize;
        let resumed = run_matrix(&matrix, &path, &mut |_: &Assignment, _: u32, _: u64| {
            reruns += 1;
            CellRunResult {
                status: RunStatus::Completed,
                metrics: vec![("rate".into(), 999.0)],
            }
        })
        .unwrap();
        assert_eq!(reruns, 0);
        assert_eq!(resumed.cells[0].excluded, 1);
        std::fs::remove_file(&path).ok();
    }

    fn space() -> FactorSpace {
        FactorSpace::new()
            .factor("rate", [100, 1_000, 10_000])
            .factor("batch", [1, 10])
    }

    #[test]
    fn full_factorial_enumerates_product() {
        let configs = space().full_factorial();
        assert_eq!(configs.len(), 6);
        // First config pairs the first levels.
        assert_eq!(
            configs[0],
            vec![
                ("rate".to_owned(), "100".to_owned()),
                ("batch".to_owned(), "1".to_owned()),
            ]
        );
        // All configurations are distinct.
        let mut sorted = configs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn ofat_varies_one_factor_per_config() {
        let configs = space().one_factor_at_a_time();
        // Baseline + 2 extra rates + 1 extra batch.
        assert_eq!(configs.len(), 4);
        let baseline = &configs[0];
        for config in &configs[1..] {
            let differing = config
                .iter()
                .zip(baseline)
                .filter(|(a, b)| a.1 != b.1)
                .count();
            assert_eq!(differing, 1, "{config:?}");
        }
    }

    #[test]
    fn empty_space_is_a_single_empty_config() {
        let space = FactorSpace::new();
        assert_eq!(space.full_factorial(), vec![Vec::new()]);
        assert_eq!(space.one_factor_at_a_time(), vec![Vec::new()]);
    }

    #[test]
    fn a_grid_is_two_factors_in_row_major_order() {
        let grid = FactorSpace::grid(" 1, 8 x 10000,,40000", "clients", "rate").unwrap();
        let cells: Vec<String> = grid
            .full_factorial()
            .iter()
            .map(|cell| format!("{}@{}", cell[0].1, cell[1].1))
            .collect();
        assert_eq!(cells, ["1@10000", "1@40000", "8@10000", "8@40000"]);
        for bad in ["", "100", "x", "1x", "x100", " ,x1"] {
            assert!(
                FactorSpace::grid(bad, "a", "b").is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "has no levels")]
    fn empty_levels_rejected() {
        FactorSpace::new().factor::<u32>("x", []).full_factorial();
    }

    #[test]
    fn a_fingerprint_reads_back_as_its_matrix() {
        let mut matrix = ScenarioMatrix::parse(SPEC).unwrap();
        assert_eq!(
            ScenarioMatrix::from_fingerprint(&matrix.fingerprint()),
            Some(matrix.clone())
        );
        matrix.design = Design::OneFactorAtATime;
        let back = ScenarioMatrix::from_fingerprint(&matrix.fingerprint()).unwrap();
        assert_eq!(back.to_string(), matrix.to_string());
        for bad in [
            "",
            "m",
            "m;reps=x;seed=1;design=full;a=b",
            "m;reps=1;seed=1;design=x;a=b",
        ] {
            assert_eq!(ScenarioMatrix::from_fingerprint(bad), None, "{bad}");
        }
    }

    fn aborted() -> RunStatus {
        RunStatus::Aborted(AbortReason::Stalled {
            stalled_for: Duration::from_secs(1),
            events_delivered: 10,
        })
    }

    fn record(cell: &str, rep: u32, status: RunStatus, rate: f64) -> JournalRecord {
        JournalRecord {
            cell: cell.into(),
            rep,
            seed: u64::from(rep),
            status,
            metrics: vec![("rate".into(), rate)],
        }
    }

    #[test]
    fn meets_n30_counts_clean_repetitions_only() {
        // 30 repetitions launched, 5 aborted: only 25 clean samples, so
        // the n >= 30 rule is NOT met even though reps == 30. A salvaged
        // partial run's near-zero rate must not deflate the mean either.
        let records: Vec<JournalRecord> = (0..30)
            .map(|rep| match rep {
                0..=4 => record("sut=a", rep, aborted(), 0.0),
                _ => record("sut=a", rep, RunStatus::Completed, 50.0),
            })
            .collect();
        let cell = &aggregate_records(&records)[0];
        assert_eq!(cell.excluded, 5);
        assert_eq!(cell.metrics[0].summary.count(), 25);
        assert_eq!(cell.metrics[0].summary.min(), Some(50.0));
        assert!(!cell.meets_n30);
    }

    #[test]
    fn a_cell_with_every_repetition_aborted_has_no_rows_but_renders() {
        let records: Vec<JournalRecord> = (0..3)
            .map(|rep| record("sut=a", rep, aborted(), 42.0))
            .collect();
        let cells = aggregate_records(&records);
        assert_eq!(cells[0].excluded, 3);
        assert!(cells[0].metrics.is_empty());
        let table = crate::render::render_matrix_table(&cells);
        assert_eq!(
            table,
            "cell sut=a (n=0, excluded=3, below n>=30 — provisional)\n"
        );
    }

    #[test]
    fn journal_refuses_different_inputs() {
        let dir = std::env::temp_dir().join("gt-matrix-inputs");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();
        let mut calls = Vec::new();
        let run = |inputs: &str, calls: &mut Vec<_>| {
            let mut runner = runner(calls);
            run_matrix_with_progress(&matrix, &path, inputs, None, &mut runner, &mut |_, _, _| {})
        };
        run("stream=a.csv", &mut calls).unwrap();
        let header = std::fs::read_to_string(&path).unwrap();
        assert!(header.starts_with(&format!(
            "{{\"matrix\":\"{}\",\"inputs\":\"stream=a.csv\"}}\n",
            matrix.fingerprint()
        )));
        for other in ["stream=b.csv", ""] {
            let err = run(other, &mut calls).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{other}");
            assert!(err.to_string().contains("different inputs"), "{err}");
        }
        assert_eq!(
            run("stream=a.csv", &mut calls).unwrap().progress.resumed,
            12
        );
        assert!(run("say \"hi\"", &mut calls).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_pinned_seed_is_the_seed_every_repetition_runs_and_records() {
        let dir = std::env::temp_dir().join("gt-matrix-pinned");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let matrix = ScenarioMatrix::parse(SPEC).unwrap();
        let mut calls = Vec::new();
        let mut runner = runner(&mut calls);
        run_matrix_with_progress(&matrix, &path, "", Some(9), &mut runner, &mut |_, _, _| {})
            .unwrap();
        drop(runner);
        let journal = read_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(journal.records.iter().all(|r| r.seed == 9));
        assert!(calls.iter().all(|&(_, _, seed)| seed == 9));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn table_renders_means_and_caveats() {
        let records = vec![
            JournalRecord {
                cell: "sut=a".into(),
                rep: 0,
                seed: 1,
                status: RunStatus::Completed,
                metrics: vec![("rate".into(), 100.0)],
            },
            JournalRecord {
                cell: "sut=a".into(),
                rep: 1,
                seed: 2,
                status: RunStatus::Completed,
                metrics: vec![("rate".into(), 110.0)],
            },
        ];
        let table = crate::render::render_matrix_table(&aggregate_records(&records));
        assert!(table.contains("sut=a"), "{table}");
        assert!(table.contains("105.00"), "{table}");
        assert!(table.contains("provisional"), "{table}");
    }
}
