//! The versioned run ledger: NDJSON journal format, sinks, and readers.
//!
//! A ledger is an append-only NDJSON file with three line types, each a
//! self-describing JSON object:
//!
//! - a [`RunHeader`] (first line, format v2+) carrying the ledger format
//!   version and the digests that make resume safe — netlist content
//!   hash, config fingerprint, and candidate-pair-set digest;
//! - [`PairEvent`] lines, one per resolved FF pair, appended (and
//!   flushed) the moment the verdict lands so a SIGKILL loses at most
//!   the line being written;
//! - [`SpanEvent`] lines, written at end of run, carrying the timestamped
//!   span tree for trace export.
//!
//! One reader, [`read_ledger`] (and [`read_ledger_file`]), parses every
//! ledger, including the earliest journals: bare streams of
//! [`PairEvent`]s with neither header nor spans.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Current ledger format version, written into [`RunHeader::ledger`].
pub const LEDGER_VERSION: u64 = 2;

/// Process exit status of the deterministic fault-injection hook: a
/// sink whose [`FailAfter`] budget is exhausted terminates the process
/// with this code, so kill/resume tests can tell an injected crash from
/// an ordinary failure.
pub const FAULT_EXIT_CODE: i32 = 86;

/// Environment variable the `mcpath` CLI reads when it opens a
/// `--trace-out` ledger: when set to an integer `k`, the sink aborts the
/// process (exit [`FAULT_EXIT_CODE`]) on the `k+1`-th journal write,
/// after exactly `k` lines have become durable. This is the test tier's
/// stand-in for a SIGKILL landing at a deterministic point in the run.
/// The library never reads it: [`FileSink::create`] writes unfaulted.
pub const FAIL_AFTER_ENV: &str = "MCPATH_FAIL_AFTER_EVENTS";

/// 64-bit FNV-1a over a byte string — the repo-wide content hash for
/// ledger digests. Chosen for being dependency-free and stable across
/// platforms, not for collision resistance.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// First line of a v2+ ledger: identifies the run so `--resume` can
/// refuse to splice verdicts from a different circuit or config.
///
/// Ledgers written by the retired `shard` subcommand also carry three
/// shard-identity keys; deserializing ignores unknown keys, so those
/// headers still parse.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunHeader {
    /// Ledger format version ([`LEDGER_VERSION`] when written by this
    /// build). Doubles as the line-type discriminator: no other ledger
    /// line has a `ledger` field.
    pub ledger: u64,
    /// Circuit name, for human-readable mismatch diagnostics (the
    /// authoritative identity check is `netlist_hash`).
    pub circuit: String,
    /// FNV-1a hash of the netlist's canonical BENCH serialization.
    pub netlist_hash: u64,
    /// Fingerprint of the verdict-affecting `McConfig` fields.
    pub config_fingerprint: u64,
    /// Digest of the ordered candidate pair set the run committed to.
    pub pair_digest: u64,
    /// Number of candidate pairs in that set.
    pub pairs: u64,
}

/// One timestamped span: a node of the run's span tree, written to the
/// ledger at end of run and exported by `mcpath trace`.
///
/// Timestamps are microseconds relative to the run's trace epoch (the
/// construction of the tracer), so a ledger is self-contained without
/// any wall-clock anchoring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Hierarchical `/`-separated span path. Doubles as the line-type
    /// discriminator: no other ledger line has a `span` field.
    pub span: String,
    /// Id of the OS thread the span ran on (stable within one run).
    pub tid: u64,
    /// Begin timestamp, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Outcome of one of the four value assignments the implication step
/// tries on a pair, or of a downstream search on that assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssignmentEvent {
    /// Value assigned to the source FF at time 0.
    pub src_value: bool,
    /// Value assigned to the destination FF input at the sink time.
    pub dst_value: bool,
    /// What happened: `contradiction`, `implied_violation`, `witness`,
    /// `unsat`, or `aborted`.
    pub outcome: String,
}

fn is_false(b: &bool) -> bool {
    !*b
}

/// One journal record: how a single FF pair was resolved.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairEvent {
    /// Source FF index.
    pub src: usize,
    /// Destination FF index.
    pub dst: usize,
    /// Pipeline step that resolved the pair (`structural`, `random_sim`,
    /// `implication`, `atpg`).
    pub step: String,
    /// Final classification: `multi`, `single`, or `unknown`.
    pub class: String,
    /// Decision engine that produced the classification, if any.
    pub engine: Option<String>,
    /// Per-assignment outcomes from the implication/search step.
    pub assignments: Vec<AssignmentEvent>,
    /// Wall-clock microseconds spent on this pair.
    pub micros: u64,
    /// For pairs dropped by the random-simulation prefilter: the 0-based
    /// index of the 64-pattern word whose lane witnessed the violation —
    /// the per-pair drop cause (simulation time is spent in bulk, so
    /// `micros` stays 0 for these records). `None` for every other step.
    pub sim_word: Option<u64>,
    /// Node count of the sink-group slice this pair ran on. `None` when
    /// slicing was off or the resolving step ran no engine.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slice_nodes: Option<u64>,
    /// Variable count of that slice (free variables for implication,
    /// encoded CNF variables for SAT). `None` as for `slice_nodes`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slice_vars: Option<u64>,
    /// `true` when this verdict was restored from a prior run's ledger
    /// by `--resume` instead of being computed in this run.
    #[serde(default, skip_serializing_if = "is_false")]
    pub resumed: bool,
    /// `true` when the static dataflow pre-pass resolved this pair
    /// before the sim prefilter or any engine ran. (Named `static_pass`
    /// because `static` is a Rust keyword.)
    #[serde(default, skip_serializing_if = "is_false")]
    pub static_pass: bool,
    /// `true` when this verdict was spliced from the content-addressed
    /// artifact store (a warm rerun, or a clean ECO group) instead of
    /// being computed in this run. Unlike `resumed` replays, cached
    /// splices carry no `engine` tag: the run performed zero engine
    /// work for them.
    #[serde(default, skip_serializing_if = "is_false")]
    pub cached: bool,
    /// For `random_sim` drops: which kernel simulated the witness
    /// (`jit-avx2` or `fused`; older ledgers may also say `jit-scalar`,
    /// `tape` or `reference`). `None` for every other step — cached
    /// splices and static-resolved pairs simulate zero words, and
    /// tagging only real sim work is what lets per-kernel throughput
    /// attribution exclude them.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kernel: Option<String>,
}

/// Receiver of ledger records.
///
/// Implementations must be callable concurrently from the pair-loop
/// worker threads.
pub trait ObsSink: Send + Sync {
    /// Records one per-pair event.
    fn record(&self, event: &PairEvent);

    /// Records the run header. Called at most once, before any pair
    /// event. The default discards it (in-memory sinks that only feed
    /// `stats` aggregation don't need run identity).
    fn record_header(&self, _header: &RunHeader) {}

    /// Records one timestamped span. Called after the pair loop
    /// completes. The default discards it.
    fn record_span(&self, _span: &SpanEvent) {}

    /// Whether events will actually be kept. Hot paths check this before
    /// building [`PairEvent`]s, so a disabled sink costs one virtual
    /// call per pair and nothing per assignment.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes buffered events to durable storage, if any.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Delegation through `Arc`, so a caller can hand a sink to an
/// `ObsCtx` (which takes ownership of a boxed sink) while keeping a
/// handle to read it back afterwards — the pattern resume and ledger
/// tests rely on.
impl<S: ObsSink + ?Sized> ObsSink for std::sync::Arc<S> {
    fn record(&self, event: &PairEvent) {
        (**self).record(event);
    }

    fn record_header(&self, header: &RunHeader) {
        (**self).record_header(header);
    }

    fn record_span(&self, span: &SpanEvent) {
        (**self).record_span(span);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn flush(&self) -> io::Result<()> {
        (**self).flush()
    }
}

/// Default sink: drops everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ObsSink for NullSink {
    fn record(&self, _event: &PairEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Deterministic fault-injection budget: admits exactly `limit` journal
/// writes, then refuses every further one.
///
/// The counter is checked *before* the write, so a sink honoring the
/// budget leaves exactly `limit` durable lines behind and dies on the
/// `limit+1`-th attempt — the deterministic stand-in for a SIGKILL that
/// kill/resume tests need (a real signal lands at a scheduler-dependent
/// line). The budget itself only counts; the caller decides what
/// refusal means ([`FileSink`] exits with [`FAULT_EXIT_CODE`]).
#[derive(Debug)]
pub struct FailAfter {
    limit: u64,
    count: AtomicU64,
}

impl FailAfter {
    /// A budget admitting exactly `limit` writes.
    pub fn new(limit: u64) -> Self {
        FailAfter {
            limit,
            count: AtomicU64::new(0),
        }
    }

    /// Parses a budget from [`FAIL_AFTER_ENV`]'s text, or `None` when it
    /// is not an integer (a typo disables the hook rather than silently
    /// killing a production run at line 0).
    pub fn from_value(value: &str) -> Option<Self> {
        value.trim().parse().ok().map(Self::new)
    }

    /// Claims one write slot. Returns `true` while the budget lasts;
    /// the first `limit` calls — under any thread interleaving — get
    /// `true`, every later call gets `false`.
    pub fn admit(&self) -> bool {
        self.count.fetch_add(1, Ordering::SeqCst) < self.limit
    }

    /// Writes admitted so far (saturating at the limit).
    pub fn admitted(&self) -> u64 {
        self.count.load(Ordering::SeqCst).min(self.limit)
    }
}

/// NDJSON ledger file sink: one JSON object per line.
///
/// Every record is flushed to the OS as soon as it is written — the
/// whole point of the ledger is surviving a SIGKILL, and a `BufWriter`
/// holding completed verdicts in user space would defeat it. At worst
/// the final line is torn mid-write; [`read_ledger`] tolerates exactly
/// that.
///
/// When a [`FailAfter`] is attached via [`FileSink::with_fault`], the
/// sink becomes the fault-injection surface: once the budget is
/// exhausted it flushes what it has and terminates the process with
/// [`FAULT_EXIT_CODE`], simulating a crash at a deterministic journal
/// position.
#[derive(Debug)]
pub struct FileSink {
    out: Mutex<BufWriter<File>>,
    fault: Option<FailAfter>,
}

impl FileSink {
    /// Creates (truncates) the ledger file at `path`, with no fault
    /// budget.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::with_fault(File::create(path)?, None))
    }

    /// Wraps an already-open file, with an explicit (or no) fault
    /// budget.
    pub fn with_fault(file: File, fault: Option<FailAfter>) -> Self {
        FileSink {
            out: Mutex::new(BufWriter::new(file)),
            fault,
        }
    }

    fn write_line(&self, line: &str) {
        if let Some(fault) = &self.fault {
            if !fault.admit() {
                // Injected crash: make the admitted lines durable, then
                // die without unwinding — like the SIGKILL this models,
                // nothing downstream gets to run.
                let _ = self.flush();
                std::process::exit(FAULT_EXIT_CODE);
            }
        }
        let mut out = self.out.lock().expect("file sink poisoned");
        // An exhausted disk mid-journal should not kill the analysis;
        // the error resurfaces on the explicit end-of-run flush.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl ObsSink for FileSink {
    fn record(&self, event: &PairEvent) {
        let line = serde_json::to_string(event).expect("PairEvent serializes");
        self.write_line(&line);
    }

    fn record_header(&self, header: &RunHeader) {
        let line = serde_json::to_string(header).expect("RunHeader serializes");
        self.write_line(&line);
    }

    fn record_span(&self, span: &SpanEvent) {
        let line = serde_json::to_string(span).expect("SpanEvent serializes");
        self.write_line(&line);
    }

    fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("file sink poisoned").flush()
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// In-memory sink for tests and for `mcpath stats` post-processing.
#[derive(Debug, Default)]
pub struct MemSink {
    header: Mutex<Option<RunHeader>>,
    spans: Mutex<Vec<SpanEvent>>,
    events: Mutex<Vec<PairEvent>>,
}

impl MemSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes all recorded pair events, leaving the sink empty.
    pub fn drain(&self) -> Vec<PairEvent> {
        std::mem::take(&mut self.events.lock().expect("mem sink poisoned"))
    }

    /// Takes the recorded run header, if one was recorded.
    pub fn take_header(&self) -> Option<RunHeader> {
        self.header.lock().expect("mem sink poisoned").take()
    }

    /// Takes all recorded span events.
    pub fn drain_spans(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.spans.lock().expect("mem sink poisoned"))
    }
}

impl ObsSink for MemSink {
    fn record(&self, event: &PairEvent) {
        self.events
            .lock()
            .expect("mem sink poisoned")
            .push(event.clone());
    }

    fn record_header(&self, header: &RunHeader) {
        *self.header.lock().expect("mem sink poisoned") = Some(header.clone());
    }

    fn record_span(&self, span: &SpanEvent) {
        self.spans
            .lock()
            .expect("mem sink poisoned")
            .push(span.clone());
    }
}

/// A fully parsed ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// The run header — `None` for PR-1-era journals, which predate it.
    pub header: Option<RunHeader>,
    /// The timestamped span tree (empty for PR-1-era journals, and for
    /// runs killed before the end-of-run span dump).
    pub spans: Vec<SpanEvent>,
    /// Per-pair verdicts, in the order they were appended.
    pub events: Vec<PairEvent>,
}

/// One parsed ledger line.
enum Line {
    Header(RunHeader),
    Span(SpanEvent),
    Pair(PairEvent),
}

/// Classifies one non-blank ledger line by trying each record type in
/// discriminator order: `ledger` field → header, `span` field → span,
/// otherwise a pair event (whose parse error is the one reported, since
/// bare pair streams are the common legacy case).
fn parse_line(line: &str) -> Result<Line, serde_json::Error> {
    if let Ok(h) = serde_json::from_str::<RunHeader>(line) {
        return Ok(Line::Header(h));
    }
    if let Ok(s) = serde_json::from_str::<SpanEvent>(line) {
        return Ok(Line::Span(s));
    }
    serde_json::from_str::<PairEvent>(line).map(Line::Pair)
}

/// Parses a ledger (header, spans, pair events) from NDJSON. Blank lines
/// are ignored. A malformed *final* line is dropped: it is the torn
/// write a SIGKILL mid-`writeln!` leaves behind. A malformed line
/// anywhere else is an error, since it means a corrupt ledger. Bare
/// pair-event journals, written before ledgers had a header, also parse
/// (`header` comes back `None`).
pub fn read_ledger(reader: impl io::Read) -> io::Result<Ledger> {
    let mut ledger = Ledger::default();
    let mut lines = BufReader::new(reader).lines().enumerate().peekable();
    while let Some((lineno, line)) = lines.next() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Ok(Line::Header(h)) => ledger.header = Some(h),
            Ok(Line::Span(s)) => ledger.spans.push(s),
            Ok(Line::Pair(p)) => ledger.events.push(p),
            Err(_) if lines.peek().is_none() => break,
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal line {}: {e}", lineno + 1),
                ));
            }
        }
    }
    Ok(ledger)
}

/// Opens and parses the ledger file at `path`; see [`read_ledger`].
pub fn read_ledger_file(path: impl AsRef<Path>) -> io::Result<Ledger> {
    read_ledger(File::open(path)?)
}
