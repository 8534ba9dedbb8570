//! Structured execution tracing shared by both engines.
//!
//! The paper's claims are statements about the *fine structure* of
//! executions — per-round message dominance (Theorem 4.1), per-class chain
//! depth against the `k + 8` time bound (Theorem 5.1) — and this module is
//! how that structure leaves the engines: typed [`TraceEvent`]s emitted at
//! round/phase boundaries, sends, deliveries, wake-ups, decisions,
//! network-fault actions, and backend storage milestones.
//!
//! # Zero cost when off
//!
//! Every emission site in the engines is guarded by
//! [`Tracer::enabled`] — a load of one `bool` — and constructs nothing
//! when tracing is off. Crucially, the tracer **never draws from any RNG
//! stream and never touches the event schedule**, so an enabled trace
//! observes the *identical* execution the golden fingerprints pin (this is
//! enforced by `tests/determinism.rs`).
//!
//! # Enabling
//!
//! * **Environment:** `LE_TRACE=<spec>` (latched once per process, like
//!   every other `LE_*` knob). The spec is `all` (or `1`) or a
//!   comma-separated subset of
//!   `round,send,deliver,wake,decide,fault,backend`. Env-enabled tracers
//!   buffer serialized JSONL in memory and route the finished block
//!   through the per-thread collector ([`install_collector`] /
//!   [`take_collected`]) that `le_bench::SweepRunner` installs around each
//!   unit of work — which is what makes the merged
//!   `results/<exp>.trace.jsonl` byte-identical at any `LE_THREADS`.
//! * **Builder:** both engine builders accept an explicit boxed
//!   [`TraceSink`] (see [`SharedSink`] and [`RingSink`]) that overrides
//!   the environment; tests and the `exp_trace_audit` bin use this to
//!   inspect events in process.
//!
//! # Wire format
//!
//! One flat JSON object per line, `"ev"` first. Synchronous events carry
//! `"round"`, asynchronous events carry `"t"` (shortest-roundtrip `f64`
//! formatting, so serialization is deterministic given identical bits).
//! `le_analysis::trace` is the matching parser/validator.
//!
//! The serializer ([`TraceEvent::write_jsonl`]) is hand-written: keys and
//! string values are copied and integers are written two decimal digits
//! at a time into a stack buffer, which reaches the output in one
//! `push_str` per line. Only the async `"t"` goes through `fmt`, as
//! `{:?}`, the shortest form that parses back to the same `f64`. Strings
//! are written unescaped, so the engines' `&'static str` names must not
//! need JSON escaping.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use crate::WakeCause;

/// The event classes a trace spec can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Round boundaries and run termination ([`TraceEvent::Round`],
    /// [`TraceEvent::Halt`]).
    Round,
    /// Message sends ([`TraceEvent::Send`]).
    Send,
    /// Message deliveries ([`TraceEvent::Deliver`]).
    Deliver,
    /// Node wake-ups ([`TraceEvent::Wake`]).
    Wake,
    /// Decision transitions ([`TraceEvent::Decide`]).
    Decide,
    /// Faulty-network actions ([`TraceEvent::Fault`]).
    Fault,
    /// Backend storage milestone counters ([`TraceEvent::Backend`]).
    Backend,
    /// Communication-graph metadata ([`TraceEvent::Topology`]).
    Topology,
}

impl TraceClass {
    /// This class's bit in a [`TraceSpec`] mask.
    #[inline]
    pub fn bit(self) -> u8 {
        match self {
            TraceClass::Round => 1 << 0,
            TraceClass::Send => 1 << 1,
            TraceClass::Deliver => 1 << 2,
            TraceClass::Wake => 1 << 3,
            TraceClass::Decide => 1 << 4,
            TraceClass::Fault => 1 << 5,
            TraceClass::Backend => 1 << 6,
            TraceClass::Topology => 1 << 7,
        }
    }

    /// The spec keyword naming this class.
    pub fn keyword(self) -> &'static str {
        match self {
            TraceClass::Round => "round",
            TraceClass::Send => "send",
            TraceClass::Deliver => "deliver",
            TraceClass::Wake => "wake",
            TraceClass::Decide => "decide",
            TraceClass::Fault => "fault",
            TraceClass::Backend => "backend",
            TraceClass::Topology => "topo",
        }
    }
}

/// Mask covering every event class.
pub const ALL_CLASSES: u8 = 0xff;

/// A parsed `LE_TRACE` specification: which event classes to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Bitwise OR of [`TraceClass::bit`]s.
    pub mask: u8,
}

impl TraceSpec {
    /// Every class enabled.
    pub fn all() -> TraceSpec {
        TraceSpec { mask: ALL_CLASSES }
    }

    /// Parses a spec string: `all` / `1`, or a comma-separated list of
    /// class keywords.
    ///
    /// # Errors
    ///
    /// Returns the offending token if any token is not a known class.
    pub fn parse(spec: &str) -> Result<TraceSpec, String> {
        let spec = spec.trim();
        if spec == "all" || spec == "1" {
            return Ok(TraceSpec::all());
        }
        let mut mask = 0u8;
        for token in spec.split(',') {
            let token = token.trim();
            let class = [
                TraceClass::Round,
                TraceClass::Send,
                TraceClass::Deliver,
                TraceClass::Wake,
                TraceClass::Decide,
                TraceClass::Fault,
                TraceClass::Backend,
                TraceClass::Topology,
            ]
            .into_iter()
            .find(|c| c.keyword() == token)
            .ok_or_else(|| token.to_string())?;
            mask |= class.bit();
        }
        Ok(TraceSpec { mask })
    }
}

/// The latched `LE_TRACE` spec, read once per process.
///
/// Unset, empty, or `0` means tracing is off.
///
/// # Panics
///
/// Panics on a malformed spec — a silently ignored typo would "measure"
/// nothing and look like a clean run.
pub fn env_spec() -> Option<TraceSpec> {
    static SPEC: OnceLock<Option<TraceSpec>> = OnceLock::new();
    *SPEC.get_or_init(|| {
        let raw = std::env::var("LE_TRACE").ok()?;
        if raw.is_empty() || raw == "0" {
            return None;
        }
        match TraceSpec::parse(&raw) {
            Ok(spec) => Some(spec),
            Err(tok) => panic!(
                "LE_TRACE: unknown event class {tok:?} (expected `all` or a \
                 comma-list of round,send,deliver,wake,decide,fault,backend,topo)"
            ),
        }
    })
}

/// When in an execution an event happened: a synchronous round number or
/// an asynchronous time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum At {
    /// Synchronous round (rounds start at 1).
    Round(u32),
    /// Asynchronous time in delay units.
    Time(f64),
}

/// A faulty-network action (the PR-8 fault layer's vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A wire transmission destroyed by the loss coin.
    Loss,
    /// A payload dropped on a full bounded queue's tail.
    Queue,
    /// A transmission swallowed by a crashed receiver.
    CrashDrop,
    /// The reliability layer retransmitted a payload.
    Retransmit,
    /// The reliability layer delivered an acknowledgement.
    Ack,
    /// The reliability layer gave up on a payload (budget exhausted).
    Abandon,
    /// A node crashed.
    Crash,
    /// A crashed node recovered.
    Recover,
}

impl FaultKind {
    /// The wire-format name of this fault kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Queue => "queue",
            FaultKind::CrashDrop => "crash_drop",
            FaultKind::Retransmit => "retransmit",
            FaultKind::Ack => "ack",
            FaultKind::Abandon => "abandon",
            FaultKind::Crash => "crash",
            FaultKind::Recover => "recover",
        }
    }
}

/// Backend storage milestone counters, snapshot at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendCounters {
    /// Feistel base-permutation memo-cache hits (sparse).
    pub memo_hits: u64,
    /// Feistel base-permutation memo-cache misses (sparse).
    pub memo_misses: u64,
    /// Open-addressing table growths (rehashes) across the store's tables.
    pub table_grows: u64,
    /// Always zero: no backend materializes rows. The field keeps the
    /// `backend` trace event's schema, which the strict trace parser in
    /// `le_analysis` and the benchmark harness read.
    pub rows_materialized: u64,
}

/// One typed trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node woke up.
    Wake {
        /// When.
        at: At,
        /// Which node.
        node: u32,
        /// Adversarial or message-triggered.
        cause: WakeCause,
    },
    /// A node sent a message over a port.
    Send {
        /// When.
        at: At,
        /// Sender.
        src: u32,
        /// The sender-side port used.
        port: u32,
        /// Receiver (after lazy port resolution).
        dst: u32,
        /// Message class (asynchronous engine only).
        cls: Option<&'static str>,
    },
    /// A message was delivered.
    Deliver {
        /// When.
        at: At,
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Message class (asynchronous engine only).
        cls: Option<&'static str>,
    },
    /// A node's decision left `Undecided`.
    Decide {
        /// When.
        at: At,
        /// Which node.
        node: u32,
        /// `true` iff it elected itself leader.
        leader: bool,
    },
    /// A synchronous round ended.
    Round {
        /// The round that just ended.
        round: u32,
        /// Cumulative messages sent so far.
        msgs: u64,
    },
    /// A faulty-network action.
    Fault {
        /// When.
        at: At,
        /// What happened.
        kind: FaultKind,
        /// Source node (or the affected node for crash/recover).
        src: u32,
        /// Destination node (equals `src` for crash/recover).
        dst: u32,
    },
    /// End-of-run backend storage counters.
    Backend {
        /// Backend name (`dense` / `sparse`).
        backend: &'static str,
        /// The counter snapshot.
        counters: BackendCounters,
    },
    /// The run ended.
    Halt {
        /// When.
        at: At,
        /// Total messages sent.
        msgs: u64,
        /// Engine-specific halt reason.
        reason: &'static str,
    },
    /// The communication graph the run executed on, emitted once per run.
    Topology {
        /// Generator name (`clique`, `ring`, `torus`, `regular`, `edges`).
        generator: &'static str,
        /// Number of nodes.
        n: u32,
        /// Number of undirected edges.
        m: u64,
        /// Maximum degree over all nodes.
        maxdeg: u32,
    },
}

impl TraceEvent {
    /// The class this event belongs to (for spec filtering).
    pub fn class(&self) -> TraceClass {
        match self {
            TraceEvent::Wake { .. } => TraceClass::Wake,
            TraceEvent::Send { .. } => TraceClass::Send,
            TraceEvent::Deliver { .. } => TraceClass::Deliver,
            TraceEvent::Decide { .. } => TraceClass::Decide,
            TraceEvent::Round { .. } | TraceEvent::Halt { .. } => TraceClass::Round,
            TraceEvent::Fault { .. } => TraceClass::Fault,
            TraceEvent::Backend { .. } => TraceClass::Backend,
            TraceEvent::Topology { .. } => TraceClass::Topology,
        }
    }

    /// Appends this event as one JSONL line (including the trailing
    /// newline) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        let mut line = Line::new(out);
        match *self {
            TraceEvent::Wake { at, node, cause } => {
                line.str("{\"ev\":\"wake\",");
                line.at(at);
                line.num(",\"node\":", node);
                line.str(match cause {
                    WakeCause::Adversary => ",\"cause\":\"adv\"",
                    WakeCause::Message => ",\"cause\":\"msg\"",
                });
            }
            TraceEvent::Send {
                at,
                src,
                port,
                dst,
                cls,
            } => {
                line.str("{\"ev\":\"send\",");
                line.at(at);
                line.num(",\"src\":", src);
                line.num(",\"port\":", port);
                line.num(",\"dst\":", dst);
                if let Some(cls) = cls {
                    line.quoted(",\"cls\":", cls);
                }
            }
            TraceEvent::Deliver { at, src, dst, cls } => {
                line.str("{\"ev\":\"deliver\",");
                line.at(at);
                line.num(",\"src\":", src);
                line.num(",\"dst\":", dst);
                if let Some(cls) = cls {
                    line.quoted(",\"cls\":", cls);
                }
            }
            TraceEvent::Decide { at, node, leader } => {
                line.str("{\"ev\":\"decide\",");
                line.at(at);
                line.num(",\"node\":", node);
                line.str(if leader {
                    ",\"d\":\"leader\""
                } else {
                    ",\"d\":\"nonleader\""
                });
            }
            TraceEvent::Round { round, msgs } => {
                line.num("{\"ev\":\"round\",\"round\":", round);
                line.num(",\"msgs\":", msgs);
            }
            TraceEvent::Fault { at, kind, src, dst } => {
                line.str("{\"ev\":\"fault\",");
                line.at(at);
                line.quoted(",\"kind\":", kind.name());
                line.num(",\"src\":", src);
                line.num(",\"dst\":", dst);
            }
            TraceEvent::Backend { backend, counters } => {
                line.quoted("{\"ev\":\"backend\",\"backend\":", backend);
                line.num(",\"memo_hits\":", counters.memo_hits);
                line.num(",\"memo_misses\":", counters.memo_misses);
                line.num(",\"table_grows\":", counters.table_grows);
                line.num(",\"rows_materialized\":", counters.rows_materialized);
            }
            TraceEvent::Halt { at, msgs, reason } => {
                line.str("{\"ev\":\"halt\",");
                line.at(at);
                line.num(",\"msgs\":", msgs);
                line.quoted(",\"reason\":", reason);
            }
            TraceEvent::Topology {
                generator,
                n,
                m,
                maxdeg,
            } => {
                line.quoted("{\"ev\":\"topo\",\"gen\":", generator);
                line.num(",\"n\":", n);
                line.num(",\"m\":", m);
                line.num(",\"maxdeg\":", maxdeg);
            }
        }
        line.str("}\n");
        line.flush();
    }

    /// This event as one JSONL line (including the trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s
    }
}

/// Bytes [`Line`] stages before appending to its `out`: room for any
/// line with the engines' strings at the widest integers (the longest, a
/// `sparse` backend line with four 20-digit counters, is 180 bytes).
const LINE_CAP: usize = 192;

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table read.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// One JSONL line under construction. Keys, `&'static str` values and
/// decimal digits are staged in a stack buffer and reach `out` in one
/// `push_str` per line; a string too long for the room left goes to
/// `out` directly, and so does the `{:?}` form of an async time.
///
/// The appending methods are `#[inline(always)]` so that each constant
/// key becomes a fixed-size copy inside `write_jsonl`; left to the
/// inliner, a sync send line took 60 ns instead of 37 (x86-64, release).
struct Line<'a> {
    out: &'a mut String,
    buf: [u8; LINE_CAP],
    len: usize,
}

impl<'a> Line<'a> {
    fn new(out: &'a mut String) -> Self {
        Line {
            out,
            buf: [0; LINE_CAP],
            len: 0,
        }
    }

    /// Appends the staged bytes to `out`.
    fn flush(&mut self) {
        let staged = std::str::from_utf8(&self.buf[..self.len])
            .expect("only whole strs and ASCII digits are staged");
        self.out.push_str(staged);
        self.len = 0;
    }

    /// Appends `s`, staged if it fits in the room left (after a flush if
    /// need be), otherwise straight to `out`.
    #[inline(always)]
    fn str(&mut self, s: &str) {
        if s.len() > LINE_CAP - self.len {
            self.flush();
            if s.len() > LINE_CAP {
                self.out.push_str(s);
                return;
            }
        }
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }

    /// Appends `v` in decimal, two digits at a time from the right.
    #[inline(always)]
    fn int(&mut self, v: impl Into<u64>) {
        let mut v: u64 = v.into();
        let width = v.checked_ilog10().map_or(1, |log| log as usize + 1);
        if width > LINE_CAP - self.len {
            self.flush();
        }
        self.len += width;
        let mut end = self.len;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            self.buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            end -= 2;
        }
        if v >= 10 {
            let pair = v as usize * 2;
            self.buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            self.buf[end - 1] = b'0' + v as u8;
        }
    }

    #[inline(always)]
    fn num(&mut self, key: &str, v: impl Into<u64>) {
        self.str(key);
        self.int(v);
    }

    #[inline(always)]
    fn quoted(&mut self, key: &str, s: &str) {
        self.str(key);
        self.str("\"");
        self.str(s);
        self.str("\"");
    }

    /// The stamp: `"round":N`, or `"t":` and the shortest-roundtrip
    /// `{:?}` form of the time, the one field written through `fmt`.
    #[inline(always)]
    fn at(&mut self, at: At) {
        match at {
            At::Round(r) => self.num("\"round\":", r),
            At::Time(t) => {
                use std::fmt::Write;
                self.str("\"t\":");
                self.flush();
                write!(self.out, "{t:?}").expect("writing to a String cannot fail");
            }
        }
    }
}

/// A consumer of trace events.
///
/// Sinks must be `Send`: the sweep runner executes simulations on worker
/// threads.
pub trait TraceSink: Send {
    /// Called once per recorded event, in execution order.
    fn event(&mut self, ev: &TraceEvent);
    /// Called when the producing engine finishes its run.
    fn flush(&mut self) {}
}

/// A bounded in-memory recording sink: keeps the most recent `cap`
/// events, counting (not silently swallowing) the overflow.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// A ring that retains at most `cap` events (`cap ≥ 1`).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// How many events were evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning the retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into()
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev.clone());
    }
}

/// A cloneable shared recording sink.
///
/// Hand one clone to an engine builder and keep the other: after the run
/// (which consumes the simulation), [`SharedSink::take`] returns every
/// recorded event. This is how `exp_trace_audit` inspects executions
/// in-process.
#[derive(Debug, Clone, Default)]
pub struct SharedSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SharedSink {
    /// An empty shared sink.
    pub fn new() -> SharedSink {
        SharedSink::default()
    }

    /// Takes every event recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink poisoned"))
    }
}

impl TraceSink for SharedSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.lock().expect("sink poisoned").push(ev.clone());
    }
}

/// A sink that serializes events as JSONL into any writer.
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: W,
    line: String,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wraps `writer`; consider a `BufWriter` for files.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            line: String::new(),
        }
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        self.line.clear();
        ev.write_jsonl(&mut self.line);
        self.writer
            .write_all(self.line.as_bytes())
            .expect("trace write failed");
    }

    fn flush(&mut self) {
        self.writer.flush().expect("trace flush failed");
    }
}

enum Sink {
    Off,
    /// Env-enabled: buffer JSONL, route through the collector at finish.
    Buffer(String),
    /// Builder-supplied sink.
    Boxed(Box<dyn TraceSink>),
}

/// The engine-side tracer: a spec mask plus a destination.
///
/// The disabled path is a single `bool` load ([`Tracer::enabled`]); every
/// engine emission site is guarded by it.
pub struct Tracer {
    active: bool,
    mask: u8,
    sink: Sink,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("active", &self.active)
            .field("mask", &self.mask)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn off() -> Tracer {
        Tracer {
            active: false,
            mask: 0,
            sink: Sink::Off,
        }
    }

    /// A tracer honoring the latched `LE_TRACE` spec (disabled when the
    /// variable is unset). Env tracers buffer JSONL and submit the block
    /// through the per-thread collector at [`Tracer::finish`].
    pub fn from_env() -> Tracer {
        match env_spec() {
            Some(spec) => Tracer {
                active: true,
                mask: spec.mask,
                sink: Sink::Buffer(String::new()),
            },
            None => Tracer::off(),
        }
    }

    /// A tracer feeding an explicit sink, recording the classes in
    /// `mask` (see [`TraceClass::bit`]; [`ALL_CLASSES`] for everything).
    pub fn with_sink(sink: Box<dyn TraceSink>, mask: u8) -> Tracer {
        Tracer {
            active: mask != 0,
            mask,
            sink: Sink::Boxed(sink),
        }
    }

    /// Whether any class is being recorded — the one branch the hot path
    /// pays when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.active
    }

    /// Whether events of `class` are being recorded.
    #[inline]
    pub fn on(&self, class: TraceClass) -> bool {
        self.active && (self.mask & class.bit()) != 0
    }

    /// Records one event (dropped unless its class is enabled).
    pub fn emit(&mut self, ev: TraceEvent) {
        if !self.on(ev.class()) {
            return;
        }
        match &mut self.sink {
            Sink::Off => {}
            Sink::Buffer(buf) => ev.write_jsonl(buf),
            Sink::Boxed(sink) => sink.event(&ev),
        }
    }

    /// Finishes the trace: flushes a boxed sink, or submits a buffered
    /// env-trace block to the per-thread collector. The tracer is
    /// disabled afterwards.
    pub fn finish(&mut self) {
        match std::mem::replace(&mut self.sink, Sink::Off) {
            Sink::Off => {}
            Sink::Buffer(buf) => {
                if !buf.is_empty() {
                    submit_block(buf);
                }
            }
            Sink::Boxed(mut sink) => sink.flush(),
        }
        self.active = false;
        self.mask = 0;
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// How many unrouted trace blocks [`submit_block`] retains before
/// discarding the oldest.
const SPILL_CAP: usize = 1024;

fn spill() -> &'static Mutex<VecDeque<String>> {
    static SPILL: OnceLock<Mutex<VecDeque<String>>> = OnceLock::new();
    SPILL.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Installs (or resets) this thread's trace collector. Blocks submitted
/// by env-enabled tracers on this thread accumulate until
/// [`take_collected`].
pub fn install_collector() {
    COLLECTOR.with(|c| *c.borrow_mut() = Some(String::new()));
}

/// Takes everything collected on this thread since [`install_collector`],
/// leaving the collector installed and empty. `None` if no collector is
/// installed.
pub fn take_collected() -> Option<String> {
    COLLECTOR.with(|c| c.borrow_mut().as_mut().map(std::mem::take))
}

/// Removes this thread's collector, returning anything still buffered.
pub fn uninstall_collector() -> Option<String> {
    COLLECTOR
        .with(|c| c.borrow_mut().take())
        .filter(|s| !s.is_empty())
}

/// Routes a finished JSONL block: appended to this thread's collector if
/// one is installed, otherwise parked in a bounded global spill
/// retrievable with [`drain_spill`] (standalone runs outside a sweep).
pub fn submit_block(block: String) {
    let unrouted = COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        // Most units finish one block: move it in rather than copy it.
        Some(buf) if buf.is_empty() => {
            *buf = block;
            None
        }
        Some(buf) => {
            buf.push_str(&block);
            None
        }
        None => Some(block),
    });
    if let Some(block) = unrouted {
        let mut spill = spill().lock().expect("trace spill poisoned");
        if spill.len() == SPILL_CAP {
            spill.pop_front();
        }
        spill.push_back(block);
    }
}

/// Drains the global spill of blocks that were submitted with no
/// collector installed, oldest first.
pub fn drain_spill() -> Vec<String> {
    spill()
        .lock()
        .expect("trace spill poisoned")
        .drain(..)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `write!`-based serializer `write_jsonl` replaced, kept as the
    /// oracle its output must equal byte for byte.
    fn write_jsonl_fmt(ev: &TraceEvent, out: &mut String) {
        use std::fmt::Write;
        let at = |out: &mut String, at: &At| match at {
            At::Round(r) => write!(out, "\"round\":{r}").expect("infallible"),
            At::Time(t) => write!(out, "\"t\":{t:?}").expect("infallible"),
        };
        out.push('{');
        match ev {
            TraceEvent::Wake { at: a, node, cause } => {
                out.push_str("\"ev\":\"wake\",");
                at(out, a);
                let cause = match cause {
                    WakeCause::Adversary => "adv",
                    WakeCause::Message => "msg",
                };
                write!(out, ",\"node\":{node},\"cause\":\"{cause}\"").expect("infallible");
            }
            TraceEvent::Send {
                at: a,
                src,
                port,
                dst,
                cls,
            } => {
                out.push_str("\"ev\":\"send\",");
                at(out, a);
                write!(out, ",\"src\":{src},\"port\":{port},\"dst\":{dst}").expect("infallible");
                if let Some(cls) = cls {
                    write!(out, ",\"cls\":\"{cls}\"").expect("infallible");
                }
            }
            TraceEvent::Deliver {
                at: a,
                src,
                dst,
                cls,
            } => {
                out.push_str("\"ev\":\"deliver\",");
                at(out, a);
                write!(out, ",\"src\":{src},\"dst\":{dst}").expect("infallible");
                if let Some(cls) = cls {
                    write!(out, ",\"cls\":\"{cls}\"").expect("infallible");
                }
            }
            TraceEvent::Decide {
                at: a,
                node,
                leader,
            } => {
                out.push_str("\"ev\":\"decide\",");
                at(out, a);
                let d = if *leader { "leader" } else { "nonleader" };
                write!(out, ",\"node\":{node},\"d\":\"{d}\"").expect("infallible");
            }
            TraceEvent::Round { round, msgs } => {
                write!(out, "\"ev\":\"round\",\"round\":{round},\"msgs\":{msgs}")
                    .expect("infallible");
            }
            TraceEvent::Fault {
                at: a,
                kind,
                src,
                dst,
            } => {
                out.push_str("\"ev\":\"fault\",");
                at(out, a);
                write!(
                    out,
                    ",\"kind\":\"{}\",\"src\":{src},\"dst\":{dst}",
                    kind.name()
                )
                .expect("infallible");
            }
            TraceEvent::Backend { backend, counters } => {
                write!(
                    out,
                    "\"ev\":\"backend\",\"backend\":\"{backend}\",\
                     \"memo_hits\":{},\"memo_misses\":{},\"table_grows\":{},\
                     \"rows_materialized\":{}",
                    counters.memo_hits,
                    counters.memo_misses,
                    counters.table_grows,
                    counters.rows_materialized,
                )
                .expect("infallible");
            }
            TraceEvent::Halt {
                at: a,
                msgs,
                reason,
            } => {
                out.push_str("\"ev\":\"halt\",");
                at(out, a);
                write!(out, ",\"msgs\":{msgs},\"reason\":\"{reason}\"").expect("infallible");
            }
            TraceEvent::Topology {
                generator,
                n,
                m,
                maxdeg,
            } => {
                write!(
                    out,
                    "\"ev\":\"topo\",\"gen\":\"{generator}\",\"n\":{n},\"m\":{m},\
                     \"maxdeg\":{maxdeg}",
                )
                .expect("infallible");
            }
        }
        out.push_str("}\n");
    }

    /// Integers at every decimal width boundary.
    fn int_edges() -> Vec<u64> {
        let mut edges = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        edges
    }

    /// Times at the edges of `{:?}`'s shortest-roundtrip `f64` forms.
    const TIME_EDGES: [f64; 6] = [0.0, 0.1 + 0.2, 1e-7, 5e-324, 1e16, f64::MAX];

    /// Strings around the staging buffer's capacity, a multi-byte one,
    /// and one over 1 KiB.
    fn str_edges() -> &'static [&'static str] {
        static EDGES: OnceLock<Vec<&'static str>> = OnceLock::new();
        EDGES.get_or_init(|| {
            let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
            vec![
                "",
                "probe",
                "ünïcödé",
                leak("a".repeat(LINE_CAP - 40)),
                leak("b".repeat(LINE_CAP)),
                leak("c".repeat(LINE_CAP + 1)),
                leak("long-class-name/".repeat(80)),
            ]
        })
    }

    const FAULT_KINDS: [FaultKind; 8] = [
        FaultKind::Loss,
        FaultKind::Queue,
        FaultKind::CrashDrop,
        FaultKind::Retransmit,
        FaultKind::Ack,
        FaultKind::Abandon,
        FaultKind::Crash,
        FaultKind::Recover,
    ];

    /// Every variant (both wake causes, both decisions, every fault kind,
    /// `cls` both set and unset) stamped `at`, with its `u32` fields from
    /// `small`, its `u64` fields from `wide` and its strings `s`.
    fn every_variant(at: At, small: [u32; 4], wide: [u64; 4], s: &'static str) -> Vec<TraceEvent> {
        let [a, b, c, d] = small;
        let mut evs = vec![
            TraceEvent::Wake {
                at,
                node: a,
                cause: WakeCause::Adversary,
            },
            TraceEvent::Wake {
                at,
                node: b,
                cause: WakeCause::Message,
            },
            TraceEvent::Decide {
                at,
                node: c,
                leader: true,
            },
            TraceEvent::Decide {
                at,
                node: d,
                leader: false,
            },
            TraceEvent::Round {
                round: a,
                msgs: wide[0],
            },
            TraceEvent::Backend {
                backend: s,
                counters: BackendCounters {
                    memo_hits: wide[0],
                    memo_misses: wide[1],
                    table_grows: wide[2],
                    rows_materialized: wide[3],
                },
            },
            TraceEvent::Halt {
                at,
                msgs: wide[1],
                reason: s,
            },
            TraceEvent::Topology {
                generator: s,
                n: b,
                m: wide[2],
                maxdeg: c,
            },
        ];
        for cls in [None, Some(s)] {
            evs.push(TraceEvent::Send {
                at,
                src: a,
                port: b,
                dst: c,
                cls,
            });
            evs.push(TraceEvent::Deliver {
                at,
                src: d,
                dst: a,
                cls,
            });
        }
        for kind in FAULT_KINDS {
            evs.push(TraceEvent::Fault {
                at,
                kind,
                src: b,
                dst: d,
            });
        }
        evs
    }

    /// Appends every event to one buffer with each serializer and
    /// compares the two, so appending to a non-empty `out` is covered.
    fn assert_matches_oracle(evs: &[TraceEvent]) {
        let (mut ours, mut oracle) = (String::new(), String::new());
        for ev in evs {
            ev.write_jsonl(&mut ours);
            write_jsonl_fmt(ev, &mut oracle);
        }
        if ours != oracle {
            let bad = ours.lines().zip(oracle.lines()).find(|(a, b)| a != b);
            panic!("serializer diverged from the oracle: {bad:?}");
        }
    }

    #[test]
    fn serializer_matches_the_fmt_oracle_at_the_edges() {
        let wide = int_edges();
        let small: Vec<u32> = wide.iter().filter_map(|&v| u32::try_from(v).ok()).collect();
        let pick = |k: usize| {
            (
                std::array::from_fn(|j| small[(k + j) % small.len()]),
                std::array::from_fn(|j| wide[(k + j) % wide.len()]),
            )
        };
        let stamps = small
            .iter()
            .map(|&r| At::Round(r))
            .chain(TIME_EDGES.map(At::Time));
        for at in stamps {
            for k in 0..wide.len() {
                let (small, wide) = pick(k);
                for &s in str_edges() {
                    assert_matches_oracle(&every_variant(at, small, wide, s));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn serializer_matches_the_fmt_oracle_on_random_fields(
            words in proptest::collection::vec(0u64..u64::MAX, 8..9),
            shifts in proptest::collection::vec(0u32..64, 8..9),
            t_bits in 0u64..0x7FF0_0000_0000_0000,
            pick in 0usize..64,
        ) {
            // Shifting spreads the draws over every decimal width.
            let w: Vec<u64> = words.iter().zip(&shifts).map(|(w, s)| w >> s).collect();
            let small = std::array::from_fn(|j| (w[j] >> 32) as u32);
            let wide = std::array::from_fn(|j| w[4 + j]);
            let at = if pick % 2 == 0 {
                At::Round(small[0])
            } else {
                At::Time(f64::from_bits(t_bits))
            };
            let strs = str_edges();
            assert_matches_oracle(&every_variant(at, small, wide, strs[pick / 2 % strs.len()]));
        }
    }

    #[test]
    fn spec_parses_all_and_lists() {
        assert_eq!(TraceSpec::parse("all").unwrap().mask, ALL_CLASSES);
        assert_eq!(TraceSpec::parse("1").unwrap().mask, ALL_CLASSES);
        let s = TraceSpec::parse("send, deliver").unwrap();
        assert_eq!(s.mask, TraceClass::Send.bit() | TraceClass::Deliver.bit());
        assert_eq!(TraceSpec::parse("sending").unwrap_err(), "sending");
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let ev = TraceEvent::Send {
            at: At::Time(0.5),
            src: 1,
            port: 2,
            dst: 3,
            cls: Some("probe"),
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"ev\":\"send\",\"t\":0.5,\"src\":1,\"port\":2,\"dst\":3,\"cls\":\"probe\"}\n"
        );
        let ev = TraceEvent::Round { round: 3, msgs: 42 };
        assert_eq!(
            ev.to_jsonl(),
            "{\"ev\":\"round\",\"round\":3,\"msgs\":42}\n"
        );
    }

    #[test]
    fn ring_sink_keeps_the_most_recent_events() {
        let mut ring = RingSink::new(2);
        for round in 1..=4 {
            ring.event(&TraceEvent::Round { round, msgs: 0 });
        }
        assert_eq!(ring.dropped(), 2);
        let evs = ring.into_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], TraceEvent::Round { round: 3, msgs: 0 });
    }

    #[test]
    fn tracer_filters_by_class() {
        let shared = SharedSink::new();
        let mut tracer = Tracer::with_sink(Box::new(shared.clone()), TraceClass::Round.bit());
        tracer.emit(TraceEvent::Round { round: 1, msgs: 0 });
        tracer.emit(TraceEvent::Wake {
            at: At::Round(1),
            node: 0,
            cause: WakeCause::Adversary,
        });
        tracer.finish();
        let evs = shared.take();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], TraceEvent::Round { .. }));
    }

    #[test]
    fn collector_routes_blocks_in_submission_order() {
        install_collector();
        submit_block("a\n".into());
        submit_block("b\n".into());
        assert_eq!(take_collected().as_deref(), Some("a\nb\n"));
        assert_eq!(take_collected().as_deref(), Some(""));
        assert!(uninstall_collector().is_none());
        // With no collector, blocks park in the spill.
        submit_block("c\n".into());
        assert_eq!(drain_spill(), vec!["c\n".to_string()]);
    }

    #[test]
    fn the_first_block_is_moved_into_an_empty_collector() {
        install_collector();
        // Room for both blocks, so the second append does not reallocate.
        let mut block = String::with_capacity(16);
        block.push_str("a\n");
        let heap = block.as_ptr();
        submit_block(block);
        submit_block("b\n".into());
        let collected = uninstall_collector().expect("two blocks were collected");
        assert_eq!(collected, "a\nb\n");
        assert_eq!(collected.as_ptr(), heap, "the first block was copied");
    }

    #[test]
    fn shared_sink_round_trips_through_a_tracer() {
        let shared = SharedSink::new();
        let mut tracer = Tracer::with_sink(Box::new(shared.clone()), ALL_CLASSES);
        assert!(tracer.enabled());
        let ev = TraceEvent::Halt {
            at: At::Time(2.0),
            msgs: 7,
            reason: "drained",
        };
        tracer.emit(ev.clone());
        tracer.finish();
        assert!(!tracer.enabled());
        assert_eq!(shared.take(), vec![ev]);
    }
}
