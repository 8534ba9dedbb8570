//! Parser, validator, and analyses for execution traces.
//!
//! `clique_model::trace` is the *writer* side: both engines emit typed
//! events as flat JSONL (one object per line, `"ev"` first). This module
//! is the matching *reader*: it parses that wire format back into owned
//! [`Event`]s, rejects anything that deviates from the schema (unknown
//! events, missing or extra fields, malformed values), and derives the
//! quantities the paper's claims are stated in:
//!
//! * [`rollup`] — per-class and per-round event counts, fault and halt
//!   tallies: the coarse shape of an execution.
//! * [`critical_path`] — the message-causality depth of the execution:
//!   sends are matched to deliveries FIFO per `(src, dst)` link, and each
//!   delivery extends the receiver's causal chain by one. Under unit
//!   delays the deepest chain is a lower-bound witness for elapsed time,
//!   so its depth must fit under the same `k + 8` envelope Theorem 5.1
//!   puts on the clock (`exp_trace_audit` asserts exactly this).
//!
//! The parser is deliberately strict — a trace that parses here is a
//! trace the toolkit fully understands. `exp_trace_audit --check` runs
//! this validator over merged `results/*.trace.jsonl` files in CI.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// When an event happened: a synchronous round or an asynchronous time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum At {
    /// Synchronous round (rounds start at 1).
    Round(u32),
    /// Asynchronous time in delay units.
    Time(f64),
}

impl At {
    /// The asynchronous time, if this is a time-stamped event.
    pub fn time(self) -> Option<f64> {
        match self {
            At::Time(t) => Some(t),
            At::Round(_) => None,
        }
    }

    /// The synchronous round, if this is a round-stamped event.
    pub fn round(self) -> Option<u32> {
        match self {
            At::Round(r) => Some(r),
            At::Time(_) => None,
        }
    }
}

/// One parsed trace event — the owned mirror of
/// `clique_model::trace::TraceEvent`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A node woke up (`cause` is `adv` or `msg`).
    Wake {
        /// When.
        at: At,
        /// Which node.
        node: u32,
        /// `adv` (adversarial schedule) or `msg` (incoming message).
        cause: String,
    },
    /// A node sent a message over a port.
    Send {
        /// When.
        at: At,
        /// Sender.
        src: u32,
        /// Sender-side port.
        port: u32,
        /// Receiver.
        dst: u32,
        /// Message class (asynchronous traces only).
        cls: Option<String>,
    },
    /// A message was delivered.
    Deliver {
        /// When.
        at: At,
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Message class (asynchronous traces only).
        cls: Option<String>,
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
    /// A synchronous round boundary.
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
        /// Fault kind name (`loss`, `queue`, `crash_drop`, ...).
        kind: String,
        /// Source node (the affected node for crash/recover).
        src: u32,
        /// Destination node (equals `src` for crash/recover).
        dst: u32,
    },
    /// End-of-run communication-graph metadata.
    Topology {
        /// Generator tag (`clique` / `ring` / `torus` / `regular` /
        /// `edges`).
        generator: String,
        /// Node count.
        n: u32,
        /// Undirected edge count.
        m: u64,
        /// Maximum degree over all nodes.
        maxdeg: u32,
    },
    /// End-of-run backend storage counters.
    Backend {
        /// Backend name (`dense` / `sparse`).
        backend: String,
        /// Feistel memo-cache hits.
        memo_hits: u64,
        /// Feistel memo-cache misses.
        memo_misses: u64,
        /// Open-addressing table growths.
        table_grows: u64,
        /// Materialized rows; always zero since no backend materializes
        /// rows, kept so the event schema is unchanged.
        rows_materialized: u64,
    },
    /// The run ended.
    Halt {
        /// When.
        at: At,
        /// Total messages sent.
        msgs: u64,
        /// Engine-specific halt reason.
        reason: String,
    },
}

impl Event {
    /// When the event happened, if it is stamped at all (`Round`,
    /// `Topology`, and `Backend` events are not).
    pub fn at(&self) -> Option<At> {
        match self {
            Event::Wake { at, .. }
            | Event::Send { at, .. }
            | Event::Deliver { at, .. }
            | Event::Decide { at, .. }
            | Event::Fault { at, .. }
            | Event::Halt { at, .. } => Some(*at),
            Event::Round { .. } | Event::Topology { .. } | Event::Backend { .. } => None,
        }
    }
}

/// A schema violation at a specific line of a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A raw JSON scalar as it appears on the wire.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    /// A quoted string, unescaped.
    Str(String),
    /// An unquoted token (number / `true` / `false`), kept raw so integer
    /// and float fields can each parse it exactly.
    Raw(String),
}

/// Scans one flat JSON object (`{"k":v,...}`) into its key/value pairs in
/// wire order. Accepts only the subset the writer produces: string and
/// number values, no nesting, no whitespace padding required.
fn scan_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut pairs: Vec<(String, Scalar)> = Vec::new();

    let bytes = line.as_bytes();
    if bytes.first() != Some(&b'{') {
        return Err("expected `{` at start of object".to_string());
    }
    chars.next();

    // Empty object.
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
    } else {
        loop {
            // Key.
            match chars.next() {
                Some((start, '"')) => {
                    let key = scan_string(line, start, &mut chars)?;
                    match chars.next() {
                        Some((_, ':')) => {}
                        _ => return Err(format!("expected `:` after key {key:?}")),
                    }
                    // Value.
                    let value = match chars.peek() {
                        Some(&(vstart, '"')) => {
                            chars.next();
                            Scalar::Str(scan_string(line, vstart, &mut chars)?)
                        }
                        Some(&(vstart, _)) => {
                            let mut end = line.len();
                            while let Some(&(i, c)) = chars.peek() {
                                if c == ',' || c == '}' {
                                    end = i;
                                    break;
                                }
                                chars.next();
                            }
                            let raw = line[vstart..end].trim();
                            if raw.is_empty() {
                                return Err(format!("empty value for key {key:?}"));
                            }
                            Scalar::Raw(raw.to_string())
                        }
                        None => return Err(format!("missing value for key {key:?}")),
                    };
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    pairs.push((key, value));
                }
                _ => return Err("expected `\"` to open a key".to_string()),
            }
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                _ => return Err("expected `,` or `}` after value".to_string()),
            }
        }
    }
    if chars.next().is_some() {
        return Err("trailing characters after `}`".to_string());
    }
    Ok(pairs)
}

/// Scans a quoted string whose opening `"` was already consumed at byte
/// offset `start`, leaving the iterator past the closing `"`.
fn scan_string(
    line: &str,
    start: usize,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, c)) => return Err(format!("unsupported escape `\\{c}`")),
                None => return Err("unterminated escape".to_string()),
            },
            Some((_, c)) => out.push(c),
            None => {
                return Err(format!(
                    "unterminated string starting at byte {start} of {line:?}"
                ))
            }
        }
    }
}

/// Typed field extraction over the scanned pairs, consuming as it goes so
/// leftovers can be rejected as schema violations.
struct Fields {
    pairs: Vec<(String, Scalar)>,
}

impl Fields {
    fn take(&mut self, key: &str) -> Option<Scalar> {
        let idx = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(idx).1)
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        match self.take(key) {
            Some(Scalar::Str(s)) => Ok(s),
            Some(Scalar::Raw(r)) => Err(format!("field {key:?}: expected a string, got `{r}`")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            Some(Scalar::Str(s)) => Ok(Some(s)),
            Some(Scalar::Raw(r)) => Err(format!("field {key:?}: expected a string, got `{r}`")),
            None => Ok(None),
        }
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        match self.take(key) {
            Some(Scalar::Raw(r)) => r
                .parse()
                .map_err(|_| format!("field {key:?}: expected an unsigned integer, got `{r}`")),
            Some(Scalar::Str(s)) => Err(format!("field {key:?}: expected a number, got {s:?}")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn u32(&mut self, key: &str) -> Result<u32, String> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| format!("field {key:?}: {v} out of u32 range"))
    }

    /// The `at` stamp: exactly one of `round` (u32) or `t` (finite f64).
    fn at(&mut self) -> Result<At, String> {
        let round = self.take("round");
        let t = self.take("t");
        match (round, t) {
            (Some(Scalar::Raw(r)), None) => {
                let r: u32 = r
                    .parse()
                    .map_err(|_| format!("field \"round\": expected an integer, got `{r}`"))?;
                Ok(At::Round(r))
            }
            (None, Some(Scalar::Raw(raw))) => {
                let t: f64 = raw
                    .parse()
                    .map_err(|_| format!("field \"t\": expected a number, got `{raw}`"))?;
                if !t.is_finite() {
                    return Err(format!("field \"t\": non-finite time `{raw}`"));
                }
                Ok(At::Time(t))
            }
            (Some(_), Some(_)) => Err("both \"round\" and \"t\" present".to_string()),
            (None, None) => Err("missing \"round\" or \"t\" stamp".to_string()),
            _ => Err("stamp field must be a number".to_string()),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(format!("unknown field {k:?}")),
        }
    }
}

/// Parses one JSONL trace line into an [`Event`].
///
/// # Errors
///
/// Returns a description of the first schema violation: malformed JSON,
/// unknown `ev`, a missing/extra/mistyped field, or an out-of-range value.
pub fn parse_line(line: &str) -> Result<Event, String> {
    let pairs = scan_object(line.trim_end_matches(['\r', '\n']))?;
    match pairs.first() {
        Some((k, _)) if k == "ev" => {}
        _ => return Err("first field must be \"ev\"".to_string()),
    }
    let mut f = Fields { pairs };
    let ev = f.str("ev")?;
    let event = match ev.as_str() {
        "wake" => {
            let at = f.at()?;
            let node = f.u32("node")?;
            let cause = f.str("cause")?;
            if cause != "adv" && cause != "msg" {
                return Err(format!("field \"cause\": unknown cause {cause:?}"));
            }
            Event::Wake { at, node, cause }
        }
        "send" => Event::Send {
            at: f.at()?,
            src: f.u32("src")?,
            port: f.u32("port")?,
            dst: f.u32("dst")?,
            cls: f.opt_str("cls")?,
        },
        "deliver" => Event::Deliver {
            at: f.at()?,
            src: f.u32("src")?,
            dst: f.u32("dst")?,
            cls: f.opt_str("cls")?,
        },
        "decide" => {
            let at = f.at()?;
            let node = f.u32("node")?;
            let d = f.str("d")?;
            let leader = match d.as_str() {
                "leader" => true,
                "nonleader" => false,
                other => return Err(format!("field \"d\": unknown decision {other:?}")),
            };
            Event::Decide { at, node, leader }
        }
        "round" => Event::Round {
            round: f.u32("round")?,
            msgs: f.u64("msgs")?,
        },
        "fault" => {
            let at = f.at()?;
            let kind = f.str("kind")?;
            const KINDS: [&str; 8] = [
                "loss",
                "queue",
                "crash_drop",
                "retransmit",
                "ack",
                "abandon",
                "crash",
                "recover",
            ];
            if !KINDS.contains(&kind.as_str()) {
                return Err(format!("field \"kind\": unknown fault kind {kind:?}"));
            }
            Event::Fault {
                at,
                kind,
                src: f.u32("src")?,
                dst: f.u32("dst")?,
            }
        }
        "topo" => {
            let generator = f.str("gen")?;
            const GENERATORS: [&str; 5] = ["clique", "ring", "torus", "regular", "edges"];
            if !GENERATORS.contains(&generator.as_str()) {
                return Err(format!("field \"gen\": unknown generator {generator:?}"));
            }
            let n = f.u32("n")?;
            let m = f.u64("m")?;
            let maxdeg = f.u32("maxdeg")?;
            // Graph-metadata sanity: degrees fit in an n-node simple
            // graph, and the degree sum bounds the edge count both ways.
            if u64::from(maxdeg) >= u64::from(n).max(1) {
                return Err(format!(
                    "field \"maxdeg\": degree {maxdeg} impossible with n = {n}"
                ));
            }
            // `m > ⌊n·maxdeg/2⌋` is `2m > n·maxdeg` without overflowing
            // on a hostile `m`.
            if m > u64::from(n) * u64::from(maxdeg) / 2 {
                return Err(format!(
                    "field \"m\": {m} edge(s) exceed the degree-sum bound \
                     n·maxdeg/2 = {}",
                    u64::from(n) * u64::from(maxdeg) / 2
                ));
            }
            if generator == "clique" {
                let expect = u64::from(n) * u64::from(n.saturating_sub(1)) / 2;
                if m != expect || u64::from(maxdeg) != u64::from(n.saturating_sub(1)) {
                    return Err(format!(
                        "clique metadata mismatch: n = {n} implies m = {expect}, \
                         maxdeg = {}, got m = {m}, maxdeg = {maxdeg}",
                        n.saturating_sub(1)
                    ));
                }
            }
            Event::Topology {
                generator,
                n,
                m,
                maxdeg,
            }
        }
        "backend" => Event::Backend {
            backend: f.str("backend")?,
            memo_hits: f.u64("memo_hits")?,
            memo_misses: f.u64("memo_misses")?,
            table_grows: f.u64("table_grows")?,
            rows_materialized: f.u64("rows_materialized")?,
        },
        "halt" => Event::Halt {
            at: f.at()?,
            msgs: f.u64("msgs")?,
            reason: f.str("reason")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    f.finish()?;
    Ok(event)
}

/// Parses a whole trace (possibly many concatenated runs), skipping blank
/// lines.
///
/// # Errors
///
/// Returns the first schema violation with its 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(ev) => events.push(ev),
            Err(message) => {
                return Err(ParseError {
                    line: idx + 1,
                    message,
                })
            }
        }
    }
    Ok(events)
}

/// Per-class and per-round tallies over a parsed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Total events.
    pub events: u64,
    /// `send` events.
    pub sends: u64,
    /// `deliver` events.
    pub delivers: u64,
    /// `wake` events.
    pub wakes: u64,
    /// `decide` events.
    pub decides: u64,
    /// `decide` events with `d = leader`.
    pub leaders: u64,
    /// `round` boundary events.
    pub rounds: u64,
    /// `fault` events.
    pub faults: u64,
    /// `halt` events (= completed runs in a merged trace).
    pub halts: u64,
    /// Send counts by message class, sorted by class name (`(sync)` for
    /// classless synchronous sends).
    pub sends_by_class: Vec<(String, u64)>,
    /// Fault counts by kind, sorted by kind name.
    pub faults_by_kind: Vec<(String, u64)>,
    /// Halt counts by reason, sorted by reason.
    pub halts_by_reason: Vec<(String, u64)>,
    /// `topo` metadata events (= runs with graph metadata in a merged
    /// trace).
    pub topologies: u64,
    /// Topology counts by generator tag, sorted by tag.
    pub topologies_by_gen: Vec<(String, u64)>,
    /// Largest round stamp seen (synchronous traces).
    pub max_round: u32,
    /// Largest time stamp seen (asynchronous traces).
    pub max_time: f64,
    /// Total messages claimed by halt events (sum over runs).
    pub halt_msgs: u64,
}

/// Tallies a parsed trace into a [`Rollup`].
pub fn rollup(events: &[Event]) -> Rollup {
    let mut r = Rollup::default();
    let mut by_class: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_reason: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_gen: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        r.events += 1;
        if let Some(at) = ev.at() {
            match at {
                At::Round(n) => r.max_round = r.max_round.max(n),
                At::Time(t) => r.max_time = r.max_time.max(t),
            }
        }
        match ev {
            Event::Send { cls, .. } => {
                r.sends += 1;
                let key = cls.clone().unwrap_or_else(|| "(sync)".to_string());
                *by_class.entry(key).or_insert(0) += 1;
            }
            Event::Deliver { .. } => r.delivers += 1,
            Event::Wake { .. } => r.wakes += 1,
            Event::Decide { leader, .. } => {
                r.decides += 1;
                if *leader {
                    r.leaders += 1;
                }
            }
            Event::Round { round, .. } => {
                r.rounds += 1;
                r.max_round = r.max_round.max(*round);
            }
            Event::Fault { kind, .. } => {
                r.faults += 1;
                *by_kind.entry(kind.clone()).or_insert(0) += 1;
            }
            Event::Topology { generator, .. } => {
                r.topologies += 1;
                *by_gen.entry(generator.clone()).or_insert(0) += 1;
            }
            Event::Backend { .. } => {}
            Event::Halt { msgs, reason, .. } => {
                r.halts += 1;
                r.halt_msgs += msgs;
                *by_reason.entry(reason.clone()).or_insert(0) += 1;
            }
        }
    }
    r.sends_by_class = by_class.into_iter().collect();
    r.faults_by_kind = by_kind.into_iter().collect();
    r.halts_by_reason = by_reason.into_iter().collect();
    r.topologies_by_gen = by_gen.into_iter().collect();
    r
}

/// The message-causality critical path of one run's trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Length of the deepest send→deliver chain.
    pub depth: u64,
    /// Deliveries matched to an earlier send on the same `(src, dst)`
    /// link (FIFO).
    pub matched: u64,
    /// Deliveries with no matching send in the trace (e.g. the `send`
    /// class was masked out).
    pub unmatched_delivers: u64,
    /// Sends never delivered (lost, dropped, or still in flight at halt).
    pub undelivered_sends: u64,
}

/// Computes the message-causality critical path of a single run's events.
///
/// Sends are matched to deliveries FIFO per `(src, dst)` link — the
/// delivery inherits the sender's chain depth *at send time* plus one,
/// and the receiver's chain depth is the maximum over its deliveries.
/// Spontaneous (adversary) wake-ups root chains at depth zero.
///
/// Time-stamped (asynchronous) traces are in event order, so a send
/// causally follows exactly the deliveries emitted before it. Round-stamped
/// (synchronous) traces interleave a round's sends and same-round
/// deliveries, but a delivery in round `r` is only *acted on* in round
/// `r + 1` — so round-stamped sends read the sender's depth as of the
/// previous round boundary, not the running value.
///
/// An unmatched delivery (its send was filtered out of the trace) falls
/// back to the sender's depth plus one — a conservative overestimate,
/// counted in [`unmatched_delivers`](CriticalPath::unmatched_delivers) so
/// audits can insist on fully matched traces.
pub fn critical_path(events: &[Event]) -> CriticalPath {
    // `depth` accumulates this round's deliveries; `committed` is its
    // snapshot at the last round boundary (what round-stamped sends see).
    let mut depth: HashMap<u32, u64> = HashMap::new();
    let mut committed: HashMap<u32, u64> = HashMap::new();
    let mut last_round: Option<u32> = None;
    let mut in_flight: HashMap<(u32, u32), VecDeque<u64>> = HashMap::new();
    let mut path = CriticalPath::default();
    let mut advance = |at: &At, depth: &HashMap<u32, u64>, committed: &mut HashMap<u32, u64>| {
        if let At::Round(r) = at {
            if last_round != Some(*r) {
                last_round = Some(*r);
                *committed = depth.clone();
            }
        }
    };
    for ev in events {
        match ev {
            Event::Send { at, src, dst, .. } => {
                advance(at, &depth, &mut committed);
                let seen = match at {
                    At::Round(_) => &committed,
                    At::Time(_) => &depth,
                };
                let d = seen.get(src).copied().unwrap_or(0) + 1;
                in_flight.entry((*src, *dst)).or_default().push_back(d);
            }
            Event::Deliver { at, src, dst, .. } => {
                advance(at, &depth, &mut committed);
                let d = match in_flight
                    .get_mut(&(*src, *dst))
                    .and_then(VecDeque::pop_front)
                {
                    Some(d) => {
                        path.matched += 1;
                        d
                    }
                    None => {
                        path.unmatched_delivers += 1;
                        let seen = match at {
                            At::Round(_) => &committed,
                            At::Time(_) => &depth,
                        };
                        seen.get(src).copied().unwrap_or(0) + 1
                    }
                };
                let entry = depth.entry(*dst).or_insert(0);
                *entry = (*entry).max(d);
                path.depth = path.depth.max(d);
            }
            _ => {}
        }
    }
    path.undelivered_sends = in_flight.values().map(|q| q.len() as u64).sum();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_event_shape() {
        let text = "\
{\"ev\":\"wake\",\"t\":0.0,\"node\":0,\"cause\":\"adv\"}\n\
{\"ev\":\"send\",\"t\":0.0,\"src\":0,\"port\":3,\"dst\":7,\"cls\":\"probe\"}\n\
{\"ev\":\"deliver\",\"t\":0.5,\"src\":0,\"dst\":7,\"cls\":\"probe\"}\n\
{\"ev\":\"decide\",\"round\":5,\"node\":26,\"d\":\"leader\"}\n\
{\"ev\":\"round\",\"round\":5,\"msgs\":469}\n\
{\"ev\":\"fault\",\"t\":1.25,\"kind\":\"loss\",\"src\":1,\"dst\":2}\n\
{\"ev\":\"topo\",\"gen\":\"ring\",\"n\":64,\"m\":64,\"maxdeg\":2}\n\
{\"ev\":\"backend\",\"backend\":\"sparse\",\"memo_hits\":10,\"memo_misses\":2,\"table_grows\":1,\"rows_materialized\":0}\n\
{\"ev\":\"halt\",\"t\":9.75,\"msgs\":469,\"reason\":\"drained\"}\n";
        let events = parse_trace(text).expect("valid trace");
        assert_eq!(events.len(), 9);
        assert_eq!(
            events[6],
            Event::Topology {
                generator: "ring".to_string(),
                n: 64,
                m: 64,
                maxdeg: 2
            }
        );
        assert_eq!(
            events[0],
            Event::Wake {
                at: At::Time(0.0),
                node: 0,
                cause: "adv".to_string()
            }
        );
        assert_eq!(
            events[3],
            Event::Decide {
                at: At::Round(5),
                node: 26,
                leader: true
            }
        );
        assert_eq!(
            events[8],
            Event::Halt {
                at: At::Time(9.75),
                msgs: 469,
                reason: "drained".to_string()
            }
        );
    }

    #[test]
    fn rejects_schema_violations() {
        // (line, why)
        let bad = [
            ("{\"ev\":\"nope\",\"t\":0.0}", "unknown event"),
            (
                "{\"t\":0.0,\"ev\":\"halt\",\"msgs\":1,\"reason\":\"drained\"}",
                "ev not first",
            ),
            ("{\"ev\":\"wake\",\"t\":0.0,\"node\":0}", "missing cause"),
            (
                "{\"ev\":\"wake\",\"t\":0.0,\"node\":0,\"cause\":\"adv\",\"x\":1}",
                "extra field",
            ),
            (
                "{\"ev\":\"wake\",\"t\":0.0,\"round\":1,\"node\":0,\"cause\":\"adv\"}",
                "double stamp",
            ),
            (
                "{\"ev\":\"round\",\"round\":-1,\"msgs\":0}",
                "negative round",
            ),
            (
                "{\"ev\":\"halt\",\"t\":0.0,\"msgs\":1,\"reason\":\"drained\"}x",
                "trailing junk",
            ),
            (
                "{\"ev\":\"fault\",\"t\":0.0,\"kind\":\"meteor\",\"src\":0,\"dst\":0}",
                "bad kind",
            ),
            (
                "{\"ev\":\"topo\",\"gen\":\"hypercube\",\"n\":8,\"m\":12,\"maxdeg\":3}",
                "unknown generator",
            ),
            (
                "{\"ev\":\"topo\",\"gen\":\"ring\",\"n\":8,\"m\":8,\"maxdeg\":9}",
                "degree ≥ n",
            ),
            (
                "{\"ev\":\"topo\",\"gen\":\"ring\",\"n\":8,\"m\":99,\"maxdeg\":2}",
                "edges above the degree-sum bound",
            ),
            (
                "{\"ev\":\"topo\",\"gen\":\"clique\",\"n\":8,\"m\":20,\"maxdeg\":7}",
                "clique edge-count mismatch",
            ),
        ];
        for (line, why) in bad {
            assert!(parse_line(line).is_err(), "accepted {why}: {line}");
        }
    }

    #[test]
    fn roundtrips_shortest_float_times() {
        let line = "{\"ev\":\"deliver\",\"t\":0.30000000000000004,\"src\":1,\"dst\":2}";
        match parse_line(line).expect("valid line") {
            Event::Deliver {
                at: At::Time(t), ..
            } => {
                assert_eq!(t, 0.30000000000000004);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn rollup_tallies_classes_and_faults() {
        let text = "\
{\"ev\":\"send\",\"t\":0.0,\"src\":0,\"port\":0,\"dst\":1,\"cls\":\"probe\"}\n\
{\"ev\":\"send\",\"t\":0.0,\"src\":0,\"port\":1,\"dst\":2,\"cls\":\"probe\"}\n\
{\"ev\":\"send\",\"round\":1,\"src\":0,\"port\":2,\"dst\":3}\n\
{\"ev\":\"fault\",\"t\":0.5,\"kind\":\"loss\",\"src\":0,\"dst\":1}\n\
{\"ev\":\"topo\",\"gen\":\"torus\",\"n\":16,\"m\":32,\"maxdeg\":4}\n\
{\"ev\":\"halt\",\"t\":2.0,\"msgs\":3,\"reason\":\"drained\"}\n";
        let r = rollup(&parse_trace(text).expect("valid trace"));
        assert_eq!(r.sends, 3);
        assert_eq!(r.topologies, 1);
        assert_eq!(r.topologies_by_gen, vec![("torus".to_string(), 1)]);
        assert_eq!(
            r.sends_by_class,
            vec![("(sync)".to_string(), 1), ("probe".to_string(), 2)]
        );
        assert_eq!(r.faults_by_kind, vec![("loss".to_string(), 1)]);
        assert_eq!(r.halts_by_reason, vec![("drained".to_string(), 1)]);
        assert_eq!(r.max_time, 2.0);
        assert_eq!(r.max_round, 1);
        assert_eq!(r.halt_msgs, 3);
    }

    #[test]
    fn critical_path_follows_causal_chains() {
        // 0 → 1 → 2 is a depth-2 chain; the extra 0 → 2 edge stays
        // depth 1; one send is never delivered.
        let text = "\
{\"ev\":\"send\",\"t\":0.0,\"src\":0,\"port\":0,\"dst\":1}\n\
{\"ev\":\"send\",\"t\":0.0,\"src\":0,\"port\":1,\"dst\":2}\n\
{\"ev\":\"deliver\",\"t\":1.0,\"src\":0,\"dst\":1}\n\
{\"ev\":\"deliver\",\"t\":1.0,\"src\":0,\"dst\":2}\n\
{\"ev\":\"send\",\"t\":1.0,\"src\":1,\"port\":0,\"dst\":2}\n\
{\"ev\":\"deliver\",\"t\":2.0,\"src\":1,\"dst\":2}\n\
{\"ev\":\"send\",\"t\":2.0,\"src\":2,\"port\":0,\"dst\":0}\n";
        let path = critical_path(&parse_trace(text).expect("valid trace"));
        assert_eq!(path.depth, 2);
        assert_eq!(path.matched, 3);
        assert_eq!(path.unmatched_delivers, 0);
        assert_eq!(path.undelivered_sends, 1);
    }

    #[test]
    fn critical_path_matches_fifo_per_link() {
        // Two sends on the same link: the first (depth 1) is consumed by
        // the first delivery, so the second delivery sees the sender's
        // *later* depth (after 1's own chain deepened).
        let text = "\
{\"ev\":\"send\",\"t\":0.0,\"src\":0,\"port\":0,\"dst\":1}\n\
{\"ev\":\"deliver\",\"t\":0.5,\"src\":0,\"dst\":1}\n\
{\"ev\":\"send\",\"t\":0.5,\"src\":1,\"port\":0,\"dst\":0}\n\
{\"ev\":\"deliver\",\"t\":1.0,\"src\":1,\"dst\":0}\n\
{\"ev\":\"send\",\"t\":1.0,\"src\":0,\"port\":0,\"dst\":1}\n\
{\"ev\":\"deliver\",\"t\":1.5,\"src\":0,\"dst\":1}\n";
        let path = critical_path(&parse_trace(text).expect("valid trace"));
        assert_eq!(path.depth, 3, "ping-pong chain deepens each hop");
        assert_eq!(path.matched, 3);
    }

    #[test]
    fn critical_path_respects_round_boundaries() {
        // Synchronous traces interleave a round's sends and deliveries:
        // node 1 receives in round 1 and relays in round 1's event stream,
        // but its relay was decided before that delivery landed, so the
        // relay stays depth 1; only its round-2 send deepens the chain.
        let text = "\
{\"ev\":\"send\",\"round\":1,\"src\":0,\"port\":0,\"dst\":1}\n\
{\"ev\":\"deliver\",\"round\":1,\"src\":0,\"dst\":1}\n\
{\"ev\":\"send\",\"round\":1,\"src\":1,\"port\":0,\"dst\":2}\n\
{\"ev\":\"deliver\",\"round\":1,\"src\":1,\"dst\":2}\n\
{\"ev\":\"send\",\"round\":2,\"src\":1,\"port\":1,\"dst\":3}\n\
{\"ev\":\"deliver\",\"round\":2,\"src\":1,\"dst\":3}\n";
        let path = critical_path(&parse_trace(text).expect("valid trace"));
        assert_eq!(path.depth, 2, "depth can grow by at most one per round");
        assert_eq!(path.matched, 3);
        assert_eq!(path.undelivered_sends, 0);
    }
}
