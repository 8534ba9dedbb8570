//! The benchmark's own spans: start and end of each call the benchmark
//! makes into a layer of the program, kept in memory and written out as
//! JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// The instant every span timestamp is measured from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The group the span belongs to: the trial index of a trial's spans
    /// (all spans of one trial share it).
    pub group: u64,
    /// The layer call, e.g. `sync.build`.
    pub name: &'static str,
    /// Index, within its log, of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// End, in nanoseconds since [`epoch`].
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// An append-only span log.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index (to name it as a parent).
    pub fn record(
        &mut self,
        group: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            group,
            name,
            parent,
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`SpanLog::close`], so that spans it
    /// causes can name it as their parent before it ends.
    pub fn open(
        &mut self,
        group: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.record(group, name, parent, start, start)
    }

    /// Ends the span `index` opened by [`SpanLog::open`].
    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = ns_since_epoch(end);
    }

    /// Moves every span of `other` to the end of this log, keeping parent
    /// links pointing at the same spans.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total seconds per span name: each span's full duration, and its
    /// self time (duration minus the time its direct children cover).
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += s.secs();
            e.1 += (s.secs() - c).max(0.0);
        }
        out
    }

    /// The log as JSONL, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"group\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t0 = epoch();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::default();
        let build = log.record(0, "build", None, at(0), at(10));
        log.record(0, "reset", Some(build), at(0), at(3));
        log.record(0, "node_new", Some(build), at(3), at(7));
        let mut other = SpanLog::default();
        let b2 = other.record(1, "build", None, at(20), at(30));
        other.record(1, "reset", Some(b2), at(20), at(25));
        log.append(other);
        assert_eq!(log.spans[4].parent, Some(3), "parents re-based on append");
        let totals = log.totals();
        let (full, own) = totals["build"];
        assert!((full - 0.020).abs() < 1e-9);
        assert!((own - 0.008).abs() < 1e-9, "10-3-4 + 10-5 ms, got {own}");
        assert!(log.to_jsonl().lines().count() == 5);
    }
}
