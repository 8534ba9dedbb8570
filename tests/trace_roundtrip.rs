//! Print → parse round trip of the trace wire format: every event that
//! `clique_model::trace::TraceEvent::write_jsonl` writes at the edge values
//! parses with the strict `le_analysis::trace::parse_line` into the
//! matching `Event`, field for field. The writer and the parser live in
//! crates that do not depend on each other, so the check lives here.

use improved_le::analysis::trace::{self as wire, Event};
use improved_le::model::trace::{At, BackendCounters, FaultKind, TraceEvent};
use improved_le::model::WakeCause;

/// Integers at every decimal width boundary.
fn int_edges() -> Vec<u64> {
    let mut edges = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
    for k in 1..=19 {
        let p = 10u64.pow(k);
        edges.extend([p - 1, p, p + 1]);
    }
    edges
}

fn u32_edges() -> Vec<u32> {
    int_edges()
        .into_iter()
        .filter_map(|v| u32::try_from(v).ok())
        .collect()
}

/// Every stamp: each `u32` edge as a round, and the times at the edges of
/// `{:?}`'s shortest-roundtrip `f64` forms.
fn stamps() -> Vec<At> {
    let times = [0.0, 0.1 + 0.2, 1e-7, 5e-324, 1e16, f64::MAX];
    u32_edges()
        .into_iter()
        .map(At::Round)
        .chain(times.map(At::Time))
        .collect()
}

/// Free-form string values: short, multi-byte, and over 1 KiB.
fn strings() -> Vec<&'static str> {
    let long: &'static str = Box::leak("long-class-name/".repeat(80).into_boxed_str());
    vec!["", "probe", "ünïcödé", long]
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

/// The event the parser must return for `ev`.
fn expected(ev: &TraceEvent) -> Event {
    let at = |at: At| match at {
        At::Round(r) => wire::At::Round(r),
        At::Time(t) => wire::At::Time(t),
    };
    match *ev {
        TraceEvent::Wake { at: a, node, cause } => Event::Wake {
            at: at(a),
            node,
            cause: match cause {
                WakeCause::Adversary => "adv",
                WakeCause::Message => "msg",
            }
            .to_string(),
        },
        TraceEvent::Send {
            at: a,
            src,
            port,
            dst,
            cls,
        } => Event::Send {
            at: at(a),
            src,
            port,
            dst,
            cls: cls.map(str::to_string),
        },
        TraceEvent::Deliver {
            at: a,
            src,
            dst,
            cls,
        } => Event::Deliver {
            at: at(a),
            src,
            dst,
            cls: cls.map(str::to_string),
        },
        TraceEvent::Decide {
            at: a,
            node,
            leader,
        } => Event::Decide {
            at: at(a),
            node,
            leader,
        },
        TraceEvent::Round { round, msgs } => Event::Round { round, msgs },
        TraceEvent::Fault {
            at: a,
            kind,
            src,
            dst,
        } => Event::Fault {
            at: at(a),
            kind: kind.name().to_string(),
            src,
            dst,
        },
        TraceEvent::Backend { backend, counters } => Event::Backend {
            backend: backend.to_string(),
            memo_hits: counters.memo_hits,
            memo_misses: counters.memo_misses,
            table_grows: counters.table_grows,
            rows_materialized: counters.rows_materialized,
        },
        TraceEvent::Halt {
            at: a,
            msgs,
            reason,
        } => Event::Halt {
            at: at(a),
            msgs,
            reason: reason.to_string(),
        },
        TraceEvent::Topology {
            generator,
            n,
            m,
            maxdeg,
        } => Event::Topology {
            generator: generator.to_string(),
            n,
            m,
            maxdeg,
        },
    }
}

fn assert_round_trips(ev: &TraceEvent) {
    let line = ev.to_jsonl();
    let parsed = wire::parse_line(&line).unwrap_or_else(|e| panic!("{line:?} rejected: {e}"));
    let want = expected(ev);
    // `f64` equality would let `-0.0` stand in for `0.0`; compare bits.
    let bits = |e: &Event| e.at().and_then(wire::At::time).map(f64::to_bits);
    assert_eq!(bits(&parsed), bits(&want), "{line:?}");
    assert_eq!(parsed, want, "{line:?}");
}

#[test]
fn stamped_events_round_trip_at_the_edges() {
    let small = u32_edges();
    let wide = int_edges();
    let strings = strings();
    let mut lines = 0;
    for at in stamps() {
        for (k, &s) in strings.iter().enumerate() {
            // Rotate the edges so each field meets every width.
            for i in 0..small.len() {
                let [a, b, c] = std::array::from_fn(|j| small[(i + j + k) % small.len()]);
                let msgs = wide[(i + k) % wide.len()];
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
                        node: a,
                        leader: false,
                    },
                    TraceEvent::Halt {
                        at,
                        msgs,
                        reason: s,
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
                        src: c,
                        dst: a,
                        cls,
                    });
                }
                for kind in FAULT_KINDS {
                    evs.push(TraceEvent::Fault {
                        at,
                        kind,
                        src: b,
                        dst: c,
                    });
                }
                for ev in &evs {
                    assert_round_trips(ev);
                }
                lines += evs.len();
            }
        }
    }
    assert!(lines > 10_000, "only {lines} lines checked");
}

#[test]
fn unstamped_events_round_trip_at_the_edges() {
    let wide = int_edges();
    for round in u32_edges() {
        for &msgs in &wide {
            assert_round_trips(&TraceEvent::Round { round, msgs });
        }
    }
    for backend in strings() {
        for i in 0..wide.len() {
            let [memo_hits, memo_misses, table_grows, rows_materialized] =
                std::array::from_fn(|j| wide[(i + j) % wide.len()]);
            assert_round_trips(&TraceEvent::Backend {
                backend,
                counters: BackendCounters {
                    memo_hits,
                    memo_misses,
                    table_grows,
                    rows_materialized,
                },
            });
        }
    }
    // The parser checks graph metadata, so the edges go into graphs that
    // exist: a clique, and a degree-bounded graph at its edge-count cap.
    for n in u32_edges().into_iter().filter(|&n| n >= 1) {
        let (n64, maxdeg) = (u64::from(n), n - 1);
        assert_round_trips(&TraceEvent::Topology {
            generator: "clique",
            n,
            m: n64 * (n64 - 1) / 2,
            maxdeg,
        });
        for generator in ["ring", "torus", "regular", "edges"] {
            for maxdeg in [0, maxdeg / 2, maxdeg] {
                for m in [0, n64 * u64::from(maxdeg) / 2] {
                    assert_round_trips(&TraceEvent::Topology {
                        generator,
                        n,
                        m,
                        maxdeg,
                    });
                }
            }
        }
    }
}

#[test]
fn impossible_graph_metadata_is_rejected_not_a_panic() {
    for m in [u64::MAX / 2 + 1, u64::MAX] {
        let line = TraceEvent::Topology {
            generator: "regular",
            n: u32::MAX,
            m,
            maxdeg: u32::MAX - 1,
        }
        .to_jsonl();
        let err = wire::parse_line(&line).expect_err("more edges than n·maxdeg/2");
        assert!(err.contains("degree-sum bound"), "{err}");
    }
}
