//! The four workloads and the trial that each schedule slot runs.
//!
//! Every setting that the library would otherwise read from an `LE_*`
//! variable is pinned on the builder here: backend, topology, wake-up,
//! resolver, delays, network and the round or event cap. The program's
//! own trace is on only for `singular_traced`, through a sink owned by the
//! benchmark; the other workloads rely on `LE_TRACE` being unset, which
//! the benchmark checks before it starts.
//!
//! A trial runs in one of two ways. Plain, it calls the engine exactly as
//! the `exp_*` binaries do (`build_in` then `run_reusing`). Probed, it
//! drives the same execution call by call and records a span around each
//! call into a layer, plus the port-map counters at the same boundaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use clique_async::{
    AsyncArena, AsyncHaltReason, AsyncNode, AsyncSimBuilder, AsyncWakeSchedule, NetworkConfig,
    Reliability, UniformDelay,
};
use clique_model::ids::{IdAssignment, IdSpace};
use clique_model::metrics::FaultCounters;
use clique_model::ports::{PortBackend, PortMap, RandomResolver};
use clique_model::rng::{derive_seed, rng_from_seed};
use clique_model::trace::{TraceEvent, TraceSink};
use clique_model::{Id, ModelError, NodeIndex, Topology};
use clique_sync::{HaltReason, NullObserver, SyncArena, SyncNode, SyncSimBuilder, WakeSchedule};
use le_bench::Arenas;
use leader_election::asynchronous::tradeoff;
use leader_election::sync::{afek_gafni, improved_tradeoff, las_vegas, singular, sublinear_mc};

use crate::report::{Digest, Halt};
use crate::spans::SpanLog;

/// Seed stream of the benchmark's own ID assignment.
const ID_STREAM: u64 = 0x4944_5321;
/// Seed stream of the `singular_traced` graph.
const GRAPH_STREAM: u64 = 0x4752_4150;
/// Degree of the `singular_traced` graph.
const GRAPH_DEGREE: usize = 8;
/// Message loss on the lossy half of `async_faults`.
const LOSS: f64 = 0.05;
/// Retransmissions per payload before the ARQ gives it up. The default
/// (6) abandons one of the ~290 000 payloads of a lossy trial, a
/// `FaultLivelock` halt, in about 2 % of trials at this loss; 10 makes
/// that a one-in-10^5 event, so the workload does not fail.
const ARQ_BUDGET: u32 = 10;
/// Phases of the asynchronous tradeoff algorithm.
const ASYNC_K: usize = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Improved tradeoff against Afek–Gafni on a dense clique.
    TradeoffDense,
    /// Las Vegas against sublinear Monte Carlo on a chunked clique.
    VegasChunked,
    /// The async tradeoff on a clean and a lossy network.
    AsyncFaults,
    /// Singular election on a random regular graph, trace on.
    SingularTraced,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TradeoffDense,
        Workload::VegasChunked,
        Workload::AsyncFaults,
        Workload::SingularTraced,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TradeoffDense => "tradeoff_dense",
            Workload::VegasChunked => "vegas_chunked",
            Workload::AsyncFaults => "async_faults",
            Workload::SingularTraced => "singular_traced",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Network size.
    pub fn n(self) -> usize {
        match self {
            Workload::TradeoffDense => 4096,
            Workload::VegasChunked => 65536,
            Workload::AsyncFaults => 2048,
            Workload::SingularTraced => 16384,
        }
    }

    /// The trials of one round, in order. A run measures whole rounds, so
    /// the mix of algorithms is the same in every run. On `async_faults`
    /// two clean trials take about as long as one lossy trial.
    pub fn schedule(self) -> &'static [Alg] {
        match self {
            Workload::TradeoffDense => &[
                Alg::Improved(3),
                Alg::AfekGafni(4),
                Alg::Improved(5),
                Alg::AfekGafni(6),
            ],
            Workload::VegasChunked => &[Alg::LasVegas, Alg::SublinearMc],
            Workload::AsyncFaults => &[Alg::AsyncClean, Alg::AsyncClean, Alg::AsyncLossy],
            Workload::SingularTraced => &[Alg::Singular],
        }
    }

    /// Builds the workload's communication graph for `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the generator's [`ModelError`].
    pub fn topology(self, seed: u64) -> Result<Topology, ModelError> {
        match self {
            Workload::SingularTraced => {
                Topology::random_regular(self.n(), GRAPH_DEGREE, derive_seed(seed, GRAPH_STREAM))
            }
            _ => Topology::clique(self.n()),
        }
    }
}

/// The algorithm (and network) of one schedule slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// Theorem 3.10 with `ℓ` rounds.
    Improved(usize),
    /// Afek–Gafni with `ℓ` rounds.
    AfekGafni(usize),
    /// Theorem 3.16 Las Vegas.
    LasVegas,
    /// Sublinear Monte Carlo of Kutten et al.
    SublinearMc,
    /// Async tradeoff, transparent network (legacy dispatch).
    AsyncClean,
    /// Async tradeoff, 5 % loss with the ARQ.
    AsyncLossy,
    /// Singular election on a general graph.
    Singular,
}

impl Alg {
    /// The slot's name in CSV rows and cell labels.
    pub fn name(self) -> String {
        match self {
            Alg::Improved(ell) => format!("improved_l{ell}"),
            Alg::AfekGafni(ell) => format!("afek_gafni_l{ell}"),
            Alg::LasVegas => "las_vegas".into(),
            Alg::SublinearMc => "sublinear_mc".into(),
            Alg::AsyncClean => "async_clean".into(),
            Alg::AsyncLossy => "async_lossy".into(),
            Alg::Singular => "singular".into(),
        }
    }

    /// Whether the slot runs on the asynchronous engine.
    pub fn is_async(self) -> bool {
        matches!(self, Alg::AsyncClean | Alg::AsyncLossy)
    }
}

/// What a trial needs besides the arenas.
#[derive(Debug, Clone)]
pub struct TrialInput {
    /// The slot's algorithm.
    pub alg: Alg,
    /// The communication graph.
    pub topo: Topology,
    /// The trial's master seed.
    pub seed: u64,
    /// Whether the program's trace goes to the benchmark's byte-counting
    /// sink (only `singular_traced` turns it on).
    pub trace: bool,
}

/// The simulated outcome of one trial, as the benchmark checks it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The slot's algorithm.
    pub alg: Alg,
    /// How the run ended.
    pub halt: Halt,
    /// Whether the election validated.
    pub valid: bool,
    /// Messages sent.
    pub msgs: u64,
    /// Synchronous rounds with activity (0 on the async engine).
    pub rounds: u64,
    /// Simulated time (0 on the sync engine).
    pub sim_time: f64,
    /// The unique leader's index, if there is one.
    pub leader: Option<usize>,
    /// Network-layer counters (zero unless lossy).
    pub faults: FaultCounters,
    /// The backend the port map resolved to.
    pub backend: &'static str,
    /// The topology kind the port map reports.
    pub topology: &'static str,
    /// Trace events the sink received.
    pub trace_events: u64,
    /// JSONL bytes those events serialize to.
    pub trace_bytes: u64,
}

impl TrialRecord {
    fn error(alg: Alg) -> TrialRecord {
        TrialRecord {
            alg,
            halt: Halt::Error,
            valid: false,
            msgs: 0,
            rounds: 0,
            sim_time: 0.0,
            leader: None,
            faults: FaultCounters::default(),
            backend: "none",
            topology: "none",
            trace_events: 0,
            trace_bytes: 0,
        }
    }

    /// Whether the trial failed (unclean halt or invalid election).
    pub fn failed(&self) -> bool {
        crate::report::trial_failed(self.halt, self.valid)
    }

    /// A hash over the simulated statistics: messages, rounds, simulated
    /// time, leader, halt and network counters. A change that only makes
    /// the program faster leaves it unchanged.
    pub fn fingerprint(&self) -> u64 {
        let f = &self.faults;
        let mut d = Digest::default();
        for w in [
            self.halt.code(),
            u64::from(self.valid),
            self.msgs,
            self.rounds,
            self.sim_time.to_bits(),
            self.leader.map_or(u64::MAX, |l| l as u64),
            f.payloads,
            f.goodput,
            f.retransmits,
            f.acks,
            f.queue_drops,
            f.loss_drops,
            f.crash_drops,
            f.duplicates,
            f.abandoned,
            f.lost_payloads,
        ] {
            d.word(w);
        }
        d.value()
    }
}

/// What a probed trial measured besides its spans.
#[derive(Debug, Default)]
pub struct Probe {
    /// The trial index all of this trial's spans share.
    pub group: u64,
    /// The spans.
    pub spans: SpanLog,
    /// Links the port map fixed during the trial.
    pub links: u64,
    /// Feistel memo hits during the run.
    pub memo_hits: u64,
    /// Feistel memo misses during the run.
    pub memo_misses: u64,
    /// Open-table growths during the run.
    pub table_grows: u64,
    /// Rows the chunked backend holds materialized after the run.
    pub rows_materialized: u64,
    /// Bytes resident in the engine arena after the run.
    pub resident_bytes: u64,
}

impl Probe {
    /// An empty probe for trial `group`.
    pub fn new(group: u64) -> Probe {
        Probe {
            group,
            ..Probe::default()
        }
    }

    /// Records the counters that the port map accumulated during the run.
    fn port_counters(&mut self, ports: &PortMap, before: clique_model::trace::BackendCounters) {
        let after = ports.backend_counters();
        self.links = ports.link_count() as u64;
        self.memo_hits = after.memo_hits - before.memo_hits;
        self.memo_misses = after.memo_misses - before.memo_misses;
        self.table_grows = after.table_grows - before.table_grows;
        self.rows_materialized = after.rows_materialized;
    }
}

/// Runs one trial. An engine error is recorded as a failed trial.
pub fn run_trial(
    input: &TrialInput,
    arenas: &mut Arenas,
    probe: Option<&mut Probe>,
) -> TrialRecord {
    let sync = &mut arenas.sync;
    let result = match input.alg {
        Alg::Improved(ell) => {
            let cfg = improved_tradeoff::Config::with_rounds(ell);
            run_sync(input, sync, probe, Check::Explicit, move |id, n| {
                improved_tradeoff::Node::new(id, n, cfg)
            })
        }
        Alg::AfekGafni(ell) => {
            let cfg = afek_gafni::Config::with_rounds(ell);
            run_sync(input, sync, probe, Check::Explicit, move |id, n| {
                afek_gafni::Node::new(id, n, cfg)
            })
        }
        Alg::LasVegas => run_sync(input, sync, probe, Check::Explicit, |id, _| {
            las_vegas::Node::new(id, las_vegas::Config::default())
        }),
        Alg::SublinearMc => run_sync(input, sync, probe, Check::Implicit, |_, _| {
            sublinear_mc::Node::new(sublinear_mc::Config::default())
        }),
        Alg::Singular => run_sync(input, sync, probe, Check::Explicit, |id, _| {
            singular::Node::new(id, singular::Config::default())
        }),
        Alg::AsyncClean | Alg::AsyncLossy => run_async(input, &mut arenas.asynch, probe, |_, _| {
            tradeoff::Node::new(tradeoff::Config::new(ASYNC_K))
        }),
    };
    result.unwrap_or_else(|_| TrialRecord::error(input.alg))
}

/// Which validator a slot's election must pass.
#[derive(Debug, Clone, Copy)]
enum Check {
    Implicit,
    Explicit,
}

/// Events and bytes a [`CountingSink`] saw, published when it flushes.
type TraceTotals = Arc<[AtomicU64; 2]>;

/// The trace sink of `singular_traced`: serializes each event into one
/// reused line buffer and counts events and bytes; nothing is written.
struct CountingSink {
    line: String,
    events: u64,
    bytes: u64,
    totals: TraceTotals,
}

impl TraceSink for CountingSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.line.clear();
        ev.write_jsonl(&mut self.line);
        self.events += 1;
        self.bytes += self.line.len() as u64;
    }

    fn flush(&mut self) {
        // The sink is read on the thread that ran the trial, after the
        // engine has finished; the counters publish nothing else.
        self.totals[0].store(self.events, Ordering::Relaxed);
        self.totals[1].store(self.bytes, Ordering::Relaxed);
    }
}

fn counting_sink(on: bool) -> Option<(Box<dyn TraceSink>, TraceTotals)> {
    on.then(|| {
        let totals = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let sink = CountingSink {
            line: String::with_capacity(256),
            events: 0,
            bytes: 0,
            totals: Arc::clone(&totals),
        };
        (Box::new(sink) as Box<dyn TraceSink>, totals)
    })
}

/// The benchmark assigns IDs itself (the builder would draw the same kind
/// of assignment), so that ID assignment is a span of its own.
fn assign_ids(
    n: usize,
    seed: u64,
    probe: &mut Option<&mut Probe>,
    root: Option<usize>,
) -> Result<IdAssignment, ModelError> {
    let assign =
        || IdSpace::quasilinear(n).assign(n, &mut rng_from_seed(derive_seed(seed, ID_STREAM)));
    match probe {
        None => assign(),
        Some(p) => {
            let t = Instant::now();
            let ids = assign();
            p.spans
                .record(p.group, "ids.assign", root, t, Instant::now());
            ids
        }
    }
}

/// Wraps a node factory so that it timestamps its first and last call:
/// the build span before the first call is the port-map reset, the span
/// between first and last call is node construction.
struct TimedFactory<F> {
    inner: F,
    n: usize,
    calls: usize,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl<F> TimedFactory<F> {
    fn new(inner: F, n: usize) -> TimedFactory<F> {
        TimedFactory {
            inner,
            n,
            calls: 0,
            first: None,
            last: None,
        }
    }

    fn call<N>(&mut self, id: Id, n: usize) -> N
    where
        F: FnMut(Id, usize) -> N,
    {
        if self.calls == 0 {
            self.first = Some(Instant::now());
        }
        let node = (self.inner)(id, n);
        self.calls += 1;
        if self.calls == self.n {
            self.last = Some(Instant::now());
        }
        node
    }

    /// Records the reset and node-construction spans under `build`.
    fn record(&self, probe: &mut Probe, build: usize, entry: Instant, exit: Instant) {
        let first = self.first.unwrap_or(exit);
        let last = self.last.unwrap_or(exit);
        let g = probe.group;
        probe
            .spans
            .record(g, "ports.reset", Some(build), entry, first);
        probe
            .spans
            .record(g, "core.node_new", Some(build), first, last);
    }
}

fn run_sync<N, F>(
    input: &TrialInput,
    arena: &mut SyncArena,
    mut probe: Option<&mut Probe>,
    check: Check,
    factory: F,
) -> Result<TrialRecord, ModelError>
where
    N: SyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let n = input.topo.n();
    let max_rounds = 4 * n + 64;
    let root = probe
        .as_deref_mut()
        .map(|p| p.spans.open(p.group, "trial", None, Instant::now()));
    let ids = assign_ids(n, input.seed, &mut probe, root)?;
    let mut builder = SyncSimBuilder::new(n)
        .seed(input.seed)
        .ids(ids)
        .backend(PortBackend::Auto)
        .topology(input.topo.clone())
        .wake(WakeSchedule::simultaneous(n))
        .resolver(Box::new(RandomResolver))
        .max_rounds(max_rounds);
    let mut totals = None;
    if let Some((sink, t)) = counting_sink(input.trace) {
        builder = builder.trace(sink);
        totals = Some(t);
    }
    let (outcome, backend, topology) = match probe.as_deref_mut() {
        None => {
            let sim = builder.build_in(arena, factory)?;
            let (backend, topology) = (
                sim.ports().backend().name(),
                sim.ports().topology_summary().0,
            );
            (sim.run_reusing(arena)?, backend, topology)
        }
        Some(p) => {
            let g = p.group;
            let entry = Instant::now();
            let build = p.spans.open(g, "sync.build", root, entry);
            let mut timed = TimedFactory::new(factory, n);
            let mut sim = builder.build_in(arena, |id, n| timed.call(id, n))?;
            let exit = Instant::now();
            p.spans.close(build, exit);
            timed.record(p, build, entry, exit);
            let (backend, topology) = (
                sim.ports().backend().name(),
                sim.ports().topology_summary().0,
            );
            let before = sim.ports().backend_counters();
            // The engine's own run loop, one externally timed step a round.
            let halt = loop {
                if sim.round() >= max_rounds {
                    break HaltReason::MaxRounds;
                }
                let t = Instant::now();
                let more = sim.step(&mut NullObserver)?;
                p.spans.record(g, "sync.round", root, t, Instant::now());
                if !more {
                    break HaltReason::Quiescent;
                }
            };
            p.port_counters(sim.ports(), before);
            let t = Instant::now();
            let outcome = sim.into_outcome_reusing(halt, arena);
            p.spans.record(g, "sync.outcome", root, t, Instant::now());
            p.resident_bytes = arena.resident_bytes();
            (outcome, backend, topology)
        }
    };
    let valid = match check {
        Check::Implicit => outcome.validate_implicit().is_ok(),
        Check::Explicit => outcome.validate_explicit().is_ok(),
    };
    let (trace_events, trace_bytes) = totals.map_or((0, 0), |t| {
        (t[0].load(Ordering::Relaxed), t[1].load(Ordering::Relaxed))
    });
    if let (Some(p), Some(root)) = (probe, root) {
        p.spans.close(root, Instant::now());
    }
    Ok(TrialRecord {
        alg: input.alg,
        halt: outcome.halt.into(),
        valid,
        msgs: outcome.stats.total(),
        rounds: outcome.rounds as u64,
        sim_time: 0.0,
        leader: outcome.unique_leader().map(|u| u.0),
        faults: outcome.stats.faults,
        backend,
        topology,
        trace_events,
        trace_bytes,
    })
}

fn run_async<N, F>(
    input: &TrialInput,
    arena: &mut AsyncArena,
    mut probe: Option<&mut Probe>,
    factory: F,
) -> Result<TrialRecord, ModelError>
where
    N: AsyncNode,
    N::Message: 'static,
    F: FnMut(Id, usize) -> N,
{
    let n = input.topo.n();
    let max_events = 64 * (n as u64) * (n as u64) + 4096;
    let lossy = input.alg == Alg::AsyncLossy;
    let network = if lossy {
        NetworkConfig::new().loss(LOSS).reliable(Reliability {
            budget: ARQ_BUDGET,
            ..Reliability::default()
        })
    } else {
        NetworkConfig::new()
    };
    let root = probe
        .as_deref_mut()
        .map(|p| p.spans.open(p.group, "trial", None, Instant::now()));
    let ids = assign_ids(n, input.seed, &mut probe, root)?;
    let builder = AsyncSimBuilder::new(n)
        .seed(input.seed)
        .ids(ids)
        .backend(PortBackend::Auto)
        .topology(input.topo.clone())
        .wake(AsyncWakeSchedule::single(NodeIndex(0)))
        .delays(Box::new(UniformDelay::full()))
        .resolver(Box::new(RandomResolver))
        .max_events(max_events)
        .network(network);
    let (outcome, backend, topology) = match probe.as_deref_mut() {
        None => {
            let sim = builder.build_in(arena, factory)?;
            let (backend, topology) = (
                sim.ports().backend().name(),
                sim.ports().topology_summary().0,
            );
            (sim.run_reusing(arena)?, backend, topology)
        }
        Some(p) => {
            let g = p.group;
            let entry = Instant::now();
            let build = p.spans.open(g, "async.build", root, entry);
            let mut timed = TimedFactory::new(factory, n);
            let mut sim = builder.build_in(arena, |id, n| timed.call(id, n))?;
            let exit = Instant::now();
            p.spans.close(build, exit);
            timed.record(p, build, entry, exit);
            let (backend, topology) = (
                sim.ports().backend().name(),
                sim.ports().topology_summary().0,
            );
            let before = sim.ports().backend_counters();
            // The engine's own run loop: step until the queue drains or
            // the event cap fires; a drained lossy run that lost payloads
            // for good is a fault livelock. No crash faults are planned.
            let t = Instant::now();
            let mut processed = 0u64;
            let halt = loop {
                if processed >= max_events {
                    break AsyncHaltReason::MaxEvents;
                }
                if !sim.step()? {
                    break if lossy && sim.stats().faults.lost_payloads > 0 {
                        AsyncHaltReason::FaultLivelock
                    } else {
                        AsyncHaltReason::QueueDrained
                    };
                }
                processed += 1;
            };
            p.spans.record(g, "async.run", root, t, Instant::now());
            p.port_counters(sim.ports(), before);
            let t = Instant::now();
            let outcome = sim.into_outcome_reusing(halt, arena);
            p.spans.record(g, "async.outcome", root, t, Instant::now());
            p.resident_bytes = arena.resident_bytes();
            (outcome, backend, topology)
        }
    };
    let valid = outcome.validate_implicit().is_ok();
    if let (Some(p), Some(root)) = (probe, root) {
        p.spans.close(root, Instant::now());
    }
    Ok(TrialRecord {
        alg: input.alg,
        halt: outcome.halt.into(),
        valid,
        msgs: outcome.stats.total(),
        rounds: 0,
        sim_time: outcome.time,
        leader: outcome.unique_leader().map(|u| u.0),
        faults: outcome.stats.faults,
        backend,
        topology,
        trace_events: 0,
        trace_bytes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(alg: Alg, topo: &Topology, probed: bool) -> TrialRecord {
        let input = TrialInput {
            alg,
            topo: topo.clone(),
            seed: 42,
            trace: alg == Alg::Singular,
        };
        let mut probe = Probe::new(0);
        run_trial(&input, &mut Arenas::default(), probed.then_some(&mut probe))
    }

    #[test]
    fn fingerprints_are_fixed_by_the_seed_and_unmoved_by_probing() {
        let clique = Topology::clique(64).unwrap();
        let ring = Topology::ring(64).unwrap();
        for (alg, topo) in [
            (Alg::Improved(3), &clique),
            (Alg::AfekGafni(4), &clique),
            (Alg::LasVegas, &clique),
            (Alg::SublinearMc, &clique),
            (Alg::AsyncClean, &clique),
            (Alg::AsyncLossy, &clique),
            (Alg::Singular, &ring),
        ] {
            let plain = trial(alg, topo, false);
            assert!(!plain.failed(), "{alg:?}: {plain:?}");
            assert_eq!(
                plain,
                trial(alg, topo, false),
                "{alg:?} is not deterministic"
            );
            assert_eq!(
                plain.fingerprint(),
                trial(alg, topo, true).fingerprint(),
                "{alg:?}: probing changed the simulated outcome"
            );
        }
    }

    #[test]
    fn the_trace_sink_counts_without_influencing() {
        let ring = Topology::ring(64).unwrap();
        let traced = trial(Alg::Singular, &ring, false);
        assert!(traced.trace_events > 0 && traced.trace_bytes > traced.trace_events);
        let input = TrialInput {
            alg: Alg::Singular,
            topo: ring,
            seed: 42,
            trace: false,
        };
        let untraced = run_trial(&input, &mut Arenas::default(), None);
        assert_eq!(untraced.trace_events, 0);
        assert_eq!(traced.fingerprint(), untraced.fingerprint());
    }

    #[test]
    fn lossy_trials_use_the_network_layer_and_clean_ones_do_not() {
        let clique = Topology::clique(64).unwrap();
        let clean = trial(Alg::AsyncClean, &clique, false);
        assert_eq!(clean.faults, FaultCounters::default());
        let lossy = trial(Alg::AsyncLossy, &clique, false);
        assert!(lossy.faults.payloads > 0 && lossy.faults.acks > 0);
    }
}
