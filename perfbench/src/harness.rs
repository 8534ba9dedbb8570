//! One benchmark run of one workload: set-up, measured rounds of trials on
//! a one-worker `SweepRunner`, correctness checks, and the metrics.
//!
//! A run with `--trace 0` reports the end-to-end metrics. A run with
//! `--trace 1` alternates plain and probed rounds and reports the
//! per-layer metrics from the probed rounds; the throughput of the two
//! kinds of round gives the harness's own span overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use clique_model::metrics::FaultCounters;
use clique_model::ports::PortBackend;
use clique_model::Topology;
use le_bench::SweepRunner;

use crate::report::{median, quartiles, rate, share, Digest, Metric};
use crate::spans::SpanLog;
use crate::workloads::{run_trial, Alg, Probe, TrialInput, TrialRecord, Workload};

/// Sessions per run, each set up afresh; `setup_s` is their median.
const SESSIONS: usize = 3;
/// Measured rounds every run completes, however short `--seconds` is
/// (twice as many in a traced run, half of them probed).
const MIN_ROUNDS: u64 = 2;
/// `sim_digest` covers the warm-up round and this many measured rounds.
const DIGEST_ROUNDS: u64 = 2;
/// The CSV columns, one row per trial.
const COLUMNS: &[&str] = &[
    "trial",
    "alg",
    "messages",
    "rounds",
    "sim_time",
    "leader",
    "halt",
    "valid",
    "fingerprint",
];

/// What the command line asks for.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// The reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Trials run (warm-up and comparison trials included).
    pub attempted: u64,
    /// Trials that failed.
    pub failed: u64,
    /// Problems other than failed trials (determinism, backend).
    pub problems: Vec<String>,
    /// The simulated-output digest.
    pub digest: Digest,
    /// The backend the trials ran on.
    pub backend: &'static str,
    /// The topology kind the trials ran on.
    pub topology: &'static str,
    /// Per-trial seconds of the measured plain trials.
    pub trial_secs: Vec<f64>,
    /// Where the spans went, for a traced run.
    pub spans_path: Option<std::path::PathBuf>,
}

/// One trial as a round task hands it back.
struct TrialOut {
    index: u64,
    record: TrialRecord,
    secs: f64,
    probe: Option<Probe>,
    /// `singular_traced`, probed: the same trial again with the
    /// program's trace off, its record, and its probe.
    untraced: Option<(TrialRecord, Probe, f64)>,
}

/// One round as measured from the submitting thread.
struct RoundOut {
    trials: Vec<TrialOut>,
    wall: f64,
}

impl RoundOut {
    /// Seconds the trial closures ran, comparison trials included.
    fn busy(&self) -> f64 {
        self.trials
            .iter()
            .map(|t| t.secs + t.untraced.as_ref().map_or(0.0, |u| u.2))
            .sum()
    }

    /// Host seconds outside the trial closures: task, wait, merge, CSV.
    fn plumbing(&self) -> f64 {
        (self.wall - self.busy()).max(0.0)
    }

    /// Trials per second, comparison trials not counted.
    fn rate(&self) -> f64 {
        let cmp: f64 = self
            .trials
            .iter()
            .map(|t| t.untraced.as_ref().map_or(0.0, |u| u.2))
            .sum();
        rate(self.trials.len() as u64, self.wall - cmp)
    }
}

fn cell_label(s: &Settings, slot: usize, alg: Alg) -> String {
    format!(
        "{} seed={} slot={slot} alg={}",
        s.workload.name(),
        s.seed,
        alg.name()
    )
}

/// Runs round `round` of the schedule as one `SweepRunner` task, one cell
/// per slot, and waits for it.
fn run_round(
    runner: &mut SweepRunner,
    s: &Settings,
    topo: &Topology,
    round: u64,
    probed: bool,
) -> Result<RoundOut, String> {
    let schedule = s.workload.schedule();
    let labels: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(slot, &alg)| cell_label(s, slot, alg))
        .collect();
    let topo = topo.clone();
    let trace = s.workload == Workload::SingularTraced;
    let t0 = Instant::now();
    let task = runner.task(format!("round={round} probed={probed}"), move |ws| {
        let mut outs = Vec::with_capacity(schedule.len());
        for (slot, (&alg, label)) in schedule.iter().zip(&labels).enumerate() {
            let index = round * schedule.len() as u64 + slot as u64;
            let mut cell = ws.cell(label, &[round], |seed, arenas| {
                let input = TrialInput {
                    alg,
                    topo: topo.clone(),
                    seed,
                    trace,
                };
                let mut probe = probed.then(|| Probe::new(index));
                let t = Instant::now();
                let record = run_trial(&input, arenas, probe.as_mut());
                let secs = t.elapsed().as_secs_f64();
                let untraced = (probed && trace).then(|| {
                    let mut p = Probe::new(index);
                    let t = Instant::now();
                    let input = TrialInput {
                        trace: false,
                        ..input
                    };
                    let r = run_trial(&input, arenas, Some(&mut p));
                    (r, p, t.elapsed().as_secs_f64())
                });
                TrialOut {
                    index,
                    record,
                    secs,
                    probe,
                    untraced,
                }
            });
            let out = cell.pop().expect("one seed index gives one trial");
            let r = &out.record;
            ws.emit(&[
                index.to_string(),
                alg.name(),
                r.msgs.to_string(),
                r.rounds.to_string(),
                r.sim_time.to_string(),
                r.leader
                    .map_or_else(|| "none".to_string(), |l| l.to_string()),
                format!("{:?}", r.halt),
                r.valid.to_string(),
                format!("{:016x}", r.fingerprint()),
            ]);
            outs.push(out);
        }
        outs
    });
    if runner.restored_units() != 0 {
        return Err("the sweep resumed from a checkpoint; every run must start fresh".into());
    }
    let trials = runner
        .wait(task)
        .ok_or("a fresh sweep executes every unit")?;
    Ok(RoundOut {
        trials,
        wall: t0.elapsed().as_secs_f64(),
    })
}

/// Checks, counts and digests every trial a run makes.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Fingerprint of every trial by index, for the digest and for the
    /// checks that repeats of a trial agree.
    fingerprints: BTreeMap<u64, u64>,
    backend: Option<&'static str>,
    topology: Option<&'static str>,
}

impl Ledger {
    fn check(&mut self, index: u64, r: &TrialRecord, expect_backend: &'static str) {
        self.attempted += 1;
        if r.failed() {
            self.failed += 1;
            self.problems.push(format!(
                "trial {index} ({}) failed: halt {:?}, valid {}",
                r.alg.name(),
                r.halt,
                r.valid
            ));
        }
        if r.halt != crate::report::Halt::Error && r.backend != expect_backend {
            self.problems.push(format!(
                "trial {index} ran on backend {} instead of {expect_backend}",
                r.backend
            ));
        }
        self.backend.get_or_insert(r.backend);
        self.topology.get_or_insert(r.topology);
        let fp = r.fingerprint();
        match self.fingerprints.insert(index, fp) {
            Some(prev) if prev != fp => self.problems.push(format!(
                "trial {index} ({}) is not deterministic: fingerprint {prev:016x} then {fp:016x}",
                r.alg.name()
            )),
            _ => {}
        }
    }

    /// The digest over trial indices below `end`.
    fn digest(&self, end: u64) -> Digest {
        let mut d = Digest::default();
        for (&i, &fp) in self.fingerprints.range(..end) {
            d.word(i);
            d.word(fp);
        }
        d
    }
}

/// Per-layer sums over the probed trials.
#[derive(Default)]
struct Layers {
    trials: u64,
    sync_trials: u64,
    async_trials: u64,
    clean_trials: u64,
    lossy_trials: u64,
    secs: BTreeMap<&'static str, f64>,
    async_run_clean: f64,
    async_run_lossy: f64,
    sync_rounds: u64,
    sync_msgs: u64,
    async_msgs: u64,
    async_sim_time: f64,
    faults: FaultCounters,
    links: u64,
    memo_hits: u64,
    memo_misses: u64,
    table_grows: u64,
    rows_materialized: u64,
    resident_bytes: u64,
    trace_events: u64,
    trace_bytes: u64,
    traced_round: f64,
    untraced_round: f64,
    spans: SpanLog,
}

impl Layers {
    fn add(&mut self, record: &TrialRecord, probe: Probe) {
        let totals = probe.spans.totals();
        let full = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
        let own = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
        self.trials += 1;
        for (name, secs) in [
            ("ids.assign", full("ids.assign")),
            ("core.node_new", full("core.node_new")),
            ("ports.reset", full("ports.reset")),
            ("sync.build", own("sync.build")),
            ("sync.round", full("sync.round")),
            ("sync.outcome", full("sync.outcome")),
            ("async.build", own("async.build")),
            ("async.run", full("async.run")),
        ] {
            *self.secs.entry(name).or_default() += secs;
        }
        match record.alg {
            Alg::AsyncClean => {
                self.clean_trials += 1;
                self.async_run_clean += full("async.run");
            }
            Alg::AsyncLossy => {
                self.lossy_trials += 1;
                self.async_run_lossy += full("async.run");
                let (a, b) = (&mut self.faults, &record.faults);
                a.payloads += b.payloads;
                a.goodput += b.goodput;
                a.retransmits += b.retransmits;
                a.acks += b.acks;
                a.queue_drops += b.queue_drops;
                a.loss_drops += b.loss_drops;
                a.crash_drops += b.crash_drops;
                a.duplicates += b.duplicates;
                a.abandoned += b.abandoned;
            }
            _ => {}
        }
        if record.alg.is_async() {
            self.async_trials += 1;
            self.async_msgs += record.msgs;
            self.async_sim_time += record.sim_time;
        } else {
            self.sync_trials += 1;
            self.sync_rounds += record.rounds;
            self.sync_msgs += record.msgs;
        }
        self.links += probe.links;
        self.memo_hits += probe.memo_hits;
        self.memo_misses += probe.memo_misses;
        self.table_grows += probe.table_grows;
        self.rows_materialized = self.rows_materialized.max(probe.rows_materialized);
        self.resident_bytes = self.resident_bytes.max(probe.resident_bytes);
        self.trace_events += record.trace_events;
        self.trace_bytes += record.trace_bytes;
        self.spans.append(probe.spans);
    }

    /// Adds the round time of a traced trial and of its untraced twin.
    fn add_trace_pair(&mut self, traced: &Probe, untraced: &Probe) {
        let round = |p: &Probe| p.spans.totals().get("sync.round").map_or(0.0, |t| t.0);
        self.traced_round += round(traced);
        self.untraced_round += round(untraced);
    }
}

fn backend_code(name: &str) -> f64 {
    match name {
        "dense" => 1.0,
        "sparse" => 2.0,
        "chunked" => 3.0,
        _ => 0.0,
    }
}

fn topology_code(name: &str) -> f64 {
    match name {
        "clique" => 1.0,
        "ring" => 2.0,
        "torus" => 3.0,
        "regular" => 4.0,
        "edges" => 5.0,
        _ => 0.0,
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs one workload once. `process_start` is when the process began;
/// the first set-up is timed from there.
///
/// The run is split into sessions, each with a fresh `SweepRunner` and so
/// fresh arenas: set-up (graph, warm-up round), then measured rounds. The
/// first session measures exactly the digest rounds, a fixed amount of
/// work after which peak memory is read; the others share the rest of
/// `--seconds`. On the memory-bound workloads trial speed can differ by
/// tens of percent between arenas allocated afresh in one process, so
/// `trials_per_s` is the median of the sessions' rates.
pub fn run(s: &Settings, process_start: Instant) -> Result<RunResult, String> {
    let w = s.workload;
    let mut ledger = Ledger::default();
    let mut setup_secs = Vec::new();
    let mut topology_secs = Vec::new();
    let mut plumbing = 0.0;
    let mut csv_bytes = 0;
    let mut plain_rates = Vec::new();
    let mut probed_rates = Vec::new();
    let mut trial_secs = Vec::new();
    let mut layers = Layers::default();
    let mut peak_rss = 0.0;
    // A traced run alternates plain and probed rounds on fresh seeds: the
    // port map caches seed-dependent state, so re-running one seed would
    // flatter the second run.
    let min_rounds = if s.traced { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    let mut session_rates = Vec::new();
    let mut measured = Duration::ZERO;
    let mut round = 1;
    for session in 0..SESSIONS {
        let start = if session == 0 {
            process_start
        } else {
            Instant::now()
        };
        let exp = format!(
            "perfbench_{}{}_{session}",
            w.name(),
            if s.traced { "_traced" } else { "" }
        );
        // A checkpoint left by an interrupted run would make the runner
        // skip trials; remove it, and check that nothing was restored.
        let ckpt = le_bench::results_path(&format!("{exp}.ckpt"));
        if let Err(e) = std::fs::remove_file(&ckpt) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(format!("cannot remove {}: {e}", ckpt.display()));
            }
        }
        let t = Instant::now();
        let topo = w.topology(s.seed).map_err(|e| format!("topology: {e}"))?;
        topology_secs.push(t.elapsed().as_secs_f64());
        let expect_backend = PortBackend::Auto.resolve_for(topo.n(), topo.m()).name();
        let mut runner = SweepRunner::with_threads(&exp, COLUMNS, 1);
        let warm = run_round(&mut runner, s, &topo, 0, false)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        for t in &warm.trials {
            ledger.check(t.index, &t.record, expect_backend);
        }

        let measuring = Instant::now();
        let share = Duration::from_secs_f64(s.seconds).saturating_sub(measured)
            / (SESSIONS - session) as u32;
        let first = round;
        let last_session = session + 1 == SESSIONS;
        let (mut session_trials, mut session_secs) = (0, 0.0);
        loop {
            let more = if session == 0 {
                round <= DIGEST_ROUNDS
            } else {
                round == first
                    || measuring.elapsed() < share
                    || (last_session && round <= min_rounds)
            };
            if !more {
                break;
            }
            let probed = s.traced && round % 2 == 0;
            let out = run_round(&mut runner, s, &topo, round, probed)?;
            plumbing += out.plumbing();
            if probed {
                probed_rates.push(out.rate());
            } else {
                plain_rates.push(out.rate());
                session_trials += out.trials.len() as u64;
                session_secs += out.wall;
            }
            for t in out.trials {
                ledger.check(t.index, &t.record, expect_backend);
                let Some(probe) = t.probe else {
                    trial_secs.push(t.secs);
                    continue;
                };
                if let Some((r, p, _)) = t.untraced {
                    // Same seed with the program's trace off: the trace
                    // must observe without influencing.
                    ledger.check(t.index, &r, expect_backend);
                    layers.add_trace_pair(&probe, &p);
                }
                layers.add(&t.record, probe);
            }
            round += 1;
        }
        measured += measuring.elapsed();
        session_rates.push(rate(session_trials, session_secs));
        if session == 0 {
            // Read after a fixed amount of work: the chunked backend keeps
            // rows across trials, so memory at the end of the run would
            // grow with the trials a faster program runs.
            peak_rss = peak_rss_mb()?;
        }
        let t = Instant::now();
        runner.finish();
        plumbing += t.elapsed().as_secs_f64();
        let csv = le_bench::results_path(&format!("{exp}.csv"));
        csv_bytes += std::fs::metadata(&csv)
            .map_err(|e| format!("cannot stat {}: {e}", csv.display()))?
            .len();
    }

    let schedule_len = w.schedule().len() as u64;
    let measured_trials = (round - 1) * schedule_len;
    let backend = ledger.backend.unwrap_or("none");
    let topology = ledger.topology.unwrap_or("none");
    let (metrics, spans_path) = if s.traced {
        let spans_path = le_bench::results_path(&format!("perfbench_{}.spans.jsonl", w.name()));
        std::fs::write(&spans_path, layers.spans.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        let tps_plain = median(&plain_rates).unwrap_or(0.0);
        let tps_probed = median(&probed_rates).unwrap_or(0.0);
        let ctx = LayerContext {
            topology_s: median(&topology_secs).unwrap_or(0.0),
            plumbing_per_trial: plumbing / measured_trials as f64,
            csv_bytes,
            span_overhead: 1.0 - share(tps_probed, tps_plain),
            backend,
            topology,
        };
        let mut m = layer_metrics(&layers, &ctx);
        m.sort_by_key(|m| m.name);
        (m, Some(spans_path))
    } else {
        let m = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            m("setup_s", median(&setup_secs).expect("set-up ran"), "s"),
            m("trials_per_s", median(&session_rates).unwrap_or(0.0), "1/s"),
            m("peak_rss_mb", peak_rss, "MiB"),
        ];
        (metrics, None)
    };
    Ok(RunResult {
        metrics,
        attempted: ledger.attempted,
        failed: ledger.failed,
        digest: ledger.digest((DIGEST_ROUNDS + 1) * schedule_len),
        problems: ledger.problems,
        backend,
        topology,
        trial_secs,
        spans_path,
    })
}

/// Run-level figures the per-layer metrics need besides the trial sums.
struct LayerContext {
    topology_s: f64,
    plumbing_per_trial: f64,
    csv_bytes: u64,
    span_overhead: f64,
    backend: &'static str,
    topology: &'static str,
}

/// The per-layer metrics. Times and counts are means per trial of the
/// kind the layer serves (every trial, sync trials, async trials, or lossy
/// trials for `network.*`).
fn layer_metrics(l: &Layers, c: &LayerContext) -> Vec<Metric> {
    let per = |x: f64, n: u64| share(x, n as f64);
    let secs = |name: &str| l.secs.get(name).copied().unwrap_or(0.0);
    let f = &l.faults;
    let run_clean = per(l.async_run_clean, l.clean_trials);
    let run_lossy = per(l.async_run_lossy, l.lossy_trials);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("ids.assign_s", per(secs("ids.assign"), l.trials), "s"),
        m("core.node_new_s", per(secs("core.node_new"), l.trials), "s"),
        m("ports.reset_s", per(secs("ports.reset"), l.trials), "s"),
        m("ports.links", per(l.links as f64, l.trials), "count"),
        m(
            "ports.memo_hit_ratio",
            share(l.memo_hits as f64, (l.memo_hits + l.memo_misses) as f64),
            "ratio",
        ),
        m(
            "ports.table_grows",
            per(l.table_grows as f64, l.trials),
            "count",
        ),
        m(
            "ports.rows_materialized",
            l.rows_materialized as f64,
            "count",
        ),
        m(
            "ports.resident_mb",
            l.resident_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        m("ports.backend", backend_code(c.backend), "code"),
        m("ports.topology", topology_code(c.topology), "code"),
        m("sync.build_s", per(secs("sync.build"), l.sync_trials), "s"),
        m("sync.round_s", per(secs("sync.round"), l.sync_trials), "s"),
        m(
            "sync.rounds",
            per(l.sync_rounds as f64, l.sync_trials),
            "count",
        ),
        m("sync.msgs", per(l.sync_msgs as f64, l.sync_trials), "count"),
        m(
            "sync.ns_per_msg",
            1e9 * share(secs("sync.round"), l.sync_msgs as f64),
            "ns",
        ),
        m(
            "sync.outcome_s",
            per(secs("sync.outcome"), l.sync_trials),
            "s",
        ),
        m(
            "async.build_s",
            per(secs("async.build"), l.async_trials),
            "s",
        ),
        m("async.run_s.clean", run_clean, "s"),
        m("async.run_s.lossy", run_lossy, "s"),
        m(
            "async.msgs",
            per(l.async_msgs as f64, l.async_trials),
            "count",
        ),
        m(
            "async.ns_per_msg",
            1e9 * share(secs("async.run"), l.async_msgs as f64),
            "ns",
        ),
        m(
            "async.sim_time",
            per(l.async_sim_time, l.async_trials),
            "time_units",
        ),
        m(
            "network.retransmits",
            per(f.retransmits as f64, l.lossy_trials),
            "count",
        ),
        m("network.acks", per(f.acks as f64, l.lossy_trials), "count"),
        m(
            "network.drops",
            per(f.drops() as f64, l.lossy_trials),
            "count",
        ),
        m(
            "network.duplicates",
            per(f.duplicates as f64, l.lossy_trials),
            "count",
        ),
        m(
            "network.abandoned",
            per(f.abandoned as f64, l.lossy_trials),
            "count",
        ),
        m(
            "network.goodput_ratio",
            share(f.goodput as f64, (f.payloads + f.overhead()) as f64),
            "ratio",
        ),
        m(
            "network.cost_s",
            if l.lossy_trials > 0 {
                run_lossy - run_clean
            } else {
                0.0
            },
            "s",
        ),
        m(
            "trace.events",
            per(l.trace_events as f64, l.trials),
            "count",
        ),
        m("trace.bytes", per(l.trace_bytes as f64, l.trials), "B"),
        m(
            "trace.overhead_ratio",
            share(l.traced_round, l.untraced_round),
            "ratio",
        ),
        m("topology.build_s", c.topology_s, "s"),
        m("bench.plumbing_s", c.plumbing_per_trial, "s"),
        m("bench.csv_bytes", c.csv_bytes as f64, "B"),
        m("harness.span_overhead_frac", c.span_overhead, "ratio"),
    ]
}

/// The median and quartiles of per-trial seconds, for the report.
pub fn trial_time_summary(secs: &[f64]) -> String {
    match (median(secs), quartiles(secs)) {
        (Some(med), Some([q1, _, q3])) => format!(
            "trial_s median {med:.4} q1 {q1:.4} q3 {q3:.4} over {} measured trials",
            secs.len()
        ),
        _ => format!("trial_s over {} measured trials", secs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn reported_metrics_are_the_ones_the_spec_lists() {
        let spec = include_str!("../../BENCHMARK.json");
        let ctx = LayerContext {
            topology_s: 0.0,
            plumbing_per_trial: 0.0,
            csv_bytes: 0,
            span_overhead: 0.0,
            backend: "none",
            topology: "none",
        };
        let layer = layer_metrics(&Layers::default(), &ctx);
        let mut names: Vec<&str> = layer.iter().map(|m| m.name).collect();
        names.extend(["setup_s", "trials_per_s", "peak_rss_mb"]);
        for m in &layer {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                m.unit
            );
        }
        for name in &names {
            assert!(valid_name(name), "{name:?}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not in BENCHMARK.json"
            );
        }
        let listed = spec.matches("\"name\": ").count();
        assert_eq!(
            listed,
            names.len() + Workload::ALL.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }
}
