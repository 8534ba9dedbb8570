//! The repository's benchmark: four seeded leader-election workloads,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced run. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tradeoff_dense --seed 1 --seconds 16 --trace 0
//! ```
//!
//! `--workload all` runs every workload, untraced and traced, each in a
//! process of its own.

mod harness;
mod report;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::Settings;
use report::result_json;
use workloads::Workload;

/// Digests of the simulated outputs, one `workload seed digest` per line.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

/// The command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The first `LE_*` variable set in the environment, if any. The library
/// latches these knobs process-wide and each one changes what runs.
fn ambient_knob(
    vars: impl Iterator<Item = (std::ffi::OsString, std::ffi::OsString)>,
) -> Option<String> {
    vars.map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("LE_"))
}

/// The recorded digest for `workload` at `seed`, if there is one.
fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED_DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| f.next())
            .flatten()
    })
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the source came from, or `unknown` outside a git checkout.
fn commit() -> String {
    let git = package_dir().join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let process_start = spans::epoch();
    // SweepRunner writes its CSV and checkpoint here, never to `results/`.
    std::env::set_var("LE_RESULTS_DIR", package_dir().join("out"));
    let settings = Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let result = match harness::run(&settings, process_start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    let mut problems = result.problems.clone();
    let digest = result.digest.hex();
    match recorded_digest(workload.name(), args.seed) {
        Some(want) if want != digest => problems.push(format!(
            "sim_digest {digest} does not match the recorded {want} for seed {}",
            args.seed
        )),
        _ => {}
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "config {{\"workload\": \"{}\", \"n\": {}, \"seed\": {}, \"backend\": \"{}\", \"topology\": \"{}\", \
         \"threads\": 1, \"nproc\": {nproc}, \"commit\": \"{}\", \"trace\": {}}}",
        workload.name(),
        workload.n(),
        args.seed,
        result.backend,
        result.topology,
        commit(),
        u8::from(args.trace),
    );
    println!("sim_digest {digest}");
    println!("{}", harness::trial_time_summary(&result.trial_secs));
    if let Some(p) = &result.spans_path {
        println!("spans written to {}", p.display());
    }
    println!("{:<28} {:>16} unit", "metric", "value");
    println!(
        "{:<28} {:>16.6} ratio",
        "failed_frac",
        report::share(result.failed as f64, result.attempted as f64)
    );
    for m in &result.metrics {
        let shown = match m.name {
            "ports.backend" => format!(" ({})", result.backend),
            "ports.topology" => format!(" ({})", result.topology),
            _ => String::new(),
        };
        println!("{:<28} {:>16.6} {}{shown}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("perfbench: {}: {p}", workload.name());
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        result_json(correct, result.attempted, result.failed, &result.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload, untraced then traced, each in its own process so
/// that peak memory belongs to one workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut failures = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!("== {} --trace {trace}", w.name());
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => failures.push(format!("{} --trace {trace}: {s}", w.name())),
                Err(e) => failures.push(format!("{} --trace {trace}: {e}", w.name())),
            }
        }
    }
    if failures.is_empty() {
        println!("all workloads passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perfbench: failed: {f}");
        }
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    spans::epoch();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <all|{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = ambient_knob(std::env::vars_os()) {
        eprintln!("perfbench: refusing to start: {var} is set, and LE_* variables change the program; unset it");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    match Workload::parse(&args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("perfbench: unknown workload {:?}", args.workload);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::valid_name;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(argv(
            "--workload async_faults --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "async_faults".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(argv("--workload x --trace 2")).is_err());
        assert!(parse_args(argv("--workload x --seconds 0")).is_err());
        assert!(
            parse_args(argv("--seed 1")).is_err(),
            "workload is required"
        );
        assert!(parse_args(argv("--workload x --bogus 1")).is_err());
    }

    #[test]
    fn refuses_ambient_le_variables() {
        let vars = |ks: &[&str]| {
            ks.iter()
                .map(|k| (k.into(), "1".into()))
                .collect::<Vec<(std::ffi::OsString, std::ffi::OsString)>>()
        };
        assert_eq!(ambient_knob(vars(&["PATH", "HOME"]).into_iter()), None);
        assert_eq!(
            ambient_knob(vars(&["PATH", "LE_BACKEND"]).into_iter()),
            Some("LE_BACKEND".into())
        );
    }

    #[test]
    fn workload_names_are_valid_and_round_trip() {
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }

    #[test]
    fn recorded_digests_parse() {
        for line in RECORDED_DIGESTS.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{line:?}");
            assert!(Workload::parse(f[0]).is_some(), "{line:?}");
            assert_eq!(recorded_digest(f[0], f[1].parse().unwrap()), Some(f[2]));
            assert_eq!(f[2].len(), 16);
        }
    }
}
