//! Every `examples/` binary must keep running end-to-end — example rot is
//! a tier-1 failure, not a doc nit.
//!
//! Each example honours the `LE_N` environment override, so the whole
//! sweep runs on a 32-node clique and finishes in seconds. Examples run
//! through `cargo run --example` in the same profile as this test, so the
//! artifacts are already cached by the time the suite executes.

use std::process::{Command, Output};

const EXAMPLES: [&str; 5] = [
    "quickstart",
    "tradeoff_explorer",
    "adversarial_wakeup",
    "async_race",
    "lower_bound_adversary",
];

/// Runs example `name` with `LE_N` set to `le_n`.
fn run_example(name: &str, le_n: &str) -> Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.arg("run");
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    cmd.args(["--example", name])
        .env("LE_N", le_n)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"))
}

/// One test for all five examples: examples share the cargo build lock, so
/// running them serially inside a single test avoids lock contention with
/// the parallel test harness.
#[test]
fn all_examples_run_on_a_small_clique() {
    for name in EXAMPLES {
        let output = run_example(name, "32");
        assert!(
            output.status.success(),
            "example {name} failed with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "example {name} printed nothing on stdout"
        );
    }
}

/// A malformed `LE_N` is an error, not a silent fall-back to the default
/// size.
#[test]
fn malformed_le_n_fails_loudly() {
    for name in EXAMPLES {
        let output = run_example(name, "abc");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success() && stderr.contains("ParseIntError"),
            "example {name} accepted LE_N=abc ({})\n--- stderr ---\n{stderr}",
            output.status,
        );
    }
}
