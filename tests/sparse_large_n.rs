//! Large-`n` smoke test for the hashed (sparse) port-map backend: one
//! Las Vegas trial at `n = 65536` — the size where the dense tables
//! would need ~120 GB — must elect a leader within a generous wall-clock
//! budget and a sparse-sized memory footprint.
//!
//! Ignored by default so tier-1 wall-clock stays flat; CI runs it
//! explicitly (release profile) as the large-n regression gate:
//!
//! ```sh
//! cargo test --release --test sparse_large_n -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};

use improved_le::model::PortBackend;
use improved_le::sync::{SyncArena, SyncSimBuilder};

#[test]
#[ignore = "large-n smoke: run explicitly (CI) in release mode"]
fn sparse_backend_elects_at_n_65536_within_budget() {
    const N: usize = 65536;
    // One-core CI runners are slow; the reference box does one trial in
    // ~1 s. The budget guards against quadratic regressions (a dense-like
    // O(n²) sweep would blow far past it), not against runner jitter.
    const BUDGET: Duration = Duration::from_secs(300);

    let started = Instant::now();
    let mut arena = SyncArena::new();
    let outcome = SyncSimBuilder::new(N)
        .seed(0)
        .backend(PortBackend::Sparse)
        .build_in(&mut arena, |id, _| {
            improved_le::algorithms::sync::las_vegas::Node::new(
                id,
                improved_le::algorithms::sync::las_vegas::Config::default(),
            )
        })
        .expect("valid configuration")
        .run_reusing(&mut arena)
        .expect("no resolver faults");
    let elapsed = started.elapsed();

    outcome
        .validate_explicit()
        .expect("Las Vegas elects explicitly");
    assert!(outcome.rounds <= 3, "Las Vegas exceeded 3 rounds");

    let resident = arena.resident_bytes();
    let dense = PortBackend::dense_table_bytes(N);
    println!(
        "n = {N} (sparse): {} messages, {} rounds, {elapsed:?}, {:.1} MB resident \
         (dense tables would be {:.1} GB)",
        outcome.stats.total(),
        outcome.rounds,
        resident as f64 / 1e6,
        dense as f64 / 1e9,
    );
    assert!(
        elapsed < BUDGET,
        "large-n trial took {elapsed:?}, budget {BUDGET:?}"
    );
    // The whole point of the backend: touched state only. One trial's
    // footprint must sit orders of magnitude below the dense tables.
    assert!(
        resident * 100 < dense,
        "sparse resident {resident} B is not far below dense {dense} B"
    );
}
