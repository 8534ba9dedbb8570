//! Explore the paper's central message–time tradeoff interactively: sweep
//! the round budget ℓ and watch messages fall, for both the improved
//! algorithm (Theorem 3.10) and the Afek–Gafni baseline, against the
//! Theorem 3.8 lower-bound curve.
//!
//! ```text
//! cargo run --release --example tradeoff_explorer [n]
//! ```

use improved_le::algorithms::sync::{afek_gafni, improved_tradeoff};
use improved_le::analysis::table::fmt_count;
use improved_le::analysis::Table;
use improved_le::bounds::formulas;
use improved_le::sync::SyncSimBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // CLI argument first, then the `LE_N` override (the smoke tests
    // shrink it), then the default.
    let n: usize = match std::env::args().nth(1) {
        Some(a) => a.parse()?,
        None => std::env::var("LE_N")
            .ok()
            .map(|v| v.parse())
            .transpose()?
            .unwrap_or(1024),
    };

    let mut table = Table::new(vec![
        "ℓ",
        "Thm 3.10 (measured)",
        "AG [1] @ ℓ+1 (measured)",
        "LB Thm 3.8",
        "saving vs AG",
    ]);
    table.title(format!("Messages vs round budget, n = {n}"));

    for ell in [3usize, 5, 7, 9, 11, 13] {
        let improved = {
            let cfg = improved_tradeoff::Config::with_rounds(ell);
            let outcome = SyncSimBuilder::new(n)
                .seed(7)
                .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))?
                .run()?;
            outcome.validate_explicit()?;
            outcome.stats.total()
        };
        let baseline = {
            let cfg = afek_gafni::Config::with_rounds(ell + 1);
            let outcome = SyncSimBuilder::new(n)
                .seed(7)
                .build(|id, n| afek_gafni::Node::new(id, n, cfg))?
                .run()?;
            outcome.validate_explicit()?;
            outcome.stats.total()
        };
        table.add_row(vec![
            ell.to_string(),
            fmt_count(improved as f64),
            fmt_count(baseline as f64),
            fmt_count(formulas::thm38_message_lower_bound(n, ell)),
            format!("{:.0}%", (1.0 - improved as f64 / baseline as f64) * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "Both algorithms trade rounds for messages; the improved exponent \
         1+2/(ℓ+1) (vs 1+2/ℓ) is why the savings column stays positive even \
         though the baseline gets an extra round."
    );
    Ok(())
}
