//! Race the two asynchronous algorithms of Section 5 under different delay
//! adversaries: Algorithm 2 (Theorem 5.1, `k + 8` time / `O(n^{1+1/k})`
//! messages, adversarial wake-up) versus the asynchronized Afek–Gafni
//! algorithm (Theorem 5.14, `O(log n)` time / `O(n·log n)` messages,
//! simultaneous wake-up).
//!
//! ```text
//! cargo run --release --example async_race
//! ```

use improved_le::algorithms::asynchronous::{afek_gafni, tradeoff};
use improved_le::analysis::table::fmt_count;
use improved_le::analysis::Table;
use improved_le::asynchronous::{
    AsyncSimBuilder, AsyncWakeSchedule, BimodalDelay, ConstDelay, DelayStrategy, UniformDelay,
};
use improved_le::model::NodeIndex;

fn delay_for(name: &str) -> Box<dyn DelayStrategy> {
    match name {
        "uniform(0,1]" => Box::new(UniformDelay::full()),
        "const(1) worst-case" => Box::new(ConstDelay::max()),
        _ => Box::new(BimodalDelay::new(0.5, 0.05, 1.0)),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `LE_N` overrides the network size (the smoke tests shrink it).
    let n: usize = std::env::var("LE_N")
        .ok()
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(512);
    let delays = ["uniform(0,1]", "const(1) worst-case", "bimodal rushing"];

    let mut table = Table::new(vec![
        "algorithm",
        "delay adversary",
        "time",
        "messages",
        "unique leader?",
    ]);
    table.title(format!("Asynchronous clique, n = {n}"));

    for delay_name in delays {
        for k in [2usize, 4] {
            let outcome = AsyncSimBuilder::new(n)
                .seed(9)
                .wake(AsyncWakeSchedule::single(NodeIndex(0)))
                .delays(delay_for(delay_name))
                .build(|_, _| tradeoff::Node::new(tradeoff::Config::new(k)))?
                .run()?;
            table.add_row(vec![
                format!("Thm 5.1, k={k} (1 woken)"),
                delay_name.into(),
                format!("{:.2} (bound {})", outcome.time, k + 8),
                fmt_count(outcome.stats.total() as f64),
                if outcome.validate_implicit().is_ok() {
                    "yes".into()
                } else {
                    "no (whp failure)".into()
                },
            ]);
        }
        let outcome = AsyncSimBuilder::new(n)
            .seed(9)
            .wake(AsyncWakeSchedule::simultaneous(n))
            .delays(delay_for(delay_name))
            .build(afek_gafni::Node::new)?
            .run()?;
        table.add_row(vec![
            "Thm 5.14 async AG (all woken)".into(),
            delay_name.into(),
            format!("{:.2} (O(log n))", outcome.time),
            fmt_count(outcome.stats.total() as f64),
            if outcome.validate_implicit().is_ok() {
                "yes (always)".into()
            } else {
                "BUG".into()
            },
        ]);
    }
    println!("{table}");
    println!(
        "Algorithm 2 buys constant time with extra messages (n^(1+1/k)); the \
         asynchronized Afek–Gafni algorithm spends O(log n) time to get down \
         to O(n·log n) messages — the asynchronous face of the same tradeoff."
    );
    Ok(())
}
