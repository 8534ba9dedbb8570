//! The Section 4 scenario: the adversary wakes an arbitrary subset of the
//! clique, everyone else is asleep, and the 2-round algorithm of
//! Theorem 4.1 must elect a leader (and wake the whole network) at
//! Θ(n^{3/2}) message cost — whatever subset the adversary picks.
//!
//! ```text
//! cargo run --release --example adversarial_wakeup
//! ```

use improved_le::algorithms::sync::two_round_adversarial::{Config, Node};
use improved_le::analysis::stats::{success_rate, Summary};
use improved_le::analysis::table::fmt_count;
use improved_le::analysis::Table;
use improved_le::model::rng::rng_from_seed;
use improved_le::sync::{SyncSimBuilder, WakeSchedule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `LE_N` overrides the network size (the smoke tests shrink it).
    let n: usize = std::env::var("LE_N")
        .ok()
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(1024);
    let epsilon = 0.0625;
    let trials = 25;

    let mut table = Table::new(vec![
        "adversary wakes",
        "success rate",
        "guarantee 1-ε-1/n",
        "messages (mean)",
        "all awake after",
    ]);
    table.title(format!(
        "Theorem 4.1's 2-round algorithm, n = {n}, ε = {epsilon} ({trials} trials)"
    ));

    let mut wake_rng = rng_from_seed(123);
    for (label, size) in [
        ("1 node", 1usize),
        ("√n nodes", (n as f64).sqrt().ceil() as usize),
        ("n/2 nodes", n / 2),
        ("every node", n),
    ] {
        let mut wins = Vec::new();
        let mut msgs = Vec::new();
        let mut awake = Vec::new();
        for seed in 0..trials {
            let wake = if size == n {
                WakeSchedule::simultaneous(n)
            } else {
                WakeSchedule::random_subset(n, size, &mut wake_rng)
            };
            let outcome = SyncSimBuilder::new(n)
                .seed(seed)
                .wake(wake)
                .max_rounds(2)
                .build(|_, _| Node::new(Config::new(epsilon)))?
                .run()?;
            wins.push(outcome.validate_implicit().is_ok());
            msgs.push(outcome.stats.total());
            awake.push(outcome.all_awake());
        }
        let msg_summary = Summary::from_counts(&msgs).expect("trials > 0");
        table.add_row(vec![
            label.into(),
            format!("{:.0}%", success_rate(&wins) * 100.0),
            format!("{:.1}%", (1.0 - epsilon - 1.0 / n as f64) * 100.0),
            fmt_count(msg_summary.mean),
            format!("{:.0}% of runs", success_rate(&awake) * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "Theorem 4.2 says no 2-round algorithm can do better than \
         Ω(n^(3/2)) = {} expected messages — the cost above is the price of \
         finishing in two rounds.",
        fmt_count((n as f64).powf(1.5)),
    );
    Ok(())
}
