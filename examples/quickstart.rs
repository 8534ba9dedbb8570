//! Quickstart: elect a leader on a 128-node clique with the paper's
//! improved deterministic tradeoff (Theorem 3.10) and print what happened.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use improved_le::algorithms::sync::improved_tradeoff::{Config, Node};
use improved_le::sync::SyncSimBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `LE_N` overrides the network size (the smoke tests shrink it).
    let n: usize = std::env::var("LE_N")
        .ok()
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(128);
    let rounds = 5; // any odd ℓ ≥ 3; more rounds → fewer messages

    let cfg = Config::with_rounds(rounds);
    let outcome = SyncSimBuilder::new(n)
        .seed(42)
        .build(|id, n| Node::new(id, n, cfg))?
        .run()?;

    // The engine checked nothing for us — validate the election spec.
    outcome.validate_explicit()?;

    let leader = outcome.unique_leader().expect("validated above");
    println!("network size     : {n}");
    println!("round budget ℓ   : {rounds}");
    println!(
        "elected leader   : {} (simulator position {leader})",
        outcome.ids.id_of(leader)
    );
    println!("rounds used      : {}", outcome.rounds);
    println!("messages sent    : {}", outcome.stats.total());
    println!(
        "theory envelope  : O(ℓ·n^(1+2/(ℓ+1))) = {:.0}",
        cfg.predicted_messages(n)
    );
    println!(
        "busiest node sent: {} messages",
        outcome.stats.max_by_any_node()
    );
    Ok(())
}
