//! Reproduces Theorem 3.16: the Θ(n) Las Vegas message complexity versus
//! the Θ(√n·log^{3/2} n) Monte Carlo cost of \[16\] — a polynomial gap —
//! plus the Las Vegas guarantees themselves (never fails, 3 rounds whp).
//!
//! Expected shape: the fitted scaling exponent of the Las Vegas algorithm
//! approaches 1 (announcement-dominated), the Monte Carlo exponent stays
//! near 1/2 (plus polylog drift), and the Las Vegas cost always clears the
//! Ω(n) lower-bound line while the Monte Carlo cost dives under it.

use clique_sync::{SyncArena, SyncSimBuilder};
use le_analysis::regression::fit_power_law;
use le_analysis::stats::Summary;
use le_analysis::table::fmt_count;
use le_analysis::Table;
use le_bench::{seeds, sweep, SweepRunner};
use le_bounds::formulas;
use leader_election::sync::las_vegas;
use leader_election::sync::sublinear_mc;

fn measure_lv(n: usize, seed: u64, arena: &mut SyncArena) -> (u64, usize) {
    let outcome = SyncSimBuilder::new(n)
        .seed(seed)
        .build_in(arena, |id, _| {
            las_vegas::Node::new(id, las_vegas::Config::default())
        })
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    outcome
        .validate_explicit()
        .expect("Las Vegas algorithms never fail");
    (outcome.stats.total(), outcome.rounds)
}

fn measure_mc(n: usize, seed: u64, arena: &mut SyncArena) -> (u64, bool) {
    let outcome = SyncSimBuilder::new(n)
        .seed(seed)
        .build_in(arena, |_, _| {
            sublinear_mc::Node::new(sublinear_mc::Config::default())
        })
        .expect("valid configuration")
        .run_reusing(arena)
        .expect("no resolver faults");
    (outcome.stats.total(), outcome.validate_implicit().is_ok())
}

fn main() {
    // The full sweep reaches 65536: the default `auto` backend resolves
    // to the sparse port-map store past the dense budget, so the cells at
    // n ≥ 32768 hold O(touched-state) memory and the ~120 GB the dense
    // tables would need at 65536 is never allocated (see EXPERIMENTS.md;
    // `peak_resident_bytes` records what the backend actually held per
    // row).
    let ns = sweep(&[256usize, 1024, 4096, 16384, 32768, 65536], &[256, 1024]);
    let seed_list = seeds(if le_bench::quick() { 5 } else { 20 });

    let mut runner = SweepRunner::new(
        "exp_lasvegas",
        &[
            "n",
            "lv_messages_mean",
            "lv_rounds_max",
            "mc_messages_mean",
            "mc_success_rate",
            "lv_lower_bound",
            "mc16_bound",
        ],
    );

    // One task per n (both algorithm cells), returning the table row plus
    // the two fit points.
    let mut handles = Vec::new();
    for &n in &ns {
        let seed_list = seed_list.clone();
        handles.push(runner.task(format!("n={n}"), move |ws| {
            let lv = ws.cell(format!("n={n} alg=las_vegas"), &seed_list, |s, arenas| {
                measure_lv(n, s, &mut arenas.sync)
            });
            let mc = ws.cell(
                format!("n={n} alg=sublinear_mc"),
                &seed_list,
                |s, arenas| measure_mc(n, s, &mut arenas.sync),
            );
            let lv_msgs = Summary::from_counts(&lv.iter().map(|r| r.0).collect::<Vec<_>>())
                .expect("non-empty");
            let lv_rounds_max = lv.iter().map(|r| r.1).max().expect("non-empty");
            let mc_msgs = Summary::from_counts(&mc.iter().map(|r| r.0).collect::<Vec<_>>())
                .expect("non-empty");
            let mc_ok =
                le_analysis::stats::success_rate(&mc.iter().map(|r| r.1).collect::<Vec<_>>());
            let lv_floor = formulas::lasvegas_message_lower_bound(n);
            assert!(
                lv_msgs.min >= lv_floor,
                "a Las Vegas run sent fewer than the Ω(n) floor"
            );
            ws.emit(&[
                n.to_string(),
                lv_msgs.mean.to_string(),
                lv_rounds_max.to_string(),
                mc_msgs.mean.to_string(),
                mc_ok.to_string(),
                lv_floor.to_string(),
                formulas::mc16_message_upper_bound(n).to_string(),
            ]);
            let row = vec![
                n.to_string(),
                fmt_count(lv_msgs.mean),
                lv_rounds_max.to_string(),
                fmt_count(mc_msgs.mean),
                format!("{:.0}%", mc_ok * 100.0),
                fmt_count(lv_floor),
                fmt_count(formulas::mc16_message_upper_bound(n)),
            ];
            (row, (n as f64, lv_msgs.mean), (n as f64, mc_msgs.mean))
        }));
    }

    let mut table = Table::new(vec![
        "n",
        "LV msgs (mean)",
        "LV rounds (max)",
        "MC msgs (mean)",
        "MC success",
        "Ω(n)/4 floor",
        "√n·log^{3/2}n",
    ]);
    table.title(format!(
        "Las Vegas vs Monte Carlo (Theorem 3.16 vs [16]; {} seeds per n)",
        seed_list.len()
    ));

    let mut lv_points: Vec<(f64, f64)> = Vec::new();
    let mut mc_points: Vec<(f64, f64)> = Vec::new();
    let mut restored = 0;
    for handle in handles {
        match runner.wait(handle) {
            Some((row, lv_point, mc_point)) => {
                table.add_row(row);
                lv_points.push(lv_point);
                mc_points.push(mc_point);
            }
            None => restored += 1,
        }
    }
    println!("{table}");
    if restored > 0 {
        println!(
            "({restored} row(s) restored from a checkpointed run; see the CSV — \
             scaling fits skipped)"
        );
    } else {
        let (xs, ys): (Vec<f64>, Vec<f64>) = lv_points.iter().copied().unzip();
        if let Some(fit) = fit_power_law(&xs, &ys) {
            println!("Las Vegas scaling: {fit} — expected exponent → 1 (linear)");
        }
        let (xs, ys): (Vec<f64>, Vec<f64>) = mc_points.iter().copied().unzip();
        if let Some(fit) = fit_power_law(&xs, &ys) {
            println!("Monte Carlo scaling: {fit} — expected exponent → 0.5 + polylog drift");
        }
    }
    runner.finish();
}
