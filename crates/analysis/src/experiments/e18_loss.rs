//! **E18 — extension: robustness to message loss.** Every contact
//! independently fails with probability `p`. Since the protocols are
//! memoryless, a loss rate `p` thins the transmission processes by
//! `1 − p`, so on graphs without bottlenecks spreading times should grow
//! roughly like `1/(1 − p)` — gossip degrades *gracefully*, one of its
//! classic selling points (Demers et al. 1987). This experiment sweeps
//! `p` and fits the scaling.

use rumor_core::runner::{default_max_steps, run_trials_parallel};
use rumor_core::spec::default_sync_rounds;
use rumor_core::spread::SpreadConfig;
use rumor_core::sync::run_sync_probed;
use rumor_core::{run_async_probed, AsyncView, NoProbe};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;
use rumor_sim::stats::OnlineStats;

use crate::experiments::common::{mix_seed, ExperimentConfig, SuiteEntry};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE18;

/// Loss rates swept.
pub const LOSS_RATES: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// Runs E18 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E18 / extension: spreading time under per-contact loss p",
        &["graph", "n", "model", "p=0", "p=0.25", "p=0.5", "p=0.75", "T(0.5)/T(0)"],
    );
    let n = if cfg.full_scale { 256 } else { 64 };
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x707);
    let entries = vec![
        SuiteEntry {
            name: "hypercube",
            graph: generators::hypercube((n as f64).log2() as u32),
            source: 0,
        },
        SuiteEntry {
            name: "gnp",
            graph: generators::gnp_connected(
                n,
                2.0 * (n as f64).ln() / n as f64,
                &mut graph_rng,
                200,
            ),
            source: 0,
        },
        SuiteEntry { name: "complete", graph: generators::complete(n), source: 0 },
    ];
    for entry in &entries {
        let n_str = entry.graph.node_count().to_string();
        for model in ["sync", "async"] {
            let mut cells = vec![entry.name.to_owned(), n_str.clone(), model.to_owned()];
            let mut means = Vec::new();
            for (i, &loss) in LOSS_RATES.iter().enumerate() {
                let spread = SpreadConfig::new(entry.source).with_loss_probability(loss);
                let g = &entry.graph;
                let mean: OnlineStats = run_trials_parallel(
                    cfg.trials,
                    mix_seed(cfg, SALT + i as u64),
                    cfg.threads,
                    |_, rng| {
                        if model == "sync" {
                            let budget = default_sync_rounds(g);
                            run_sync_probed(g, &spread, rng, budget, &mut NoProbe).rounds as f64
                        } else {
                            let (view, budget) = (AsyncView::GlobalClock, default_max_steps(g));
                            run_async_probed(g, &spread, view, rng, budget, &mut NoProbe).time
                        }
                    },
                )
                .into_iter()
                .collect();
                means.push(mean.mean());
                cells.push(fmt_f(mean.mean(), 2));
            }
            cells.push(fmt_f(means[2] / means[0], 3));
            table.add_row(cells);
        }
    }
    table.add_note("memoryless thinning predicts T(p) ~ T(0)/(1-p): T(0.5)/T(0) ~ 2");
    table
}

/// The `T(0.5)/T(0)` column (test hook).
pub fn degradation_ratios(table: &Table) -> Vec<f64> {
    (0..table.row_count()).map(|r| table.cell(r, 7).unwrap().parse().unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_graceful_and_near_double_at_half_loss() {
        let cfg = ExperimentConfig::quick().with_trials(60);
        let table = run(&cfg);
        for (i, ratio) in degradation_ratios(&table).iter().enumerate() {
            assert!(
                (1.3..3.0).contains(ratio),
                "row {i}: T(0.5)/T(0) = {ratio}, expected graceful ~2x degradation"
            );
        }
    }

    #[test]
    fn loss_columns_increase_monotonically() {
        let cfg = ExperimentConfig::quick().with_trials(40);
        let table = run(&cfg);
        for r in 0..table.row_count() {
            let ts: Vec<f64> = (3..7).map(|c| table.cell(r, c).unwrap().parse().unwrap()).collect();
            assert!(
                ts.windows(2).all(|w| w[0] < w[1]),
                "row {r}: times not increasing in loss: {ts:?}"
            );
        }
    }
}
