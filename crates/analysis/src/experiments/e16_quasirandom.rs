//! **E16 — extension: quasirandom rumor spreading.** The paper cites the
//! quasirandom protocol (Doerr et al., \[11\]) as part of the experimental
//! literature on rumor spreading. Each node cycles deterministically
//! through its neighbor list from a random starting point — `n` random
//! offsets replace `n` random choices *per round* — yet spreading times
//! match the fully random protocol up to small constants. This
//! experiment measures that ratio across the suite.

use rumor_core::quasirandom::run_quasirandom_sync;
use rumor_core::runner::run_trials_parallel;
use rumor_core::spec::default_sync_rounds;
use rumor_core::{run_sync, Mode};
use rumor_sim::rng::Xoshiro256PlusPlus;
use rumor_sim::stats::OnlineStats;

use crate::experiments::common::{mix_seed, standard_suite, ExperimentConfig};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE16;

/// Runs E16 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E16 / extension: quasirandom vs fully random push-pull (sync rounds)",
        &["graph", "n", "E[random]", "E[quasirandom]", "quasi/random"],
    );
    let n = if cfg.full_scale { 256 } else { 64 };
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x6E7);
    for entry in standard_suite(n, &mut graph_rng) {
        let budget = default_sync_rounds(&entry.graph);
        let random: OnlineStats =
            run_trials_parallel(cfg.trials, mix_seed(cfg, SALT), cfg.threads, |_, rng| {
                run_sync(&entry.graph, entry.source, Mode::PushPull, rng, budget).rounds as f64
            })
            .into_iter()
            .collect();
        let quasi: OnlineStats =
            run_trials_parallel(cfg.trials, mix_seed(cfg, SALT + 1), cfg.threads, |_, rng| {
                run_quasirandom_sync(&entry.graph, entry.source, Mode::PushPull, rng, budget).rounds
                    as f64
            })
            .into_iter()
            .collect();
        table.add_row(vec![
            entry.name.to_owned(),
            entry.graph.node_count().to_string(),
            fmt_f(random.mean(), 2),
            fmt_f(quasi.mean(), 2),
            fmt_f(quasi.mean() / random.mean(), 3),
        ]);
    }
    table.add_note("known result: quasirandom matches random up to constants, often winning");
    table
}

/// The ratio column (test hook).
pub fn ratios(table: &Table) -> Vec<f64> {
    (0..table.row_count()).map(|r| table.cell(r, 4).unwrap().parse().unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasirandom_within_constants_of_random() {
        let cfg = ExperimentConfig::quick().with_trials(60);
        let table = run(&cfg);
        for (i, ratio) in ratios(&table).iter().enumerate() {
            assert!(
                (0.3..2.0).contains(ratio),
                "row {i}: quasirandom/random ratio {ratio} out of the constant band"
            );
        }
    }
}
