//! **E8 — social-network topologies (§1).** On Chung–Lu power-law graphs
//! and preferential-attachment graphs, the asynchronous protocol spreads
//! the rumor to a large fraction of the nodes significantly faster than
//! the synchronous one (Fountoulakis–Panagiotou–Sauerwald 2012,
//! Doerr–Fouz–Friedrich 2012) — the observation that sparked interest in
//! the asynchronous model.
//!
//! For each topology we measure the time to inform 50 %, 99 %, and 100 %
//! of the nodes under both models. Asynchrony's advantage concentrates in
//! the large-fraction regime; the final stragglers can erase it at 100 %.

use rumor_core::asynchronous::AsyncView;
use rumor_core::runner::{default_max_steps, run_trials_parallel};
use rumor_core::spec::default_sync_rounds;
use rumor_core::{run_async, run_sync, Mode};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;
use rumor_sim::stats::OnlineStats;

use crate::experiments::common::{mix_seed, ExperimentConfig, SuiteEntry};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE8;

/// Per-model mean times to reach 50 % / 99 % / 100 % informed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionTimes {
    /// Mean time to 50 % informed.
    pub half: f64,
    /// Mean time to 99 % informed.
    pub most: f64,
    /// Mean time to 100 % informed.
    pub all: f64,
}

fn sync_fraction_times(entry: &SuiteEntry, cfg: &ExperimentConfig, salt: u64) -> FractionTimes {
    let budget = default_sync_rounds(&entry.graph);
    let rows = run_trials_parallel(cfg.trials, mix_seed(cfg, salt), cfg.threads, |_, rng| {
        let out = run_sync(&entry.graph, entry.source, Mode::PushPull, rng, budget);
        (
            out.rounds_to_fraction(0.5).expect("completed") as f64,
            out.rounds_to_fraction(0.99).expect("completed") as f64,
            out.rounds_to_fraction(1.0).expect("completed") as f64,
        )
    });
    collect(rows)
}

fn async_fraction_times(entry: &SuiteEntry, cfg: &ExperimentConfig, salt: u64) -> FractionTimes {
    let budget = default_max_steps(&entry.graph);
    let rows = run_trials_parallel(cfg.trials, mix_seed(cfg, salt), cfg.threads, |_, rng| {
        let out = run_async(
            &entry.graph,
            entry.source,
            Mode::PushPull,
            AsyncView::GlobalClock,
            rng,
            budget,
        );
        (
            out.time_to_fraction(0.5).expect("completed"),
            out.time_to_fraction(0.99).expect("completed"),
            out.time_to_fraction(1.0).expect("completed"),
        )
    });
    collect(rows)
}

fn collect(rows: Vec<(f64, f64, f64)>) -> FractionTimes {
    let half: OnlineStats = rows.iter().map(|r| r.0).collect();
    let most: OnlineStats = rows.iter().map(|r| r.1).collect();
    let all: OnlineStats = rows.iter().map(|r| r.2).collect();
    FractionTimes { half: half.mean(), most: most.mean(), all: all.mean() }
}

/// Runs E8 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E8 / social networks: time to inform 50% / 99% / 100% of nodes",
        &["graph", "n", "model", "t(50%)", "t(99%)", "t(100%)"],
    );
    let n = if cfg.full_scale { 2000 } else { 300 };
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x687);
    let entries = vec![
        SuiteEntry {
            name: "chung-lu-2.5",
            graph: generators::chung_lu_giant(n, 2.5, 8.0, 0.7, &mut graph_rng),
            source: 0,
        },
        SuiteEntry {
            name: "pref-attach-2",
            graph: generators::preferential_attachment(n, 2, &mut graph_rng),
            source: (n - 1) as u32,
        },
    ];
    for entry in &entries {
        let s = sync_fraction_times(entry, cfg, SALT);
        let a = async_fraction_times(entry, cfg, SALT + 1);
        let n_actual = entry.graph.node_count().to_string();
        table.add_row(vec![
            entry.name.to_owned(),
            n_actual.clone(),
            "sync".into(),
            fmt_f(s.half, 2),
            fmt_f(s.most, 2),
            fmt_f(s.all, 2),
        ]);
        table.add_row(vec![
            entry.name.to_owned(),
            n_actual,
            "async".into(),
            fmt_f(a.half, 2),
            fmt_f(a.most, 2),
            fmt_f(a.all, 2),
        ]);
    }
    table.add_note("paper's claim: async beats sync at large fractions on these topologies");
    table
}

/// Extracts the (sync, async) mean times at a fraction column for a given
/// family (test hook). `col` is 3 (50 %), 4 (99 %) or 5 (100 %).
pub fn model_pair(table: &Table, family: &str, col: usize) -> Option<(f64, f64)> {
    let mut sync = None;
    let mut asy = None;
    for r in 0..table.row_count() {
        if table.cell(r, 0) == Some(family) {
            let value: f64 = table.cell(r, col)?.parse().ok()?;
            match table.cell(r, 2)? {
                "sync" => sync = Some(value),
                "async" => asy = Some(value),
                _ => {}
            }
        }
    }
    Some((sync?, asy?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_is_faster_to_the_bulk_on_social_graphs() {
        let cfg = ExperimentConfig::quick().with_trials(50);
        let table = run(&cfg);
        for family in ["chung-lu-2.5", "pref-attach-2"] {
            let (sync_most, async_most) = model_pair(&table, family, 4).expect("rows present");
            assert!(
                async_most < sync_most * 1.1,
                "{family}: async t(99%) = {async_most} not faster than sync {sync_most}"
            );
        }
    }
}
