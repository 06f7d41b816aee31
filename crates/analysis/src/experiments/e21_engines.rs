//! **E21 — the engine layer: lazy-clock bookkeeping.** The lazy
//! per-edge-clock edge-Markov engine agrees with the eager sequential
//! engine in distribution while drawing *no flips up front*: its
//! topology bookkeeping is the number of edges actually touched. At
//! full scale the table includes an `n = 10⁶` run that is far outside
//! the eager engine's practical envelope.

use rumor_core::dynamic::{DynamicModel, EdgeMarkov};
use rumor_core::engine::run_edge_markov_lazy;
use rumor_core::spec::{Engine, Protocol, SimSpec, Topology};
use rumor_core::{runner, Mode, NoProbe};
use rumor_graph::generators;
use rumor_sim::rng::Xoshiro256PlusPlus;

use crate::experiments::common::{mix_seed, ratio_cell, CensoredSamples, ExperimentConfig};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE21;

/// Runs E21 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E21 / engines: lazy clocks agree with the eager engine and make bookkeeping O(touched)",
        &["part", "config", "metric", "engine", "reference", "ratio"],
    );
    part_lazy(cfg, &mut table);
    table.add_note(
        "lazy: clocks touched vs base edges is the engine's whole topology bookkeeping; the \
         eager engine keeps a table of every base edge and draws every flip instead",
    );
    table
}

/// Lazy-clock engine vs the eager sequential engine, plus the large-n
/// feasibility run at full scale.
fn part_lazy(cfg: &ExperimentConfig, table: &mut Table) {
    let n = if cfg.full_scale { 4096 } else { 256 };
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x21C);
    let g = generators::random_regular_connected(n, 6, &mut graph_rng, 500);
    let model = EdgeMarkov::symmetric(0.5);
    let trials = cfg.trials.min(200);
    let max_steps = runner::default_max_steps(&g);
    let config = format!("rr6-{n} nu=0.5");

    let base_spec = |engine: Engine, salt: u64| {
        SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .topology(Topology::Model(DynamicModel::EdgeMarkov(model)))
            .engine(engine)
            .trials(trials)
            .seed(mix_seed(cfg, salt))
            .max_steps(max_steps)
            .build()
            .expect("valid E21 lazy spec")
    };
    let lazy_stats = CensoredSamples::from_report(&base_spec(Engine::Lazy, SALT + 200).run());
    let eager_stats =
        CensoredSamples::from_report(&base_spec(Engine::Sequential, SALT + 201).run());
    table.add_row(vec![
        "lazy".into(),
        config.clone(),
        "E[T] lazy vs eager".into(),
        lazy_stats.mean_cell(3),
        eager_stats.mean_cell(3),
        ratio_cell(lazy_stats.mean_completed(), eager_stats.mean_completed(), 3),
    ]);
    let probe = run_edge_markov_lazy(
        &g,
        0,
        Mode::PushPull,
        model,
        &mut Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT + 202)),
        max_steps,
        &mut NoProbe,
    );
    table.add_row(vec![
        "lazy".into(),
        config,
        "clocks touched".into(),
        probe.clocks_touched.to_string(),
        probe.base_edges.to_string(),
        fmt_f(probe.clocks_touched as f64 / probe.base_edges as f64, 3),
    ]);

    if cfg.full_scale {
        // The run the eager engine cannot do: one million nodes under
        // churn, one trial, no pending-flip queue at all.
        let big_n = 1_000_000;
        let mut big_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x21F);
        let big = generators::random_regular_connected(big_n, 6, &mut big_rng, 50);
        let out = run_edge_markov_lazy(
            &big,
            0,
            Mode::PushPull,
            model,
            &mut Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT + 203)),
            400_000_000,
            &mut NoProbe,
        );
        assert!(out.completed, "n = 10^6 lazy run must complete");
        let config = format!("rr6-{big_n} nu=0.5");
        table.add_row(vec![
            "lazy".into(),
            config.clone(),
            "T (1 trial, n=10^6)".into(),
            fmt_f(out.time, 3),
            "-".into(),
            "-".into(),
        ]);
        table.add_row(vec![
            "lazy".into(),
            config.clone(),
            "steps (1 trial)".into(),
            out.steps.to_string(),
            "-".into(),
            "-".into(),
        ]);
        table.add_row(vec![
            "lazy".into(),
            config,
            "clocks touched".into(),
            out.clocks_touched.to_string(),
            out.base_edges.to_string(),
            fmt_f(out.clocks_touched as f64 / out.base_edges as f64, 3),
        ]);
    }
}

/// Test hook: the (metric, ratio) pairs of a part's rows.
pub fn part_ratios(table: &Table, part: &str) -> Vec<(String, String)> {
    (0..table.row_count())
        .filter(|&r| table.cell(r, 0) == Some(part))
        .map(|r| (table.cell(r, 2).unwrap().to_owned(), table.cell(r, 5).unwrap().to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_engine_agrees_with_eager_and_touches_a_fraction() {
        let cfg = ExperimentConfig::quick().with_trials(30);
        let table = run(&cfg);

        let lazy = part_ratios(&table, "lazy");
        let (_, lazy_ratio) = &lazy[0];
        let r: f64 = lazy_ratio.parse().unwrap();
        assert!((r - 1.0).abs() < 0.25, "lazy/eager ratio {r} too far from 1");
        let (_, touched_ratio) = &lazy[1];
        let tr: f64 = touched_ratio.parse().unwrap();
        assert!(tr > 0.0 && tr <= 1.0, "touched fraction {tr} out of range");
    }
}
