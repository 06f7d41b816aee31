//! **E21 — the engine layer: sharded PDES exactness, within-trial
//! speedup, and lazy-clock bookkeeping.** Three claims about the
//! engines built in the `rumor_core::engine` refactor:
//!
//! * **K = 1 replay** — the sharded conservative-lookahead engine with
//!   one shard replays the sequential dynamic engine *seed-for-seed*:
//!   every trial's outcome (spreading time, informed trace) and final
//!   RNG state are compared bit-for-bit, and the `E[T]` ratio is
//!   exactly 1. This is the sharding analogue of E19's churn-0 row.
//! * **K > 1 exactness-in-distribution + within-trial speedup** — more
//!   shards sample the *same* process law (means agree within
//!   Monte-Carlo error) while spreading one trial across worker
//!   threads. Wall-clock per trial and local-events-per-window are
//!   reported on a necklace-of-cliques, the low-cut regime where
//!   conservative PDES has parallelism to harvest; speedup is capped by
//!   the build machine's available parallelism (reported in the notes),
//!   whereas events/window is hardware-independent headroom.
//! * **lazy clocks** — the lazy per-edge-clock edge-Markov engine
//!   agrees with the eager sequential engine in distribution while
//!   drawing *no flips up front*: its topology bookkeeping is the
//!   number of edges actually touched. At full scale the table includes
//!   an `n = 10⁶` run that is far outside the eager engine's practical
//!   envelope.

use std::time::Instant;

use rumor_core::dynamic::{run_dynamic, DynamicModel, EdgeMarkov};
use rumor_core::engine::{run_dynamic_sharded, run_edge_markov_lazy};
use rumor_core::spec::{Engine, Protocol, SimSpec, Topology};
use rumor_core::{runner, Mode, NoProbe};
use rumor_graph::generators;
use rumor_sim::rng::{SeedStream, Xoshiro256PlusPlus};
use rumor_sim::stats::OnlineStats;

use crate::experiments::common::{
    default_threads, mix_seed, ratio_cell, CensoredSamples, ExperimentConfig,
};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE21;

/// Shard counts swept in the speedup part (quick configs use a prefix).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs E21 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E21 / engines: sharded PDES replays K=1 seed-for-seed and parallelizes one trial; lazy clocks make bookkeeping O(touched)",
        &["part", "config", "metric", "engine", "reference", "ratio"],
    );
    part_exactness(cfg, &mut table);
    part_speedup(cfg, &mut table);
    part_lazy(cfg, &mut table);
    table.add_note(
        "exact: K=1 rows compare the sharded engine against run_dynamic per trial, bit-for-bit \
         (outcome, informed trace, final RNG state); `bit-identical trials` must equal the trial \
         count and the E[T] ratio is exactly 1.000",
    );
    table.add_note(
        "speedup: ms/trial is wall-clock on the build machine and is capped by its available \
         parallelism; events/window is the hardware-independent measure of how much local work \
         each synchronization window amortizes (the partition-cut property that makes sharding \
         pay off)",
    );
    table
        .add_note(&format!("build machine available parallelism: {} thread(s)", default_threads()));
    table.add_note(
        "speedup above 1 is possible even single-threaded: a fully informed shard freezes \
         (its remaining local events are provably no-ops), while the sequential engine must \
         simulate every tick until global completion",
    );
    table.add_note(
        "lazy: clocks touched vs base edges is the engine's whole topology bookkeeping; the \
         eager engine keeps a table of every base edge and draws every flip instead",
    );
    table
}

/// K = 1 bit-exactness and K > 1 agreement in distribution.
fn part_exactness(cfg: &ExperimentConfig, table: &mut Table) {
    let n = if cfg.full_scale { 96 } else { 48 };
    let p = 2.0 * (n as f64).ln() / n as f64;
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x21A);
    let g = generators::gnp_connected(n, p, &mut graph_rng, 200);
    let model = DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 1.0, on_rate: 1.0 });
    let max_steps = runner::default_max_steps(&g).saturating_mul(8);
    let config = format!("gnp-{n} nu=1");

    // Per-trial bit comparison at K = 1, including the final RNG state.
    // Censored trials still compare bit-for-bit but are excluded from
    // the E[T] columns (their times are lower bounds, not samples).
    let mut identical = 0usize;
    let mut seq_outcomes = Vec::with_capacity(cfg.trials);
    let mut k1_outcomes = Vec::with_capacity(cfg.trials);
    let seeds: Vec<u64> = SeedStream::new(mix_seed(cfg, SALT)).take(cfg.trials).collect();
    for &seed in &seeds {
        let mut a = Xoshiro256PlusPlus::seed_from(seed);
        let seq = run_dynamic(&g, 0, Mode::PushPull, &model, &mut a, max_steps);
        let mut b = Xoshiro256PlusPlus::seed_from(seed);
        let sharded = run_dynamic_sharded(&g, 0, Mode::PushPull, &model, 1, &mut b, max_steps);
        if sharded.outcome == seq && a.next_u64() == b.next_u64() {
            identical += 1;
        }
        seq_outcomes.push((seq.time, seq.completed));
        k1_outcomes.push((sharded.outcome.time, sharded.outcome.completed));
    }
    let seq_stats = CensoredSamples::from_outcomes(&seq_outcomes);
    let k1_stats = CensoredSamples::from_outcomes(&k1_outcomes);
    table.add_row(vec![
        "exact".into(),
        config.clone(),
        "bit-identical trials (K=1)".into(),
        identical.to_string(),
        cfg.trials.to_string(),
        fmt_f(identical as f64 / cfg.trials as f64, 3),
    ]);
    table.add_row(vec![
        "exact".into(),
        config.clone(),
        "E[T] K=1".into(),
        k1_stats.mean_cell(3),
        seq_stats.mean_cell(3),
        ratio_cell(k1_stats.mean_completed(), seq_stats.mean_completed(), 3),
    ]);

    // K > 1: same law, independent samples.
    for k in [2usize, 4] {
        let stats = CensoredSamples::from_report(
            &SimSpec::on_graph(&g)
                .protocol(Protocol::push_pull_async())
                .topology(Topology::Model(model))
                .engine(Engine::Sharded { shards: k })
                .trials(cfg.trials)
                .seed(mix_seed(cfg, SALT + k as u64))
                .max_steps(max_steps)
                .build()
                .expect("valid E21 sharded spec")
                .run(),
        );
        table.add_row(vec![
            "exact".into(),
            config.clone(),
            format!("E[T] K={k} ({} censored)", stats.censored),
            stats.mean_cell(3),
            seq_stats.mean_cell(3),
            ratio_cell(stats.mean_completed(), seq_stats.mean_completed(), 3),
        ]);
    }
}

/// Wall-clock per trial and events per window across shard counts, on a
/// low-cut topology (a necklace of cliques partitioned at the bridges).
fn part_speedup(cfg: &ExperimentConfig, table: &mut Table) {
    let (cliques, size, trials, shard_counts): (usize, usize, usize, &[usize]) =
        if cfg.full_scale { (8, 512, 3, &SHARD_COUNTS) } else { (4, 64, 2, &SHARD_COUNTS[..3]) };
    let g = generators::necklace_of_cliques(cliques, size);
    let n = g.node_count();
    let config = format!("necklace {cliques}x{size}");
    let max_steps = runner::default_max_steps(&g);
    let seeds: Vec<u64> = SeedStream::new(mix_seed(cfg, SALT + 100)).take(trials).collect();

    let mut base_ms = f64::NAN;
    for &k in shard_counts {
        let mut windows = OnlineStats::new();
        let mut times = OnlineStats::new();
        let started = Instant::now();
        for &seed in &seeds {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            let out = run_dynamic_sharded(
                &g,
                0,
                Mode::PushPull,
                &DynamicModel::Static,
                k,
                &mut rng,
                max_steps,
            );
            assert!(out.outcome.completed, "speedup run must complete (n = {n}, K = {k})");
            windows.push(out.events_per_window());
            times.push(out.outcome.time);
        }
        let ms_per_trial = started.elapsed().as_secs_f64() * 1e3 / trials as f64;
        if k == 1 {
            base_ms = ms_per_trial;
        }
        table.add_row(vec![
            "speedup".into(),
            config.clone(),
            format!("ms/trial K={k}"),
            fmt_f(ms_per_trial, 1),
            fmt_f(base_ms, 1),
            fmt_f(base_ms / ms_per_trial, 2),
        ]);
        table.add_row(vec![
            "speedup".into(),
            config.clone(),
            format!("events/window K={k}"),
            fmt_f(windows.mean(), 0),
            "-".into(),
            "-".into(),
        ]);
    }
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
    fn k1_is_bit_exact_and_engines_agree() {
        let cfg = ExperimentConfig::quick().with_trials(30);
        let table = run(&cfg);

        let exact = part_ratios(&table, "exact");
        let (bit_metric, bit_ratio) = &exact[0];
        assert!(bit_metric.contains("bit-identical"));
        assert_eq!(bit_ratio, "1.000", "every K=1 trial must replay bit-for-bit");
        let (_, k1_ratio) = &exact[1];
        assert_eq!(k1_ratio, "1.000", "K=1 E[T] ratio must be exactly 1");
        for (metric, ratio) in &exact[2..] {
            let r: f64 = ratio.parse().unwrap();
            assert!((r - 1.0).abs() < 0.25, "{metric} ratio {r} too far from 1");
        }

        let lazy = part_ratios(&table, "lazy");
        let (_, lazy_ratio) = &lazy[0];
        let r: f64 = lazy_ratio.parse().unwrap();
        assert!((r - 1.0).abs() < 0.25, "lazy/eager ratio {r} too far from 1");
        let (_, touched_ratio) = &lazy[1];
        let tr: f64 = touched_ratio.parse().unwrap();
        assert!(tr > 0.0 && tr <= 1.0, "touched fraction {tr} out of range");

        // Speedup rows exist for every swept shard count.
        let speedup = part_ratios(&table, "speedup");
        assert_eq!(speedup.len(), 2 * 3, "ms/trial + events/window per K");
    }
}
