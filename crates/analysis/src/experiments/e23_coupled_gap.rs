//! **E23 — the sync-vs-async gap on shared topology traces.** The
//! paper's proofs are coupling arguments: two processes driven by
//! shared randomness so their spreading times compare *pathwise*. An
//! independent-runs design asks the sync-vs-async question on dynamic
//! topologies with **independent** realizations — statistically the
//! weakest possible design, and unfaithful to the proof technique. This
//! experiment uses the real thing: per trial, one topology realization
//! is recorded as a `TopologyTrace` and **both** protocols run on it —
//! the synchronous rounds engine snapshotting the trace at round
//! boundaries, the asynchronous engine replaying it event-exactly —
//! with a common protocol seed (common random numbers).
//!
//! The table reports, per dynamic model, the paired async/sync ratio
//! together with **both** 95 % confidence intervals computed from the
//! same 400 trials: the paired delta-method interval (covariance kept)
//! and the interval an independent-runs design is limited to
//! (covariance dropped). Their quotient, the *shrink* column, is the
//! variance reduction the coupling buys; it equals 1 exactly when the
//! trace realization carries no spreading-time variance.
//!
//! Model parameters are chosen in the **persistent-trace** regimes
//! where topology realizations matter: slow failure/recovery
//! edge-Markov churn, *sub-connectivity* rewiring snapshots (each
//! snapshot leaves nodes isolated, so spreading is gated by the trace's
//! temporal connectivity — the Pourmiri–Mans regime), slow random
//! walks, mobility at matched density, and the frontier adversary. The
//! adversary is necessarily recorded **obliviously** (informed view
//! frozen to the source — a trace shared between two protocols cannot
//! react to either one's informed set), and its near-1 shrink is itself
//! the finding: obliviousness is exactly what strips the adversary of
//! its power, the converse of E22's adaptive-adversary slowdown.

use rumor_core::dynamic::{
    Adversary, DynamicModel, EdgeMarkov, Mobility, RandomWalk, Rewire, SnapshotFamily,
};
use rumor_core::spec::{GraphSpec, Protocol, SimSpec, Topology};
use rumor_graph::Graph;

use crate::experiments::common::{mix_seed, ExperimentConfig};
use crate::paired::PairedSamples;
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE23;

/// The five dynamic models of the coupled sweep, parameterized for
/// persistent traces on base graph `g` (see the module docs).
pub fn coupled_models(g: &Graph) -> Vec<(&'static str, DynamicModel)> {
    let n = g.node_count() as f64;
    // Snapshots far below the connectivity threshold: every snapshot
    // leaves Theta(n^0.65) nodes isolated, so the tail of both runs
    // waits for the same straggler-connection windows of the trace.
    let sub_connectivity = 0.35 * n.ln() / n;
    vec![
        ("markov", DynamicModel::EdgeMarkov(EdgeMarkov { off_rate: 0.25, on_rate: 0.1 })),
        (
            "rewire",
            DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: sub_connectivity })),
        ),
        ("walk", DynamicModel::RandomWalk(RandomWalk::new(0.5))),
        ("mobility", DynamicModel::Mobility(Mobility::matching_density(g, 0.5, 0.1))),
        ("adversary", DynamicModel::Adversary(Adversary::new(0.5, 16, 6.0))),
    ]
}

/// Recording horizon for size `n`: far beyond the expected spreading
/// time of every model in the sweep; the topology freezes past it
/// (runs that outlive it are disclosed through the censored column).
pub fn horizon(n: usize) -> f64 {
    24.0 * (n as f64).ln()
}

/// Asynchronous step budget for size `n` (shared with CLI `--coupled`).
pub fn max_steps(n: usize) -> u64 {
    4_000 * n as u64
}

/// Synchronous round budget (shared with CLI `--coupled`).
pub const MAX_ROUNDS: u64 = 20_000;

/// The (serializable) graph of the size-`n` sweep: a `G(n, p)` just
/// above the connectivity threshold, seeded from the experiment seed —
/// so a committed `.spec` artifact reproduces the exact experiment
/// graph with no side channel.
pub fn graph_spec(n: usize, cfg: &ExperimentConfig) -> GraphSpec {
    // Sparser than E22's base (1.05 vs 2 ln n / n): the closer the
    // base sits to the connectivity threshold, the more of the
    // spreading-time variance the topology realization carries.
    let p = 1.05 * (n as f64).ln() / n as f64;
    GraphSpec::Gnp { n, p, seed: mix_seed(cfg, SALT) ^ 0x23D ^ n as u64, attempts: 200 }
}

/// The complete, serializable run spec of one E23 cell: size `n`,
/// dynamic model `model_name` (a [`coupled_models`] key), under `cfg`'s
/// trial plan. This is what [`run`] executes per cell and what the
/// committed `specs/` artifacts are generated from — `run --spec`
/// replays a table line byte-for-byte.
///
/// # Panics
///
/// Panics if `model_name` is not a sweep key or the graph spec fails to
/// resolve (both are bugs in the caller).
pub fn cell_spec(n: usize, model_name: &str, cfg: &ExperimentConfig) -> SimSpec {
    let graph = graph_spec(n, cfg);
    let g = graph.resolve().expect("E23 graph specs resolve");
    cell_spec_on(graph, &g, model_name, cfg)
}

/// [`cell_spec`] with the graph already resolved (`g` must be
/// `graph.resolve()`'s output) — lets [`run`] resolve each size's graph
/// once instead of once per cell.
fn cell_spec_on(graph: GraphSpec, g: &Graph, model_name: &str, cfg: &ExperimentConfig) -> SimSpec {
    let n = g.node_count();
    let model = coupled_models(g)
        .into_iter()
        .find(|(name, _)| *name == model_name)
        .unwrap_or_else(|| panic!("unknown E23 model `{model_name}`"))
        .1;
    SimSpec::new(graph)
        .protocol(Protocol::push_pull_async())
        .topology(Topology::Model(model))
        .coupled(true)
        .horizon(horizon(n))
        .max_steps(max_steps(n))
        .max_rounds(MAX_ROUNDS)
        .trials(cfg.trials)
        .seed(mix_seed(cfg, SALT))
        .threads(cfg.threads)
}

/// Runs E23 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E23 / coupled traces: paired sync-vs-async on shared topology realizations (versus an independent-runs design)",
        &[
            "n",
            "model",
            "E[rounds_sync]",
            "E[T_async]",
            "async/sync",
            "corr",
            "ci95 paired",
            "ci95 indep",
            "shrink",
            "censored",
        ],
    );
    let sizes: Vec<usize> = if cfg.full_scale { vec![64, 256] } else { vec![48] };
    for &n in &sizes {
        let graph = graph_spec(n, cfg);
        let g = graph.resolve().expect("E23 graph specs resolve");
        let mut add_row = |name: &str, spec: SimSpec| {
            let report = spec.build().expect("valid E23 spec").run();
            let samples =
                PairedSamples::from_coupled(report.coupled_outcomes().expect("coupled report"));
            let cell = |v: Option<f64>, d: usize| match v {
                Some(x) => fmt_f(x, d),
                None => "-".to_owned(),
            };
            table.add_row(vec![
                n.to_string(),
                name.to_owned(),
                cell(samples.mean_sync(), 3),
                cell(samples.mean_async(), 3),
                cell(samples.ratio_of_means(), 3),
                cell(samples.correlation(), 3),
                cell(samples.paired_ci_half_width(), 4),
                cell(samples.unpaired_ci_half_width(), 4),
                cell(samples.ci_shrink_factor(), 3),
                samples.censored.to_string(),
            ]);
        };
        for (name, _) in coupled_models(&g) {
            add_row(name, cell_spec_on(graph.clone(), &g, name, cfg));
        }
        // The complement-seed satellite: the slow-churn model re-run
        // with complement-seed pairs on the same traces — protocol
        // noise halves, so the paired CI must narrow further at equal
        // trial count.
        add_row("markov+anti", cell_spec_on(graph.clone(), &g, "markov", cfg).antithetic(true));
    }
    table.add_note(
        "per trial one TopologyTrace is recorded and BOTH protocols run on it with a common \
         protocol seed; `ci95 paired` keeps the covariance between the columns, `ci95 indep` \
         drops it — the interval an independent-runs design is limited to at the same trial \
         count; `shrink` = indep/paired",
    );
    table.add_note(
        "1 synchronous round corresponds to 1 asynchronous time unit (footnote 3); the trace \
         advances to time r-1 before round r",
    );
    table.add_note(&format!(
        "trace horizon 24 ln n (topology freezes beyond it); rewire snapshots are drawn at the \
         sub-connectivity density 0.35 ln n / n, so spreading is gated by the trace's temporal \
         connectivity (both runs wait for the same straggler-connection windows); {}",
        "the adversary is recorded obliviously (informed view frozen to the source)"
    ));
    table.add_note(
        "censored = trials where either run exhausted its budget; such trials are excluded from \
         the pairing, never averaged",
    );
    table.add_note(
        "markov+anti re-runs the markov row with complement-seed pairs: each trace is \
         recorded once and both protocols run twice (seed and complement-seed), reporting pair \
         averages — protocol-clock noise halves, so its paired CI is narrower than markov's at \
         the same trial count",
    );
    table
}

/// Test hook: `(model, ci-shrink factor)` pairs for the size-`n` rows.
/// Degenerate cells (`"-"`, rendered when a row has no estimate) come
/// back as NaN so callers see the data condition, not a parse panic.
pub fn shrink_factors(table: &Table, n: usize) -> Vec<(String, f64)> {
    numeric_column(table, n, 8)
}

/// Test hook: `(model, async/sync ratio)` pairs for the size-`n` rows;
/// `"-"` cells come back as NaN (see [`shrink_factors`]).
pub fn paired_ratios(table: &Table, n: usize) -> Vec<(String, f64)> {
    numeric_column(table, n, 4)
}

fn numeric_column(table: &Table, n: usize, col: usize) -> Vec<(String, f64)> {
    (0..table.row_count())
        .filter(|&r| table.cell(r, 0) == Some(n.to_string().as_str()))
        .map(|r| {
            let value = table.cell(r, col).unwrap().parse().unwrap_or(f64::NAN);
            (table.cell(r, 1).unwrap().to_owned(), value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_sweep_runs_and_the_coupling_buys_variance() {
        let cfg = ExperimentConfig::quick().with_trials(60);
        let table = run(&cfg);
        let ratios = paired_ratios(&table, 48);
        let names: Vec<&str> = ratios.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(names, ["markov", "rewire", "walk", "mobility", "adversary", "markov+anti"]);
        for (name, r) in &ratios {
            assert!(*r > 0.3 && *r < 3.0, "{name}: implausible paired ratio {r}");
        }
        let shrinks = shrink_factors(&table, 48);
        // Slow churn leaves the most shared variance in the trace: the
        // paired CI must be strictly narrower than the independent one.
        let markov = shrinks.iter().find(|(m, _)| m == "markov").unwrap().1;
        assert!(markov > 1.05, "markov shrink {markov} should demonstrate the coupling");
        // Across the sweep the coupling must help on average (a weakly
        // coupled model can sit near 1, never systematically below).
        let mean_shrink: f64 = shrinks.iter().map(|(_, s)| s).sum::<f64>() / shrinks.len() as f64;
        assert!(mean_shrink > 1.0, "mean shrink {mean_shrink} <= 1: coupling bought nothing");
    }

    /// The complement-seed satellite: pair-averaged protocol runs on
    /// shared traces reduce the paired interval further at equal trial
    /// count.
    #[test]
    fn complement_seed_pairs_shrink_the_paired_interval() {
        let cfg = ExperimentConfig::quick().with_trials(60);
        let n = 48;
        let ci = |spec: SimSpec| {
            let report = spec.build().unwrap().run();
            PairedSamples::from_coupled(report.coupled_outcomes().unwrap())
                .paired_ci_half_width()
                .expect("quick E23 markov runs complete")
        };
        let plain = ci(cell_spec(n, "markov", &cfg));
        let anti = ci(cell_spec(n, "markov", &cfg).antithetic(true));
        assert!(
            anti < plain,
            "complement-seed pairing must narrow the paired CI: anti {anti} vs plain {plain}"
        );
    }
}
