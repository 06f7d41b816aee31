//! **E17 — extension: source sensitivity.** The paper's quantities
//! `T(α, G, u)` are per-source; how much does the choice of `u` matter?
//! On vertex-transitive graphs (cycle, hypercube) not at all; on the
//! star, the diamond chain, and preferential-attachment graphs, hub
//! versus periphery placement changes constants (and on the diamond
//! chain, endpoint vs center halves the distance). This experiment
//! measures best/worst source spreads for both models.

use rumor_core::asynchronous::AsyncView;
use rumor_core::runner::{default_max_steps, run_trials_parallel};
use rumor_core::spec::default_sync_rounds;
use rumor_core::{run_async, run_sync, Mode};
use rumor_graph::{generators, Graph, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;
use rumor_sim::stats::OnlineStats;

use crate::experiments::common::{mix_seed, ExperimentConfig};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE17;

struct Case {
    name: &'static str,
    graph: Graph,
    /// (label, source) pairs to compare.
    sources: Vec<(&'static str, Node)>,
}

fn cases(n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<Case> {
    let (k, m) = generators::diamond_parameters(n);
    let pa = generators::preferential_attachment(n, 2, rng);
    // The highest-degree PA node is a hub; the last added is peripheral.
    let hub = pa.nodes().max_by_key(|&v| pa.degree(v)).expect("non-empty");
    vec![
        Case {
            name: "star",
            graph: generators::star(n),
            sources: vec![("center", 0), ("leaf", 1)],
        },
        Case {
            name: "diamonds",
            graph: generators::string_of_diamonds(k, m),
            sources: vec![("mid-hub", (k / 2) as Node), ("end-hub", 0)],
        },
        Case {
            name: "pref-attach-2",
            graph: pa,
            sources: vec![("hub", hub), ("periphery", (n - 1) as Node)],
        },
        Case {
            name: "hypercube",
            graph: generators::hypercube((n as f64).log2() as u32),
            sources: vec![("corner-0", 0), ("corner-1", 1)],
        },
    ]
}

/// Runs E17 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E17 / extension: how much does the source vertex matter?",
        &["graph", "n", "source", "E[T_sync]", "E[T_async]"],
    );
    let n = if cfg.full_scale { 512 } else { 64 };
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x6F7);
    for case in cases(n, &mut graph_rng) {
        let budget_sync = default_sync_rounds(&case.graph);
        let budget_async = default_max_steps(&case.graph);
        for (label, source) in &case.sources {
            let g = &case.graph;
            let sync: OnlineStats =
                run_trials_parallel(cfg.trials, mix_seed(cfg, SALT), cfg.threads, |_, rng| {
                    run_sync(g, *source, Mode::PushPull, rng, budget_sync).rounds as f64
                })
                .into_iter()
                .collect();
            let asy: OnlineStats =
                run_trials_parallel(cfg.trials, mix_seed(cfg, SALT + 1), cfg.threads, |_, rng| {
                    run_async(g, *source, Mode::PushPull, AsyncView::GlobalClock, rng, budget_async)
                        .time
                })
                .into_iter()
                .collect();
            table.add_row(vec![
                case.name.to_owned(),
                case.graph.node_count().to_string(),
                (*label).to_owned(),
                fmt_f(sync.mean(), 2),
                fmt_f(asy.mean(), 2),
            ]);
        }
    }
    table.add_note(
        "vertex-transitive rows (hypercube) are source-independent; hub placement helps elsewhere",
    );
    table
}

/// Mean sync times for the two sources of a named case (test hook).
pub fn case_pair(table: &Table, name: &str, col: usize) -> Vec<f64> {
    (0..table.row_count())
        .filter(|&r| table.cell(r, 0) == Some(name))
        .map(|r| table.cell(r, col).unwrap().parse().unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_is_source_insensitive_and_diamonds_is_not() {
        let cfg = ExperimentConfig::quick().with_trials(60);
        let table = run(&cfg);
        let hc = case_pair(&table, "hypercube", 3);
        assert_eq!(hc.len(), 2);
        assert!((hc[0] - hc[1]).abs() / hc[0] < 0.15, "hypercube sources should agree: {hc:?}");
        let di = case_pair(&table, "diamonds", 3);
        // End hub must be slower than the middle hub (twice the distance).
        assert!(di[1] > 1.2 * di[0], "diamond end-hub {di:?} should clearly exceed mid-hub");
    }
}
