//! **E10 — the auxiliary-process sandwich.** Lemma 6 states
//! `T(ppx) ≼ T(pp)` (stochastic domination); Lemmas 9/10 then place `ppy`
//! and `pp-a` within a constant factor plus `O(log n)`.
//!
//! We sample all three synchronous processes and report their means plus
//! the *domination violation*: `max_t (F̂_pp(t) − F̂_ppx(t))`, which would
//! be ≈ 0 under Lemma 6 (up to Monte-Carlo noise); a genuinely faster
//! `pp` would make it large and positive.

use rumor_core::aux::{run_aux, AuxKind};
use rumor_core::runner::run_trials_parallel;
use rumor_core::spec::default_sync_rounds;
use rumor_core::{run_sync, Mode};
use rumor_sim::rng::Xoshiro256PlusPlus;
use rumor_sim::stats::{Ecdf, OnlineStats};

use crate::experiments::common::{mix_seed, standard_suite, ExperimentConfig, SuiteEntry};
use crate::table::{fmt_f, Table};

const SALT: u64 = 0xE10;

fn sample_rounds<F>(entry: &SuiteEntry, cfg: &ExperimentConfig, salt: u64, f: F) -> Vec<f64>
where
    F: Fn(&SuiteEntry, &mut Xoshiro256PlusPlus, u64) -> u64 + Sync,
{
    let budget = default_sync_rounds(&entry.graph);
    run_trials_parallel(cfg.trials, mix_seed(cfg, salt), cfg.threads, |_, rng| {
        f(entry, rng, budget) as f64
    })
}

/// `max_t (F̂_b(t) − F̂_a(t))`: how much the law of sample `b` sits to the
/// left of (is faster than) sample `a`. Lemma 6 with `a = ppx`, `b = pp`
/// predicts a value ≈ 0.
pub fn domination_violation(a: &[f64], b: &[f64]) -> f64 {
    let fa = Ecdf::new(a);
    let fb = Ecdf::new(b);
    let mut worst = f64::NEG_INFINITY;
    for &t in fa.values().iter().chain(fb.values()) {
        worst = worst.max(fb.eval(t) - fa.eval(t));
    }
    worst
}

/// Runs E10 and returns the table.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E10 / Lemma 6 sandwich: ppx dominated-by pp, with ppy placed above",
        &["graph", "n", "E[ppx]", "E[pp]", "E[ppy]", "violation(ppx<=pp)"],
    );
    let n = if cfg.full_scale { 256 } else { 48 };
    let mut graph_rng = Xoshiro256PlusPlus::seed_from(mix_seed(cfg, SALT) ^ 0x6A7);
    let mut worst: f64 = f64::NEG_INFINITY;
    for entry in standard_suite(n, &mut graph_rng) {
        let ppx = sample_rounds(&entry, cfg, SALT, |e, rng, budget| {
            run_aux(&e.graph, e.source, AuxKind::Ppx, rng, budget).rounds
        });
        let ppy = sample_rounds(&entry, cfg, SALT + 1, |e, rng, budget| {
            run_aux(&e.graph, e.source, AuxKind::Ppy, rng, budget).rounds
        });
        let pp = sample_rounds(&entry, cfg, SALT + 2, |e, rng, budget| {
            run_sync(&e.graph, e.source, Mode::PushPull, rng, budget).rounds
        });
        let violation = domination_violation(&ppx, &pp);
        worst = worst.max(violation);
        let m = |s: &[f64]| s.iter().copied().collect::<OnlineStats>().mean();
        table.add_row(vec![
            entry.name.to_owned(),
            entry.graph.node_count().to_string(),
            fmt_f(m(&ppx), 2),
            fmt_f(m(&pp), 2),
            fmt_f(m(&ppy), 2),
            fmt_f(violation, 3),
        ]);
    }
    table.add_note(&format!(
        "Lemma 6: T(ppx) is stochastically dominated by T(pp); worst violation = {} (Monte-Carlo noise only)",
        fmt_f(worst, 3)
    ));
    table.add_note("Lemma 9 places E[ppy] <= 2*E[ppx] + O(log n)");
    table
}

/// Largest domination violation in the table (test hook).
pub fn worst_violation(table: &Table) -> f64 {
    (0..table.row_count())
        .map(|r| table.cell(r, 5).unwrap().parse::<f64>().unwrap())
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppx_is_dominated_by_pp() {
        let cfg = ExperimentConfig::quick().with_trials(120);
        let table = run(&cfg);
        // Two-sample DKW-ish noise at 120 trials: |F̂ − F| ≲ 0.12 each whp.
        let worst = worst_violation(&table);
        assert!(worst < 0.25, "Lemma 6 violated beyond noise: {worst}");
    }

    #[test]
    fn violation_helper_detects_direction() {
        let slow = [5.0, 6.0, 7.0, 8.0];
        let fast = [1.0, 2.0, 3.0, 4.0];
        // `fast` lies fully left of `slow`: violation(slow dominated-by
        // nothing) — here b = fast is faster than a = slow, so positive.
        assert!(domination_violation(&slow, &fast) > 0.9);
        // And a sample is never faster than itself.
        assert!(domination_violation(&fast, &fast) <= 0.0 + 1e-12);
    }
}
