//! Experiment registry, read by the `exp` binary.

use crate::experiments::*;
use crate::table::Table;
use crate::ExperimentConfig;

/// A named experiment: identifier, one-line description, and runner.
pub struct Experiment {
    /// Stable identifier (`e1` … `e23`), the `exp` binary's argument.
    pub id: &'static str,
    /// One-line description of the reproduced claim.
    pub claim: &'static str,
    /// The runner.
    pub run: fn(&ExperimentConfig) -> Table,
}

/// All experiments in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            claim: "Theorem 1: T_hp(pp-a) = O(T_hp(pp) + log n)",
            run: e1_upper::run,
        },
        Experiment {
            id: "e2",
            claim: "Theorem 2: E[T(pp)] = O(sqrt(n) E[T(pp-a)] + sqrt(n))",
            run: e2_lower::run,
        },
        Experiment {
            id: "e3",
            claim: "star: sync <= 2 rounds, async Theta(log n)",
            run: e3_star::run,
        },
        Experiment {
            id: "e4",
            claim: "Corollary 3: sync push = Theta(sync push-pull) on regular graphs",
            run: e4_regular::run,
        },
        Experiment {
            id: "e5",
            claim: "regular graphs: async push ~ 2 x async push-pull in distribution",
            run: e5_push_double::run,
        },
        Experiment {
            id: "e6",
            claim: "diamonds: sync Theta(n^{1/3}) vs async polylog (Acan et al.)",
            run: e6_diamonds::run,
        },
        Experiment {
            id: "e7",
            claim: "classical graphs: sync and async within constant factors",
            run: e7_classical::run,
        },
        Experiment {
            id: "e8",
            claim: "social networks: async informs the bulk faster",
            run: e8_social::run,
        },
        Experiment {
            id: "e9",
            claim: "three async formulations are one process",
            run: e9_views::run,
        },
        Experiment {
            id: "e10",
            claim: "Lemma 6: T(ppx) dominated by T(pp); ppy placed above",
            run: e10_aux::run,
        },
        Experiment {
            id: "e11",
            claim: "Lemmas 9/10: coupled excesses are O(log n)",
            run: e11_coupling::run,
        },
        Experiment {
            id: "e12",
            claim: "Lemmas 13/14: block subset invariant and accounting",
            run: e12_blocks::run,
        },
        Experiment { id: "e13", claim: "footnote 3: E[steps]/n = E[T]", run: e13_steps::run },
        Experiment {
            id: "e14",
            claim: "hypercube pp-a = Richardson first-passage percolation",
            run: e14_fpp::run,
        },
        Experiment {
            id: "e15",
            claim: "ablation: sqrt(n) block capacity minimizes coupled rounds",
            run: e15_capacity::run,
        },
        Experiment {
            id: "e16",
            claim: "extension: quasirandom push-pull matches fully random",
            run: e16_quasirandom::run,
        },
        Experiment {
            id: "e17",
            claim: "extension: source placement sensitivity",
            run: e17_sources::run,
        },
        Experiment {
            id: "e18",
            claim: "extension: graceful degradation under message loss",
            run: e18_loss::run,
        },
        Experiment {
            id: "e19",
            claim: "dynamic networks: E[T] grows with churn; nu = 0 is the static baseline",
            run: e19_dynamic_churn::run,
        },
        Experiment {
            id: "e22",
            claim: "topology models: at matched churn volume the frontier adversary hurts most",
            run: e22_models::run,
        },
        Experiment {
            id: "e23",
            claim: "coupled traces: paired sync-vs-async CIs beat independent-runs CIs",
            run: e23_coupled_gap::run,
        },
    ]
}

/// Looks up an experiment by its id.
pub fn find_experiment(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = all_experiments();
        assert_eq!(all.len(), 21);
        let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 21, "duplicate experiment ids");
    }

    #[test]
    fn find_experiment_works() {
        assert!(find_experiment("e1").is_some());
        assert!(find_experiment("e18").is_some());
        assert!(find_experiment("e23").is_some());
        assert!(find_experiment("e20").is_none(), "E20 is retired");
        assert!(find_experiment("e21").is_none(), "E21 is retired");
        assert!(find_experiment("e99").is_none());
    }
}
