//! Experiment harness reproducing every quantitative claim of
//! *“How Asynchrony Affects Rumor Spreading Time”* (PODC 2016).
//!
//! The paper is pure theory — its “evaluation” is a set of theorems,
//! worked examples, and proof constructions. Each experiment here
//! regenerates one of those claims as a table or series whose *shape*
//! (who wins, by what factor, how the gap scales) can be compared with
//! the theory. See `EXPERIMENTS.md` at the workspace root for the
//! claim-by-claim record.
//!
//! | Experiment | Paper claim |
//! |---|---|
//! | [`experiments::e1_upper`] | Theorem 1: `T₁/ₙ(pp-a) = O(T₁/ₙ(pp) + log n)` |
//! | [`experiments::e2_lower`] | Theorem 2: `E[T(pp-a)] = Ω(E[T(pp)]/√n)` |
//! | [`experiments::e3_star`] | Star: sync ≤ 2 rounds, async `Θ(log n)` |
//! | [`experiments::e4_regular`] | Corollary 3: sync push `Θ(=)` sync push–pull on regular graphs |
//! | [`experiments::e5_push_double`] | Async push ∼ 2 × async push–pull on regular graphs |
//! | [`experiments::e6_diamonds`] | Acan et al. separation: sync `Θ(n^{1/3})` vs async polylog |
//! | [`experiments::e7_classical`] | Classical graphs: both models within constant factors |
//! | [`experiments::e8_social`] | Social topologies: async informs most nodes faster |
//! | [`experiments::e9_views`] | §2: the three async formulations are one process |
//! | [`experiments::e10_aux`] | Lemma 6 sandwich: `ppx ≼ pp`, plus ppy placement |
//! | [`experiments::e11_coupling`] | Lemmas 9/10: coupled excesses are `O(log n)` |
//! | [`experiments::e12_blocks`] | Lemmas 13/14: subset invariant, block accounting |
//! | [`experiments::e13_steps`] | Footnote 3: `E[steps]/n = E[T]` |
//! | [`experiments::e14_fpp`] | Richardson/FPP correspondence on regular graphs |
//! | [`experiments::e15_capacity`] | Ablation: the `√n` block size of §5 |
//! | [`experiments::e16_quasirandom`] | Extension: quasirandom protocol (paper ref. \[11\]) |
//! | [`experiments::e17_sources`] | Extension: source placement sensitivity |
//! | [`experiments::e18_loss`] | Extension: graceful degradation under loss |
//! | [`experiments::e19_dynamic_churn`] | Dynamic networks: `E[T]` vs edge-Markov churn, static baseline at ν = 0 |
//! | [`experiments::e22_models`] | Topology models at matched churn volume |
//! | [`experiments::e23_coupled_gap`] | The sync-vs-async gap on shared topology traces (paired, versus an independent-runs design) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curves;
pub mod experiments;
pub mod fleet;
pub mod paired;
pub mod report;
pub mod table;

pub use curves::sync_async_fraction_table;
pub use experiments::common::ExperimentConfig;
pub use fleet::fleet_summary_table;
pub use paired::PairedSamples;
pub use table::Table;
