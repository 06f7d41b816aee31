//! Simulation substrate for randomized rumor spreading.
//!
//! This crate provides the probabilistic and statistical machinery that the
//! protocol crates are built on:
//!
//! * [`rng`] — small, fast, *deterministic* pseudo-random generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256PlusPlus`]) plus seed-stream
//!   derivation for reproducible parallel Monte-Carlo trials.
//! * [`dist`] — the distributions used throughout the PODC 2016 paper
//!   (exponential, geometric, negative binomial, Erlang) with sampling,
//!   moments, and CDFs, so the paper's domination lemmas can be tested.
//! * [`events`] — a time-ordered event queue, a tree of `n` clocks with one
//!   pending time each, and Poisson clocks: the engine room of the
//!   asynchronous protocol.
//! * [`stats`] — online moments, quantiles, empirical CDFs and two-sample
//!   Kolmogorov–Smirnov distances for the experiment harness.
//! * [`fit`] — least-squares fits (linear, power-law, logarithmic) used to
//!   verify the *shape* of the paper's bounds.
//!
//! # Example
//!
//! ```
//! use rumor_sim::rng::Xoshiro256PlusPlus;
//! use rumor_sim::dist::Exponential;
//! use rumor_sim::stats::OnlineStats;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(42);
//! let exp = Exponential::new(2.0);
//! let mut stats = OnlineStats::new();
//! for _ in 0..10_000 {
//!     stats.push(exp.sample(&mut rng));
//! }
//! // The mean of Exp(2) is 1/2.
//! assert!((stats.mean() - 0.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod events;
pub mod fit;
pub mod rng;
pub mod stats;

pub use dist::{Erlang, Exponential, Geometric, NegativeBinomial};
pub use events::{EventQueue, PoissonClock};
pub use rng::{SeedStream, SplitMix64, Xoshiro256PlusPlus};
pub use stats::{Ecdf, OnlineStats, Summary};
