//! One module per experiment; see the crate docs for the claim map.

pub mod common;
pub mod e10_aux;
pub mod e11_coupling;
pub mod e12_blocks;
pub mod e13_steps;
pub mod e14_fpp;
pub mod e15_capacity;
pub mod e16_quasirandom;
pub mod e17_sources;
pub mod e18_loss;
pub mod e19_dynamic_churn;
pub mod e1_upper;
pub mod e22_models;
pub mod e23_coupled_gap;
pub mod e2_lower;
pub mod e3_star;
pub mod e4_regular;
pub mod e5_push_double;
pub mod e6_diamonds;
pub mod e7_classical;
pub mod e8_social;
pub mod e9_views;
