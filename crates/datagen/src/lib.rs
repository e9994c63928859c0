//! # zv-datagen
//!
//! Deterministic synthetic twins of the four datasets in the thesis's
//! evaluation (Ch. 7–8). The originals (census-income, airline on-time,
//! Zillow housing) are not redistributable/offline-available, so each
//! generator matches the published schema shape, row counts (scaled by
//! default, `full_scale()` for the paper's sizes), cardinality profile,
//! and — critically — the latent trend structure that the paper's ZQL
//! queries search for.
//!
//! Every generator is a pure function of its config (including the seed):
//! the same config always reproduces the same table, row for row.

pub mod airline;
pub mod census;
pub mod housing;
pub mod sales;
pub mod util;

pub use airline::{generate as airline, AirlineConfig};
pub use census::{generate as census, CensusConfig};
pub use housing::{generate as housing, HousingConfig};
pub use sales::{generate as sales, SalesConfig};
