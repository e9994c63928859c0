//! # zenvisage
//!
//! A from-scratch Rust implementation of **zenvisage** — "an expressive
//! and interactive visual analytics system" (Siddiqui et al., VLDB 2016 /
//! UIUC MS thesis 2016) — including the **ZQL** visual query language,
//! its four-level batching optimizer, the visual exploration algebra, a
//! roaring-bitmap in-memory database built from scratch, and the full
//! evaluation harness that regenerates every figure of the paper.
//!
//! This crate is a facade: it re-exports the workspace's crates so
//! downstream users need a single dependency.
//!
//! ```
//! use std::sync::Arc;
//! use zenvisage::zql::ZqlEngine;
//! use zenvisage::zv_datagen::{sales, SalesConfig};
//! use zenvisage::zv_storage::BitmapDb;
//!
//! let table = sales::generate(&SalesConfig { rows: 10_000, ..Default::default() });
//! let engine = ZqlEngine::new(Arc::new(BitmapDb::new(table)));
//! let out = engine
//!     .execute_text(
//!         "name | x      | y       | z                 | constraints\n\
//!          *f1  | 'year' | 'sales' | v1 <- 'product'.* | location='US'",
//!     )
//!     .unwrap();
//! assert!(!out.visualizations.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | re-export | contents |
//! |---|---|
//! | [`zql`] | the ZQL language: parser, executor, optimizer, tasks |
//! | [`zv_storage`] | columnar tables, roaring bitmaps, the two engines |
//! | [`zv_analytics`] | distances, trends, k-means, ANOVA/Tukey |
//! | [`zv_vea`] | the visual exploration algebra (thesis Ch. 4) |
//! | [`zv_datagen`] | deterministic synthetic datasets |
//! | [`zv_study`] | the simulated Chapter 8 user study |
//! | [`zv_server`] | multi-session front-end: supersession + admission control |
//!
//! The top-level `README.md` says how to run the tests, the benchmark
//! and the paper's figures.

pub use zql;
pub use zv_analytics;
pub use zv_datagen;
pub use zv_server;
pub use zv_storage;
pub use zv_study;
pub use zv_vea;
