//! The six workloads. Each stresses a different layer; the constants
//! that size them live beside the code and in `BENCHMARK.json`.

pub mod cold;
pub mod explore;
pub mod live;
pub mod serve;
pub mod sketch;

use crate::common::{Outcome, RunCfg};

pub fn run(cfg: &RunCfg) -> Option<Outcome> {
    Some(match cfg.workload.as_str() {
        "explore_cold" => explore::run(cfg, false),
        "explore_warm" => explore::run(cfg, true),
        "sketch_search" => sketch::run(cfg),
        "serve_wire" => serve::run(cfg),
        "live_tick" => live::run(cfg),
        "cold_start" => cold::run(cfg),
        _ => return None,
    })
}
