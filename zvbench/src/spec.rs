//! The benchmark's declared surface, mirrored from `BENCHMARK.json`
//! (embedded at build time so `compare` and the schema tests always read
//! the file this binary was built beside).

use zv_storage::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 6] = [
    "explore_cold",
    "explore_warm",
    "sketch_search",
    "serve_wire",
    "live_tick",
    "cold_start",
];

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// of an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_ops_s", "op/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, reported by every workload
/// of a traced run (0 where the workload never enters the layer).
pub const PER_LAYER: [(&str, &str); 74] = [
    ("datagen.rows_per_s", "rows/s"),
    ("zql.parse_us", "us"),
    ("zql.exec_self_ms", "ms"),
    ("zql.compute_ms", "ms"),
    ("zql.sql_queries_per_op", "count"),
    ("zql.requests_per_op", "count"),
    ("analytics.distance_ns_per_pair", "ns"),
    ("analytics.kmeans_ms", "ms"),
    ("analytics.candidates_per_s", "1/s"),
    ("exec.db_ms", "ms"),
    ("exec.scan_ns_per_row", "ns"),
    ("exec.rows_scanned_per_op", "rows"),
    ("exec.morsels_per_scan", "count"),
    ("exec.morsel_steal_ratio", "ratio"),
    ("exec.idle_worker_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.derived_ratio", "ratio"),
    ("cache.ivm_ratio", "ratio"),
    ("cache.miss_ratio", "ratio"),
    ("cache.scan_free_ratio", "ratio"),
    ("cache.evictions_per_kop", "count"),
    ("cache.admission_reject_ratio", "ratio"),
    ("cache.resident_bytes", "B"),
    ("cache.hit_us", "us"),
    ("cache.ivm_merge_us", "us"),
    ("cache.ivm_rows_per_tick", "rows"),
    ("column.resident_bytes_per_row", "B/row"),
    ("column.encoded_chunk_ratio", "ratio"),
    ("table.append_us", "us"),
    ("persist.append_us", "us"),
    ("persist.wal_bytes_per_user_byte", "ratio"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_stall_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.frames_replayed", "count"),
    ("persist.snapshot_bytes_per_row", "B/row"),
    ("persist.first_query_ms", "ms"),
    ("persist.disk_bytes_per_user_byte", "ratio"),
    ("session.overhead_us", "us"),
    ("session.queue_depth_max", "count"),
    ("session.rejected_ratio", "ratio"),
    ("session.cancelled_ratio", "ratio"),
    ("proto.encode_us_per_frame", "us"),
    ("proto.decode_us_per_frame", "us"),
    ("proto.bytes_per_result", "B"),
    ("net.overhead_us", "us"),
    ("net.step1.p50_ms", "ms"),
    ("net.step1.p95_ms", "ms"),
    ("net.step1.backlog_growth", "count"),
    ("net.step2.p50_ms", "ms"),
    ("net.step2.p95_ms", "ms"),
    ("net.step2.backlog_growth", "count"),
    ("net.step3.p50_ms", "ms"),
    ("net.step3.p95_ms", "ms"),
    ("net.step3.backlog_growth", "count"),
    ("net.step4.p50_ms", "ms"),
    ("net.step4.p95_ms", "ms"),
    ("net.step4.backlog_growth", "count"),
    ("net.generator_lag_p95_ms", "ms"),
    ("net.busy_ratio", "ratio"),
    ("net.max_rate_ok_qps", "q/s"),
    ("net.saturation_qps", "q/s"),
    ("share.zql_parse", "ratio"),
    ("share.zql_exec_self", "ratio"),
    ("share.zql_compute", "ratio"),
    ("share.exec", "ratio"),
    ("share.cache_est", "ratio"),
    ("share.table", "ratio"),
    ("share.persist", "ratio"),
    ("share.server", "ratio"),
    ("share.harness", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One `end_to_end` entry of `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The regression bounds `compare` judges by.
pub fn bounds() -> Vec<Bound> {
    let j = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    j.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has end_to_end")
        .iter()
        .map(|m| Bound {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// The code's metric tables and `BENCHMARK.json` declare the same
    /// names, units and workloads, inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let j = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(names(&j, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&j, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&j, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(n), "bad metric name {n}");
            assert!(ok_unit(u), "bad unit {u} on {n}");
            assert!(seen.insert(*n), "metric {n} declared twice");
        }
        for w in WORKLOADS {
            assert!(ok_name(w) && seen.insert(w), "bad workload name {w}");
        }
        for b in bounds() {
            assert!(
                b.bound > 0.0 && b.bound <= 0.25,
                "{}: bound {}",
                b.name,
                b.bound
            );
        }
        assert!(bounds()
            .iter()
            .any(|b| b.name == "setup_s" && !b.higher_is_better));
        assert!(BENCHMARK_JSON.len() <= 64 << 10);
    }
}
