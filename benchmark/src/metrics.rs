//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` at the repository root mirrors these tables (a unit
//! test holds the two together).

use crate::stats::Better;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the instrument sees, per workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("on_time_frac", "ratio", Higher, 0.02),
    e2e("cpu_us_per_event", "us", Lower, 0.25),
    e2e("allocs_per_event", "count", Lower, 0.10),
    e2e("peak_heap_mb", "MiB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each (layer = crate name), from the ladder and the traced
/// pass. No bounds: they explain an end-to-end change, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("gt-core.parse_ns_per_event", "ns/event", Lower),
    layer("gt-core.format_ns_per_event", "ns/event", Lower),
    layer("gt-replayer.session_ns_per_event", "ns/event", Lower),
    layer("gt-replayer.reader_stall_us", "us", Lower),
    layer("gt-replayer.sink_stall_us", "us", Lower),
    layer("gt-replayer.queue_depth_peak", "count", Lower),
    layer("gt-replayer.tcp_sink_ns_per_event", "ns/event", Lower),
    layer("gt-replayer.tcp_sink_bytes_per_event", "B/event", Lower),
    layer("gt-replayer.emit_lateness_p50_us", "us", Lower),
    layer("gt-replayer.emit_lateness_p99_us", "us", Lower),
    layer("gt-load.partition_ns_per_event", "ns/event", Lower),
    layer("gt-load.partition_skew", "ratio", Lower),
    layer("gt-load.schedule_ns_per_event", "ns/event", Lower),
    layer("gt-load.listener_ns_per_event", "ns/event", Lower),
    layer("gt-load.sojourn_p50_us", "us", Lower),
    layer("gt-load.sojourn_p99_us", "us", Lower),
    layer("gt-load.backlog_peak", "count", Lower),
    layer("gt-load.achieved_ratio", "ratio", Higher),
    layer("gt-graph.apply_ns_per_event.snb", "ns/event", Lower),
    layer("gt-graph.apply_ns_per_event.mixed", "ns/event", Lower),
    layer("tide-store.apply_ns_per_event.snb", "ns/event", Lower),
    layer("tide-store.apply_ns_per_event.mixed", "ns/event", Lower),
    layer("tide-store.transactions.snb", "count", Lower),
    layer("tide-store.transactions.mixed", "count", Lower),
    layer("tide-graph.ingest_ns_per_event", "ns/event", Lower),
    layer("tide-graph.shares_per_event", "count", Lower),
    layer("tide-graph.shares_per_s", "1/s", Higher),
    layer("tide-graph.drain_s", "s", Lower),
    layer("gt-harness.overhead_s", "s", Lower),
    layer("trace_overhead_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");

        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("`{key}` array"))
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(names(key), table.iter().map(|m| m.name).collect::<Vec<_>>());
            for (entry, def) in spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .zip(table)
            {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str())
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
    }
}
