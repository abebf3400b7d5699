//! The metric table: every metric the runner reports, with its unit.
//!
//! `BENCHMARK.json` must list exactly these names and units; the schema
//! test in `tests/schema.rs` holds the two together.

use crate::json::Value;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("traj_per_s", "1/s"),
    ("traj_latency_p50_ms", "ms"),
    ("point_latency_p50_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("rmf", "ratio"),
    ("cmf50", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload. A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Set-up layers, in the order `LhmmModel::train` runs them.
    ("graph.relgraph.build_s", "s"),
    ("graph.encoder.train_s", "s"),
    ("core.observation.train_s", "s"),
    ("core.transition.train_s", "s"),
    ("network.backend.build_s", "s"),
    ("serve.cluster.start_s", "s"),
    // Matching layers, from `BatchStats` / `MatchStats`.
    ("core.batch.warm_s", "s"),
    ("core.batch.warm_entries", "count"),
    ("core.batch.span_ms_per_traj", "ms"),
    ("core.candidates.ms_per_traj", "ms"),
    ("core.observation.ms_per_traj", "ms"),
    ("core.observation.rows_per_traj", "count"),
    ("core.transition.ms_per_traj", "ms"),
    ("core.transition.rows_per_traj", "count"),
    ("network.sp.ms_per_traj", "ms"),
    ("network.sp.searches_per_traj", "count"),
    ("network.sp_cache.hit_ratio", "ratio"),
    ("network.sp_cache.warm_hit_ratio", "ratio"),
    ("core.viterbi.self_ms_per_traj", "ms"),
    ("core.shortcut.activations_per_traj", "count"),
    ("core.scratch.allocs", "count"),
    ("core.unexplained_ms_per_traj", "ms"),
    // Serving layers, from `ClusterReport` and client-side probes.
    ("serve.scheduler.queue_wait_p50_ms", "ms"),
    ("serve.scheduler.queue_wait_p99_ms", "ms"),
    ("serve.scheduler.batch_occupancy", "req/batch"),
    ("serve.scheduler.service_p50_ms", "ms"),
    ("serve.admission.rejected", "count"),
    ("serve.admission.peak_queue_depth", "count"),
    ("serve.session.push_p50_ms", "ms"),
    ("serve.session.push_p99_ms", "ms"),
    ("serve.cluster.router_push_p50_ms", "ms"),
    ("serve.cluster.handoffs_per_session", "count"),
    ("serve.cluster.replays", "count"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.wire.ping_p50_ms", "ms"),
    // The load generator and the tracer themselves.
    ("load.oneshot_p95_ms", "ms"),
    ("load.push_p99_ms", "ms"),
    ("load.generator_late_p99_ms", "ms"),
    ("load.oneshot_busy_ratio", "ratio"),
    ("load.stream_busy_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values collected during a run, keyed by the names above.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (which must be in one of the tables) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the metrics of `table` as `{name: {value, unit}}`. Errors
    /// name the first metric that is missing or not finite.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> Result<Value, String> {
        let mut out = Value::obj();
        for &(name, unit) in table {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            out = out.with(name, Value::obj().with("value", v).with("unit", unit));
        }
        Ok(out)
    }
}
