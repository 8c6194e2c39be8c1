//! The run's result: human-readable lines as the run goes, then every
//! metric by name and, as the last line of standard output, the JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

use crate::classify::Tally;
use stuq_serve::json::escape;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_unit", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a layer
/// a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.parse_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.samples_per_request", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.bytes_in", "bytes"),
    ("serve.bytes_out", "bytes"),
    ("deepstuq.mc_ms", "ms"),
    ("deepstuq.mc_samples_per_s", "1/s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("router.wait_p90_ms", "ms"),
    ("router.handle_ms", "ms"),
    ("router.self_ms", "ms"),
    ("router.rpc_p50_ms", "ms"),
    ("router.rpc_p99_ms", "ms"),
    ("router.rpc_bytes", "bytes"),
    ("router.rpcs_per_request", "count"),
    ("router.replica_cache_hit_ratio", "ratio"),
    ("router.failovers", "count"),
    ("router.rpc_errors", "count"),
    ("supervisor.spawn_s", "s"),
    ("supervisor.restarts", "count"),
    ("deepstuq.pretrain_epoch_s", "s"),
    ("deepstuq.awa_epoch_s", "s"),
    ("deepstuq.calibrate_s", "s"),
    ("deepstuq.fit_s", "s"),
    ("models.forward_train_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.tape_nodes", "count"),
    ("nn.opt_step_ms", "ms"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.latency_p90_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.shared_frac", "ratio"),
    ("loadgen.both_shards_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("env.nproc", "count"),
    ("env.pool_threads", "count"),
    ("env.requests", "count"),
];

/// Collected result of one run.
pub struct Report {
    traced: bool,
    values: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Requests (or jobs) attempted and their outcomes, over every phase.
    pub tally: Tally,
    /// Failure notes; any note makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// An empty report for the metric set of the run's mode. Per-layer
    /// metrics start at 0 (layer bypassed); end-to-end metrics must all be
    /// set.
    pub fn new(traced: bool) -> Report {
        let values = if traced {
            PER_LAYER.iter().map(|&(n, u)| (n, u, Some(0.0))).collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, None)).collect()
        };
        Report { traced, values, tally: Tally::default(), problems: Vec::new() }
    }

    /// True for the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets a metric of this run's mode (metrics of the other mode are
    /// ignored, so workloads can set both unconditionally).
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.values.iter_mut().find(|(n, _, _)| *n == name) {
            slot.2 = Some(value);
        }
    }

    /// Notes a correctness failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        println!("PROBLEM: {what}");
        self.problems.push(what);
    }

    /// Prints every metric by name and the final JSON line.
    pub fn finish(mut self) -> bool {
        let mut metrics = Vec::new();
        for (name, unit, v) in self.values.clone() {
            let v = match v {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.problem(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.problem(format!("metric {name} was not measured"));
                    0.0
                }
            };
            println!("metric {name} = {v} {unit}");
            metrics.push(format!("{}:{{\"value\":{v},\"unit\":{}}}", escape(name), escape(unit)));
        }
        let failed = self.tally.failed();
        let correct = self.problems.is_empty() && failed == 0 && self.tally.sent > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            self.tally.sent.max(1),
            metrics.join(",")
        );
        correct
    }
}
