//! Typed, lock-free metric primitives and the workspace metric catalog.
//!
//! Three primitives, all const-constructible so hot paths touch plain
//! statics (no registration, no hashing, no locks):
//!
//! * [`Counter`] — a monotonically increasing `u64`;
//! * [`Gauge`] — a last-write-wins `f64` (stored as bits in an `AtomicU64`);
//! * [`Histogram`] — log₂-bucketed positive samples with exact count / sum /
//!   min / max and bucket-interpolated quantiles. Non-finite and
//!   non-positive samples are **rejected** (counted separately) — a NaN loss
//!   must never poison a latency distribution.
//!
//! [`Metrics`] is the fixed catalog every crate in the workspace records
//! into, reachable via [`crate::metrics`]. The catalog is deliberately
//! closed: adding a metric means adding a field here plus a line in
//! [`Metrics::expose`], which keeps the Prometheus exposition and the
//! recorded set in lock-step (no metric can exist without being exported).
//!
//! Determinism contract: nothing in this module reads the RNG, the model,
//! or anything a training run consumes — metrics are written, never read,
//! by instrumented code, so enabling them cannot perturb a result.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` covers
/// `[2^(i-31), 2^(i-30))`, so the range spans ~4.7e-10 … ~8.6e9 — wide
/// enough for nanosecond kernel timings and multi-hour phase timings alike.
pub const N_BUCKETS: usize = 64;

/// Exponent offset: sample `v` lands in bucket `floor(log2(v)) + 31`.
const BUCKET_BIAS: i32 = 31;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (const, so it can back a `static`).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run isolation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Last stored value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Atomically adds `delta` to an `f64` stored as bits in `cell`.
///
/// Public so instrumented code can accumulate metric-only sums across a
/// parallel region (e.g. per-slot optimiser update norms). The accumulation
/// order is thread-dependent, which is fine for telemetry and unacceptable
/// for anything a computation reads back — never feed such a sum into the
/// model.
pub fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Atomically folds `v` into a min/max cell via `pick`.
fn atomic_f64_fold(cell: &AtomicU64, v: f64, pick: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let folded = pick(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A log₂-bucketed histogram of positive finite samples.
///
/// Exactness: `count`, `sum`, `min` and `max` are exact; quantiles are
/// bucket-interpolated (geometric midpoint of the containing bucket,
/// clamped to the observed `[min, max]`), which bounds the relative error
/// of any quantile by the bucket width (≤ 2×) and in practice — timings
/// clustered inside one or two buckets — far less.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    rejected: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A fresh empty histogram (const, so it can back a `static`).
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Bucket index for a valid sample.
    fn bucket_of(v: f64) -> usize {
        let exp = v.log2().floor() as i64 + BUCKET_BIAS as i64;
        exp.clamp(0, N_BUCKETS as i64 - 1) as usize
    }

    /// Lower/upper bounds of bucket `i`.
    fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = 2f64.powi(i as i32 - BUCKET_BIAS);
        (lo, lo * 2.0)
    }

    /// Records `v`. Returns `false` (and counts the rejection) for NaN,
    /// ±inf, zero and negative samples — none of which belong in a
    /// positive-valued timing/norm distribution.
    pub fn record(&self, v: f64) -> bool {
        if !v.is_finite() || v <= 0.0 {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_fold(&self.min_bits, v, f64::min);
        atomic_f64_fold(&self.max_bits, v, f64::max);
        true
    }

    /// Number of accepted samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of rejected (non-finite / non-positive) samples.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Exact sum of accepted samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact minimum accepted sample (NaN when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            f64::NAN
        } else {
            v
        }
    }

    /// Exact maximum accepted sample (NaN when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            f64::NAN
        } else {
            v
        }
    }

    /// Bucket-interpolated quantile `q ∈ [0, 1]` (NaN when empty).
    ///
    /// The estimate is the geometric midpoint of the bucket containing the
    /// rank-`⌈q·n⌉` sample, clamped to the observed `[min, max]` so that
    /// `quantile(0.0) == min()` and `quantile(1.0) == max()` exactly.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                return (lo * hi).sqrt().clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Resets all state (tests and per-run isolation).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The fixed metric catalog for the whole workspace.
///
/// Field names mirror the exposition names minus the `stuq_` prefix; see
/// [`Metrics::expose`] for the authoritative list with types and help text.
#[derive(Debug, Default)]
pub struct Metrics {
    // --- stuq-parallel: pool behaviour -----------------------------------
    /// Fan-outs submitted to the worker pool.
    pub pool_fanouts: Counter,
    /// Chunks executed across all fan-outs (pooled or inline).
    pub pool_chunks: Counter,
    /// Fan-outs that degraded to inline execution (serial scope, nesting,
    /// single chunk or single-thread pool).
    pub pool_inline: Counter,
    /// Wall-clock seconds per pooled fan-out (trace level only).
    pub pool_run_seconds: Histogram,

    // --- stuq-tensor: autodiff + kernels ---------------------------------
    /// Reverse sweeps executed (serial or replayed).
    pub backward_runs: Counter,
    /// Backward sweeps served by a cached replay plan.
    pub replay_hits: Counter,
    /// Replay plans compiled (one per new tape structure).
    pub replay_compiles: Counter,
    /// Fused adjoint chains across all compiled plans.
    pub replay_fused_chains: Counter,
    /// Tape nodes absorbed into fused chains across all compiled plans.
    pub replay_fused_nodes: Counter,
    /// `matmul` kernel dispatches.
    pub kernel_matmul: Counter,
    /// `matmul_tb` kernel dispatches.
    pub kernel_matmul_tb: Counter,
    /// `matmul_ta` (transposed-A adjoint product) kernel dispatches.
    pub kernel_matmul_ta: Counter,
    /// `rowwise_matmul` kernel dispatches.
    pub kernel_rowwise: Counter,
    /// GFLOP/s of the most recent traced `matmul`/`matmul_tb` dispatch.
    pub kernel_gflops: Gauge,

    // --- stuq-nn: optimisers ----------------------------------------------
    /// Optimiser steps applied.
    pub opt_steps: Counter,
    /// Learning rate of the most recent step.
    pub opt_lr: Gauge,
    /// Global L2 norm of applied parameter updates (trace level only).
    pub opt_step_norm: Histogram,

    // --- deepstuq: training loop ------------------------------------------
    /// Batches processed (healthy, i.e. the optimiser stepped).
    pub train_batches: Counter,
    /// Batches whose loss or gradient norm was NaN/inf.
    pub train_nonfinite_batches: Counter,
    /// Mean loss of the most recent healthy batch.
    pub train_loss: Gauge,
    /// Global gradient norm of the most recent healthy batch.
    pub train_grad_norm: Gauge,
    /// Gradient norms across healthy batches.
    pub train_grad_norm_hist: Histogram,
    /// Current epoch index (set by the pipeline).
    pub train_epoch: Gauge,
    /// Wall-clock seconds per training epoch.
    pub train_epoch_seconds: Histogram,
    /// Wall-clock seconds per batch (trace level only).
    pub train_batch_seconds: Histogram,

    // --- deepstuq: divergence guard ----------------------------------------
    /// Guard trips (unhealthy batches observed).
    pub guard_trips: Counter,
    /// Batches skipped without an update.
    pub guard_skips: Counter,
    /// Rewinds to the last-good snapshot.
    pub guard_rewinds: Counter,
    /// Current learning-rate back-off scale (1.0 when undisturbed).
    pub guard_lr_scale: Gauge,

    // --- deepstuq: inference + calibration ---------------------------------
    /// Monte-Carlo forward passes executed.
    pub mc_samples: Counter,
    /// Wall-clock seconds per MC forecast call (trace level only).
    pub mc_forecast_seconds: Histogram,
    /// MC samples per second of the most recent traced forecast.
    pub mc_samples_per_sec: Gauge,
    /// Fitted calibration temperature.
    pub calib_temperature: Gauge,
    /// Evaluation windows scored.
    pub eval_windows: Counter,

    // --- stuq-serve: serving runtime ---------------------------------------
    /// Forecast requests admitted (processed to any terminal response).
    pub serve_requests: Counter,
    /// Requests shed by admission control (queue full / draining / breaker).
    pub serve_shed: Counter,
    /// Responses degraded by the deadline budget (fewer samples than asked).
    pub serve_degraded: Counter,
    /// Fallback (persistence) responses served while the breaker was open.
    pub serve_fallback: Counter,
    /// Hot model reloads applied.
    pub serve_reloads: Counter,
    /// Reload attempts rolled back (corrupt or incompatible artifact).
    pub serve_reload_rollbacks: Counter,
    /// Current depth of the admission queue.
    pub serve_queue_depth: Gauge,
    /// Breaker state: 0 closed, 1 open, 2 half-open.
    pub serve_breaker_state: Gauge,
    /// MC samples used per forecast response.
    pub serve_samples_used: Histogram,
    /// Milliseconds of deadline left when the response was finished
    /// (the deadline-hit histogram; rejected samples are deadline misses).
    pub serve_deadline_slack_ms: Histogram,
    /// Wall-clock seconds per served forecast.
    pub serve_request_seconds: Histogram,
    /// Forecast batches processed by the worker (size 1 when batching is
    /// off).
    pub serve_batches: Counter,
    /// Requests per processed batch.
    pub serve_batch_size: Histogram,
    /// Shared-MC groups per processed batch.
    pub serve_batch_groups: Histogram,
    /// Forecasts answered from the per-tick cache (no forward pass).
    pub serve_cache_hits: Counter,
    /// Cacheable lookups that missed.
    pub serve_cache_misses: Counter,
    /// Cache entries dropped by the capacity bound.
    pub serve_cache_evictions: Counter,
    /// Whole-cache invalidations (hot-reload swap, breaker open).
    pub serve_cache_invalidations: Counter,
    /// Live forecast-cache entries.
    pub serve_cache_entries: Gauge,

    // --- stuq-serve: sharded cluster (router side) -------------------------
    /// Workers currently up, as of the last supervision tick.
    pub cluster_workers_up: Gauge,
    /// Worker processes restarted by the supervisor.
    pub cluster_restarts: Counter,
    /// Worker RPCs that failed at the transport (timeout, EOF, I/O error).
    pub cluster_rpc_failures: Counter,
    /// Merged responses with at least one non-ok shard (`partial: true`).
    pub serve_partial: Counter,
    /// Two-phase cluster reloads committed.
    pub cluster_reload_commits: Counter,
    /// Two-phase cluster reloads aborted (validation, skew, or worker nack).
    pub cluster_reload_aborts: Counter,
    /// Failover hops: a shard attempt failed and the router moved on to
    /// another replica of the same shard.
    pub cluster_failover: Counter,
    /// Hedged requests where the secondary replica's response was used.
    pub cluster_hedge_won: Counter,
    /// Faults injected by the deterministic fault-injection harness
    /// (`faultnet`). Exposed without the `stuq_` prefix on purpose: it is
    /// a test-harness counter, not a serving-subsystem one, and the bare
    /// name keeps harness traffic trivially greppable in merged dumps.
    pub faultnet_injected: Counter,

    // --- stuq-serve: request tracing (trace level only) ---------------------
    /// Spans opened (`span_start` events emitted).
    pub trace_spans: Counter,
    /// Slow-request exemplar events emitted (worst-N per window).
    pub trace_exemplars: Counter,
    /// `cluster-metrics` scrapes served by the router.
    pub cluster_scrapes: Counter,
    /// Seconds a forecast line waited between arrival and pickup.
    pub serve_admission_seconds: Histogram,
    /// Seconds a forecast line dwelled in the batcher window.
    pub serve_batch_dwell_seconds: Histogram,
    /// Seconds per forecast-cache probe.
    pub serve_cache_probe_seconds: Histogram,
    /// Seconds per shared-MC group compute.
    pub serve_compute_seconds: Histogram,
    /// Seconds spent rendering responses per batch.
    pub serve_render_seconds: Histogram,
    /// Seconds per scatter RPC to one shard (router side).
    pub cluster_shard_rpc_seconds: Histogram,
    /// Seconds merging shard responses per request (router side).
    pub cluster_merge_seconds: Histogram,
    /// Seconds per Monte-Carlo sample batch inside a forecast.
    pub mc_sample_seconds: Histogram,
}

impl Metrics {
    /// A fresh catalog (const, backing the global in [`crate::metrics`]).
    pub const fn new() -> Self {
        Self {
            pool_fanouts: Counter::new(),
            pool_chunks: Counter::new(),
            pool_inline: Counter::new(),
            pool_run_seconds: Histogram::new(),
            backward_runs: Counter::new(),
            replay_hits: Counter::new(),
            replay_compiles: Counter::new(),
            replay_fused_chains: Counter::new(),
            replay_fused_nodes: Counter::new(),
            kernel_matmul: Counter::new(),
            kernel_matmul_tb: Counter::new(),
            kernel_matmul_ta: Counter::new(),
            kernel_rowwise: Counter::new(),
            kernel_gflops: Gauge::new(),
            opt_steps: Counter::new(),
            opt_lr: Gauge::new(),
            opt_step_norm: Histogram::new(),
            train_batches: Counter::new(),
            train_nonfinite_batches: Counter::new(),
            train_loss: Gauge::new(),
            train_grad_norm: Gauge::new(),
            train_grad_norm_hist: Histogram::new(),
            train_epoch: Gauge::new(),
            train_epoch_seconds: Histogram::new(),
            train_batch_seconds: Histogram::new(),
            guard_trips: Counter::new(),
            guard_skips: Counter::new(),
            guard_rewinds: Counter::new(),
            guard_lr_scale: Gauge::new(),
            mc_samples: Counter::new(),
            mc_forecast_seconds: Histogram::new(),
            mc_samples_per_sec: Gauge::new(),
            calib_temperature: Gauge::new(),
            eval_windows: Counter::new(),
            serve_requests: Counter::new(),
            serve_shed: Counter::new(),
            serve_degraded: Counter::new(),
            serve_fallback: Counter::new(),
            serve_reloads: Counter::new(),
            serve_reload_rollbacks: Counter::new(),
            serve_queue_depth: Gauge::new(),
            serve_breaker_state: Gauge::new(),
            serve_samples_used: Histogram::new(),
            serve_deadline_slack_ms: Histogram::new(),
            serve_request_seconds: Histogram::new(),
            serve_batches: Counter::new(),
            serve_batch_size: Histogram::new(),
            serve_batch_groups: Histogram::new(),
            serve_cache_hits: Counter::new(),
            serve_cache_misses: Counter::new(),
            serve_cache_evictions: Counter::new(),
            serve_cache_invalidations: Counter::new(),
            serve_cache_entries: Gauge::new(),
            cluster_workers_up: Gauge::new(),
            cluster_restarts: Counter::new(),
            cluster_rpc_failures: Counter::new(),
            serve_partial: Counter::new(),
            cluster_reload_commits: Counter::new(),
            cluster_reload_aborts: Counter::new(),
            cluster_failover: Counter::new(),
            cluster_hedge_won: Counter::new(),
            faultnet_injected: Counter::new(),
            trace_spans: Counter::new(),
            trace_exemplars: Counter::new(),
            cluster_scrapes: Counter::new(),
            serve_admission_seconds: Histogram::new(),
            serve_batch_dwell_seconds: Histogram::new(),
            serve_cache_probe_seconds: Histogram::new(),
            serve_compute_seconds: Histogram::new(),
            serve_render_seconds: Histogram::new(),
            cluster_shard_rpc_seconds: Histogram::new(),
            cluster_merge_seconds: Histogram::new(),
            mc_sample_seconds: Histogram::new(),
        }
    }

    /// Renders the catalog in the Prometheus text exposition format.
    ///
    /// Counters and gauges export their value; histograms export as
    /// Prometheus *summaries* (`_count`, `_sum`, `{quantile=…}` for p50/p95
    /// plus exact min/max) — compact, and exactly the statistics the bench
    /// harness and the end-of-run table consume.
    pub fn expose(&self) -> String {
        let mut out = String::with_capacity(4096);
        let c = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
        };
        let g = |out: &mut String, name: &str, help: &str, v: f64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"));
        };
        let h = |out: &mut String, name: &str, help: &str, hist: &Histogram| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
            if hist.count() > 0 {
                out.push_str(&format!(
                    "{name}{{quantile=\"0.5\"}} {}\n{name}{{quantile=\"0.95\"}} \
                     {}\n{name}{{quantile=\"0.99\"}} {}\n",
                    hist.quantile(0.5),
                    hist.quantile(0.95),
                    hist.quantile(0.99)
                ));
                out.push_str(&format!("{name}_min {}\n{name}_max {}\n", hist.min(), hist.max()));
            }
            out.push_str(&format!(
                "{name}_sum {}\n{name}_count {}\n{name}_rejected {}\n",
                hist.sum(),
                hist.count(),
                hist.rejected()
            ));
        };

        c(
            &mut out,
            "stuq_pool_fanouts_total",
            "fan-outs submitted to the worker pool",
            self.pool_fanouts.get(),
        );
        c(
            &mut out,
            "stuq_pool_chunks_total",
            "chunks executed across all fan-outs",
            self.pool_chunks.get(),
        );
        c(
            &mut out,
            "stuq_pool_inline_total",
            "fan-outs degraded to inline execution",
            self.pool_inline.get(),
        );
        h(
            &mut out,
            "stuq_pool_run_seconds",
            "seconds per pooled fan-out (trace)",
            &self.pool_run_seconds,
        );
        c(
            &mut out,
            "stuq_backward_runs_total",
            "reverse sweeps executed",
            self.backward_runs.get(),
        );
        c(
            &mut out,
            "stuq_backward_replay_hits_total",
            "backward sweeps served by a cached replay plan",
            self.replay_hits.get(),
        );
        c(
            &mut out,
            "stuq_backward_replay_compiles_total",
            "replay plans compiled",
            self.replay_compiles.get(),
        );
        c(
            &mut out,
            "stuq_backward_replay_fused_chains_total",
            "fused adjoint chains across compiled plans",
            self.replay_fused_chains.get(),
        );
        c(
            &mut out,
            "stuq_backward_replay_fused_nodes_total",
            "tape nodes absorbed into fused chains",
            self.replay_fused_nodes.get(),
        );
        c(
            &mut out,
            "stuq_kernel_matmul_total",
            "matmul kernel dispatches",
            self.kernel_matmul.get(),
        );
        c(
            &mut out,
            "stuq_kernel_matmul_tb_total",
            "matmul_tb kernel dispatches",
            self.kernel_matmul_tb.get(),
        );
        c(
            &mut out,
            "stuq_kernel_matmul_ta_total",
            "matmul_ta kernel dispatches",
            self.kernel_matmul_ta.get(),
        );
        c(
            &mut out,
            "stuq_kernel_rowwise_total",
            "rowwise_matmul kernel dispatches",
            self.kernel_rowwise.get(),
        );
        g(
            &mut out,
            "stuq_kernel_gflops",
            "GFLOP/s of the last traced matmul dispatch",
            self.kernel_gflops.get(),
        );
        c(&mut out, "stuq_opt_steps_total", "optimiser steps applied", self.opt_steps.get());
        g(&mut out, "stuq_opt_lr", "learning rate of the most recent step", self.opt_lr.get());
        h(
            &mut out,
            "stuq_opt_step_norm",
            "global L2 norm of applied updates (trace)",
            &self.opt_step_norm,
        );
        c(
            &mut out,
            "stuq_train_batches_total",
            "healthy batches stepped",
            self.train_batches.get(),
        );
        c(
            &mut out,
            "stuq_train_nonfinite_batches_total",
            "batches with NaN/inf loss or gradient",
            self.train_nonfinite_batches.get(),
        );
        g(
            &mut out,
            "stuq_train_loss",
            "mean loss of the most recent healthy batch",
            self.train_loss.get(),
        );
        g(
            &mut out,
            "stuq_train_grad_norm",
            "gradient norm of the most recent healthy batch",
            self.train_grad_norm.get(),
        );
        h(
            &mut out,
            "stuq_train_grad_norm_hist",
            "gradient norms across healthy batches",
            &self.train_grad_norm_hist,
        );
        g(&mut out, "stuq_train_epoch", "current epoch index", self.train_epoch.get());
        h(
            &mut out,
            "stuq_train_epoch_seconds",
            "seconds per training epoch",
            &self.train_epoch_seconds,
        );
        h(
            &mut out,
            "stuq_train_batch_seconds",
            "seconds per batch (trace)",
            &self.train_batch_seconds,
        );
        c(&mut out, "stuq_guard_trips_total", "divergence-guard trips", self.guard_trips.get());
        c(
            &mut out,
            "stuq_guard_skips_total",
            "batches skipped by the guard",
            self.guard_skips.get(),
        );
        c(
            &mut out,
            "stuq_guard_rewinds_total",
            "guard rewinds to last-good snapshot",
            self.guard_rewinds.get(),
        );
        g(
            &mut out,
            "stuq_guard_lr_scale",
            "current guard learning-rate back-off scale",
            self.guard_lr_scale.get(),
        );
        c(
            &mut out,
            "stuq_mc_samples_total",
            "Monte-Carlo forward passes executed",
            self.mc_samples.get(),
        );
        h(
            &mut out,
            "stuq_mc_forecast_seconds",
            "seconds per MC forecast call (trace)",
            &self.mc_forecast_seconds,
        );
        g(
            &mut out,
            "stuq_mc_samples_per_sec",
            "MC samples/s of the last traced forecast",
            self.mc_samples_per_sec.get(),
        );
        g(
            &mut out,
            "stuq_calib_temperature",
            "fitted calibration temperature",
            self.calib_temperature.get(),
        );
        c(
            &mut out,
            "stuq_eval_windows_total",
            "evaluation windows scored",
            self.eval_windows.get(),
        );
        c(
            &mut out,
            "stuq_serve_requests_total",
            "forecast requests admitted",
            self.serve_requests.get(),
        );
        c(
            &mut out,
            "stuq_serve_shed_total",
            "requests shed by admission control",
            self.serve_shed.get(),
        );
        c(
            &mut out,
            "stuq_serve_degraded_total",
            "deadline-degraded responses",
            self.serve_degraded.get(),
        );
        c(
            &mut out,
            "stuq_serve_fallback_total",
            "breaker fallback responses",
            self.serve_fallback.get(),
        );
        c(
            &mut out,
            "stuq_serve_reloads_total",
            "hot model reloads applied",
            self.serve_reloads.get(),
        );
        c(
            &mut out,
            "stuq_serve_reload_rollbacks_total",
            "reload attempts rolled back",
            self.serve_reload_rollbacks.get(),
        );
        g(
            &mut out,
            "stuq_serve_queue_depth",
            "current admission-queue depth",
            self.serve_queue_depth.get(),
        );
        g(
            &mut out,
            "stuq_serve_breaker_state",
            "breaker state (0 closed, 1 open, 2 half-open)",
            self.serve_breaker_state.get(),
        );
        h(
            &mut out,
            "stuq_serve_samples_used",
            "MC samples used per forecast response",
            &self.serve_samples_used,
        );
        h(
            &mut out,
            "stuq_serve_deadline_slack_ms",
            "deadline slack (ms) at response time",
            &self.serve_deadline_slack_ms,
        );
        h(
            &mut out,
            "stuq_serve_request_seconds",
            "seconds per served forecast",
            &self.serve_request_seconds,
        );
        c(
            &mut out,
            "stuq_serve_batches_total",
            "forecast batches processed",
            self.serve_batches.get(),
        );
        h(
            &mut out,
            "stuq_serve_batch_size",
            "requests per processed batch",
            &self.serve_batch_size,
        );
        h(
            &mut out,
            "stuq_serve_batch_groups",
            "shared-MC groups per processed batch",
            &self.serve_batch_groups,
        );
        c(
            &mut out,
            "stuq_serve_cache_hits_total",
            "forecasts answered from the cache",
            self.serve_cache_hits.get(),
        );
        c(
            &mut out,
            "stuq_serve_cache_misses_total",
            "cacheable lookups that missed",
            self.serve_cache_misses.get(),
        );
        c(
            &mut out,
            "stuq_serve_cache_evictions_total",
            "cache entries evicted by capacity",
            self.serve_cache_evictions.get(),
        );
        c(
            &mut out,
            "stuq_serve_cache_invalidations_total",
            "whole-cache invalidations",
            self.serve_cache_invalidations.get(),
        );
        g(
            &mut out,
            "stuq_serve_cache_entries",
            "live forecast-cache entries",
            self.serve_cache_entries.get(),
        );
        g(
            &mut out,
            "stuq_cluster_workers_up",
            "workers up at the last supervision tick",
            self.cluster_workers_up.get(),
        );
        c(
            &mut out,
            "stuq_cluster_restarts_total",
            "worker processes restarted",
            self.cluster_restarts.get(),
        );
        c(
            &mut out,
            "stuq_cluster_rpc_failures_total",
            "worker RPC transport failures",
            self.cluster_rpc_failures.get(),
        );
        c(
            &mut out,
            "stuq_serve_partial_total",
            "merged responses with a degraded shard",
            self.serve_partial.get(),
        );
        c(
            &mut out,
            "stuq_cluster_reload_commits_total",
            "two-phase cluster reloads committed",
            self.cluster_reload_commits.get(),
        );
        c(
            &mut out,
            "stuq_cluster_reload_aborts_total",
            "two-phase cluster reloads aborted",
            self.cluster_reload_aborts.get(),
        );
        c(
            &mut out,
            "stuq_cluster_failover_total",
            "failover hops to a sibling replica",
            self.cluster_failover.get(),
        );
        c(
            &mut out,
            "stuq_cluster_hedge_won_total",
            "hedged requests won by the secondary replica",
            self.cluster_hedge_won.get(),
        );
        c(
            &mut out,
            "faultnet_injected_total",
            "faults injected by the faultnet harness",
            self.faultnet_injected.get(),
        );
        c(&mut out, "stuq_trace_spans_total", "spans opened", self.trace_spans.get());
        c(
            &mut out,
            "stuq_trace_exemplars_total",
            "slow-request exemplar events emitted",
            self.trace_exemplars.get(),
        );
        c(
            &mut out,
            "stuq_cluster_scrapes_total",
            "cluster-metrics scrapes served",
            self.cluster_scrapes.get(),
        );
        h(
            &mut out,
            "stuq_serve_admission_seconds",
            "seconds a forecast waited before pickup (trace)",
            &self.serve_admission_seconds,
        );
        h(
            &mut out,
            "stuq_serve_batch_dwell_seconds",
            "seconds a forecast dwelled in the batcher (trace)",
            &self.serve_batch_dwell_seconds,
        );
        h(
            &mut out,
            "stuq_serve_cache_probe_seconds",
            "seconds per forecast-cache probe (trace)",
            &self.serve_cache_probe_seconds,
        );
        h(
            &mut out,
            "stuq_serve_compute_seconds",
            "seconds per shared-MC group compute (trace)",
            &self.serve_compute_seconds,
        );
        h(
            &mut out,
            "stuq_serve_render_seconds",
            "seconds rendering responses per batch (trace)",
            &self.serve_render_seconds,
        );
        h(
            &mut out,
            "stuq_cluster_shard_rpc_seconds",
            "seconds per scatter RPC to one shard (trace)",
            &self.cluster_shard_rpc_seconds,
        );
        h(
            &mut out,
            "stuq_cluster_merge_seconds",
            "seconds merging shard responses (trace)",
            &self.cluster_merge_seconds,
        );
        h(
            &mut out,
            "stuq_mc_sample_seconds",
            "seconds per MC sample batch (trace)",
            &self.mc_sample_seconds,
        );
        out
    }

    /// Every counter in the catalog as `(exposition name, value)` pairs, in
    /// exposition order. This is what the router's `cluster-metrics` scrape
    /// ships and sums across workers; the
    /// `counters_stay_in_lock_step_with_exposition` test keeps it complete.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("stuq_pool_fanouts_total", self.pool_fanouts.get()),
            ("stuq_pool_chunks_total", self.pool_chunks.get()),
            ("stuq_pool_inline_total", self.pool_inline.get()),
            ("stuq_backward_runs_total", self.backward_runs.get()),
            ("stuq_backward_replay_hits_total", self.replay_hits.get()),
            ("stuq_backward_replay_compiles_total", self.replay_compiles.get()),
            ("stuq_backward_replay_fused_chains_total", self.replay_fused_chains.get()),
            ("stuq_backward_replay_fused_nodes_total", self.replay_fused_nodes.get()),
            ("stuq_kernel_matmul_total", self.kernel_matmul.get()),
            ("stuq_kernel_matmul_tb_total", self.kernel_matmul_tb.get()),
            ("stuq_kernel_matmul_ta_total", self.kernel_matmul_ta.get()),
            ("stuq_kernel_rowwise_total", self.kernel_rowwise.get()),
            ("stuq_opt_steps_total", self.opt_steps.get()),
            ("stuq_train_batches_total", self.train_batches.get()),
            ("stuq_train_nonfinite_batches_total", self.train_nonfinite_batches.get()),
            ("stuq_guard_trips_total", self.guard_trips.get()),
            ("stuq_guard_skips_total", self.guard_skips.get()),
            ("stuq_guard_rewinds_total", self.guard_rewinds.get()),
            ("stuq_mc_samples_total", self.mc_samples.get()),
            ("stuq_eval_windows_total", self.eval_windows.get()),
            ("stuq_serve_requests_total", self.serve_requests.get()),
            ("stuq_serve_shed_total", self.serve_shed.get()),
            ("stuq_serve_degraded_total", self.serve_degraded.get()),
            ("stuq_serve_fallback_total", self.serve_fallback.get()),
            ("stuq_serve_reloads_total", self.serve_reloads.get()),
            ("stuq_serve_reload_rollbacks_total", self.serve_reload_rollbacks.get()),
            ("stuq_serve_batches_total", self.serve_batches.get()),
            ("stuq_serve_cache_hits_total", self.serve_cache_hits.get()),
            ("stuq_serve_cache_misses_total", self.serve_cache_misses.get()),
            ("stuq_serve_cache_evictions_total", self.serve_cache_evictions.get()),
            ("stuq_serve_cache_invalidations_total", self.serve_cache_invalidations.get()),
            ("stuq_cluster_restarts_total", self.cluster_restarts.get()),
            ("stuq_cluster_rpc_failures_total", self.cluster_rpc_failures.get()),
            ("stuq_serve_partial_total", self.serve_partial.get()),
            ("stuq_cluster_reload_commits_total", self.cluster_reload_commits.get()),
            ("stuq_cluster_reload_aborts_total", self.cluster_reload_aborts.get()),
            ("stuq_cluster_failover_total", self.cluster_failover.get()),
            ("stuq_cluster_hedge_won_total", self.cluster_hedge_won.get()),
            ("faultnet_injected_total", self.faultnet_injected.get()),
            ("stuq_trace_spans_total", self.trace_spans.get()),
            ("stuq_trace_exemplars_total", self.trace_exemplars.get()),
            ("stuq_cluster_scrapes_total", self.cluster_scrapes.get()),
        ]
    }

    /// Resets every metric (tests and per-run isolation).
    pub fn reset(&self) {
        self.pool_fanouts.reset();
        self.pool_chunks.reset();
        self.pool_inline.reset();
        self.pool_run_seconds.reset();
        self.backward_runs.reset();
        self.replay_hits.reset();
        self.replay_compiles.reset();
        self.replay_fused_chains.reset();
        self.replay_fused_nodes.reset();
        self.kernel_matmul.reset();
        self.kernel_matmul_tb.reset();
        self.kernel_matmul_ta.reset();
        self.kernel_rowwise.reset();
        self.kernel_gflops.reset();
        self.opt_steps.reset();
        self.opt_lr.reset();
        self.opt_step_norm.reset();
        self.train_batches.reset();
        self.train_nonfinite_batches.reset();
        self.train_loss.reset();
        self.train_grad_norm.reset();
        self.train_grad_norm_hist.reset();
        self.train_epoch.reset();
        self.train_epoch_seconds.reset();
        self.train_batch_seconds.reset();
        self.guard_trips.reset();
        self.guard_skips.reset();
        self.guard_rewinds.reset();
        self.guard_lr_scale.reset();
        self.mc_samples.reset();
        self.mc_forecast_seconds.reset();
        self.mc_samples_per_sec.reset();
        self.calib_temperature.reset();
        self.eval_windows.reset();
        self.serve_requests.reset();
        self.serve_shed.reset();
        self.serve_degraded.reset();
        self.serve_fallback.reset();
        self.serve_reloads.reset();
        self.serve_reload_rollbacks.reset();
        self.serve_queue_depth.reset();
        self.serve_breaker_state.reset();
        self.serve_samples_used.reset();
        self.serve_deadline_slack_ms.reset();
        self.serve_request_seconds.reset();
        self.serve_batches.reset();
        self.serve_batch_size.reset();
        self.serve_batch_groups.reset();
        self.serve_cache_hits.reset();
        self.serve_cache_misses.reset();
        self.serve_cache_evictions.reset();
        self.serve_cache_invalidations.reset();
        self.serve_cache_entries.reset();
        self.cluster_workers_up.reset();
        self.cluster_restarts.reset();
        self.cluster_rpc_failures.reset();
        self.serve_partial.reset();
        self.cluster_reload_commits.reset();
        self.cluster_reload_aborts.reset();
        self.cluster_failover.reset();
        self.cluster_hedge_won.reset();
        self.faultnet_injected.reset();
        self.trace_spans.reset();
        self.trace_exemplars.reset();
        self.cluster_scrapes.reset();
        self.serve_admission_seconds.reset();
        self.serve_batch_dwell_seconds.reset();
        self.serve_cache_probe_seconds.reset();
        self.serve_compute_seconds.reset();
        self.serve_render_seconds.reset();
        self.cluster_shard_rpc_seconds.reset();
        self.cluster_merge_seconds.reset();
        self.mc_sample_seconds.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn histogram_rejects_invalid_samples() {
        let h = Histogram::new();
        assert!(!h.record(0.0), "zero must be rejected");
        assert!(!h.record(-1.0), "negatives must be rejected");
        assert!(!h.record(f64::NAN), "NaN must be rejected");
        assert!(!h.record(f64::INFINITY), "inf must be rejected");
        assert!(!h.record(f64::NEG_INFINITY), "-inf must be rejected");
        assert_eq!(h.count(), 0);
        assert_eq!(h.rejected(), 5);
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            assert!(h.record(v));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.mean(), 3.75);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-6);
        }
        let (p5, p50, p95) = (h.quantile(0.05), h.quantile(0.5), h.quantile(0.95));
        assert!(p5 <= p50 && p50 <= p95, "{p5} {p50} {p95}");
        assert!(p50 >= h.min() && p50 <= h.max());
        // log2 bucketing bounds any quantile within 2x of the true value.
        assert!(p50 > 0.5 * 500e-6 && p50 < 2.0 * 500e-6, "p50 {p50}");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn histogram_handles_extreme_magnitudes() {
        let h = Histogram::new();
        assert!(h.record(1e-12), "tiny values clamp into the first bucket");
        assert!(h.record(1e12), "huge values clamp into the last bucket");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1e-12);
        assert_eq!(h.max(), 1e12);
    }

    #[test]
    fn exposition_contains_every_family() {
        let m = Metrics::new();
        m.pool_fanouts.add(3);
        m.train_loss.set(1.5);
        m.train_epoch_seconds.record(0.25);
        let text = m.expose();
        for needle in [
            "stuq_pool_fanouts_total 3",
            "stuq_train_loss 1.5",
            "stuq_train_epoch_seconds_count 1",
            "# TYPE stuq_guard_trips_total counter",
            "# TYPE stuq_opt_lr gauge",
            "# TYPE stuq_mc_forecast_seconds summary",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in exposition:\n{text}");
        }
    }

    #[test]
    fn summaries_export_p99() {
        let m = Metrics::new();
        for i in 1..=100 {
            m.serve_request_seconds.record(i as f64 * 1e-3);
        }
        let text = m.expose();
        assert!(
            text.contains("stuq_serve_request_seconds{quantile=\"0.99\"}"),
            "missing p99 line:\n{text}"
        );
    }

    #[test]
    fn counters_stay_in_lock_step_with_exposition() {
        let m = Metrics::new();
        m.serve_requests.add(7);
        m.trace_spans.add(2);
        let counters = m.counters();
        let text = m.expose();
        // Every catalog counter appears in counters() with its current value…
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.split_once(' ') else { continue };
            if !name.ends_with("_total") {
                continue;
            }
            let got = counters.iter().find(|(n, _)| *n == name);
            assert!(got.is_some(), "counter {name} exposed but missing from counters()");
            assert_eq!(got.unwrap().1.to_string(), value, "{name} value mismatch");
        }
        // …and counters() lists nothing the exposition does not.
        for (name, _) in &counters {
            assert!(
                text.contains(&format!("\n{name} ")),
                "counters() lists {name} but expose() does not"
            );
        }
        let exposed = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter(|l| l.split_once(' ').is_some_and(|(n, _)| n.ends_with("_total")))
            .count();
        assert_eq!(exposed, counters.len(), "counter count drifted");
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::new();
        m.guard_trips.inc();
        m.calib_temperature.set(0.8);
        m.train_epoch_seconds.record(1.0);
        m.reset();
        assert_eq!(m.guard_trips.get(), 0);
        assert_eq!(m.calib_temperature.get(), 0.0);
        assert_eq!(m.train_epoch_seconds.count(), 0);
    }
}
