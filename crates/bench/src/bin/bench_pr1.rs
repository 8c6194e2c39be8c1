//! Machine-readable speedup record for the parallel compute engine PR.
//!
//! Benchmarks the Pems04Like-scale (307-node) workloads against the seed's
//! serial scalar baseline — which is still compiled into the binary as the
//! `*_reference` kernels and is re-enterable for whole-model inference via
//! [`stuq_tensor::kernels::with_reference_kernels`] — and writes the results
//! to `BENCH_PR1.json` in the current directory.
//!
//! Three configurations are timed for each workload:
//! - `seed`: reference kernels, one thread (the pre-PR code path);
//! - `blocked`: the new blocked kernels, forced to one thread;
//! - `parallel`: the new kernels on the `stuq-parallel` pool.
//!
//! It also re-checks the determinism contract end-to-end: a fixed-seed
//! MC-dropout forecast must be bit-identical between the one-thread and
//! pooled executions.

use std::fmt::Write as _;

use stuq_bench::timing::{bench_with, Sample};
use stuq_models::{Agcrn, AgcrnConfig, HeadKind};
use stuq_tensor::{kernels, StuqRng, Tensor};

/// The three execution modes of one workload, plus derived ratios.
struct Triple {
    seed: Sample,
    blocked: Sample,
    parallel: Sample,
}

impl Triple {
    fn speedup_blocked(&self) -> f64 {
        self.seed.best_s / self.blocked.best_s
    }
    fn speedup_parallel(&self) -> f64 {
        self.seed.best_s / self.parallel.best_s
    }
    fn thread_scaling(&self) -> f64 {
        self.blocked.best_s / self.parallel.best_s
    }
}

fn time_matmul(m: usize, k: usize, n: usize) -> Triple {
    let mut rng = StuqRng::new(0x307);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let label = format!("matmul {m}x{k}x{n}");
    Triple {
        seed: bench_with(&format!("{label} seed"), 0.5, 200, || {
            std::hint::black_box(a.matmul_reference(&b))
        }),
        blocked: bench_with(&format!("{label} blocked"), 0.5, 200, || {
            stuq_parallel::with_serial(|| std::hint::black_box(a.matmul(&b)))
        }),
        parallel: bench_with(&format!("{label} parallel"), 0.5, 200, || {
            std::hint::black_box(a.matmul(&b))
        }),
    }
}

fn pems04_fixture() -> (Agcrn, Tensor) {
    let mut rng = StuqRng::new(0x404);
    let cfg = AgcrnConfig::new(307, 12)
        .with_capacity(32, 8, 2)
        .with_dropout(0.1, 0.2)
        .with_head(HeadKind::Gaussian);
    let model = Agcrn::new(cfg, &mut rng);
    let x = Tensor::randn(&[12, 307], 1.0, &mut rng);
    (model, x)
}

fn time_mc(model: &Agcrn, x: &Tensor, t: usize) -> Triple {
    Triple {
        seed: bench_with("mc seed", 1.0, 20, || {
            let mut rng = StuqRng::new(9);
            stuq_parallel::with_serial(|| {
                kernels::with_reference_kernels(|| {
                    std::hint::black_box(deepstuq::mc::mc_forecast(model, x, None, t, &mut rng))
                })
            })
        }),
        blocked: bench_with("mc blocked", 1.0, 20, || {
            let mut rng = StuqRng::new(9);
            stuq_parallel::with_serial(|| {
                std::hint::black_box(deepstuq::mc::mc_forecast(model, x, None, t, &mut rng))
            })
        }),
        parallel: bench_with("mc parallel", 1.0, 20, || {
            let mut rng = StuqRng::new(9);
            std::hint::black_box(deepstuq::mc::mc_forecast(model, x, None, t, &mut rng))
        }),
    }
}

/// Fixed-seed MC forecast must not depend on the thread count.
fn check_determinism(model: &Agcrn, x: &Tensor, t: usize) -> bool {
    let par = {
        let mut rng = StuqRng::new(42);
        deepstuq::mc::mc_forecast(model, x, None, t, &mut rng)
    };
    let ser = {
        let mut rng = StuqRng::new(42);
        stuq_parallel::with_serial(|| deepstuq::mc::mc_forecast(model, x, None, t, &mut rng))
    };
    let bits = |a: &Tensor, b: &Tensor| {
        a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    bits(&par.mu, &ser.mu)
        && bits(&par.var_aleatoric, &ser.var_aleatoric)
        && bits(&par.var_epistemic, &ser.var_epistemic)
}

fn matmul_json(out: &mut String, key: &str, dims: (usize, usize, usize), t: &Triple) {
    let (m, k, n) = dims;
    let flops = 2.0 * (m * k * n) as f64;
    let _ = write!(
        out,
        "  \"{key}\": {{\n    \"shape_mkn\": [{m}, {k}, {n}],\n    \
         \"seed_reference_gflops\": {:.3},\n    \"blocked_serial_gflops\": {:.3},\n    \
         \"parallel_gflops\": {:.3},\n    \"parallel_p50_ms\": {:.3},\n    \
         \"parallel_p95_ms\": {:.3},\n    \"parallel_p99_ms\": {:.3},\n    \
         \"speedup_blocked_vs_seed\": {:.2},\n    \
         \"speedup_parallel_vs_seed\": {:.2},\n    \"thread_scaling\": {:.2}\n  }},\n",
        t.seed.gflops(flops),
        t.blocked.gflops(flops),
        t.parallel.gflops(flops),
        t.parallel.p50_s * 1e3,
        t.parallel.p95_s * 1e3,
        t.parallel.p99_s * 1e3,
        t.speedup_blocked(),
        t.speedup_parallel(),
        t.thread_scaling(),
    );
}

fn main() {
    let threads = stuq_parallel::num_threads();
    println!("bench_pr1: {threads} thread(s) configured");

    let rect = time_matmul(307, 64, 307);
    let square = time_matmul(307, 307, 307);
    for (label, t) in [("matmul 307x64x307", &rect), ("matmul 307x307x307", &square)] {
        println!(
            "{label}: seed {:.1} ms | blocked {:.1} ms ({:.2}x) | parallel {:.1} ms ({:.2}x)",
            t.seed.best_s * 1e3,
            t.blocked.best_s * 1e3,
            t.speedup_blocked(),
            t.parallel.best_s * 1e3,
            t.speedup_parallel(),
        );
    }

    let (model, x) = pems04_fixture();
    let t_samples = 10usize;
    let mc = time_mc(&model, &x, t_samples);
    println!(
        "mc-dropout 307n x{t_samples}: seed {:.1} ms | blocked {:.1} ms ({:.2}x) | parallel {:.1} ms ({:.2}x)",
        mc.seed.best_s * 1e3,
        mc.blocked.best_s * 1e3,
        mc.speedup_blocked(),
        mc.parallel.best_s * 1e3,
        mc.speedup_parallel(),
    );

    let deterministic = check_determinism(&model, &x, t_samples);
    println!("fixed-seed 1-thread vs pooled outputs bit-identical: {deterministic}");

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"workload_scale\": \"Pems04Like (307 nodes)\",\n  \"threads\": {threads},\n  \
         \"baseline\": \"seed scalar kernels, sequential MC loop (compiled in as *_reference + with_reference_kernels)\",\n"
    );
    matmul_json(&mut out, "matmul_rect", (307, 64, 307), &rect);
    matmul_json(&mut out, "matmul_square", (307, 307, 307), &square);
    let _ = write!(
        out,
        "  \"mc_dropout\": {{\n    \"n_nodes\": 307,\n    \"n_samples\": {t_samples},\n    \
         \"seed_samples_per_sec\": {:.2},\n    \"blocked_serial_samples_per_sec\": {:.2},\n    \
         \"parallel_samples_per_sec\": {:.2},\n    \"parallel_p50_ms\": {:.3},\n    \
         \"parallel_p95_ms\": {:.3},\n    \"parallel_p99_ms\": {:.3},\n    \
         \"speedup_blocked_vs_seed\": {:.2},\n    \
         \"speedup_parallel_vs_seed\": {:.2},\n    \"thread_scaling\": {:.2}\n  }},\n",
        t_samples as f64 * mc.seed.per_sec(),
        t_samples as f64 * mc.blocked.per_sec(),
        t_samples as f64 * mc.parallel.per_sec(),
        mc.parallel.p50_s * 1e3,
        mc.parallel.p95_s * 1e3,
        mc.parallel.p99_s * 1e3,
        mc.speedup_blocked(),
        mc.speedup_parallel(),
        mc.thread_scaling(),
    );
    let _ = write!(
        out,
        "  \"determinism\": {{\n    \"fixed_seed\": 42,\n    \
         \"parallel_vs_serial_bit_identical\": {deterministic}\n  }},\n  \
         \"notes\": [\n    \"speedup_parallel_vs_seed is the wall-clock win of the new engine over the seed code path\",\n    \
         \"thread_scaling isolates pool fan-out (new kernels, 1 thread vs N); it is ~1.0 on single-core hosts\"\n  ]\n}}\n"
    );

    std::fs::write("BENCH_PR1.json", &out).expect("write BENCH_PR1.json");
    println!("wrote BENCH_PR1.json");

    assert!(deterministic, "determinism contract violated");
    let headline = rect.speedup_parallel().min(mc.speedup_parallel());
    if headline < 2.0 {
        println!("WARNING: headline speedup {headline:.2}x below the 2x acceptance bar");
    }
}
