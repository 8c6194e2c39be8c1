//! Machine-readable speedup record for the static-schedule replay PR.
//!
//! A backward engine that re-derives its level schedule on every call lost
//! to the seed's serial walk on one core (0.67–0.75×): per-call schedule
//! derivation and edge-arena bookkeeping ate the parallel win. This bench
//! times the compiled-[`ReplayPlan`] engine (DESIGN.md §14) against the
//! seed baselines:
//!
//! - `backward`: the reverse sweep over a real AGCRN training tape —
//!   warm `ReplayPlan::run` (schedule frozen, scratch preallocated, unary
//!   adjoint chains fused) vs [`Tape::backward_serial`] (the seed walk);
//! - `epoch`: one end-to-end training epoch (forward + backward + Adam)
//!   through the public dispatcher, so replay plans are compiled on the
//!   first batch and replayed for the rest of the epoch;
//! - plan-compile cost and fusion statistics, to show the one-off price of
//!   the frozen schedule.
//!
//! Results go to `BENCH_PR8.json` in the current directory. The binary
//! *asserts* the determinism contract — replayed gradients (fresh plan, warm
//! plan, forced-serial pool, public dispatcher) bit-identical to the serial
//! walk, and 1-epoch parameters bit-identical with replay on vs off (the
//! serial oracle) and serial vs parallel — and exits nonzero on divergence. `ci/bench_gate.sh`
//! reads the emitted ratios against the floors in `ci/bench_floors.env`
//! (`--quick` shortens the timing loops without weakening the checks).

use std::fmt::Write as _;

use deepstuq::trainer::{loss_node, train_epoch, LossKind};
use stuq_bench::timing::{bench_interleaved, bench_with, Sample};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind};
use stuq_nn::layers::FwdCtx;
use stuq_nn::opt::Adam;
use stuq_tensor::{kernels, GradStore, ReplayPlan, StuqRng, Tape, Tensor};
use stuq_traffic::{Preset, SplitDataset};

/// The three execution modes of one workload, plus derived ratios.
struct Triple {
    seed: Sample,
    engine_serial: Sample,
    parallel: Sample,
}

impl Triple {
    fn speedup_serial(&self) -> f64 {
        self.seed.best_s / self.engine_serial.best_s
    }
    fn speedup_parallel(&self) -> f64 {
        self.seed.best_s / self.parallel.best_s
    }
    fn thread_scaling(&self) -> f64 {
        self.engine_serial.best_s / self.parallel.best_s
    }
}

/// Records one full AGCRN training-loss tape (forward + combined loss) at
/// Pems04Like scale — exactly the graph `sample_grad` replays every batch.
fn training_tape() -> (Tape, usize) {
    let mut rng = StuqRng::new(0x404);
    let cfg = AgcrnConfig::new(307, 12)
        .with_capacity(32, 8, 2)
        .with_dropout(0.1, 0.2)
        .with_head(HeadKind::Gaussian);
    let model = Agcrn::new(cfg, &mut rng);
    let x = Tensor::randn(&[12, 307], 1.0, &mut rng);
    let y = Tensor::randn(&[307, 12], 1.0, &mut rng);
    let mut tape = Tape::new();
    let mut ctx = FwdCtx::train(&mut rng);
    let pred = model.forward(&mut tape, &x, &mut ctx);
    let target = tape.constant(y);
    let l = loss_node(&mut tape, &pred, target, LossKind::Combined { lambda: 0.1 })
        .expect("gaussian head takes the combined loss");
    (tape, l)
}

impl Triple {
    /// Builds a triple from the three interleaved samples, in
    /// seed / engine-serial / parallel order.
    fn from_samples(samples: Vec<Sample>) -> Self {
        let [seed, engine_serial, parallel]: [Sample; 3] =
            samples.try_into().expect("three variants");
        Triple { seed, engine_serial, parallel }
    }
}

/// Seed = the genuine pre-engine walk; engine-serial = warm replay; both on a
/// forced-serial pool, so `speedup_serial_vs_seed` compares two runs at
/// width 1 (the seed walk's adjoint matmuls would otherwise fan out).
/// Parallel = warm replay with the pool fanning out frozen chunks. The three
/// variants run interleaved, one iteration each per round, so machine noise
/// cannot land on only one side of a ratio.
fn time_backward(tape: &Tape, l: usize, plan: &mut ReplayPlan, secs: f64, reps: usize) -> Triple {
    let plan = std::cell::RefCell::new(plan);
    let mut seed = || {
        stuq_parallel::with_serial(|| std::hint::black_box(tape.backward_serial(l)));
    };
    let mut engine_serial = || {
        stuq_parallel::with_serial(|| std::hint::black_box(plan.borrow_mut().run(tape)));
    };
    let mut parallel = || {
        std::hint::black_box(plan.borrow_mut().run(tape));
    };
    Triple::from_samples(bench_interleaved(
        &["backward serial", "backward replay-serial", "backward replay-parallel"],
        secs,
        reps,
        &mut [&mut seed, &mut engine_serial, &mut parallel],
    ))
}

fn grads_bit_identical(a: &GradStore, b: &GradStore) -> bool {
    a.len() == b.len()
        && a.iter().all(|(slot, ga)| {
            b.get(slot).is_some_and(|gb| {
                ga.data().iter().zip(gb.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
}

fn epoch_fixture() -> SplitDataset {
    Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(21)
}

fn run_epoch(ds: &SplitDataset) -> Vec<Tensor> {
    let mut rng = StuqRng::new(77);
    let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
        .with_capacity(16, 4, 1)
        .with_dropout(0.05, 0.1)
        .with_head(HeadKind::Gaussian);
    let mut model = Agcrn::new(cfg, &mut rng);
    let mut opt = Adam::new(3e-3, 1e-6);
    train_epoch(
        &mut model,
        ds,
        8,
        LossKind::Combined { lambda: 0.1 },
        &mut opt,
        5.0,
        &mut rng,
        None,
    )
    .expect("epoch trains");
    model.params().snapshot()
}

fn params_bit_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits()))
}

fn time_epoch(ds: &SplitDataset, secs: f64, reps: usize) -> Triple {
    let mut seed = || {
        stuq_parallel::with_serial(|| {
            kernels::with_reference_kernels(|| std::hint::black_box(run_epoch(ds)))
        });
    };
    let mut engine_serial = || {
        stuq_parallel::with_serial(|| std::hint::black_box(run_epoch(ds)));
    };
    let mut parallel = || {
        std::hint::black_box(run_epoch(ds));
    };
    Triple::from_samples(bench_interleaved(
        &["epoch seed", "epoch engine-serial", "epoch parallel"],
        secs,
        reps,
        &mut [&mut seed, &mut engine_serial, &mut parallel],
    ))
}

fn triple_json(out: &mut String, key: &str, extra: &str, t: &Triple) {
    let _ = write!(
        out,
        "  \"{key}\": {{\n{extra}    \"seed_ms\": {:.3},\n    \"engine_serial_ms\": {:.3},\n    \
         \"parallel_ms\": {:.3},\n    \"parallel_p50_ms\": {:.3},\n    \
         \"parallel_p95_ms\": {:.3},\n    \"parallel_p99_ms\": {:.3},\n    \
         \"speedup_serial_vs_seed\": {:.2},\n    \
         \"speedup_parallel_vs_seed\": {:.2},\n    \"thread_scaling\": {:.2}\n  }},\n",
        t.seed.best_s * 1e3,
        t.engine_serial.best_s * 1e3,
        t.parallel.best_s * 1e3,
        t.parallel.p50_s * 1e3,
        t.parallel.p95_s * 1e3,
        t.parallel.p99_s * 1e3,
        t.speedup_serial(),
        t.speedup_parallel(),
        t.thread_scaling(),
    );
}

fn print_triple(label: &str, t: &Triple) {
    println!(
        "{label}: seed {:.2} ms | engine-serial {:.2} ms ({:.2}x) | parallel {:.2} ms ({:.2}x)",
        t.seed.best_s * 1e3,
        t.engine_serial.best_s * 1e3,
        t.speedup_serial(),
        t.parallel.best_s * 1e3,
        t.speedup_parallel(),
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = stuq_parallel::num_threads();
    let (secs, reps): (f64, usize) = if quick { (0.15, 3) } else { (0.7, 50) };
    println!("bench_pr8: {threads} thread(s) configured{}", if quick { ", --quick" } else { "" });

    let (tape, l) = training_tape();
    let n_nodes = l + 1;

    // One-off plan-compile cost (amortised over an epoch's batches).
    let compile = bench_with("replay compile", secs.min(0.2), reps, || {
        std::hint::black_box(ReplayPlan::compile(&tape, l))
    });
    let mut plan = ReplayPlan::compile(&tape, l);
    println!(
        "plan: {} tape nodes -> {} tasks over {} levels; {} fused chains absorbing {} nodes; \
         compile {:.2} ms",
        n_nodes,
        plan.n_tasks(),
        plan.n_levels(),
        plan.fused_chains(),
        plan.fused_nodes(),
        compile.best_s * 1e3,
    );

    // Bit-identity before timing: fresh plan, warm plan, forced-serial pool
    // and the public dispatcher must all reproduce the seed walk exactly.
    let replay_ok = {
        let serial = tape.backward_serial(l);
        let mut fresh_plan = ReplayPlan::compile(&tape, l);
        let fresh = fresh_plan.run(&tape);
        let warm = plan.run(&tape);
        let warm2 = plan.run(&tape);
        let forced = stuq_parallel::with_serial(|| plan.run(&tape));
        let auto = tape.backward(l);
        grads_bit_identical(&serial, &fresh)
            && grads_bit_identical(&serial, &warm)
            && grads_bit_identical(&serial, &warm2)
            && grads_bit_identical(&serial, &forced)
            && grads_bit_identical(&serial, &auto)
    };
    println!("replayed backward bit-identical to serial walk: {replay_ok}");

    let bwd = time_backward(&tape, l, &mut plan, secs, reps);
    print_triple(&format!("backward ({n_nodes} tape nodes)"), &bwd);

    let ds = epoch_fixture();
    let (esecs, ereps) = if quick { (0.0, 1) } else { (2.0, 5) };
    let epoch = time_epoch(&ds, esecs, ereps);
    print_triple("train epoch (Pems08Like 0.08)", &epoch);

    // Epoch determinism: replay on vs off, and serial vs parallel pool.
    let par = run_epoch(&ds);
    let ser = stuq_parallel::with_serial(|| run_epoch(&ds));
    let off = stuq_tensor::with_replay_disabled(|| run_epoch(&ds));
    let epoch_threads_ok = params_bit_identical(&par, &ser);
    let epoch_replay_ok = params_bit_identical(&par, &off);
    println!("1-epoch parallel vs serial parameters bit-identical: {epoch_threads_ok}");
    println!("1-epoch replay-on vs replay-off parameters bit-identical: {epoch_replay_ok}");

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"workload_scale\": \"Pems04Like tape (307 nodes), Pems08Like epoch (0.08 scale)\",\n  \
         \"threads\": {threads},\n  \"quick\": {quick},\n  \
         \"baseline\": \"seed Tape::backward_serial + with_reference_kernels epoch\",\n  \
         \"plan\": {{\n    \"tape_nodes\": {n_nodes},\n    \"tasks\": {},\n    \
         \"levels\": {},\n    \"fused_chains\": {},\n    \"fused_nodes\": {},\n    \
         \"compile_ms\": {:.3}\n  }},\n",
        plan.n_tasks(),
        plan.n_levels(),
        plan.fused_chains(),
        plan.fused_nodes(),
        compile.best_s * 1e3,
    );
    triple_json(&mut out, "backward", &format!("    \"tape_nodes\": {n_nodes},\n"), &bwd);
    triple_json(&mut out, "epoch", "    \"batch_size\": 8,\n", &epoch);
    let _ = write!(
        out,
        "  \"determinism\": {{\n    \"replay_bit_identical_to_serial\": {replay_ok},\n    \
         \"epoch_params_bit_identical_across_thread_counts\": {epoch_threads_ok},\n    \
         \"epoch_params_bit_identical_replay_on_off\": {epoch_replay_ok}\n  }},\n  \
         \"notes\": [\n    \"backward.speedup_serial_vs_seed is the PR target: warm replay on a 1-thread pool vs the seed serial walk\",\n    \
         \"epoch.speedup_serial_vs_seed folds in the fast kernels; ci/bench_floors.env floors both ratios\",\n    \
         \"determinism flags are hard-asserted: the binary exits nonzero if any is false\"\n  ]\n}}\n"
    );

    std::fs::write("BENCH_PR8.json", &out).expect("write BENCH_PR8.json");
    println!("wrote BENCH_PR8.json");

    assert!(replay_ok, "replayed backward diverged from the serial walk");
    assert!(epoch_threads_ok, "epoch parameters depend on the thread count");
    assert!(epoch_replay_ok, "epoch parameters depend on the replay engine");
    assert!(plan.fused_chains() > 0, "the AGCRN tape must produce fused chains");
}
