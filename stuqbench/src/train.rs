//! `train-fit`: one `DeepStuq::fit` — pre-training, one 2-epoch AWA cycle
//! and calibration — at batch 8 on a short 307-sensor step range. A closed
//! loop of one job, and the only workload that runs backward, the
//! optimizer and AWA averaging.
//!
//! The untraced run times `DeepStuq::fit` itself, back to back for the
//! run's seconds; per-epoch times come from the program's own phase table
//! (`stuq_obs::span_timings`). Every fit must give the first fit's model
//! bit for bit. The traced run
//! fits once untraced, then replays the fit through the public stage
//! functions `fit` calls, with a span around each, and checks the replayed
//! model is bit-identical. Forward, backward and optimizer steps are only
//! reachable inside an epoch, so they are timed as probes on the same
//! windows.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use deepstuq::awa::AwaState;
use deepstuq::calibrate::calibrate_on_validation;
use deepstuq::trainer::{loss_node, train_epoch_guarded, LossKind};
use deepstuq::{
    AwaConfig, CalibConfig, DeepStuq, DeepStuqConfig, FitOptions, FitOutcome, GuardState, Stage,
};
use stuq_models::{Agcrn, Forecaster};
use stuq_nn::opt::{Adam, Optimizer};
use stuq_nn::FwdCtx;
use stuq_tensor::{StuqRng, Tape};
use stuq_traffic::{Split, SplitDataset};

use crate::fixtures::{self, MC};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Tracer, NO_REQUEST};
use crate::Opts;

/// Steps of the training series: 6:2:2 splits leave 49 training windows.
const TRAIN_STEPS: usize = 120;
/// Mini-batch size of both training stages.
const BATCH: usize = 8;
/// Set-ups per run for the set-up time, each in a fresh process: the cold
/// set-up time differs from process to process (by up to a quarter on a
/// 2-vCPU VM), so a run takes the median over several.
const SETUPS: usize = 9;
/// Fits an untraced run makes at least, whatever its seconds.
const MIN_FITS: f64 = 2.0;
/// Windows the forward/backward/optimizer probes run on.
const PROBE_WINDOWS: usize = 6;

/// The paper configuration with the benchmark's epoch counts.
pub fn config() -> DeepStuqConfig {
    let mut c = fixtures::paper_config();
    c.train.epochs = 1;
    c.train.batch_size = BATCH;
    c.awa = Some(AwaConfig { epochs: 2, batch_size: BATCH, ..AwaConfig::default() });
    c.calib = Some(CalibConfig { mc_samples: MC, max_iters: 500, stride: 1 });
    c
}

/// Set-up: load the dataset artifact, build the model, answer one forward
/// pass.
fn setup(path: &Path, cfg: &DeepStuqConfig, seed: u64) -> Result<(), String> {
    let ds = stuq_traffic::load_split_dataset(path).map_err(|e| e.to_string())?;
    let model = Agcrn::new(cfg.base.clone(), &mut StuqRng::new(seed));
    let w = ds.window(ds.window_starts(Split::Train)[0]);
    let mut rng = StuqRng::new(seed);
    let mut tape = Tape::new();
    let pred = model.forward(&mut tape, &w.x, &mut FwdCtx::eval(&mut rng));
    std::hint::black_box(tape.value(pred.point()).len());
    Ok(())
}

/// A set-up process: `stuqbench setup-child <dataset> <seed>` runs
/// [`setup`] and answers `ready` on standard output.
pub fn setup_child(args: &[String]) -> ! {
    let seed = args.get(1).and_then(|s| s.parse().ok());
    let (Some(path), Some(seed)) = (args.first(), seed) else {
        eprintln!("stuqbench setup-child: expected <dataset> <seed>");
        std::process::exit(2);
    };
    match setup(Path::new(path), &config(), seed) {
        Ok(()) => {
            println!("ready");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("stuqbench setup-child: {e}");
            std::process::exit(1);
        }
    }
}

/// Starts one set-up process and returns the time from its spawn to its
/// answer.
fn timed_setup(path: &Path, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .arg("setup-child")
        .arg(path)
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut answer = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut answer);
    let setup_s = t.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match (read, status.success()) {
        (Ok(_), true) if answer.trim() == "ready" => Ok(setup_s),
        _ => Err(format!("set-up process ended with {status} and answer {answer:?}")),
    }
}

/// Epoch wall times from the program's phase table: the pre-training
/// epoch, and the two AWA epochs recovered from their total and maximum.
fn epoch_times() -> Option<Vec<f64>> {
    let t = stuq_obs::span_timings();
    let find = |p: &str| t.iter().find(|x| x.path == p);
    let (pre, awa) = (find("pretrain/epoch")?, find("awa/epoch")?);
    (pre.count == 1 && awa.count == 2)
        .then(|| vec![pre.total_s, awa.max_s, awa.total_s - awa.max_s])
}

fn untraced_fit(
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    seed: u64,
) -> Result<(DeepStuq, f64, f64), String> {
    stuq_obs::init(None, stuq_obs::Level::Summary);
    let cpu0 = crate::procfs::cpu_s("self").unwrap_or(0.0);
    let t = Instant::now();
    let out =
        DeepStuq::fit(ds, cfg.clone(), seed, &FitOptions::default()).map_err(|e| e.to_string())?;
    let fit_s = t.elapsed().as_secs_f64();
    let cpu_s = crate::procfs::cpu_s("self").unwrap_or(0.0) - cpu0;
    match out {
        FitOutcome::Complete { model, guard } if guard.is_clean() => Ok((model, fit_s, cpu_s)),
        FitOutcome::Complete { guard, .. } => Err(format!("divergence guard tripped: {guard:?}")),
        FitOutcome::Paused { .. } => Err("fit paused without an epoch budget".into()),
    }
}

/// Checks a fitted model is usable: positive finite temperature, finite
/// weights.
fn sane(m: &DeepStuq) -> bool {
    m.temperature().is_finite()
        && m.temperature() > 0.0
        && m.model().params().snapshot().iter().all(|t| t.data().iter().all(|v| v.is_finite()))
}

/// Bit patterns of everything a fitted model consists of.
fn model_bits(m: &DeepStuq) -> Vec<u32> {
    let mut bits = vec![m.temperature().to_bits(), m.mc_samples() as u32];
    for t in m.model().params().snapshot() {
        bits.extend(t.data().iter().map(|v| v.to_bits()));
    }
    bits
}

/// Runs `train-fit` and fills `rep`.
pub fn run(o: &Opts, rep: &mut Report) {
    let cfg = config();
    let path = o.work.join("fixtures").join("train.stuqd");
    let generated = fixtures::dataset(TRAIN_STEPS, o.seed);
    if let Err(e) = stuq_traffic::save_dataset(generated.data(), &path) {
        return rep.problem(format!("writing the training dataset: {e}"));
    }
    drop(generated);

    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        match timed_setup(&path, o.seed) {
            Ok(s) => setups.push(s),
            Err(e) => return rep.problem(format!("set-up: {e}")),
        }
    }
    let ds = match stuq_traffic::load_split_dataset(&path) {
        Ok(d) => d,
        Err(e) => return rep.problem(format!("loading the training dataset: {e}")),
    };
    let windows = ds.window_starts(Split::Train).len();
    let units = (windows * cfg.total_epochs()) as f64;
    println!(
        "plan: sensors={} steps={TRAIN_STEPS} train_windows={windows} epochs={} batch={BATCH} mc={MC}",
        ds.n_nodes(),
        cfg.total_epochs()
    );
    println!("setup: n={SETUPS} setup_s={setups:?} median={:.4}", stats::median(&setups));
    rep.set("setup_s", stats::median(&setups));

    // Fits back to back while the next one is expected to end within the
    // run's seconds (at least [`MIN_FITS`]; one in a traced run). The latency is the
    // median epoch of them all, throughput and CPU are over all fits, so a
    // burst of contention from outside the run moves an epoch, not the
    // result.
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let (mut epochs, mut fits, mut fit_total, mut cpu_total) = (Vec::new(), 0.0, 0.0, 0.0);
    let mut first: Option<(DeepStuq, f64)> = None;
    loop {
        rep.tally.sent += 1;
        let (model, fit_s, cpu_s) = match untraced_fit(&ds, &cfg, o.seed) {
            Ok(x) => x,
            Err(e) => return rep.problem(format!("DeepStuq::fit: {e}")),
        };
        let Some(times) = epoch_times() else {
            return rep.problem("the phase table lacks the pretrain/awa epoch spans");
        };
        if !sane(&model) {
            return rep.problem("fitted model has a non-finite weight or temperature");
        }
        println!(
            "fit: fit_s={fit_s:.4} fit_cpu_s={cpu_s:.3} epochs_s={times:?} temperature={}",
            model.temperature()
        );
        if first.as_ref().is_some_and(|(m, _)| model_bits(m) != model_bits(&model)) {
            rep.tally.add(crate::classify::Class::Mismatched);
            return rep.problem("a repeated fit differs from the first");
        }
        rep.tally.add(crate::classify::Class::Ok);
        epochs.extend(times);
        fit_total += fit_s;
        cpu_total += cpu_s;
        fits += 1.0;
        first.get_or_insert((model, fit_s));
        let late = Instant::now() + Duration::from_secs_f64(fit_s) > deadline;
        if rep.traced() || (fits >= MIN_FITS && late) {
            break;
        }
    }
    println!("fits: n={fits} epochs_s {}", stats::describe(&epochs));
    rep.set("env.requests", fits);
    rep.set("latency_p50_ms", stats::median(&epochs) * 1e3);
    rep.set("throughput_per_s", units * fits / fit_total);
    rep.set("cpu_ms_per_unit", cpu_total * 1e3 / (units * fits));
    rep.set("peak_rss_mb", crate::procfs::peak_rss_mb("self").unwrap_or(0.0));
    rep.set("deepstuq.fit_s", fit_total / fits);

    if rep.traced() {
        let (model, fit_s) = first.expect("at least one fit");
        traced(o, &ds, &cfg, &model, fit_s, rep);
    }
}

/// Replays `DeepStuq::fit` stage by stage with spans, checks bit identity,
/// and runs the layer probes.
fn traced(
    o: &Opts,
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    fitted: &DeepStuq,
    fit_s: f64,
    rep: &mut Report,
) {
    let tracer = Tracer::new(true);
    rep.tally.sent += 1;
    let t0 = Instant::now();
    let replayed = match replay(ds, cfg, o.seed, &tracer) {
        Ok(m) => m,
        Err(e) => return rep.problem(format!("replay: {e}")),
    };
    tracer.record("fit", "", NO_REQUEST, t0, Instant::now());
    if model_bits(&replayed) == model_bits(fitted) {
        rep.tally.add(crate::classify::Class::Ok);
        println!("replay: bit-identical to DeepStuq::fit");
    } else {
        rep.tally.add(crate::classify::Class::Mismatched);
        rep.problem("replayed model differs from DeepStuq::fit");
    }
    let spans = tracer.spans();
    let replay_s = tracer.ms("fit")[0] / 1e3;
    let pre = tracer.ms("deepstuq.pretrain_epoch");
    let awa = tracer.ms("deepstuq.awa_epoch");
    let cal = tracer.ms("deepstuq.calibrate");
    println!("replay: fit_s={replay_s:.4} pretrain_epoch_ms={pre:?} awa_epoch_ms={awa:?} calibrate_ms={cal:?}");
    rep.set("deepstuq.pretrain_epoch_s", stats::median(&pre) / 1e3);
    rep.set("deepstuq.awa_epoch_s", stats::median(&awa) / 1e3);
    rep.set("deepstuq.calibrate_s", stats::median(&cal) / 1e3);
    rep.set("trace.overhead_frac", replay_s / fit_s - 1.0);
    rep.set("trace.unattributed_frac", trace::unattributed_frac(&spans, "fit"));
    probes(ds, cfg, &replayed, o.seed, &tracer, rep);
    crate::matmul_probe(&tracer, rep);
    crate::write_trace(&tracer, o, rep);
}

/// `DeepStuq::fit` without checkpoints, through the public stage functions
/// it calls, in the same order and with the same RNG stream.
fn replay(
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    seed: u64,
    tr: &Tracer,
) -> Result<DeepStuq, String> {
    let opts = FitOptions::default();
    let kind = LossKind::Combined { lambda: cfg.train.lambda };
    let mut rng = StuqRng::new(seed);
    let mut model =
        tr.time("deepstuq.init", "fit", NO_REQUEST, || Agcrn::new(cfg.base.clone(), &mut rng));
    let mut gstate = GuardState::default();
    let mut opt = Adam::new(cfg.train.lr, cfg.train.weight_decay);
    for _ in 0..cfg.train.epochs {
        tr.time("deepstuq.pretrain_epoch", "fit", NO_REQUEST, || {
            train_epoch_guarded(
                &mut model,
                ds,
                cfg.train.batch_size,
                kind,
                &mut opt,
                cfg.train.grad_clip,
                &mut rng,
                None,
                Stage::Pretrain,
                &opts.guard,
                &mut gstate,
            )
        })
        .map_err(|e| e.to_string())?;
    }
    let awa_cfg = cfg.awa.as_ref().ok_or("config has no AWA stage")?;
    let mut st = AwaState::new(awa_cfg, cfg.train.weight_decay).map_err(|e| e.to_string())?;
    while st.epochs_done() < awa_cfg.epochs {
        tr.time("deepstuq.awa_epoch", "fit", NO_REQUEST, || {
            st.run_epoch(&mut model, ds, awa_cfg, kind, &mut rng, &opts.guard, &mut gstate)
        })
        .map_err(|e| e.to_string())?;
    }
    tr.time("deepstuq.awa_finish", "fit", NO_REQUEST, || st.finish(&mut model));
    let calib = cfg.calib.as_ref().ok_or("config has no calibration stage")?;
    let temperature = tr
        .time("deepstuq.calibrate", "fit", NO_REQUEST, || {
            calibrate_on_validation(&model, ds, calib, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    Ok(DeepStuq::from_parts(model, temperature, cfg.mc_samples))
}

/// One training step's layers on a copy of the fitted model: the forward
/// pass on a train tape (`models`), the reverse sweep (`tensor`) and the
/// optimizer step (`nn`).
fn probes(
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    fitted: &DeepStuq,
    seed: u64,
    tr: &Tracer,
    rep: &mut Report,
) {
    let mut model = fitted.model().clone();
    let mut opt = Adam::new(cfg.train.lr, cfg.train.weight_decay);
    let mut rng = StuqRng::new(seed);
    let kind = LossKind::Combined { lambda: cfg.train.lambda };
    let mut nodes = Vec::new();
    for &s in ds.window_starts(Split::Train).iter().take(PROBE_WINDOWS) {
        let w = ds.window(s);
        let y = ds.normalize_target(&w.y_raw).transpose();
        let mut tape = Tape::new();
        let loss = tr.time("models.forward_train", "probe", NO_REQUEST, || {
            let pred = model.forward(&mut tape, &w.x, &mut FwdCtx::train(&mut rng));
            let target = tape.constant(y);
            loss_node(&mut tape, &pred, target, kind)
        });
        let Ok(loss) = loss else {
            return rep.problem("probe: loss node rejected the Gaussian head");
        };
        nodes.push(tape.len() as f64);
        let grads = tr.time("tensor.backward", "probe", NO_REQUEST, || tape.backward(loss));
        tr.time("nn.opt_step", "probe", NO_REQUEST, || opt.step(model.params_mut(), &grads));
    }
    for (name, metric) in [
        ("models.forward_train", "models.forward_train_ms"),
        ("tensor.backward", "tensor.backward_ms"),
        ("nn.opt_step", "nn.opt_step_ms"),
    ] {
        let ms = tr.ms(name);
        println!("probe {name} ms {}", stats::describe(&ms));
        rep.set(metric, stats::median(&ms));
    }
    rep.set("tensor.tape_nodes", stats::median(&nodes));
}
