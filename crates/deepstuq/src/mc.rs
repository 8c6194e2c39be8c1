//! Monte-Carlo dropout inference and uncertainty combination (Eq. 19).

use std::time::Instant;
use stuq_models::{Forecaster, Prediction};
use stuq_nn::layers::FwdCtx;
use stuq_nn::loss::{LOGVAR_MAX, LOGVAR_MIN};
use stuq_tensor::{StuqRng, Tape, Tensor};

/// The result of Monte-Carlo inference, in *normalised* units.
///
/// The decomposition follows paper Eq. 7 / Eq. 19: aleatoric variance is the
/// MC average of the per-sample predicted variances; epistemic variance is
/// the sample variance of the per-sample predicted means.
#[derive(Clone, Debug)]
pub struct GaussianForecast {
    /// Predictive mean `μ̂` (Eq. 19a), shape `[N, τ]`.
    pub mu: Tensor,
    /// Mean aleatoric variance (before temperature scaling), `[N, τ]`.
    pub var_aleatoric: Tensor,
    /// Epistemic variance (unbiased across MC samples; zero for a single
    /// deterministic pass), `[N, τ]`.
    pub var_epistemic: Tensor,
    /// Number of Monte-Carlo samples used.
    pub n_samples: usize,
}

impl GaussianForecast {
    /// Total predictive variance under temperature `t` (Eq. 19b):
    /// `σ̂² = σ²_aleatoric / T² + σ²_epistemic`.
    ///
    /// The paper's Eq. 19b prints `1/T`; we use `1/T²`, which is what the
    /// calibration objective (Eq. 17–18, scaling `σ → σ/T`) implies for the
    /// variance. See EXPERIMENTS.md.
    pub fn var_total(&self, t: f32) -> Tensor {
        assert!(t > 0.0, "temperature must be positive");
        let inv_t2 = 1.0 / (t * t);
        self.var_aleatoric.scale(inv_t2).add(&self.var_epistemic)
    }

    /// Total predictive standard deviation under temperature `t`.
    pub fn sigma_total(&self, t: f32) -> Tensor {
        self.var_total(t).map(f32::sqrt)
    }
}

/// One forward pass: `(μ_j, σ²_j?)` in normalised units.
type SamplePass = (Tensor, Option<Tensor>);

/// Combines the passes of one run into the Eq. 19 decomposition.
///
/// Accumulation runs in *sample-index order* — together with the
/// per-sample RNG streams this is what makes every sampling path
/// bit-identical across thread counts.
fn reduce(samples: &[SamplePass], shape: [usize; 2]) -> GaussianForecast {
    let n = samples.len();
    let mut mean = Tensor::zeros(&shape);
    let mut mean_sq = Tensor::zeros(&shape);
    let mut var_sum = Tensor::zeros(&shape);
    for (mu_j, var_j) in samples {
        if let Some(v) = var_j {
            var_sum.add_assign(v);
        }
        mean_sq.add_assign(&mu_j.mul(mu_j));
        mean.add_assign(mu_j);
    }
    let inv_n = 1.0 / n as f32;
    mean = mean.scale(inv_n);
    let var_aleatoric = var_sum.scale(inv_n);
    // Unbiased sample variance of the means (Eq. 19b, second term).
    let var_epistemic = if n > 1 {
        let correction = n as f32 / (n as f32 - 1.0);
        mean_sq.scale(inv_n).sub(&mean.mul(&mean)).scale(correction).map(|v| v.max(0.0))
    } else {
        Tensor::zeros(&shape)
    };
    GaussianForecast { mu: mean, var_aleatoric, var_epistemic, n_samples: n }
}

/// One forward pass on its own tape. `deterministic` selects the eval
/// context (the single-sample `DeepSTUQ/S` mode and ensemble members);
/// otherwise dropout stays live ([`FwdCtx::mc_sample`]). Every MC sample
/// and every ensemble member is drawn here.
pub(crate) fn run_pass(
    model: &dyn Forecaster,
    x: &Tensor,
    cov: Option<&Tensor>,
    stream: &StuqRng,
    deterministic: bool,
) -> SamplePass {
    let mut r = stream.clone();
    let mut tape = Tape::new();
    let mut ctx = if deterministic { FwdCtx::eval(&mut r) } else { FwdCtx::mc_sample(&mut r) };
    let pred = model.forward_with_cov(&mut tape, x, cov, &mut ctx);
    let mu_j = tape.value(pred.point()).clone();
    let var_j = if let Prediction::Gaussian { logvar, .. } = pred {
        Some(tape.value(logvar).map(|lv| lv.clamp(LOGVAR_MIN, LOGVAR_MAX).exp()))
    } else {
        None
    };
    (mu_j, var_j)
}

/// The sampling core behind every MC and ensemble forecast: forks one RNG
/// stream per pass, fans the passes out, records MC telemetry, and reduces.
///
/// Pass `j` is `pass(j, &stream_j)`. Passes below `floor` (clamped to
/// `1..=n_samples`) are unconditional and run as one parallel round; each
/// later pass runs as a round of its own, only after `budget` admits it,
/// and a denial stops sampling with the passes completed so far. After
/// each round `observer` sees the reduction over every new prefix, in
/// order. Each round is one `stuq_mc_sample_seconds` observation at trace.
///
/// Determinism: the streams are forked on the calling thread, up front,
/// for the full requested count — so pass `j` consumes stream `j` on any
/// pool width, and the caller's RNG advances identically whether or not
/// the budget cuts the run short — and the reduction folds in index order.
pub(crate) fn sample_anytime(
    shape: [usize; 2],
    n_samples: usize,
    floor: usize,
    budget: &mut dyn SampleBudget,
    rng: &mut StuqRng,
    mut observer: Option<&mut dyn FnMut(&GaussianForecast)>,
    pass: impl Fn(usize, &StuqRng) -> SamplePass + Sync,
) -> AnytimeForecast {
    assert!(n_samples >= 1, "need at least one sample");
    let streams: Vec<StuqRng> = (0..n_samples).map(|j| rng.fork(j as u64)).collect();
    let trace = stuq_obs::trace_enabled();
    let t0 = trace.then(Instant::now);
    let mut samples: Vec<SamplePass> = Vec::with_capacity(n_samples);
    let mut end = floor.clamp(1, n_samples);
    loop {
        let start = samples.len();
        let round_t0 = trace.then(Instant::now);
        let round = stuq_parallel::par_map(end - start, |k| pass(start + k, &streams[start + k]));
        samples.extend(round);
        if let Some(t) = round_t0 {
            stuq_obs::metrics().mc_sample_seconds.record(t.elapsed().as_secs_f64());
        }
        if let Some(obs) = observer.as_deref_mut() {
            (start + 1..=end).for_each(|k| obs(&reduce(&samples[..k], shape)));
        }
        if end == n_samples || !budget.allow(end) {
            break;
        }
        end += 1;
    }
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().mc_samples.add(end as u64);
    }
    if let Some(t0) = t0 {
        let secs = t0.elapsed().as_secs_f64();
        let m = stuq_obs::metrics();
        m.mc_forecast_seconds.record(secs);
        if secs > 0.0 {
            m.mc_samples_per_sec.set(end as f64 / secs);
        }
    }
    AnytimeForecast { forecast: reduce(&samples, shape), samples_requested: n_samples }
}

/// Runs `n_samples` stochastic forward passes (`n_samples == 1` runs a single
/// deterministic pass — the `DeepSTUQ/S` mode of Table III), with optional
/// exogenous covariates (`[t_h, c]`).
///
/// Works with Gaussian heads (aleatoric + epistemic) and point heads
/// (epistemic only — the MCDO baseline). Samples are data-parallel across
/// the global `stuq-parallel` pool and bit-identical for any pool width:
/// this is [`mc_forecast_anytime`] with the floor at `n_samples`.
pub fn mc_forecast(
    model: &dyn Forecaster,
    x: &Tensor,
    cov: Option<&Tensor>,
    n_samples: usize,
    rng: &mut StuqRng,
) -> GaussianForecast {
    mc_forecast_anytime(model, x, cov, n_samples, n_samples, &mut UnlimitedBudget, rng, None)
        .forecast
}

/// Decides, between MC forward passes, whether the sampler may draw another
/// sample.
///
/// [`mc_forecast_anytime`] consults the budget once before every pass beyond
/// the floor; returning `false` stops sampling with however many passes have
/// completed. Implementations are typically deadline clocks (the serving
/// runtime's remaining-budget check), but anything monotone works.
pub trait SampleBudget {
    /// May one more pass run, given that `completed` passes have finished?
    fn allow(&mut self, completed: usize) -> bool;
}

/// A budget that never exhausts: every requested sample runs.
pub struct UnlimitedBudget;

impl SampleBudget for UnlimitedBudget {
    fn allow(&mut self, _completed: usize) -> bool {
        true
    }
}

/// Result of an anytime MC run: the reduced forecast over however many
/// samples the budget admitted, plus the originally requested count.
#[derive(Clone, Debug)]
pub struct AnytimeForecast {
    /// Eq. 19 decomposition over the completed passes
    /// (`forecast.n_samples` is the number actually used).
    pub forecast: GaussianForecast,
    /// Samples the caller asked for.
    pub samples_requested: usize,
}

impl AnytimeForecast {
    /// True when the budget cut the run short of the requested count.
    pub fn degraded(&self) -> bool {
        self.forecast.n_samples < self.samples_requested
    }
}

/// [`mc_forecast`] with a cooperative deadline budget: the first `floor`
/// passes (clamped to `1..=n_samples`) always run; `budget` is checked
/// before each later pass, and the run returns early with the samples
/// completed so far. When `observer` is given it sees the reduction over
/// every completed prefix — the serving layer derives its monotone variance
/// envelope from these snapshots.
///
/// The pass mode is keyed on the *requested* count, so a cut run reduces
/// exactly the first `k` passes of the uncut one, and an uncut run is
/// bit-identical to [`mc_forecast`] for the same inputs.
#[allow(clippy::too_many_arguments)] // mc_forecast's inputs plus the budget knobs
pub fn mc_forecast_anytime(
    model: &dyn Forecaster,
    x: &Tensor,
    cov: Option<&Tensor>,
    n_samples: usize,
    floor: usize,
    budget: &mut dyn SampleBudget,
    rng: &mut StuqRng,
    observer: Option<&mut dyn FnMut(&GaussianForecast)>,
) -> AnytimeForecast {
    let shape = [model.n_nodes(), model.horizon()];
    sample_anytime(shape, n_samples, floor, budget, rng, observer, |_, stream| {
        run_pass(model, x, cov, stream, n_samples == 1)
    })
}

/// Ensemble combination for snapshot ensembles (FGE): one deterministic pass
/// per snapshot, data-parallel with one model clone per snapshot.
///
/// Returns the same decomposition as [`mc_forecast`], with the across-model
/// variance playing the epistemic role. On return `model` holds the *last*
/// snapshot, matching the sequential implementation's post-condition.
pub fn ensemble_forecast<M: Forecaster + Clone>(
    model: &mut M,
    snapshots: &[Vec<Tensor>],
    x: &Tensor,
    rng: &mut StuqRng,
) -> GaussianForecast {
    let (n, shape) = (snapshots.len(), [model.n_nodes(), model.horizon()]);
    let proto: &M = model;
    let f = sample_anytime(shape, n, n, &mut UnlimitedBudget, rng, None, |j, stream| {
        let mut member = proto.clone();
        member.params_mut().load_snapshot(&snapshots[j]);
        run_pass(&member, x, None, stream, true)
    });
    model.params_mut().load_snapshot(snapshots.last().expect("non-empty"));
    f.forecast
}

/// FNV-1a over the shapes and `f32` bit patterns of `tensors`, in order:
/// the golden-bit tests pin forecasts with it.
#[cfg(test)]
pub(crate) fn bits_hash<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in tensors {
        t.shape().iter().for_each(|&d| eat(d as u64));
        t.data().iter().for_each(|v| eat(v.to_bits() as u64));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_models::{Agcrn, AgcrnConfig, HeadKind};

    fn model_with_dropout(head: HeadKind, p: f32, rng: &mut StuqRng) -> Agcrn {
        let cfg = AgcrnConfig::new(5, 3).with_capacity(8, 3, 1).with_dropout(p, p).with_head(head);
        Agcrn::new(cfg, rng)
    }

    #[test]
    fn single_sample_is_deterministic_with_zero_epistemic() {
        let mut rng = StuqRng::new(1);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f1 = mc_forecast(&model, &x, None, 1, &mut rng);
        let f2 = mc_forecast(&model, &x, None, 1, &mut rng);
        assert_eq!(f1.mu.data(), f2.mu.data(), "n=1 disables dropout");
        assert_eq!(f1.var_epistemic.sum(), 0.0);
        assert!(f1.var_aleatoric.min() > 0.0);
    }

    #[test]
    fn mc_sampling_produces_positive_epistemic_variance() {
        let mut rng = StuqRng::new(2);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = mc_forecast(&model, &x, None, 8, &mut rng);
        assert!(f.var_epistemic.mean() > 0.0, "dropout must create spread");
        assert!(f.var_epistemic.min() >= 0.0);
    }

    #[test]
    fn point_head_yields_epistemic_only() {
        let mut rng = StuqRng::new(3);
        let model = model_with_dropout(HeadKind::Point, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = mc_forecast(&model, &x, None, 6, &mut rng);
        assert_eq!(f.var_aleatoric.sum(), 0.0);
        assert!(f.var_epistemic.mean() > 0.0);
    }

    #[test]
    fn temperature_scales_only_aleatoric_part() {
        let mut rng = StuqRng::new(4);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = mc_forecast(&model, &x, None, 8, &mut rng);
        let v1 = f.var_total(1.0);
        let v2 = f.var_total(2.0);
        // At T=2 the aleatoric part shrinks by 4×; epistemic unchanged.
        let expect = f.var_aleatoric.scale(0.25).add(&f.var_epistemic);
        for (a, b) in v2.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(v1.mean() > v2.mean());
    }

    #[test]
    fn more_samples_stabilise_the_mean() {
        // The MC mean at n=16 from two different RNG streams should agree
        // more closely than at n=2 (Fig. 11's mechanism).
        let mut rng = StuqRng::new(5);
        let model = model_with_dropout(HeadKind::Gaussian, 0.4, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let spread = |n: usize| {
            let mut r1 = StuqRng::new(100);
            let mut r2 = StuqRng::new(200);
            let f1 = mc_forecast(&model, &x, None, n, &mut r1);
            let f2 = mc_forecast(&model, &x, None, n, &mut r2);
            f1.mu.sub(&f2.mu).norm()
        };
        assert!(spread(32) < spread(2), "MC mean must concentrate with more samples");
    }

    #[test]
    fn mc_forecast_is_bit_identical_across_thread_counts() {
        // The fixed-seed forecast must not depend on how many threads run
        // the samples: forked streams + ordered reduction (DESIGN.md
        // "Threading & determinism").
        let mut rng = StuqRng::new(11);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let par = mc_forecast(&model, &x, None, 8, &mut StuqRng::new(42));
        let ser =
            stuq_parallel::with_serial(|| mc_forecast(&model, &x, None, 8, &mut StuqRng::new(42)));
        assert_eq!(par.mu.data(), ser.mu.data());
        assert_eq!(par.var_aleatoric.data(), ser.var_aleatoric.data());
        assert_eq!(par.var_epistemic.data(), ser.var_epistemic.data());
    }

    /// Denies everything: the anytime loop must stop exactly at the floor.
    struct DenyAll;
    impl SampleBudget for DenyAll {
        fn allow(&mut self, _c: usize) -> bool {
            false
        }
    }

    /// Admits passes while `completed < cap`.
    struct CapBudget(usize);
    impl SampleBudget for CapBudget {
        fn allow(&mut self, completed: usize) -> bool {
            completed < self.0
        }
    }

    #[test]
    fn anytime_uncut_matches_mc_forecast_bitwise() {
        let mut rng = StuqRng::new(21);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let full = mc_forecast(&model, &x, None, 8, &mut StuqRng::new(7));
        let any = mc_forecast_anytime(
            &model,
            &x,
            None,
            8,
            1,
            &mut UnlimitedBudget,
            &mut StuqRng::new(7),
            None,
        );
        assert!(!any.degraded());
        assert_eq!(any.forecast.n_samples, 8);
        assert_eq!(any.forecast.mu.data(), full.mu.data());
        assert_eq!(any.forecast.var_aleatoric.data(), full.var_aleatoric.data());
        assert_eq!(any.forecast.var_epistemic.data(), full.var_epistemic.data());
    }

    #[test]
    fn anytime_never_goes_below_the_floor() {
        let mut rng = StuqRng::new(22);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        for floor in [1usize, 3, 8] {
            let any = mc_forecast_anytime(
                &model,
                &x,
                None,
                8,
                floor,
                &mut DenyAll,
                &mut StuqRng::new(7),
                None,
            );
            assert_eq!(any.forecast.n_samples, floor, "DenyAll must stop exactly at the floor");
            assert_eq!(any.samples_requested, 8);
            assert_eq!(any.degraded(), floor < 8);
        }
        // An over-large floor clamps to the requested count.
        let any =
            mc_forecast_anytime(&model, &x, None, 4, 99, &mut DenyAll, &mut StuqRng::new(7), None);
        assert_eq!(any.forecast.n_samples, 4);
    }

    #[test]
    fn anytime_prefix_equals_batch_prefix_and_rng_advances_identically() {
        // A budget-cut run must (a) reduce exactly the first k streams of the
        // uncut fan-out and (b) leave the caller's RNG in the same state as an
        // uncut run, so downstream draws don't depend on load.
        let mut rng = StuqRng::new(23);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut r_cut = StuqRng::new(9);
        let cut = mc_forecast_anytime(&model, &x, None, 8, 1, &mut CapBudget(3), &mut r_cut, None);
        assert_eq!(cut.forecast.n_samples, 3);
        assert!(cut.degraded());
        let mut r_full = StuqRng::new(9);
        let full = mc_forecast(&model, &x, None, 8, &mut r_full);
        assert_ne!(cut.forecast.mu.data(), full.mu.data(), "3-sample mean differs from 8-sample");
        let a = Tensor::randn(&[3, 3], 1.0, &mut r_cut);
        let b = Tensor::randn(&[3, 3], 1.0, &mut r_full);
        assert_eq!(a.data(), b.data(), "caller RNG state must be budget-independent");
    }

    #[test]
    fn anytime_observer_sees_every_prefix() {
        let mut rng = StuqRng::new(24);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut seen = Vec::new();
        let mut obs = |g: &GaussianForecast| seen.push(g.n_samples);
        let any = mc_forecast_anytime(
            &model,
            &x,
            None,
            6,
            1,
            &mut UnlimitedBudget,
            &mut StuqRng::new(7),
            Some(&mut obs),
        );
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(any.forecast.n_samples, 6);
    }

    #[test]
    fn ensemble_variance_zero_for_identical_snapshots() {
        let mut rng = StuqRng::new(6);
        let mut model = model_with_dropout(HeadKind::Point, 0.0, &mut rng);
        let snap = model.params().snapshot();
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = ensemble_forecast(&mut model, &[snap.clone(), snap], &x, &mut rng);
        assert!(f.var_epistemic.max() < 1e-10);
    }

    #[test]
    fn ensemble_forecast_golden_bits() {
        // Three Gaussian-head snapshots from independent initialisations; the
        // hash was recorded before the sampling paths were folded together.
        let snaps: Vec<Vec<Tensor>> = (0..3)
            .map(|s| model_with_dropout(HeadKind::Gaussian, 0.3, &mut StuqRng::new(60 + s)))
            .map(|m| m.params().snapshot())
            .collect();
        let mut model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut StuqRng::new(59));
        let x = Tensor::randn(&[6, 5], 1.0, &mut StuqRng::new(61));
        let mut run = || {
            let f = ensemble_forecast(&mut model, &snaps, &x, &mut StuqRng::new(62));
            bits_hash([&f.mu, &f.var_aleatoric, &f.var_epistemic])
        };
        let par = run();
        let ser = stuq_parallel::with_serial(&mut run);
        assert_eq!(
            (par, ser),
            (0x8a241b2c215c5bb3, 0x8a241b2c215c5bb3),
            "ensemble_forecast bits moved"
        );
        let held = bits_hash(&model.params().snapshot());
        assert_eq!(held, bits_hash(&snaps[2]), "model must hold the last snapshot");
    }
}
