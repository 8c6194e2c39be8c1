//! Reproduces **Table VI**: ablation on temperature calibration.
//!
//! Trains the full pipeline up to calibration once per dataset, then
//! compares MNLL / PICP / MPIW with `T = 1` (no calibration) against the
//! fitted temperature. As the DESIGN.md extra ablation, also reports the
//! temperature fit on the *training* split — demonstrating the
//! overconfidence that validation-split calibration corrects.

use deepstuq::awa::awa_retrain;
use deepstuq::calibrate::calibrate_on_validation;
use deepstuq::calibrate::fit_temperature;
use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::trainer::{train, LossKind};
use stuq_bench::{datasets, fmt2, method_config, parse_args, print_table, write_csv};
use stuq_models::{Agcrn, AgcrnConfig};
use stuq_tensor::StuqRng;
use stuq_traffic::{Split, SplitDataset};

fn eval_uq(
    model: &Agcrn,
    ds: &SplitDataset,
    mc: usize,
    temperature: f32,
    stride: usize,
    seed: u64,
) -> [f64; 3] {
    let scaler = *ds.scaler();
    let std = scaler.std() as f32;
    let mut rng = StuqRng::new(seed);
    let r = evaluate(ds, Split::Test, stride, |x, _| {
        let f = mc_forecast(model, x, None, mc, &mut rng);
        let sigma = f.sigma_total(temperature).scale(std);
        RawForecast { mu: f.mu.map(|v| scaler.inverse(v)), sigma: Some(sigma), bounds: None }
    });
    let u = r.uq.expect("gaussian eval");
    [u.mnll, u.picp, u.mpiw]
}

/// Temperature fit on the training split (the wrong split, for contrast).
fn calibrate_on_train(
    model: &Agcrn,
    ds: &SplitDataset,
    mc: usize,
    stride: usize,
    rng: &mut StuqRng,
) -> f32 {
    let mut residual_sq = Vec::new();
    for &s in ds.window_starts(Split::Train).iter().step_by(stride.max(1)) {
        let w = ds.window(s);
        let f = mc_forecast(model, &w.x, None, mc, rng);
        let y = ds.normalize_target(&w.y_raw).transpose();
        let var = f.var_total(1.0);
        for i in 0..y.len() {
            let r = (y.data()[i] - f.mu.data()[i]) as f64;
            residual_sq.push(r * r / (var.data()[i] as f64).max(1e-9));
        }
    }
    fit_temperature(&residual_sq, 300).expect("train-split calibration failed")
}

fn main() {
    let opts = parse_args();
    println!("Table VI reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let stride = opts.scale.eval_stride();

    let mut rows = Vec::new();
    for (preset, ds) in datasets(&opts) {
        eprintln!("[table6] dataset {preset:?}");
        let mcfg = method_config(&opts, ds.n_nodes());
        let seed = opts.seed ^ preset.seed_offset();
        let mut rng = StuqRng::new(seed);
        let base_cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
            .with_capacity(mcfg.hidden, mcfg.embed_dim, mcfg.n_layers)
            .with_dropout(mcfg.encoder_dropout, mcfg.decoder_dropout);
        let mut model = Agcrn::new(base_cfg, &mut rng);
        let kind = LossKind::Combined { lambda: mcfg.train.lambda };
        train(&mut model, &ds, &mcfg.train, kind, &mut rng).expect("pre-training failed");
        awa_retrain(&mut model, &ds, &mcfg.awa, kind, mcfg.train.weight_decay, &mut rng)
            .expect("AWA re-training failed");

        let t_val = calibrate_on_validation(&model, &ds, &mcfg.calib, &mut rng)
            .expect("calibration failed");
        let t_train =
            calibrate_on_train(&model, &ds, mcfg.calib.mc_samples, mcfg.calib.stride, &mut rng);

        let none = eval_uq(&model, &ds, mcfg.mc_samples, 1.0, stride, seed);
        let val = eval_uq(&model, &ds, mcfg.mc_samples, t_val, stride, seed);
        let tr = eval_uq(&model, &ds, mcfg.mc_samples, t_train, stride, seed);

        eprintln!("[table6]   T(val) = {t_val:.4}, T(train) = {t_train:.4}");
        for (i, metric) in ["MNLL", "PICP(%)", "MPIW"].iter().enumerate() {
            rows.push(vec![
                format!("{preset:?}"),
                metric.to_string(),
                fmt2(none[i]),
                fmt2(val[i]),
                fmt2(tr[i]),
            ]);
        }
        rows.push(vec![
            format!("{preset:?}"),
            "T".to_string(),
            "1.00".to_string(),
            format!("{t_val:.3}"),
            format!("{t_train:.3}"),
        ]);
    }

    let header =
        ["dataset", "metric", "No Calibration", "Calibration (val)", "Calibration (train)"];
    print_table("Table VI: calibration ablation", &header, &rows);
    write_csv(&opts.out_dir, "table6.csv", &header, &rows);
}
