//! Telemetry end-to-end properties (DESIGN.md §10).
//!
//! Runs in its own process (obs state — level, metrics, recorder — is
//! process-global) and drives the real CLI so the whole chain is covered:
//! flag parsing → `stuq_obs::init` → instrumented pipeline → sinks.
//!
//! The central claim is the determinism contract: telemetry is a pure
//! observer, so training with `--telemetry-level off` and `--telemetry-level
//! trace` produces **bit-identical** model files. CI re-runs this test under
//! `STUQ_THREADS=1/2/4` to cover the thread-count axis.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Obs state is process-global; tests in this binary serialise on this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

fn run_cli(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    deepstuq_cli::run(&owned, &mut buf)?;
    Ok(String::from_utf8(buf).unwrap())
}

fn tmp_root() -> PathBuf {
    std::env::temp_dir().join("stuq_telemetry_it")
}

#[test]
fn telemetry_trace_is_bit_identical_to_off_and_sinks_validate() {
    let _l = obs_lock();
    let root = tmp_root();
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("flow.stuqd");
    let data_s = data.to_str().unwrap();

    run_cli(&[
        "simulate",
        "--preset",
        "pems08",
        "--node-frac",
        "0.08",
        "--step-frac",
        "0.02",
        "--seed",
        "23",
        "--out",
        data_s,
    ])
    .unwrap();

    let train = |level: &str, tag: &str| -> (Vec<u8>, PathBuf, String) {
        let model = root.join(format!("model-{tag}.stuq"));
        let tdir = root.join(format!("telemetry-{tag}"));
        let out = run_cli(&[
            "train",
            "--data",
            data_s,
            "--epochs",
            "1",
            "--batch",
            "8",
            "--awa-epochs",
            "2",
            "--mc",
            "3",
            "--seed",
            "23",
            "--out",
            model.to_str().unwrap(),
            "--telemetry-dir",
            tdir.to_str().unwrap(),
            "--telemetry-level",
            level,
        ])
        .unwrap();
        (std::fs::read(&model).unwrap(), tdir, out)
    };

    let (bytes_off, _, out_off) = train("off", "off");
    let (bytes_trace, tdir, out_trace) = train("trace", "trace");

    // The determinism contract: enabling trace cannot change a model byte.
    assert_eq!(bytes_off, bytes_trace, "telemetry level changed the trained model");

    // Off is silent; summary-and-above prints the phase table.
    assert!(!out_off.contains("phase timings"), "{out_off}");
    assert!(out_trace.contains("phase timings"), "{out_trace}");
    assert!(out_trace.contains("pretrain/epoch"), "{out_trace}");

    // The sink directory holds all three artefacts and the event log
    // validates (checksum, per-line schema, strictly increasing seq).
    let validated = run_cli(&["telemetry", "validate", "--dir", tdir.to_str().unwrap()]).unwrap();
    assert!(validated.contains("schema OK"), "{validated}");

    let dump = run_cli(&["telemetry", "dump", "--dir", tdir.to_str().unwrap()]).unwrap();
    assert!(dump.contains("stuq-run-manifest-v1"), "manifest missing:\n{dump}");
    assert!(dump.contains("stuq_train_batches_total"), "counters missing:\n{dump}");
    assert!(dump.contains("stuq_opt_step_norm"), "trace histograms missing:\n{dump}");

    // Event-log content: the run and all three stages are present.
    let payload = stuq_artifact::read_verified(tdir.join(stuq_obs::EVENTS_FILE)).unwrap();
    let text = String::from_utf8(payload).unwrap();
    for needle in [
        "\"type\":\"run_start\"",
        "\"type\":\"stage_start\"",
        "\"stage\":\"pretrain\"",
        "\"stage\":\"awa\"",
        "\"type\":\"calibrate\"",
        "\"type\":\"epoch_end\"",
        "\"type\":\"run_end\"",
        "\"type\":\"span\"", // trace level emits span events
    ] {
        assert!(text.contains(needle), "event log missing {needle}:\n{text}");
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn off_level_suppresses_sinks_entirely() {
    let _l = obs_lock();
    // A fresh dir + level off: no events.jsonl is written even though the
    // directory exists (flush still writes the — empty — metric exposition
    // only if the run finished with telemetry enabled, which it did not).
    let root = tmp_root().join("off-only");
    std::fs::remove_dir_all(&root).ok();
    let data = root.join("flow.stuqd");
    std::fs::create_dir_all(&root).unwrap();
    run_cli(&[
        "simulate",
        "--preset",
        "pems08",
        "--node-frac",
        "0.08",
        "--step-frac",
        "0.02",
        "--seed",
        "3",
        "--out",
        data.to_str().unwrap(),
        "--telemetry-dir",
        root.join("t").to_str().unwrap(),
        "--telemetry-level",
        "off",
    ])
    .unwrap();
    assert!(!root.join("t").join(stuq_obs::EVENTS_FILE).exists());
    assert!(!root.join("t").join(stuq_obs::MANIFEST_FILE).exists());
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Distributed request tracing (DESIGN.md §15)
// ---------------------------------------------------------------------------

use std::path::Path;
use std::sync::OnceLock as Once2;

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_serve::proto::strip_trace_meta;
use stuq_serve::router::{InProcWorker, Router, RouterConfig, ShardWorker};
use stuq_serve::{ServeConfig, Server};
use stuq_traffic::{Preset, Split};

struct ServeFx {
    data: PathBuf,
    model: PathBuf,
    x_rows: Vec<Vec<f32>>,
}

fn serve_fx() -> &'static ServeFx {
    static FX: Once2<ServeFx> = Once2::new();
    FX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stuq_telemetry_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(501);
        let data = dir.join("toy.stuqd");
        stuq_traffic::save_dataset(ds.data(), &data).unwrap();
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let model = dir.join("toy.stuq");
        deepstuq::save_model(&DeepStuq::train(&ds, cfg, 501), &model).unwrap();
        let start = ds.window_starts(Split::Test)[0];
        let x_rows: Vec<Vec<f32>> = (start..start + ds.t_h())
            .map(|t| (0..ds.n_nodes()).map(|i| ds.data().get(t, i)).collect())
            .collect();
        ServeFx { data, model, x_rows }
    })
}

fn serve_cfg(f: &ServeFx) -> ServeConfig {
    let mut c = ServeConfig::new(&f.model);
    c.data_path = Some(f.data.clone());
    c.fake_clock_step_ms = Some(1);
    c.reload_poll_ms = 0;
    c.mc_samples = Some(4);
    c.seed = 17;
    c
}

fn traced_cluster(f: &ServeFx, shards: usize) -> Router {
    let mut rcfg = RouterConfig::new(serve_cfg(f));
    rcfg.shards = shards;
    let workers: Vec<Box<dyn ShardWorker>> = (0..shards)
        .map(|_| {
            Box::new(InProcWorker::new(Server::new(serve_cfg(f)).unwrap())) as Box<dyn ShardWorker>
        })
        .collect();
    Router::new(rcfg, workers).unwrap()
}

fn trace_forecast_line(f: &ServeFx, id: &str, seed: Option<u64>) -> String {
    let mut s = format!("{{\"type\":\"forecast\",\"id\":\"{id}\"");
    if let Some(seed) = seed {
        s.push_str(&format!(",\"seed\":{seed}"));
    }
    s.push_str(",\"x\":[");
    for (i, row) in f.x_rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("{v}"));
        }
        s.push(']');
    }
    s.push_str("]}");
    s
}

/// The tracing determinism contract: enabling trace-level telemetry adds a
/// fixed-width `trace`/`span` annotation and nothing else — responses are
/// byte-identical to an untraced run modulo [`strip_trace_meta`]. CI re-runs
/// this under `STUQ_THREADS=1/2/4`.
#[test]
fn traced_responses_strip_to_untraced_bytes_solo_and_cluster() {
    let _l = obs_lock();
    let f = serve_fx();
    // Seeded, seedless (router/server pins by arrival index) and a
    // malformed request (annotated error path).
    let lines = [
        trace_forecast_line(f, "a", Some(42)),
        trace_forecast_line(f, "b", None),
        trace_forecast_line(f, "c", None),
        "{\"type\":\"forecast\",\"id\":\"bad\",\"x\":[[1.0]]}".to_string(),
    ];
    let run_solo = || {
        let mut srv = Server::new(serve_cfg(f)).unwrap();
        lines.iter().map(|l| srv.handle_line(l).response).collect::<Vec<_>>()
    };
    let run_cluster = || {
        let mut router = traced_cluster(f, 2);
        lines.iter().map(|l| router.handle_line(l).response).collect::<Vec<_>>()
    };

    stuq_obs::init(None, stuq_obs::Level::Off);
    let (solo_off, cluster_off) = (run_solo(), run_cluster());
    stuq_obs::init(None, stuq_obs::Level::Trace);
    let (solo_tr, cluster_tr) = (run_solo(), run_cluster());

    for (tag, traced, off) in
        [("solo", &solo_tr, &solo_off), ("cluster", &cluster_tr, &cluster_off)]
    {
        for (t, o) in traced.iter().zip(off) {
            assert!(t.contains(",\"trace\":\""), "{tag}: traced response lacks annotation: {t}");
            assert_ne!(t, o, "{tag}: annotation must be present when tracing");
            assert_eq!(
                &strip_trace_meta(t),
                o,
                "{tag}: traced bytes diverge beyond the annotation"
            );
        }
    }
    // Identical arrivals get identical trace ids across reruns.
    assert_eq!(run_cluster(), cluster_tr, "traced responses must replay byte-identically");
}

/// A traced solo forecast fills the "seconds per MC sample batch" histogram:
/// the sampling core records one observation per round — the floor passes
/// (2 by default) as one round, then one per budgeted pass — so `mc = 4`
/// records three.
#[test]
fn traced_solo_forecast_records_mc_sample_seconds() {
    let _l = obs_lock();
    let f = serve_fx();
    stuq_obs::init(None, stuq_obs::Level::Trace);
    let mut srv = Server::new(serve_cfg(f)).unwrap();
    let before = stuq_obs::metrics().mc_sample_seconds.count();
    let resp = srv.handle_line(&trace_forecast_line(f, "mc", Some(42))).response;
    assert!(resp.contains("\"samples_used\":4"), "{resp}");
    assert_eq!(stuq_obs::metrics().mc_sample_seconds.count() - before, 3);
}

/// `stuq trace --tree --no-times` over two identical seeded runs produces
/// byte-identical timelines (the structural fingerprint), and `--strict`
/// accepts a clean run.
#[test]
fn trace_timeline_is_rerun_stable_and_strict_clean() {
    let _l = obs_lock();
    let f = serve_fx();
    let root = tmp_root().join("timeline");
    std::fs::remove_dir_all(&root).ok();
    let lines = [trace_forecast_line(f, "a", Some(42)), trace_forecast_line(f, "b", None)];
    let run = |tag: &str| -> PathBuf {
        let dir = root.join(tag);
        std::fs::create_dir_all(&dir).unwrap();
        stuq_obs::init(Some(&dir), stuq_obs::Level::Trace);
        let mut router = traced_cluster(f, 2);
        for l in &lines {
            let _ = router.handle_line(l);
        }
        stuq_obs::flush().unwrap();
        dir
    };
    let a = run("a");
    let b = run("b");
    let timeline = |d: &Path, extra: &[&str]| {
        let mut args = vec!["trace", d.to_str().unwrap()];
        args.extend_from_slice(extra);
        run_cli(&args)
    };

    let ta = timeline(&a, &["--tree", "--no-times"]).unwrap();
    let tb = timeline(&b, &["--tree", "--no-times"]).unwrap();
    assert_eq!(ta, tb, "structural timeline must be byte-stable across identical runs");
    // The joined tree covers the full request path on both layers.
    for needle in ["request", "shard shard=0", "shard shard=1", "serve", "compute", "merge"] {
        assert!(ta.contains(needle), "timeline missing {needle}:\n{ta}");
    }
    assert!(ta.contains("0 orphan(s), 0 unclosed, 0 malformed"), "{ta}");
    // --strict passes on a clean run; the timed view adds the phase table.
    timeline(&a, &["--strict"]).unwrap();
    let timed = timeline(&a, &[]).unwrap();
    assert!(timed.contains("p99_ms"), "{timed}");
    assert!(timed.contains("compute"), "{timed}");
}

/// `--telemetry-max-mb` rolls the live event log into checksummed segments;
/// `stuq telemetry validate` and `stuq trace` read segments + tail as one
/// stream.
#[test]
fn event_log_segments_join_for_validate_and_trace() {
    let _l = obs_lock();
    let root = tmp_root().join("segments");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    stuq_obs::init(Some(&root), stuq_obs::Level::Trace);
    stuq_obs::set_events_roll_bytes(Some(256));
    for i in 0..24 {
        let t = stuq_obs::trace::derive_trace_id(1, i);
        let s = stuq_obs::trace::derive_span_id(t, "serve", 0);
        stuq_obs::trace::emit_span(stuq_obs::trace::start_event(t, s, t, "serve"));
        stuq_obs::trace::emit_span(stuq_obs::trace::end_event(t, s, 0.001));
    }
    stuq_obs::flush().unwrap();
    assert!(stuq_obs::segment_files(&root).len() >= 2, "256-byte bound must roll");

    let dir_s = root.to_str().unwrap();
    let validated = run_cli(&["telemetry", "validate", "--dir", dir_s]).unwrap();
    assert!(validated.contains("schema OK"), "{validated}");
    assert!(!validated.contains(" 1 file(s)"), "validate must join segments: {validated}");
    let timeline = run_cli(&["trace", dir_s, "--strict", "--no-times"]).unwrap();
    assert!(timeline.contains("24 trace(s)"), "trace must join segments:\n{timeline}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn telemetry_max_mb_flag_is_validated() {
    let _l = obs_lock();
    for bad in ["0", "x"] {
        let err = run_cli(&["gen-requests", "--data", "/nonexistent", "--telemetry-max-mb", bad])
            .unwrap_err();
        assert!(err.contains("telemetry-max-mb"), "{err}");
    }
}

#[test]
fn fatal_cli_errors_reach_the_event_log() {
    let _l = obs_lock();
    let root = tmp_root().join("fatal");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let tdir = root.join("t");
    // `train` on a dataset that does not exist: the run fails after telemetry
    // is initialised, so the fatal lands in the sink with exit-code context.
    let err = run_cli(&[
        "train",
        "--data",
        root.join("missing.stuqd").to_str().unwrap(),
        "--out",
        root.join("m.stuq").to_str().unwrap(),
        "--telemetry-dir",
        tdir.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(!err.is_empty());
    let payload = stuq_artifact::read_verified(tdir.join(stuq_obs::EVENTS_FILE)).unwrap();
    let text = String::from_utf8(payload).unwrap();
    assert!(stuq_obs::validate_events(&text).unwrap() >= 2, "run_start + fatal:\n{text}");
    assert!(text.contains("\"type\":\"fatal\""), "{text}");
    assert!(text.contains("\"exit_code\":1"), "{text}");
    std::fs::remove_dir_all(&root).ok();
}
