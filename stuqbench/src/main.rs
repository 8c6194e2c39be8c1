//! `stuqbench` — the repository benchmark.
//!
//! ```text
//! stuqbench --stuq PATH --workload serve-unique|cluster-dashboard|train-fit
//!           --seed N --seconds S --trace 0|1
//!           --unique-rate R
//! ```
//!
//! Prints what each phase observed, every metric by name, and as the last
//! line of standard output `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for the workloads and metrics.
//! `stuqbench setup-child DATASET SEED` is the `train-fit` set-up process a
//! run starts itself.

mod classify;
mod fixtures;
mod loadgen;
mod procfs;
mod procs;
mod report;
mod rng;
mod serving;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Report;
use stuq_tensor::{StuqRng, Tensor};
use trace::{Tracer, NO_REQUEST};

/// A run must end well inside the 180 s a run is allowed.
const WATCHDOG: Duration = Duration::from_secs(170);

/// `STUQ_THREADS` pool width of every process of every run. One thread:
/// on a shared 2-vCPU host a two-thread fork-join waits on whichever vCPU
/// the host takes away, so fits varied by up to 1.7x in wall time at width
/// 2 against 1.13x at width 1, at about the same median.
pub const POOL_THREADS: usize = 1;

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `stuq` executable under test.
    pub stuq: PathBuf,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// Processors available to the run; also the requests a saturation
    /// phase keeps outstanding.
    pub nproc: usize,
    /// `serve-unique` Poisson arrival rate, requests per second.
    pub unique_rate: f64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let get = |key: &str| -> Option<&str> {
        args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or(format!("missing {key}"));
    let num = |key: &str| -> Result<f64, String> {
        let v = need(key)?;
        v.parse::<f64>().map_err(|_| format!("bad value for {key}: {v:?}"))
    };
    let workload = need("--workload")?.to_string();
    if !["serve-unique", "cluster-dashboard", "train-fit"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = need("--seed")?.parse().map_err(|_| "bad --seed".to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Opts {
        work: PathBuf::from(".bench_work")
            .join(format!("{workload}-seed{seed}-{}", std::process::id())),
        workload,
        seed,
        seconds: num("--seconds")?.max(1.0) as u64,
        trace: need("--trace")? == "1",
        stuq: PathBuf::from(need("--stuq")?),
        nproc,
        unique_rate: num("--unique-rate")?,
    })
}

/// Kills every descendant process and exits if the run overstays.
fn watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("stuqbench: run exceeded {}s; stopping", WATCHDOG.as_secs());
        for p in procfs::tree(std::process::id()).into_iter().skip(1) {
            let _ = std::process::Command::new("kill").args(["-9", &p.to_string()]).status();
        }
        std::process::exit(3);
    });
}

/// `tensor` layer probe: `Tensor::matmul` at the AGCRN graph-convolution
/// shapes (support `[N, N]` times the concatenated input/state of each
/// layer); GFLOP/s from the shapes, `2·m·k·n` per product.
pub fn matmul_probe(tr: &Tracer, rep: &mut Report) {
    let n = fixtures::NODES;
    let mut rng = StuqRng::new(1);
    let support = Tensor::rand_uniform(&[n, n], 0.0, 1.0, &mut rng);
    let mut gflops = Vec::new();
    for cols in [33, 64] {
        let x = Tensor::rand_uniform(&[n, cols], -1.0, 1.0, &mut rng);
        for _ in 0..20 {
            let t = Instant::now();
            std::hint::black_box(support.matmul(&x).len());
            let end = Instant::now();
            tr.record("tensor.matmul", "probe", NO_REQUEST, t, end);
            let s = end.duration_since(t).as_secs_f64();
            gflops.push(2.0 * (n * n * cols) as f64 / s / 1e9);
        }
    }
    println!("probe tensor.matmul GFLOP/s {}", stats::describe(&gflops));
    rep.set("tensor.matmul_gflops", stats::median(&gflops));
}

/// Writes the run's spans next to the run directories.
pub fn write_trace(tr: &Tracer, o: &Opts, rep: &mut Report) {
    rep.set("trace.spans", tr.spans().len() as f64);
    let dir = o.work.parent().map_or_else(|| PathBuf::from("."), PathBuf::from);
    let path = dir.join(format!("trace-{}-seed{}.jsonl", o.workload, o.seed));
    match tr.write(&path) {
        Ok(()) => println!("trace: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => rep.problem(format!("writing spans: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("setup-child") {
        train::setup_child(&args[1..]);
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stuqbench: {e}");
            std::process::exit(2);
        }
    };
    if !o.stuq.is_file() {
        eprintln!("stuqbench: no stuq executable at {}", o.stuq.display());
        std::process::exit(2);
    }
    watchdog();
    // One pool width for every process of the run, recorded with it.
    std::env::set_var("STUQ_THREADS", POOL_THREADS.to_string());
    let pool = stuq_parallel::num_threads();
    println!(
        "stuqbench workload={} seed={} seconds={} trace={} nproc={} pool_threads={pool}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.nproc
    );
    let mut rep = Report::new(o.trace);
    rep.set("env.nproc", o.nproc as f64);
    rep.set("env.pool_threads", pool as f64);
    if pool != POOL_THREADS {
        rep.problem(format!("pool width {pool} differs from {POOL_THREADS}"));
    }
    let t0 = Instant::now();
    match o.workload.as_str() {
        "serve-unique" => serving::run(serving::Kind::Unique, &o, &mut rep),
        "cluster-dashboard" => serving::run(serving::Kind::Dashboard, &o, &mut rep),
        _ => train::run(&o, &mut rep),
    }
    let _ = std::fs::remove_dir_all(&o.work);
    println!("run: wall_s={:.2}", t0.elapsed().as_secs_f64());
    let correct = rep.finish();
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_serve::json::{self, Json};

    /// The metric names the benchmark reports are exactly those
    /// BENCHMARK.json declares, with the same units.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(list("end_to_end"), own(&report::END_TO_END));
        assert_eq!(list("per_layer"), own(&report::PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        // serve-unique stays runnable by name but is not gated (README.md).
        assert_eq!(names, ["cluster-dashboard", "train-fit"]);
    }

    #[test]
    fn parses_the_command_line() {
        let args: Vec<String> =
            "--stuq x --workload train-fit --seed 4 --seconds 20 --trace 1 --unique-rate 0.9"
                .split_whitespace()
                .map(String::from)
                .collect();
        let o = parse(&args).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace, o.unique_rate), (4, 20, true, 0.9));
        let bad: Vec<String> = ["--workload", "nope", "--seed", "1"].map(String::from).to_vec();
        assert!(parse(&bad).is_err());
    }
}
