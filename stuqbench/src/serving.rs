//! The two serving workloads.
//!
//! * `serve-unique` — a solo `stuq serve`; every request carries a distinct
//!   test window and an explicit seed, so the cache and the coalescer never
//!   share work and nearly all time is MC forward passes.
//! * `cluster-dashboard` — a router over 2 shards × 2 replicas of real
//!   worker processes; each tick a burst of seedless requests for that
//!   tick's window, mostly 1–3 sensors over both shards and a minority for
//!   the full grid, so most requests are cache hits on the workers.
//!
//! Untraced runs drive the real processes: set-up (five starts, median),
//! warm-up, the open-loop and closed-loop saturation phases, and the
//! oracle. `serve-unique` runs an open-loop Poisson phase, then saturation;
//! `cluster-dashboard` interleaves them in rounds — one open-loop tick,
//! then [`SAT_PER_ROUND`] saturation ticks — until the run's time is up, so
//! both phases sample the whole run. Traced runs mount the same topology in-process — a
//! [`Server`], or a [`Router`] over timed [`ProcWorker`]s — run the
//! open-loop phase once untraced and once traced, and probe the layers the
//! serving calls hide (parse, render, MC, matmul) on the same inputs.

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stuq_serve::router::{Router, RouterConfig, ShardWorker, SupEvent, WorkerState};
use stuq_serve::shard::ShardMap;
use stuq_serve::supervisor::{ProcWorker, WorkerSpec};
use stuq_serve::{proto, ServeConfig, Server};
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::SplitDataset;

use crate::classify::{classify, Class, Resp};
use crate::fixtures::{self, ServeFiles, MC, NODES};
use crate::loadgen::{self, ChanRx, ChanTx, PhaseOut, Req, Rx};
use crate::procfs;
use crate::procs::Proc;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, Tracer, NO_REQUEST};
use crate::Opts;

/// Server seed shared by every topology and the oracle.
const SERVER_SEED: u64 = 7;
/// Steps of the serving dataset: enough distinct test windows that no two
/// `serve-unique` requests of a run share one.
const SERVE_STEPS: usize = 1200;
/// Shards and replicas of the cluster topology.
const SHARDS: usize = 2;
const REPLICAS: usize = 2;
/// Coalescing bound on the cluster's workers.
const BATCH_MAX: usize = 8;
/// `cluster-dashboard` arrival rate, requests per second.
const DASHBOARD_RATE: f64 = 10.0;
/// `cluster-dashboard` tick period.
const TICK_MS: u64 = 8000;
/// Workers' cache TTL: two tick periods, so a tick's entries outlive its
/// last request.
const CACHE_TTL_MS: u64 = 2 * TICK_MS;
/// `cluster-dashboard` saturation ticks after each open-loop tick.
const SAT_PER_ROUND: usize = 2;
/// Server starts per run for the set-up time.
const SETUPS: usize = 5;
/// Responses recomputed by the oracle per run.
const ORACLE_SAMPLES: usize = 3;
/// Share of a `serve-unique` run's measured seconds given to the open-loop
/// phase; the saturation phase gets the rest.
const OPEN_SHARE: f64 = 0.8;
/// Share of a traced run's seconds each of its two open-loop passes takes.
const TRACED_SHARE: f64 = 0.5;
/// Share of dashboard requests that ask for the full grid.
const FULL_GRID_SHARE: f64 = 0.1;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Solo server, distinct windows, explicit seeds.
    Unique,
    /// 2 × 2 cluster, tick-shared windows, seedless.
    Dashboard,
}

/// A workload's requests, a pure function of the seed.
#[derive(Debug)]
pub struct Plan {
    /// Warm-up requests (answered, checked, not timed).
    pub warm: Vec<Req>,
    /// Open-loop phase.
    pub open: Vec<Req>,
    /// Saturation phase: drawn in order until its time is up
    /// (`serve-unique`), or [`SAT_PER_ROUND`] ticks after each open-loop
    /// tick (`cluster-dashboard`).
    pub sat: Vec<Req>,
    /// Test-window start of each open-loop request.
    pub open_starts: Vec<usize>,
    /// Open-loop share of requests whose window was already requested.
    pub shared_frac: f64,
    /// Open-loop share of requests touching both shards.
    pub both_shards_frac: f64,
    /// Requests in one unit of the mix (a tick); saturation stops on whole
    /// units.
    pub unit: usize,
}

fn unique_line(id: &str, x: &str, seed: u64) -> String {
    format!("{{\"type\":\"forecast\",\"id\":\"{id}\",\"x\":{x},\"seed\":{seed}}}")
}

fn dashboard_line(id: &str, x: &str, tick: u64, nodes: Option<&[usize]>) -> String {
    let nodes = nodes.map_or(String::new(), |ns| {
        let ns: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
        format!(",\"nodes\":[{}]", ns.join(","))
    });
    format!("{{\"type\":\"forecast\",\"id\":\"{id}\",\"x\":{x},\"tick\":{tick}{nodes}}}")
}

/// `serve-unique`: every request its own window and explicit seed; Poisson
/// arrivals at `rate` for `open_s` seconds.
pub fn plan_unique(ds: &SplitDataset, seed: u64, rate: f64, open_s: f64) -> Plan {
    let mut rng = Rng::new(seed, 0x000A_110E);
    let mut starts = fixtures::test_starts(ds);
    rng.shuffle(&mut starts);
    let n_open = (rate * open_s).round().max(1.0) as usize;
    assert!(starts.len() > n_open + 4, "not enough distinct test windows");
    let mut next = starts.into_iter();
    let mut make = |prefix: &str, i: usize, at_s: f64, rng: &mut Rng| {
        let start = next.next().expect("checked above");
        let id = format!("{prefix}{i}");
        let line = unique_line(&id, &fixtures::x_json(ds, start), rng.next_u64() >> 32);
        (Req { id, line, at_s }, start)
    };
    let warm = (0..2).map(|i| make("w", i, 0.0, &mut rng).0).collect();
    let (mut open, mut open_starts, mut at) = (Vec::new(), Vec::new(), 0.0);
    for i in 0..n_open {
        at += rng.exp_gap(rate);
        let (r, s) = make("o", i, at, &mut rng);
        open.push(r);
        open_starts.push(s);
    }
    let sat = next
        .enumerate()
        .map(|(i, start)| {
            let id = format!("s{i}");
            let line = unique_line(&id, &fixtures::x_json(ds, start), rng.next_u64() >> 32);
            Req { id, line, at_s: 0.0 }
        })
        .collect();
    Plan { warm, open, sat, open_starts, shared_frac: 0.0, both_shards_frac: 1.0, unit: 1 }
}

/// One tick's requests: `k` arrivals spread uniformly over the tick period,
/// each for that tick's window; node sets per the dashboard mix.
#[allow(clippy::too_many_arguments)]
fn dashboard_tick(
    ds: &SplitDataset,
    rng: &mut Rng,
    map: &ShardMap,
    start: usize,
    tick: u64,
    k: usize,
    t0_s: f64,
    period_s: f64,
    prefix: &str,
    first_id: usize,
) -> Vec<(Req, bool)> {
    let x = fixtures::x_json(ds, start);
    let mut at: Vec<f64> = (0..k).map(|_| t0_s + rng.unit() * period_s).collect();
    at.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    at.into_iter()
        .enumerate()
        .map(|(j, at_s)| {
            let id = format!("{prefix}{}", first_id + j);
            let nodes: Option<Vec<usize>> = if rng.unit() < FULL_GRID_SHARE {
                None
            } else {
                let count = 1 + rng.below(3);
                // Sensors alternate shards from a random first one, so a
                // multi-sensor request always spans both.
                let first = rng.below(map.n_shards());
                Some(
                    (0..count)
                        .map(|c| {
                            let r = map.range((first + c) % map.n_shards());
                            r.start + rng.below(r.len())
                        })
                        .collect(),
                )
            };
            let both = nodes.as_ref().is_none_or(|ns| {
                let s0 = map.shard_of(ns[0]);
                ns.iter().any(|&n| map.shard_of(n) != s0)
            });
            (Req { line: dashboard_line(&id, &x, tick, nodes.as_deref()), id, at_s }, both)
        })
        .collect()
}

/// `cluster-dashboard`: open-loop ticks of `tick_s` seconds over `open_s`
/// seconds, `rate × tick_s` requests per tick, a fresh window per tick, and
/// [`SAT_PER_ROUND`] saturation ticks of the same mix after each; `tick_base`
/// offsets the tick numbers (a second pass over the same plan must not hit
/// the first pass's cache).
pub fn plan_dashboard(
    ds: &SplitDataset,
    seed: u64,
    rate: f64,
    tick_s: f64,
    open_s: f64,
    tick_base: u64,
) -> Plan {
    let mut rng = Rng::new(seed, 0xDA5B_0A2D);
    let map = ShardMap::new(NODES, SHARDS);
    let mut starts = fixtures::test_starts(ds);
    rng.shuffle(&mut starts);
    let k = (rate * tick_s).round().max(2.0) as usize;
    let n_ticks = (open_s / tick_s).round().max(1.0) as usize;
    let mut windows = starts.into_iter();
    let mut tick = tick_base;
    let mut next_tick = |rng: &mut Rng, n: usize, t0: f64, period: f64, prefix: &str, first| {
        tick += 1;
        let start = windows.next().expect("enough test windows for every tick");
        let reqs = dashboard_tick(ds, rng, &map, start, tick, n, t0, period, prefix, first);
        (reqs, start)
    };
    let warm: Vec<Req> =
        next_tick(&mut rng, 8, 0.0, 0.0, "w", 0).0.into_iter().map(|(r, _)| r).collect();
    let (mut open, mut open_starts, mut both) = (Vec::new(), Vec::new(), 0usize);
    let mut sat = Vec::new();
    for t in 0..n_ticks {
        let (reqs, start) = next_tick(&mut rng, k, t as f64 * tick_s, tick_s, "o", open.len());
        for (r, b) in reqs {
            both += usize::from(b);
            open.push(r);
            open_starts.push(start);
        }
        for _ in 0..SAT_PER_ROUND {
            let first = sat.len();
            sat.extend(next_tick(&mut rng, k, 0.0, 0.0, "s", first).0.into_iter().map(|(r, _)| r));
        }
    }
    let n = open.len() as f64;
    Plan {
        warm,
        open,
        sat,
        open_starts,
        shared_frac: (n - n_ticks as f64) / n,
        both_shards_frac: both as f64 / n,
        unit: k,
    }
}

fn tick_s() -> f64 {
    TICK_MS as f64 / 1e3
}

/// One round of an untraced serving run: the open-loop requests `open`,
/// their schedule shifted to start at `t0_s`, then the saturation requests
/// `sat` for at most `sat_for`.
struct Round {
    open: Range<usize>,
    t0_s: f64,
    sat: Range<usize>,
    sat_for: Duration,
}

/// `serve-unique` runs one round: its whole open-loop schedule, then
/// saturation for `sat_s`. `cluster-dashboard` runs a round per open-loop
/// tick, each followed by its [`SAT_PER_ROUND`] saturation ticks.
fn rounds(kind: Kind, plan: &Plan, sat_s: f64) -> Vec<Round> {
    match kind {
        Kind::Unique => vec![Round {
            open: 0..plan.open.len(),
            t0_s: 0.0,
            sat: 0..plan.sat.len(),
            sat_for: Duration::from_secs_f64(sat_s),
        }],
        Kind::Dashboard => {
            let (u, s) = (plan.unit, plan.unit * SAT_PER_ROUND);
            (0..plan.open.len() / u)
                .map(|r| Round {
                    open: r * u..(r + 1) * u,
                    t0_s: r as f64 * tick_s(),
                    sat: r * s..(r + 1) * s,
                    sat_for: Duration::MAX,
                })
                .collect()
        }
    }
}

/// Arguments every server process gets: model, data, no reload watcher,
/// the shared server seed.
fn base_args(files: &ServeFiles) -> Vec<String> {
    vec![
        "serve".into(),
        "--model".into(),
        files.model.display().to_string(),
        "--data".into(),
        files.data.display().to_string(),
        "--reload-poll-ms".into(),
        "0".into(),
        "--seed".into(),
        SERVER_SEED.to_string(),
    ]
}

/// CLI arguments of the system under test.
fn server_args(kind: Kind, files: &ServeFiles, worker_dir: &Path) -> Vec<String> {
    let mut a = base_args(files);
    if kind == Kind::Dashboard {
        a.extend([
            "--role".to_string(),
            "router".into(),
            "--shards".into(),
            SHARDS.to_string(),
            "--replicas".into(),
            REPLICAS.to_string(),
            "--batch-max".into(),
            BATCH_MAX.to_string(),
            "--cache-ttl-ms".into(),
            CACHE_TTL_MS.to_string(),
            "--worker-dir".into(),
            worker_dir.display().to_string(),
        ]);
    }
    a
}

/// The oracle's server: a solo, uncached, unbatched [`Server`] with the
/// served configuration's model, data and seed.
fn oracle_config(files: &ServeFiles) -> ServeConfig {
    let mut cfg = ServeConfig::new(&files.model);
    cfg.data_path = Some(files.data.clone());
    cfg.reload_poll_ms = 0;
    cfg.seed = SERVER_SEED;
    cfg
}

/// Recomputes `samples` (request index, served line) in-process and checks
/// the payloads match exactly.
fn oracle(files: &ServeFiles, reqs: &[Req], kept: &[(usize, String)], rep: &mut Report) {
    let mut server = match Server::new(oracle_config(files)) {
        Ok(s) => s,
        Err(e) => return rep.problem(format!("oracle server: {e}")),
    };
    let mut matched = 0;
    for (i, served) in kept {
        let want = server.handle_line(&reqs[*i].line).response;
        let (a, b) = (classify(served).payload(), classify(&want).payload());
        match (a, b) {
            (Some(a), Some(b)) if a == b => matched += 1,
            (a, b) => {
                rep.tally.add(Class::Mismatched);
                rep.problem(format!(
                    "oracle mismatch on {}: served payload {}, recomputed {}",
                    reqs[*i].id,
                    if a.is_some() { "present" } else { "missing" },
                    if b.is_some() { "present" } else { "missing" },
                ));
            }
        }
    }
    println!("oracle: recomputed={} matched={matched}", kept.len());
}

/// Seeded choice of the open-loop requests the oracle recomputes.
fn oracle_picks(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x0AC1E);
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(ORACLE_SAMPLES.min(n));
    idx
}

fn check_phase(name: &str, out: &PhaseOut, rep: &mut Report) {
    println!("phase {name}: {}", out.tally.describe());
    rep.tally.merge(&out.tally);
    if out.tally.failed() > 0 {
        rep.problem(format!("{name}: {} failed", out.tally.failed()));
    }
}

fn answered_ms(out: &PhaseOut) -> Vec<f64> {
    out.latency_ms.iter().copied().filter(|l| l.is_finite()).collect()
}

/// Runs a serving workload and fills `rep`.
pub fn run(kind: Kind, o: &Opts, rep: &mut Report) {
    let ds = fixtures::dataset(SERVE_STEPS, o.seed);
    let files = fixtures::write_serve_files(&ds, o.seed, &o.work.join("fixtures"));
    let open_s = o.seconds as f64 * if rep.traced() { TRACED_SHARE } else { OPEN_SHARE };
    let sat_s = o.seconds as f64 * (1.0 - OPEN_SHARE);
    // An untraced `cluster-dashboard` run plans a round per tick period of
    // the whole run (a round takes longer, so it runs out of time first).
    let plan = match (kind, rep.traced()) {
        (Kind::Unique, _) => plan_unique(&ds, o.seed, o.unique_rate, open_s),
        (Kind::Dashboard, true) => plan_dashboard(&ds, o.seed, DASHBOARD_RATE, tick_s(), open_s, 0),
        (Kind::Dashboard, false) => {
            plan_dashboard(&ds, o.seed, DASHBOARD_RATE, tick_s(), o.seconds as f64, 0)
        }
    };
    println!(
        "plan: warm={} open={} (over {:.1}s) sat_pool={} shared_frac={:.3} both_shards_frac={:.3}",
        plan.warm.len(),
        plan.open.len(),
        plan.open.last().map_or(0.0, |r| r.at_s),
        plan.sat.len(),
        plan.shared_frac,
        plan.both_shards_frac
    );
    rep.set("loadgen.shared_frac", plan.shared_frac);
    rep.set("loadgen.both_shards_frac", plan.both_shards_frac);
    if rep.traced() {
        run_traced(kind, o, &ds, &files, &plan, rep);
    } else {
        run_processes(kind, o, &files, &plan, sat_s, rep);
    }
}

fn run_processes(
    kind: Kind,
    o: &Opts,
    files: &ServeFiles,
    plan: &Plan,
    sat_s: f64,
    rep: &mut Report,
) {
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let args = server_args(kind, files, &o.work.join(format!("cluster{i}")));
        match Proc::start(&o.stuq, &args, crate::POOL_THREADS) {
            Ok((p, s)) => {
                setups.push(s);
                if i + 1 < SETUPS {
                    p.stop();
                } else {
                    live = Some(p);
                }
            }
            Err(e) => return rep.problem(format!("server start: {e}")),
        }
    }
    let mut p = live.expect("last start kept");
    let n_procs = p.pids().len();
    println!(
        "setup: starts={SETUPS} processes={n_procs} setup_s={:?} median={:.4}",
        setups,
        stats::median(&setups)
    );
    rep.set("setup_s", stats::median(&setups));

    let mut tx = p.tx.take().expect("connection held");
    let warm = loadgen::closed_loop(
        &plan.warm,
        &mut tx,
        &mut p.rx,
        1,
        Duration::from_secs(120),
        1,
        &mut || 0.0,
    );
    check_phase("warm-up", &warm, rep);

    // Every open-loop answer is kept until the run knows which requests it
    // sent; the oracle then recomputes a seeded sample of them.
    let pids = p.pids();
    let mut cpu = || procfs::cpu_sum(&pids);
    let (mut open, mut sat, mut units) = (PhaseOut::default(), PhaseOut::default(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let mut last_round = Duration::ZERO;
    for (i, r) in rounds(kind, plan, sat_s).into_iter().enumerate() {
        let t = Instant::now();
        if i > 0 && t + last_round > deadline {
            break;
        }
        let reqs: Vec<Req> =
            plan.open[r.open].iter().map(|q| Req { at_s: q.at_s - r.t0_s, ..q.clone() }).collect();
        let all: Vec<usize> = (0..reqs.len()).collect();
        let (out, back) = loadgen::open_loop(&reqs, tx, &mut p.rx, &all);
        tx = back;
        open.append(out);
        let out = loadgen::closed_loop(
            &plan.sat[r.sat],
            &mut tx,
            &mut p.rx,
            o.nproc,
            r.sat_for,
            plan.unit,
            &mut cpu,
        );
        units.extend(out.unit_deltas());
        sat.append(out);
        last_round = t.elapsed();
    }
    check_phase("open-loop", &open, rep);
    let lat = answered_ms(&open);
    println!(
        "open-loop: requests={} elapsed_s={:.3} latency_ms {}",
        open.latency_ms.len(),
        open.elapsed_s,
        stats::describe(&lat)
    );
    println!(
        "loadgen: lag_ms p50={:.3} max={:.3} resp_bytes_mean={:.0} req_bytes_mean={:.0}",
        stats::median(&open.lag_ms),
        open.lag_ms.iter().copied().fold(0.0, f64::max),
        stats::mean(&open.resp_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
        stats::mean(&plan.open.iter().map(|r| r.line.len() as f64 + 1.0).collect::<Vec<_>>()),
    );
    if lat.len() <= 50 {
        let sorted: Vec<String> = stats::sorted(&lat).iter().map(|v| format!("{v:.0}")).collect();
        println!("open-loop: latency_ms sorted [{}]", sorted.join(" "));
    }
    print_serve_meta(&open);
    // The median over units of each unit's median (a unit is one request,
    // or one tick), so a burst of contention from outside the run moves a
    // tick, not the result.
    let unit_p50: Vec<f64> = open
        .latency_ms
        .chunks(plan.unit)
        .map(|c| stats::median(&c.iter().copied().filter(|l| l.is_finite()).collect::<Vec<_>>()))
        .collect();
    if plan.unit > 1 {
        let ms: Vec<String> = unit_p50.iter().map(|v| format!("{v:.3}")).collect();
        println!("open-loop: per-tick latency p50_ms [{}]", ms.join(" "));
    }
    rep.set("latency_p50_ms", stats::median(&unit_p50));

    // Saturation: throughput from the median whole unit of the mix (one
    // request, or one tick), so a burst of contention from outside the run
    // moves one unit, not the result. CPU per unit is read in 10 ms clock
    // ticks, so it takes the interquartile mean rather than the median.
    check_phase("saturation", &sat, rep);
    let secs: Vec<f64> = units.iter().map(|u| u.0).collect();
    let cpus: Vec<f64> = units.iter().map(|u| u.1).collect();
    let per = plan.unit as f64;
    let (throughput, cpu_ms) = (per / stats::median(&secs), stats::iq_mean(&cpus) * 1e3 / per);
    let cpu_total: f64 = cpus.iter().sum();
    println!(
        "saturation: outstanding={} elapsed_s={:.3} ok={} units={} (of {} requests) unit_s {} | throughput_per_s={throughput:.4} (all units {:.4}) cpu_ms_per_ok={cpu_ms:.2} (all units {:.2}) latency_ms {}",
        o.nproc,
        sat.elapsed_s,
        sat.tally.ok(),
        units.len(),
        plan.unit,
        stats::describe(&secs),
        per * units.len() as f64 / secs.iter().sum::<f64>(),
        cpu_total * 1e3 / (per * units.len() as f64),
        stats::describe(&answered_ms(&sat))
    );
    if units.is_empty() {
        rep.problem("saturation phase completed no whole unit");
    }
    rep.set("throughput_per_s", throughput);
    rep.set("cpu_ms_per_unit", cpu_ms);
    let rss = procfs::rss_sum(&p.pids());
    println!("memory: processes={} peak_rss_mb_sum={rss:.1}", p.pids().len());
    rep.set("peak_rss_mb", rss);
    p.tx = Some(tx);
    p.stop();

    let picks = oracle_picks(o.seed, open.latency_ms.len());
    open.kept.retain(|(i, _)| picks.contains(i));
    oracle(files, &plan.open, &open.kept, rep);
}

/// Prints the serve-layer annotations of a phase's answers.
fn print_serve_meta(out: &PhaseOut) {
    let rs: Vec<&Resp> = out.resps.iter().flatten().collect();
    let hits = rs.iter().filter(|r| r.cache_hit == Some(true)).count();
    let with_meta = rs.iter().filter(|r| r.cache_hit.is_some()).count();
    let failovers: u64 = rs.iter().map(|r| r.failovers).sum();
    println!(
        "responses: n={} cache_hit_annotated={with_meta} cache_hits={hits} failovers={failovers}",
        rs.len()
    );
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// RPC observations of the timed worker decorator.
#[derive(Default)]
struct RpcStats {
    forecasts: u64,
    bytes: u64,
    hits: u64,
    samples_drawn: u64,
    batch_sizes: u64,
    errors: u64,
    /// Restart count per worker, as of its last supervision tick.
    restarts: Vec<u64>,
}

/// A [`ShardWorker`] decorator timing every forecast RPC as a
/// `router.rpc` span of the request being handled.
struct TimedWorker {
    inner: ProcWorker,
    index: usize,
    tracer: Arc<Tracer>,
    current: Arc<AtomicU64>,
    stats: Arc<Mutex<RpcStats>>,
}

impl ShardWorker for TimedWorker {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        let forecast = line.starts_with("{\"type\":\"forecast\"");
        let t = Instant::now();
        let r = self.inner.call(line, timeout_ms);
        let end = Instant::now();
        if forecast {
            self.tracer.record(
                "router.rpc",
                "router.handle",
                self.current.load(Ordering::Relaxed),
                t,
                end,
            );
            let mut st = self.stats.lock().expect("rpc stats poisoned");
            match &r {
                Ok(resp) => {
                    st.forecasts += 1;
                    st.bytes += (line.len() + resp.len() + 2) as u64;
                    let c = classify(resp);
                    if c.cache_hit == Some(true) {
                        st.hits += 1;
                    } else {
                        st.samples_drawn += c.samples_used.unwrap_or(0);
                    }
                    st.batch_sizes += c.batch_size.unwrap_or(0);
                }
                Err(_) => st.errors += 1,
            }
        }
        r
    }
    fn state(&self) -> WorkerState {
        self.inner.state()
    }
    fn fail(&mut self, reason: &str) {
        self.inner.fail(reason)
    }
    fn tick(&mut self) -> Vec<SupEvent> {
        let ev = self.inner.tick();
        self.stats.lock().expect("rpc stats poisoned").restarts[self.index] = self.inner.restarts();
        ev
    }
    fn restarts(&self) -> u64 {
        self.inner.restarts()
    }
    fn last_restart_ms(&self) -> Option<u64> {
        self.inner.last_restart_ms()
    }
    fn supports_hedge(&self) -> bool {
        self.inner.supports_hedge()
    }
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.inner.send(line)
    }
    fn recv(&mut self, timeout_ms: u64) -> Result<String, String> {
        self.inner.recv(timeout_ms)
    }
    fn abandon(&mut self) {
        self.inner.abandon()
    }
    fn settle(&mut self, grace_ms: u64) {
        self.inner.settle(grace_ms)
    }
}

/// The in-process system under test.
enum Sut {
    Solo(Box<Server>),
    Cluster(Box<Router>),
}

impl Sut {
    fn handle(&mut self, line: &str) -> String {
        match self {
            Sut::Solo(s) => s.handle_line(line).response,
            Sut::Cluster(r) => r.handle_line(line).response,
        }
    }
}

/// The in-process topology of a traced run.
struct Topology {
    sut: Sut,
    /// Cluster: `ProcWorker::spawn` time of each worker.
    spawn_s: Vec<f64>,
    /// Cluster: what the timed worker decorators observed.
    rpc: Arc<Mutex<RpcStats>>,
}

/// Builds the in-process topology.
fn build_sut(
    kind: Kind,
    o: &Opts,
    files: &ServeFiles,
    tracer: &Arc<Tracer>,
    current: &Arc<AtomicU64>,
) -> Result<Topology, String> {
    let stats = Arc::new(Mutex::new(RpcStats {
        restarts: vec![0; SHARDS * REPLICAS],
        ..RpcStats::default()
    }));
    let mut cfg = oracle_config(files);
    if kind == Kind::Unique {
        let sut = Sut::Solo(Box::new(Server::new(cfg)?));
        return Ok(Topology { sut, spawn_s: Vec::new(), rpc: stats });
    }
    cfg.batch_max = BATCH_MAX;
    cfg.cache_ttl_ms = CACHE_TTL_MS;
    let dir = o.work.join("traced-cluster");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut spawn_s = Vec::new();
    let mut workers: Vec<Box<dyn ShardWorker>> = Vec::new();
    for w in 0..SHARDS * REPLICAS {
        let (s, r) = (w / REPLICAS, w % REPLICAS);
        let socket = dir.join(format!("worker-{s}-{r}.sock"));
        let mut args = base_args(files);
        args.extend(
            [
                "--role",
                "worker",
                "--batch-max",
                &BATCH_MAX.to_string(),
                "--cache-ttl-ms",
                &CACHE_TTL_MS.to_string(),
                "--socket",
                &socket.display().to_string(),
            ]
            .map(String::from),
        );
        let spec = WorkerSpec {
            shard: s,
            replica: r,
            shards: SHARDS,
            jitter_seed: w as u64,
            exe: o.stuq.clone(),
            args,
            socket,
            ping_interval_ms: 500,
            backoff_ms: 200,
            backoff_max_ms: 3200,
            connect_timeout_ms: 10_000,
        };
        let t = Instant::now();
        let inner = ProcWorker::spawn(spec);
        spawn_s.push(t.elapsed().as_secs_f64());
        workers.push(Box::new(TimedWorker {
            inner,
            index: w,
            tracer: Arc::clone(tracer),
            current: Arc::clone(current),
            stats: Arc::clone(&stats),
        }));
    }
    let mut rcfg = RouterConfig::new(cfg);
    rcfg.shards = SHARDS;
    rcfg.replicas = REPLICAS;
    let router = Router::new(rcfg, workers)?;
    Ok(Topology { sut: Sut::Cluster(Box::new(router)), spawn_s, rpc: stats })
}

/// One open-loop pass through the in-process topology. The worker thread
/// records `serve.wait`/`router.wait` (send → pick-up) and
/// `serve.handle`/`router.handle` spans; the request root spans and the
/// send lag are recorded from the load generator's own timestamps.
fn traced_pass(
    sut: Sut,
    reqs: &[Req],
    tracer: &Arc<Tracer>,
    current: &Arc<AtomicU64>,
    keep: &[usize],
) -> (PhaseOut, Sut) {
    let (req_tx, req_rx) = channel::<(String, Instant)>();
    let (resp_tx, resp_rx) = channel::<String>();
    let ids: HashMap<String, u64> =
        reqs.iter().enumerate().map(|(i, r)| (r.id.clone(), i as u64)).collect();
    let (wait_name, handle_name) = match sut {
        Sut::Solo(_) => ("serve.wait", "serve.handle"),
        Sut::Cluster(_) => ("router.wait", "router.handle"),
    };
    let worker = {
        let tracer = Arc::clone(tracer);
        let current = Arc::clone(current);
        std::thread::spawn(move || {
            let mut sut = sut;
            loop {
                match req_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok((line, sent)) => {
                        let picked = Instant::now();
                        let id = loadgen::line_id(&line);
                        let trace = id.and_then(|id| ids.get(id)).copied().unwrap_or(NO_REQUEST);
                        current.store(trace, Ordering::Relaxed);
                        tracer.record(wait_name, "request", trace, sent, picked);
                        let resp = tracer.time(handle_name, "request", trace, || sut.handle(&line));
                        if resp_tx.send(resp).is_err() {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if let Sut::Cluster(r) = &mut sut {
                            r.tick();
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            sut
        })
    };
    let mut rx = ChanRx(resp_rx);
    let (out, tx) = loadgen::open_loop(reqs, ChanTx(req_tx), &mut rx as &mut dyn Rx, keep);
    drop(tx);
    let sut = worker.join().expect("server thread panicked");
    for i in 0..reqs.len() {
        if let (Some(at), Some(done)) = (out.intended[i], out.answered[i]) {
            tracer.record("request", "", i as u64, at, done);
            let sent = at + Duration::from_secs_f64(out.lag_ms[i] / 1e3);
            tracer.record("loadgen.lag", "request", i as u64, at, sent);
        }
    }
    (out, sut)
}

fn run_traced(
    kind: Kind,
    o: &Opts,
    ds: &SplitDataset,
    files: &ServeFiles,
    plan: &Plan,
    rep: &mut Report,
) {
    let tracer = Arc::new(Tracer::new(false));
    let current = Arc::new(AtomicU64::new(NO_REQUEST));
    let Topology { sut, spawn_s, rpc } = match build_sut(kind, o, files, &tracer, &current) {
        Ok(t) => t,
        Err(e) => return rep.problem(format!("in-process topology: {e}")),
    };
    if !spawn_s.is_empty() {
        println!("supervisor: spawn_s={spawn_s:?}");
        rep.set("supervisor.spawn_s", stats::median(&spawn_s));
    }
    // Warm-up, then the same schedule untraced and traced. The cluster's
    // second pass uses fresh tick numbers so it misses the cache exactly as
    // the first did.
    let (warm, sut) = traced_pass(sut, &plan.warm, &tracer, &current, &[]);
    check_phase("warm-up", &warm, rep);
    let (plain, sut) = traced_pass(sut, &plan.open, &tracer, &current, &[]);
    check_phase("open-loop (untraced)", &plain, rep);
    let second = (kind == Kind::Dashboard).then(|| {
        let open_s = o.seconds as f64 * TRACED_SHARE;
        plan_dashboard(ds, o.seed, DASHBOARD_RATE, tick_s(), open_s, 1000)
    });
    let reqs = second.as_ref().map_or(&plan.open, |p| &p.open);
    let keep = oracle_picks(o.seed, reqs.len());
    *rpc.lock().expect("rpc stats poisoned") =
        RpcStats { restarts: vec![0; SHARDS * REPLICAS], ..RpcStats::default() };
    tracer.set_on(true);
    let (open, mut sut) = traced_pass(sut, reqs, &tracer, &current, &keep);
    check_phase("open-loop (traced)", &open, rep);

    let spans = tracer.spans();
    let lat = answered_ms(&open);
    let lat_plain = answered_ms(&plain);
    println!("open-loop traced latency_ms {}", stats::describe(&lat));
    println!("open-loop untraced latency_ms {}", stats::describe(&lat_plain));
    let p50 = stats::median(&lat_plain);
    rep.set("trace.overhead_frac", (stats::median(&lat) - p50) / p50);
    rep.set("trace.unattributed_frac", trace::unattributed_frac(&spans, "request"));
    rep.set("loadgen.latency_p90_ms", stats::tail(&lat, 90.0).unwrap_or(0.0));
    rep.set("loadgen.latency_p99_ms", stats::tail(&lat, 99.0).unwrap_or(0.0));
    let lag_p90 = stats::tail(&open.lag_ms, 90.0);
    let lag_max = open.lag_ms.iter().copied().fold(0.0, f64::max);
    println!(
        "loadgen: lag_ms p90={} (the maximum {lag_max:.3} stands in while p90 is unsupported)",
        lag_p90.map_or("unsupported".to_string(), |v| format!("{v:.3}"))
    );
    rep.set("loadgen.lag_p90_ms", lag_p90.unwrap_or(lag_max));

    // Wait from intended send to pick-up: send lag plus queueing.
    let (wait_name, handle_name) = match kind {
        Kind::Unique => ("serve.wait", "serve.handle"),
        Kind::Dashboard => ("router.wait", "router.handle"),
    };
    let mut waits: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == wait_name || s.name == "loadgen.lag") {
        *waits.entry(s.trace).or_default() += s.ms();
    }
    let waits: Vec<f64> = waits.into_values().collect();
    let handle = tracer.ms(handle_name);
    println!("{wait_name} (intended->pick-up) ms {}", stats::describe(&waits));
    println!("{handle_name} ms {}", stats::describe(&handle));
    let rs: Vec<&Resp> = open.resps.iter().flatten().collect();
    match kind {
        Kind::Unique => {
            println!(
                "serve.wait ms p50={:.3} p90={}",
                stats::median(&waits),
                stats::tail(&waits, 90.0).map_or("unsupported".to_string(), |v| format!("{v:.3}"))
            );
            rep.set("serve.handle_ms", stats::median(&handle));
            let n = rs.len().max(1) as f64;
            let hits = rs.iter().filter(|r| r.cache_hit == Some(true)).count() as f64;
            let drawn: u64 = rs
                .iter()
                .filter(|r| r.cache_hit != Some(true))
                .filter_map(|r| r.samples_used)
                .sum();
            let batch: u64 = rs.iter().filter_map(|r| r.batch_size).sum();
            rep.set("serve.cache_hit_ratio", hits / n);
            rep.set("serve.samples_per_request", drawn as f64 / n);
            rep.set("serve.batch_size_mean", batch as f64 / n);
        }
        Kind::Dashboard => {
            rep.set("router.wait_p90_ms", stats::tail(&waits, 90.0).unwrap_or(0.0));
            rep.set("router.handle_ms", stats::median(&handle));
            let self_ms = trace::self_ms(&spans, "router.handle");
            let rpcs = tracer.ms("router.rpc");
            println!("router.rpc ms {}", stats::describe(&rpcs));
            println!("router.self ms {}", stats::describe(&self_ms));
            rep.set("router.self_ms", stats::median(&self_ms));
            rep.set("router.rpc_p50_ms", stats::median(&rpcs));
            rep.set("router.rpc_p99_ms", stats::tail(&rpcs, 99.0).unwrap_or(0.0));
            let st = rpc.lock().expect("rpc stats poisoned");
            let n = st.forecasts.max(1) as f64;
            let per_req = |x: u64| x as f64 / reqs.len() as f64;
            println!(
                "router: rpcs={} errors={} replica_cache_hits={} bytes={} restarts={:?}",
                st.forecasts, st.errors, st.hits, st.bytes, st.restarts
            );
            rep.set("router.rpc_bytes", st.bytes as f64 / n);
            rep.set("router.rpcs_per_request", per_req(st.forecasts));
            rep.set("router.replica_cache_hit_ratio", st.hits as f64 / n);
            rep.set("router.rpc_errors", st.errors as f64);
            rep.set("supervisor.restarts", st.restarts.iter().sum::<u64>() as f64);
            // The serve layer runs inside the workers: its annotations
            // arrive on the RPC replies.
            rep.set("serve.cache_hit_ratio", st.hits as f64 / n);
            rep.set("serve.batch_size_mean", st.batch_sizes as f64 / n);
            rep.set("serve.samples_per_request", per_req(st.samples_drawn));
        }
    }
    let mean_len = |xs: &mut dyn Iterator<Item = usize>| {
        stats::mean(&xs.map(|b| b as f64 + 1.0).collect::<Vec<_>>())
    };
    rep.set("router.failovers", rs.iter().map(|r| r.failovers).sum::<u64>() as f64);
    rep.set("serve.bytes_in", mean_len(&mut reqs.iter().map(|r| r.line.len())));
    rep.set("serve.bytes_out", mean_len(&mut open.resp_bytes.iter().copied()));
    rep.set("env.requests", reqs.len() as f64);
    drop(rs);

    if kind == Kind::Dashboard {
        handle_probe(files, &reqs[..plan.unit.min(reqs.len())], &tracer, rep);
    }
    probes(o, ds, files, reqs, &open, &plan.open_starts, &tracer, rep);
    if let Sut::Cluster(r) = &mut sut {
        let _ = r.handle_line(r#"{"type":"shutdown","id":"stop"}"#);
    }
    drop(sut);
    oracle(files, reqs, &open.kept, rep);
    crate::write_trace(&tracer, o, rep);
}

/// `serve` layer probe for `cluster-dashboard`, whose `Server::handle_line`
/// calls happen inside the worker processes: a worker-configured in-process
/// [`Server`] answers one tick of the traced requests (a miss, then hits).
fn handle_probe(files: &ServeFiles, tick: &[Req], tracer: &Tracer, rep: &mut Report) {
    let mut cfg = oracle_config(files);
    cfg.batch_max = BATCH_MAX;
    cfg.cache_ttl_ms = CACHE_TTL_MS;
    let mut server = match Server::new(cfg) {
        Ok(s) => s,
        Err(e) => return rep.problem(format!("probe server: {e}")),
    };
    let mut hits = 0;
    for r in tick {
        let resp = tracer
            .time("serve.handle", "probe", NO_REQUEST, || server.handle_line(&r.line).response);
        let c = classify(&resp);
        if c.class != Class::Ok {
            rep.problem(format!("probe server answered {} with {}", r.id, c.class.name()));
        }
        hits += usize::from(c.cache_hit == Some(true));
    }
    let handle = tracer.ms("serve.handle");
    println!("probe serve.handle ms {} cache_hits={hits}", stats::describe(&handle));
    rep.set("serve.handle_ms", stats::median(&handle));
}

/// Layer probes on the phase's own inputs: request parsing and response
/// rendering (`proto`), the MC forecast (`deepstuq`), and the graph-conv
/// matmul (`tensor`).
#[allow(clippy::too_many_arguments)]
fn probes(
    o: &Opts,
    ds: &SplitDataset,
    files: &ServeFiles,
    reqs: &[Req],
    out: &PhaseOut,
    starts: &[usize],
    tracer: &Tracer,
    rep: &mut Report,
) {
    for r in reqs {
        tracer.time("serve.parse", "probe", NO_REQUEST, || {
            std::hint::black_box(proto::parse_request(&r.line).is_ok())
        });
    }
    for r in out.resps.iter().flatten().take(40) {
        let Some(p) = r.payload() else { continue };
        let m: Vec<Tensor> = p
            .matrices
            .iter()
            .map(|(rows, cols, bits)| {
                Tensor::from_vec(bits.iter().map(|&b| f32::from_bits(b)).collect(), &[*rows, *cols])
            })
            .collect();
        let iv = proto::Intervals { mu: &m[0], sigma: &m[1], lower: &m[2], upper: &m[3] };
        let meta = proto::ForecastMeta::solo();
        tracer.time("serve.render", "probe", NO_REQUEST, || {
            std::hint::black_box(proto::resp_forecast(&r.id, MC, MC, "probe", &meta, &iv).len())
        });
    }
    rep.set("serve.parse_ms", stats::median(&tracer.ms("serve.parse")));
    rep.set("serve.render_ms", stats::median(&tracer.ms("serve.render")));

    let model = match deepstuq::load_model(&files.model) {
        Ok(m) => m,
        Err(e) => return rep.problem(format!("probe model load: {e}")),
    };
    let mut rng = StuqRng::new(o.seed);
    let mut windows = starts.to_vec();
    windows.dedup();
    windows.truncate(4);
    for s in windows {
        let x = ds.window(s).x;
        tracer.time("deepstuq.mc", "probe", NO_REQUEST, || {
            std::hint::black_box(model.forecast_normalized(&x, MC, &mut rng).mu.len())
        });
    }
    let mc = stats::median(&tracer.ms("deepstuq.mc"));
    println!("probe deepstuq.mc ms {}", stats::describe(&tracer.ms("deepstuq.mc")));
    rep.set("deepstuq.mc_ms", mc);
    rep.set("deepstuq.mc_samples_per_s", MC as f64 / (mc / 1e3));
    crate::matmul_probe(tracer, rep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_traffic::DatasetSpec;

    fn small() -> SplitDataset {
        DatasetSpec::new("tiny", NODES, 340, 600).generate(1)
    }

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        let ds = small();
        let a = plan_unique(&ds, 9, 3.0, 4.0);
        let b = plan_unique(&ds, 9, 3.0, 4.0);
        let c = plan_unique(&ds, 10, 3.0, 4.0);
        let key = |p: &Plan| -> Vec<(String, u64)> {
            p.open.iter().map(|r| (r.line.clone(), r.at_s.to_bits())).collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        let d1 = plan_dashboard(&ds, 9, 5.0, 2.0, 6.0, 0);
        let d2 = plan_dashboard(&ds, 9, 5.0, 2.0, 6.0, 0);
        assert_eq!(key(&d1), key(&d2));
        assert_ne!(key(&d1), key(&plan_dashboard(&ds, 10, 5.0, 2.0, 6.0, 0)));
    }

    #[test]
    fn unique_requests_never_share_a_window() {
        let ds = small();
        let p = plan_unique(&ds, 4, 3.0, 5.0);
        let mut starts = p.open_starts.clone();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), p.open.len());
        assert!(p.open.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert_eq!(p.shared_frac, 0.0);
    }

    #[test]
    fn dashboard_mix_matches_its_description() {
        let ds = small();
        let p = plan_dashboard(&ds, 5, 10.0, 2.0, 20.0, 0);
        assert_eq!(p.open.len(), 200);
        assert!((p.shared_frac - 0.95).abs() < 1e-12, "{}", p.shared_frac);
        assert!(p.both_shards_frac > 0.5, "{}", p.both_shards_frac);
        let full = p.open.iter().filter(|r| !r.line.contains("\"nodes\"")).count();
        assert!(full > 5 && full < 40, "full-grid requests: {full}");
        for r in &p.open {
            let v = stuq_serve::json::parse(&r.line).unwrap();
            assert!(v.get("seed").is_none() && v.get("tick").is_some());
            let x = v.get("x").unwrap().as_arr().unwrap();
            assert_eq!((x.len(), x[0].as_arr().unwrap().len()), (12, NODES));
        }
    }

    #[test]
    fn dashboard_rounds_are_whole_ticks() {
        let ds = small();
        let p = plan_dashboard(&ds, 5, 10.0, tick_s(), 3.0 * tick_s(), 0);
        let rs = rounds(Kind::Dashboard, &p, 0.0);
        assert_eq!(rs.len(), 3);
        assert_eq!(p.sat.len(), 3 * SAT_PER_ROUND * p.unit);
        let tick = |line: &str| stuq_serve::json::parse(line).unwrap().get("tick").unwrap().clone();
        for (i, r) in rs.iter().enumerate() {
            let open = &p.open[r.open.clone()];
            assert!(open.iter().all(|q| (0.0..tick_s()).contains(&(q.at_s - r.t0_s))));
            assert!(open.iter().all(|q| tick(&q.line) == tick(&open[0].line)));
            for unit in p.sat[r.sat.clone()].chunks(p.unit) {
                assert!(unit.iter().all(|q| tick(&q.line) == tick(&unit[0].line)));
            }
            assert_eq!(r.t0_s, i as f64 * tick_s());
        }
        let unique = plan_unique(&ds, 4, 3.0, 5.0);
        let one = rounds(Kind::Unique, &unique, 2.0);
        assert_eq!((one.len(), one[0].open.len(), one[0].sat.len()), (1, 15, unique.sat.len()));
    }

    #[test]
    fn oracle_picks_are_seeded() {
        assert_eq!(oracle_picks(3, 50), oracle_picks(3, 50));
        assert_eq!(oracle_picks(3, 2).len(), 2);
    }
}
