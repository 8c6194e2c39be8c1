//! The load generator: one connection, at most two threads.
//!
//! * Open loop — requests leave on a schedule fixed in advance, whatever
//!   the server does; each latency is timed from the request's *intended*
//!   send time, so a stall also charges the requests queued behind it. How
//!   late the sender ran is reported as lag.
//! * Closed loop — a fixed number of requests outstanding; the next one
//!   leaves when an answer arrives (saturation throughput).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use crate::classify::{classify_for, Resp, Tally};

/// Sending half of a connection.
pub trait Tx: Send {
    /// Sends one request line.
    fn send(&mut self, line: &str) -> std::io::Result<()>;
}

/// Receiving half of a connection.
pub trait Rx {
    /// Next response line; `None` when the connection closed.
    fn recv(&mut self) -> Option<String>;
}

impl<W: Write + Send> Tx for W {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.write_all(line.as_bytes())?;
        self.write_all(b"\n")?;
        self.flush()
    }
}

/// A pipe or socket read half.
pub struct LineRx<R: BufRead>(pub R);

impl<R: BufRead> Rx for LineRx<R> {
    fn recv(&mut self) -> Option<String> {
        let mut s = String::new();
        match self.0.read_line(&mut s) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(s.trim_end_matches(['\n', '\r']).to_string()),
        }
    }
}

/// Sending half of an in-process connection.
pub struct ChanTx(pub Sender<(String, Instant)>);

impl Tx for ChanTx {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.0
            .send((line.to_string(), Instant::now()))
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "server gone"))
    }
}

/// Receiving half of an in-process connection.
pub struct ChanRx(pub Receiver<String>);

impl Rx for ChanRx {
    fn recv(&mut self) -> Option<String> {
        self.0.recv().ok()
    }
}

/// One request of a workload.
#[derive(Clone, Debug)]
pub struct Req {
    /// Request id (also the key the answer is matched on).
    pub id: String,
    /// The NDJSON request line.
    pub line: String,
    /// Intended send time, seconds after the phase starts (open loop).
    pub at_s: f64,
}

/// What a phase observed.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Sent / answered-by-class counts.
    pub tally: Tally,
    /// Per request (schedule order): latency in ms from the intended send
    /// time (open loop) or the actual send (closed loop).
    pub latency_ms: Vec<f64>,
    /// Per request: how late the sender ran, ms (open loop).
    pub lag_ms: Vec<f64>,
    /// Per request: intended send instant (open loop) or send instant.
    pub intended: Vec<Option<Instant>>,
    /// Per request: when the answer arrived.
    pub answered: Vec<Option<Instant>>,
    /// Classified answers, schedule order.
    pub resps: Vec<Option<Resp>>,
    /// Raw answer lines, kept for the requests listed in `keep`.
    pub kept: Vec<(usize, String)>,
    /// Response bytes per answer.
    pub resp_bytes: Vec<usize>,
    /// From the first (intended) send to the last answer.
    pub elapsed_s: f64,
    /// Closed loop: `(time, probe reading)` at the start and after every
    /// whole unit of answers.
    pub units: Vec<(Instant, f64)>,
}

impl PhaseOut {
    /// Appends a later phase's observations, its kept indices shifted past
    /// this phase's requests. Unit readings are not carried over: take
    /// [`PhaseOut::unit_deltas`] of each phase first.
    pub fn append(&mut self, other: PhaseOut) {
        let base = self.latency_ms.len();
        self.tally.merge(&other.tally);
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.intended.extend(other.intended);
        self.answered.extend(other.answered);
        self.resps.extend(other.resps);
        self.kept.extend(other.kept.into_iter().map(|(i, line)| (i + base, line)));
        self.resp_bytes.extend(other.resp_bytes);
        self.elapsed_s += other.elapsed_s;
    }

    /// Closed loop: seconds and probe increase of each whole unit.
    pub fn unit_deltas(&self) -> Vec<(f64, f64)> {
        self.units
            .windows(2)
            .map(|w| (w[1].0.duration_since(w[0].0).as_secs_f64(), w[1].1 - w[0].1))
            .collect()
    }
}

/// The request id of a line, found without a full parse.
pub fn line_id(line: &str) -> Option<&str> {
    let start = line.find("\"id\":\"")? + 6;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Classifies the answers collected during a phase. Parsing waits until the
/// phase is over so the load generator takes no processor time from the
/// server while it is measured.
fn settle(out: &mut PhaseOut, reqs: &[Req], raw: Vec<(String, Instant)>, keep: &[usize]) {
    let index: HashMap<&str, usize> =
        reqs.iter().enumerate().map(|(i, r)| (r.id.as_str(), i)).collect();
    for (n, (line, at)) in raw.into_iter().enumerate() {
        let i =
            line_id(&line).and_then(|id| index.get(id)).copied().unwrap_or(n.min(reqs.len() - 1));
        let r = classify_for(&line, &reqs[i].id);
        out.tally.add(r.class);
        out.resp_bytes.push(line.len());
        if out.answered[i].is_none() {
            out.answered[i] = Some(at);
            if let Some(t) = out.intended[i] {
                out.latency_ms[i] = at.saturating_duration_since(t).as_secs_f64() * 1e3;
            }
        }
        out.resps[i] = Some(r);
        if keep.contains(&i) {
            out.kept.push((i, line));
        }
    }
    let first = out.intended.iter().flatten().min().copied();
    let last = out.answered.iter().flatten().max().copied();
    if let (Some(a), Some(b)) = (first, last) {
        out.elapsed_s = b.saturating_duration_since(a).as_secs_f64();
    }
}

fn fresh(n: usize) -> PhaseOut {
    PhaseOut {
        latency_ms: vec![f64::NAN; n],
        lag_ms: vec![0.0; n],
        intended: vec![None; n],
        answered: vec![None; n],
        resps: vec![None; n],
        ..PhaseOut::default()
    }
}

/// Drives `reqs` open-loop: a sender thread releases each request at its
/// intended time while this thread collects the answers. Returns the send
/// half for reuse.
pub fn open_loop<T: Tx + 'static>(
    reqs: &[Req],
    mut tx: T,
    rx: &mut dyn Rx,
    keep: &[usize],
) -> (PhaseOut, T) {
    let n = reqs.len();
    let mut out = fresh(n);
    let t0 = Instant::now() + Duration::from_millis(20);
    let plan: Vec<(Instant, String)> =
        reqs.iter().map(|r| (t0 + Duration::from_secs_f64(r.at_s), r.line.clone())).collect();
    for (i, (at, _)) in plan.iter().enumerate() {
        out.intended[i] = Some(*at);
    }
    let sender = std::thread::spawn(move || {
        let mut lag = Vec::with_capacity(plan.len());
        for (at, line) in &plan {
            let now = Instant::now();
            if *at > now {
                std::thread::sleep(*at - now);
            }
            let sent = Instant::now();
            lag.push(sent.saturating_duration_since(*at).as_secs_f64() * 1e3);
            if tx.send(line).is_err() {
                break;
            }
        }
        (lag, tx)
    });
    out.tally.sent = n as u64;
    let mut raw = Vec::with_capacity(n);
    while raw.len() < n {
        let Some(line) = rx.recv() else { break };
        raw.push((line, Instant::now()));
    }
    let (lag, tx) = sender.join().expect("sender thread panicked");
    for (i, l) in lag.into_iter().enumerate() {
        out.lag_ms[i] = l;
    }
    settle(&mut out, reqs, raw, keep);
    (out, tx)
}

/// Drives requests closed-loop with `outstanding` in flight, drawing from
/// `reqs` in order until `duration` has passed since the first send (or the
/// requests run out), then waits for the stragglers. Sending only stops at
/// a multiple of `unit` requests, so a phase always covers whole units of
/// the traffic mix.
///
/// `probe` is read when the phase starts and again each time another whole
/// unit of answers is in (the server's CPU seconds, say); the readings and
/// their times land in [`PhaseOut::units`].
pub fn closed_loop(
    reqs: &[Req],
    tx: &mut dyn Tx,
    rx: &mut dyn Rx,
    outstanding: usize,
    duration: Duration,
    unit: usize,
    probe: &mut dyn FnMut() -> f64,
) -> PhaseOut {
    let mut out = fresh(reqs.len());
    let unit = unit.max(1);
    let t0 = Instant::now();
    out.units.push((t0, probe()));
    let mut next = 0;
    let mut in_flight = 0;
    let mut send = |next: &mut usize, out: &mut PhaseOut| -> bool {
        let due = t0.elapsed() >= duration && next.is_multiple_of(unit);
        if *next >= reqs.len() || due {
            return false;
        }
        out.intended[*next] = Some(Instant::now());
        if tx.send(&reqs[*next].line).is_err() {
            return false;
        }
        *next += 1;
        true
    };
    while in_flight < outstanding && send(&mut next, &mut out) {
        in_flight += 1;
    }
    let mut raw = Vec::new();
    while in_flight > 0 {
        let Some(line) = rx.recv() else { break };
        raw.push((line, Instant::now()));
        if raw.len().is_multiple_of(unit) {
            out.units.push((Instant::now(), probe()));
        }
        in_flight -= 1;
        if send(&mut next, &mut out) {
            in_flight += 1;
        }
    }
    out.tally.sent = next as u64;
    settle(&mut out, reqs, raw, &[]);
    out.latency_ms.truncate(next);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-process echo server answering `{"type":"forecast","id":…}`.
    fn echo() -> (ChanTx, ChanRx, std::thread::JoinHandle<()>) {
        let (req_tx, req_rx) = std::sync::mpsc::channel::<(String, Instant)>();
        let (resp_tx, resp_rx) = std::sync::mpsc::channel::<String>();
        let h = std::thread::spawn(move || {
            for (line, _) in req_rx {
                let id = stuq_serve::json::parse(&line).unwrap().get("id").unwrap().clone();
                let id = id.as_str().unwrap().to_string();
                let resp = format!(
                    "{{\"type\":\"forecast\",\"id\":\"{id}\",\"degraded\":false,\"samples_used\":1,\"mu\":[[1]],\"sigma\":[[1]],\"lower\":[[0]],\"upper\":[[2]]}}"
                );
                std::thread::sleep(Duration::from_millis(2));
                if resp_tx.send(resp).is_err() {
                    break;
                }
            }
        });
        (ChanTx(req_tx), ChanRx(resp_rx), h)
    }

    fn reqs(n: usize, gap_s: f64) -> Vec<Req> {
        (0..n)
            .map(|i| Req {
                id: format!("r{i}"),
                line: format!("{{\"type\":\"forecast\",\"id\":\"r{i}\"}}"),
                at_s: i as f64 * gap_s,
            })
            .collect()
    }

    #[test]
    fn request_ids_are_found_without_parsing() {
        assert_eq!(line_id(r#"{"type":"forecast","id":"o12","x":[[1]]}"#), Some("o12"));
        assert_eq!(line_id(r#"{"type":"healthz"}"#), None);
    }

    #[test]
    fn open_loop_times_from_intended_send() {
        let (tx, mut rx, h) = echo();
        let rs = reqs(5, 0.01);
        let (out, tx) = open_loop(&rs, tx, &mut rx, &[2]);
        drop(tx);
        h.join().unwrap();
        assert_eq!((out.tally.sent, out.tally.ok()), (5, 5));
        assert!(out.latency_ms.iter().all(|&l| l >= 2.0), "{:?}", out.latency_ms);
        assert_eq!(out.kept.len(), 1);
        assert!(out.elapsed_s >= 0.04);
    }

    #[test]
    fn appended_phases_keep_request_order() {
        let (tx, mut rx, h) = echo();
        let rs = reqs(3, 0.0);
        let (mut a, tx) = open_loop(&rs, tx, &mut rx, &[1]);
        let (b, tx) = open_loop(&rs, tx, &mut rx, &[0, 2]);
        drop(tx);
        h.join().unwrap();
        a.append(b);
        assert_eq!((a.tally.sent, a.tally.ok(), a.latency_ms.len()), (6, 6, 6));
        let kept: Vec<usize> = a.kept.iter().map(|k| k.0).collect();
        assert_eq!(kept, [1, 3, 5]);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_then_drains() {
        let (mut tx, mut rx, h) = echo();
        let rs = reqs(50, 0.0);
        let mut reads = 0.0;
        let mut probe = || {
            reads += 1.0;
            reads
        };
        let out = closed_loop(&rs, &mut tx, &mut rx, 2, Duration::from_millis(30), 4, &mut probe);
        drop(tx);
        h.join().unwrap();
        assert!(out.tally.sent >= 4 && out.tally.sent < 50, "sent {}", out.tally.sent);
        assert_eq!(out.tally.sent % 4, 0, "stops on a whole unit");
        let deltas = out.unit_deltas();
        assert_eq!(deltas.len() as u64, out.tally.sent / 4);
        assert!(deltas.iter().all(|&(s, d)| s > 0.0 && d == 1.0));
        assert_eq!(out.tally.ok(), out.tally.sent, "every sent request is answered");
    }
}
