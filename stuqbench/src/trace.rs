//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing is traced inside the program. Spans of
//! one request share its `trace` id; a span names its parent span by name
//! within the same trace. Spans stay in memory and are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Trace id of spans that belong to no request (probes, training stages).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`serve.handle`, `router.rpc`, …).
    pub name: &'static str,
    /// Parent span name within the same trace (`""` for a root).
    pub parent: &'static str,
    /// Request the span belongs to ([`NO_REQUEST`] otherwise).
    pub trace: u64,
    /// Start, seconds since the recorder was created.
    pub start: f64,
    /// End, seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// The recorder. While switched off it drops every span, so the same code
/// path runs traced and untraced.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on: AtomicBool::new(on), t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: &'static str,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on.load(Ordering::SeqCst) {
            return;
        }
        let secs = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let span = Span { name, parent, trace, start: secs(start), end: secs(end) };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: &'static str,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, parent, trace, t, Instant::now());
        r
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let trace = if s.trace == NO_REQUEST { -1 } else { s.trace as i64 };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"trace\":{trace},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.parent,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Self time (ms) of every span called `name`: its duration minus the part
/// its child spans (same trace, parent = `name`) cover.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut kids: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == name) {
        kids.entry(s.trace).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let c = kids.get(&s.trace).cloned().unwrap_or_default();
            (s.end - s.start - covered(c, s.start, s.end)) * 1e3
        })
        .collect()
}

/// Share of the time under every root span called `root` that no child
/// span covers.
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let total: f64 = spans.iter().filter(|s| s.name == root).map(Span::ms).sum();
    if total <= 0.0 {
        return 0.0;
    }
    self_ms(spans, root).iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, trace: u64, a: f64, b: f64) -> Span {
        Span { name, parent, trace, start: a, end: b }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0), 4.0);
        assert_eq!(covered(vec![(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0);
        assert_eq!(covered(vec![], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_trace_only() {
        let spans = vec![
            span("router.handle", "request", 1, 0.0, 0.010),
            span("router.rpc", "router.handle", 1, 0.001, 0.004),
            span("router.rpc", "router.handle", 1, 0.005, 0.009),
            span("router.rpc", "router.handle", 2, 0.0, 0.010),
        ];
        let s = self_ms(&spans, "router.handle");
        assert_eq!(s.len(), 1);
        assert!((s[0] - 3.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn unattributed_share_of_roots() {
        let spans = vec![
            span("request", "", 1, 0.0, 1.0),
            span("serve.wait", "request", 1, 0.0, 0.25),
            span("serve.handle", "request", 1, 0.25, 0.75),
            span("request", "", 2, 2.0, 3.0),
            span("serve.handle", "request", 2, 2.0, 3.0),
        ];
        assert!((unattributed_frac(&spans, "request") - 0.125).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Tracer::new(false);
        t.time("x", "", 0, || ());
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.time("x", "", 0, || ());
        assert_eq!(t.ms("x").len(), 1);
    }
}
