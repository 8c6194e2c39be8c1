//! Response classification and the exact payload the oracle compares.
//!
//! Every response line falls in one class. Only a full-fidelity forecast is
//! `Ok`; shed, rejected, error, fallback, partial, degraded, malformed and
//! mismatched responses all count as failed.

use stuq_serve::json::{self, Json};

/// What one response line was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A full-fidelity forecast.
    Ok,
    /// Refused by admission control (`rejected`, reason `queue_full`).
    Shed,
    /// Any other typed refusal.
    Rejected,
    /// A request-level error.
    Error,
    /// A persistence fallback instead of a forecast.
    Fallback,
    /// A cluster merge with at least one degraded shard slice.
    Partial,
    /// A forecast cut short by its deadline.
    Degraded,
    /// Not a response line of the protocol at all.
    Malformed,
    /// Well-formed, but not the answer that was asked for (wrong id, or
    /// different from the oracle's recomputation).
    Mismatched,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 9] = [
        Class::Ok,
        Class::Shed,
        Class::Rejected,
        Class::Error,
        Class::Fallback,
        Class::Partial,
        Class::Degraded,
        Class::Malformed,
        Class::Mismatched,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Ok => "ok",
            Class::Shed => "shed",
            Class::Rejected => "rejected",
            Class::Error => "error",
            Class::Fallback => "fallback",
            Class::Partial => "partial",
            Class::Degraded => "degraded",
            Class::Malformed => "malformed",
            Class::Mismatched => "mismatched",
        }
    }
}

/// The semantic payload of a forecast: the four interval matrices as f32
/// bit patterns (shape-checked) plus the sample count. Annotations that say
/// how an answer was produced (batching, cache, cluster, trace) are left out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// `samples_used`.
    pub samples_used: u64,
    /// `(rows, cols, bits)` of `mu`, `sigma`, `lower`, `upper`.
    pub matrices: Vec<(usize, usize, Vec<u32>)>,
}

/// One classified response line.
#[derive(Clone, Debug)]
pub struct Resp {
    /// Class of the line.
    pub class: Class,
    /// Echoed request id.
    pub id: Option<String>,
    /// `cache_hit` annotation, when present.
    pub cache_hit: Option<bool>,
    /// `batch_size` annotation, when present.
    pub batch_size: Option<u64>,
    /// `samples_used`, on forecasts.
    pub samples_used: Option<u64>,
    /// Replica failovers recorded in the cluster `shards` notes.
    pub failovers: u64,
    /// The parsed document (for payload extraction).
    pub doc: Option<Json>,
}

fn matrix(doc: &Json, key: &str) -> Option<(usize, usize, Vec<u32>)> {
    let rows = doc.get(key)?.as_arr()?;
    let cols = rows.first()?.as_arr()?.len();
    let mut bits = Vec::with_capacity(rows.len() * cols);
    for row in rows {
        let row = row.as_arr()?;
        if row.len() != cols {
            return None;
        }
        for cell in row {
            // The wire writes f32 cells (non-finite ones as marker
            // strings); through f64 both sides of a comparison map equal
            // text to equal bits.
            bits.push((cell.as_f64()? as f32).to_bits());
        }
    }
    Some((rows.len(), cols, bits))
}

impl Resp {
    /// The oracle payload; `None` unless this is a well-formed forecast.
    pub fn payload(&self) -> Option<Payload> {
        let doc = self.doc.as_ref()?;
        if doc.get("type")?.as_str()? != "forecast" {
            return None;
        }
        let matrices = ["mu", "sigma", "lower", "upper"]
            .iter()
            .map(|k| matrix(doc, k))
            .collect::<Option<Vec<_>>>()?;
        Some(Payload { samples_used: self.samples_used?, matrices })
    }
}

/// Boolean field `key` of an object.
fn flag(doc: &Json, key: &str) -> Option<bool> {
    match doc.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Classifies one response line.
pub fn classify(line: &str) -> Resp {
    let mut r = Resp {
        class: Class::Malformed,
        id: None,
        cache_hit: None,
        batch_size: None,
        samples_used: None,
        failovers: 0,
        doc: None,
    };
    let Ok(doc) = json::parse(line) else {
        return r;
    };
    r.id = doc.get("id").and_then(Json::as_str).map(str::to_owned);
    r.cache_hit = flag(&doc, "cache_hit");
    r.batch_size = doc.get("batch_size").and_then(Json::as_u64);
    r.samples_used = doc.get("samples_used").and_then(Json::as_u64);
    if let Some(notes) = doc.get("shards").and_then(Json::as_arr) {
        r.failovers = notes
            .iter()
            .filter_map(|n| n.get("attempts").and_then(Json::as_arr))
            .map(|a| a.len() as u64)
            .sum();
    }
    r.class = match doc.get("type").and_then(Json::as_str) {
        Some("forecast") => match (flag(&doc, "partial"), flag(&doc, "degraded")) {
            (Some(true), _) => Class::Partial,
            (_, Some(true)) => Class::Degraded,
            (_, Some(false)) if r.samples_used.is_some() => Class::Ok,
            _ => Class::Malformed,
        },
        Some("rejected") => match doc.get("reason").and_then(Json::as_str) {
            Some("queue_full") => Class::Shed,
            _ => Class::Rejected,
        },
        Some("error") => Class::Error,
        Some("fallback") => Class::Fallback,
        _ => Class::Malformed,
    };
    r.doc = Some(doc);
    r
}

/// Classifies a forecast answer to the request with id `want`: a response
/// carrying another id is `Mismatched`.
pub fn classify_for(line: &str, want: &str) -> Resp {
    let mut r = classify(line);
    if r.class != Class::Malformed && r.id.as_deref() != Some(want) {
        r.class = Class::Mismatched;
    }
    r
}

/// Per-phase tallies: sent, and responses per class.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    counts: [u64; 9],
}

impl Tally {
    /// Counts one response of class `c`.
    pub fn add(&mut self, c: Class) {
        self.counts[Class::ALL.iter().position(|&x| x == c).expect("listed")] += 1;
    }

    /// Responses of class `c`.
    pub fn count(&self, c: Class) -> u64 {
        self.counts[Class::ALL.iter().position(|&x| x == c).expect("listed")]
    }

    /// Full-fidelity answers.
    pub fn ok(&self) -> u64 {
        self.count(Class::Ok)
    }

    /// Everything sent that did not end as an `Ok` answer, unanswered
    /// requests included.
    pub fn failed(&self) -> u64 {
        self.sent - self.ok().min(self.sent)
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// `sent=… ok=… failed=…` plus every nonzero failure class.
    pub fn describe(&self) -> String {
        let mut s = format!("sent={} ok={} failed={}", self.sent, self.ok(), self.failed());
        for c in Class::ALL.iter().skip(1) {
            let n = self.count(*c);
            if n > 0 {
                s.push_str(&format!(" {}={n}", c.name()));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOLO: &str = r#"{"type":"forecast","id":"u1","degraded":false,"samples_used":10,"samples_requested":10,"variance_inflation":1,"model":"ab","batched":false,"batch_size":1,"cache_hit":false,"mu":[[1.5,2]],"sigma":[[0.25,0.5]],"lower":[[1,1]],"upper":[[2,3]]}"#;

    #[test]
    fn classifies_canned_lines() {
        let cases = [
            (SOLO, Class::Ok),
            (&SOLO.replace("\"degraded\":false", "\"degraded\":true"), Class::Degraded),
            (r#"{"type":"rejected","id":"u1","reason":"queue_full"}"#, Class::Shed),
            (r#"{"type":"rejected","id":"u1","reason":"breaker_open"}"#, Class::Rejected),
            (r#"{"type":"rejected","id":"u1","reason":"worker_down","shard":1}"#, Class::Rejected),
            (r#"{"type":"error","id":"u1","reason":"bad_request","detail":"x"}"#, Class::Error),
            (
                r#"{"type":"fallback","id":"u1","reason":"breaker_open","mu":[[1]],"sigma":[[1]],"lower":[[0]],"upper":[[2]]}"#,
                Class::Fallback,
            ),
            (
                r#"{"type":"forecast","id":"u1","degraded":false,"samples_used":10,"samples_requested":10,"variance_inflation":1,"model":"ab","partial":true,"shards":[{"shard":1,"status":"fallback","reason":"worker_down"}],"mu":[[1]],"sigma":[[1]],"lower":[[0]],"upper":[[2]]}"#,
                Class::Partial,
            ),
            (r#"{"type":"health","status":"ok"}"#, Class::Malformed),
            ("{\"type\":\"forecast\"", Class::Malformed),
            ("serve: 3 request(s)", Class::Malformed),
        ];
        for (line, want) in cases {
            assert_eq!(classify(line).class, want, "{line}");
        }
    }

    #[test]
    fn wrong_id_is_a_mismatch() {
        assert_eq!(classify_for(SOLO, "u1").class, Class::Ok);
        assert_eq!(classify_for(SOLO, "u2").class, Class::Mismatched);
    }

    #[test]
    fn failover_annotations_are_counted_but_stay_ok() {
        let line = r#"{"type":"forecast","id":"c1","degraded":false,"samples_used":10,"samples_requested":10,"variance_inflation":1,"model":"ab","partial":false,"shards":[{"shard":0,"status":"ok","replica":1,"attempts":[{"replica":0,"reason":"rpc_timeout"}]}],"mu":[[1]],"sigma":[[1]],"lower":[[0]],"upper":[[2]]}"#;
        let r = classify(line);
        assert_eq!(r.class, Class::Ok);
        assert_eq!(r.failovers, 1);
    }

    #[test]
    fn payload_ignores_annotations_but_not_values() {
        let a = classify(SOLO).payload().unwrap();
        let annotated = SOLO.replace("\"cache_hit\":false", "\"cache_hit\":true");
        assert_eq!(classify(&annotated).payload().unwrap(), a);
        let other = SOLO.replace("[[1.5,2]]", "[[1.5,2.0000002]]");
        assert_ne!(classify(&other).payload().unwrap(), a);
        let fewer = SOLO.replace("\"samples_used\":10", "\"samples_used\":9");
        assert_ne!(classify(&fewer).payload().unwrap(), a);
        assert_eq!(a.matrices[0], (1, 2, vec![1.5f32.to_bits(), 2f32.to_bits()]));
    }

    #[test]
    fn float_cells_keep_their_f32_bits() {
        let cells = [0.1f32, 1.0e-7, 123.456, f32::MAX, -0.0, 2.0000002];
        let row: Vec<String> = cells.iter().map(|x| x.to_string()).collect();
        let line = SOLO.replace("[[1.5,2]]", &format!("[[{}]]", row.join(",")));
        let want: Vec<u32> = cells.iter().map(|x| x.to_bits()).collect();
        assert_eq!(classify(&line).payload().unwrap().matrices[0].2, want);
        let nan = SOLO.replace("[[1.5,2]]", r#"[["NaN","inf"]]"#);
        let bits = &classify(&nan).payload().unwrap().matrices[0].2;
        assert!(f32::from_bits(bits[0]).is_nan() && f32::from_bits(bits[1]) == f32::INFINITY);
    }

    #[test]
    fn tally_counts_unanswered_requests_as_failed() {
        let mut t = Tally { sent: 4, ..Tally::default() };
        t.add(Class::Ok);
        t.add(Class::Ok);
        t.add(Class::Shed);
        assert_eq!((t.ok(), t.failed()), (2, 2));
        assert_eq!(t.describe(), "sent=4 ok=2 failed=2 shed=1");
    }
}
