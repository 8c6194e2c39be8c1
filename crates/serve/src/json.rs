//! A minimal JSON value parser for request payloads.
//!
//! `stuq-obs` ships a flat-object parser (events never nest), but forecast
//! requests carry nested arrays (`x` is a `[t_h][N]` matrix), so the serving
//! crate needs a real recursive parser. Std-only, hardened for untrusted
//! input: depth-limited recursion, hard errors on trailing garbage,
//! duplicate-tolerant object access (first key wins, matching the obs
//! validator's duplicate-key rejection happening at a different layer).
//!
//! JSON cannot represent non-finite floats; the protocol uses the marker
//! strings `"NaN"`, `"inf"`, `"-inf"` (same convention as the event log).
//! [`Json::as_f64`] resolves the markers so callers see the actual values.

/// Maximum nesting depth accepted from the wire. Forecast requests need 3
/// (object → matrix → row); anything deeper is hostile or corrupt.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key` (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value; resolves the `"NaN"`/`"inf"`/`"-inf"` markers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which itself must not fit.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    let n: f64 = text.parse().map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("number {text:?} overflows f64"));
    }
    Ok(Json::Num(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        // Exactly four ASCII hex digits: no sign, no space.
                        let code = hex
                            .iter()
                            .try_fold(0u32, |acc, &h| Some(acc * 16 + (h as char).to_digit(16)?))
                            .ok_or("invalid \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err("invalid escape".into()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("raw control character in string".into()),
            Some(_) => {
                // Copy the run of plain bytes up to the next quote, escape or
                // control byte. Those are all ASCII, so the run ends on a
                // char boundary and multi-byte scalars pass through whole;
                // each byte is decoded once, keeping the parse linear.
                let start = *pos;
                while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| "non-utf8 string content".to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth + 1)?;
        pairs.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_forecast_shaped_payloads() {
        let v =
            parse(r#"{"type":"forecast","id":"r1","x":[[1.5,-2e1],["NaN",0]],"mc":8}"#).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("forecast"));
        assert_eq!(v.get("mc").and_then(Json::as_u64), Some(8));
        // 2^64 does not fit; the largest f64 below it does.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            parse("18446744073709549568").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        let x = v.get("x").and_then(Json::as_arr).unwrap();
        assert_eq!(x.len(), 2);
        assert_eq!(x[0].as_arr().unwrap()[1].as_f64(), Some(-20.0));
        assert!(x[1].as_arr().unwrap()[0].as_f64().unwrap().is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1e999",
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_stops_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "deep nesting must be a typed error, not a stack overflow");
        let ok = "[".repeat(4) + "1" + &"]".repeat(4);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(parse(&escape("x\"y\nz")).unwrap().as_str(), Some("x\"y\nz"));
    }

    #[test]
    fn long_multibyte_strings_roundtrip() {
        // 1-, 2-, 3- and 4-byte UTF-8 scalars mixed with escapes, at lengths
        // where a parse that re-scans the rest of the line per char crawls.
        let unit = "a\u{e9}\u{20ac}\u{1f600}\"\\\n";
        for reps in [1, 1_000, 10_000] {
            let s = unit.repeat(reps);
            let doc = format!("{{\"id\":{},\"mc\":1}}", escape(&s));
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_str), Some(s.as_str()), "{reps} reps");
        }
        assert_eq!(parse(r#""\u00e9\u20AC""#).unwrap().as_str(), Some("\u{e9}\u{20ac}"));
    }

    #[test]
    fn nonfinite_markers_resolve() {
        let v = parse(r#"["NaN","inf","-inf","other"]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert!(a[0].as_f64().unwrap().is_nan());
        assert_eq!(a[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(a[2].as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(a[3].as_f64(), None);
    }
}
