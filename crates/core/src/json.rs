//! Shared hand-rolled JSON rendering helpers.
//!
//! Every machine-readable surface in the workspace (fleet reports, fault
//! campaigns, the serve daemon) writes JSON by hand so tier-1 resolves
//! with zero external crates. This module centralizes the two renderings
//! that must agree byte-for-byte across those surfaces — string escaping
//! and the flat [`SimStats`] counter object — plus the deterministic
//! single-run report the CLI's `run --json` and the daemon's `run` job
//! both print, and the small recursive-descent reader ([`Json`]) the
//! serve protocol and the invariant-artifact loader parse with.
//!
//! # Examples
//!
//! ```
//! use clockless_core::json::escape;
//!
//! assert_eq!(escape("plain"), "plain");
//! assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
//! ```

use std::fmt::Write as _;

use clockless_kernel::SimStats;

use crate::model::RtModel;
use crate::run::RunSummary;

/// A parsed JSON value, read by the workspace's small hand-rolled
/// recursive-descent parser (no external crates). The serve daemon's
/// request protocol and the invariant-artifact loader both consume it.
///
/// Numbers are kept as `f64`; the fields these surfaces read are small
/// integers, which `f64` represents exactly (see [`Json::as_u64`]).
///
/// # Examples
///
/// ```
/// use clockless_core::json::Json;
///
/// let v = Json::parse(r#"{"op":"run","id":3,"deep":[1,2,{"k":true}]}"#)?;
/// assert_eq!(v.get("op").and_then(Json::as_str), Some("run"));
/// assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document from `text`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer small
    /// enough for `f64` to hold exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The number as an `i64`, if this is an integer small enough for
    /// `f64` to hold exactly (invariant artifacts carry signed bounds).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX for the low half.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let lo = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                *pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| "invalid unicode escape".to_string())?,
                        );
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: re-borrow as str for one char.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let slice = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
    u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        if !fields.iter().any(|(k, _)| *k == key) {
            fields.push((key, value));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = Escaped(&mut out).write_str(s);
    out
}

/// A [`fmt::Write`](std::fmt::Write) that escapes what it is given for
/// a JSON string, as [`escape`] does, and writes it on to the inner
/// writer: `write!(Escaped(&mut out), "{value}")` renders a value's
/// `Display` text into a document without an intermediate `String`.
///
/// # Examples
///
/// ```
/// use std::fmt::Write as _;
///
/// use clockless_core::json::Escaped;
///
/// let mut out = String::from("\"");
/// write!(Escaped(&mut out), "{}", "a\"b").unwrap();
/// assert_eq!(out, "\"a\\\"b");
/// ```
pub struct Escaped<'a, W: std::fmt::Write>(pub &'a mut W);

impl<W: std::fmt::Write> std::fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let out = &mut *self.0;
        // Runs that need no escape go through whole.
        let mut plain = 0;
        for (i, c) in s.char_indices() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                '\r' => Some("\\r"),
                c if (c as u32) < 0x20 => None,
                _ => continue,
            };
            out.write_str(&s[plain..i])?;
            match short {
                Some(e) => out.write_str(e)?,
                None => write!(out, "\\u{:04x}", c as u32)?,
            }
            plain = i + c.len_utf8();
        }
        out.write_str(&s[plain..])
    }
}

/// Renders [`SimStats`] as a flat JSON object. Every counter is emitted
/// explicitly — including zeros — so downstream diffing sees a
/// value-independent key set.
///
/// # Examples
///
/// ```
/// use clockless_core::json::sim_stats;
/// use clockless_kernel::SimStats;
///
/// let j = sim_stats(&SimStats::default());
/// assert!(j.starts_with("{\"delta_cycles\": 0"));
/// assert!(j.contains("\"retries\": 0"));
/// ```
pub fn sim_stats(s: &SimStats) -> String {
    format!(
        "{{\"delta_cycles\": {}, \"process_activations\": {}, \"events\": {}, \
         \"driver_updates\": {}, \"time_advances\": {}, \"wake_filter_hits\": {}, \
         \"wake_filter_misses\": {}, \"peak_runnable\": {}, \"peak_pending_updates\": {}, \
         \"injected_faults\": {}, \"retries\": {}}}",
        s.delta_cycles,
        s.process_activations,
        s.events,
        s.driver_updates,
        s.time_advances,
        s.wake_filter_hits,
        s.wake_filter_misses,
        s.peak_runnable,
        s.peak_pending_updates,
        s.injected_faults,
        s.retries
    )
}

/// Renders one traced run as the deterministic JSON document printed by
/// `clockless run --json` — and, byte-identically, returned by the serve
/// daemon's `run` job. No wall-clock fields; identical runs produce
/// identical documents on any machine.
///
/// # Examples
///
/// ```
/// use clockless_core::backend::{Backend, ExecOptions};
/// use clockless_core::json::run_report;
/// use clockless_core::model::fig1_model;
///
/// let model = fig1_model(3, 4);
/// let outcome = Backend::Interpreted.execute(&model, &ExecOptions::traced())?;
/// let doc = run_report(&model, &outcome.summary);
/// assert!(doc.contains("\"model\": \"fig1_example\""));
/// assert!(doc.contains("{\"name\": \"R1\", \"value\": \"7\"}"));
/// # Ok::<(), clockless_kernel::KernelError>(())
/// ```
pub fn run_report(model: &RtModel, summary: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"run\": {{\"model\": \"{}\", \"cs_max\": {}, \"tuples\": {}}},",
        escape(model.name()),
        model.cs_max(),
        model.tuples().len()
    );
    let _ = writeln!(out, "  \"kernel\": {},", sim_stats(&summary.stats));
    out.push_str("  \"registers\": [");
    for (k, (name, value)) in summary.registers.iter().enumerate() {
        let comma = if k + 1 == summary.registers.len() {
            ""
        } else {
            ", "
        };
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"value\": \"{}\"}}{}",
            escape(name),
            value,
            comma
        );
    }
    out.push_str("],\n  \"conflicts\": [");
    let conflicts = summary
        .conflicts
        .as_ref()
        .map(|c| c.conflicts.as_slice())
        .unwrap_or(&[]);
    for (k, c) in conflicts.iter().enumerate() {
        let comma = if k + 1 == conflicts.len() { "" } else { ", " };
        let _ = write!(out, "\"{}\"{}", escape(&c.to_string()), comma);
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, ExecOptions};
    use crate::model::fig1_model;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(Json::parse("-2.5e1"), Ok(Json::Num(-25.0)));
        let v = Json::parse(r#"{"a":[1,{"b":"c"}],"d":null}"#).expect("parses");
        let a = v.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b").and_then(Json::as_str), Some("c"));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "tab\there \"quoted\" back\\slash\nnewline \u{1} ünïcode 𝄞";
        let encoded = format!("\"{}\"", escape(original));
        assert_eq!(Json::parse(&encoded), Ok(Json::Str(original.to_string())));
        // And a surrogate pair spelled explicitly.
        assert_eq!(
            Json::parse("\"\\ud834\\udd1e\""),
            Ok(Json::Str("𝄞".to_string()))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{}x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn signed_integers_parse_exactly() {
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("2.5").unwrap().as_i64(), None);
    }

    #[test]
    fn run_report_is_deterministic_and_backend_independent() {
        let model = fig1_model(3, 4);
        let interp = Backend::Interpreted
            .execute(&model, &ExecOptions::traced())
            .expect("runs");
        let compiled = Backend::Compiled
            .execute(&model, &ExecOptions::traced())
            .expect("runs");
        let a = run_report(&model, &interp.summary);
        let b = run_report(&model, &compiled.summary);
        assert_eq!(a, b);
        assert!(a.contains("\"cs_max\": 7"), "{a}");
        assert!(a.contains("\"delta_cycles\": 43"), "{a}");
        assert!(a.ends_with("\"conflicts\": []\n}\n"), "{a}");
    }

    #[test]
    fn run_report_lists_conflicts_of_traced_runs() {
        use crate::text::parse_model;
        let text = "model clash steps 4\nregister A init 1\nregister B init 2\nregister T\n\
                    bus X\nbus Y\nbus Z\nmodule CPA ops passa comb\nmodule CPB ops passa comb\n\
                    transfer (A,X,-,-,2,CPA,2,Y,T)\ntransfer (B,X,-,-,2,CPB,2,Z,T)\n";
        let model = parse_model(text).expect("parses");
        let outcome = Backend::Interpreted
            .execute(&model, &ExecOptions::traced())
            .expect("runs");
        let doc = run_report(&model, &outcome.summary);
        assert!(doc.contains("ILLEGAL on bus `X`"), "{doc}");
    }
}
