//! Minimal JSON support: escaping for the exporters and a small
//! recursive-descent parser used to schema-check emitted traces.
//!
//! The probe crate is deliberately zero-dependency, so it carries its own
//! JSON writer *and* reader. The parser accepts standard JSON (RFC 8259)
//! minus niceties nobody emits here (no `\u` surrogate pairs are split
//! across escapes in our own output, but the parser still handles them).

use std::collections::BTreeSet;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
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

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                crate::append!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a finite `f64` without trailing noise; non-finite values become
/// `null` (Chrome's trace viewer rejects bare `NaN`).
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        crate::append!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(self.err("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| self.err("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("invalid \\u escape"))?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: find the full scalar in the source.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// What a validated Chrome trace contains, for assertions in tests.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total event count.
    pub events: usize,
    /// Complete ("X") span count.
    pub spans: usize,
    /// Instant ("i") event count.
    pub instants: usize,
    /// Counter ("C") sample count.
    pub counters: usize,
    /// Distinct event names.
    pub names: BTreeSet<String>,
    /// Distinct categories.
    pub cats: BTreeSet<String>,
    /// Distinct thread ids.
    pub tids: BTreeSet<u64>,
    /// Distinct thread names from metadata events.
    pub thread_names: BTreeSet<String>,
}

impl TraceSummary {
    /// Whether an event with this exact name appears.
    pub fn has_name(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// Whether a thread with this name prefix appears.
    pub fn has_thread_prefix(&self, prefix: &str) -> bool {
        self.thread_names.iter().any(|t| t.starts_with(prefix))
    }
}

/// Validates that `s` is a Chrome `chrome://tracing` trace-event JSON
/// array: every element is an object with a string `name`/`ph`/`cat`,
/// numeric `pid`/`tid`/`ts`, a non-negative `dur` on complete events, and
/// an object `args` when present.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_chrome_trace(s: &str) -> Result<TraceSummary, String> {
    let doc = parse(s)?;
    let events = doc.as_arr().ok_or("trace must be a JSON array")?;
    let mut summary = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: bad or missing {field}");
        let name = ev.get("name").and_then(Json::as_str).ok_or_else(|| ctx("name"))?;
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| ctx("ph"))?;
        ev.get("pid").and_then(Json::as_num).ok_or_else(|| ctx("pid"))?;
        let tid = ev.get("tid").and_then(Json::as_num).ok_or_else(|| ctx("tid"))?;
        let ts = ev.get("ts").and_then(Json::as_num).ok_or_else(|| ctx("ts"))?;
        if ts < 0.0 {
            return Err(ctx("ts (negative)"));
        }
        if let Some(args) = ev.get("args") {
            if !matches!(args, Json::Obj(_)) {
                return Err(ctx("args (not an object)"));
            }
        }
        match ph {
            "X" => {
                let dur = ev.get("dur").and_then(Json::as_num).ok_or_else(|| ctx("dur"))?;
                if dur < 0.0 {
                    return Err(ctx("dur (negative)"));
                }
                summary.spans += 1;
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            "M" => {
                if name == "thread_name" {
                    if let Some(t) =
                        ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                    {
                        summary.thread_names.insert(t.to_string());
                    }
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
        if ph != "M" {
            let cat = ev.get("cat").and_then(Json::as_str).ok_or_else(|| ctx("cat"))?;
            summary.cats.insert(cat.to_string());
        }
        summary.names.insert(name.to_string());
        summary.tids.insert(tid as u64);
        summary.events += 1;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_escapes() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}é");
        let parsed = parse(&s).unwrap();
        assert_eq!(parsed, Json::Str("a\"b\\c\nd\u{1}é".into()));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": [true, false]}, "e": "x"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "[1] x", "tru", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn validates_minimal_trace() {
        let trace = r#"[
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"main"}},
          {"name":"work","cat":"t","ph":"X","pid":1,"tid":1,"ts":0,"dur":5,"args":{"n":3}},
          {"name":"fault.crash","cat":"fault","ph":"i","pid":1,"tid":1,"ts":1,"s":"t"},
          {"name":"bytes","cat":"m","ph":"C","pid":1,"tid":1,"ts":2,"args":{"value":10}}
        ]"#;
        let s = validate_chrome_trace(trace).unwrap();
        assert_eq!((s.spans, s.instants, s.counters), (1, 1, 1));
        assert!(s.has_name("fault.crash") && s.has_thread_prefix("main"));
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(validate_chrome_trace(r#"{"name":"x"}"#).is_err());
        assert!(validate_chrome_trace(r#"[{"ph":"X","pid":1,"tid":1,"ts":0}]"#).is_err());
        assert!(
            validate_chrome_trace(r#"[{"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":0}]"#)
                .is_err(),
            "X without dur must fail"
        );
    }
}
