//! Minimal JSON document builder and parser used by the `reproduce`
//! machine-readable output.
//!
//! The build environment has no crates.io access, so instead of
//! `serde_json` the harness emits its machine-readable output through
//! this small value type. [`Json::parse`] is the matching reader — it
//! exists for `bench --check`, which loads committed `BENCH_*.json`
//! baselines back in to compare against a fresh run.

use std::fmt::Write as _;

/// A JSON value. Construct with the `From` impls and [`Json::obj`] /
/// [`Json::arr`], then render with [`Json::pretty`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Renders with two-space indentation, matching `serde_json`'s
    /// `to_string_pretty` layout closely enough for diff-friendly output.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Parses a JSON document. Covers everything [`Json::pretty`] can
    /// emit (and standard JSON generally); numbers become `f64`, which
    /// is exact for the integer range the harness uses.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `.`-separated path of object keys (`"metrics.makespan_s"`).
    pub fn path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Recursive-descent JSON reader over the raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs don't occur in harness output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are trustworthy).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

/// Version of the machine-readable output schema. Bump whenever a key is
/// renamed, removed, or changes meaning, so downstream plotting scripts
/// can detect documents they do not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// The git commit the binary's source tree was at, or `"unknown"` when
/// the repository (or git itself) is unavailable — machine-readable
/// output must never fail just because provenance is missing. Asked of
/// git once per process, however many documents are stamped.
pub fn git_commit() -> &'static str {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Prepends the standard provenance header — `schema_version`, the git
/// commit, and the run configuration — to a JSON document. Non-object
/// documents are wrapped under a `"data"` key so the header always sits
/// at the top level.
pub fn with_metadata(doc: Json, run_config: Json) -> Json {
    let mut pairs = vec![
        ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
        ("git_commit".to_string(), Json::from(git_commit())),
        ("run_config".to_string(), run_config),
    ];
    match doc {
        Json::Obj(body) => pairs.extend(body),
        other => pairs.push(("data".to_string(), other)),
    }
    Json::Obj(pairs)
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        match o {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_document() {
        let doc = Json::obj([
            ("figure", Json::from("fig9")),
            ("n", Json::from(1024usize)),
            (
                "series",
                Json::arr([Json::obj([
                    ("x", Json::from(1.5f64)),
                    ("ok", Json::from(true)),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("note", Json::from(Option::<&str>::None)),
        ]);
        let s = doc.pretty();
        assert!(s.contains("\"figure\": \"fig9\""));
        assert!(s.contains("\"n\": 1024"));
        assert!(s.contains("\"x\": 1.5"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.contains("\"note\": null"));
        assert!(s.starts_with("{\n"));
        assert!(s.ends_with('}'));
    }

    #[test]
    fn metadata_header_leads_the_document() {
        let doc = with_metadata(
            Json::obj([("series", Json::arr([Json::from(1.0f64)]))]),
            Json::obj([("figure", Json::from("fig6"))]),
        );
        let Json::Obj(pairs) = &doc else {
            panic!("expected object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["schema_version", "git_commit", "run_config", "series"]
        );
        let s = doc.pretty();
        assert!(s.contains("\"schema_version\": 1"));
        assert!(s.contains("\"figure\": \"fig6\""));
        // git_commit is a 40-hex SHA in a checkout, "unknown" otherwise;
        // either way it is a non-empty string.
        assert!(!git_commit().is_empty());
    }

    #[test]
    fn metadata_wraps_non_object_documents() {
        let doc = with_metadata(Json::arr([Json::from(1usize)]), Json::Null);
        let s = doc.pretty();
        assert!(s.contains("\"data\": ["));
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let doc = with_metadata(
            Json::obj([
                ("makespan_s", Json::from(12.375f64)),
                ("shapes", Json::arr(["square-corner", "block-rectangle"])),
                ("nested", Json::obj([("p99", Json::from(1.5e-3f64))])),
                ("note", Json::from("quote \" backslash \\ newline \n")),
                ("flag", Json::from(true)),
                ("missing", Json::Null),
            ]),
            Json::obj([("n", Json::from(25_600usize))]),
        );
        let parsed = Json::parse(&doc.pretty()).expect("round trip");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.path("nested.p99").and_then(Json::as_f64),
            Some(1.5e-3)
        );
        assert_eq!(
            parsed
                .get("shapes")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            parsed.path("run_config.n").and_then(Json::as_f64),
            Some(25_600.0)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_handles_numbers_and_escapes() {
        let v = Json::parse("{\"x\": -1.25e2, \"s\": \"a\\u0041\\n\"}").unwrap();
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(-125.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aA\n"));
    }

    #[test]
    fn escapes_strings_and_maps_non_finite_to_null() {
        assert_eq!(Json::from("a\"b\\c\n").pretty(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }
}
