//! A minimal JSON reader shared by the service and the repo benchmark.
//!
//! The workspace *emits* JSON by string formatting (it has no serde
//! dependency); this crate is the matching *reader*: the `dbscan-serve`
//! request parser, and the benchmark and integration tests that read
//! emitted documents back. It supports the full JSON value grammar those
//! emitters and clients produce: objects, arrays, strings with escapes,
//! `f64` numbers, booleans and `null`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`, which covers every value the
    /// workspace's emitters write).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is not preserved (no reader needs it).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest accepted array/object nesting. The parser is recursive-descent
/// and `dbscan-serve` feeds it untrusted request bodies, so the recursion
/// depth must be bounded well below the thread stack or a few KB of `[`
/// characters would abort the process.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// Arrays/objects nested deeper than 128 levels are rejected with an
/// error rather than recursing without bound.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of document".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` in one go. Both stop
                // bytes are ASCII, so the run ends on a char boundary, and
                // validating only the run keeps parsing linear in the input.
                let run = &bytes[*pos..];
                let len = run
                    .iter()
                    .position(|&b| matches!(b, b'"' | b'\\'))
                    .unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..len]).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            other => return Err(format!("expected `,` or `]`, got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
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
        let value = parse_value(bytes, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": 1.5, "b": [true, null, "x\ny"], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.5));
        let b = doc.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_str(), Some("x\ny"));
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2e3));
        let mixed = parse(r#""é€😀\"x\\y\u00e9z""#).unwrap();
        assert_eq!(mixed.as_str(), Some("é€😀\"x\\yéz"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn rejects_deep_nesting_without_overflowing_the_stack() {
        // An attacker-sized document: tens of KB of '[' must come back as
        // a parse error, not a stack-overflow abort.
        let hostile = "[".repeat(64 * 1024);
        let err = parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "unexpected error: {err}");
        let hostile_objects = "{\"k\":".repeat(64 * 1024);
        assert!(parse(&hostile_objects).is_err());

        // Nesting at the limit still parses.
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(too_deep.len() < 1024); // small enough that only the limit can reject it
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn multi_byte_strings_parse_in_linear_time() {
        // A request body is untrusted: 256 KiB of two-byte characters must
        // cost no more than a copy. Validating the rest of the document once
        // per character made this take tens of seconds.
        let note = "é".repeat(128 * 1024);
        let doc = format!("{{\"insert\": [], \"note\": \"{note}\"}}");
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.get("note").unwrap().as_str(), Some(note.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing a 256 KiB string took {elapsed:?}"
        );
    }

    #[test]
    fn round_trips_the_emitters_own_output() {
        // The shape `obs::export::chrome_trace` writes.
        let doc = parse(
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n  {\"name\": \"thread_name\", \
             \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"obs thread 1\"}},\n  \
             {\"name\": \"query\", \"cat\": \"engine\", \"ph\": \"X\", \"ts\": 100, \"dur\": 25, \
             \"pid\": 1, \"tid\": 1, \"args\": {\"seq\": 0, \"n\": 1000, \"min_pts\": 10, \
             \"eps\": 0.5}}\n]}\n",
        )
        .unwrap();
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let eps = events[1].get("args").unwrap().get("eps").unwrap();
        assert_eq!(eps.as_f64(), Some(0.5));
    }
}
