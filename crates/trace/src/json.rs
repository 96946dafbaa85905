//! Minimal JSON parser and trace schema validators.
//!
//! The workspace vendors no JSON library, so the schema check CI runs
//! against emitted traces is implemented here: a small recursive-descent
//! parser (objects, arrays, strings with escapes, numbers, literals)
//! plus validators that enforce the chrome://tracing and JSONL event
//! shapes this crate exports.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, preserving key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts; deeper input is a
/// typed error instead of a stack overflow.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => self.err("nesting too deep"),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => self.err(format!("unexpected byte 0x{b:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            offset: start,
            message: "invalid utf-8 in number".into(),
        })?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => self.err(format!("invalid number '{text}'")),
        }
    }

    /// Parses a string in time linear in its length: each run of plain
    /// bytes up to the next `"` or `\` is validated and copied once.
    /// Both delimiters are ASCII, so a run always ends on a char boundary.
    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            if run > 0 {
                let text = std::str::from_utf8(&rest[..run]).map_err(|e| JsonError {
                    offset: self.pos + e.valid_up_to(),
                    message: "invalid utf-8 in string".into(),
                })?;
                out.push_str(text);
                self.pos += run;
            }
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a backslash: decode one escape.
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    JsonError {
                                        offset: self.pos,
                                        message: "truncated \\u escape".into(),
                                    }
                                })?;
                            let code = hex
                                .iter()
                                .try_fold(0u32, |acc, &b| {
                                    char::from(b).to_digit(16).map(|d| acc << 4 | d)
                                })
                                .ok_or_else(|| JsonError {
                                    offset: self.pos,
                                    message: "invalid \\u escape".into(),
                                })?;
                            // Surrogates are not paired here; replace them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after document");
    }
    Ok(v)
}

fn require_string(obj: &JsonValue, key: &str, at: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{at}: missing or non-string \"{key}\""))
}

fn require_number(obj: &JsonValue, key: &str, at: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{at}: missing or non-numeric \"{key}\""))
}

/// Validates a chrome://tracing JSON document against the event shape
/// this crate exports: a top-level array of objects carrying `name`,
/// `cat`, `ph` ∈ {`X`, `i`, `C`}, non-negative `ts`, `pid`, `tid`, an
/// `args` object, a non-negative `dur` for complete events and a scope
/// `s` for instants. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .as_array()
        .ok_or_else(|| "top level is not an array".to_string())?;
    for (i, e) in events.iter().enumerate() {
        let at = format!("event {i}");
        if !matches!(e, JsonValue::Object(_)) {
            return Err(format!("{at}: not an object"));
        }
        require_string(e, "name", &at)?;
        require_string(e, "cat", &at)?;
        let ph = require_string(e, "ph", &at)?;
        let ts = require_number(e, "ts", &at)?;
        require_number(e, "pid", &at)?;
        require_number(e, "tid", &at)?;
        if ts < 0.0 {
            return Err(format!("{at}: negative ts"));
        }
        if !matches!(e.get("args"), Some(JsonValue::Object(_))) {
            return Err(format!("{at}: missing args object"));
        }
        match ph.as_str() {
            "X" => {
                if require_number(e, "dur", &at)? < 0.0 {
                    return Err(format!("{at}: negative dur"));
                }
            }
            "i" => {
                require_string(e, "s", &at)?;
            }
            "C" => {}
            other => return Err(format!("{at}: unknown ph \"{other}\"")),
        }
    }
    Ok(events.len())
}

/// Validates a JSONL trace: each non-empty line is an object carrying
/// `cat`, `name`, non-negative `t_ns`, `lane`, `seq`, a `kind` of
/// `span` (with `dur_ns`), `instant`, or `counter` (with `value`), and
/// an `args` object. Returns the event count.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("line {}", lineno + 1);
        let e = parse(line).map_err(|err| format!("{at}: {err}"))?;
        require_string(&e, "cat", &at)?;
        require_string(&e, "name", &at)?;
        if require_number(&e, "t_ns", &at)? < 0.0 {
            return Err(format!("{at}: negative t_ns"));
        }
        require_number(&e, "lane", &at)?;
        require_number(&e, "seq", &at)?;
        if !matches!(e.get("args"), Some(JsonValue::Object(_))) {
            return Err(format!("{at}: missing args object"));
        }
        match require_string(&e, "kind", &at)?.as_str() {
            "span" => {
                if require_number(&e, "dur_ns", &at)? < 0.0 {
                    return Err(format!("{at}: negative dur_ns"));
                }
            }
            "instant" => {}
            "counter" => {
                // `value` may be a quoted string for non-finite samples.
                if e.get("value").is_none() {
                    return Err(format!("{at}: missing \"value\""));
                }
            }
            other => return Err(format!("{at}: unknown kind \"{other}\"")),
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json_escape;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Number(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::String("a\nbA".into())
        );
        assert_eq!(
            parse("\"\\u00e9\\u20AC\\u0000x\"").unwrap(),
            JsonValue::String("é€\u{0}x".into())
        );
        let doc = parse("{\"a\": [1, {\"b\": false}], \"c\": \"x\"}").unwrap();
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = doc.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&JsonValue::Bool(false)));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        let bad_escapes = ["\"\\u12G4\"", "\"\\u+123\"", "\"\\u12\"", "\"\\q\""];
        let bad_documents = ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"abc", "[1]]"];
        for bad in bad_documents.into_iter().chain(bad_escapes) {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escaped_strings_round_trip(picks in prop::collection::vec(any::<u32>(), 0..48)) {
            // Mix delimiters, escapes, control characters, multi-byte
            // UTF-8 and arbitrary scalars so every parser branch runs.
            const PALETTE: [char; 12] =
                ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'a', 'é', '€', '😀'];
            let text: String = picks
                .iter()
                .map(|&p| match p as usize % (PALETTE.len() + 1) {
                    i if i < PALETTE.len() => PALETTE[i],
                    _ => char::from_u32(p >> 11).unwrap_or('?'),
                })
                .collect();
            let quoted = format!("\"{}\"", json_escape(&text));
            prop_assert_eq!(parse(&quoted), Ok(JsonValue::String(text.clone())));
            let doc = format!("{{{quoted}:[{quoted}]}}");
            let expected = JsonValue::Object(vec![(
                text.clone(),
                JsonValue::Array(vec![JsonValue::String(text)]),
            )]);
            prop_assert_eq!(parse(&doc), Ok(expected));
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let doc = "{\"name\":\"é \\\"q\\\" \\u00e9 😀\",\"xs\":[1,-2.5e3,true,null,\
                   {\"k\":false,\"s\":\"\\\\\\n\"}],\"e\":{}}";
        assert!(parse(doc).is_ok());
        for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
            match parse(&doc[..end]) {
                Err(JsonError { offset, .. }) => assert!(offset <= end, "{end}: offset {offset}"),
                Ok(v) => panic!("prefix of {end} bytes parsed as {v:?}"),
            }
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn library_code_has_no_unwrap_or_expect() {
        let source = include_str!("json.rs");
        let library = source.split("#[cfg(test)]").next().unwrap_or(source);
        for needle in [".unwrap()", ".expect("] {
            assert!(!library.contains(needle), "non-test json.rs uses {needle}");
        }
    }

    #[test]
    fn chrome_validator_enforces_shape() {
        let good =
            r#"[{"name":"t","cat":"pool","ph":"X","ts":1.5,"dur":2.0,"pid":0,"tid":1,"args":{}}]"#;
        assert_eq!(validate_chrome_trace(good).unwrap(), 1);
        let missing_dur =
            r#"[{"name":"t","cat":"pool","ph":"X","ts":1.5,"pid":0,"tid":1,"args":{}}]"#;
        assert!(validate_chrome_trace(missing_dur).is_err());
        let bad_ph = r#"[{"name":"t","cat":"p","ph":"Z","ts":1,"pid":0,"tid":1,"args":{}}]"#;
        assert!(validate_chrome_trace(bad_ph).is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn jsonl_validator_enforces_shape() {
        let good = "{\"cat\":\"pool\",\"name\":\"t\",\"t_ns\":1,\"lane\":0,\"seq\":0,\"kind\":\"span\",\"dur_ns\":5,\"args\":{}}\n";
        assert_eq!(validate_jsonl(good).unwrap(), 1);
        let bad_kind = "{\"cat\":\"pool\",\"name\":\"t\",\"t_ns\":1,\"lane\":0,\"seq\":0,\"kind\":\"x\",\"args\":{}}\n";
        assert!(validate_jsonl(bad_kind).is_err());
        assert_eq!(validate_jsonl("\n\n").unwrap(), 0);
    }
}
