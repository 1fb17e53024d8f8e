//! Offline stand-in for `serde_json`.
//!
//! Serialization renders the `serde` stand-in's canonical [`Value`] tree;
//! deserialization parses JSON text back into that tree and decodes it.
//! Output layout matches real `serde_json` (compact and 2-space pretty
//! modes, `.0` suffix on whole floats) so regenerated artifacts diff
//! cleanly. Parsing is linear in the input and as strict as serde_json
//! where it matters for hostile files: unescaped control characters in
//! strings are rejected, nesting is capped at 128 levels, and every
//! parse error names its byte offset.

pub use serde::value::Value;
pub use serde::Error;

use serde::{Deserialize, Serialize};

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_string())
}

/// Serialize to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_string_pretty())
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v)
}

/// Parse JSON text into the value model.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = JsonParser {
        text: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

/// Deepest array/object nesting [`parse`] accepts (serde_json's default
/// recursion limit). Deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// Single-pass recursive-descent parser over the input `&str`. Every
/// position it cuts the text at sits on an ASCII byte, hence on a char
/// boundary, so string runs are copied as slices without re-validating
/// UTF-8.
struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{lit}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.eat_lit("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_lit("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_lit("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    /// Run `body` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(xs));
                }
                _ => return Err(Error(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut m = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(m));
                }
                _ => return Err(Error(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    /// Decode a string literal. Runs between escapes are copied whole, so
    /// the cost is linear in the literal's length.
    fn string(&mut self) -> Result<String, Error> {
        let start = self.pos;
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let run_end = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run_end]);
            self.pos = run_end;
            match bytes.get(self.pos) {
                None => {
                    return Err(Error(format!(
                        "unterminated string starting at byte {start}"
                    )))
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(c) => {
                    // RFC 8259 §7: control characters must be escaped.
                    return Err(Error(format!(
                        "unescaped control character 0x{c:02x} in string at byte {}",
                        self.pos
                    )));
                }
            }
        }
    }

    /// Decode the escape sequence whose backslash is at `self.pos`.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let c = match self.text.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(at + 2..at + 6)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| Error(format!("bad \\u escape at byte {at}")))?;
                self.pos += 4;
                // Surrogate pairs are not produced by the serializer;
                // reject rather than mis-decode.
                char::from_u32(code)
                    .ok_or_else(|| Error(format!("unsupported \\u escape at byte {at}")))?
            }
            Some(&b) => {
                return Err(Error(format!(
                    "bad escape `\\{}` at byte {at}",
                    b.escape_ascii()
                )))
            }
            None => return Err(Error(format!("bad escape at end of input (byte {at})"))),
        };
        self.pos += 2;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "42", "-17", "3.25", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_json_string(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn nested_round_trip() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x\ny"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json_string(), text);
    }

    #[test]
    fn whole_float_round_trips_as_float() {
        let v = parse("3.0").unwrap();
        assert_eq!(v, Value::Float(3.0));
        assert_eq!(v.to_json_string(), "3.0");
    }

    #[test]
    fn typed_round_trip() {
        let xs: Vec<(u32, f64)> = vec![(1, 0.5), (2, 1.0)];
        let text = to_string(&xs).unwrap();
        let back: Vec<(u32, f64)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
    }

    #[test]
    fn pretty_matches_expected_layout() {
        let xs = vec![1u32, 2];
        assert_eq!(to_string_pretty(&xs).unwrap(), "[\n  1,\n  2\n]");
    }

    fn parse_str(text: &str) -> String {
        match parse(text).unwrap() {
            Value::Str(s) => s,
            other => panic!("{text} parsed to {other:?}"),
        }
    }

    /// Parse `text`, expecting an error whose message holds every needle.
    fn assert_err(text: &str, needles: &[&str]) {
        let err = parse(text).expect_err(text).0;
        assert!(needles.iter().all(|n| err.contains(n)), "{text}: {err}");
    }

    #[test]
    fn multibyte_runs_meet_escapes() {
        // 2-, 3- and 4-byte scalars directly before and after escapes.
        assert_eq!(parse_str(r#""é\n€\t😀\"ü""#), "é\n€\t😀\"ü");
        assert_eq!(parse_str(r#""\\é\/€\b😀\f""#), "\\é/€\u{8}😀\u{c}");
        for s in ["é\"", "\"€", "😀\\😀", "a\u{1}é", "\r€\n"] {
            let text = Value::Str(s.into()).to_json_string();
            assert_eq!(parse_str(&text), s, "round-trip of {text}");
        }
    }

    #[test]
    fn unicode_escapes_empty_strings_and_escape_only_keys() {
        assert_eq!(parse_str(r#""\u0041\u00e9\u001F\u0000""#), "Aé\u{1f}\u{0}");
        assert_eq!(parse_str(r#""""#), "");
        let v = parse(r#"{"":"","\n\t\"\\\u0007":[""]}"#).unwrap();
        assert_eq!(
            v,
            Value::Map(vec![
                (String::new(), Value::Str(String::new())),
                (
                    "\n\t\"\\\u{7}".into(),
                    Value::Seq(vec![Value::Str(String::new())])
                ),
            ])
        );
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn megabyte_double_encoded_document_round_trips() {
        // A checkpoint's shape: a JSON document stored as one escaped
        // string inside another document.
        let inner = Value::Seq(
            (0..18_000u64)
                .map(|i| {
                    Value::Map(vec![
                        ("id".into(), Value::UInt(i)),
                        ("name \"q\"".into(), Value::Str(format!("rank-{i}/é€😀\t"))),
                        ("x".into(), Value::Float(i as f64 * 0.25)),
                    ])
                })
                .collect(),
        );
        let inner_json = inner.to_json_string();
        assert!(inner_json.len() >= 1 << 20, "{} bytes", inner_json.len());
        let outer = Value::Map(vec![("payload".into(), Value::Str(inner_json.clone()))]);
        assert_eq!(parse(&outer.to_json_string()).unwrap(), outer);
        assert_eq!(parse(&inner_json).unwrap(), inner);
    }

    #[test]
    fn rejects_raw_control_characters_with_offset() {
        for c in 0u8..0x20 {
            let text = format!("[\"ab{}\"]", c as char);
            assert_err(&text, &["control character", "byte 4"]);
        }
        // DEL and everything above it are ordinary characters.
        assert_eq!(parse_str("\"\u{7f}\""), "\u{7f}");
    }

    #[test]
    fn string_errors_carry_offsets() {
        assert_err(r#"{"k":"abc"#, &["unterminated string", "byte 5"]);
        assert_err(r#"[1,"a\q"]"#, &["bad escape", "byte 5"]);
        assert_err(r#""\"#, &["bad escape", "byte 1"]);
        for text in [r#""\u12""#, r#""\u+041""#, r#""\uzzzz""#, r#""\u00é""#] {
            assert_err(text, &["bad \\u escape", "byte 1"]);
        }
        assert_err(r#""\ud800""#, &["unsupported \\u escape", "byte 1"]);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Inner {
        b: u32,
        c: [u8; 2],
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Outer {
        a: u32,
        #[serde(flatten)]
        inner: Inner,
        d: u32,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Wrapper {
        outer: Outer,
    }

    #[test]
    fn flatten_splices_in_place_and_errors_name_their_field() {
        let outer = Outer {
            a: 1,
            inner: Inner { b: 2, c: [3, 4] },
            d: 5,
        };
        let text = r#"{"a":1,"b":2,"c":[3,4],"d":5}"#;
        assert_eq!(to_string(&outer).unwrap(), text);
        assert_eq!(from_str::<Outer>(text).unwrap(), outer);
        // A flattened field adds no path segment; a nested one does.
        let err = from_str::<Wrapper>(r#"{"outer":{"a":1,"b":2,"c":[3],"d":5}}"#).unwrap_err();
        assert_eq!(err.0, "outer: c: array has 1 elements, expected 2");
        let err = from_str::<Outer>(r#"{"a":1,"c":[3,4],"d":5}"#).unwrap_err();
        assert_eq!(err.0, "missing field `b` in Inner");
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_err(
            &nest(MAX_DEPTH + 1),
            &["nesting deeper than 128", "byte 128"],
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_err(&objects, &["nesting"]);
        // Hostile input far past the cap fails cleanly instead of
        // overflowing the stack.
        assert_err(&"[".repeat(1 << 20), &["nesting"]);
    }
}
