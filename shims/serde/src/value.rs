//! The self-describing value model the stand-in serializes through.
//!
//! Maps are ordered `Vec`s of `(key, value)` pairs, not hash maps: field
//! order is the derive-declaration order, which makes every serialized
//! form *canonical* — the same struct always renders the same bytes. The
//! campaign cache keys depend on that property.

/// A self-describing value (the JSON data model plus split integers).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also `Option::None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (kept exact; not routed through f64).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// An ordered map.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// As u64, if losslessly possible.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// As i64, if losslessly possible.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// As f64 (integers coerce, matching JSON's single number type).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// As an ordered map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// As a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// As a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact JSON rendering (used for map keys and cache hashing; the
    /// `serde_json` stand-in builds its output on this too).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        write_json(self, None, 0, &mut out);
        out
    }

    /// Pretty JSON rendering with 2-space indentation (the real
    /// `serde_json::to_string_pretty` layout).
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        write_json(self, Some(2), 0, &mut out);
        out
    }
}

/// Look up a key in an ordered map (derive-generated decoders use this).
pub fn get<'v>(map: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Splice a `#[serde(flatten)]` field's pairs into its parent's map, in
/// place (derive-generated encoders use this).
///
/// # Panics
/// Panics if the field does not serialize as a map: only a struct with
/// named fields can be flattened.
pub fn flatten_into(map: &mut Vec<(String, Value)>, field: Value) {
    match field {
        Value::Map(pairs) => map.extend(pairs),
        _ => panic!("a #[serde(flatten)] field must serialize as a map"),
    }
}

fn write_json(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_f64(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(xs) => write_block('[', ']', xs.len(), indent, depth, out, |i, out| {
            write_json(&xs[i], indent, depth + 1, out);
        }),
        Value::Map(m) => write_block('{', '}', m.len(), indent, depth, out, |i, out| {
            write_escaped(&m[i].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_json(&m[i].1, indent, depth + 1, out);
        }),
    }
}

fn write_block(
    open: char,
    close: char,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut item: impl FnMut(usize, &mut String),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(i, out);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_nan() || x.is_infinite() {
        // Real serde_json refuses non-finite floats; rendering null keeps
        // the output parseable, which matters more for a report harness.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Match serde_json: whole floats render with a trailing `.0` so
        // they round-trip as floats.
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&x.to_string());
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(1)),
            ("b".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
        ]);
        assert_eq!(v.to_json_string(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn pretty_rendering() {
        let v = Value::Map(vec![("a".into(), Value::Seq(vec![Value::UInt(1)]))]);
        assert_eq!(v.to_json_string_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn whole_floats_keep_point_zero() {
        assert_eq!(Value::Float(3.0).to_json_string(), "3.0");
        assert_eq!(Value::Float(3.25).to_json_string(), "3.25");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Value::Str("a\"b\\c\nd".into()).to_json_string(),
            r#""a\"b\\c\nd""#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Seq(vec![]).to_json_string_pretty(), "[]");
        assert_eq!(Value::Map(vec![]).to_json_string_pretty(), "{}");
    }
}
