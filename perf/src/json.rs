//! JSON out and in, on the runtime's vendored value model.
//!
//! The container has no serde; `runtime::trace::json` already carries a
//! small `Value` tree and parser for the trace exporters. This module adds
//! the one missing direction — a writer over the same `Value` — so the
//! benchmark's result files, the last-line result object and `--compare`
//! all share one model and a written file always parses back to the value
//! it came from.

use std::collections::BTreeMap;

pub use dwmaxerr_runtime::trace::json::{parse, Value};

/// Builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A JSON number.
pub fn num(v: f64) -> Value {
    Value::Num(v)
}

/// A JSON string.
pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Serialises `value` on one line. Numbers print with every digit needed
/// to read back the same `f64` (Rust's shortest round-trip form, which is
/// plain decimal notation and therefore valid JSON); non-finite numbers,
/// which JSON cannot carry, print as `null`.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_into(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_parse_back_to_the_same_value() {
        let doc = obj([
            (
                "name",
                string("serve-scan \"quoted\" \\ tab\t nl\n ctl\u{1} µs"),
            ),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "values",
                Value::Arr(vec![
                    num(0.0),
                    num(-1.5),
                    num(1.2034e-7),
                    num(123_456_789.125),
                    num(f64::MAX),
                    num(f64::MIN_POSITIVE),
                    num(0.1 + 0.2),
                ]),
            ),
            (
                "nested",
                obj([("unit", string("ms")), ("value", num(48.25))]),
            ),
        ]);
        let text = write(&doc);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).expect("parses"), doc);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            write(&Value::Arr(vec![num(f64::NAN), num(f64::INFINITY)])),
            "[null, null]"
        );
    }
}
