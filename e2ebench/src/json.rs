//! A small hand-rolled JSON writer (the workspace's serde is a no-op shim)
//! and the one reader the paper-contrast report needs.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number, written with every digit Rust's shortest
    /// round-trip formatting gives it.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Object),
}

/// A JSON object that keeps its keys in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Adds any value.
    pub fn put(&mut self, key: &str, value: Value) {
        self.entries.push((key.to_string(), value));
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, value: f64) {
        self.put(key, Value::Num(value));
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) {
        self.put(key, Value::Str(value.to_string()));
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, self);
        out
    }
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Num(x) => {
            // JSON has no NaN/inf; a metric that is not finite is a bug the
            // caller must not hide, so write it as null and let the reader
            // reject it.
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(object) => write_object(out, object),
    }
}

fn write_object(out: &mut String, object: &Object) {
    out.push('{');
    for (i, (key, value)) in object.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_string(out, key);
        out.push_str(": ");
        write_value(out, value);
    }
    out.push('}');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Reads the number stored under `"key": ` in a rendered object: the
/// result files keep their summary numbers under unique keys, so a scan is
/// enough.
pub fn find_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_reads_numbers_back() {
        let mut inner = Object::new();
        inner.num("value", 0.125);
        inner.str("unit", "s");
        let mut outer = Object::new();
        outer.put("ok", Value::Bool(true));
        outer.put("m", Value::Obj(inner));
        outer.put(
            "xs",
            Value::Arr(vec![Value::Num(1.0), Value::Str("a\"b".into())]),
        );
        let text = outer.render();
        assert_eq!(
            text,
            r#"{"ok": true, "m": {"value": 0.125, "unit": "s"}, "xs": [1, "a\"b"]}"#
        );
        assert_eq!(find_number(&text, "value"), Some(0.125));
        assert_eq!(find_number(&text, "missing"), None);
    }
}
