//! A minimal JSON value and serializer (std-only; the workspace takes
//! no external dependencies). Only what [`MetricsSnapshot::to_json`]
//! and `ocep-bench --json` need: objects, arrays, strings, numbers, and
//! booleans, with proper string escaping and non-finite numbers mapped
//! to `null`.
//!
//! [`MetricsSnapshot::to_json`]: crate::MetricsSnapshot::to_json

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A floating-point number; NaN and infinities serialize as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Counters far below 2^63 in practice; saturate defensively.
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn escape_into(out: &mut String, s: &str) {
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

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut buf = String::new();
        write_into(&mut buf, self);
        f.write_str(&buf)
    }
}

fn write_into(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Num(n) => {
            if n.is_finite() {
                out.push_str(&format!("{n}"));
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_into(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_serialize_as_json() {
        let v = Json::obj([
            ("name", Json::from("fig6")),
            ("ok", Json::from(true)),
            ("n", Json::from(42u64)),
            ("median", Json::from(2.5f64)),
            ("none", Json::Null),
            ("rows", Json::arr([Json::from(1i64), Json::from(2i64)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"fig6","ok":true,"n":42,"median":2.5,"none":null,"rows":[1,2]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(0.0).to_string(), "0");
    }
}
