//! A minimal std-only JSON scanner for JSON-lines adapter inputs.
//!
//! The workspace already owns a JSON *serializer* (`ocep-bench`'s
//! `json.rs`); this is its untrusted-input counterpart: one [`scan`]
//! call per input line, byte-offset-diagnosed errors, a hard recursion
//! bound (hostile nesting must not overflow the stack), and no tree.
//! A record is a flat object with a handful of known fields, so the
//! scanner validates the whole line and keeps only the fields the
//! reader asked for; a string without escapes is a slice of the line,
//! and one with escapes is decoded into an owned buffer. Numbers are
//! kept as `f64` (adapters range-check before narrowing).

use std::borrow::Cow;

/// One wanted field's value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value<'a> {
    /// `null`.
    Null,
    /// Any JSON number.
    Num(f64),
    /// A string, escapes decoded; a slice of the line when it had none.
    Str(Cow<'a, str>),
    /// An array's elements. Only a wanted field's own array is kept:
    /// an array nested in it is validated and left empty.
    Arr(Vec<Value<'a>>),
    /// `true`, `false` or an object — nothing a record field may be.
    Other,
}

/// Maximum nesting depth accepted — hostile inputs like ten thousand
/// `[` must fail cleanly, not overflow the scanner's stack.
const MAX_DEPTH: usize = 64;

/// A wanted field as [`scan`] found it; `None` when absent.
pub(crate) type Field<'a> = Option<Value<'a>>;

type ScanError = (usize, String);

/// Validates one complete JSON value in `input`, rejecting trailing
/// garbage, and returns the values of the fields named `keys` of the
/// top-level object (first occurrence; all `None` when the value is
/// not an object). Errors are `(byte_offset, detail)` pairs relative
/// to `input`; the adapter folds them into its line-diagnosed
/// [`crate::AdapterError`].
pub(crate) fn scan<'a, const N: usize>(
    input: &'a str,
    keys: &[&str; N],
) -> Result<[Field<'a>; N], ScanError> {
    let mut s = Scanner { src: input, at: 0 };
    let mut fields = [const { None }; N];
    s.skip_ws();
    if s.peek() == Some(b'{') {
        s.object(0, keys, &mut fields)?;
    } else {
        s.value(0, false)?;
    }
    s.skip_ws();
    if s.at != input.len() {
        return s.err("trailing bytes after JSON value");
    }
    Ok(fields)
}

struct Scanner<'a> {
    src: &'a str,
    at: usize,
}

impl<'a> Scanner<'a> {
    fn err<T>(&self, detail: impl Into<String>) -> Result<T, ScanError> {
        Err((self.at, detail.into()))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ScanError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value<'a>) -> Result<Value<'a>, ScanError> {
        if self.src.as_bytes()[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    /// Scans one value; `keep` says whether an array's elements are
    /// collected or only validated.
    fn value(&mut self, depth: usize, keep: bool) -> Result<Value<'a>, ScanError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => self.err("truncated input: expected a value"),
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Other),
            Some(b'f') => self.eat_lit("false", Value::Other),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth, keep),
            Some(b'{') => {
                self.object(depth, &[], &mut [])?;
                Ok(Value::Other)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected byte 0x{b:02x}")),
        }
    }

    fn array(&mut self, depth: usize, keep: bool) -> Result<Value<'a>, ScanError> {
        self.at += 1; // the `[` the caller peeked
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value(depth + 1, false)?;
            if keep {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]` in array"),
            }
        }
    }

    /// Scans an object, storing the first value of each field named in
    /// `keys` into the matching slot of `fields`.
    fn object<const N: usize>(
        &mut self,
        depth: usize,
        keys: &[&str; N],
        fields: &mut [Field<'a>; N],
    ) -> Result<(), ScanError> {
        self.at += 1; // the `{` the caller peeked
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "`:` after object key")?;
            self.skip_ws();
            let slot = keys.iter().position(|k| *k == key);
            let val = self.value(depth + 1, slot.is_some())?;
            if let Some(slot) = slot {
                fields[slot].get_or_insert(val);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return self.err("expected `,` or `}` in object"),
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ScanError> {
        self.eat(b'"', "`\"`")?;
        // Decoded text so far, once an escape forced a copy; `run` is
        // where the not-yet-copied literal stretch starts. Both stop
        // only at ASCII bytes, so every slice is on a char boundary.
        let mut decoded: Option<String> = None;
        let mut run = self.at;
        loop {
            match self.peek() {
                None => return self.err("truncated input: unterminated string"),
                Some(b'"') => {
                    let tail = &self.src[run..self.at];
                    self.at += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.src[run..self.at]);
                    self.at += 1;
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
                            self.at += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined: adapter inputs are machine
                            // exports of ASCII-ish identifiers.
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape (surrogate)"),
                            }
                            run = self.at;
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.at += 1;
                    run = self.at;
                }
                Some(b) if b < 0x20 => return self.err("raw control byte in string"),
                Some(_) => self.at += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ScanError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return self.err("invalid \\u escape: expected 4 hex digits"),
            };
            cp = cp * 16 + d;
            self.at += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value<'a>, ScanError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = &self.src[start..self.at];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err((start, format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(input: &str) -> Result<Option<Value<'_>>, ScanError> {
        scan(input, &["v"]).map(|[v]| v)
    }

    #[test]
    fn scans_the_wanted_fields_of_a_record_object() {
        let [service, start, links, ok, x, missing] = scan(
            r#"{"service":"checkout","span":"a1","start":12,"links":["bA",[1],{}],"ok":true,"x":null}"#,
            &["service", "start", "links", "ok", "x", "missing"],
        )
        .unwrap();
        assert_eq!(service, Some(Value::Str("checkout".into())));
        assert!(matches!(service, Some(Value::Str(Cow::Borrowed(_)))));
        assert_eq!(start, Some(Value::Num(12.0)));
        assert_eq!(
            links,
            Some(Value::Arr(vec![
                Value::Str("bA".into()),
                Value::Arr(Vec::new()),
                Value::Other
            ]))
        );
        assert_eq!(ok, Some(Value::Other));
        assert_eq!(x, Some(Value::Null));
        assert_eq!(missing, None);
    }

    #[test]
    fn first_occurrence_wins_and_non_objects_have_no_fields() {
        assert_eq!(
            one(r#"{"v": 1, "\u0076": 2}"#).unwrap(),
            Some(Value::Num(1.0))
        );
        assert_eq!(one(r#"{"w": {"v": 1}}"#).unwrap(), None);
        assert_eq!(one(r#"["v", 1]"#).unwrap(), None);
        assert_eq!(one("7").unwrap(), None);
    }

    #[test]
    fn truncated_inputs_are_offset_diagnosed() {
        for (bad, at) in [
            (r#"{"a": "#, 6),
            (r#"{"a": "unterminated"#, 19),
            (r#"["#, 1),
            (r#"{"a" 1}"#, 5),
            (r#"{"a": 1} trailing"#, 9),
            (r#"{"a": -1e}"#, 6),
            ("", 0),
        ] {
            let err = one(bad).unwrap_err();
            assert_eq!(err.0, at, "{bad:?}: {}", err.1);
            assert!(!err.1.is_empty());
        }
    }

    #[test]
    fn hostile_nesting_is_bounded() {
        for deep in ["[".repeat(10_000), r#"{"v":"#.repeat(10_000)] {
            let err = one(&deep).unwrap_err();
            assert!(err.1.contains("nesting"), "{err:?}");
        }
    }

    #[test]
    fn numbers_parse_and_infinities_rejected() {
        assert_eq!(one(r#"{"v": -3.5e2}"#).unwrap(), Some(Value::Num(-350.0)));
        assert!(one("1e999").is_err());
        assert!(one("-").is_err());
    }

    #[test]
    fn utf8_and_escapes_in_strings() {
        let v = one(r#"{"v": "héllo\n\"q\" \u00e9\u0041"}"#).unwrap();
        assert_eq!(v, Some(Value::Str("héllo\n\"q\" éA".into())));
        assert!(matches!(v, Some(Value::Str(Cow::Owned(_)))));
        let v = one(r#"{"v": "héllo"}"#).unwrap();
        assert!(matches!(v, Some(Value::Str(Cow::Borrowed("héllo")))));
        assert!(one("\"ctrl\u{1}\"").is_err());
        assert!(one(r#""\ud800""#).is_err());
        assert!(one(r#""\x""#).is_err());
    }
}
