//! A minimal flat-JSON codec for the wire protocol and checkpoint files.
//!
//! Protocol frames and checkpoint entries are single-line JSON objects
//! whose values are strings, numbers, booleans, `null` or arrays of
//! strings — nothing nests deeper, by design, so the codec stays a few
//! hundred lines and the build needs no external crates. The parser
//! rejects nested objects and non-string array elements outright; the
//! error messages name the offending byte offset so a malformed frame
//! can be reported precisely.

use acs_runtime::sink::push_json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A JSON number (always carried as `f64`; the protocol only uses
    /// integers small enough to round-trip exactly).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array whose elements are all strings.
    StrList(Vec<String>),
}

/// A parsed flat JSON object with typed field accessors.
///
/// Accessors return `Err` with a message naming the field and the
/// expected type, so protocol handlers can forward them verbatim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object {
    fields: BTreeMap<String, Value>,
}

impl Object {
    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.fields.get(key) {
            Some(Value::Str(s)) => Ok(s),
            Some(_) => Err(format!("field `{key}` must be a string")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// An optional string field (`None` when absent or `null`).
    pub fn opt_str_field(&self, key: &str) -> Result<Option<&str>, String> {
        match self.fields.get(key) {
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(Value::Null) | None => Ok(None),
            Some(_) => Err(format!("field `{key}` must be a string")),
        }
    }

    /// A required non-negative integer field.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.fields.get(key) {
            Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Ok(*n as u64)
            }
            Some(_) => Err(format!("field `{key}` must be a non-negative integer")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// An optional non-negative integer field.
    pub fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, String> {
        match self.fields.get(key) {
            Some(Value::Null) | None => Ok(None),
            Some(_) => self.u64_field(key).map(Some),
        }
    }

    /// An optional boolean field, defaulting to `false` when absent.
    pub fn bool_field_or_false(&self, key: &str) -> Result<bool, String> {
        match self.fields.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            Some(Value::Null) | None => Ok(false),
            Some(_) => Err(format!("field `{key}` must be a boolean")),
        }
    }

    /// A required array-of-strings field.
    pub fn str_list_field(&self, key: &str) -> Result<&[String], String> {
        match self.fields.get(key) {
            Some(Value::StrList(v)) => Ok(v),
            Some(_) => Err(format!("field `{key}` must be an array of strings")),
            None => Err(format!("missing field `{key}`")),
        }
    }
}

/// Parse a single flat JSON object from `input`.
///
/// # Errors
///
/// Returns a human-readable message (with a byte offset) when the input
/// is not a flat JSON object — nested objects, non-string array
/// elements, trailing garbage, bad escapes and truncated input are all
/// rejected.
pub fn parse_object(input: &str) -> Result<Object, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    expect(bytes, &mut pos, b'{')?;
    let mut fields = BTreeMap::new();
    skip_ws(bytes, &mut pos);
    if peek(bytes, pos) == Some(b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(bytes, &mut pos);
            let key = parse_string(input, bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            expect(bytes, &mut pos, b':')?;
            skip_ws(bytes, &mut pos);
            let value = parse_value(input, bytes, &mut pos)?;
            fields.insert(key, value);
            skip_ws(bytes, &mut pos);
            match next(bytes, &mut pos) {
                Some(b',') => continue,
                Some(b'}') => break,
                Some(c) => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found `{}`",
                        pos - 1,
                        c as char
                    ))
                }
                None => return Err("unexpected end of input inside object".into()),
            }
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(Object { fields })
}

fn parse_value(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    match peek(bytes, *pos) {
        Some(b'"') => Ok(Value::Str(parse_string(input, bytes, pos)?)),
        Some(b't') => {
            expect_word(bytes, pos, b"true")?;
            Ok(Value::Bool(true))
        }
        Some(b'f') => {
            expect_word(bytes, pos, b"false")?;
            Ok(Value::Bool(false))
        }
        Some(b'n') => {
            expect_word(bytes, pos, b"null")?;
            Ok(Value::Null)
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if peek(bytes, *pos) == Some(b']') {
                *pos += 1;
                return Ok(Value::StrList(items));
            }
            loop {
                skip_ws(bytes, pos);
                if peek(bytes, *pos) != Some(b'"') {
                    return Err(format!("arrays may only hold strings (byte {})", *pos));
                }
                items.push(parse_string(input, bytes, pos)?);
                skip_ws(bytes, pos);
                match next(bytes, pos) {
                    Some(b',') => continue,
                    Some(b']') => break,
                    Some(c) => {
                        return Err(format!(
                            "expected `,` or `]` at byte {}, found `{}`",
                            *pos - 1,
                            c as char
                        ))
                    }
                    None => return Err("unexpected end of input inside array".into()),
                }
            }
            Ok(Value::StrList(items))
        }
        Some(b'{') => Err(format!(
            "nested objects are not allowed in protocol frames (byte {})",
            *pos
        )),
        Some(c) if c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while let Some(c) = peek(bytes, *pos) {
                if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                    *pos += 1;
                } else {
                    break;
                }
            }
            input[start..*pos]
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!(
            "unexpected `{}` at byte {} (expected a value)",
            c as char, *pos
        )),
        None => Err("unexpected end of input (expected a value)".into()),
    }
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if next(bytes, pos) != Some(b'"') {
        return Err(format!("expected `\"` at byte {}", pos.saturating_sub(1)));
    }
    let mut out = String::new();
    loop {
        let start = *pos;
        // Fast path: copy runs of plain bytes in one slice.
        while let Some(c) = peek(bytes, *pos) {
            if c == b'"' || c == b'\\' || c < 0x20 {
                break;
            }
            *pos += 1;
        }
        // `start..*pos` falls on char boundaries: the loop above only
        // stops on ASCII bytes, and continuation bytes are all ≥ 0x80.
        out.push_str(&input[start..*pos]);
        match next(bytes, pos) {
            Some(b'"') => return Ok(out),
            Some(b'\\') => match next(bytes, pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000C}'),
                Some(b'u') => {
                    let hi = parse_hex4(input, bytes, pos)?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // High surrogate: a `\uXXXX` low surrogate must follow.
                        if next(bytes, pos) != Some(b'\\') || next(bytes, pos) != Some(b'u') {
                            return Err("lone high surrogate in string escape".into());
                        }
                        let lo = parse_hex4(input, bytes, pos)?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("invalid low surrogate in string escape".into());
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else if (0xDC00..0xE000).contains(&hi) {
                        return Err("lone low surrogate in string escape".into());
                    } else {
                        hi
                    };
                    out.push(
                        char::from_u32(cp).ok_or_else(|| "invalid unicode escape".to_string())?,
                    );
                }
                Some(c) => return Err(format!("bad escape `\\{}`", c as char)),
                None => return Err("unexpected end of input inside string".into()),
            },
            Some(c) => {
                return Err(format!(
                    "raw control byte 0x{c:02x} inside string at byte {}",
                    *pos - 1
                ))
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_hex4(input: &str, bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let hex = &input[*pos..*pos + 4];
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(peek(bytes, *pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        *pos += 1;
    }
}

fn peek(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes.get(pos).copied()
}

fn next(bytes: &[u8], pos: &mut usize) -> Option<u8> {
    let c = bytes.get(*pos).copied();
    if c.is_some() {
        *pos += 1;
    }
    c
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    match next(bytes, pos) {
        Some(c) if c == want => Ok(()),
        Some(c) => Err(format!(
            "expected `{}` at byte {}, found `{}`",
            want as char,
            *pos - 1,
            c as char
        )),
        None => Err(format!("expected `{}`, found end of input", want as char)),
    }
}

fn expect_word(bytes: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!(
            "bad literal at byte {} (expected `{}`)",
            *pos,
            std::str::from_utf8(word).unwrap()
        ))
    }
}

/// An incremental builder for one-line flat JSON objects.
///
/// Fields are emitted in insertion order; `finish` closes the object.
#[derive(Debug)]
pub struct ObjectBuilder {
    buf: String,
    first: bool,
}

impl ObjectBuilder {
    /// Start an object with a `"type"` tag — every protocol frame leads
    /// with one.
    pub fn frame(frame_type: &str) -> Self {
        let mut b = Self {
            buf: String::from("{"),
            first: true,
        };
        b.push_str("type", frame_type);
        b
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Append a string field.
    pub fn push_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_json_str(&mut self.buf, value);
        self
    }

    /// Append an integer field.
    pub fn push_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Append a float field (used for rates; formatted with `{}`).
    pub fn push_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Append a boolean field.
    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Append an array-of-strings field.
    pub fn push_str_list(&mut self, key: &str, values: &[String]) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_json_str(&mut self.buf, v);
        }
        self.buf.push(']');
        self
    }

    /// Close the object and return the single-line JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_value_kind() {
        let mut b = ObjectBuilder::frame("probe");
        b.push_str("name", "multi\nline \"quoted\" \\ text")
            .push_u64("cells", 42)
            .push_f64("rate", 0.5)
            .push_bool("resume", true)
            .push_str_list("rows", &["a,b".into(), "c\td".into()]);
        let line = b.finish();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.str_field("type").unwrap(), "probe");
        assert_eq!(
            obj.str_field("name").unwrap(),
            "multi\nline \"quoted\" \\ text"
        );
        assert_eq!(obj.u64_field("cells").unwrap(), 42);
        assert_eq!(obj.get("rate"), Some(&Value::Num(0.5)));
        assert!(obj.bool_field_or_false("resume").unwrap());
        assert_eq!(
            obj.str_list_field("rows").unwrap(),
            ["a,b".to_string(), "c\td".to_string()]
        );
    }

    #[test]
    fn rejects_malformed_input_with_positions() {
        for (input, needle) in [
            ("", "expected `{`"),
            ("{", "expected `\"`"),
            ("{\"a\":1,}", "expected `\"`"),
            ("{\"a\":{}}", "nested objects"),
            ("{\"a\":[1]}", "arrays may only hold strings"),
            ("{\"a\":tru}", "bad literal"),
            ("{\"a\":\"x}", "unterminated string"),
            ("{\"a\":\"\\q\"}", "bad escape"),
            ("{\"a\":1} extra", "trailing garbage"),
            ("not json at all", "expected `{`"),
        ] {
            let err = parse_object(input).unwrap_err();
            assert!(
                err.contains(needle),
                "input {input:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn surrogate_pairs_and_unicode_escapes() {
        let obj = parse_object(r#"{"s":"\u0041\ud83d\ude00\u00e9"}"#).unwrap();
        assert_eq!(obj.str_field("s").unwrap(), "A\u{1F600}é");
        assert!(parse_object(r#"{"s":"\ud83d"}"#)
            .unwrap_err()
            .contains("surrogate"));
    }

    #[test]
    fn optional_fields_treat_null_as_absent() {
        let obj = parse_object(r#"{"type":"submit","id":null,"threads":null}"#).unwrap();
        assert_eq!(obj.opt_str_field("id").unwrap(), None);
        assert_eq!(obj.opt_u64_field("threads").unwrap(), None);
        assert_eq!(obj.opt_str_field("missing").unwrap(), None);
        assert!(obj.u64_field("threads").is_err());
    }
}
