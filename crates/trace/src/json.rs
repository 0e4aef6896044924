//! A minimal, fully deterministic JSON layer shared by the telemetry
//! stack.
//!
//! The characterization stack controls both ends of every JSON byte it
//! produces — the trace writer, the campaign cache, the analytics
//! reports — so it carries its own small value model instead of a
//! serialization framework:
//!
//! * [`Value`] keeps numbers as their **raw tokens**, so 64-bit integers
//!   (campaign seeds, error counters) never pass through `f64` and lose
//!   precision, and floats round-trip byte-exactly.
//! * [`parse`] is a strict recursive-descent reader with typed message
//!   errors (never a panic on untrusted input).
//! * [`render`] writes compact JSON with object keys in sorted order (a
//!   [`BTreeMap`] by construction), `\n`-free, locale-independent —
//!   byte-identical output for equal values on every platform.
//! * [`Fields`] reads a parsed object's fields by name and type: the one
//!   decoder behind the trace reader, the campaign cache and the fleet
//!   protocol. Each keeps its own error type and decides what to do with
//!   the fields it did not read.
//!
//! The trace event codec ([`crate::event`], [`crate::reader`]) and the
//! campaign cache build on this module.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Duplicate keys keep the last occurrence.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// A number value from an unsigned integer.
    #[must_use]
    pub fn from_u64(v: u64) -> Value {
        Value::Number(v.to_string())
    }

    /// A number value from a float (its shortest round-trip form).
    /// Non-finite floats have no JSON representation and become `null`,
    /// which the schema-checked readers then reject — corruption surfaces
    /// at the read boundary instead of silently becoming a string.
    #[must_use]
    pub fn from_f64(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(fmt_f64(v))
        } else {
            Value::Null
        }
    }

    /// A string value.
    #[must_use]
    pub fn from_str_val(v: &str) -> Value {
        Value::String(v.to_owned())
    }

    /// The object map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The raw number token, if this is a number.
    #[must_use]
    pub fn as_number(&self) -> Option<&str> {
        match self {
            Value::Number(raw) => Some(raw),
            _ => None,
        }
    }
}

/// Typed access to the fields of one parsed JSON object. Every read
/// returns `Result` (never panics on adversarial input) and records the
/// field it found, so a caller whose writer never emits extra fields can
/// reject the ones no read asked for ([`Fields::unread`]).
#[derive(Debug)]
pub struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    /// The fields reads found, in read order.
    read: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    /// The fields of `value`; `None` when it is not an object.
    #[must_use]
    pub fn of(value: &'a Value) -> Option<Fields<'a>> {
        value.as_object().map(|map| Fields {
            map,
            read: Vec::with_capacity(map.len()),
        })
    }

    /// Reads field `name` as a `T`.
    ///
    /// # Errors
    ///
    /// [`FieldError::Missing`] when the object has no such field,
    /// [`FieldError::Mistyped`] when its value is not a `T`.
    pub fn get<T: FromValue<'a>>(&mut self, name: &'static str) -> Result<T, FieldError<'a>> {
        let value = self.map.get(name).ok_or(FieldError::Missing(name))?;
        self.read.push(name);
        T::from_value(value).ok_or(FieldError::Mistyped {
            field: name,
            expected: T::EXPECTED,
            got: value,
        })
    }

    /// Reads field `name` as an array of `T`s.
    ///
    /// # Errors
    ///
    /// As [`Fields::get`]; an element that is not a `T` is reported as
    /// the field's mistyped value.
    pub fn list<T: FromValue<'a>>(&mut self, name: &'static str) -> Result<Vec<T>, FieldError<'a>> {
        let items: &'a [Value] = self.get(name)?;
        items
            .iter()
            .map(|item| {
                T::from_value(item).ok_or(FieldError::Mistyped {
                    field: name,
                    expected: T::EXPECTED,
                    got: item,
                })
            })
            .collect()
    }

    /// Whether the object has field `name`, for fields a writer omits.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// The first field, in key order, that no read found. Reads are
    /// counted first, so a decoder reads each field at most once.
    #[must_use]
    pub fn unread(&self) -> Option<&'a str> {
        if self.read.len() == self.map.len() {
            return None;
        }
        self.map
            .keys()
            .map(String::as_str)
            .find(|key| !self.read.contains(key))
    }
}

/// A type [`Fields`] reads a JSON value as. Integers are parsed from the
/// raw number token, so a 64-bit value never passes through `f64`.
pub trait FromValue<'a>: Sized {
    /// The type as a decode error names it.
    const EXPECTED: &'static str;

    /// `value` as this type; `None` for another type or an out-of-range
    /// number.
    fn from_value(value: &'a Value) -> Option<Self>;
}

impl<'a> FromValue<'a> for &'a str {
    const EXPECTED: &'static str = "a string";

    fn from_value(value: &'a Value) -> Option<Self> {
        value.as_str()
    }
}

impl FromValue<'_> for String {
    const EXPECTED: &'static str = "a string";

    fn from_value(value: &Value) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl FromValue<'_> for bool {
    const EXPECTED: &'static str = "a boolean";

    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FromValue<'_> for u8 {
    const EXPECTED: &'static str = "an unsigned integer ≤ 255";

    fn from_value(value: &Value) -> Option<Self> {
        value.as_number()?.parse().ok()
    }
}

impl FromValue<'_> for u32 {
    const EXPECTED: &'static str = "an unsigned 32-bit integer";

    fn from_value(value: &Value) -> Option<Self> {
        value.as_number()?.parse().ok()
    }
}

impl FromValue<'_> for u64 {
    const EXPECTED: &'static str = "an unsigned 64-bit integer";

    fn from_value(value: &Value) -> Option<Self> {
        value.as_number()?.parse().ok()
    }
}

impl FromValue<'_> for f64 {
    const EXPECTED: &'static str = "a finite number";

    /// A token like `1e999` parses to infinity, which no writer of this
    /// workspace can write back, so it is rejected with the other types.
    fn from_value(value: &Value) -> Option<Self> {
        let v: f64 = value.as_number()?.parse().ok()?;
        v.is_finite().then_some(v)
    }
}

impl<'a> FromValue<'a> for &'a [Value] {
    const EXPECTED: &'static str = "an array";

    fn from_value(value: &'a Value) -> Option<Self> {
        match value {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl<'a> FromValue<'a> for Fields<'a> {
    const EXPECTED: &'static str = "an object";

    fn from_value(value: &'a Value) -> Option<Self> {
        Fields::of(value)
    }
}

/// Why [`Fields`] could not read a field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldError<'a> {
    /// The object has no such field.
    Missing(&'static str),
    /// The field's value (or, for [`Fields::list`], one of its elements)
    /// has another type or is out of range.
    Mistyped {
        /// The field read.
        field: &'static str,
        /// The type the read wanted ([`FromValue::EXPECTED`]).
        expected: &'static str,
        /// The value found.
        got: &'a Value,
    },
}

impl FieldError<'_> {
    /// The field the failed read named.
    #[must_use]
    pub fn field(&self) -> &'static str {
        match self {
            FieldError::Missing(field) | FieldError::Mistyped { field, .. } => field,
        }
    }
}

impl fmt::Display for FieldError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing(field) => write!(f, "missing field '{field}'"),
            FieldError::Mistyped {
                field,
                expected,
                got,
            } => write!(
                f,
                "bad field '{field}': expected {expected}, got {}",
                render(got)
            ),
        }
    }
}

/// A field error as the message a decoder that reports strings returns.
impl From<FieldError<'_>> for String {
    fn from(e: FieldError<'_>) -> String {
        e.to_string()
    }
}

/// Shortest round-trip representation of a finite `f64` (`{:?}` always
/// prints a form `f64::from_str` maps back to the same bits).
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // Non-finite values never occur in modelled runtimes/energies;
        // serialize defensively as null so the reader rejects the record
        // instead of producing invalid JSON.
        "null".to_owned()
    }
}

/// Appends `value` to `out` as a JSON string literal (quotes included).
pub fn escape_into(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a value as compact JSON (sorted object keys, no whitespace).
#[must_use]
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(&mut out, value);
    out
}

/// Appends the compact rendering of `value` to `out`.
fn render_into(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(raw) => out.push_str(raw),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, key);
                out.push(':');
                render_into(out, item);
            }
            out.push('}');
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level on the caller's stack, and the daemon parses untrusted
/// frames of up to 1 MiB on a connection thread, so an unbounded depth
/// lets one frame of `[` bytes overflow the stack and abort the process.
/// Every writer in the workspace nests at most four levels (a benchmark
/// report: document, run, metrics, row).
const MAX_DEPTH: usize = 64;

/// Parses exactly one JSON value spanning the whole input.
///
/// Numbers keep their raw token so 64-bit integers never pass through
/// `f64` and lose precision. Errors are plain messages; the caller
/// attaches the line number.
///
/// # Errors
///
/// Returns a message describing the first syntax error: a number token
/// outside JSON's grammar, a key repeated within one object, or nesting
/// deeper than 64 levels, each with its offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte 0x{c:02x} at offset {}", self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.require(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // One lookup, which hands the key back for the message when it
            // is already there.
            match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                Entry::Occupied(slot) => {
                    return Err(format!("duplicate key '{}' at offset {key_at}", slot.key()));
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.require(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.peek() {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogates never appear in this module's
                            // own output; reject rather than combine.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    /// Reads the longest run of number bytes and accepts it only if it is
    /// one token of JSON's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "the scanned range is ASCII by construction"
        )]
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ASCII");
        if !is_json_number(raw.as_bytes()) {
            return Err(format!("bad number '{raw}' at offset {start}"));
        }
        Ok(Value::Number(raw.to_owned()))
    }
}

/// Whether `token` is exactly one JSON number.
fn is_json_number(token: &[u8]) -> bool {
    /// `bytes` past its leading digits, if it has any.
    fn digits(bytes: &[u8]) -> Option<&[u8]> {
        let n = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
        (n > 0).then(|| &bytes[n..])
    }
    let unsigned = token.strip_prefix(b"-").unwrap_or(token);
    // The integer part is a lone zero or has no leading zero.
    let rest = match unsigned {
        [b'0', rest @ ..] => Some(rest),
        _ => digits(unsigned),
    };
    let rest = rest.and_then(|rest| match rest {
        [b'.', fraction @ ..] => digits(fraction),
        _ => Some(rest),
    });
    let rest = rest.and_then(|rest| match rest {
        [b'e' | b'E', b'+' | b'-', exponent @ ..] | [b'e' | b'E', exponent @ ..] => {
            digits(exponent)
        }
        _ => Some(rest),
    });
    rest.is_some_and(<[u8]>::is_empty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let text =
            r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null,"e":{"n":18446744073709551615}}"#;
        let value = parse(text).expect("valid JSON");
        let map = value.as_object().expect("object");
        assert_eq!(
            map.get("a"),
            Some(&Value::Array(vec![
                Value::Number("1".into()),
                Value::Number("2.5".into()),
                Value::Number("-3".into()),
            ]))
        );
        assert_eq!(map.get("b").and_then(Value::as_str), Some("x\"y"));
        assert_eq!(map.get("c"), Some(&Value::Bool(true)));
        assert_eq!(map.get("d"), Some(&Value::Null));
        // The 64-bit token survives verbatim — no f64 round trip.
        let inner = map.get("e").and_then(Value::as_object).expect("object");
        assert_eq!(
            inner.get("n").and_then(Value::as_number),
            Some("18446744073709551615")
        );
    }

    #[test]
    fn render_parse_round_trips_byte_exactly() {
        let text = r#"{"empty":{},"list":[],"nested":{"f":0.001,"neg":-7,"s":"a\\b\nc"}}"#;
        let value = parse(text).expect("valid");
        assert_eq!(render(&value), text);
    }

    #[test]
    fn object_keys_render_sorted() {
        let mut map = BTreeMap::new();
        map.insert("zeta".to_owned(), Value::from_u64(1));
        map.insert("alpha".to_owned(), Value::from_u64(2));
        assert_eq!(render(&Value::Object(map)), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn garbage_is_rejected_with_messages() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\":}", "1 2", "nul", "+5"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "01", "-01", "0.", ".5", "-", "1e", "1e+", "+1", "1.e5", "1-2", "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        for good in [
            "-0",
            "0.5",
            "1e-7",
            "1E+300",
            "-2.5e10",
            "18446744073709551615",
        ] {
            assert_eq!(parse(good), Ok(Value::Number(good.to_owned())), "{good:?}");
        }
        assert_eq!(
            parse("[1,01]"),
            Err("bad number '01' at offset 3".to_owned())
        );
    }

    #[test]
    fn a_repeated_key_is_rejected_with_its_name() {
        assert_eq!(
            parse(r#"{"seed":99,"seed":3}"#),
            Err("duplicate key 'seed' at offset 11".to_owned())
        );
        // Keys compare unescaped, and each object has its own keys.
        assert!(parse(r#"{"a":1,"\u0061":2}"#).is_err());
        assert!(parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // One byte short of the daemon's 1 MiB frame cap, parsed on a
        // spawned thread's default stack like a daemon connection.
        let deep = "[".repeat((1 << 20) - 1);
        let result = std::thread::spawn(move || parse(&deep))
            .join()
            .expect("the parser must not overflow its thread's stack");
        let err = result.expect_err("unterminated deep nesting is rejected");
        assert_eq!(err, "nesting deeper than 64 levels at offset 64");

        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels still parse");
    }

    /// One row per way a field read fails: the object, the read, and the
    /// error it reports.
    #[test]
    fn field_reads_report_missing_and_mistyped_fields() {
        type Read = fn(&mut Fields<'_>) -> Result<(), String>;
        let cases: [(&str, Read, &str); 14] = [
            (
                r#"{"y":1}"#,
                |f| Ok(f.get::<u32>("x").map(drop)?),
                "missing field 'x'",
            ),
            (
                r#"{"x":"often"}"#,
                |f| Ok(f.get::<u32>("x").map(drop)?),
                r#"bad field 'x': expected an unsigned 32-bit integer, got "often""#,
            ),
            (
                r#"{"x":7}"#,
                |f| Ok(f.get::<&str>("x").map(drop)?),
                "bad field 'x': expected a string, got 7",
            ),
            (
                r#"{"x":"true"}"#,
                |f| Ok(f.get::<bool>("x").map(drop)?),
                r#"bad field 'x': expected a boolean, got "true""#,
            ),
            (
                r#"{"x":256}"#,
                |f| Ok(f.get::<u8>("x").map(drop)?),
                "bad field 'x': expected an unsigned integer ≤ 255, got 256",
            ),
            (
                r#"{"x":4294967296}"#,
                |f| Ok(f.get::<u32>("x").map(drop)?),
                "bad field 'x': expected an unsigned 32-bit integer, got 4294967296",
            ),
            (
                r#"{"x":18446744073709551616}"#,
                |f| Ok(f.get::<u64>("x").map(drop)?),
                "bad field 'x': expected an unsigned 64-bit integer, got 18446744073709551616",
            ),
            (
                r#"{"x":-1}"#,
                |f| Ok(f.get::<u64>("x").map(drop)?),
                "bad field 'x': expected an unsigned 64-bit integer, got -1",
            ),
            (
                r#"{"x":1.5}"#,
                |f| Ok(f.get::<u32>("x").map(drop)?),
                "bad field 'x': expected an unsigned 32-bit integer, got 1.5",
            ),
            // An integer is its plain digits: the writers never use an exponent.
            (
                r#"{"x":1e2}"#,
                |f| Ok(f.get::<u8>("x").map(drop)?),
                "bad field 'x': expected an unsigned integer ≤ 255, got 1e2",
            ),
            (
                r#"{"x":1e999}"#,
                |f| Ok(f.get::<f64>("x").map(drop)?),
                "bad field 'x': expected a finite number, got 1e999",
            ),
            (
                r#"{"x":null}"#,
                |f| Ok(f.get::<f64>("x").map(drop)?),
                "bad field 'x': expected a finite number, got null",
            ),
            (
                r#"{"x":[]}"#,
                |f| Ok(f.get::<Fields<'_>>("x").map(drop)?),
                "bad field 'x': expected an object, got []",
            ),
            (
                r#"{"x":[1,300]}"#,
                |f| Ok(f.list::<u8>("x").map(drop)?),
                "bad field 'x': expected an unsigned integer ≤ 255, got 300",
            ),
        ];
        for (text, read, message) in cases {
            let value = parse(text).expect("valid JSON");
            let mut fields = Fields::of(&value).expect("an object");
            assert_eq!(read(&mut fields).expect_err(text), message, "{text}");
        }
        let value = parse(r#"{"x":{"y":1}}"#).expect("valid JSON");
        let err = Fields::of(&value)
            .expect("an object")
            .list::<u8>("x")
            .expect_err("not an array");
        assert_eq!(
            err.to_string(),
            r#"bad field 'x': expected an array, got {"y":1}"#
        );
    }

    #[test]
    fn field_reads_return_typed_values_and_track_unread_fields() {
        let text = r#"{"b":true,"f":-0.0,"l":["a","b"],"n":18446744073709551615,"o":{"c":255},"s":"x\"y","z":0}"#;
        let value = parse(text).expect("valid JSON");
        let mut fields = Fields::of(&value).expect("an object");
        assert_eq!(fields.get::<bool>("b"), Ok(true));
        assert_eq!(
            fields.get::<f64>("f").map(f64::to_bits),
            Ok((-0.0f64).to_bits())
        );
        assert_eq!(
            fields.list::<String>("l"),
            Ok(vec!["a".to_owned(), "b".to_owned()])
        );
        assert_eq!(fields.get::<u64>("n"), Ok(u64::MAX));
        assert_eq!(fields.get::<&str>("s"), Ok("x\"y"));
        assert!(fields.contains("z") && !fields.contains("q"));
        let mut inner: Fields<'_> = fields.get("o").expect("an object");
        assert_eq!(inner.get::<u8>("c"), Ok(255));
        assert_eq!(inner.unread(), None);
        // A missing read records nothing; `z` is the first key no read found.
        assert_eq!(fields.get::<u32>("q"), Err(FieldError::Missing("q")));
        assert_eq!(fields.unread(), Some("z"));
        assert_eq!(fields.get::<u32>("z"), Ok(0));
        assert_eq!(fields.unread(), None);
        assert!(Fields::of(&Value::Array(Vec::new())).is_none());
    }

    #[test]
    fn floats_render_shortest_and_nonfinite_becomes_null() {
        assert_eq!(fmt_f64(0.125), "0.125");
        assert_eq!(fmt_f64(1e-4), "0.0001");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(Value::from_f64(f64::INFINITY), Value::Null);
        assert_eq!(Value::from_f64(2.5), Value::Number("2.5".into()));
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let mut out = String::new();
        escape_into(&mut out, "a\u{1}\tb");
        assert_eq!(out, "\"a\\u0001\\tb\"");
        let back = parse(&out).expect("parses");
        assert_eq!(back, Value::String("a\u{1}\tb".into()));
    }
}
