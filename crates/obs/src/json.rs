//! Minimal JSON support: an escaping writer, a value renderer, a strict
//! recursive-descent parser, and one strict object reader.
//!
//! The workspace bans external runtime dependencies, so the JSONL event
//! sink, the metrics snapshot, and the Chrome-trace exporter serialize by
//! hand through [`escape`]/[`push_escaped`], benchmark artifacts are built
//! as [`Json`] values and written through [`render`], and `bbmg audit`
//! parses every document through [`parse`]. The parser covers the full
//! JSON grammar and runs in time linear in the document, so it also
//! decodes checkpoints and serve feeds of any size. It recurses on
//! nesting depth (capped) and keeps object keys in document order.
//!
//! Every document `bbmg` writes and reads back (checkpoints, rosters,
//! health and metrics snapshots, corpus reports, benchmark artifacts) is
//! decoded through [`fields`]: an object must hold exactly its schema's
//! keys in writer order, and a refusal names the first unknown, missing,
//! duplicate or out-of-order key. The typed [`Field`] reads accept only
//! what the writers emit: integers below 2^64, and 64-bit values as 16
//! lower-case hex digits ([`hex_u64`]). The serve protocol's
//! `parse_line` alone stays tolerant of extra fields, by design.

use std::fmt;

/// Maximum nesting depth [`parse`] accepts before giving up — our own
/// documents nest 3 levels; 64 leaves headroom without risking the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in document order (duplicates preserved).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integer
    /// below 2^64. Numbers are `f64`s, so values above 2^53 arrive
    /// rounded; documents carry exact 64-bit values as [`hex_u64`]
    /// strings instead.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        /// 2^64, the first integer a `u64` cannot hold (exact as `f64`).
        const LIMIT: f64 = 18_446_744_073_709_551_616.0;
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Number(n) if *n >= 0.0 && *n < LIMIT && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// An object with `fields` in the given order.
    #[must_use]
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Number(value)
    }
}

impl From<u64> for Json {
    #[allow(clippy::cast_precision_loss)]
    fn from(value: u64) -> Self {
        Json::Number(value as f64)
    }
}

impl From<usize> for Json {
    #[allow(clippy::cast_precision_loss)]
    fn from(value: usize) -> Self {
        Json::Number(value as f64)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::String(value.to_owned())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable diagnosis.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Appends `text` to `out` with JSON string escaping (no quotes added).
pub fn push_escaped(out: &mut String, text: &str) {
    for c in text.chars() {
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
}

/// Returns `text` as a quoted, escaped JSON string literal.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    push_escaped(&mut out, text);
    out.push('"');
    out
}

/// Renders `value` as one compact line of JSON, object keys in their
/// stored order. Numbers print in the shortest form that parses back to
/// the same `f64`, so [`parse`] of the output is `value` again; a
/// non-finite number, which JSON cannot spell, renders as `null`.
#[must_use]
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    push_rendered(&mut out, value);
    out
}

fn push_rendered(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) if n.is_finite() => out.push_str(&n.to_string()),
        Json::Number(_) => out.push_str("null"),
        Json::String(s) => out.push_str(&escape(s)),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_rendered(out, item);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&escape(key));
                out.push(':');
                push_rendered(out, item);
            }
            out.push('}');
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonParseError`] pointing at the first offending byte.
pub fn parse(text: &str) -> Result<Json, JsonParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our own
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a character boundary of
                    // the `&str` input and no byte is looked at twice.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let end = self.pos + run.unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse()
            .map(Json::Number)
            .map_err(|_| self.error(format!("bad number `{text}`")))
    }
}

/// Why [`fields`] refused an object, or a [`Field`] read its value. Key
/// problems name the first key out of place, so each decoder can map
/// them onto its own error variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The value is not an object.
    NotObject,
    /// A key the schema does not define.
    Unknown(String),
    /// A schema key the object lacks.
    Missing(&'static str),
    /// A schema key the object repeats.
    Duplicate(&'static str),
    /// A schema key ahead of its place in writer order.
    OutOfOrder(&'static str),
    /// A value of the wrong kind or range.
    Value {
        /// The field's key.
        key: &'static str,
        /// What the value must be, e.g. `a boolean`.
        expected: &'static str,
    },
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::NotObject => write!(f, "expected an object"),
            FieldError::Unknown(key) => write!(f, "unknown field `{key}`"),
            FieldError::Missing(key) => write!(f, "missing field `{key}`"),
            FieldError::Duplicate(key) => write!(f, "duplicate field `{key}`"),
            FieldError::OutOfOrder(key) => write!(f, "field `{key}` is out of order"),
            FieldError::Value { key, expected } => write!(f, "field `{key}` is not {expected}"),
        }
    }
}

impl std::error::Error for FieldError {}

/// Checks that `value` is an object holding exactly `keys`, in that
/// order, and returns its values paired with their keys. Accepting an
/// object takes one forward pass over its keys; only a refused one is
/// scanned again, to name the first key out of place.
///
/// # Errors
///
/// [`FieldError::NotObject`], or the first unknown, missing, duplicate
/// or out-of-order key.
pub fn fields<'a, const N: usize>(
    value: &'a Json,
    keys: [&'static str; N],
) -> Result<[Field<'a>; N], FieldError> {
    let Json::Object(found) = value else {
        return Err(FieldError::NotObject);
    };
    if found.len() != N || found.iter().zip(keys).any(|((key, _), want)| key != want) {
        return Err(misplaced(found, &keys));
    }
    Ok(std::array::from_fn(|i| Field {
        key: keys[i],
        value: &found[i].1,
    }))
}

/// The first key of `found` that breaks the sequence `keys`.
fn misplaced(found: &[(String, Json)], keys: &[&'static str]) -> FieldError {
    let agree = found
        .iter()
        .zip(keys)
        .take_while(|((key, _), want)| key == *want)
        .count();
    let Some((key, _)) = found.get(agree) else {
        return FieldError::Missing(keys[agree]);
    };
    match keys.iter().position(|want| want == key) {
        None => FieldError::Unknown(key.clone()),
        Some(at) if at < agree => FieldError::Duplicate(keys[at]),
        // A later key came early: the expected one is out of order if it
        // still follows, and missing if not.
        Some(at) if found[agree..].iter().any(|(key, _)| key == keys[agree]) => {
            FieldError::OutOfOrder(keys[at])
        }
        Some(_) => FieldError::Missing(keys[agree]),
    }
}

/// One value of an object [`fields`] accepted, with its schema key. Each
/// typed read returns [`FieldError::Value`], naming the key, for a value
/// of another kind.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// The schema key.
    pub key: &'static str,
    /// The value stored under it.
    pub value: &'a Json,
}

impl<'a> Field<'a> {
    fn read<T>(self, value: Option<T>, expected: &'static str) -> Result<T, FieldError> {
        value.ok_or(FieldError::Value {
            key: self.key,
            expected,
        })
    }

    /// The value as a `u64`: an integer below 2^64 ([`Json::as_u64`]).
    pub fn u64(self) -> Result<u64, FieldError> {
        self.read(self.value.as_u64(), "a non-negative integer")
    }

    /// The value as a `usize`, read as [`Field::u64`].
    pub fn usize(self) -> Result<usize, FieldError> {
        let value = self.value.as_u64().and_then(|v| usize::try_from(v).ok());
        self.read(value, "a non-negative integer")
    }

    /// The value as a `bool`.
    pub fn bool(self) -> Result<bool, FieldError> {
        let value = match self.value {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        self.read(value, "a boolean")
    }

    /// The value as a string.
    pub fn str(self) -> Result<&'a str, FieldError> {
        self.read(self.value.as_str(), "a string")
    }

    /// The value as an `f64`.
    pub fn f64(self) -> Result<f64, FieldError> {
        self.read(self.value.as_f64(), "a number")
    }

    /// The value's items, if it is an array, each read as a field under
    /// this key.
    pub fn array(self) -> Result<impl ExactSizeIterator<Item = Field<'a>>, FieldError> {
        let items = match self.value {
            Json::Array(items) => Some(items.iter()),
            _ => None,
        };
        let key = self.key;
        Ok(self
            .read(items, "an array")?
            .map(move |value| Field { key, value }))
    }

    /// The value's fields, read by [`fields`] against `keys`.
    pub fn object<const N: usize>(
        self,
        keys: [&'static str; N],
    ) -> Result<[Field<'a>; N], FieldError> {
        match fields(self.value, keys) {
            Err(FieldError::NotObject) => self.read(None, "an object"),
            read => read,
        }
    }

    /// The value as a `u64` spelled in 16 lower-case hex digits
    /// ([`hex_u64`]).
    pub fn hex(self) -> Result<u64, FieldError> {
        self.read(
            self.value.as_str().and_then(hex_u64),
            "16 lower-case hex digits",
        )
    }

    /// `None` for `null`, else this field: the reader of optional values.
    #[must_use]
    pub fn non_null(self) -> Option<Self> {
        match self.value {
            Json::Null => None,
            _ => Some(self),
        }
    }
}

/// Reads a `u64` spelled as exactly 16 lower-case hex digits, the only
/// spelling our writers use (`{:016x}`), in one scan over the bytes.
#[must_use]
pub fn hex_u64(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    text.bytes().try_fold(0, |sum: u64, byte| {
        let digit = match byte {
            b'0'..=b'9' => byte - b'0',
            b'a'..=b'f' => byte - b'a' + 10,
            _ => return None,
        };
        Some(sum << 4 | u64::from(digit))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        let text = "a \"b\"\n\\c\tŌu\u{1}";
        let parsed = parse(&escape(text)).unwrap();
        assert_eq!(parsed, Json::String(text.to_owned()));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": 1, "b": [true, null, -2.5e1], "c": {"d": "x"}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let Some(Json::Array(items)) = v.get("b") else {
            panic!("b is an array")
        };
        assert_eq!(items[0], Json::Bool(true));
        assert_eq!(items[1], Json::Null);
        assert_eq!(items[2], Json::Number(-25.0));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_str),
            Some("x")
        );
    }

    #[test]
    fn render_round_trips_through_parse() {
        let value = Json::object([
            ("schema", "bbmg-x/1".into()),
            ("quick", false.into()),
            ("none", Json::Null),
            ("count", 18_446_744_073_709_549_568_u64.into()),
            ("micros", vec![0_u64, 7, 13_065].into()),
            (
                "fractions",
                vec![0.1, 2.3, -0.51, 1e-7, 349.369_565_217_391_3].into(),
            ),
            ("escaped \"key\"", "a \"b\"\n\\c\tŌ😀\u{1}".into()),
            (
                "nested",
                Json::Array(vec![
                    Json::object([("threads", 4_usize.into()), ("rows", Json::Array(vec![]))]),
                    Json::Object(vec![]),
                ]),
            ),
        ]);
        let text = render(&value);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text), Ok(value));
        assert_eq!(render(&Json::Number(f64::NAN)), "null");
        assert_eq!(
            render(&Json::object([("a", 1_u64.into()), ("b", 2.5.into())])),
            r#"{"a":1,"b":2.5}"#
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn object_keys_keep_document_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let Json::Object(fields) = v else {
            panic!("object")
        };
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Number(3.0).as_u64(), Some(3));
        assert_eq!(Json::Number(3.5).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        // At and above 2^64 nothing saturates to `u64::MAX`.
        for text in ["1e30", "18446744073709551616", "1e300"] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
        // The largest `f64` below 2^64 still reads.
        let below = parse("18446744073709549568").unwrap();
        assert_eq!(below.as_u64(), Some(18_446_744_073_709_549_568));
    }

    const KEYS: [&str; 3] = ["a", "b", "c"];

    #[test]
    fn fields_require_exactly_the_keys_in_order() {
        let doc = parse(r#"{"a":1,"b":"x","c":[true]}"#).unwrap();
        let [a, b, c] = fields(&doc, KEYS).unwrap();
        assert_eq!((a.key, a.u64(), a.usize()), ("a", Ok(1), Ok(1)));
        assert_eq!(b.str(), Ok("x"));
        let items: Vec<_> = c.array().unwrap().map(Field::bool).collect();
        assert_eq!(items, [Ok(true)]);
        for (doc, error) in [
            (r#"{"a":1,"b":2,"x":3}"#, FieldError::Unknown("x".into())),
            (
                r#"{"a":1,"b":2,"c":3,"d":4}"#,
                FieldError::Unknown("d".into()),
            ),
            (r#"{"a":1,"b":2}"#, FieldError::Missing("c")),
            (r#"{"a":1,"c":3}"#, FieldError::Missing("b")),
            (r#"{"a":1,"a":1,"b":2,"c":3}"#, FieldError::Duplicate("a")),
            (r#"{"a":1,"b":2,"c":3,"b":2}"#, FieldError::Duplicate("b")),
            (r#"{"a":1,"c":3,"b":2}"#, FieldError::OutOfOrder("c")),
            (r#"{"b":2,"a":1,"c":3}"#, FieldError::OutOfOrder("b")),
            ("[1,2,3]", FieldError::NotObject),
        ] {
            let refused = fields(&parse(doc).unwrap(), KEYS).err();
            assert_eq!(refused, Some(error), "{doc}");
        }
    }

    #[test]
    fn field_reads_refuse_the_wrong_kind() {
        let doc = parse(r#"{"a":1e30,"b":null,"c":{"x":"00000000000000ff"}}"#).unwrap();
        let [a, b, c] = fields(&doc, KEYS).unwrap();
        let refused = |key, expected| Some(FieldError::Value { key, expected });
        assert_eq!(a.u64().err(), refused("a", "a non-negative integer"));
        assert_eq!(a.f64(), Ok(1e30));
        assert_eq!(a.bool().err(), refused("a", "a boolean"));
        assert_eq!(a.hex().err(), refused("a", "16 lower-case hex digits"));
        assert!(b.non_null().is_none() && a.non_null().is_some());
        assert_eq!(
            b.array().err().map(|e| e.to_string()),
            Some("field `b` is not an array".into())
        );
        assert_eq!(a.object(["x"]).err(), refused("a", "an object"));
        let [x] = c.object(["x"]).unwrap();
        assert_eq!(x.hex(), Ok(255));
        let unknown = c.object(["y"]).err();
        assert_eq!(unknown, Some(FieldError::Unknown("x".into())));
        let message = refused("a", "a boolean").map(|e| e.to_string());
        assert_eq!(message.as_deref(), Some("field `a` is not a boolean"));
    }

    #[test]
    fn hex_is_sixteen_lower_case_digits() {
        assert_eq!(hex_u64("00000000000000ff"), Some(255));
        assert_eq!(hex_u64("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(hex_u64("0123456789abcdef"), Some(0x0123_4567_89ab_cdef));
        for text in [
            "00000000000000FF",
            "+00000000000000f",
            "00000000000000f",
            "000000000000000ff",
            "00000000000000fg",
            "",
        ] {
            assert_eq!(hex_u64(text), None, "{text}");
        }
    }

    #[test]
    fn deep_nesting_is_capped() {
        let doc = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&doc).is_err());
    }

    fn string(text: &str) -> Json {
        Json::String(text.to_owned())
    }

    fn error(offset: usize, message: &str) -> Result<Json, JsonParseError> {
        Err(JsonParseError {
            offset,
            message: message.to_owned(),
        })
    }

    #[test]
    fn multibyte_characters_next_to_escapes() {
        assert_eq!(parse(r#""Ō\n😀\"x""#), Ok(string("Ō\n😀\"x")));
        assert_eq!(parse(r#""😀""#), Ok(string("😀")));
        assert_eq!(parse(r#""\\Ō""#), Ok(string("\\Ō")));
        assert_eq!(parse(r#""€\\""#), Ok(string("€\\")));
        assert_eq!(parse(r#""\t中é𝄞""#), Ok(string("\t中é𝄞")));
        assert_eq!(
            parse(r#"{"ключ":"значение","😀":["Ō"]}"#),
            Ok(Json::Object(vec![
                ("ключ".into(), string("значение")),
                ("😀".into(), Json::Array(vec![string("Ō")])),
            ]))
        );
    }

    /// A `\u` escape of `code`, spelled out so no literal escape
    /// sequence appears in this file.
    fn u(code: u32) -> String {
        format!("\\u{code:04x}")
    }

    #[test]
    fn unicode_escapes_decode_and_lone_surrogates_become_replacement() {
        let doc = format!("\"{}{}{}Ō\"", u(0x41), u(0xe9), u(0x20ac));
        assert_eq!(parse(&doc), Ok(string("Aé€Ō")));
        assert_eq!(parse(&format!("\"{}\"", u(0))), Ok(string("\u{0}")));
        assert_eq!(
            parse(&format!("\"a{}b\"", u(0xd800))),
            Ok(string("a\u{fffd}b"))
        );
        // Pairs are not combined: each half maps to U+FFFD on its own.
        assert_eq!(
            parse(&format!("\"{}{}😀\"", u(0xd83d), u(0xde00))),
            Ok(string("\u{fffd}\u{fffd}😀"))
        );
        // Upper-case hex digits, and the leading `+` that
        // `u32::from_str_radix` accepts.
        let upper = u(0xc9).replace("c9", "C9");
        assert_eq!(parse(&format!("\"{upper}\"")), Ok(string("É")));
        assert_eq!(parse(r#""\u+041""#), Ok(string("A")));
    }

    #[test]
    fn raw_control_characters_are_accepted() {
        assert_eq!(
            parse("\"a\u{1}\tb\nc\u{1f}\""),
            Ok(string("a\u{1}\tb\nc\u{1f}"))
        );
    }

    #[test]
    fn string_errors_keep_their_message_and_offset() {
        assert_eq!(parse(r#""abc"#), error(4, "unterminated string"));
        assert_eq!(parse("\"Ō😀"), error(7, "unterminated string"));
        assert_eq!(parse(r#"["a", "b"#), error(8, "unterminated string"));
        assert_eq!(parse(r#""a\q""#), error(3, "bad escape"));
        assert_eq!(parse(r#""Ō\"#), error(4, "bad escape"));
        assert_eq!(parse(r#""\u12""#), error(2, "bad \\u escape"));
        assert_eq!(parse(r#""x\u00e"#), error(3, "bad \\u escape"));
        assert_eq!(parse(r#""\uzzzz""#), error(2, "bad \\u escape"));
        assert_eq!(parse(r#""\u00é""#), error(2, "bad \\u escape"));
        assert_eq!(
            parse(r#"{"a":"b"#).map_err(|e| e.to_string()),
            Err("json error at byte 7: unterminated string".to_owned())
        );
    }

    /// Alphabet for the round trip: ASCII, 2-, 3- and 4-byte characters,
    /// the two string delimiters, and control characters.
    const ALPHABET: [char; 16] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', 'Ō', '€', '中', '😀',
        '𝄞',
    ];

    #[test]
    fn seeded_escape_round_trip() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let len = next() % 40;
            let text: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            assert_eq!(parse(&escape(&text)), Ok(string(&text)), "{text:?}");
            let doc = format!("{{{}:[{}]}}", escape(&text), escape(&text));
            assert_eq!(
                parse(&doc),
                Ok(Json::Object(vec![(
                    text.clone(),
                    Json::Array(vec![string(&text)])
                )])),
                "{doc:?}"
            );
        }
    }
}
