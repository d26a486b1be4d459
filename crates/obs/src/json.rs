//! Minimal JSON support: an escaping writer and a strict recursive-descent
//! parser.
//!
//! The workspace bans external runtime dependencies, so the JSONL event
//! sink, the metrics snapshot, and the Chrome-trace exporter serialize by
//! hand through [`escape`]/[`push_escaped`], and the CI schema validator
//! parses through [`parse`]. The parser covers the full JSON grammar and
//! runs in time linear in the document, so it also decodes checkpoints and
//! serve feeds of any size. It recurses on nesting depth (capped) and keeps
//! object keys in document order so strict schema validation can report
//! *which* field is unknown.

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

    /// The numeric value as a `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
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
