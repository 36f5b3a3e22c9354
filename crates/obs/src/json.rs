//! Minimal JSON parser for validating exported artifacts in tests.
//!
//! The workspace is zero-external-dependency, yet several tests need to
//! assert that emitted JSON (Chrome traces, JSONL event lines, the
//! benchmark's result line) is well-formed and has a particular shape.
//! This is a small recursive-descent parser for machine-emitted JSON:
//! objects preserve **insertion order** (stored as a `Vec` of pairs,
//! duplicate keys kept as-is) so field-order guarantees are testable.
//!
//! It is a *validator*, not a serializer — emission sites build strings
//! directly so their field order stays under explicit control.

/// A parsed JSON value. Objects preserve source order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, in source order, duplicates preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The object's ordered key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parse failure: a message and the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts: the descent is
/// recursive, so hostile input must not choose the stack depth.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing whitespace only.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            // Exactly four ASCII hex digits (`from_str_radix`
                            // would also take a sign).
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| {
                                    h.iter().try_fold(0, |code, &d| {
                                        Some(code << 4 | char::from(d).to_digit(16)?)
                                    })
                                })
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // machine-emitted ASCII artifacts; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|sl| std::str::from_utf8(sl).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Escapes a string for embedding in emitted JSON (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".to_string())
        );
    }

    #[test]
    fn objects_preserve_order() {
        let v = parse("{\"z\": 1, \"a\": 2, \"m\": 3}").unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(2.0));
    }

    #[test]
    fn nested_structures() {
        let v = parse("{\"xs\": [1, {\"y\": [true, null]}], \"s\": \"hi\"}").unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs[0], JsonValue::Num(1.0));
        assert_eq!(
            xs[1].get("y").unwrap().as_array().unwrap()[1],
            JsonValue::Null
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] extra",
            "{'a': 1}",
            "\"\\u+041\"",
            &"[".repeat(1_000_000),
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = parse("\"caf\\u00e9 — ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("café — ✓"));
    }

    #[test]
    fn escape_produces_parseable_strings() {
        let raw = "line1\nline2\t\"quoted\" \\ end\u{1}";
        let doc = format!("\"{}\"", escape(raw));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(raw));
    }
}
