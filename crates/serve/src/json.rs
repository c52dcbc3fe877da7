//! Minimal JSON *reader* for request bodies.
//!
//! The tool chain already owns a JSON writer (`mems_netlist::report`'s
//! NaN-safe emitter); the serve protocol additionally needs to *parse*
//! the small request documents clients POST (`{"deck": "...",
//! "client": "ci"}`). This is a strict recursive-descent reader for
//! exactly the JSON grammar — objects, arrays, strings with the full
//! escape set (`\uXXXX` incl. surrogate pairs), numbers, literals —
//! with byte offsets in every error. No serde, matching the repo's
//! offline no-new-deps style.

use std::collections::BTreeMap;

/// Deepest array/object nesting the reader accepts. The reader
/// recurses once per level on a connection thread's stack, and no
/// request document needs more than a few levels.
const MAX_DEPTH: usize = 256;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keyed map — the serve protocol never depends on
    /// member order, and a map gives O(log n) lookups.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects
    /// fractional and negative values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes, appended as one UTF-8
            // slice (multibyte deck titles never hit the escape path).
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(c) => return Err(format!("raw control byte {c:#04x} at byte {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(format!("unpaired surrogate before byte {}", self.pos));
                        }
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(cp)
                            .ok_or_else(|| format!("bad surrogate pair before byte {}", self.pos))?
                    } else {
                        return Err(format!("unpaired surrogate before byte {}", self.pos));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(format!("unpaired surrogate before byte {}", self.pos));
                } else {
                    char::from_u32(hi).expect("BMP scalar")
                }
            }
            other => return Err(format!("bad escape `\\{}`", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape `{text}` at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"hi\"").unwrap().as_str().unwrap(),
            "hi".to_string()
        );
    }

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(r#"{"deck":"r1 a b 1k","opts":{"threads":4},"tags":[1,2]}"#).unwrap();
        assert_eq!(doc.get("deck").unwrap().as_str(), Some("r1 a b 1k"));
        assert_eq!(
            doc.get("opts").unwrap().get("threads").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            doc.get("tags").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        );
    }

    #[test]
    fn resolves_the_full_escape_set() {
        let s = Json::parse(r#""q\" b\\ s\/ \b\f\n\r\t uA""#).unwrap();
        assert_eq!(
            s.as_str().unwrap(),
            "q\" b\\ s/ \u{8}\u{c}\n\r\t uA".to_string()
        );
    }

    #[test]
    fn resolves_surrogate_pairs() {
        let s = Json::parse(r#""🌀""#).unwrap();
        assert_eq!(s.as_str().unwrap(), "\u{1f300}");
        assert!(Json::parse(r#""\ud83c x""#).is_err());
        assert!(Json::parse(r#""\udf00""#).is_err());
    }

    #[test]
    fn round_trips_the_writers_escapes() {
        // Whatever the report writer escapes, this reader must give
        // back verbatim — deck titles and probe labels round-trip
        // through the serve protocol.
        for nasty in ["x1.mid", "say \"hi\"\\no", "ctl\u{1}\u{1f}", "xµ.共振 β"] {
            let doc = format!("{{\"t\":\"{}\"}}", mems_netlist::report::json_escape(nasty));
            let back = Json::parse(&doc).unwrap();
            assert_eq!(back.get("t").unwrap().as_str(), Some(nasty));
        }
    }

    #[test]
    fn bounds_nesting_depth() {
        let nested = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let objects = format!("{}1{}", r#"{"a":"#.repeat(100_000), "}".repeat(100_000));
        assert!(Json::parse(&objects)
            .unwrap_err()
            .contains("nesting deeper"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
