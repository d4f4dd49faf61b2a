//! Minimal hand-rolled JSON support for the exporters and validators.
//!
//! The workspace deliberately carries no serde; this module provides the
//! two halves the observability pipeline needs: deterministic formatting
//! helpers for the writers, and a small recursive-descent parser the CI
//! smoke validators use to check exported traces without external tools.
//! The parser rejects duplicate object keys and nesting deeper than 128
//! levels, so hostile input is an error, not a stack overflow.

/// Deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 128;

/// Formats an `f64` deterministically for JSON output.
///
/// Rust's `Display` for `f64` is the shortest string that round-trips,
/// which is deterministic across runs and platforms and never uses an
/// exponent for the magnitudes the simulator produces. Non-finite values
/// (invalid JSON) are mapped to `0`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for inclusion in a JSON string literal (no quotes).
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

/// Why [`Json::parse`] rejected a document. Each variant carries where
/// it stopped; `Display` renders the message the validators and
/// `memtis diff` print.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Bytes follow the document.
    TrailingData {
        /// Offset of the first one.
        at: usize,
    },
    /// A required byte is missing at `at`; `found` is what is there.
    Expected {
        /// The byte the grammar requires.
        want: char,
        /// Offset of the mismatch.
        at: usize,
        /// What the input holds there (`None` at its end).
        found: Option<char>,
    },
    /// An array or object opens deeper than 128 levels.
    TooDeep {
        /// Offset of its opening bracket.
        at: usize,
    },
    /// No value starts here.
    Unexpected {
        /// The byte found (`None`: the input ended).
        found: Option<u8>,
        /// Its offset.
        at: usize,
    },
    /// A misspelt `true`, `false` or `null`.
    InvalidLiteral {
        /// Offset of its first byte.
        at: usize,
    },
    /// An object repeats a key.
    DuplicateKey {
        /// The key.
        key: String,
        /// Offset of its second occurrence.
        at: usize,
    },
    /// An object member is followed by neither `,` nor `}`.
    UnclosedObject {
        /// What follows it (`None`: the input ended).
        found: Option<u8>,
    },
    /// An array element is followed by neither `,` nor `]`.
    UnclosedArray {
        /// What follows it (`None`: the input ended).
        found: Option<u8>,
    },
    /// The input ends inside a string.
    UnterminatedString,
    /// A `\u` escape runs past the end of the input.
    TruncatedUnicodeEscape,
    /// A `\u` escape is not four hex digits.
    BadUnicodeEscape,
    /// A backslash is followed by a byte that starts no escape.
    BadEscape {
        /// That byte (`None`: the input ended).
        found: Option<u8>,
    },
    /// A run of number characters does not parse as a number.
    BadNumber {
        /// The run.
        text: String,
        /// Its offset.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::TrailingData { at } => write!(f, "trailing data at byte {at}"),
            JsonError::Expected { want, at, found } => {
                write!(f, "expected '{want}' at byte {at}, found {found:?}")
            }
            JsonError::TooDeep { at } => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            JsonError::Unexpected { found, at } => write!(f, "unexpected {found:?} at byte {at}"),
            JsonError::InvalidLiteral { at } => write!(f, "invalid literal at byte {at}"),
            JsonError::DuplicateKey { key, at } => write!(f, "duplicate key {key:?} at byte {at}"),
            JsonError::UnclosedObject { found } => {
                write!(f, "expected ',' or '}}', found {found:?}")
            }
            JsonError::UnclosedArray { found } => write!(f, "expected ',' or ']', found {found:?}"),
            JsonError::UnterminatedString => f.write_str("unterminated string"),
            JsonError::TruncatedUnicodeEscape => f.write_str("truncated \\u escape"),
            JsonError::BadUnicodeEscape => f.write_str("bad \\u escape"),
            JsonError::BadEscape { found } => write!(f, "bad escape {found:?}"),
            JsonError::BadNumber { text, at } => write!(f, "bad number {text:?} at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object: its members sorted by key, keys unique (input order is not
    /// preserved). One vector per object, sized by its members, keeps a
    /// parse's heap proportional to its input; a map node per object cost
    /// up to 126 bytes per input byte.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// Number (all JSON numbers parse as `f64`).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage,
    /// duplicate object keys and nesting deeper than 128 levels.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            s: input,
            b: input.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(JsonError::TrailingData { at: p.i });
        }
        Ok(v)
    }

    /// Member lookup when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m
                .binary_search_by(|(k, _)| k.as_str().cmp(key))
                .ok()
                .map(|i| &m[i].1),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(JsonError::Expected {
                want: c as char,
                at: self.i,
                found: self.peek().map(|b| b as char),
            })
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { at: self.i });
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            found => Err(JsonError::Unexpected { found, at: self.i }),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(JsonError::InvalidLiteral { at: self.i })
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = Vec::new();
        let members = self.members(&mut m);
        // A repeated key is reported ahead of any later error, as if each
        // key had been checked as it was read.
        match (first_repeat(&mut m), members) {
            (Some(dup), _) | (None, Err(dup)) => Err(dup),
            (None, Ok(())) => Ok(Json::Obj(m.into_iter().map(|(k, v, _)| (k, v)).collect())),
        }
    }

    /// Reads an object's members up to its `}` into `m`, each with its
    /// key's offset. A key is in `m` from when it is read, so a failure
    /// inside its value still sees it.
    fn members(&mut self, m: &mut Vec<(String, Json, usize)>) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let at = self.i;
            let k = self.string()?;
            m.push((k, Json::Null, at));
            self.skip_ws();
            self.expect(b':')?;
            m.last_mut().expect("its key was pushed above").1 = self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                found => return Err(JsonError::UnclosedObject { found }),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(a));
        }
        loop {
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                found => return Err(JsonError::UnclosedArray { found }),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::UnterminatedString),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err(JsonError::TruncatedUnicodeEscape);
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| JsonError::BadUnicodeEscape)?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::BadUnicodeEscape)?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        found => return Err(JsonError::BadEscape { found }),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary of the input.
                    let start = self.i;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    s.push_str(&self.s[start..self.i]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::BadNumber {
                text: text.to_string(),
                at: start,
            })
    }
}

/// Sorts an object's members by key and returns the error for its first
/// repeated key in input order, if any. The sort is stable, so equal keys
/// stay in input order and each run of them ends in its repeats.
fn first_repeat(m: &mut [(String, Json, usize)]) -> Option<JsonError> {
    m.sort_by(|a, b| a.0.cmp(&b.0));
    m.windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .min_by_key(|w| w[1].2)
        .map(|w| JsonError::DuplicateKey {
            key: w[1].0.clone(),
            at: w[1].2,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_is_plain_and_roundtrips() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(1234567.0), "1234567");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        let v = 0.123456789;
        assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_roundtrip() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null, "e": {}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Obj(Default::default())));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, JsonError::TooDeep { at: MAX_DEPTH });
        // Deep enough to overflow the stack of an unbounded parser.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn parse_long_strings_in_linear_time() {
        // A quadratic scan takes minutes on this input in a debug build.
        let body = "é\\n".repeat(400_000);
        let v = Json::parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v.as_str().unwrap(), "é\n".repeat(400_000));
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        let err = Json::parse(r#"{"wall_ns":1.0,"wall_ns":2.0}"#).unwrap_err();
        assert_eq!(
            err,
            JsonError::DuplicateKey {
                key: "wall_ns".into(),
                at: 15
            }
        );
        assert!(Json::parse(r#"{"a":{"b":1,"b":1}}"#).is_err());
        // The same key in sibling objects is fine.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
        // The first repeat in input order is the one reported, ahead of
        // any later error, at any depth.
        let dup = |key: &str, at| JsonError::DuplicateKey {
            key: key.into(),
            at,
        };
        for (doc, want) in [
            (r#"{"b":0,"a":1,"b":2,"a":3}"#, dup("b", 13)),
            (r#"{"a":1,"a":{"x":1,"x":2}}"#, dup("a", 7)),
            (r#"{"a":{"x":1,"x":2},"a":1}"#, dup("x", 12)),
            (r#"{"k":1,"k":2"#, dup("k", 7)),
            (r#"{"k":1,"k":[}"#, dup("k", 7)),
            (r#"{"k":1,"k""#, dup("k", 7)),
        ] {
            assert_eq!(Json::parse(doc), Err(want), "{doc}");
        }
    }

    #[test]
    fn objects_hold_their_members_sorted_by_key() {
        let v = Json::parse(r#"{"b":1,"c":2,"a":3}"#).unwrap();
        let Json::Obj(m) = &v else {
            panic!("not an object: {v:?}")
        };
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("d"), None);
    }

    /// Every rejection has a typed cause whose message is the text the
    /// validators and `memtis diff` have always printed.
    #[test]
    fn parse_errors_are_typed_and_keep_their_messages() {
        let cases: [(&str, JsonError, &str); 13] = [
            (
                "{} x",
                JsonError::TrailingData { at: 3 },
                "trailing data at byte 3",
            ),
            (
                r#"{"a" 1}"#,
                JsonError::Expected {
                    want: ':',
                    at: 5,
                    found: Some('1'),
                },
                "expected ':' at byte 5, found Some('1')",
            ),
            (
                "[[",
                JsonError::Unexpected { found: None, at: 2 },
                "unexpected None at byte 2",
            ),
            (
                "x",
                JsonError::Unexpected {
                    found: Some(b'x'),
                    at: 0,
                },
                "unexpected Some(120) at byte 0",
            ),
            (
                "tru",
                JsonError::InvalidLiteral { at: 0 },
                "invalid literal at byte 0",
            ),
            (
                r#"{"k":1,"k":2}"#,
                JsonError::DuplicateKey {
                    key: "k".into(),
                    at: 7,
                },
                "duplicate key \"k\" at byte 7",
            ),
            (
                r#"{"a":1 2}"#,
                JsonError::UnclosedObject { found: Some(b'2') },
                "expected ',' or '}', found Some(50)",
            ),
            (
                "[1 2]",
                JsonError::UnclosedArray { found: Some(b'2') },
                "expected ',' or ']', found Some(50)",
            ),
            ("\"ab", JsonError::UnterminatedString, "unterminated string"),
            (
                "\"\\u12",
                JsonError::TruncatedUnicodeEscape,
                "truncated \\u escape",
            ),
            ("\"\\uzzzz\"", JsonError::BadUnicodeEscape, "bad \\u escape"),
            (
                "\"\\q\"",
                JsonError::BadEscape { found: Some(b'q') },
                "bad escape Some(113)",
            ),
            (
                "-1e",
                JsonError::BadNumber {
                    text: "-1e".into(),
                    at: 0,
                },
                "bad number \"-1e\" at byte 0",
            ),
        ];
        for (doc, want, msg) in cases {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(err, want, "{doc:?}");
            assert_eq!(err.to_string(), msg, "{doc:?}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            Json::parse(&deep).unwrap_err().to_string(),
            format!("nesting deeper than 128 at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn parse_escapes() {
        let v = Json::parse(r#""aA\t""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t"));
    }
}
