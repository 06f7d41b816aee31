//! A minimal, dependency-free JSON value. It is the wire codec of
//! `rumor worker`, `rumor serve` and the sweep dispatcher (every
//! request and response frame), and it writes and reads the
//! deterministic `.metrics.json` and `.fleet.json` artifacts.
//!
//! Both directions cost what their bytes cost. The parser copies each
//! run of a string up to the next `"` or `\` once, and the writer
//! copies each run between bytes that need an escape with one
//! `push_str`, so decoding or encoding a document is linear in its
//! length: no request can hold a service loop by carrying a long
//! string. Nesting is bounded by [`MAX_DEPTH`].
//!
//! The writer is byte-deterministic: object keys keep insertion order,
//! numbers render as Rust's shortest round-trip `Display` for `f64`
//! does (platform-independent), and layout is fixed (2-space
//! indentation, scalar arrays inline). Only the JSON subset these
//! documents use is supported — notably, non-finite numbers are
//! rejected at write time rather than silently mangled.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order and must be unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Takes a key's value out of an object value, keeping the other
    /// fields in order.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => {
                let at = fields.iter().position(|(k, _)| k == key)?;
                Some(fields.remove(at).1)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as deterministic, pretty-printed JSON text
    /// ending in a newline.
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers — the metrics layer must filter
    /// censoring sentinels before building the document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// `true` when every element of an array is a scalar (rendered
    /// inline rather than one element per line).
    fn is_scalar(&self) -> bool {
        matches!(self, Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON cannot represent non-finite numbers");
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else if items.iter().all(Json::is_scalar) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, depth);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        item.write(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses JSON text (the full scalar/array/object grammar with
    /// `\uXXXX` escapes; numbers via Rust's float parser).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input, and on
    /// arrays and objects nested deeper than [`MAX_DEPTH`] — the parser
    /// recurses per level, so untrusted input must not pick the depth.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` quoted and escaped: each run between bytes that need an
/// escape is copied with one `push_str`. Those bytes are ASCII, so
/// every run ends on a char boundary.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts; every
/// artifact this workspace writes nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    /// Reads a string: each run up to the next `"`, `\` or raw control
    /// character (below 0x20, which JSON requires escaped) is copied
    /// once. All three are ASCII, so every run ends on a char boundary
    /// of the input, and the whole string costs its bytes.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character in string at byte {}", self.pos));
                }
                Some(_) => {
                    // A backslash: one escape.
                    self.pos += 1;
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
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate and a low one escaped right
                            // after it are one char; any other surrogate is
                            // no code point.
                            let next = self.bytes().get(self.pos + 1..self.pos + 3);
                            if (0xD800..0xDC00).contains(&code) && next == Some(b"\\u") {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The value of the four hex digits of a `\\u` escape at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes().get(at..at + 4).ok_or("truncated \\u escape")?;
        let digit = |acc: u32, &b: &u8| Some(acc * 16 + char::from(b).to_digit(16)?);
        hex.iter().try_fold(0, digit).ok_or_else(|| "bad \\u escape".to_owned())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    #[test]
    fn render_parse_round_trips() {
        let doc = obj(vec![
            ("schema", Json::Str("rumor-metrics v1".to_owned())),
            ("trials", Json::Num(60.0)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("grid", Json::Arr(vec![Json::Num(0.5), Json::Num(1.25), Json::Num(1e-9)])),
            (
                "nested",
                obj(vec![(
                    "points",
                    Json::Arr(vec![
                        Json::Arr(vec![Json::Num(0.0), Json::Num(1.0)]),
                        Json::Arr(vec![Json::Num(2.0), Json::Num(0.98333)]),
                    ]),
                )]),
            ),
        ]);
        let text = doc.render();
        assert!(text.ends_with('\n'));
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Rendering is a fixed point: parse then re-render is identical.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::Str("a \"quoted\"\nline\twith \\ and \u{1}".to_owned());
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".to_owned()));
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let doc = obj(vec![("a", Json::Num(3.5)), ("b", Json::Arr(vec![Json::Num(1.0)]))]);
        assert_eq!(doc.get("a").and_then(Json::as_num), Some(3.5));
        assert_eq!(doc.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Str("x".to_owned()).as_str(), Some("x"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "\"unterminated", "{} extra"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the limit (and past any stack): a typed error, not
        // an overflow.
        assert!(Json::parse(&"[{\"a\":".repeat(100_000)).is_err());
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_refuse_to_render() {
        Json::Num(f64::INFINITY).render();
    }

    #[test]
    fn string_errors_keep_their_messages() {
        let err = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(err("\"abc"), "unterminated string");
        assert_eq!(err("\"ab\\"), "bad escape at byte 4");
        assert_eq!(err("[\"é\\q\"]"), "bad escape at byte 5");
        assert_eq!(err("\"\\u12"), "truncated \\u escape");
        assert_eq!(err("\"\\u12zz\""), "bad \\u escape");
        assert_eq!(err("\"\\u12é\""), "bad \\u escape");
        assert_eq!(err("\"\\ud800\""), "bad \\u code point");
        assert_eq!(err("\"\\u+041\""), "bad \\u escape");
        assert_eq!(err("\"a\tb\""), "raw control character in string at byte 2");
        assert_eq!(err("[\"é\n\"]"), "raw control character in string at byte 4");
        assert_eq!(err("{\"\u{0}\": 1}"), "raw control character in string at byte 2");
        assert_eq!(err("\"\u{1f}"), "raw control character in string at byte 1");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // Python's `json.dumps` writes 😀 this way by default.
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".to_owned()));
        assert_eq!(Json::parse("\"a\\uD83D\\uDE00b\"").unwrap(), Json::Str("a😀b".to_owned()));
        let err = |text: &str| Json::parse(text).unwrap_err();
        // Lone, reversed and unpaired surrogates are no code points.
        for bad in ["\"\\ude00\"", "\"\\ude00\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\""] {
            assert_eq!(err(bad), "bad \\u code point", "{bad}");
        }
        assert_eq!(err("\"\\ud83d\\ude0\""), "bad \\u escape");
    }

    /// Finite numbers around every rendering boundary: ±0, integers up
    /// to and past 2^53, 1e21, subnormals, arbitrary bit patterns.
    struct Number;

    impl Strategy for Number {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let r = rng.next_u64();
            let x = match r % 8 {
                0 => [0.0, 1e21, 1e22, 5e-324, f64::MIN_POSITIVE, f64::MAX, 0.1, 1.5]
                    [(r >> 3) as usize % 8],
                1 => ((r >> 3) % 1000) as f64,
                2 => ((r >> 3) % (1 << 54)) as f64,
                3 => 2f64.powi(53) + ((r >> 3) % 64) as f64 - 32.0,
                4 => (r >> 3) as f64,
                5 => f64::from_bits((r >> 3) % (1 << 52)),
                6 => ((r >> 3) % 1_000_000) as f64 / 1000.0,
                _ => Some(f64::from_bits(rng.next_u64())).filter(|x| x.is_finite()).unwrap_or(2.5),
            };
            sign * x
        }
    }

    /// Arbitrary Unicode: quotes, backslashes, every control character,
    /// and 1- to 4-byte UTF-8.
    struct Text;

    impl Strategy for Text {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            let len = rng.next_u64() % 12;
            (0..len)
                .map(|_| {
                    let r = rng.next_u64();
                    let code = match r % 6 {
                        0 => [0x22, 0x5c, 0x2f, 0x7f][(r >> 3) as usize % 4],
                        1 => (r >> 3) as u32 % 0x20,
                        2 => 0x20 + (r >> 3) as u32 % 0x5f,
                        3 => 0x80 + (r >> 3) as u32 % 0x780,
                        4 => 0x800 + (r >> 3) as u32 % 0xf800,
                        _ => 0x1_0000 + (r >> 3) as u32 % 0x10_0000,
                    };
                    char::from_u32(code).unwrap_or('\u{fffd}')
                })
                .collect()
        }
    }

    /// A random tree at most `depth` containers deep.
    struct Tree(u32);

    impl Strategy for Tree {
        type Value = Json;

        fn sample(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.0 == 0 { 4 } else { 6 };
            let len = rng.next_u64() % 5;
            match rng.next_u64() % kinds {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64() & 1 == 1),
                2 => Json::Num(Number.sample(rng)),
                3 => Json::Str(Text.sample(rng)),
                4 => Json::Arr((0..len).map(|_| Tree(self.0 - 1).sample(rng)).collect()),
                _ => Json::Obj(
                    (0..len).map(|_| (Text.sample(rng), Tree(self.0 - 1).sample(rng))).collect(),
                ),
            }
        }
    }

    /// Text near and far from JSON: token soup, and rendered trees cut
    /// or spliced at a random char boundary.
    struct Garbage;

    impl Strategy for Garbage {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            const TOKENS: [&str; 20] = [
                "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u00", "-", "1", "e9", ".",
                "true", "null", " ", "é", "😀", "\u{1}",
            ];
            let soup = |rng: &mut TestRng| -> String {
                let len = rng.next_u64() % 24;
                (0..len).map(|_| TOKENS[rng.next_u64() as usize % TOKENS.len()]).collect()
            };
            if rng.next_u64() & 1 == 0 {
                return soup(rng);
            }
            let text = Tree(3).sample(rng).render();
            let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
            let at = cuts[rng.next_u64() as usize % cuts.len()];
            if rng.next_u64() & 1 == 0 {
                text[..at].to_owned()
            } else {
                format!("{}{}{}", &text[..at], soup(rng), &text[at..])
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn render_then_parse_is_the_identity(doc in Tree(3)) {
            let text = doc.render();
            let back = Json::parse(&text);
            prop_assert_eq!(back.as_ref(), Ok(&doc));
            prop_assert_eq!(back.unwrap().render(), text);
        }

        #[test]
        fn numbers_render_as_display(x in Number) {
            let text = Json::Num(x).render();
            prop_assert_eq!(&text, &format!("{x}\n"));
            let back = Json::parse(&text).unwrap().as_num().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }

        #[test]
        fn arbitrary_text_never_panics(text in Garbage) {
            let _ = Json::parse(&text);
        }
    }
}
