//! A minimal JSON parser for the trace-validation tooling.
//!
//! The exporters in this crate *write* JSON by hand; this module lets the
//! CLI and tests *read* it back (schema checks, determinism diagnostics)
//! without external dependencies. It accepts the JSON the exporters emit
//! plus ordinary interchange JSON; it is not meant as a general-purpose
//! spec-complete parser.

/// A parsed JSON value. Object keys keep document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
}

/// Nesting deeper than this many arrays and objects is an error, not a
/// stack overflow: hostile files reach [`parse`] through the CLI.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error, and so
/// is nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let open = matches!(b.get(*pos), Some(b'{' | b'['));
    if open && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Advances past a run of ASCII digits; returns how many there were.
fn digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// Parses an RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
/// ([eE] [+-]? [0-9]+)?`. No leading `+`, no bare `.5` or `1.`.
fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_ok = match digits(b, pos) {
        0 => false,
        n => n == 1 || b[int_start] != b'0',
    };
    let frac_ok = b.get(*pos) != Some(&b'.') || {
        *pos += 1;
        digits(b, pos) > 0
    };
    let exp_ok = !matches!(b.get(*pos), Some(b'e' | b'E')) || {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(b, pos) > 0
    };
    // Everything scanned is ASCII, so the slice is valid UTF-8.
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(n) if int_ok && frac_ok && exp_ok => Ok(Json::Num(n)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

/// Reads the four hex digits of a `\u` escape whose `u` is at `pos`,
/// leaving `pos` on the last digit. Signs and short runs are errors.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
    let mut code = 0;
    for &h in hex {
        let d = char::from(h)
            .to_digit(16)
            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
        code = code * 16 + d;
    }
    *pos += 4;
    Ok(code)
}

/// Decodes the `\u` escape at `pos` (on the `u`), combining a UTF-16
/// surrogate pair into one scalar; a lone surrogate is an error.
fn unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos;
    let lone = || format!("lone surrogate in \\u escape at byte {at}");
    let code = hex4(b, pos)?;
    let code = match code {
        0xD800..=0xDBFF => {
            if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                return Err(lone());
            }
            *pos += 2;
            let low = hex4(b, pos)?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(lone());
            }
            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(lone()),
        code => code,
    };
    char::from_u32(code).ok_or_else(lone)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(unicode_escape(b, pos)?),
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Collect a run of plain bytes at once.
                let start = *pos;
                let mut end = *pos;
                let mut cur = c;
                loop {
                    if cur == b'"' || cur == b'\\' {
                        break;
                    }
                    end += 1;
                    match b.get(end) {
                        Some(&n) => cur = n,
                        None => break,
                    }
                }
                out.push_str(std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

/// Parses the array at `pos`, itself the `depth`-th open container.
fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' in array, got {other:?}")),
        }
    }
}

/// Parses the object at `pos`, itself the `depth`-th open container.
fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' in object, got {other:?}")),
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (used by exporters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(doc.get("d").unwrap().as_obj().unwrap().len(), 0);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"k\" 1}").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let raw = "line\none\t\"quoted\" \\slash\u{1}";
        let parsed = parse(&format!("\"{}\"", escape(raw))).unwrap();
        assert_eq!(parsed.as_str(), Some(raw));
    }

    #[test]
    fn object_keys_keep_document_order() {
        let doc = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let fields = doc.as_obj().unwrap();
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(20_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(20_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_errors() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1f600}"));
        assert_eq!(parse(r#""\ud83d\ude00!""#).unwrap().as_str(), Some("\u{1f600}!"));
        assert!(parse(r#""\ud83d""#).is_err(), "high surrogate alone");
        assert!(parse(r#""\ude00""#).is_err(), "low surrogate alone");
        assert!(parse(r#""\ud83d\u0041""#).is_err(), "high surrogate, then no low");
        assert!(parse(r#""\ud83dx""#).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u00E9""#).unwrap().as_str(), Some("\u{e9}"));
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""\u41""#).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        assert!(parse("+1").is_err());
        assert!(parse("[+1]").is_err());
        assert_eq!(parse("1e+5").unwrap(), Json::Num(1e5));
        assert_eq!(parse("-0.25E-2").unwrap(), Json::Num(-0.0025));
        assert_eq!(parse("0").unwrap(), Json::Num(0.0));
        for bad in ["01", ".5", "1.", "-", "1e", "1e+", "--1", "1-2"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
