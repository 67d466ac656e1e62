//! A minimal JSON reader for campaign specs.
//!
//! The workspace is built offline (no `serde`), so the serving front end
//! carries its own small recursive-descent parser. Numbers keep their raw
//! token text: specs round-trip seeds as exact `u64`s and sparsity
//! fractions as exact `f64` bit patterns (Rust's shortest-round-trip
//! float formatting), which the content-hashed memo keys depend on.

/// Deepest array/object nesting [`Json::parse`] accepts; deeper documents
/// are rejected instead of exhausting the stack (campaign specs nest 5
/// levels).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text for lossless reads.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` for non-objects).
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64` (exact for tokens written by shortest-round-trip
    /// formatting).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as exact `u64` (integer tokens only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in source order, if this is an object (the v2
    /// spec schema iterates config-override objects).
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(byte), *pos))
    }
}

/// Parses one value nested inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_owned())?;
    if token.is_empty() || token.parse::<f64>().is_err() {
        return Err(format!("bad number `{token}` at byte {start}"));
    }
    Ok(Json::Num(token.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // Surrogate pair: a `\uXXXX` low half must follow.
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => parse_hex4(bytes, *pos + 3)?,
                                _ => return Err("lone high surrogate".to_owned()),
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!("unpaired high surrogate at byte {pos}"));
                            }
                            *pos += 6;
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                        out.push(
                            char::from_u32(code).ok_or_else(|| "bad unicode escape".to_owned())?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x20 => {
                return Err(format!("raw control byte in string at {}", *pos))
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote,
                // escape or control byte in one piece. Multi-byte UTF-8
                // sequences contain none of those bytes, so the run ends
                // on a char boundary of the input `&str`.
                let rest = &bytes[*pos..];
                let end = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(&rest[..end])
                    .map_err(|_| "bad utf8 in string".to_owned())?;
                out.push_str(run);
                *pos += end;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let digits = bytes
        .get(start..start + 4)
        .ok_or("truncated unicode escape")?;
    // Exactly four hex digits, no sign (which `from_str_radix` accepts).
    digits.iter().try_fold(0, |code, &digit| {
        let value = char::from(digit).to_digit(16).ok_or("bad unicode escape")?;
        Ok(code * 16 + value)
    })
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in generated JSON — the engine's report
/// escaping, shared so spec and report serialization cannot drift apart.
pub fn escape(value: &str) -> String {
    loas_engine::json_escape(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#" {"name": "demo", "jobs": [{"seed": 18446744073709551615, "x": -1.5e3,
            "flag": true, "none": null, "text": "a\"b\\c\ndA😀"}]} "#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("demo"));
        let job = &parsed.get("jobs").unwrap().as_arr().unwrap()[0];
        // u64::MAX survives exactly (f64 would round it).
        assert_eq!(job.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(job.get("x").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(job.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(job.get("none"), Some(&Json::Null));
        assert_eq!(
            job.get("text").unwrap().as_str(),
            Some("a\"b\\c\ndA\u{1F600}")
        );
    }

    #[test]
    fn float_tokens_round_trip_bit_exactly() {
        for value in [0.823_f64, 0.1 + 0.2, 128.0, f64::MIN_POSITIVE] {
            let doc = format!("{{\"v\": {value}}}");
            let parsed = Json::parse(&doc).unwrap();
            assert_eq!(
                parsed.get("v").unwrap().as_f64().unwrap().to_bits(),
                value.to_bits()
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
            r#""\ud800\u0041""#,
            r#""\ud800\uffff""#,
            r#""\u+041""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // A million open brackets used to overflow the stack.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1.4 MB of mixed one-, two- and four-byte characters around an
        // escape: re-validating the rest of the input per character (a
        // quadratic parse) takes minutes here.
        let body = "aé😀".repeat(100_000);
        let doc = format!("[\"{body}\\n{body}\"]");
        let parsed = Json::parse(&doc).unwrap();
        let expected = format!("{body}\n{body}");
        assert_eq!(
            parsed.as_arr().unwrap()[0].as_str(),
            Some(expected.as_str())
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t control\u{1}";
        let doc = format!("{{\"v\": \"{}\"}}", escape(nasty));
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("v").unwrap().as_str(), Some(nasty));
    }
}
