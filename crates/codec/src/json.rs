//! A minimal JSON document model with a canonical writer and a
//! recursive-descent parser — no dependencies beyond `std`.
//!
//! # Canonical form
//!
//! [`Value::render`] is *deterministic*: object members keep their
//! construction order (every [`Encode`](crate::Encode) impl fixes its field
//! order), arrays keep element order, no insignificant whitespace is
//! emitted, and numbers are written with Rust's shortest-round-trip float
//! formatting. Because the parser reads numbers back with
//! `str::parse::<f64>`, `render → parse → render` is the identity on
//! canonical text — the property the content fingerprints rely on.
//!
//! # Dialect
//!
//! Strict JSON plus three bare tokens for non-finite floats — `Infinity`,
//! `-Infinity`, and `NaN` — which standard JSON cannot represent but
//! cluster specs legitimately contain (a single-GPU virtual device has
//! infinite intra-machine bandwidth). Both sides of the wire speak this
//! codec, so interoperability with strict parsers is not a goal.

use std::fmt;

/// Maximum nesting depth the parser accepts (defense against stack
/// exhaustion from adversarial input on the service's public socket).
const MAX_DEPTH: usize = 128;

/// 2^53: below it every integer is an exact `f64`.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, including the non-finite extension tokens.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Members keep insertion order — canonical rendering
    /// depends on it — and duplicate keys are rejected at parse time.
    Obj(Vec<(String, Value)>),
}

/// Codec failures (parse errors and decode-shape mismatches).
#[derive(Clone, Debug, PartialEq)]
pub enum CodecError {
    /// The input text is not valid (extended) JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        reason: String,
    },
    /// A decoded value did not have the expected shape.
    Decode(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Parse { offset, reason } => {
                write!(f, "JSON parse error at byte {offset}: {reason}")
            }
            CodecError::Decode(reason) => write!(f, "decode error: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl Value {
    /// Builds an object value from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics past 2^53, where `f64` stops representing integers exactly —
    /// nothing HAP encodes (node ids, dims, byte counts) gets close.
    pub fn int(v: u64) -> Value {
        assert!(v <= (1u64 << 53), "integer {v} exceeds exact f64 range");
        Value::Num(v as f64)
    }

    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object member, as a decode error when missing.
    pub fn field(&self, key: &str) -> Result<&Value, CodecError> {
        self.get(key).ok_or_else(|| CodecError::Decode(format!("missing field `{key}`")))
    }

    /// This value as a float.
    pub fn as_f64(&self) -> Result<f64, CodecError> {
        match self {
            Value::Num(v) => Ok(*v),
            other => Err(CodecError::Decode(format!("expected number, got {}", other.kind()))),
        }
    }

    /// This value as an exact unsigned integer.
    pub fn as_u64(&self) -> Result<u64, CodecError> {
        let v = self.as_f64()?;
        if v < 0.0 || v.fract() != 0.0 || v > (1u64 << 53) as f64 {
            return Err(CodecError::Decode(format!("expected unsigned integer, got {v}")));
        }
        Ok(v as u64)
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, CodecError> {
        Ok(self.as_u64()? as usize)
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, CodecError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(CodecError::Decode(format!("expected bool, got {}", other.kind()))),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, CodecError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(CodecError::Decode(format!("expected string, got {}", other.kind()))),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Value], CodecError> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(CodecError::Decode(format!("expected array, got {}", other.kind()))),
        }
    }

    /// Short type name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Renders the canonical text form (see module docs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Writes the canonical text form into any [`fmt::Write`] sink: a
    /// `String` to build the text, or a hasher that digests the bytes
    /// without ever holding them (the content fingerprints). One routine
    /// serves both, so a fingerprint always covers exactly the bytes
    /// [`Value::render`] produces. Errors only when the sink errors.
    pub fn render_into<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(true) => out.write_str("true"),
            Value::Bool(false) => out.write_str("false"),
            Value::Num(v) => render_num(*v, out),
            Value::Str(s) => render_str(s, out),
            Value::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.render_into(out)?;
                }
                out.write_char(']')
            }
            Value::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    render_str(k, out)?;
                    out.write_char(':')?;
                    v.render_into(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Writes a float in its canonical text form: Rust's shortest
/// round-tripping decimal, or the dialect's bare non-finite tokens.
fn render_num<W: fmt::Write + ?Sized>(v: f64, out: &mut W) -> fmt::Result {
    if v.is_nan() {
        out.write_str("NaN")
    } else if v == f64::INFINITY {
        out.write_str("Infinity")
    } else if v == f64::NEG_INFINITY {
        out.write_str("-Infinity")
    } else if v.abs() < EXACT_INT_LIMIT && (v as i64) as f64 == v {
        // Integers are most of what the codec writes (node ids, dims,
        // byte counts). Below 2^53 the shortest round-trip form of an
        // integral float is its exact digits, so they are written
        // directly instead of through the float formatter. (The i64
        // round trip tests integrality without `f64::trunc`, a library
        // call on baseline x86-64; -0.0 passes and keeps its sign, as
        // the formatter writes it.)
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        let mut n = v.abs() as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v.is_sign_negative() {
            out.write_char('-')?;
        }
        out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
    } else {
        write!(out, "{v}")
    }
}

/// Writes a quoted string, escaping quotes, backslashes and control
/// characters. Runs of characters that need no escape go out as one
/// slice.
fn render_str<W: fmt::Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    // Every escaped character is ASCII, and no byte of a multi-byte
    // UTF-8 sequence is, so scanning bytes finds exactly the characters
    // to escape and every slice boundary is a character boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue; // the common case: written as part of the run
        }
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            control => {
                out.write_str(&s[run..i])?;
                write!(out, "\\u{control:04x}")?;
                run = i + 1;
                continue;
            }
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Parses one JSON document, requiring the whole input to be consumed
/// (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, CodecError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> CodecError {
        CodecError::Parse { offset: self.pos, reason: reason.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), CodecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, CodecError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'N') if self.eat_word("NaN") => Ok(Value::Num(f64::NAN)),
            Some(b'I') if self.eat_word("Infinity") => Ok(Value::Num(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Value::Num(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, CodecError> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, CodecError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest run without escapes or quotes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired: the
                            // canonical writer never emits them (it escapes
                            // only control characters).
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII by construction");
        text.parse::<f64>().map(Value::Num).map_err(|_| CodecError::Parse {
            offset: start,
            reason: format!("bad number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.25", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.render(), text, "canonical form of {text}");
            assert_eq!(parse(&v.render()).unwrap(), v);
        }
        // Exponent input is accepted; the canonical form is positional
        // (Rust's `Display`), and re-parsing it recovers the exact value.
        let v = parse("1e300").unwrap();
        assert_eq!(parse(&v.render()).unwrap().as_f64().unwrap().to_bits(), 1e300f64.to_bits());
    }

    #[test]
    fn nonfinite_dialect_tokens() {
        assert_eq!(parse("Infinity").unwrap(), Value::Num(f64::INFINITY));
        assert_eq!(parse("-Infinity").unwrap(), Value::Num(f64::NEG_INFINITY));
        assert!(matches!(parse("NaN").unwrap(), Value::Num(v) if v.is_nan()));
        assert_eq!(Value::Num(f64::INFINITY).render(), "Infinity");
        assert_eq!(Value::Num(f64::NEG_INFINITY).render(), "-Infinity");
        assert_eq!(Value::Num(f64::NAN).render(), "NaN");
    }

    #[test]
    fn float_rendering_is_shortest_round_trip() {
        for v in [0.1, 1.0 / 3.0, 1e-300, f64::MIN_POSITIVE, 123456789.12345] {
            let rendered = Value::Num(v).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {rendered}");
        }
    }

    #[test]
    fn containers_and_whitespace() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.render(), "{\"a\":[1,2.5,\"x\"],\"b\":{}}");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("missing").is_none());
        // Canonical text re-parses to the same value, and re-renders
        // identically (the fingerprint-stability property).
        let again = parse(&v.render()).unwrap();
        assert_eq!(again, v);
        assert_eq!(again.render(), v.render());
    }

    #[test]
    fn string_escapes() {
        let s = "quote\" slash\\ nl\n tab\t ctrl\u{1} unicode\u{00e9}";
        let rendered = Value::Str(s.to_string()).render();
        assert_eq!(parse(&rendered).unwrap(), Value::Str(s.to_string()));
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::Str("é".to_string()));
    }

    #[test]
    fn errors_are_reported() {
        for bad in ["", "{", "[1,]", "{\"a\":1,\"a\":2}", "tru", "\"unterminated", "01a", "[1 2]"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = Value::obj(vec![("z", Value::int(1)), ("a", Value::int(2))]);
        assert_eq!(v.render(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn integer_accessors_validate() {
        assert_eq!(parse("7").unwrap().as_u64().unwrap(), 7);
        assert!(parse("7.5").unwrap().as_u64().is_err());
        assert!(parse("-7").unwrap().as_u64().is_err());
        assert!(parse("true").unwrap().as_f64().is_err());
    }
}
