//! The workspace's one JSON reader and writer.
//!
//! Every JSON byte the stack reads or writes passes through here: the
//! serve wire protocol, experiment reports, the campaign journal, its
//! index and the cell cache, trace records and metric snapshots.
//!
//! Writing comes in two forms. A [`Json`] tree renders with its object
//! keys sorted ([`Json::render`]), the canonical form of the wire.
//! Streamed lines (reports, journal and cache lines, trace records,
//! snapshots) are assembled by their callers in a fixed key order with
//! [`write_str`] and [`write_f64`]. Floats use Rust's shortest
//! round-trip `{}` text, so a value reparses to the same bits. JSON has
//! no NaN or infinity, so only finite numbers are written: each caller
//! names the text that stands in for a non-finite value.
//!
//! [`parse`] reads any JSON document. It scans strings in one linear
//! pass, decodes surrogate pairs, and keeps every number as its source
//! token, so a `u64` above 2^53 and the spelling `3` versus `3.0`
//! survive until a caller picks a type. It refuses documents nested
//! deeper than [`MAX_DEPTH`], so hostile input gets an `Err`, never a
//! stack overflow.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace reads, a metrics snapshot, nests 5.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source token (`42`, `-0.5`, `1e-7`).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted, so [`Json::render`] is
    /// canonical whatever the insertion order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An unsigned integer, exact at any size.
    pub fn int(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A float in shortest round-trip text; a non-finite `x` is `null`.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x.to_string())
        } else {
            Json::Null
        }
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value at `key` read through `read` (one of the `as_*`
    /// accessors); a missing or mistyped field is an error naming `key`.
    pub fn field<'a, T>(&'a self, key: &str, read: fn(&'a Json) -> Option<T>) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or mistyped field {key:?}"))
    }

    /// Checks that this is an object with exactly `keys`, in any order.
    pub fn expect_keys(&self, keys: &[&str]) -> Result<(), String> {
        match self {
            Json::Obj(map)
                if map.len() == keys.len() && keys.iter().all(|k| map.contains_key(*k)) =>
            {
                Ok(())
            }
            Json::Obj(map) => Err(format!(
                "expected keys {keys:?}, found {:?}",
                map.keys().collect::<Vec<_>>()
            )),
            _ => Err(format!("expected an object with keys {keys:?}")),
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of items, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number in `f64` range.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse::<f64>().ok().filter(|x| x.is_finite()),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if its token is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// Renders the value as compact JSON with sorted object keys.
    pub fn render(&self) -> String {
        // One allocation covers a wire document (under 128 bytes).
        let mut out = String::with_capacity(128);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(token) => out.push_str(token),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Every byte that needs escaping is ASCII, so `i` is a char
        // boundary and the run before it can be copied whole.
        out.push_str(&s[run..i]);
        run = i + 1;
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
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `x` in shortest round-trip `{}` text, or `non_finite` when
/// `x` is NaN or infinite.
pub fn write_f64(out: &mut String, x: f64, non_finite: &str) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str(non_finite);
    }
}

/// Parses one JSON document. Trailing bytes other than whitespace are
/// an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    /// Parses an array or object one level deeper, within [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                Entry::Occupied(slot) => {
                    return Err(self.err(&format!("duplicate key {:?}", slot.key())));
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A number token: `-? digits (. digits)? ([eE] [+-]? digits)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece: each is ASCII, so the run ends on a
            // char boundary, and no byte is looked at twice.
            let rest = &self.src.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must pair with a low one.
                    self.eat(b'\\')?;
                    self.eat(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn str_of(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn round_trips_flat_objects() {
        let v = Json::obj(vec![
            ("type", Json::Str("submit".to_string())),
            ("id", Json::int(42)),
            ("arrival", Json::num(17.25)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn object_keys_render_sorted() {
        let v = Json::obj(vec![("z", Json::int(1)), ("a", Json::int(2))]);
        assert_eq!(v.render(), "{\"a\":2,\"z\":1}");
    }

    #[test]
    fn floats_survive_bit_for_bit() {
        for x in [0.1, 1.0 / 3.0, 5.010_203, f64::MAX, 1e-300, -0.5, 1e21] {
            let text = Json::num(x).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled to {back}");
        }
    }

    #[test]
    fn floats_write_display_text_and_the_callers_non_finite_rule() {
        let mut out = String::new();
        for (x, or) in [(1.0, "0"), (0.042, "0"), (1e-7, "0"), (f64::NAN, "0")] {
            write_f64(&mut out, x, or);
            out.push(' ');
        }
        write_f64(&mut out, f64::INFINITY, "null");
        assert_eq!(out, "1 0.042 0.0000001 0 null");
        assert_eq!(Json::num(f64::NEG_INFINITY), Json::Null);
    }

    #[test]
    fn integers_keep_their_token() {
        let v = parse("{\"seed\":18446744073709551615,\"i\":3,\"f\":3.0,\"e\":1e3}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(Json::int(u64::MAX).render(), "18446744073709551615");
        assert_eq!(v.get("i"), Some(&Json::Num("3".to_string())));
        assert_eq!(v.get("f"), Some(&Json::Num("3.0".to_string())));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("e").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            v.render(),
            "{\"e\":1e3,\"f\":3.0,\"i\":3,\"seed\":18446744073709551615}"
        );
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"f\":2.5,\"big\":1e999,\"neg\":-1}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("big").unwrap().as_f64(), None, "out of f64 range");
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("s").unwrap().as_array(), None);
        assert_eq!(parse("[1]").unwrap().as_array(), Some(&[Json::int(1)][..]));
        assert!(v.get("missing").is_none());
        assert_eq!(v.field("n", Json::as_u64), Ok(3));
        assert!(v.field("s", Json::as_u64).unwrap_err().contains("\"s\""));
        assert!(v.field("missing", Json::as_str).is_err());
    }

    #[test]
    fn expect_keys_rejects_missing_and_extra_keys() {
        let v = parse("{\"a\":1,\"b\":2}").unwrap();
        assert!(v.expect_keys(&["b", "a"]).is_ok());
        assert!(v.expect_keys(&["a"]).is_err());
        assert!(v.expect_keys(&["a", "b", "c"]).is_err());
        assert!(v.expect_keys(&["a", "c"]).is_err());
        assert!(Json::Null.expect_keys(&[]).is_err());
    }

    #[test]
    fn parses_trace_lines() {
        let line = "{\"kind\":\"event\",\"clock\":\"sim\",\"t\":12.5,\"name\":\"x\",\
                    \"fields\":{\"a\":3,\"b\":\"s\",\"c\":-1.5}}";
        let v = parse(line).expect("parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("event"));
        assert_eq!(v.get("t").and_then(Json::as_f64), Some(12.5));
        let fields = v.get("fields").expect("fields");
        assert_eq!(fields.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(fields.get("b").and_then(Json::as_str), Some("s"));
        assert_eq!(fields.get("c").and_then(Json::as_f64), Some(-1.5));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "a\"b\\c\nd\te\r\u{1}\u{1f}π · \u{7f}";
        assert_eq!(
            str_of(s),
            "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001fπ · \u{7f}\""
        );
        assert_eq!(parse(&str_of(s)).unwrap(), Json::Str(s.to_string()));
        assert_eq!(
            parse("\"\\/\\b\\f\\u00e9\"").unwrap(),
            Json::Str("/\u{8}\u{c}é".to_string())
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_do_not() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ud83dx\"").is_err());
        assert!(parse("\"\\ude00\"").is_err());
        assert!(parse("\"\\u+0ab\"").is_err());
        assert!(parse("\"\\u00e\"").is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":",
            "{\"a\":}",
            "{} extra",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "nul",
            "nope",
            "+1",
            ".5",
            "1.",
            "-",
            "1e",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "\"bad \\q escape\"",
            "{\"a\":1,\"a\":2}",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            parse(" [1 , {\"a\" : null} ]\n").unwrap().render(),
            "[1,{\"a\":null}]"
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nested deeper"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nested deeper"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan takes minutes on 1 MiB; a linear one takes
        // milliseconds even in a debug build.
        let body = "é".repeat(512 * 1024);
        let text = format!("\"{body}\"");
        let start = Instant::now();
        assert_eq!(parse(&text).unwrap().as_str(), Some(body.as_str()));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
    }
}
