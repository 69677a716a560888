//! The workspace's one JSON reader and writer.
//!
//! Every JSON byte the stack reads or writes passes through here: the
//! serve wire protocol, experiment reports, the campaign journal, its
//! index and the cell cache, trace records and metric snapshots.
//!
//! Writers assemble their documents key by key, in a fixed order, with
//! [`write_str`] and [`write_f64`]: the wire's requests and responses
//! (keys sorted, the wire's canonical form), reports, journal and cache
//! lines, trace records and snapshots. Floats use Rust's shortest
//! round-trip `{}` text, so a value reparses to the same bits. JSON has
//! no NaN or infinity, so only finite numbers are written: each caller
//! names the text that stands in for a non-finite value.
//!
//! [`parse`] reads any JSON document into a read-only [`Json`] tree. It
//! scans strings in one linear pass, decodes surrogate pairs, and keeps
//! every number as its source token, so a `u64` above 2^53 and the
//! spelling `3` versus `3.0` survive until a caller picks a type. It
//! refuses documents nested deeper than [`MAX_DEPTH`], so hostile input
//! gets an `Err`, never a stack overflow. [`read_fields`] runs the same
//! parser over a document's top-level object but keeps only the fields
//! a caller names, borrowed from the text where they lie, allocating
//! nothing for a wire frame. Both split numbers by one grammar,
//! [`split_number`], which the serve wire's request decoder calls too:
//! it reads a request in the exact shape the wire writes in one pass,
//! with no parser, and hands any other document to `read_fields`, which
//! reads every response.

use std::borrow::Cow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
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
    /// An object, keyed by name.
    Obj(BTreeMap<String, Json>),
}

impl Json {
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
            Json::Num(token) => token_f64(token),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if its token is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(token) => token_u64(token),
            _ => None,
        }
    }
}

/// A top-level field's value as [`read_fields`] found it: strings and
/// numbers borrowed from the document, anything else parsed whole.
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// A string, borrowed unless it had escapes to decode.
    Str(Cow<'a, str>),
    /// A number, as its source token.
    Num(&'a str),
    /// `null`, `true`, `false`, an array or an object.
    Tree(Json),
}

impl Token<'_> {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite float, by [`Json::as_f64`]'s rule.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Num(token) => token_f64(token),
            _ => None,
        }
    }

    /// The value as an unsigned integer, by [`Json::as_u64`]'s rule.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Token::Num(token) => token_u64(token),
            _ => None,
        }
    }
}

/// A number token as a finite float: exact to the nearest `f64`, and
/// `None` out of range.
fn token_f64(token: &str) -> Option<f64> {
    token.parse::<f64>().ok().filter(|x| x.is_finite())
}

/// A number token as an unsigned integer: `None` unless it is one.
fn token_u64(token: &str) -> Option<u64> {
    token.parse().ok()
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
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.end()?;
    Ok(value)
}

/// Reads a document whose top level is an object, keeping the value of
/// each key in `keys` in the slot of the same index (`None` if absent).
///
/// It accepts exactly the documents [`parse`] accepts, less those whose
/// top level is not an object: other fields are checked and skipped, a
/// repeated key is an error, nested values count the object as their
/// first level of [`MAX_DEPTH`], and trailing bytes are an error.
pub fn read_fields<'a, const N: usize>(
    text: &'a str,
    keys: [&str; N],
) -> Result<[Option<Token<'a>>; N], String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let slots = p.nested(|p| p.fields(&keys))?;
    p.end()?;
    Ok(slots)
}

/// Splits the number token at the head of `text` from the rest, by the
/// codec's one number grammar, `-? digits (. digits)? ([eE] [+-]?
/// digits)?`, where `digits` is one or more ASCII digits (a leading
/// zero included). [`parse`] and [`read_fields`] read every number this
/// way. A head that breaks the grammar is an error: the byte offset at
/// which it broke and what was expected there.
#[inline]
pub fn split_number(text: &str) -> Result<(&str, &str), (usize, &'static str)> {
    let bytes = text.as_bytes();
    let digits = |mut at: usize| {
        while bytes.get(at).is_some_and(u8::is_ascii_digit) {
            at += 1;
        }
        at
    };
    let sign = usize::from(bytes.first() == Some(&b'-'));
    let mut end = digits(sign);
    if end == sign {
        return Err((end, "expected digits"));
    }
    if bytes.get(end) == Some(&b'.') {
        let fraction = end + 1;
        end = digits(fraction);
        if end == fraction {
            return Err((end, "expected fraction digits"));
        }
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let mut exponent = end + 1;
        if matches!(bytes.get(exponent), Some(b'+' | b'-')) {
            exponent += 1;
        }
        end = digits(exponent);
        if end == exponent {
            return Err((end, "expected exponent digits"));
        }
    }
    Ok(text.split_at(end))
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            depth: 0,
        }
    }

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

    /// Checks that only whitespace follows the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
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

    /// One value as a [`Token`]: strings and numbers stay borrowed.
    fn token(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.str_token().map(Token::Str),
            Some(b'-' | b'0'..=b'9') => self.num_token().map(Token::Num),
            _ => self.value().map(Token::Tree),
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
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
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
        let mut map = BTreeMap::new();
        self.members(|p, key| {
            let value = p.value()?;
            match map.entry(key.into_owned()) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                    Ok(())
                }
                Entry::Occupied(slot) => Err(p.err(&format!("duplicate key {:?}", slot.key()))),
            }
        })?;
        Ok(Json::Obj(map))
    }

    /// The top-level object of [`read_fields`]: each value of a key in
    /// `keys` lands in its slot, and any other is checked and dropped.
    fn fields<const N: usize>(
        &mut self,
        keys: &[&str; N],
    ) -> Result<[Option<Token<'a>>; N], String> {
        let mut slots = [const { None }; N];
        // Other keys seen so far: a repeat is found in log time whatever
        // the document, and the set allocates only once one appears.
        let mut others = BTreeSet::new();
        self.members(|p, key| {
            let value = p.token()?;
            let fresh = match keys.iter().position(|k| *k == key) {
                Some(i) => slots[i].replace(value).is_none(),
                None => others.insert(key.clone()),
            };
            if fresh {
                Ok(())
            } else {
                Err(p.err(&format!("duplicate key {key:?}")))
            }
        })?;
        Ok(slots)
    }

    /// Walks an object's `"key": value` members, handing each key to
    /// `member` to parse its value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.str_token()?;
            self.skip_ws();
            self.eat(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.num_token().map(|token| Json::Num(token.to_string()))
    }

    /// A number token, by [`split_number`]'s grammar.
    fn num_token(&mut self) -> Result<&'a str, String> {
        let src = self.src;
        match split_number(&src[self.pos..]) {
            Ok((token, _)) => {
                self.pos += token.len();
                Ok(token)
            }
            Err((at, expected)) => {
                self.pos += at;
                Err(self.err(expected))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.str_token().map(Cow::into_owned)
    }

    /// A string literal's text: borrowed from the source when it holds
    /// no escape, decoded into a new string at the first one.
    fn str_token(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let src = self.src;
        let mut decoded: Option<String> = None;
        loop {
            // Take the run up to the next quote, backslash or control
            // byte in one piece: each is ASCII, so the run ends on a
            // char boundary, and no byte is looked at twice.
            let start = self.pos;
            let rest = &src.as_bytes()[start..];
            self.pos += rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            let run = &src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    self.escape(out)?;
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

    fn num(token: &str) -> Json {
        Json::Num(token.to_string())
    }

    #[test]
    fn parses_flat_objects() {
        let v =
            parse("{\"type\":\"submit\",\"id\":42,\"arrival\":17.25,\"ok\":true,\"none\":null}")
                .unwrap();
        let expected = Json::Obj(BTreeMap::from([
            ("type".to_string(), Json::Str("submit".to_string())),
            ("id".to_string(), num("42")),
            ("arrival".to_string(), num("17.25")),
            ("ok".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
        ]));
        assert_eq!(v, expected);
    }

    #[test]
    fn floats_survive_bit_for_bit() {
        for x in [0.1, 1.0 / 3.0, 5.010_203, f64::MAX, 1e-300, -0.5, 1e21] {
            let mut text = String::new();
            write_f64(&mut text, x, "null");
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled to {back}");
            let doc = format!("{{\"x\":{text}}}");
            let [field] = read_fields(&doc, ["x"]).unwrap();
            assert_eq!(
                field.and_then(|t| t.as_f64()).map(f64::to_bits),
                Some(x.to_bits())
            );
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
        out.push(' ');
        write_f64(&mut out, f64::NEG_INFINITY, "null");
        assert_eq!(out, "1 0.042 0.0000001 0 null null");
    }

    #[test]
    fn integers_keep_their_token() {
        let text = "{\"seed\":18446744073709551615,\"i\":3,\"f\":3.0,\"e\":1e3}";
        let v = parse(text).unwrap();
        assert_eq!(v.get("seed"), Some(&num("18446744073709551615")));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("i"), Some(&num("3")));
        assert_eq!(v.get("f"), Some(&num("3.0")));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("e"), Some(&num("1e3")));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(1000.0));
        let [seed, i, f, e] = read_fields(text, ["seed", "i", "f", "e"]).unwrap();
        assert_eq!(seed, Some(Token::Num("18446744073709551615")));
        assert_eq!(seed.unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(i, Some(Token::Num("3")));
        assert_eq!(f, Some(Token::Num("3.0")));
        assert_eq!(f.unwrap().as_u64(), None);
        assert_eq!(e.unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn accessors_are_type_checked() {
        let text = "{\"n\":3,\"s\":\"x\",\"f\":2.5,\"big\":1e999,\"neg\":-1}";
        let v = parse(text).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("big").unwrap().as_f64(), None, "out of f64 range");
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("s").unwrap().as_array(), None);
        assert_eq!(parse("[1]").unwrap().as_array(), Some(&[num("1")][..]));
        assert!(v.get("missing").is_none());
        assert_eq!(v.field("n", Json::as_u64), Ok(3));
        assert!(v.field("s", Json::as_u64).unwrap_err().contains("\"s\""));
        assert!(v.field("missing", Json::as_str).is_err());
        // Tokens read by the tree's rules.
        let [n, s, f, big, neg] = read_fields(text, ["n", "s", "f", "big", "neg"]).unwrap();
        let [n, s, f, big, neg] = [n, s, f, big, neg].map(Option::unwrap);
        assert_eq!(
            (n.as_u64(), f.as_u64(), neg.as_u64()),
            (Some(3), None, None)
        );
        assert_eq!(
            (f.as_f64(), big.as_f64(), s.as_f64()),
            (Some(2.5), None, None)
        );
        assert_eq!((s.as_str(), n.as_str()), (Some("x"), None));
    }

    /// `split_number` takes a string whole exactly when `parse` reads it
    /// as that number token, a token it splits off reads as itself, and
    /// where it breaks, `parse` breaks at the same byte.
    #[test]
    fn the_number_grammar_is_the_parsers() {
        let check = |text: &str| -> bool {
            let split = split_number(text);
            let whole = split == Ok((text, ""));
            assert_eq!(
                whole,
                parse(text) == Ok(Json::Num(text.to_string())),
                "{text:?} split as {split:?}"
            );
            // A number's first byte sends `parse` into the grammar.
            let numeric = text.starts_with(|c: char| c == '-' || c.is_ascii_digit());
            match split {
                Ok((token, _)) => assert_eq!(parse(token), Ok(num(token)), "{text:?}"),
                Err((at, expected)) if numeric => {
                    assert_eq!(parse(text), Err(format!("{expected} at byte {at}")));
                }
                Err(_) => {}
            }
            whole
        };
        for (text, split) in [
            ("-", Err((1, "expected digits"))),
            ("1.", Err((2, "expected fraction digits"))),
            (".5", Err((0, "expected digits"))),
            ("1e", Err((2, "expected exponent digits"))),
            ("1e+", Err((3, "expected exponent digits"))),
            ("01", Ok(("01", ""))),
            ("-0", Ok(("-0", ""))),
            ("+1", Err((0, "expected digits"))),
            ("1.e5", Err((2, "expected fraction digits"))),
            ("-0.0E+1", Ok(("-0.0E+1", ""))),
            ("12,\"id\"", Ok(("12", ",\"id\""))),
            ("1e5.5", Ok(("1e5", ".5"))),
        ] {
            assert_eq!(split_number(text), split, "{text:?}");
            check(text);
        }
        // Random strings over the fuzz suite's alphabet, half of them
        // drawn from the bytes a number can hold.
        const ALPHABET: &[u8] = b"{}[]\":,\\ \t\n0123456789.eE+-abtnrfulsy";
        const NUMERIC: &[u8] = b"0123456789.eE+-";
        let mut rng = proptest::test_runner::TestRng::for_test("the_number_grammar_is_the_parsers");
        let mut whole = 0;
        for i in 0..20_000 {
            let from = if i % 2 == 0 { ALPHABET } else { NUMERIC };
            let len = rng.below(9) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| from[rng.below(from.len() as u64) as usize])
                .collect();
            whole += usize::from(check(std::str::from_utf8(&bytes).unwrap()));
        }
        assert!(whole > 1_000, "only {whole} strings were numbers");
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
            assert!(read_fields(bad, ["a"]).is_err(), "{bad:?} read");
        }
        let spaced = " [1 , {\"a\" : null} ]\n";
        let a_null = Json::Obj(BTreeMap::from([("a".to_string(), Json::Null)]));
        assert_eq!(parse(spaced).unwrap(), Json::Arr(vec![num("1"), a_null]));
        let [a] = read_fields(" {\"a\" : 1 ,\"b\":[ ] }\n", ["a"]).unwrap();
        assert_eq!(a, Some(Token::Num("1")));
    }

    #[test]
    fn read_fields_borrows_what_it_can_and_skips_the_rest() {
        let text = "{\"n\":7,\"s\":\"plain\",\"e\":\"a\\nb\",\"skip\":{\"x\":[1,{\"y\":null}]},\"t\":true}";
        let [n, s, e, t, gone] = read_fields(text, ["n", "s", "e", "t", "gone"]).unwrap();
        assert_eq!(n, Some(Token::Num("7")));
        assert!(matches!(s, Some(Token::Str(Cow::Borrowed("plain")))));
        assert!(matches!(e, Some(Token::Str(Cow::Owned(ref d))) if d == "a\nb"));
        assert_eq!(t, Some(Token::Tree(Json::Bool(true))));
        assert_eq!(gone, None);
        // An escaped key names the same field; `{}` has no fields.
        let [kind] = read_fields("{\"ty\\u0070e\":\"drain\"}", ["type"]).unwrap();
        assert_eq!(kind.as_ref().and_then(Token::as_str), Some("drain"));
        assert_eq!(read_fields(" {} ", ["type"]).unwrap(), [None]);
    }

    #[test]
    fn read_fields_rejects_repeats_and_non_objects() {
        for bad in [
            "[]",
            "\"s\"",
            "1",
            "null",
            "{\"a\":1,\"a\":1}",
            "{\"type\":1,\"a\":2,\"ty\\u0070e\":1}",
            "{\"x\":1,\"a\":2,\"x\":1}",
            "{\"x\\u0031\":1,\"x1\":1}",
            "{\"a\":1}}",
        ] {
            assert!(read_fields(bad, ["a", "type"]).is_err(), "{bad:?} read");
        }
        // Many distinct other keys are fine, and a repeat among them is not.
        let many: Vec<String> = (0..4096).map(|i| format!("\"k{i}\":{i}")).collect();
        let text = format!("{{{}}}", many.join(","));
        assert_eq!(read_fields(&text, ["a"]).unwrap(), [None]);
        let text = format!("{{{},\"k0\":0}}", many.join(","));
        assert!(read_fields(&text, ["a"]).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nested deeper"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nested deeper"));
        // The object read_fields reads is the first level, as in parse.
        let field_at = |levels: usize| {
            let inner = levels - 1;
            format!("{{\"a\":{}{}}}", "[".repeat(inner), "]".repeat(inner))
        };
        for key in ["a", "b"] {
            assert!(parse(&field_at(MAX_DEPTH)).is_ok());
            assert!(read_fields(&field_at(MAX_DEPTH), [key]).is_ok());
            assert!(parse(&field_at(MAX_DEPTH + 1)).is_err());
            let err = read_fields(&field_at(MAX_DEPTH + 1), [key]).unwrap_err();
            assert!(err.contains("nested deeper"), "{err}");
        }
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
