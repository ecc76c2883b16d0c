//! Pull-style JSON decoding: the caller walks the document, no tree is built.
//!
//! [`JsonReader`] is the one scanner of this crate — [`parse`](super::parse)
//! builds its tree through it.  Strings are scanned to the next `"` or `\`
//! and validated as UTF-8 one run at a time, so reading is linear in the
//! document (the scanner it replaced re-validated the rest of the document
//! for every character).  It accepts what RFC 8259 accepts, plus raw control
//! characters inside strings, and nothing nested deeper than
//! [`MAX_NESTING_DEPTH`]; every failure is an error naming the byte offset.

use super::MAX_NESTING_DEPTH;
use std::borrow::Cow;
use std::str::FromStr;

/// Why a document could not be read, as `invalid JSON at byte N: …` text.
pub type Result<T> = std::result::Result<T, String>;

/// A type decodable from its canonical JSON spelling.
pub trait Decode: Sized {
    /// Read one JSON value as `Self`.
    fn decode(r: &mut JsonReader<'_>) -> Result<Self>;

    /// Decode a whole document: one value, then nothing but whitespace.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = JsonReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Decode for f64 {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self> {
        r.number()
    }
}

impl Decode for String {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self> {
        r.string().map(Cow::into_owned)
    }
}

/// `null` is `None`.
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self> {
        r.null_or(T::decode)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self> {
        r.seq(T::decode)
    }
}

/// What the next value is, from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// A cursor over one JSON document.
pub struct JsonReader<'a> {
    bytes: &'a [u8],
    state: Mark,
}

/// A reader position that can be returned to.
#[derive(Debug, Clone, Copy)]
struct Mark {
    pos: usize,
    depth: usize,
    /// A container was just opened: its first member takes no `,`.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `bytes`.  The bytes need not be UTF-8 as a
    /// whole: only ASCII is legal outside strings, and strings are validated
    /// as they are read.
    pub fn new(bytes: &'a [u8]) -> Self {
        JsonReader {
            bytes,
            state: Mark {
                pos: 0,
                depth: 0,
                fresh: false,
            },
        }
    }

    /// An error at the current offset.
    pub fn error(&self, message: impl std::fmt::Display) -> String {
        format!("invalid JSON at byte {}: {message}", self.state.pos)
    }

    /// Succeeds if nothing but whitespace is left.
    pub fn finish(&mut self) -> Result<()> {
        self.skip_whitespace();
        if self.state.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing content after the top-level value"))
        }
    }

    fn skip_whitespace(&mut self) {
        while self.peek_byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.state.pos += 1;
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.state.pos).copied()
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek_byte() == Some(b);
        if hit {
            self.state.pos += 1;
        }
        hit
    }

    /// The kind of the next value, skipping whitespace but consuming nothing
    /// of the value.
    pub fn peek(&mut self) -> Result<Kind> {
        self.skip_whitespace();
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(other) => Err(self.error(format_args!("unexpected '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn expect_kind(&mut self, kind: Kind, wanted: &str) -> Result<()> {
        if self.peek()? == kind {
            Ok(())
        } else {
            Err(self.error(format_args!("expected {wanted}")))
        }
    }

    fn literal(&mut self, text: &str) -> Result<()> {
        if self.bytes[self.state.pos..].starts_with(text.as_bytes()) {
            self.state.pos += text.len();
            Ok(())
        } else {
            Err(self.error(format_args!("expected '{text}'")))
        }
    }

    pub fn null(&mut self) -> Result<()> {
        self.expect_kind(Kind::Null, "null")?;
        self.literal("null")
    }

    pub fn bool(&mut self) -> Result<bool> {
        self.expect_kind(Kind::Bool, "a boolean")?;
        if self.peek_byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// `None` for `null`, else what `value` reads.
    pub fn null_or<T>(&mut self, value: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        if self.peek()? == Kind::Null {
            self.null().map(|()| None)
        } else {
            value(self).map(Some)
        }
    }

    /// A number in the RFC 8259 grammar that fits an `f64`.
    pub fn number(&mut self) -> Result<f64> {
        self.expect_kind(Kind::Number, "a number")?;
        let start = self.state.pos;
        while matches!(
            self.peek_byte(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.state.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.state.pos])
            .expect("sign, digit, point and exponent bytes are ASCII");
        if !is_valid_number_syntax(text) {
            return Err(self.error(format_args!("bad number '{text}'")));
        }
        match text.parse::<f64>() {
            // Overflowing literals (1e999) parse to infinity, which has no
            // JSON representation — accepting it would break the
            // parse/encode round-trip, so refuse it up front.
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(self.error(format_args!("number '{text}' is out of range"))),
        }
    }

    /// A string, borrowed from the document unless it contains escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect_kind(Kind::String, "a string")?;
        self.state.pos += 1;
        let first = self.run()?;
        if self.eat(b'"') {
            return Ok(Cow::Borrowed(first));
        }
        let mut out = String::from(first);
        loop {
            // `run` stopped at a backslash.
            self.state.pos += 1;
            out.push(self.escape()?);
            out.push_str(self.run()?);
            if self.eat(b'"') {
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// A string holding a `T`, such as an integer in decimal.
    pub fn parsed<T: FromStr>(&mut self, what: &str) -> Result<T>
    where
        T::Err: std::fmt::Display,
    {
        let text = self.string()?;
        text.parse()
            .map_err(|e| self.error(format_args!("bad {what}: {e}")))
    }

    /// The run of string bytes up to the next `"` or `\` (left unconsumed),
    /// validated as UTF-8.  Both stop bytes are ASCII, so a run never ends
    /// inside a multi-byte character.
    fn run(&mut self) -> Result<&'a str> {
        let rest = &self.bytes[self.state.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| self.error("unterminated string"))?;
        let run = std::str::from_utf8(&rest[..len]).map_err(|_| self.error("invalid UTF-8"))?;
        self.state.pos += len;
        Ok(run)
    }

    /// The character an escape stands for; the cursor is just past the `\`.
    fn escape(&mut self) -> Result<char> {
        let c = match self.peek_byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.state.pos += 1;
                let code = self.hex4()?;
                // A high surrogate must be followed by an escaped low
                // surrogate; combine them into one scalar.
                let scalar = if (0xD800..0xDC00).contains(&code) {
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.error("lone high surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("bad low surrogate"));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    code
                };
                return char::from_u32(scalar).ok_or_else(|| self.error("bad \\u codepoint"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.state.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\uXXXX` escape.
    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.state.pos..self.state.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let nibble = hex_nibble(d).ok_or_else(|| self.error("bad \\u escape"))?;
            code = code << 4 | u32::from(nibble);
        }
        self.state.pos += 4;
        Ok(code)
    }

    fn enter(&mut self, kind: Kind, wanted: &str) -> Result<()> {
        self.expect_kind(kind, wanted)?;
        self.state.depth += 1;
        if self.state.depth > MAX_NESTING_DEPTH {
            return Err(self.error(format_args!(
                "nesting deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.state.pos += 1;
        self.state.fresh = true;
        Ok(())
    }

    /// Whether another member follows in the open container closed by
    /// `close`, consuming the `,` before it or the closing bracket.
    fn next_member(&mut self, close: u8) -> Result<bool> {
        self.skip_whitespace();
        if self.eat(close) {
            self.state.depth -= 1;
            self.state.fresh = false;
            return Ok(false);
        }
        if self.state.fresh {
            self.state.fresh = false;
        } else if !self.eat(b',') {
            return Err(self.error(format_args!("expected ',' or '{}'", close as char)));
        }
        Ok(true)
    }

    /// Open an array; walk it with [`JsonReader::next_element`].
    pub fn begin_array(&mut self) -> Result<()> {
        self.enter(Kind::Array, "an array")
    }

    /// `true` if the open array has another element (the caller reads it),
    /// `false` once its `]` is consumed.
    pub fn next_element(&mut self) -> Result<bool> {
        self.next_member(b']')
    }

    /// Open an object; walk it with [`JsonReader::next_key`].  To look
    /// members up by name instead, use [`JsonReader::object`].
    pub fn begin_object(&mut self) -> Result<()> {
        self.enter(Kind::Object, "an object")
    }

    /// The key of the open object's next member (the caller reads its
    /// value), `None` once the `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_whitespace();
        if !self.eat(b':') {
            return Err(self.error("expected ':'"));
        }
        Ok(Some(key))
    }

    /// Call `element` at each element of an array, in order.
    pub fn for_each(&mut self, mut element: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.begin_array()?;
        while self.next_element()? {
            element(self)?;
        }
        Ok(())
    }

    /// What `element` reads at each element of an array, in order.
    pub fn seq<T>(&mut self, mut element: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = Vec::new();
        self.for_each(|r| {
            items.push(element(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// An array of exactly two elements; any other length is the error
    /// `shape`.
    pub fn pair<A, B>(
        &mut self,
        shape: &str,
        first: impl FnOnce(&mut Self) -> Result<A>,
        second: impl FnOnce(&mut Self) -> Result<B>,
    ) -> Result<(A, B)> {
        self.begin_array()?;
        self.element(shape)?;
        let a = first(self)?;
        self.element(shape)?;
        let b = second(self)?;
        self.end_array(shape)?;
        Ok((a, b))
    }

    /// The open array must have another element, else the error `shape`.
    pub fn element(&mut self, shape: &str) -> Result<()> {
        if self.next_element()? {
            Ok(())
        } else {
            Err(self.error(shape))
        }
    }

    /// The open array must end here, else the error `shape`.
    pub fn end_array(&mut self, shape: &str) -> Result<()> {
        if self.next_element()? {
            Err(self.error(shape))
        } else {
            Ok(())
        }
    }

    /// Read past one value of any kind, checking it as strictly as reading
    /// it would.
    pub fn skip_value(&mut self) -> Result<()> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.skip_string(),
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// [`JsonReader::string`] without assembling the text.
    fn skip_string(&mut self) -> Result<()> {
        self.state.pos += 1;
        loop {
            self.run()?;
            if self.eat(b'"') {
                return Ok(());
            }
            self.state.pos += 1;
            self.escape()?;
        }
    }

    /// One object, its members looked up by name inside `members`; what no
    /// lookup reached is checked before returning.
    pub fn object<T>(
        &mut self,
        members: impl FnOnce(&mut ObjectReader<'_, 'a>) -> Result<T>,
    ) -> Result<T> {
        let mut object = self.object_reader()?;
        let value = members(&mut object)?;
        object.end()?;
        Ok(value)
    }

    /// Open an object for lookups by member name; the caller ends it with
    /// [`ObjectReader::end`].
    pub fn object_reader(&mut self) -> Result<ObjectReader<'_, 'a>> {
        self.begin_object()?;
        let start = self.state;
        Ok(ObjectReader {
            r: self,
            start,
            in_order: true,
            checked_to: start,
            end: None,
        })
    }
}

/// An open object whose members are asked for by name.
///
/// Members may come in any order, unknown ones are ignored, and of a
/// repeated key the first occurrence counts — what a lookup in a parsed tree
/// gives — provided each name is asked for at most once.  Asking in document
/// order, which is how every encoder here writes, reads each member exactly
/// once; a member that is out of order or missing costs a scan of the
/// object without reading it.  [`ObjectReader::end`] checks whatever no
/// lookup has passed over, so a malformed member is an error even when
/// nothing asks for it.
pub struct ObjectReader<'r, 'a> {
    r: &'r mut JsonReader<'a>,
    /// Just inside the `{`.
    start: Mark,
    /// Every lookup so far found its member right at the cursor.
    in_order: bool,
    /// Once out of order: everything before this has been checked.
    checked_to: Mark,
    /// Just past the `}`, once a scan has reached it — which also means the
    /// whole object has been checked.
    end: Option<Mark>,
}

impl<'a> ObjectReader<'_, 'a> {
    /// The reader positioned at the value of member `key`, which the caller
    /// must read; `None` if the object has no such member.
    pub fn opt_field(&mut self, key: &str) -> Result<Option<&mut JsonReader<'a>>> {
        Ok(self.seek(key)?.then_some(&mut *self.r))
    }

    /// [`ObjectReader::opt_field`] for a member that only counts when it is
    /// of `kind`: one of any other kind is passed over and `None` returned,
    /// as if it were absent.
    pub fn opt_field_of(&mut self, key: &str, kind: Kind) -> Result<Option<&mut JsonReader<'a>>> {
        if !self.seek(key)? {
            return Ok(None);
        }
        if self.r.peek()? == kind {
            return Ok(Some(self.r));
        }
        self.r.skip_value()?;
        Ok(None)
    }

    /// Like [`ObjectReader::opt_field`], but a missing member is an error.
    pub fn field(&mut self, key: &str) -> Result<&mut JsonReader<'a>> {
        if self.seek(key)? {
            Ok(self.r)
        } else {
            Err(self.r.error(format_args!("missing field `{key}`")))
        }
    }

    /// Put the reader at the value of the first member named `key`.
    fn seek(&mut self, key: &str) -> Result<bool> {
        let cursor = self.r.state;
        if !self.in_order {
            if cursor.pos > self.checked_to.pos {
                self.checked_to = cursor;
            }
            self.r.state = self.start;
        }
        // Take the first occurrence.  While in order nothing before the
        // cursor can be it (those members were all asked for by their own
        // names), so the search starts there and usually ends at once.
        let mut passed_over = false;
        while let Some(found) = self.r.next_key()? {
            if found == key {
                self.in_order &= !passed_over;
                return Ok(true);
            }
            self.r.skip_value()?;
            passed_over = true;
        }
        self.end = Some(self.r.state);
        self.r.state = cursor;
        Ok(false)
    }

    /// An error at the reader's current offset.
    pub fn error(&self, message: impl std::fmt::Display) -> String {
        self.r.error(message)
    }

    /// Whether the object has no members at all.  Ask before any lookup.
    pub fn is_empty(&mut self) -> Result<bool> {
        let cursor = self.r.state;
        let empty = self.r.next_key()?.is_none();
        self.r.state = cursor;
        Ok(empty)
    }

    /// Check the members no lookup passed over and leave the reader just
    /// past the object.
    pub fn end(self) -> Result<()> {
        if let Some(end) = self.end {
            self.r.state = end;
            return Ok(());
        }
        if !self.in_order && self.checked_to.pos > self.r.state.pos {
            self.r.state = self.checked_to;
        }
        while self.r.next_key()?.is_some() {
            self.r.skip_value()?;
        }
        Ok(())
    }
}

/// RFC 8259 number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
/// `f64::parse` is more lenient (leading zeros, `1.`, `+1`, `inf`), so the
/// syntax is checked separately to keep the reader strict.
fn is_valid_number_syntax(text: &str) -> bool {
    let mut rest = text.strip_prefix('-').unwrap_or(text).as_bytes();
    // Integer part: one zero, or a nonzero digit followed by any digits.
    match rest {
        [b'0', tail @ ..] => rest = tail,
        [b'1'..=b'9', tail @ ..] => {
            rest = tail;
            while let [b'0'..=b'9', tail @ ..] = rest {
                rest = tail;
            }
        }
        _ => return false,
    }
    // Optional fraction: '.' followed by at least one digit.
    if let [b'.', tail @ ..] = rest {
        rest = tail;
        let [b'0'..=b'9', ..] = rest else {
            return false;
        };
        while let [b'0'..=b'9', tail @ ..] = rest {
            rest = tail;
        }
    }
    // Optional exponent: e/E, optional sign, at least one digit.
    if let [b'e' | b'E', tail @ ..] = rest {
        rest = tail;
        if let [b'+' | b'-', tail @ ..] = rest {
            rest = tail;
        }
        let [b'0'..=b'9', ..] = rest else {
            return false;
        };
        while let [b'0'..=b'9', tail @ ..] = rest {
            rest = tail;
        }
    }
    rest.is_empty()
}

/// Value of each ASCII hex digit (either case); `NOT_HEX` for other bytes.
const NIBBLES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};
const NOT_HEX: u8 = 0xff;

fn hex_nibble(digit: u8) -> Option<u8> {
    let nibble = NIBBLES[usize::from(digit)];
    (nibble != NOT_HEX).then_some(nibble)
}

/// The bytes a hex string spells, two digits (either case) per byte.
///
/// The digits are checked up front, so the iterator itself cannot fail and
/// knows its length — a caller can size or reject on `len()` before taking
/// a single byte.
pub fn hex_bytes(hex: &str) -> Result<impl ExactSizeIterator<Item = u8> + '_> {
    let digits = hex.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_string());
    }
    if let Some(bad) = digits.iter().find(|&&d| hex_nibble(d).is_none()) {
        return Err(format!("bad hex digit '{}'", bad.escape_ascii()));
    }
    Ok(digits
        .chunks_exact(2)
        .map(|pair| NIBBLES[usize::from(pair[0])] << 4 | NIBBLES[usize::from(pair[1])]))
}
