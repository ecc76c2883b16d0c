//! Push-style JSON encoding: values go straight into the output buffer.
//!
//! [`JsonWriter`] prints exactly what [`Json::encode`](super::Json::encode)
//! prints for the equivalent tree — same number spelling, same escapes, no
//! whitespace — without building the tree: integers and floats are formatted
//! in place, strings are copied in unescaped runs, hex goes out a nibble at a
//! time.  The tree encoder stays as the byte-for-byte oracle the tests compare
//! against.

use std::fmt::{self, Write as _};
use std::io::Write as _;

/// A type with one canonical JSON spelling.
pub trait Encode {
    /// Write `self` as one JSON value.
    fn encode(&self, w: &mut JsonWriter<'_>);

    /// Append the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode(&mut JsonWriter::new(out));
    }

    /// The encoding of `self` as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.number(*self);
    }
}

impl Encode for str {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.string(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.string(self);
    }
}

/// `None` is `null`.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        match self {
            None => w.null(),
            Some(value) => value.encode(w),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.array(self, |w, item| item.encode(w));
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().encode(w);
    }
}

/// Appends JSON text to a byte buffer, inserting the commas itself.
///
/// Containers are written through closures ([`JsonWriter::object`],
/// [`JsonWriter::array`], [`JsonWriter::tuple`]), so brackets always pair
/// up; that an object's members alternate [`JsonWriter::key`] and a value is
/// left to the caller.
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    /// The next value or key needs a `,` before it.
    comma: bool,
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter { out, comma: false }
    }

    fn value_start(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    pub fn null(&mut self) {
        self.value_start();
        self.out.extend_from_slice(b"null");
    }

    pub fn bool(&mut self, b: bool) {
        self.value_start();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// A JSON number: integral values below 1e15 print without a fraction,
    /// everything else in the shortest form that round-trips; NaN and the
    /// infinities, which JSON cannot spell, print as `null`.
    pub fn number(&mut self, n: f64) {
        self.value_start();
        if !n.is_finite() {
            self.out.extend_from_slice(b"null");
        } else if n.fract() == 0.0 && n.abs() < 1e15 {
            push_i64(self.out, n as i64);
        } else {
            write!(self.out, "{n:?}").expect("writing to a Vec cannot fail");
        }
    }

    pub fn string(&mut self, s: &str) {
        self.value_start();
        self.out.push(b'"');
        push_escaped(self.out, s);
        self.out.push(b'"');
    }

    /// `value`'s `Display` text as a JSON string, formatted in place.
    pub fn display(&mut self, value: impl fmt::Display) {
        self.value_start();
        self.out.push(b'"');
        write!(Escaping(self.out), "{value}").expect("writing to a Vec cannot fail");
        self.out.push(b'"');
    }

    /// `n` in decimal as a JSON *string* (a JSON number is an `f64` and
    /// cannot carry every 64-bit integer).
    pub fn u64_string(&mut self, n: u64) {
        self.value_start();
        self.out.push(b'"');
        push_u64(self.out, n);
        self.out.push(b'"');
    }

    /// `n` in decimal as a JSON string; see [`JsonWriter::u64_string`].
    pub fn i64_string(&mut self, n: i64) {
        self.value_start();
        self.out.push(b'"');
        push_i64(self.out, n);
        self.out.push(b'"');
    }

    /// `bytes` in lower-case hex as a JSON string.
    pub fn hex(&mut self, bytes: impl IntoIterator<Item = u8>) {
        let bytes = bytes.into_iter();
        self.value_start();
        self.out.reserve(2 * bytes.size_hint().0 + 2);
        self.out.push(b'"');
        for b in bytes {
            self.out.push(HEX_DIGITS[usize::from(b >> 4)]);
            self.out.push(HEX_DIGITS[usize::from(b & 0xf)]);
        }
        self.out.push(b'"');
    }

    fn begin_array(&mut self) {
        self.value_start();
        self.out.push(b'[');
        self.comma = false;
    }

    fn end_array(&mut self) {
        self.out.push(b']');
        self.comma = true;
    }

    fn begin_object(&mut self) {
        self.value_start();
        self.out.push(b'{');
        self.comma = false;
    }

    fn end_object(&mut self) {
        self.out.push(b'}');
        self.comma = true;
    }

    /// The key of the next object member; the value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(b':');
        self.comma = false;
        self
    }

    /// One object; `members` writes its keys and values.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.begin_object();
        members(self);
        self.end_object();
    }

    /// One array; `elements` writes them — for arrays of a fixed shape.
    pub fn tuple(&mut self, elements: impl FnOnce(&mut Self)) {
        self.begin_array();
        elements(self);
        self.end_array();
    }

    /// One array with an element per item, each written by `element`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut Self, T),
    ) {
        self.begin_array();
        for item in items {
            element(self, item);
        }
        self.end_array();
    }

    /// One object member with an [`Encode`] value.
    pub fn field<T: Encode + ?Sized>(&mut self, key: &str, value: &T) {
        value.encode(self.key(key));
    }
}

/// Routes formatted text through the string escaper.
struct Escaping<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// The body of a JSON string: `s` with `"`, `\` and control characters
/// escaped, everything else (non-ASCII included) copied as it is.  The
/// bytes that need escaping are all ASCII, so a byte scan never splits a
/// multi-byte character.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\t' => b"\\t",
            b'\r' => b"\\r",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run_start..i]);
        run_start = i + 1;
        if escape.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX_DIGITS[usize::from(b >> 4)]);
            out.push(HEX_DIGITS[usize::from(b & 0xf)]);
        } else {
            out.extend_from_slice(escape);
        }
    }
    out.extend_from_slice(&bytes[run_start..]);
}

fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    // u64::MAX has 20 decimal digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn push_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_u64(out, n.unsigned_abs());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = Vec::new();
        f(&mut JsonWriter::new(&mut out));
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn commas_follow_the_nesting() {
        let text = written(|w| {
            w.object(|w| {
                w.key("a").array([1.0, 2.0], |w, n| w.number(n));
                w.key("b").object(|_| {});
                w.key("c").array([(); 0], |_, _| {});
                w.field("d", &Some(true));
                w.field("e", &None::<bool>);
            })
        });
        assert_eq!(text, r#"{"a":[1,2],"b":{},"c":[],"d":true,"e":null}"#);
    }

    #[test]
    fn integers_print_at_their_extremes() {
        assert_eq!(written(|w| w.u64_string(0)), "\"0\"");
        assert_eq!(
            written(|w| w.u64_string(u64::MAX)),
            format!("\"{}\"", u64::MAX)
        );
        assert_eq!(
            written(|w| w.i64_string(i64::MIN)),
            format!("\"{}\"", i64::MIN)
        );
        assert_eq!(written(|w| w.number(-0.0)), "0");
        assert_eq!(
            written(|w| w.number(-999_999_999_999_999.0)),
            "-999999999999999"
        );
        assert_eq!(written(|w| w.number(1e15)), "1000000000000000.0");
        assert_eq!(written(|w| w.number(f64::NAN)), "null");
    }

    #[test]
    fn display_and_hex_write_strings() {
        assert_eq!(
            written(|w| w.display(format_args!("bits:{:016x}", 1.5f64.to_bits()))),
            "\"bits:3ff8000000000000\""
        );
        assert_eq!(written(|w| w.display("a\"b")), r#""a\"b""#);
        assert_eq!(written(|w| w.hex([0x05, 0xa2, 0xff])), "\"05a2ff\"");
    }

    #[test]
    fn escapes_split_runs_without_losing_bytes() {
        assert_eq!(
            written(|w| w.string("é\"\u{1}🚀\\\n\u{7f}z")),
            "\"é\\\"\\u0001🚀\\\\\\n\u{7f}z\""
        );
    }
}
