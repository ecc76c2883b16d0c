//! Push-style JSON encoding: values go straight into the output buffer.
//!
//! [`JsonWriter`] prints exactly what [`Json::encode`](super::Json::encode)
//! prints for the equivalent tree — same number spelling, same escapes, no
//! whitespace — without building the tree: integers and floats are formatted
//! in place, strings are copied in unescaped runs, hex goes out a nibble at a
//! time.
//!
//! A writer either appends to a buffer that grows ([`JsonWriter::new`]) or
//! streams ([`Encode::write_to`]): its bytes then pass through one chunk of
//! at most [`CHUNK_BYTES`], handed to a sink each time it fills, so a
//! document of any size costs one chunk of memory.  Both produce the same
//! bytes.

use std::fmt::{self, Write as _};
use std::io;

/// The most bytes a streaming writer holds before handing them to its sink.
pub const CHUNK_BYTES: usize = 64 * 1024;

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

    /// Stream the encoding of `self` into `sink` through one chunk of at
    /// most [`CHUNK_BYTES`]: `sink` sees full chunks and then the rest.
    /// The first error `sink` returns ends the writes to it and is returned
    /// once the encoding is done.
    fn write_to(&self, sink: &mut dyn io::Write) -> io::Result<()> {
        let mut chunk = Vec::with_capacity(CHUNK_BYTES);
        let mut w = JsonWriter {
            out: Out {
                buf: &mut chunk,
                limit: CHUNK_BYTES,
                sink: Some(sink),
                error: None,
            },
            comma: false,
        };
        self.encode(&mut w);
        w.out.spill();
        w.out.error.map_or(Ok(()), Err)
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

/// Where a writer's bytes go: a buffer that grows, or one chunk that is
/// handed to the sink and emptied whenever the next bytes would not fit.
struct Out<'a> {
    buf: &'a mut Vec<u8>,
    /// The most bytes `buf` holds: [`CHUNK_BYTES`] when streaming,
    /// `usize::MAX` (never reached) when growing.
    limit: usize,
    sink: Option<&'a mut dyn io::Write>,
    /// The first error the sink returned; what follows it is dropped.
    error: Option<io::Error>,
}

impl Out<'_> {
    #[inline]
    fn push(&mut self, b: u8) {
        if self.buf.len() == self.limit {
            self.spill();
        }
        self.buf.push(b);
    }

    #[inline]
    fn extend(&mut self, bytes: &[u8]) {
        if bytes.len() <= self.limit - self.buf.len() {
            self.buf.extend_from_slice(bytes);
        } else {
            self.extend_through_chunks(bytes);
        }
    }

    /// Room for `n` more bytes without a spill in between, `n` at most
    /// [`CHUNK_BYTES`].
    #[inline]
    fn room(&mut self, n: usize) {
        if n > self.limit - self.buf.len() {
            self.spill();
        }
    }

    /// Capacity for `n` more bytes of a growing buffer; a chunk never grows.
    #[inline]
    fn reserve(&mut self, n: usize) {
        if self.sink.is_none() {
            self.buf.reserve(n);
        }
    }

    #[cold]
    fn extend_through_chunks(&mut self, mut bytes: &[u8]) {
        loop {
            let room = self.limit - self.buf.len();
            if bytes.len() <= room {
                self.buf.extend_from_slice(bytes);
                return;
            }
            let (head, rest) = bytes.split_at(room);
            self.buf.extend_from_slice(head);
            self.spill();
            bytes = rest;
        }
    }

    /// Hand the chunk to the sink and empty it.
    #[cold]
    fn spill(&mut self) {
        if let (Some(sink), None) = (&mut self.sink, &self.error) {
            if let Err(err) = sink.write_all(self.buf) {
                self.error = Some(err);
            }
        }
        self.buf.clear();
    }
}

impl fmt::Write for Out<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.extend(s.as_bytes());
        Ok(())
    }
}

/// Writes JSON text, inserting the commas itself.
///
/// Containers are written through closures ([`JsonWriter::object`],
/// [`JsonWriter::array`], [`JsonWriter::tuple`]), so brackets always pair
/// up; that an object's members alternate [`JsonWriter::key`] and a value is
/// left to the caller.
pub struct JsonWriter<'a> {
    out: Out<'a>,
    /// The next value or key needs a `,` before it.
    comma: bool,
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Input bytes of a hex string written per [`Out::room`] check.
const HEX_RUN: usize = 256;

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter {
            out: Out {
                buf: out,
                limit: usize::MAX,
                sink: None,
                error: None,
            },
            comma: false,
        }
    }

    fn value_start(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    pub fn null(&mut self) {
        self.value_start();
        self.out.extend(b"null");
    }

    pub fn bool(&mut self, b: bool) {
        self.value_start();
        self.out.extend(if b { b"true" } else { b"false" });
    }

    /// A JSON number: integral values below 1e15 print without a fraction,
    /// everything else in the shortest form that round-trips; NaN and the
    /// infinities, which JSON cannot spell, print as `null`.
    pub fn number(&mut self, n: f64) {
        self.value_start();
        if !n.is_finite() {
            self.out.extend(b"null");
        } else if n.fract() == 0.0 && n.abs() < 1e15 {
            push_i64(&mut self.out, n as i64);
        } else {
            write!(self.out, "{n:?}").expect("writing to a buffer cannot fail");
        }
    }

    pub fn string(&mut self, s: &str) {
        self.value_start();
        self.out.push(b'"');
        push_escaped(&mut self.out, s);
        self.out.push(b'"');
    }

    /// `value`'s `Display` text as a JSON string, formatted in place.
    pub fn display(&mut self, value: impl fmt::Display) {
        self.value_start();
        self.out.push(b'"');
        write!(Escaping(&mut self.out), "{value}").expect("writing to a buffer cannot fail");
        self.out.push(b'"');
    }

    /// `n` in decimal as a JSON *string* (a JSON number is an `f64` and
    /// cannot carry every 64-bit integer).
    pub fn u64_string(&mut self, n: u64) {
        self.value_start();
        self.out.push(b'"');
        push_u64(&mut self.out, n);
        self.out.push(b'"');
    }

    /// `n` in decimal as a JSON string; see [`JsonWriter::u64_string`].
    pub fn i64_string(&mut self, n: i64) {
        self.value_start();
        self.out.push(b'"');
        push_i64(&mut self.out, n);
        self.out.push(b'"');
    }

    /// `bytes` in lower-case hex as a JSON string.
    pub fn hex(&mut self, bytes: impl IntoIterator<Item = u8>) {
        let mut bytes = bytes.into_iter();
        self.value_start();
        self.out.reserve(2 * bytes.size_hint().0 + 2);
        self.out.push(b'"');
        loop {
            self.out.room(2 * HEX_RUN);
            let mut run = 0;
            for b in bytes.by_ref().take(HEX_RUN) {
                self.out.buf.push(HEX_DIGITS[usize::from(b >> 4)]);
                self.out.buf.push(HEX_DIGITS[usize::from(b & 0xf)]);
                run += 1;
            }
            if run < HEX_RUN {
                break;
            }
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
struct Escaping<'o, 'a>(&'o mut Out<'a>);

impl fmt::Write for Escaping<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// The body of a JSON string: `s` with `"`, `\` and control characters
/// escaped, everything else (non-ASCII included) copied as it is.  The
/// bytes that need escaping are all ASCII, so a byte scan never splits a
/// multi-byte character.
fn push_escaped(out: &mut Out<'_>, s: &str) {
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
        out.extend(&bytes[run_start..i]);
        run_start = i + 1;
        if escape.is_empty() {
            out.extend(b"\\u00");
            out.extend(&[
                HEX_DIGITS[usize::from(b >> 4)],
                HEX_DIGITS[usize::from(b & 0xf)],
            ]);
        } else {
            out.extend(escape);
        }
    }
    out.extend(&bytes[run_start..]);
}

fn push_u64(out: &mut Out<'_>, mut n: u64) {
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
    out.extend(&digits[at..]);
}

fn push_i64(out: &mut Out<'_>, n: i64) {
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

    /// A document of many chunks: strings, hex and numbers straddle every
    /// chunk boundary somewhere.
    struct Big;

    impl Encode for Big {
        fn encode(&self, w: &mut JsonWriter<'_>) {
            w.array(0..3_000u32, |w, i| {
                w.object(|w| {
                    w.field("s", &"é\"\u{1}🚀".repeat(i as usize % 7));
                    w.key("h").hex((0..i % 300).map(|b| b as u8));
                    w.key("n").number(f64::from(i) / 7.0);
                    w.key("u").u64_string(u64::MAX - u64::from(i));
                    w.key("d").display(format_args!("bits:{i:016x}"));
                })
            });
        }
    }

    /// Records each write it is handed.
    #[derive(Default)]
    struct Sink {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_writes_the_same_bytes_a_chunk_at_a_time() {
        let whole = Big.to_bytes();
        assert!(whole.len() > 8 * CHUNK_BYTES, "{} bytes", whole.len());
        let mut sink = Sink::default();
        Big.write_to(&mut sink).unwrap();
        assert!(sink.bytes == whole);
        let (last, full) = sink.writes.split_last().unwrap();
        // Hex runs spill a chunk that lacks room for a whole run.
        let nearly_full = CHUNK_BYTES - 2 * HEX_RUN..=CHUNK_BYTES;
        assert!(
            full.iter().all(|n| nearly_full.contains(n)),
            "{:?}",
            sink.writes
        );
        assert!(*last <= CHUNK_BYTES);
        // A string longer than a chunk passes through it too.
        let long = "x\n".repeat(CHUNK_BYTES);
        let mut sink = Sink::default();
        long.write_to(&mut sink).unwrap();
        assert!(sink.bytes == long.to_bytes());
        assert!(sink.writes.iter().all(|&n| n <= CHUNK_BYTES));
    }

    #[test]
    fn a_failing_sink_is_written_to_once_and_its_error_returned() {
        struct Broken(usize);
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Broken(0);
        let err = Big.write_to(&mut sink).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(sink.0, 1);
    }
}
