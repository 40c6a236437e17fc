//! Exact-round-trip wire encoding for mechanism reports.
//!
//! Reports must cross process boundaries: from user devices to collectors,
//! between collector shards, and into replay logs. This module defines a
//! line-oriented text format — one report per line, space-separated fields
//! — chosen so that decoding reproduces the original report **exactly**
//! (floats are rendered with Rust's shortest-round-trip formatting), which
//! is what lets a replayed stream finalize to the bit-identical estimate.
//!
//! Decoding has two layers. [`WireReport::decode_text`] accepts each
//! family's full grammar and produces every error. GRR, OLH, OUE,
//! adaptive and HH reports also implement
//! [`WireReport::decode_canonical`], a byte-level decoder
//! built on [`Fields`] that accepts only the canonical form `encode` emits
//! (single spaces, unsigned decimal without leading zeros, lowercase hex of
//! at most 16 digits) and hands every other line to `decode_text`.
//! [`WireReport::decode`] tries the canonical path first, so the accepted
//! lines, decoded reports and error texts are those of `decode_text`.
//!
//! Report structs additionally carry `serde` derives so ecosystem formats
//! (JSON, bincode, …) work once the real `serde` replaces the vendored
//! stub; this hand-rolled format is the workspace's own dependency-free
//! path and the one the round-trip tests exercise.

use crate::error::CoreError;
use std::fmt::Write;

/// A report type with an exact one-line text encoding.
///
/// # Examples
///
/// `f64` reports (SW, PM, SR) round-trip to the exact bit pattern:
///
/// ```
/// use ldp_core::{decode_lines, encode_lines, WireReport};
///
/// let reports = vec![0.1 + 0.2, -0.75, 1.0 / 3.0];
/// let text = encode_lines(&reports);
/// let replayed: Vec<f64> = decode_lines(&text).unwrap();
/// for (a, b) in reports.iter().zip(&replayed) {
///     assert_eq!(a.to_bits(), b.to_bits());
/// }
/// // Malformed lines are rejected, never silently dropped.
/// assert!(decode_lines::<f64>("0.5\noops\n").is_err());
/// ```
pub trait WireReport: Sized {
    /// Appends the encoded report (no trailing newline) to `out`.
    fn encode(&self, out: &mut String);

    /// Decodes one line in the family's accepted grammar (every line
    /// [`WireReport::encode`] produces, and more; see
    /// `docs/WIRE_FORMAT.md`). Canonical lines take the byte-level
    /// [`WireReport::decode_canonical`] path; every other line, and every
    /// error, comes from [`WireReport::decode_text`].
    fn decode(line: &str) -> Result<Self, CoreError> {
        match Self::decode_canonical(line.as_bytes()) {
            Some(report) => Ok(report),
            None => Self::decode_text(line),
        }
    }

    /// Decodes one line with `str` parsing over the full accepted grammar.
    fn decode_text(line: &str) -> Result<Self, CoreError>;

    /// Decodes a line in exactly the canonical form [`WireReport::encode`]
    /// emits, returning `None` for any other line, valid or not.
    ///
    /// Whenever this returns `Some(r)`, [`WireReport::decode_text`] must
    /// return `Ok(r)` for the same line. The default accepts nothing.
    fn decode_canonical(_line: &[u8]) -> Option<Self> {
        None
    }
}

/// Encodes a slice of reports as newline-separated lines (with a trailing
/// newline when non-empty).
#[must_use]
pub fn encode_lines<T: WireReport>(reports: &[T]) -> String {
    let mut out = String::new();
    for r in reports {
        r.encode(&mut out);
        out.push('\n');
    }
    out
}

/// Decodes newline-separated report lines; blank lines are skipped.
pub fn decode_lines<T: WireReport>(s: &str) -> Result<Vec<T>, CoreError> {
    let mut reports = Vec::new();
    for line in s.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        reports.push(T::decode(line)?);
    }
    Ok(reports)
}

/// Parses one whitespace-separated field with a uniform error message.
pub fn parse_field<T: std::str::FromStr>(field: &str, what: &str) -> Result<T, CoreError> {
    field
        .parse()
        .map_err(|_| CoreError::Wire(format!("cannot parse {what} from {field:?}")))
}

/// A cursor over the fields of one canonical report line: ASCII fields
/// separated by single spaces, with no leading or trailing space.
///
/// Iterating yields the raw fields; the typed accessors parse the next
/// field in canonical form. Every accessor returns `None` on anything
/// else, so a [`WireReport::decode_canonical`] built on it rejects the
/// line and [`WireReport::decode`] falls back to `decode_text`.
///
/// # Examples
///
/// ```
/// use ldp_core::wire::Fields;
///
/// let mut fields = Fields::new(b"130 8041 ffffffffffffffff");
/// assert_eq!(fields.decimal::<usize>(), Some(130));
/// assert_eq!(fields.hex(), Some(0x8041));
/// assert_eq!(fields.hex(), Some(u64::MAX));
/// assert!(fields.is_done());
/// // Leading zeros, upper case and doubled spaces are not canonical.
/// assert_eq!(Fields::new(b"007").decimal::<u32>(), None);
/// assert_eq!(Fields::new(b"FF").hex(), None);
/// assert_eq!(Fields::new(b"1  2").nth(1), Some(&b""[..]));
/// ```
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    /// The bytes after the last separator consumed; `None` once the final
    /// field has been read.
    rest: Option<&'a [u8]>,
}

impl<'a> Fields<'a> {
    /// A cursor at the first field of `line`.
    #[must_use]
    pub fn new(line: &'a [u8]) -> Self {
        Fields { rest: Some(line) }
    }

    /// The next field as an unsigned decimal: one or more ASCII digits, no
    /// sign, no leading zero, and a value that fits `T`.
    pub fn decimal<T: TryFrom<u64>>(&mut self) -> Option<T> {
        self.next().and_then(parse_decimal)
    }

    /// The next field as a lowercase hex word of 1–16 digits with no
    /// leading zero, decoded with SWAR: two 8-byte loads find the field's
    /// end, range-check its digits and pack their nibbles, with no
    /// per-byte loop.
    pub fn hex(&mut self) -> Option<u64> {
        let rest = self.rest?;
        // The last field of a line may be shorter than 16 bytes: pad it
        // with spaces, which read as its end.
        let mut padded = [b' '; 16];
        let head = match rest.get(..16) {
            Some(head) => head,
            None => {
                padded[..rest.len()].copy_from_slice(rest);
                &padded
            }
        };
        let (len, word) = hex_word(head.try_into().ok()?)?;
        self.rest = match rest.get(len) {
            None => None,
            Some(b' ') => Some(&rest[len + 1..]),
            Some(_) => return None, // more than 16 digits
        };
        Some(word)
    }

    /// The bytes after the last separator consumed (the unread fields), or
    /// `None` once the final field has been read.
    #[must_use]
    pub fn rest(&self) -> Option<&'a [u8]> {
        self.rest
    }

    /// Whether every byte of the line has been consumed by a field.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.rest.is_none()
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    /// The next field, consuming the single space after it. Doubled,
    /// leading or trailing spaces show up as empty fields.
    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest?;
        match rest.iter().position(|&b| b == b' ') {
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

/// Checked digit loop over a canonical unsigned decimal field.
fn parse_decimal<T: TryFrom<u64>>(field: &[u8]) -> Option<T> {
    let (&first, _) = field.split_first()?;
    if first == b'0' && field.len() > 1 {
        return None;
    }
    let mut value = 0u64;
    for &b in field {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    T::try_from(value).ok()
}

/// SWAR decode of the hex field at the start of `head`, 16 line bytes
/// loaded as two big-endian words (so the first byte is the most
/// significant). Returns the field length (up to the first space, or all
/// 16 bytes) and its value, or `None` unless the field is 1–16 lowercase
/// hex digits with no leading zero.
fn hex_word(head: &[u8; 16]) -> Option<(usize, u64)> {
    let (high, low) = head.split_at(8);
    let high = u64::from_be_bytes(high.try_into().ok()?);
    let low = u64::from_be_bytes(low.try_into().ok()?);
    let len = match (spaces(high), spaces(low)) {
        (0, 0) => 16,
        (0, s) => 8 + s.leading_zeros() as usize / 8,
        (s, _) => s.leading_zeros() as usize / 8,
    };
    if len == 0 || (len > 1 && head[0] == b'0') {
        return None;
    }
    // The bytes of each word that belong to the field.
    let field = |start: usize| match len.saturating_sub(start) {
        0 => 0,
        n if n >= 8 => u64::MAX,
        n => u64::MAX << (8 * (8 - n)),
    };
    let (high_field, low_field) = (field(0), field(8));
    let (high, low) = (high & high_field, low & low_field);
    if !hex_digits(high, high_field) || !hex_digits(low, low_field) {
        return None;
    }
    let packed = (pack_nibbles(high) << 32) | pack_nibbles(low);
    // The zeroed bytes after the field packed to trailing zero nibbles.
    Some((len, packed >> (4 * (16 - len))))
}

/// Per-byte lanes of `u64` SWAR arithmetic.
const LANES: u64 = u64::MAX / 0xff;
const HIGH_BITS: u64 = LANES * 0x80;
const LOW_BITS: u64 = LANES * 0x7f;

/// The high bit of every byte of `x` that is an ASCII space. The zero-byte
/// test on `x` XOR a word of spaces never carries across bytes, so it is
/// exact in every byte, not just the first.
fn spaces(x: u64) -> u64 {
    let y = x ^ (LANES * u64::from(b' '));
    !(((y & LOW_BITS) + LOW_BITS) | y | LOW_BITS)
}

/// Whether every byte of `x` under `field` is in '0'..='9' or 'a'..='f'
/// (`x` is zero outside `field`). With the high bits cleared, adding
/// (0x80 - lo) sets a byte's high bit iff byte >= lo, adding (0x7f - hi)
/// iff byte > hi, and neither sum carries into the next byte.
fn hex_digits(x: u64, field: u64) -> bool {
    let in_range = |lo: u8, hi: u8| {
        let at_least_lo = (x & LOW_BITS) + LANES * u64::from(0x80 - lo);
        let above_hi = (x & LOW_BITS) + LANES * u64::from(0x7f - hi);
        at_least_lo & !above_hi & HIGH_BITS
    };
    x & HIGH_BITS == 0 && (in_range(b'0', b'9') | in_range(b'a', b'f')) == HIGH_BITS & field
}

/// The 32-bit value of eight hex digit bytes (zero bytes count as `0`).
fn pack_nibbles(x: u64) -> u64 {
    // '0'..='9' carry their value in the low nibble; 'a'..='f' carry 1..=6
    // there and have bit 6 set, which adds the missing 9.
    let nibbles = (x & (LANES * 0x0f)) + ((x >> 6) & LANES) * 9;
    // Nibble pairs into bytes, byte pairs into u16s, u16 pairs into the u32.
    let bytes = (nibbles | (nibbles >> 4)) & 0x00ff_00ff_00ff_00ff;
    let halves = (bytes | (bytes >> 8)) & 0x0000_ffff_0000_ffff;
    (halves | (halves >> 16)) & 0xffff_ffff
}

impl WireReport for f64 {
    fn encode(&self, out: &mut String) {
        // `{}` on f64 is shortest-round-trip: parsing the output recovers
        // the exact bit pattern (NaN payloads excepted, which no mechanism
        // emits).
        let _ = write!(out, "{self}");
    }

    fn decode_text(line: &str) -> Result<Self, CoreError> {
        parse_field(line, "f64 report")
    }
}

impl WireReport for usize {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode_text(line: &str) -> Result<Self, CoreError> {
        parse_field(line, "usize report")
    }

    fn decode_canonical(line: &[u8]) -> Option<Self> {
        let mut fields = Fields::new(line);
        let value = fields.decimal()?;
        fields.is_done().then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_exactly() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            -4.9e-324,
            1e308,
        ];
        for &v in &values {
            let mut s = String::new();
            v.encode(&mut s);
            let back = f64::decode(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn usize_round_trips() {
        for v in [0usize, 1, 63, usize::MAX] {
            let mut s = String::new();
            v.encode(&mut s);
            assert_eq!(usize::decode(&s).unwrap(), v);
        }
    }

    #[test]
    fn lines_round_trip_and_skip_blanks() {
        let reports = vec![0.25f64, -3.5, 1.0 / 7.0];
        let encoded = encode_lines(&reports);
        assert_eq!(encoded.lines().count(), 3);
        let with_blanks = format!("\n{encoded}\n  \n");
        let back: Vec<f64> = decode_lines(&with_blanks).unwrap();
        assert_eq!(back, reports);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(decode_lines::<f64>("not-a-number").is_err());
        assert!(decode_lines::<usize>("-3").is_err());
        assert!(matches!(f64::decode("x").unwrap_err(), CoreError::Wire(_)));
    }

    /// The canonical-form reference the scanner must match: lowercase hex,
    /// 1–16 digits, no leading zero.
    fn canonical_hex(field: &[u8]) -> Option<u64> {
        let ok = (1..=16).contains(&field.len())
            && field
                .iter()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
            && (field[0] != b'0' || field.len() == 1);
        ok.then(|| u64::from_str_radix(std::str::from_utf8(field).unwrap(), 16).unwrap())
    }

    #[test]
    fn swar_hex_matches_the_reference_on_every_single_byte_edit() {
        // Every byte value at every position of a full-width word, so each
        // edge of the SWAR range check (0x2f/0x30, 0x39/0x3a, 0x60/0x61,
        // 0x66/0x67, 0x7f/0x80) and of the space search is hit in every
        // byte lane, with and without bytes after the word.
        for base in [
            &b"fedcba9876543210"[..],
            b"fedcba9876543210 1",
            b"fedcba987",
            b"a 1",
        ] {
            for pos in 0..base.len() {
                for byte in 0..=255u8 {
                    let mut line = base.to_vec();
                    line[pos] = byte;
                    // The cursor reads up to the first space.
                    let first = line.split(|&b| b == b' ').next().unwrap();
                    let mut fields = Fields::new(&line);
                    assert_eq!(fields.hex(), canonical_hex(first), "{line:?}");
                    if canonical_hex(first).is_some() {
                        assert_eq!(fields.rest(), line.get(first.len() + 1..), "{line:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn hex_words_of_every_width_round_trip() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for shift in 0..64 {
            for _ in 0..64 {
                // xorshift64: cheap, deterministic words of every width.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let w = x >> shift;
                for line in [format!("{w:x}"), format!("{w:x} 5"), format!("{w:x} {w:x}")] {
                    let mut fields = Fields::new(line.as_bytes());
                    assert_eq!(fields.hex(), Some(w), "{line}");
                }
            }
        }
        for bad in [
            &b""[..],
            b"0f",
            b"FF",
            b"+1",
            b" 1",
            b"1ffffffffffffffff",
            b"g",
            b"\xff",
        ] {
            assert_eq!(Fields::new(bad).hex(), None, "{bad:?}");
        }
    }

    #[test]
    fn decimal_fields_are_checked_and_canonical() {
        let dec = |s: &str| Fields::new(s.as_bytes()).decimal::<u64>();
        assert_eq!(dec("0"), Some(0));
        assert_eq!(dec("18446744073709551615"), Some(u64::MAX));
        for bad in [
            "",
            "00",
            "07",
            "+1",
            "-1",
            "1a",
            " 1",
            "18446744073709551616",
        ] {
            assert_eq!(dec(bad), None, "{bad:?}");
        }
        assert_eq!(Fields::new(b"4294967295").decimal::<u32>(), Some(u32::MAX));
        assert_eq!(Fields::new(b"4294967296").decimal::<u32>(), None);
    }

    #[test]
    fn fields_split_on_single_spaces_only() {
        let mut f = Fields::new(b"12 ab");
        assert_eq!(f.next(), Some(&b"12"[..]));
        assert_eq!(f.rest(), Some(&b"ab"[..]));
        assert_eq!(f.next(), Some(&b"ab"[..]));
        assert!(f.is_done() && f.next().is_none());
        // A trailing space leaves an empty field behind: not done.
        let mut f = Fields::new(b"12 ");
        assert_eq!(f.decimal::<u8>(), Some(12));
        assert!(!f.is_done());
        // Tabs are not separators.
        assert_eq!(Fields::new(b"1\t2").decimal::<u8>(), None);
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert_eq!(decode_lines::<f64>("").unwrap(), Vec::<f64>::new());
        assert_eq!(encode_lines::<f64>(&[]), "");
    }
}
