//! Typed field values with a total order and an order-preserving byte
//! encoding.
//!
//! The composite index (paper §5.1) concatenates multiple column values into
//! a single key and stores those keys sorted in a 1-D BKD-style structure.
//! For range predicates to work on the concatenation, each value's byte
//! encoding must compare (as unsigned bytes) exactly like the value itself,
//! and the concatenation must respect field boundaries. [`FieldValue`]
//! provides `encode_ordered` with those guarantees, property-tested
//! against a decoder in this module and in the index crate.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A typed document field value.
///
/// The ordering is *total*: values of different types order by a fixed type
/// rank (Null < Bool < Int < Float < Timestamp < Str), then by value within
/// a type. Integers and floats are deliberately **not** cross-compared; the
/// schema layer ensures a column holds one type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Explicit null / missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer (IDs, statuses, counters).
    Int(i64),
    /// 64-bit float (prices, weights). NaN is rejected at construction.
    Float(f64),
    /// Millisecond timestamp (kept distinct from Int for schema clarity).
    Timestamp(u64),
    /// UTF-8 string (keywords and full-text source).
    Str(String),
}

/// Type ranks used for cross-type total ordering.
fn type_rank(v: &FieldValue) -> u8 {
    match v {
        FieldValue::Null => 0,
        FieldValue::Bool(_) => 1,
        FieldValue::Int(_) => 2,
        FieldValue::Float(_) => 3,
        FieldValue::Timestamp(_) => 4,
        FieldValue::Str(_) => 5,
    }
}

impl Eq for FieldValue {}

impl PartialOrd for FieldValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FieldValue {
    fn cmp(&self, other: &Self) -> Ordering {
        use FieldValue::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            // total_cmp keeps -0.0 < 0.0, matching the ordered encoding.
            (Float(a), Float(b)) => a.total_cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Null => write!(f, "NULL"),
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::Int(i) => write!(f, "{i}"),
            FieldValue::Float(x) => write!(f, "{x}"),
            FieldValue::Timestamp(t) => write!(f, "ts:{t}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl FieldValue {
    /// Builds a float value, rejecting NaN (which would break the total
    /// order and the index encoding).
    pub fn float(x: f64) -> Option<FieldValue> {
        if x.is_nan() {
            None
        } else {
            Some(FieldValue::Float(x))
        }
    }

    /// Returns the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            FieldValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Appends an order-preserving encoding of this value to `out`.
    ///
    /// Properties (byte-wise unsigned comparison of encodings):
    /// * `a < b  ⇒  enc(a) < enc(b)` for same-type values,
    /// * cross-type values order by type rank (the leading tag byte),
    /// * an encoding is never a strict prefix of another, so concatenated
    ///   multi-field keys compare field-by-field.
    pub fn encode_ordered(&self, out: &mut Vec<u8>) {
        match self {
            FieldValue::Null => out.push(0x00),
            FieldValue::Bool(b) => {
                out.push(0x01);
                out.push(*b as u8);
            }
            FieldValue::Int(i) => {
                out.push(0x02);
                // Flip the sign bit so negative numbers sort first.
                let u = (*i as u64) ^ (1 << 63);
                out.extend_from_slice(&u.to_be_bytes());
            }
            FieldValue::Float(x) => {
                out.push(0x03);
                let bits = x.to_bits();
                // IEEE-754 total-order trick: flip all bits for negatives,
                // only the sign bit for positives.
                let u = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits ^ (1 << 63)
                };
                out.extend_from_slice(&u.to_be_bytes());
            }
            FieldValue::Timestamp(t) => {
                out.push(0x04);
                out.extend_from_slice(&t.to_be_bytes());
            }
            FieldValue::Str(s) => {
                out.push(0x05);
                // Escape 0x00 -> 0x00 0xFF, terminate with 0x00 0x00 so no
                // encoding is a prefix of another and order is preserved.
                for &b in s.as_bytes() {
                    if b == 0x00 {
                        out.push(0x00);
                        out.push(0xFF);
                    } else {
                        out.push(b);
                    }
                }
                out.push(0x00);
                out.push(0x00);
            }
        }
    }

    /// Convenience: the ordered encoding as a fresh vector.
    pub fn to_ordered_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(10);
        self.encode_ordered(&mut v);
        v
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`FieldValue::encode_ordered`], the oracle for the
    /// round-trip tests: decodes one value from the front of `buf`,
    /// returning the value and the number of bytes consumed. Returns
    /// `None` on malformed input.
    fn decode_ordered(buf: &[u8]) -> Option<(FieldValue, usize)> {
        let tag = *buf.first()?;
        match tag {
            0x00 => Some((FieldValue::Null, 1)),
            0x01 => {
                let b = *buf.get(1)?;
                Some((FieldValue::Bool(b != 0), 2))
            }
            0x02 => {
                let bytes: [u8; 8] = buf.get(1..9)?.try_into().ok()?;
                let u = u64::from_be_bytes(bytes) ^ (1 << 63);
                Some((FieldValue::Int(u as i64), 9))
            }
            0x03 => {
                let bytes: [u8; 8] = buf.get(1..9)?.try_into().ok()?;
                let u = u64::from_be_bytes(bytes);
                let bits = if u >> 63 == 1 { u ^ (1 << 63) } else { !u };
                Some((FieldValue::Float(f64::from_bits(bits)), 9))
            }
            0x04 => {
                let bytes: [u8; 8] = buf.get(1..9)?.try_into().ok()?;
                Some((FieldValue::Timestamp(u64::from_be_bytes(bytes)), 9))
            }
            0x05 => {
                let mut s = Vec::new();
                let mut i = 1;
                loop {
                    let b = *buf.get(i)?;
                    if b == 0x00 {
                        let next = *buf.get(i + 1)?;
                        if next == 0x00 {
                            // Terminator.
                            let text = String::from_utf8(s).ok()?;
                            return Some((FieldValue::Str(text), i + 2));
                        } else if next == 0xFF {
                            s.push(0x00);
                            i += 2;
                        } else {
                            return None;
                        }
                    } else {
                        s.push(b);
                        i += 1;
                    }
                }
            }
            _ => None,
        }
    }
    use proptest::prelude::*;

    #[test]
    fn total_order_across_types() {
        let vals = [
            FieldValue::Null,
            FieldValue::Bool(false),
            FieldValue::Int(-5),
            FieldValue::Float(1.5),
            FieldValue::Timestamp(0),
            FieldValue::Str("a".into()),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn nan_rejected() {
        assert!(FieldValue::float(f64::NAN).is_none());
        assert!(FieldValue::float(1.0).is_some());
    }

    #[test]
    fn int_encoding_orders_negatives_first() {
        let a = FieldValue::Int(-10).to_ordered_bytes();
        let b = FieldValue::Int(-1).to_ordered_bytes();
        let c = FieldValue::Int(0).to_ordered_bytes();
        let d = FieldValue::Int(42).to_ordered_bytes();
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn float_encoding_total_order() {
        let xs = [-1e9, -1.5, -0.0, 0.0, 1e-300, 2.5, 1e308];
        let mut prev: Option<Vec<u8>> = None;
        for x in xs {
            let enc = FieldValue::Float(x).to_ordered_bytes();
            if let Some(p) = prev {
                assert!(p <= enc, "encoding not monotone at {x}");
            }
            prev = Some(enc);
        }
    }

    #[test]
    fn string_with_nul_roundtrips_and_orders() {
        let a = FieldValue::Str("a\0b".into());
        let b = FieldValue::Str("a\0c".into());
        let ea = a.to_ordered_bytes();
        let eb = b.to_ordered_bytes();
        assert!(ea < eb);
        let (da, na) = decode_ordered(&ea).unwrap();
        assert_eq!(da, a);
        assert_eq!(na, ea.len());
    }

    #[test]
    fn string_prefix_orders_before_extension() {
        // "ab" < "ab\0" < "aba" must hold through the encoding.
        let v1 = FieldValue::Str("ab".into()).to_ordered_bytes();
        let v2 = FieldValue::Str("ab\0".into()).to_ordered_bytes();
        let v3 = FieldValue::Str("aba".into()).to_ordered_bytes();
        assert!(v1 < v2, "prefix must sort first");
        assert!(v2 < v3, "NUL must sort before 'a'");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_ordered(&[]).is_none());
        assert!(decode_ordered(&[0x09]).is_none());
        assert!(decode_ordered(&[0x02, 1, 2]).is_none());
        // Unterminated string.
        assert!(decode_ordered(&[0x05, b'a']).is_none());
        // Bad escape.
        assert!(decode_ordered(&[0x05, 0x00, 0x01]).is_none());
    }

    fn arb_value() -> impl Strategy<Value = FieldValue> {
        prop_oneof![
            Just(FieldValue::Null),
            any::<bool>().prop_map(FieldValue::Bool),
            any::<i64>().prop_map(FieldValue::Int),
            any::<f64>()
                .prop_filter("no NaN", |x| !x.is_nan())
                .prop_map(FieldValue::Float),
            any::<u64>().prop_map(FieldValue::Timestamp),
            ".{0,32}".prop_map(FieldValue::Str),
        ]
    }

    proptest! {
        #[test]
        fn prop_encode_decode_roundtrip(v in arb_value()) {
            let enc = v.to_ordered_bytes();
            let (dec, n) = decode_ordered(&enc).expect("decodes");
            prop_assert_eq!(n, enc.len());
            // -0.0 == 0.0 under PartialEq; ordering encoding distinguishes
            // them, so compare via Ord (Equal) rather than bitwise.
            prop_assert_eq!(dec.cmp(&v), Ordering::Equal);
        }

        #[test]
        fn prop_encoding_preserves_order(a in arb_value(), b in arb_value()) {
            let ea = a.to_ordered_bytes();
            let eb = b.to_ordered_bytes();
            prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
        }

        #[test]
        fn prop_concatenated_keys_compare_fieldwise(
            a1 in arb_value(), a2 in arb_value(),
            b1 in arb_value(), b2 in arb_value()
        ) {
            let mut ka = a1.to_ordered_bytes();
            a2.encode_ordered(&mut ka);
            let mut kb = b1.to_ordered_bytes();
            b2.encode_ordered(&mut kb);
            let expect = a1.cmp(&b1).then(a2.cmp(&b2));
            prop_assert_eq!(ka.cmp(&kb), expect);
        }
    }
}
