//! Binary serialization for write operations and documents.
//!
//! A small, self-contained codec (no external serialization crates):
//! little-endian fixed-width integers, length-prefixed strings, tagged
//! field values. Every framed record carries a Murmur3 checksum so the
//! translog and segment files detect torn writes and corruption.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use esdb_common::hash::murmur3_32;
use esdb_common::{EsdbError, RecordId, Result, TenantId};
use esdb_doc::{Document, FieldValue, WriteKind, WriteOp};

/// Encodes a [`FieldValue`] with a 1-byte tag.
pub(crate) fn put_value(buf: &mut BytesMut, v: &FieldValue) {
    match v {
        FieldValue::Null => buf.put_u8(0),
        FieldValue::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        FieldValue::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        FieldValue::Float(x) => {
            buf.put_u8(3);
            buf.put_f64_le(*x);
        }
        FieldValue::Timestamp(t) => {
            buf.put_u8(4);
            buf.put_u64_le(*t);
        }
        FieldValue::Str(s) => {
            buf.put_u8(5);
            put_str(buf, s);
        }
    }
}

/// Decodes a [`FieldValue`].
pub(crate) fn get_value(buf: &mut Bytes) -> Result<FieldValue> {
    if buf.remaining() < 1 {
        return Err(EsdbError::Corruption("truncated value tag".into()));
    }
    match buf.get_u8() {
        0 => Ok(FieldValue::Null),
        1 => {
            check(buf, 1)?;
            Ok(FieldValue::Bool(buf.get_u8() != 0))
        }
        2 => {
            check(buf, 8)?;
            Ok(FieldValue::Int(buf.get_i64_le()))
        }
        3 => {
            check(buf, 8)?;
            Ok(FieldValue::Float(buf.get_f64_le()))
        }
        4 => {
            check(buf, 8)?;
            Ok(FieldValue::Timestamp(buf.get_u64_le()))
        }
        5 => Ok(FieldValue::Str(get_str(buf)?)),
        t => Err(EsdbError::Corruption(format!("bad value tag {t}"))),
    }
}

/// Length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub(crate) fn get_str(buf: &mut Bytes) -> Result<String> {
    check(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    check(buf, len)?;
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|e| EsdbError::Corruption(format!("bad utf8: {e}")))
}

fn check(buf: &Bytes, need: usize) -> Result<()> {
    if buf.remaining() < need {
        Err(EsdbError::Corruption(format!(
            "truncated: need {need}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Encodes a [`Document`].
pub(crate) fn put_document(buf: &mut BytesMut, doc: &Document) {
    buf.put_u64_le(doc.tenant_id.raw());
    buf.put_u64_le(doc.record_id.raw());
    buf.put_u64_le(doc.created_at);
    buf.put_u32_le(doc.field_count() as u32);
    for (name, value) in doc.fields() {
        put_str(buf, name);
        put_value(buf, value);
    }
    buf.put_u32_le(doc.attrs().len() as u32);
    for (k, v) in doc.attrs() {
        put_str(buf, k);
        put_str(buf, v);
    }
}

/// Decodes a [`Document`].
pub(crate) fn get_document(buf: &mut Bytes) -> Result<Document> {
    check(buf, 8 * 3 + 4)?;
    let tenant = TenantId(buf.get_u64_le());
    let record = RecordId(buf.get_u64_le());
    let created = buf.get_u64_le();
    let nfields = buf.get_u32_le() as usize;
    if nfields > 1 << 20 {
        return Err(EsdbError::Corruption(format!(
            "absurd field count {nfields}"
        )));
    }
    let mut b = Document::builder(tenant, record, created);
    for _ in 0..nfields {
        let name = get_str(buf)?;
        let value = get_value(buf)?;
        b = b.field(name, value);
    }
    check(buf, 4)?;
    let nattrs = buf.get_u32_le() as usize;
    if nattrs > 1 << 20 {
        return Err(EsdbError::Corruption(format!("absurd attr count {nattrs}")));
    }
    for _ in 0..nattrs {
        let k = get_str(buf)?;
        let v = get_str(buf)?;
        b = b.attr(k, v);
    }
    Ok(b.build())
}

/// Encodes a [`WriteOp`] to a standalone byte vector.
pub fn encode_op(op: &WriteOp) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(128);
    buf.put_u8(match op.kind {
        WriteKind::Insert => 0,
        WriteKind::Update => 1,
        WriteKind::Delete => 2,
    });
    put_document(&mut buf, &op.doc);
    buf.to_vec()
}

/// Decodes a [`WriteOp`] from bytes produced by [`encode_op`].
pub fn decode_op(bytes: &[u8]) -> Result<WriteOp> {
    let mut buf = Bytes::copy_from_slice(bytes);
    check(&buf, 1)?;
    let kind = match buf.get_u8() {
        0 => WriteKind::Insert,
        1 => WriteKind::Update,
        2 => WriteKind::Delete,
        t => return Err(EsdbError::Corruption(format!("bad op kind {t}"))),
    };
    let doc = get_document(&mut buf)?;
    Ok(WriteOp { kind, doc })
}

/// Frames `payload` as `[len u32][checksum u32][payload]`.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&murmur3_32(payload, 0).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads one frame from `data`, returning `(payload, bytes_consumed)`.
/// `Ok(None)` means a clean end (no more bytes); a torn/corrupt frame is an
/// error carrying how many clean bytes preceded it.
pub(crate) fn read_frame(data: &[u8]) -> Result<Option<(&[u8], usize)>> {
    if data.is_empty() {
        return Ok(None);
    }
    if data.len() < 8 {
        return Err(EsdbError::Corruption("torn frame header".into()));
    }
    let len = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes")) as usize;
    let sum = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if data.len() < 8 + len {
        return Err(EsdbError::Corruption("torn frame payload".into()));
    }
    let payload = &data[8..8 + len];
    if murmur3_32(payload, 0) != sum {
        return Err(EsdbError::Corruption("frame checksum mismatch".into()));
    }
    Ok(Some((payload, 8 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_doc() -> Document {
        Document::builder(TenantId(10086), RecordId(42), 1_700_000_000_000)
            .field("status", 1i64)
            .field("amount", FieldValue::Float(99.5))
            .field("title", "双11 hardcover")
            .field("flag", true)
            .field("nil", FieldValue::Null)
            .field("ts", FieldValue::Timestamp(123))
            .attr("activity", "1111")
            .build()
    }

    #[test]
    fn document_roundtrip() {
        let d = sample_doc();
        let mut buf = BytesMut::new();
        put_document(&mut buf, &d);
        let mut bytes = buf.freeze();
        let back = get_document(&mut bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn op_roundtrip_all_kinds() {
        for op in [
            WriteOp::insert(sample_doc()),
            WriteOp::update(sample_doc()),
            WriteOp::delete(TenantId(1), RecordId(2), 3),
        ] {
            assert_eq!(decode_op(&encode_op(&op)).unwrap(), op);
        }
    }

    #[test]
    fn frame_roundtrip_and_corruption() {
        let payload = b"hello world";
        let framed = frame(payload);
        let (got, n) = read_frame(&framed).unwrap().unwrap();
        assert_eq!(got, payload);
        assert_eq!(n, framed.len());
        // Flip a payload byte → checksum error.
        let mut bad = framed.clone();
        bad[10] ^= 0xFF;
        assert!(matches!(read_frame(&bad), Err(EsdbError::Corruption(_))));
        // Truncated payload → torn frame.
        assert!(read_frame(&framed[..framed.len() - 1]).is_err());
        // Empty = clean end.
        assert!(read_frame(&[]).unwrap().is_none());
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[9]).is_err());
        assert!(decode_op(&[0, 1, 2, 3]).is_err());
    }

    fn arb_value() -> impl Strategy<Value = FieldValue> {
        prop_oneof![
            Just(FieldValue::Null),
            any::<bool>().prop_map(FieldValue::Bool),
            any::<i64>().prop_map(FieldValue::Int),
            any::<f64>()
                .prop_filter("no nan", |x| !x.is_nan())
                .prop_map(FieldValue::Float),
            any::<u64>().prop_map(FieldValue::Timestamp),
            ".{0,20}".prop_map(FieldValue::Str),
        ]
    }

    proptest! {
        #[test]
        fn prop_op_roundtrip(
            tenant in any::<u64>(),
            record in any::<u64>(),
            created in any::<u64>(),
            fields in proptest::collection::vec(("[a-z]{1,8}", arb_value()), 0..8),
            attrs in proptest::collection::vec(("[a-z]{1,8}", ".{0,10}"), 0..5),
            kind in 0u8..3,
        ) {
            let mut b = Document::builder(TenantId(tenant), RecordId(record), created);
            for (n, v) in fields {
                b = b.field(n, v);
            }
            for (k, v) in attrs {
                b = b.attr(k, v);
            }
            let doc = b.build();
            let op = match kind {
                0 => WriteOp::insert(doc),
                1 => WriteOp::update(doc),
                _ => WriteOp { kind: WriteKind::Delete, doc },
            };
            let back = decode_op(&encode_op(&op)).unwrap();
            prop_assert_eq!(back, op);
        }
    }
}
