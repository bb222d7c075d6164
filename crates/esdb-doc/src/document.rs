//! Documents and write operations.
//!
//! Every write in ESDB is identified by the routing triple *(tenant ID `k1`,
//! record ID `k2`, record created time `tc`)* (paper §4.2). A [`Document`]
//! carries that triple plus arbitrary typed fields and the free-form
//! `attributes` sub-attribute list.

use crate::value::FieldValue;
use esdb_common::{RecordId, TenantId, TimestampMs};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A schema-flexible document (one transaction-log row).
///
/// Fields and attributes are immutable once built and shared by every
/// clone, so copying a document (a result's LIMIT survivors, a wire
/// projection, a write buffered for replay) costs one reference count,
/// not an allocation per string.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Tenant (seller) ID — primary routing attribute `k1`.
    pub tenant_id: TenantId,
    /// Record (transaction) ID — secondary routing attribute `k2`, unique
    /// per record.
    pub record_id: RecordId,
    /// Record creation time `tc`, used for rule matching and time-range
    /// predicates.
    pub created_at: TimestampMs,
    body: Arc<Body>,
}

/// The payload of a [`Document`] past its routing triple.
#[derive(Debug, Clone, Default, PartialEq)]
struct Body {
    /// Structured fields, sorted by name (binary-searchable).
    fields: Vec<(String, FieldValue)>,
    /// The "attributes" column: merchant-defined sub-attribute pairs.
    /// In production ~1500 distinct sub-attribute names exist; each document
    /// carries a small sample of them.
    attrs: Vec<(String, String)>,
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("tenant_id", &self.tenant_id)
            .field("record_id", &self.record_id)
            .field("created_at", &self.created_at)
            .field("fields", &self.body.fields)
            .field("attrs", &self.body.attrs)
            .finish()
    }
}

impl Document {
    /// Starts building a document for the given routing triple.
    pub fn builder(
        tenant_id: TenantId,
        record_id: RecordId,
        created_at: TimestampMs,
    ) -> DocumentBuilder {
        DocumentBuilder {
            doc: Document {
                tenant_id,
                record_id,
                created_at,
                body: Arc::default(),
            },
        }
    }

    /// Looks up a structured field by name. The routing triple is exposed as
    /// the virtual fields `tenant_id`, `record_id` and `created_time`.
    pub fn get(&self, name: &str) -> Option<FieldValue> {
        match name {
            "tenant_id" => return Some(FieldValue::Int(self.tenant_id.raw() as i64)),
            "record_id" => return Some(FieldValue::Int(self.record_id.raw() as i64)),
            "created_time" => return Some(FieldValue::Timestamp(self.created_at)),
            _ => {}
        }
        let fields = &self.body.fields;
        fields
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| fields[i].1.clone())
    }

    /// Iterates structured fields (excluding the routing virtuals).
    pub fn fields(&self) -> impl Iterator<Item = (&str, &FieldValue)> {
        self.body.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of structured fields.
    pub fn field_count(&self) -> usize {
        self.body.fields.len()
    }

    /// The sub-attribute pairs of the "attributes" column.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.body.attrs
    }

    /// Looks up a sub-attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.body
            .attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Approximate in-memory size in bytes, used by the simulator to model
    /// storage growth per shard.
    pub fn approx_size(&self) -> usize {
        let mut sz = 24; // routing triple
        for (n, v) in &self.body.fields {
            sz += n.len()
                + match v {
                    FieldValue::Str(s) => s.len() + 8,
                    _ => 9,
                };
        }
        for (k, v) in &self.body.attrs {
            sz += k.len() + v.len() + 2;
        }
        sz
    }
}

/// Builder for [`Document`], keeping fields sorted for binary search.
#[derive(Debug, Clone)]
pub struct DocumentBuilder {
    doc: Document,
}

impl DocumentBuilder {
    /// Sets a structured field (replacing any previous value).
    pub fn field(mut self, name: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        let name = name.into();
        let value = value.into();
        let fields = &mut Arc::make_mut(&mut self.doc.body).fields;
        match fields.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => fields[i].1 = value,
            Err(i) => fields.insert(i, (name, value)),
        }
        self
    }

    /// Appends a sub-attribute to the "attributes" column.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        Arc::make_mut(&mut self.doc.body)
            .attrs
            .push((name.into(), value.into()));
        self
    }

    /// Finishes the document. The vectors are trimmed to their length:
    /// the body lives as long as any clone of the document, so growth
    /// slack would be kept for the document's whole life.
    pub fn build(mut self) -> Document {
        let body = Arc::make_mut(&mut self.doc.body);
        body.fields.shrink_to_fit();
        body.attrs.shrink_to_fit();
        self.doc
    }
}

/// The kind of a write operation (paper §4.2: INSERT creates records;
/// UPDATE/DELETE modify existing ones and must route to the shard that holds
/// the original record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteKind {
    /// Create a new record.
    Insert,
    /// Replace the fields of an existing record.
    Update,
    /// Remove an existing record.
    Delete,
}

/// A routed write operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteOp {
    /// Operation kind.
    pub kind: WriteKind,
    /// The document payload. For deletes only the routing triple matters.
    pub doc: Document,
}

impl WriteOp {
    /// An insert of `doc`.
    pub fn insert(doc: Document) -> Self {
        WriteOp {
            kind: WriteKind::Insert,
            doc,
        }
    }

    /// An update carrying the new image of the record.
    pub fn update(doc: Document) -> Self {
        WriteOp {
            kind: WriteKind::Update,
            doc,
        }
    }

    /// A delete identified by the routing triple.
    pub fn delete(tenant: TenantId, record: RecordId, created_at: TimestampMs) -> Self {
        WriteOp {
            kind: WriteKind::Delete,
            doc: Document::builder(tenant, record, created_at).build(),
        }
    }

    /// The routing triple of this write.
    pub fn routing(&self) -> (TenantId, RecordId, TimestampMs) {
        (self.doc.tenant_id, self.doc.record_id, self.doc.created_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::builder(TenantId(10086), RecordId(1), 1000)
            .field("status", 1i64)
            .field("group", 666i64)
            .field("auction_title", "rust in action hardcover")
            .attr("activity", "single-day")
            .attr("size", "XL")
            .build()
    }

    #[test]
    fn builder_sorts_and_replaces_fields() {
        let d = Document::builder(TenantId(1), RecordId(2), 3)
            .field("b", 1i64)
            .field("a", 2i64)
            .field("b", 9i64)
            .build();
        let names: Vec<&str> = d.fields().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(d.get("b"), Some(FieldValue::Int(9)));
    }

    #[test]
    fn routing_virtual_fields() {
        let d = doc();
        assert_eq!(d.get("tenant_id"), Some(FieldValue::Int(10086)));
        assert_eq!(d.get("record_id"), Some(FieldValue::Int(1)));
        assert_eq!(d.get("created_time"), Some(FieldValue::Timestamp(1000)));
        assert_eq!(d.get("missing"), None);
    }

    #[test]
    fn attributes_column() {
        let d = doc();
        assert_eq!(d.attr("size"), Some("XL"));
        assert_eq!(d.attr("color"), None);
    }

    #[test]
    fn write_op_routing_triple() {
        let w = WriteOp::insert(doc());
        assert_eq!(w.routing(), (TenantId(10086), RecordId(1), 1000));
        let del = WriteOp::delete(TenantId(5), RecordId(6), 7);
        assert_eq!(del.kind, WriteKind::Delete);
        assert_eq!(del.routing(), (TenantId(5), RecordId(6), 7));
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Document::builder(TenantId(1), RecordId(1), 1).build();
        let big = doc();
        assert!(big.approx_size() > small.approx_size());
    }

    #[test]
    fn clones_share_the_body_and_builders_copy_on_write() {
        let base = Document::builder(TenantId(1), RecordId(2), 3).field("a", 1i64);
        let with_b = base.clone().field("b", 2i64).attr("k", "v").build();
        let with_c = base.field("c", 3i64).build();
        assert_eq!(with_b.get("c"), None);
        assert_eq!(with_c.get("b"), None);
        assert!(with_c.attrs().is_empty());
        let body = &with_b.body;
        assert_eq!(body.attrs.capacity(), body.attrs.len(), "build trims slack");
        let copy = with_b.clone();
        assert!(
            Arc::ptr_eq(&copy.body, &with_b.body),
            "a clone shares the body"
        );
        assert_eq!(copy, with_b);
    }
}
