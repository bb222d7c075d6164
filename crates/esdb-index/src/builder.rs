//! The in-memory indexing buffer.
//!
//! Writes land in a [`SegmentBuilder`] ("raw data and indices are temporally
//! written into an in-memory buffer", §3.3); `refresh` freezes it into an
//! immutable [`Segment`] that becomes searchable. The builder also applies
//! the frequency-based sub-attribute indexing decision: only sub-attributes
//! in the `indexed_attrs` set get inverted indexes (§3.2, §6.3.3).

use crate::analyzer::Analyzer;
use crate::segment::{
    f64_sort_key, ColumnValues, CompositeIndex, DocId, LiveDocs, Segment, SegmentCore, SegmentId,
};
use esdb_common::fastmap::{fast_map, fast_set, FastMap, FastSet};
use esdb_doc::{CollectionSchema, Document, FieldType, FieldValue};
use std::collections::BTreeMap;

/// Accumulates documents and builds a [`Segment`] on refresh.
pub struct SegmentBuilder {
    schema: CollectionSchema,
    analyzer: Analyzer,
    /// Sub-attributes that receive indexes in the built segment.
    indexed_attrs: FastSet<String>,
    docs: Vec<Document>,
    size_bytes: usize,
}

impl SegmentBuilder {
    /// Builder for `schema`, indexing the sub-attributes in `indexed_attrs`.
    pub fn new(schema: CollectionSchema, indexed_attrs: FastSet<String>) -> Self {
        SegmentBuilder {
            schema,
            analyzer: Analyzer::default(),
            indexed_attrs,
            docs: Vec::new(),
            size_bytes: 0,
        }
    }

    /// Builder with no sub-attribute indexing.
    pub fn without_attr_index(schema: CollectionSchema) -> Self {
        SegmentBuilder::new(schema, fast_set())
    }

    /// Buffers one document.
    pub fn add(&mut self, doc: Document) {
        self.size_bytes += doc.approx_size();
        self.docs.push(doc);
    }

    /// Freezes the buffer into a segment with id `id`, leaving the builder
    /// empty and reusable.
    pub fn refresh(&mut self, id: SegmentId) -> Segment {
        let docs = std::mem::take(&mut self.docs);
        let size_bytes = std::mem::replace(&mut self.size_bytes, 0);
        build_segment(
            id,
            docs,
            &self.schema,
            &self.analyzer,
            &self.indexed_attrs,
            size_bytes,
        )
    }
}

/// Builds a fully-indexed segment from raw documents. Exposed for the merge
/// path, which re-indexes the union of live docs of its inputs.
pub fn build_segment(
    id: SegmentId,
    docs: Vec<Document>,
    schema: &CollectionSchema,
    analyzer: &Analyzer,
    indexed_attrs: &FastSet<String>,
    size_bytes: usize,
) -> Segment {
    let n = docs.len();
    let mut inverted: FastMap<String, BTreeMap<String, Vec<DocId>>> = fast_map();
    let mut numeric: FastMap<String, Vec<(i64, DocId)>> = fast_map();
    let mut numeric_f64: FastMap<String, Vec<(u64, DocId)>> = fast_map();
    let mut doc_values: FastMap<String, ColumnValues> = fast_map();
    let mut attr_inverted: FastMap<String, BTreeMap<String, Vec<DocId>>> = fast_map();
    let mut by_record: FastMap<u64, DocId> = fast_map();

    // Pre-create doc-value columns for declared fields.
    for f in schema.fields() {
        if !f.doc_values {
            continue;
        }
        let col = match f.ty {
            FieldType::Long | FieldType::Bool => ColumnValues::I64(vec![None; n]),
            FieldType::Double => ColumnValues::F64(vec![None; n]),
            FieldType::Timestamp => ColumnValues::U64(vec![None; n]),
            FieldType::Keyword | FieldType::Text => ColumnValues::Str(vec![None; n]),
        };
        doc_values.insert(f.name.clone(), col);
    }

    // Routing virtuals always get numeric indexes (every query template in
    // the paper filters on tenant_id and created_time).
    numeric.insert("tenant_id".to_string(), Vec::with_capacity(n));
    numeric.insert("record_id".to_string(), Vec::with_capacity(n));
    numeric.insert("created_time".to_string(), Vec::with_capacity(n));

    for (i, doc) in docs.iter().enumerate() {
        let d = i as DocId;
        by_record.insert(doc.record_id.raw(), d);
        numeric
            .get_mut("tenant_id")
            .expect("pre-created")
            .push((doc.tenant_id.raw() as i64, d));
        numeric
            .get_mut("record_id")
            .expect("pre-created")
            .push((doc.record_id.raw() as i64, d));
        numeric
            .get_mut("created_time")
            .expect("pre-created")
            .push((doc.created_at as i64, d));

        for (name, value) in doc.fields() {
            let Some(def) = schema.field(name) else {
                // Dynamic (undeclared) field: store nothing, searchable via
                // stored-doc fallback only.
                continue;
            };
            if def.indexed {
                match (&def.ty, value) {
                    (FieldType::Text, FieldValue::Str(s)) => {
                        let terms = analyzer.tokenize(s);
                        let field_map = inverted.entry(name.to_string()).or_default();
                        for t in terms {
                            let list = field_map.entry(t).or_default();
                            if list.last() != Some(&d) {
                                list.push(d);
                            }
                        }
                    }
                    (FieldType::Keyword, FieldValue::Str(s)) => {
                        inverted
                            .entry(name.to_string())
                            .or_default()
                            .entry(s.clone())
                            .or_default()
                            .push(d);
                    }
                    (FieldType::Long, FieldValue::Int(v)) => {
                        numeric.entry(name.to_string()).or_default().push((*v, d));
                    }
                    (FieldType::Bool, FieldValue::Bool(b)) => {
                        numeric
                            .entry(name.to_string())
                            .or_default()
                            .push((*b as i64, d));
                    }
                    (FieldType::Timestamp, FieldValue::Timestamp(t)) => {
                        numeric
                            .entry(name.to_string())
                            .or_default()
                            .push((*t as i64, d));
                    }
                    (FieldType::Double, FieldValue::Float(x)) => {
                        numeric_f64
                            .entry(name.to_string())
                            .or_default()
                            .push((f64_sort_key(*x), d));
                    }
                    // Type mismatch or unindexable type: skip the index,
                    // the value stays reachable via stored fields.
                    _ => {}
                }
            }
            if def.doc_values {
                if let Some(col) = doc_values.get_mut(name) {
                    match (col, value) {
                        (ColumnValues::I64(v), FieldValue::Int(x)) => v[i] = Some(*x),
                        (ColumnValues::I64(v), FieldValue::Bool(b)) => v[i] = Some(*b as i64),
                        (ColumnValues::F64(v), FieldValue::Float(x)) => v[i] = Some(*x),
                        (ColumnValues::U64(v), FieldValue::Timestamp(t)) => v[i] = Some(*t),
                        (ColumnValues::Str(v), FieldValue::Str(s)) => v[i] = Some(s.clone()),
                        _ => {}
                    }
                }
            }
        }

        for (aname, avalue) in doc.attrs() {
            if indexed_attrs.contains(aname) {
                attr_inverted
                    .entry(aname.clone())
                    .or_default()
                    .entry(avalue.clone())
                    .or_default()
                    .push(d);
            }
        }
    }

    // Typed columns for the routing virtuals: aggregation pushdown and
    // block-wise sort-key extraction read tenant_id/record_id/created_time
    // without touching stored payloads. Inserted after the field loop so
    // they win over any same-named declared column.
    doc_values.insert(
        "tenant_id".to_string(),
        ColumnValues::I64(
            docs.iter()
                .map(|d| Some(d.tenant_id.raw() as i64))
                .collect(),
        ),
    );
    doc_values.insert(
        "record_id".to_string(),
        ColumnValues::I64(
            docs.iter()
                .map(|d| Some(d.record_id.raw() as i64))
                .collect(),
        ),
    );
    doc_values.insert(
        "created_time".to_string(),
        ColumnValues::U64(docs.iter().map(|d| Some(d.created_at)).collect()),
    );

    for lists in numeric.values_mut() {
        lists.sort_unstable();
    }
    for lists in numeric_f64.values_mut() {
        lists.sort_unstable();
    }

    // Composite indexes from the schema.
    let mut composites: FastMap<String, CompositeIndex> = fast_map();
    for def in &schema.composite_indexes {
        let mut entries = Vec::with_capacity(n);
        'doc: for (i, doc) in docs.iter().enumerate() {
            let mut key = Vec::with_capacity(def.columns.len() * 10);
            for col in &def.columns {
                match doc.get(col) {
                    Some(v) => v.encode_ordered(&mut key),
                    // A doc missing a composite column is absent from the
                    // index (like Lucene sparse points).
                    None => continue 'doc,
                }
            }
            entries.push((key, i as DocId));
        }
        composites.insert(
            def.name.clone(),
            CompositeIndex::build(def.columns.clone(), entries),
        );
    }

    let to_postings = |m: FastMap<String, BTreeMap<String, Vec<DocId>>>| -> FastMap<String, BTreeMap<String, crate::postings::PostingList>> {
        m.into_iter()
            .map(|(f, terms)| {
                (
                    f,
                    terms
                        .into_iter()
                        .map(|(t, ids)| (t, crate::postings::PostingList::from_unsorted(ids)))
                        .collect(),
                )
            })
            .collect()
    };

    let inverted = to_postings(inverted);
    let attr_inverted = to_postings(attr_inverted);

    // Report the real serialized footprint: stored docs plus every index
    // structure (the storage-overhead numbers of §6.3.3 depend on this).
    let mut size_bytes = size_bytes;
    for terms in inverted.values() {
        for (t, list) in terms {
            size_bytes += t.len() + 4 * list.len();
        }
    }
    for terms in attr_inverted.values() {
        for (t, list) in terms {
            size_bytes += t.len() + 4 * list.len();
        }
    }
    for lists in numeric.values() {
        size_bytes += 12 * lists.len();
    }
    for lists in numeric_f64.values() {
        size_bytes += 12 * lists.len();
    }
    for c in composites.values() {
        size_bytes += c.compressed_size();
    }

    Segment::from_parts(
        id,
        SegmentCore {
            by_record,
            inverted,
            numeric,
            numeric_f64,
            doc_values,
            composites,
            attr_inverted,
            indexed_attrs: indexed_attrs.clone(),
            docs,
            size_bytes,
        },
        LiveDocs {
            bits: vec![true; n],
            count: n,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};

    fn sample_docs() -> Vec<Document> {
        vec![
            Document::builder(TenantId(1), RecordId(100), 1000)
                .field("status", 1i64)
                .field("group", 666i64)
                .field("province", "zhejiang")
                .field("auction_title", "Rust in Action hardcover")
                .attr("activity", "1111")
                .attr("size", "XL")
                .build(),
            Document::builder(TenantId(1), RecordId(101), 2000)
                .field("status", 0i64)
                .field("province", "jiangsu")
                .field("auction_title", "Database Internals")
                .attr("activity", "618")
                .build(),
            Document::builder(TenantId(2), RecordId(102), 1500)
                .field("status", 1i64)
                .field("auction_title", "rust programming language book")
                .attr("size", "M")
                .build(),
        ]
    }

    fn build() -> Segment {
        let schema = CollectionSchema::transaction_logs();
        let mut attrs = fast_set();
        attrs.insert("activity".to_string());
        let mut b = SegmentBuilder::new(schema, attrs);
        for d in sample_docs() {
            b.add(d);
        }
        assert_eq!(b.docs.len(), 3);
        let s = b.refresh(7);
        assert!(b.docs.is_empty(), "refresh drains the buffer");
        s
    }

    #[test]
    fn full_text_terms_searchable() {
        let s = build();
        assert_eq!(s.term_docs("auction_title", "rust").ids(), &[0, 2]);
        assert_eq!(s.term_docs("auction_title", "internals").ids(), &[1]);
        assert!(
            s.term_docs("auction_title", "Rust").is_empty(),
            "terms are normalized"
        );
    }

    #[test]
    fn keyword_exact_match() {
        let s = build();
        assert_eq!(s.term_docs("province", "zhejiang").ids(), &[0]);
        assert!(s.term_docs("province", "zhe").is_empty());
    }

    #[test]
    fn numeric_eq_and_range() {
        let s = build();
        assert_eq!(s.numeric_eq("status", 1).ids(), &[0, 2]);
        assert_eq!(s.numeric_eq("group", 666).ids(), &[0]);
        assert_eq!(
            s.numeric_range("created_time", Some(1200), Some(1800))
                .ids(),
            &[2]
        );
        assert_eq!(s.numeric_eq("tenant_id", 1).ids(), &[0, 1]);
    }

    #[test]
    fn composite_index_built_from_schema() {
        let s = build();
        let prefix = FieldValue::Int(1).to_ordered_bytes();
        let got = s.composite_lookup("tenant_id_created_time", &prefix, None);
        assert_eq!(got.ids(), &[0, 1]);
    }

    #[test]
    fn attr_indexing_is_selective() {
        let s = build();
        // "activity" was in the indexed set.
        assert_eq!(s.attr_docs("activity", "1111").unwrap().ids(), &[0]);
        assert_eq!(s.attr_docs("activity", "nope").unwrap().len(), 0);
        // "size" was not — callers must fall back to scanning.
        assert!(s.attr_docs("size", "XL").is_none());
    }

    #[test]
    fn doc_values_readable() {
        let s = build();
        assert_eq!(s.doc_value("status", 0), Some(FieldValue::Int(1)));
        assert_eq!(
            s.doc_value("province", 1),
            Some(FieldValue::Str("jiangsu".into()))
        );
        assert_eq!(s.doc_value("group", 1), None, "missing value is None");
        assert_eq!(
            s.doc_value("created_time", 2),
            Some(FieldValue::Timestamp(1500))
        );
    }

    #[test]
    fn scan_filter_applies_predicate() {
        let s = build();
        let input = s.all_live();
        let got = s.scan_filter("status", &input, |v| v == Some(&FieldValue::Int(1)));
        assert_eq!(got.ids(), &[0, 2]);
    }

    #[test]
    fn deletes_hide_docs_everywhere() {
        let mut s = build();
        assert!(s.delete_record(100));
        assert!(!s.delete_record(100), "double delete is a no-op");
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.term_docs("auction_title", "rust").ids(), &[2]);
        assert_eq!(s.numeric_eq("status", 1).ids(), &[2]);
        assert!(s.find_record(100).is_none());
        let prefix = FieldValue::Int(1).to_ordered_bytes();
        assert_eq!(
            s.composite_lookup("tenant_id_created_time", &prefix, None)
                .ids(),
            &[1]
        );
    }

    #[test]
    fn dynamic_fields_stored_not_indexed() {
        let schema = CollectionSchema::transaction_logs();
        let mut b = SegmentBuilder::without_attr_index(schema);
        b.add(
            Document::builder(TenantId(9), RecordId(1), 1)
                .field("custom_note", "hello")
                .build(),
        );
        let s = b.refresh(1);
        assert!(s.term_docs("custom_note", "hello").is_empty());
        assert_eq!(
            s.doc(0).unwrap().get("custom_note"),
            Some(FieldValue::Str("hello".into()))
        );
    }
}
