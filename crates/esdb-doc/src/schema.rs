//! Collection schemas: field types and index declarations.
//!
//! The schema drives the query planner's access-path choices (paper §5.1):
//!
//! * fields with `indexed` get single-column inverted/numeric indexes,
//! * [`CompositeIndexDef`]s declare concatenated-column composite indexes
//!   (leftmost-prefix matchable),
//! * the *scan list* names low-cardinality columns that are cheaper to
//!   filter via a doc-value sequential scan than via their own index,
//! * `attr_index_top_k` configures frequency-based indexing of the
//!   "attributes" sub-attributes (paper §3.2 / §6.3.3): only the `k` most
//!   frequently queried sub-attributes get indexes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Declared type of a structured field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldType {
    /// 64-bit integer.
    Long,
    /// 64-bit float.
    Double,
    /// Boolean.
    Bool,
    /// Millisecond timestamp.
    Timestamp,
    /// Exact-match string (not analyzed).
    Keyword,
    /// Full-text string (tokenized by the analyzer).
    Text,
}

/// Declaration of one structured field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
    /// Whether a single-column index is built.
    pub indexed: bool,
    /// Whether columnar doc values are stored (needed for sequential scan,
    /// sorting, and aggregation).
    pub doc_values: bool,
}

/// A composite index over a left-to-right sequence of columns, stored as a
/// 1-D BKD-style tree over the order-preserving concatenation of the column
/// values (paper §5.1, "we build concatenated columns and one-dimension
/// Bkd-trees on these columns").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompositeIndexDef {
    /// Index name (by convention the columns joined with `_`).
    pub name: String,
    /// Ordered column list; queries must match a leftmost prefix with
    /// equalities, optionally followed by one range predicate.
    pub columns: Vec<String>,
}

/// Schema of a collection (table).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionSchema {
    /// Collection name.
    pub name: String,
    /// Field declarations, keyed by name.
    fields: BTreeMap<String, FieldDef>,
    /// Composite index declarations.
    pub composite_indexes: Vec<CompositeIndexDef>,
    /// Columns eligible for doc-value sequential scan as an access path.
    pub scan_list: Vec<String>,
    /// Frequency-based indexing: how many of the most frequent
    /// sub-attributes receive indexes (0 disables sub-attribute indexing).
    pub attr_index_top_k: usize,
}

impl CollectionSchema {
    /// Starts building a schema.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            schema: CollectionSchema {
                name: name.into(),
                fields: BTreeMap::new(),
                composite_indexes: Vec::new(),
                scan_list: Vec::new(),
                attr_index_top_k: 0,
            },
        }
    }

    /// The schema every figure harness uses: the paper's transaction-log
    /// template (§6.1): transaction ID (record ID), tenant ID, creation
    /// time, plus status/group/amount/title columns and the composite index
    /// `tenant_id_created_time` from the paper's running example (Fig. 8).
    pub fn transaction_logs() -> CollectionSchema {
        CollectionSchema::builder("transaction_logs")
            .field("status", FieldType::Long, true, true)
            .field("group", FieldType::Long, true, true)
            .field("buyer_id", FieldType::Long, true, true)
            .field("amount", FieldType::Double, true, true)
            .field("province", FieldType::Keyword, true, true)
            .field("auction_title", FieldType::Text, true, false)
            .composite_index("tenant_id_created_time", &["tenant_id", "created_time"])
            .scan("status")
            .attr_top_k(30)
            .build()
    }

    /// Field lookup. The routing virtuals `tenant_id`, `record_id` and
    /// `created_time` are always defined.
    pub fn field(&self, name: &str) -> Option<FieldDef> {
        match name {
            "tenant_id" => Some(FieldDef {
                name: "tenant_id".into(),
                ty: FieldType::Long,
                indexed: true,
                doc_values: true,
            }),
            "record_id" => Some(FieldDef {
                name: "record_id".into(),
                ty: FieldType::Long,
                indexed: true,
                doc_values: true,
            }),
            "created_time" => Some(FieldDef {
                name: "created_time".into(),
                ty: FieldType::Timestamp,
                indexed: true,
                doc_values: true,
            }),
            _ => self.fields.get(name).cloned(),
        }
    }

    /// All declared (non-virtual) fields.
    pub fn fields(&self) -> impl Iterator<Item = &FieldDef> {
        self.fields.values()
    }

    /// Whether `column` is in the sequential-scan list.
    pub fn in_scan_list(&self, column: &str) -> bool {
        self.scan_list.iter().any(|c| c == column)
    }
}

/// Builder for [`CollectionSchema`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    schema: CollectionSchema,
}

impl SchemaBuilder {
    /// Declares a field.
    pub fn field(mut self, name: &str, ty: FieldType, indexed: bool, doc_values: bool) -> Self {
        self.schema.fields.insert(
            name.to_string(),
            FieldDef {
                name: name.to_string(),
                ty,
                indexed,
                doc_values,
            },
        );
        self
    }

    /// Declares a composite index over `columns` (leftmost-prefix rule).
    pub fn composite_index(mut self, name: &str, columns: &[&str]) -> Self {
        self.schema.composite_indexes.push(CompositeIndexDef {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        });
        self
    }

    /// Adds a column to the sequential-scan list.
    pub(crate) fn scan(mut self, column: &str) -> Self {
        self.schema.scan_list.push(column.to_string());
        self
    }

    /// Sets the frequency-based sub-attribute indexing budget.
    pub(crate) fn attr_top_k(mut self, k: usize) -> Self {
        self.schema.attr_index_top_k = k;
        self
    }

    /// Finishes the schema.
    pub fn build(self) -> CollectionSchema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_logs_schema_shape() {
        let s = CollectionSchema::transaction_logs();
        assert_eq!(s.name, "transaction_logs");
        assert!(s.field("status").unwrap().indexed);
        assert_eq!(s.field("auction_title").unwrap().ty, FieldType::Text);
        assert!(s.in_scan_list("status"));
        assert_eq!(s.attr_index_top_k, 30);
    }

    #[test]
    fn routing_virtuals_always_defined() {
        let s = CollectionSchema::builder("t").build();
        assert!(s.field("tenant_id").unwrap().indexed);
        assert_eq!(s.field("created_time").unwrap().ty, FieldType::Timestamp);
        assert!(s.field("nope").is_none());
    }

    #[test]
    fn composite_lookup_by_leading_column() {
        let s = CollectionSchema::transaction_logs();
        let leading = |column: &str| {
            s.composite_indexes
                .iter()
                .filter(|c| c.columns.first().map(String::as_str) == Some(column))
                .collect::<Vec<_>>()
        };
        let c = leading("tenant_id");
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].columns, vec!["tenant_id", "created_time"]);
        assert!(leading("status").is_empty());
    }
}
