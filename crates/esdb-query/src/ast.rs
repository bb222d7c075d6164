//! The logical query AST (the ES-DSL analogue — "ES-DSL encodes query ASTs
//! directly", §3.1).

use esdb_doc::FieldValue;

/// An inclusive/exclusive/absent range bound.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// No bound on this side.
    Unbounded,
    /// Inclusive bound.
    Included(FieldValue),
    /// Exclusive bound.
    Excluded(FieldValue),
}

impl Bound {
    /// The bound's value, if any.
    pub(crate) fn value(&self) -> Option<&FieldValue> {
        match self {
            Bound::Unbounded => None,
            Bound::Included(v) | Bound::Excluded(v) => Some(v),
        }
    }
}

/// A boolean filter expression over document fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `col = value`.
    Eq(String, FieldValue),
    /// `col != value`.
    Ne(String, FieldValue),
    /// `col IN (v1, v2, ...)`.
    In(String, Vec<FieldValue>),
    /// `col BETWEEN / < / <= / > / >=` — a (possibly half-open) range.
    Range(String, Bound, Bound),
    /// Full-text term match: `MATCH(col, 'terms ...')` — every term must
    /// appear in the analyzed field.
    Match(String, String),
    /// Sub-attribute equality on the "attributes" column:
    /// `ATTR('name') = 'value'`.
    AttrEq(String, String),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// The always-true filter (`WHERE` absent).
    True,
}

impl Expr {
    /// AST depth (the metric Xdriver4ES's CNF/DNF conversion reduces,
    /// §3.1).
    pub(crate) fn depth(&self) -> usize {
        match self {
            Expr::And(cs) | Expr::Or(cs) => 1 + cs.iter().map(Expr::depth).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Number of leaf predicates.
    pub(crate) fn leaf_count(&self) -> usize {
        match self {
            Expr::And(cs) | Expr::Or(cs) => cs.iter().map(Expr::leaf_count).sum(),
            Expr::True => 0,
            _ => 1,
        }
    }

    /// Evaluates the expression against a document — the reference
    /// semantics that the planner/executor must agree with (used by the
    /// full-scan fallback and by property tests).
    pub fn matches(&self, doc: &esdb_doc::Document) -> bool {
        match self {
            Expr::True => true,
            Expr::Eq(col, v) => doc.get(col).is_some_and(|x| values_eq(&x, v)),
            Expr::Ne(col, v) => doc.get(col).is_some_and(|x| !values_eq(&x, v)),
            Expr::In(col, vs) => doc
                .get(col)
                .is_some_and(|x| vs.iter().any(|v| values_eq(&x, v))),
            Expr::Range(col, lo, hi) => {
                let Some(x) = doc.get(col) else { return false };
                let lo_ok = match lo {
                    Bound::Unbounded => true,
                    Bound::Included(v) => {
                        cmp_values(&x, v).is_some_and(|o| o >= std::cmp::Ordering::Equal)
                    }
                    Bound::Excluded(v) => cmp_values(&x, v) == Some(std::cmp::Ordering::Greater),
                };
                let hi_ok = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(v) => {
                        cmp_values(&x, v).is_some_and(|o| o <= std::cmp::Ordering::Equal)
                    }
                    Bound::Excluded(v) => cmp_values(&x, v) == Some(std::cmp::Ordering::Less),
                };
                lo_ok && hi_ok
            }
            Expr::Match(col, text) => {
                let Some(FieldValue::Str(s)) = doc.get(col) else {
                    return false;
                };
                let analyzer = esdb_index::Analyzer::default();
                let doc_terms: std::collections::HashSet<String> =
                    analyzer.tokenize(&s).into_iter().collect();
                analyzer
                    .tokenize(text)
                    .iter()
                    .all(|t| doc_terms.contains(t))
            }
            Expr::AttrEq(name, value) => doc.attr(name) == Some(value.as_str()),
            Expr::And(cs) => cs.iter().all(|c| c.matches(doc)),
            Expr::Or(cs) => cs.iter().any(|c| c.matches(doc)),
        }
    }
}

/// Equality across the Int/Timestamp divide (SQL comparisons don't care
/// which of the two a column was declared as).
pub(crate) fn values_eq(a: &FieldValue, b: &FieldValue) -> bool {
    cmp_values(a, b) == Some(std::cmp::Ordering::Equal)
}

/// Comparison across numeric-ish types; `None` for incomparable types.
pub(crate) fn cmp_values(a: &FieldValue, b: &FieldValue) -> Option<std::cmp::Ordering> {
    use FieldValue::*;
    match (a, b) {
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Timestamp(x), Timestamp(y)) => Some(x.cmp(y)),
        (Int(x), Timestamp(y)) => Some((*x as i128).cmp(&(*y as i128))),
        (Timestamp(x), Int(y)) => Some((*x as i128).cmp(&(*y as i128))),
        (Float(x), Float(y)) => x.partial_cmp(y),
        (Int(x), Float(y)) => (*x as f64).partial_cmp(y),
        (Float(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// `ORDER BY` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    /// Sort column.
    pub column: String,
    /// Descending?
    pub descending: bool,
}

/// A complete SFW query (the paper's target shape: multi-column
/// SELECT-FROM-WHERE on one table, §5).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Table name.
    pub table: String,
    /// Projected columns; empty = `*`.
    pub projection: Vec<String>,
    /// Aggregate select list (`COUNT(*)`, `SUM(col)`, ...); empty = a row
    /// query. When non-empty the query returns aggregate rows instead of
    /// documents and `projection` is unused.
    pub aggregates: Vec<crate::aggregate::AggFunc>,
    /// Optional GROUP BY column (aggregate queries only).
    pub group_by: Option<String>,
    /// The WHERE filter.
    pub filter: Expr,
    /// Optional ORDER BY.
    pub order_by: Option<OrderBy>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

impl Query {
    /// `true` when the select list is aggregates rather than rows.
    pub fn is_aggregate(&self) -> bool {
        !self.aggregates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};
    use esdb_doc::Document;

    fn doc() -> Document {
        Document::builder(TenantId(10086), RecordId(1), 1_000)
            .field("status", 1i64)
            .field("group", 666i64)
            .field("title", "rust in action")
            .attr("activity", "1111")
            .build()
    }

    #[test]
    fn depth_and_leaves() {
        let e = Expr::Or(vec![
            Expr::And(vec![
                Expr::Eq("a".into(), FieldValue::Int(1)),
                Expr::Eq("b".into(), FieldValue::Int(2)),
            ]),
            Expr::Eq("c".into(), FieldValue::Int(3)),
        ]);
        assert_eq!(e.depth(), 3);
        assert_eq!(e.leaf_count(), 3);
    }

    #[test]
    fn matches_semantics() {
        let d = doc();
        assert!(Expr::Eq("status".into(), FieldValue::Int(1)).matches(&d));
        assert!(Expr::Ne("status".into(), FieldValue::Int(2)).matches(&d));
        assert!(Expr::In(
            "group".into(),
            vec![FieldValue::Int(1), FieldValue::Int(666)]
        )
        .matches(&d));
        assert!(Expr::Range(
            "created_time".into(),
            Bound::Included(FieldValue::Timestamp(500)),
            Bound::Excluded(FieldValue::Timestamp(1_001))
        )
        .matches(&d));
        assert!(!Expr::Range(
            "created_time".into(),
            Bound::Excluded(FieldValue::Timestamp(1_000)),
            Bound::Unbounded
        )
        .matches(&d));
        assert!(Expr::Match("title".into(), "RUST action".into()).matches(&d));
        assert!(!Expr::Match("title".into(), "rust golang".into()).matches(&d));
        assert!(Expr::AttrEq("activity".into(), "1111".into()).matches(&d));
        assert!(!Expr::AttrEq("activity".into(), "618".into()).matches(&d));
        assert!(Expr::True.matches(&d));
    }

    #[test]
    fn boolean_combinations() {
        let d = doc();
        let t = Expr::Eq("status".into(), FieldValue::Int(1));
        let f = Expr::Eq("status".into(), FieldValue::Int(0));
        assert!(Expr::And(vec![t.clone(), t.clone()]).matches(&d));
        assert!(!Expr::And(vec![t.clone(), f.clone()]).matches(&d));
        assert!(Expr::Or(vec![f.clone(), t.clone()]).matches(&d));
        assert!(!Expr::Or(vec![f.clone(), f]).matches(&d));
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert!(values_eq(&FieldValue::Int(5), &FieldValue::Timestamp(5)));
        assert!(values_eq(&FieldValue::Float(2.0), &FieldValue::Int(2)));
        assert_eq!(
            cmp_values(&FieldValue::Str("a".into()), &FieldValue::Int(1)),
            None
        );
    }

    #[test]
    fn missing_column_never_matches() {
        let d = doc();
        assert!(!Expr::Eq("nope".into(), FieldValue::Int(1)).matches(&d));
        assert!(!Expr::Range("nope".into(), Bound::Unbounded, Bound::Unbounded).matches(&d));
        // But Ne on a missing column is also false (SQL NULL semantics).
        assert!(!Expr::Ne("nope".into(), FieldValue::Int(1)).matches(&d));
    }
}
