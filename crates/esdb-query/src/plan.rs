//! Physical query plans (paper §5.1, Fig. 7/8) and their canonical
//! fingerprints.
//!
//! Fingerprints drive the skew-aware query cache: ESDB's hot tenants run
//! the same filter shapes against the same immutable segments thousands of
//! times per refresh interval, so `(segment, plan-fingerprint)` is a
//! natural cache key. A fingerprint is a [`stable_hash128`] of a
//! *normalized* byte encoding of the plan — commutative operators
//! (`Intersect`/`Union`, `AND`/`OR`, `IN` lists) encode their children in
//! sorted, deduplicated order so equivalent plans that differ only in
//! operand order share cache entries. The encoding is exact about value
//! types (`Int(1)` never aliases `Bool(true)`): equal fingerprints must
//! imply equal results on *every* segment, including scan fallbacks whose
//! comparison semantics are type-sensitive.

use crate::ast::{Bound, Expr, Query};
use esdb_common::hash::stable_hash128;
use esdb_doc::FieldValue;
use std::fmt;

/// A physical access plan producing a posting list per segment.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// All live documents.
    All,
    /// No documents (contradictory filter).
    Empty,
    /// Composite-index scan: equality prefix plus an optional range on the
    /// next column (Fig. 8's `tenant_id_created_time` scan).
    CompositeScan {
        /// Index name.
        index: String,
        /// Leading equality columns and their values, in index order.
        eq: Vec<(String, FieldValue)>,
        /// Optional range on the column right after the equality prefix.
        range: Option<(String, Bound, Bound)>,
    },
    /// A single predicate resolved through its own index (falling back to
    /// a scan when the segment has no suitable index).
    IndexPredicate(Expr),
    /// Sequential scan (§5.1): filter the input posting list through
    /// doc-values/stored-field predicates.
    ScanFilter {
        /// Producer of the candidate list.
        input: Box<Plan>,
        /// Predicates applied by scanning.
        predicates: Vec<Expr>,
    },
    /// Intersection of sub-plans (AND).
    Intersect(Vec<Plan>),
    /// Union of sub-plans (OR).
    Union(Vec<Plan>),
}

impl Plan {
    /// Whether per-segment results of this plan may be cached.
    ///
    /// Cacheable: composite scans, single-index predicates, and
    /// intersections/unions built purely from cacheable children. Never
    /// cacheable: `ScanFilter` residuals (their cost is in the scan, and
    /// caching them would pin large intermediate lists for little reuse)
    /// and the trivial `All`/`Empty` plans (nothing to save).
    pub(crate) fn cacheable(&self) -> bool {
        match self {
            Plan::CompositeScan { .. } | Plan::IndexPredicate(_) => true,
            Plan::Intersect(ps) | Plan::Union(ps) => {
                !ps.is_empty() && ps.iter().all(Plan::cacheable)
            }
            Plan::All | Plan::Empty | Plan::ScanFilter { .. } => false,
        }
    }

    /// Canonical byte encoding (normalized: commutative children sorted
    /// and deduplicated). Two plans with equal encodings produce equal
    /// result sets on every segment.
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            Plan::All => out.push(1),
            Plan::Empty => out.push(2),
            Plan::CompositeScan { index, eq, range } => {
                out.push(3);
                encode_str(index, out);
                // Equality order is the index's column order — semantic,
                // not commutative — so it is preserved.
                out.extend_from_slice(&(eq.len() as u32).to_be_bytes());
                for (col, v) in eq {
                    encode_str(col, out);
                    encode_value(v, out);
                }
                match range {
                    None => out.push(0),
                    Some((col, lo, hi)) => {
                        out.push(1);
                        encode_str(col, out);
                        encode_bound(lo, out);
                        encode_bound(hi, out);
                    }
                }
            }
            Plan::IndexPredicate(e) => {
                out.push(4);
                encode_expr(e, out);
            }
            Plan::ScanFilter { input, predicates } => {
                out.push(5);
                input.encode_canonical(out);
                // Application order changes work counters, not results,
                // but ScanFilter is never cached — keep it exact anyway.
                out.extend_from_slice(&(predicates.len() as u32).to_be_bytes());
                for p in predicates {
                    encode_expr(p, out);
                }
            }
            Plan::Intersect(ps) => {
                out.push(6);
                encode_sorted(ps.iter().map(|p| to_bytes(|b| p.encode_canonical(b))), out);
            }
            Plan::Union(ps) => {
                out.push(7);
                encode_sorted(ps.iter().map(|p| to_bytes(|b| p.encode_canonical(b))), out);
            }
        }
    }

    /// The plan's canonical 128-bit fingerprint.
    pub(crate) fn fingerprint(&self) -> u128 {
        let mut buf = Vec::with_capacity(128);
        self.encode_canonical(&mut buf);
        stable_hash128(&buf)
    }
}

/// Fingerprint of a whole shard-level request: the access plan plus every
/// query clause that shapes the returned rows (ORDER BY, LIMIT,
/// projection). Keys the tier-2 request cache.
pub fn query_fingerprint(plan: &Plan, query: &Query) -> u128 {
    let mut buf = Vec::with_capacity(192);
    plan.encode_canonical(&mut buf);
    match &query.order_by {
        None => buf.push(0),
        Some(ob) => {
            buf.push(if ob.descending { 2 } else { 1 });
            encode_str(&ob.column, &mut buf);
        }
    }
    match query.limit {
        None => buf.push(0),
        Some(n) => {
            buf.push(1);
            buf.extend_from_slice(&(n as u64).to_be_bytes());
        }
    }
    buf.extend_from_slice(&(query.projection.len() as u32).to_be_bytes());
    for col in &query.projection {
        encode_str(col, &mut buf);
    }
    buf.extend_from_slice(&(query.aggregates.len() as u32).to_be_bytes());
    for agg in &query.aggregates {
        use crate::aggregate::AggFunc;
        let (tag, col) = match agg {
            AggFunc::Count => (1u8, None),
            AggFunc::CountField(c) => (2, Some(c)),
            AggFunc::Sum(c) => (3, Some(c)),
            AggFunc::Avg(c) => (4, Some(c)),
            AggFunc::Min(c) => (5, Some(c)),
            AggFunc::Max(c) => (6, Some(c)),
        };
        buf.push(tag);
        if let Some(c) = col {
            encode_str(c, &mut buf);
        }
    }
    match &query.group_by {
        None => buf.push(0),
        Some(c) => {
            buf.push(1);
            encode_str(c, &mut buf);
        }
    }
    stable_hash128(&buf)
}

/// Runs `f` into a fresh buffer (used to sort commutative children by
/// their encodings).
fn to_bytes(f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut b = Vec::new();
    f(&mut b);
    b
}

/// Encodes a set of child encodings sorted and deduplicated — `A ∩ A = A`
/// and `A ∪ A = A`, so duplicates never change a commutative node's
/// result.
fn encode_sorted(children: impl Iterator<Item = Vec<u8>>, out: &mut Vec<u8>) {
    let mut enc: Vec<Vec<u8>> = children.collect();
    enc.sort_unstable();
    enc.dedup();
    out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
    for e in enc {
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Exact type-tagged value encoding. `Int(5)` and `Timestamp(5)` compare
/// equal in query semantics *most* of the time, but not against `Float`
/// doc values (`cmp_values` declares Float/Timestamp incomparable), so
/// coercion is left to the optimizer and the encoding stays exact.
fn encode_value(v: &FieldValue, out: &mut Vec<u8>) {
    match v {
        FieldValue::Null => out.push(0),
        FieldValue::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        FieldValue::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_be_bytes());
        }
        FieldValue::Float(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        FieldValue::Timestamp(t) => {
            out.push(4);
            out.extend_from_slice(&t.to_be_bytes());
        }
        FieldValue::Str(s) => {
            out.push(5);
            encode_str(s, out);
        }
    }
}

fn encode_bound(b: &Bound, out: &mut Vec<u8>) {
    match b {
        Bound::Unbounded => out.push(0),
        Bound::Included(v) => {
            out.push(1);
            encode_value(v, out);
        }
        Bound::Excluded(v) => {
            out.push(2);
            encode_value(v, out);
        }
    }
}

fn encode_expr(e: &Expr, out: &mut Vec<u8>) {
    match e {
        Expr::Eq(col, v) => {
            out.push(1);
            encode_str(col, out);
            encode_value(v, out);
        }
        Expr::Ne(col, v) => {
            out.push(2);
            encode_str(col, out);
            encode_value(v, out);
        }
        Expr::In(col, vs) => {
            out.push(3);
            encode_str(col, out);
            // IN-list union is commutative and idempotent.
            encode_sorted(vs.iter().map(|v| to_bytes(|b| encode_value(v, b))), out);
        }
        Expr::Range(col, lo, hi) => {
            out.push(4);
            encode_str(col, out);
            encode_bound(lo, out);
            encode_bound(hi, out);
        }
        Expr::Match(col, text) => {
            out.push(5);
            encode_str(col, out);
            encode_str(text, out);
        }
        Expr::AttrEq(name, value) => {
            out.push(6);
            encode_str(name, out);
            encode_str(value, out);
        }
        Expr::And(cs) => {
            out.push(7);
            encode_sorted(cs.iter().map(|c| to_bytes(|b| encode_expr(c, b))), out);
        }
        Expr::Or(cs) => {
            out.push(8);
            encode_sorted(cs.iter().map(|c| to_bytes(|b| encode_expr(c, b))), out);
        }
        Expr::True => out.push(9),
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Plan, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match p {
                Plan::All => writeln!(f, "{pad}All"),
                Plan::Empty => writeln!(f, "{pad}Empty"),
                Plan::CompositeScan { index, eq, range } => {
                    write!(f, "{pad}CompositeScan {index} eq=[")?;
                    for (i, (c, v)) in eq.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}={v}")?;
                    }
                    write!(f, "]")?;
                    if let Some((c, _, _)) = range {
                        write!(f, " range on {c}")?;
                    }
                    writeln!(f)
                }
                Plan::IndexPredicate(e) => writeln!(f, "{pad}IndexSearch {e:?}"),
                Plan::ScanFilter { input, predicates } => {
                    writeln!(f, "{pad}ScanFilter {} predicate(s)", predicates.len())?;
                    go(input, f, indent + 1)
                }
                Plan::Intersect(ps) => {
                    writeln!(f, "{pad}Intersect")?;
                    for p in ps {
                        go(p, f, indent + 1)?;
                    }
                    Ok(())
                }
                Plan::Union(ps) => {
                    writeln!(f, "{pad}Union")?;
                    for p in ps {
                        go(p, f, indent + 1)?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
impl Plan {
    /// Number of index/scan operators — a quick plan-complexity metric the
    /// optimizer tests assert on.
    pub(crate) fn operator_count(&self) -> usize {
        match self {
            Plan::All | Plan::Empty => 1,
            Plan::CompositeScan { .. } | Plan::IndexPredicate(_) => 1,
            Plan::ScanFilter { input, .. } => 1 + input.operator_count(),
            Plan::Intersect(ps) | Plan::Union(ps) => {
                1 + ps.iter().map(Plan::operator_count).sum::<usize>()
            }
        }
    }

    /// Whether the plan contains a composite-index scan.
    pub(crate) fn uses_composite(&self) -> bool {
        match self {
            Plan::CompositeScan { .. } => true,
            Plan::ScanFilter { input, .. } => input.uses_composite(),
            Plan::Intersect(ps) | Plan::Union(ps) => ps.iter().any(Plan::uses_composite),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_count_and_display() {
        let p = Plan::ScanFilter {
            input: Box::new(Plan::Intersect(vec![
                Plan::CompositeScan {
                    index: "tenant_id_created_time".into(),
                    eq: vec![("tenant_id".into(), FieldValue::Int(1))],
                    range: None,
                },
                Plan::IndexPredicate(Expr::Eq("group".into(), FieldValue::Int(666))),
            ])),
            predicates: vec![Expr::Eq("status".into(), FieldValue::Int(1))],
        };
        assert_eq!(p.operator_count(), 4);
        assert!(p.uses_composite());
        let s = p.to_string();
        assert!(s.contains("CompositeScan"));
        assert!(s.contains("ScanFilter"));
    }

    fn eq(col: &str, v: i64) -> Plan {
        Plan::IndexPredicate(Expr::Eq(col.into(), FieldValue::Int(v)))
    }

    #[test]
    fn cacheable_classification() {
        assert!(eq("a", 1).cacheable());
        assert!(Plan::CompositeScan {
            index: "i".into(),
            eq: vec![],
            range: None
        }
        .cacheable());
        assert!(Plan::Intersect(vec![eq("a", 1), eq("b", 2)]).cacheable());
        assert!(Plan::Union(vec![eq("a", 1), eq("b", 2)]).cacheable());
        assert!(!Plan::All.cacheable());
        assert!(!Plan::Empty.cacheable());
        assert!(!Plan::ScanFilter {
            input: Box::new(eq("a", 1)),
            predicates: vec![Expr::Eq("s".into(), FieldValue::Int(0))],
        }
        .cacheable());
        // A residual anywhere poisons the subtree.
        assert!(!Plan::Intersect(vec![
            eq("a", 1),
            Plan::ScanFilter {
                input: Box::new(eq("b", 2)),
                predicates: vec![],
            }
        ])
        .cacheable());
    }

    #[test]
    fn fingerprint_normalizes_commutative_order() {
        let ab = Plan::Intersect(vec![eq("a", 1), eq("b", 2)]);
        let ba = Plan::Intersect(vec![eq("b", 2), eq("a", 1)]);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        let dup = Plan::Intersect(vec![eq("a", 1), eq("a", 1), eq("b", 2)]);
        assert_eq!(ab.fingerprint(), dup.fingerprint(), "A ∩ A = A");

        let u1 = Plan::Union(vec![eq("a", 1), eq("b", 2)]);
        assert_ne!(
            ab.fingerprint(),
            u1.fingerprint(),
            "intersect and union must not alias"
        );

        let in1 = Plan::IndexPredicate(Expr::In(
            "g".into(),
            vec![FieldValue::Int(1), FieldValue::Int(2)],
        ));
        let in2 = Plan::IndexPredicate(Expr::In(
            "g".into(),
            vec![FieldValue::Int(2), FieldValue::Int(1), FieldValue::Int(2)],
        ));
        assert_eq!(
            in1.fingerprint(),
            in2.fingerprint(),
            "IN order/dups ignored"
        );
    }

    #[test]
    fn fingerprint_is_type_exact() {
        let int1 = eq("c", 1);
        let bool1 = Plan::IndexPredicate(Expr::Eq("c".into(), FieldValue::Bool(true)));
        let ts1 = Plan::IndexPredicate(Expr::Eq("c".into(), FieldValue::Timestamp(1)));
        let f1 = Plan::IndexPredicate(Expr::Eq("c".into(), FieldValue::Float(1.0)));
        let fps = [
            int1.fingerprint(),
            bool1.fingerprint(),
            ts1.fingerprint(),
            f1.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "value types {i} and {j} alias");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_columns_and_values() {
        assert_ne!(eq("a", 1).fingerprint(), eq("a", 2).fingerprint());
        assert_ne!(eq("a", 1).fingerprint(), eq("b", 1).fingerprint());
        assert_ne!(
            eq("a", 1).fingerprint(),
            Plan::IndexPredicate(Expr::Ne("a".into(), FieldValue::Int(1))).fingerprint()
        );
    }

    #[test]
    fn query_fingerprint_covers_order_and_limit() {
        use crate::ast::OrderBy;
        let plan = eq("a", 1);
        let q = |order: Option<OrderBy>, limit: Option<usize>| Query {
            table: "t".into(),
            projection: vec![],
            aggregates: vec![],
            group_by: None,
            filter: Expr::True,
            order_by: order,
            limit,
        };
        let base = query_fingerprint(&plan, &q(None, None));
        assert_ne!(base, query_fingerprint(&plan, &q(None, Some(10))));
        assert_ne!(
            base,
            query_fingerprint(
                &plan,
                &q(
                    Some(OrderBy {
                        column: "t".into(),
                        descending: false
                    }),
                    None
                )
            )
        );
        assert_ne!(
            query_fingerprint(
                &plan,
                &q(
                    Some(OrderBy {
                        column: "t".into(),
                        descending: false
                    }),
                    None
                )
            ),
            query_fingerprint(
                &plan,
                &q(
                    Some(OrderBy {
                        column: "t".into(),
                        descending: true
                    }),
                    None
                )
            ),
            "sort direction must be part of the key"
        );
        assert_eq!(base, query_fingerprint(&plan, &q(None, None)), "stable");
    }
}
