//! Xdriver4ES's smart translator (§3.1): turns the parsed SQL AST into a
//! cost-effective normalized AST via
//!
//! 1. **flattening** — nested `AND(AND(..))`/`OR(OR(..))` collapse,
//! 2. **predicate merge** — `tenant_id=1 OR tenant_id=2` becomes
//!    `tenant_id IN (1,2)` (reduces AST *width*); ranges on the same column
//!    under `AND` intersect,
//! 3. **CNF/DNF conversion** — when distributing to DNF reduces AST depth
//!    without blowing up the leaf count, the translator prefers it.
//!
//! `And([])` is TRUE and `Or([])` is FALSE, matching `Expr::matches`.

use crate::ast::{cmp_values, values_eq, Bound, Expr, Query};
use std::cmp::Ordering;

/// Full translation pipeline: normalize, then pick the cheaper of the
/// normalized form and its DNF.
pub fn translate(query: Query) -> Query {
    let filter = normalize_choose(query.filter);
    Query { filter, ..query }
}

/// Normalizes and picks the cheaper of {normalized, DNF(normalized)}.
pub fn normalize_choose(e: Expr) -> Expr {
    let norm = normalize(e);
    let leaves = norm.leaf_count();
    if leaves == 0 || leaves > 16 {
        return norm; // DNF could explode; keep the flat form.
    }
    let dnf = normalize(to_dnf(norm.clone()));
    if dnf.leaf_count() <= leaves.saturating_mul(4) && dnf.depth() < norm.depth() {
        dnf
    } else {
        norm
    }
}

/// Flatten + merge, recursively (idempotent).
pub(crate) fn normalize(e: Expr) -> Expr {
    match e {
        Expr::And(children) => {
            let mut flat = Vec::new();
            for c in children {
                match normalize(c) {
                    Expr::And(inner) => flat.extend(inner),
                    Expr::True => {}
                    other => flat.push(other),
                }
            }
            let merged = merge_and(flat);
            match merged {
                Some(mut v) => {
                    if v.len() == 1 {
                        v.pop().expect("one element")
                    } else if v.is_empty() {
                        Expr::True
                    } else {
                        Expr::And(v)
                    }
                }
                None => Expr::Or(Vec::new()), // contradiction → FALSE
            }
        }
        Expr::Or(children) => {
            let mut flat = Vec::new();
            for c in children {
                match normalize(c) {
                    Expr::Or(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            if flat.iter().any(|c| matches!(c, Expr::True)) {
                return Expr::True;
            }
            let mut v = merge_or(flat);
            if v.len() == 1 {
                v.pop().expect("one element")
            } else {
                Expr::Or(v)
            }
        }
        Expr::In(col, mut vals) => {
            vals.dedup_by(|a, b| values_eq(a, b));
            if vals.len() == 1 {
                Expr::Eq(col, vals.pop().expect("one value"))
            } else {
                Expr::In(col, vals)
            }
        }
        other => other,
    }
}

/// Merges OR-siblings: Eq/In on the same column combine into one In
/// (§3.1's `tenant_id=1 OR tenant_id=2` → `tenant_id IN (1,2)`).
fn merge_or(children: Vec<Expr>) -> Vec<Expr> {
    // Order-preserving merge: the first Eq/In on a column anchors the
    // position of the merged IN; later siblings fold into it.
    let mut out: Vec<Expr> = Vec::with_capacity(children.len());
    let mut slot_of_col: Vec<(String, usize)> = Vec::new();
    let mut pending: Vec<(usize, Vec<esdb_doc::FieldValue>)> = Vec::new();
    for c in children {
        let (col, vals) = match c {
            Expr::Eq(col, v) => (col, vec![v]),
            Expr::In(col, vs) => (col, vs),
            other => {
                out.push(other);
                continue;
            }
        };
        if let Some(&(_, slot)) = slot_of_col.iter().find(|(c2, _)| *c2 == col) {
            pending
                .iter_mut()
                .find(|(s, _)| *s == slot)
                .expect("slot registered")
                .1
                .extend(vals);
        } else {
            let slot = out.len();
            out.push(Expr::True); // placeholder, replaced below
            slot_of_col.push((col, slot));
            pending.push((slot, vals));
        }
    }
    for ((col, slot), (_, mut vals)) in slot_of_col.into_iter().zip(pending) {
        // Dedup (quadratic is fine: IN lists are small).
        let mut uniq: Vec<esdb_doc::FieldValue> = Vec::with_capacity(vals.len());
        for v in vals.drain(..) {
            if !uniq.iter().any(|u| values_eq(u, &v)) {
                uniq.push(v);
            }
        }
        out[slot] = if uniq.len() == 1 {
            Expr::Eq(col, uniq.pop().expect("one value"))
        } else {
            Expr::In(col, uniq)
        };
    }
    out
}

/// Merges AND-siblings: ranges on the same column intersect; duplicate
/// equalities dedup; contradictory equalities make the whole conjunction
/// FALSE (`None`).
fn merge_and(children: Vec<Expr>) -> Option<Vec<Expr>> {
    let mut ranges: Vec<(String, Bound, Bound)> = Vec::new();
    let mut rest: Vec<Expr> = Vec::new();
    for c in children {
        match c {
            Expr::Range(col, lo, hi) => {
                if let Some((_, alo, ahi)) = ranges.iter_mut().find(|(c2, _, _)| *c2 == col) {
                    *alo = tighter_lo(alo.clone(), lo);
                    *ahi = tighter_hi(ahi.clone(), hi);
                } else {
                    ranges.push((col, lo, hi));
                }
            }
            Expr::Eq(col, v) => {
                // Contradiction check against existing equalities.
                let dup = rest
                    .iter()
                    .any(|e| matches!(e, Expr::Eq(c2, v2) if *c2 == col && values_eq(v2, &v)));
                let conflict = rest
                    .iter()
                    .any(|e| matches!(e, Expr::Eq(c2, v2) if *c2 == col && !values_eq(v2, &v)));
                if conflict {
                    return None;
                }
                if !dup {
                    rest.push(Expr::Eq(col, v));
                }
            }
            other => rest.push(other),
        }
    }
    for (col, lo, hi) in ranges {
        if range_empty(&lo, &hi) {
            return None;
        }
        rest.push(Expr::Range(col, lo, hi));
    }
    Some(rest)
}

fn tighter_lo(a: Bound, b: Bound) -> Bound {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        _ => {
            let va = a.value().expect("bounded");
            let vb = b.value().expect("bounded");
            match cmp_values(va, vb) {
                Some(Ordering::Greater) => a,
                Some(Ordering::Less) => b,
                // Equal values: exclusive wins (tighter).
                _ => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn tighter_hi(a: Bound, b: Bound) -> Bound {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        _ => {
            let va = a.value().expect("bounded");
            let vb = b.value().expect("bounded");
            match cmp_values(va, vb) {
                Some(Ordering::Less) => a,
                Some(Ordering::Greater) => b,
                _ => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn range_empty(lo: &Bound, hi: &Bound) -> bool {
    let (Some(vl), Some(vh)) = (lo.value(), hi.value()) else {
        return false;
    };
    match cmp_values(vl, vh) {
        Some(Ordering::Greater) => true,
        Some(Ordering::Equal) => {
            matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_))
        }
        _ => false,
    }
}

/// Distributes AND over OR to reach disjunctive normal form.
pub(crate) fn to_dnf(e: Expr) -> Expr {
    match e {
        Expr::And(children) => {
            // DNF each child, then take the cross product of OR branches.
            let mut product: Vec<Vec<Expr>> = vec![Vec::new()];
            for c in children {
                let c = to_dnf(c);
                let branches: Vec<Expr> = match c {
                    Expr::Or(bs) => bs,
                    other => vec![other],
                };
                let mut next = Vec::with_capacity(product.len() * branches.len());
                for p in &product {
                    for b in &branches {
                        let mut conj = p.clone();
                        conj.push(b.clone());
                        next.push(conj);
                    }
                }
                product = next;
            }
            let branches: Vec<Expr> = product.into_iter().map(Expr::And).collect();
            if branches.len() == 1 {
                branches.into_iter().next().expect("one branch")
            } else {
                Expr::Or(branches)
            }
        }
        Expr::Or(children) => Expr::Or(children.into_iter().map(to_dnf).collect()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};
    use esdb_doc::{Document, FieldValue};
    use proptest::prelude::*;

    fn eq(c: &str, v: i64) -> Expr {
        Expr::Eq(c.into(), FieldValue::Int(v))
    }

    #[test]
    fn or_equalities_merge_to_in() {
        // The paper's example: tenant_id=1 OR tenant_id=2 → IN (1,2).
        let e = Expr::Or(vec![eq("tenant_id", 1), eq("tenant_id", 2)]);
        assert_eq!(
            normalize(e),
            Expr::In(
                "tenant_id".into(),
                vec![FieldValue::Int(1), FieldValue::Int(2)]
            )
        );
    }

    #[test]
    fn nested_structures_flatten() {
        let e = Expr::And(vec![Expr::And(vec![eq("a", 1), eq("b", 2)]), eq("c", 3)]);
        match normalize(e) {
            Expr::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ranges_intersect_under_and() {
        let e = Expr::And(vec![
            Expr::Range(
                "t".into(),
                Bound::Included(FieldValue::Int(0)),
                Bound::Included(FieldValue::Int(100)),
            ),
            Expr::Range(
                "t".into(),
                Bound::Included(FieldValue::Int(50)),
                Bound::Included(FieldValue::Int(200)),
            ),
        ]);
        assert_eq!(
            normalize(e),
            Expr::Range(
                "t".into(),
                Bound::Included(FieldValue::Int(50)),
                Bound::Included(FieldValue::Int(100))
            )
        );
    }

    #[test]
    fn contradictions_become_false() {
        let e = Expr::And(vec![eq("a", 1), eq("a", 2)]);
        assert_eq!(normalize(e), Expr::Or(Vec::new()));
        let empty_range = Expr::And(vec![
            Expr::Range(
                "t".into(),
                Bound::Included(FieldValue::Int(10)),
                Bound::Unbounded,
            ),
            Expr::Range(
                "t".into(),
                Bound::Unbounded,
                Bound::Included(FieldValue::Int(5)),
            ),
        ]);
        assert_eq!(normalize(empty_range), Expr::Or(Vec::new()));
    }

    #[test]
    fn duplicates_dedup() {
        let e = Expr::And(vec![eq("a", 1), eq("a", 1), eq("b", 2)]);
        match normalize(e) {
            Expr::And(cs) => assert_eq!(cs.len(), 2),
            other => panic!("{other:?}"),
        }
        let o = Expr::Or(vec![eq("a", 1), eq("a", 1)]);
        assert_eq!(normalize(o), eq("a", 1));
    }

    #[test]
    fn true_absorbs() {
        assert_eq!(
            normalize(Expr::And(vec![Expr::True, eq("a", 1)])),
            eq("a", 1)
        );
        assert_eq!(
            normalize(Expr::Or(vec![Expr::True, eq("a", 1)])),
            Expr::True
        );
    }

    #[test]
    fn dnf_distributes() {
        // a AND (b OR c) → (a AND b) OR (a AND c).
        let e = Expr::And(vec![eq("a", 1), Expr::Or(vec![eq("b", 2), eq("c", 3)])]);
        let d = normalize(to_dnf(e));
        match d {
            Expr::Or(branches) => {
                assert_eq!(branches.len(), 2);
                for b in branches {
                    assert!(matches!(b, Expr::And(ref cs) if cs.len() == 2));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (0u8..4, -3i64..4).prop_map(|(c, v)| Expr::Eq(format!("c{c}"), FieldValue::Int(v))),
            (0u8..4, -3i64..4, 0i64..5).prop_map(|(c, lo, w)| Expr::Range(
                format!("c{c}"),
                Bound::Included(FieldValue::Int(lo)),
                Bound::Included(FieldValue::Int(lo + w))
            )),
            (0u8..4, proptest::collection::vec(-3i64..4, 1..4)).prop_map(|(c, vs)| Expr::In(
                format!("c{c}"),
                vs.into_iter().map(FieldValue::Int).collect()
            )),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Expr::And),
                proptest::collection::vec(inner, 1..4).prop_map(Expr::Or),
            ]
        })
    }

    fn arb_doc() -> impl Strategy<Value = Document> {
        proptest::collection::vec(-3i64..4, 4).prop_map(|vals| {
            let mut b = Document::builder(TenantId(1), RecordId(1), 100);
            for (i, v) in vals.into_iter().enumerate() {
                b = b.field(format!("c{i}"), v);
            }
            b.build()
        })
    }

    proptest! {
        /// Normalization must preserve semantics on every document.
        #[test]
        fn prop_normalize_preserves_semantics(e in arb_expr(), d in arb_doc()) {
            let n = normalize(e.clone());
            prop_assert_eq!(e.matches(&d), n.matches(&d), "normalize changed semantics: {:?} vs {:?}", e, n);
        }

        /// DNF conversion must preserve semantics too.
        #[test]
        fn prop_dnf_preserves_semantics(e in arb_expr(), d in arb_doc()) {
            let dnf = to_dnf(e.clone());
            prop_assert_eq!(e.matches(&d), dnf.matches(&d));
        }

        /// The full translate pipeline preserves semantics.
        #[test]
        fn prop_translate_preserves_semantics(e in arb_expr(), d in arb_doc()) {
            let chosen = normalize_choose(e.clone());
            prop_assert_eq!(e.matches(&d), chosen.matches(&d));
        }

        /// Normalization is idempotent.
        #[test]
        fn prop_normalize_idempotent(e in arb_expr()) {
            let once = normalize(e);
            let twice = normalize(once.clone());
            prop_assert_eq!(once, twice);
        }
    }
}
