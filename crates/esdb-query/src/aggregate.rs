//! The coordinator-side query result aggregator (paper §3.2: coordinators
//! "contain a query result aggregator that is in charge of row ID
//! collection and perform aggregation operations (e.g. global sort, sum,
//! avg)").
//!
//! Subquery results from the shards of a tenant's span are merged here:
//! global ORDER BY + LIMIT via k-way merge, plus COUNT/SUM/AVG/MIN/MAX.

use crate::ast::{cmp_values, OrderBy};
use crate::executor::QueryRows;
use esdb_doc::{Document, FieldValue};
use esdb_index::BlockStats;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Merges per-shard result sets into the final rows, applying a global
/// sort and limit. Work counters are summed.
///
/// The inputs are only borrowed (`Arc<QueryRows>` straight out of the
/// request cache works as well as an owned result): references to the
/// gathered rows are sorted once, each decorated with its ORDER BY key,
/// and only the `LIMIT` survivors are cloned. The sort is stable over
/// the gather order, so ties keep shard-input order.
pub fn merge_results<R: Borrow<QueryRows>>(
    shard_results: Vec<R>,
    order_by: Option<&OrderBy>,
    limit: Option<usize>,
) -> QueryRows {
    let shards: Vec<&QueryRows> = shard_results.iter().map(Borrow::borrow).collect();
    let mut out = QueryRows::default();
    for r in &shards {
        out.postings_scanned += r.postings_scanned;
        out.docs_scanned += r.docs_scanned;
        out.blocks.merge(&r.blocks);
        out.block_prune_ns += r.block_prune_ns;
    }
    let total: usize = shards.iter().map(|r| r.docs.len()).sum();
    let keep = limit.map_or(total, |l| l.min(total));
    let gathered = shards.iter().flat_map(|r| &r.docs);
    out.docs = match order_by {
        None => gathered.take(keep).cloned().collect(),
        Some(ob) => {
            let mut keyed: Vec<(Option<FieldValue>, &Document)> =
                gathered.map(|d| (d.get(&ob.column), d)).collect();
            keyed.sort_by(|a, b| key_cmp(a.0.as_ref(), b.0.as_ref(), ob.descending));
            keyed[..keep].iter().map(|(_, d)| (*d).clone()).collect()
        }
    };
    out
}

/// ORDER BY on one column's values: a missing value sorts before any
/// present one, incomparable values tie.
fn key_cmp(a: Option<&FieldValue>, b: Option<&FieldValue>, descending: bool) -> Ordering {
    let ord = match (a, b) {
        (Some(x), Some(y)) => cmp_values(x, y).unwrap_or(Ordering::Equal),
        (Some(_), None) => Ordering::Greater,
        (None, Some(_)) => Ordering::Less,
        (None, None) => Ordering::Equal,
    };
    if descending {
        ord.reverse()
    } else {
        ord
    }
}

/// Aggregate functions supported by the aggregator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `COUNT(col)` — rows where `col` is present.
    CountField(String),
    /// `SUM(col)`.
    Sum(String),
    /// `AVG(col)`.
    Avg(String),
    /// `MIN(col)`.
    Min(String),
    /// `MAX(col)`.
    Max(String),
}

impl AggFunc {
    /// The column the function reads, if any.
    pub(crate) fn column(&self) -> Option<&str> {
        match self {
            AggFunc::Count => None,
            AggFunc::CountField(c)
            | AggFunc::Sum(c)
            | AggFunc::Avg(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c) => Some(c),
        }
    }
}

fn numeric(v: &FieldValue) -> Option<f64> {
    match v {
        FieldValue::Int(i) => Some(*i as f64),
        FieldValue::Float(f) => Some(*f),
        FieldValue::Timestamp(t) => Some(*t as f64),
        _ => None,
    }
}

/// Computes an aggregate over merged rows. Non-numeric / missing values are
/// skipped for SUM/AVG (SQL NULL semantics).
pub fn aggregate(rows: &[Document], func: &AggFunc) -> FieldValue {
    match func {
        AggFunc::Count => FieldValue::Int(rows.len() as i64),
        AggFunc::CountField(col) => {
            FieldValue::Int(rows.iter().filter(|d| d.get(col).is_some()).count() as i64)
        }
        AggFunc::Sum(col) => {
            let s: f64 = rows
                .iter()
                .filter_map(|d| d.get(col))
                .filter_map(|v| numeric(&v))
                .sum();
            FieldValue::Float(s)
        }
        AggFunc::Avg(col) => {
            let vals: Vec<f64> = rows
                .iter()
                .filter_map(|d| d.get(col))
                .filter_map(|v| numeric(&v))
                .collect();
            if vals.is_empty() {
                FieldValue::Null
            } else {
                FieldValue::Float(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        }
        AggFunc::Min(col) => rows
            .iter()
            .filter_map(|d| d.get(col))
            .min_by(|a, b| cmp_values(a, b).unwrap_or(Ordering::Equal))
            .unwrap_or(FieldValue::Null),
        AggFunc::Max(col) => rows
            .iter()
            .filter_map(|d| d.get(col))
            .max_by(|a, b| cmp_values(a, b).unwrap_or(Ordering::Equal))
            .unwrap_or(FieldValue::Null),
    }
}

/// A mergeable partial state for one aggregate function — what the block
/// execution path accumulates per segment straight from columnar doc
/// values, and what shards ship to the coordinator so AVG merges without
/// loss.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AggPartial {
    /// Row / present-value counter (COUNT and COUNT(col)).
    Count(u64),
    /// Running sum of numeric values.
    Sum(f64),
    /// Running sum + count of numeric values.
    Avg {
        /// Sum of numeric values seen.
        sum: f64,
        /// Number of numeric values seen.
        count: u64,
    },
    /// Current minimum (first wins on ties/incomparables, like
    /// `Iterator::min_by`).
    Min(Option<FieldValue>),
    /// Current maximum (last wins on ties/incomparables, like
    /// `Iterator::max_by`).
    Max(Option<FieldValue>),
}

impl AggPartial {
    /// The empty partial for `func`.
    pub(crate) fn new(func: &AggFunc) -> AggPartial {
        match func {
            AggFunc::Count | AggFunc::CountField(_) => AggPartial::Count(0),
            AggFunc::Sum(_) => AggPartial::Sum(0.0),
            AggFunc::Avg(_) => AggPartial::Avg { sum: 0.0, count: 0 },
            AggFunc::Min(_) => AggPartial::Min(None),
            AggFunc::Max(_) => AggPartial::Max(None),
        }
    }

    /// Folds one row's column value into the partial (`None` = column
    /// missing on that row). For `AggFunc::Count` the value is ignored and
    /// every row counts.
    pub(crate) fn accumulate(&mut self, func: &AggFunc, v: Option<FieldValue>) {
        match self {
            AggPartial::Count(c) => {
                if matches!(func, AggFunc::Count) || v.is_some() {
                    *c += 1;
                }
            }
            AggPartial::Sum(s) => {
                if let Some(x) = v.as_ref().and_then(numeric) {
                    *s += x;
                }
            }
            AggPartial::Avg { sum, count } => {
                if let Some(x) = v.as_ref().and_then(numeric) {
                    *sum += x;
                    *count += 1;
                }
            }
            AggPartial::Min(m) => {
                if let Some(x) = v {
                    let replace = match m {
                        None => true,
                        Some(cur) => {
                            cmp_values(&x, cur).unwrap_or(Ordering::Equal) == Ordering::Less
                        }
                    };
                    if replace {
                        *m = Some(x);
                    }
                }
            }
            AggPartial::Max(m) => {
                if let Some(x) = v {
                    let replace = match m {
                        None => true,
                        Some(cur) => {
                            cmp_values(&x, cur).unwrap_or(Ordering::Equal) != Ordering::Less
                        }
                    };
                    if replace {
                        *m = Some(x);
                    }
                }
            }
        }
    }

    /// Merges another partial of the same shape into `self`. Callers merge
    /// in segment/shard order, so the tie-breaking rules of
    /// [`accumulate`](AggPartial::accumulate) carry over to the merged
    /// result.
    pub(crate) fn merge(&mut self, other: AggPartial) {
        match (self, other) {
            (AggPartial::Count(a), AggPartial::Count(b)) => *a += b,
            (AggPartial::Sum(a), AggPartial::Sum(b)) => *a += b,
            (AggPartial::Avg { sum, count }, AggPartial::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggPartial::Min(a), AggPartial::Min(Some(x))) => {
                let replace = match a {
                    None => true,
                    Some(cur) => cmp_values(&x, cur).unwrap_or(Ordering::Equal) == Ordering::Less,
                };
                if replace {
                    *a = Some(x);
                }
            }
            (AggPartial::Max(a), AggPartial::Max(Some(x))) => {
                let replace = match a {
                    None => true,
                    Some(cur) => cmp_values(&x, cur).unwrap_or(Ordering::Equal) != Ordering::Less,
                };
                if replace {
                    *a = Some(x);
                }
            }
            (AggPartial::Min(_), AggPartial::Min(None))
            | (AggPartial::Max(_), AggPartial::Max(None)) => {}
            (a, b) => debug_assert!(false, "mismatched partials {a:?} / {b:?}"),
        }
    }

    /// Finishes the partial into the final [`FieldValue`], with the exact
    /// semantics of [`aggregate`] (SUM of nothing = 0.0, AVG of nothing =
    /// NULL, MIN/MAX of nothing = NULL).
    pub(crate) fn finish(&self) -> FieldValue {
        match self {
            AggPartial::Count(c) => FieldValue::Int(*c as i64),
            AggPartial::Sum(s) => FieldValue::Float(*s),
            AggPartial::Avg { sum, count } => {
                if *count == 0 {
                    FieldValue::Null
                } else {
                    FieldValue::Float(*sum / *count as f64)
                }
            }
            AggPartial::Min(m) | AggPartial::Max(m) => m.clone().unwrap_or(FieldValue::Null),
        }
    }
}

/// One output row of an aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// GROUP BY key (`None` when there is no GROUP BY, or for the rows
    /// whose group column is missing — SQL's NULL group).
    pub group: Option<FieldValue>,
    /// One finished value per aggregate, in select-list order.
    pub values: Vec<FieldValue>,
}

/// Finished aggregate result plus the work counters of the execution that
/// produced it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggResult {
    /// Aggregate rows, ordered by group key (missing group first).
    pub rows: Vec<AggRow>,
    /// Posting entries materialized while filtering.
    pub postings_scanned: u64,
    /// Documents touched by scan filters.
    pub docs_scanned: u64,
    /// Stored payloads materialized to compute the aggregates. The block
    /// path computes from columnar doc values, so this stays 0 unless a
    /// column has no doc values in some segment.
    pub payload_reads: u64,
    /// Posting-block counters from block-at-a-time set operations.
    pub blocks: BlockStats,
    /// Wall time spent in block set operations (the `block_prune` stage).
    pub block_prune_ns: u64,
}

/// Per-shard aggregate partials: grouped, unfinished, mergeable. Group
/// keys use [`FieldValue`]'s total order so output rows are deterministic.
#[derive(Debug, Clone, Default)]
pub struct AggPartials {
    /// Partial states per group key (`None` key = no GROUP BY / missing
    /// group column).
    pub(crate) groups: BTreeMap<Option<FieldValue>, Vec<AggPartial>>,
    /// Posting entries materialized while filtering.
    pub postings_scanned: u64,
    /// Documents touched by scan filters.
    pub docs_scanned: u64,
    /// Stored payloads materialized to compute the aggregates.
    pub payload_reads: u64,
    /// Posting-block counters from block-at-a-time set operations.
    pub blocks: BlockStats,
    /// Wall time spent in block set operations.
    pub block_prune_ns: u64,
}

impl AggPartials {
    /// The partial row for `key`, created from `funcs` on first touch.
    pub(crate) fn entry(
        &mut self,
        key: Option<FieldValue>,
        funcs: &[AggFunc],
    ) -> &mut Vec<AggPartial> {
        self.groups
            .entry(key)
            .or_insert_with(|| funcs.iter().map(AggPartial::new).collect())
    }

    /// Merges another shard's partials into `self` (shards are merged in
    /// span order, keeping tie-breaking deterministic).
    pub fn merge(&mut self, other: AggPartials) {
        for (key, parts) in other.groups {
            match self.groups.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(parts);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(parts) {
                        a.merge(b);
                    }
                }
            }
        }
        self.postings_scanned += other.postings_scanned;
        self.docs_scanned += other.docs_scanned;
        self.payload_reads += other.payload_reads;
        self.blocks.merge(&other.blocks);
        self.block_prune_ns += other.block_prune_ns;
    }

    /// Finishes the partials into the final [`AggResult`]. A query with no
    /// GROUP BY always yields exactly one row, even over zero matches
    /// (COUNT = 0, SUM = 0.0, AVG/MIN/MAX = NULL).
    pub fn finish(mut self, funcs: &[AggFunc], grouped: bool) -> AggResult {
        if !grouped && self.groups.is_empty() {
            self.groups
                .insert(None, funcs.iter().map(AggPartial::new).collect());
        }
        let rows = self
            .groups
            .into_iter()
            .map(|(group, parts)| AggRow {
                group,
                values: parts.iter().map(AggPartial::finish).collect(),
            })
            .collect();
        AggResult {
            rows,
            postings_scanned: self.postings_scanned,
            docs_scanned: self.docs_scanned,
            payload_reads: self.payload_reads,
            blocks: self.blocks,
            block_prune_ns: self.block_prune_ns,
        }
    }
}

/// Reference aggregation over materialized rows — the scalar oracle the
/// block path is gated against. Grouping uses the same total order on
/// group keys as [`AggPartials`], and each group's values come from
/// [`aggregate`]'s reference semantics.
pub fn aggregate_rows(rows: &[Document], funcs: &[AggFunc], group_by: Option<&str>) -> Vec<AggRow> {
    match group_by {
        None => vec![AggRow {
            group: None,
            values: funcs.iter().map(|f| aggregate(rows, f)).collect(),
        }],
        Some(col) => {
            let mut groups: BTreeMap<Option<FieldValue>, Vec<Document>> = BTreeMap::new();
            for d in rows {
                groups.entry(d.get(col)).or_default().push(d.clone());
            }
            groups
                .into_iter()
                .map(|(group, docs)| AggRow {
                    group,
                    values: funcs.iter().map(|f| aggregate(&docs, f)).collect(),
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The owned merge `merge_results` replaced: move every shard's rows
    /// into one vector, stable-sort it by re-reading the column on every
    /// comparison, truncate. Kept as the oracle the borrowed merge must
    /// equal.
    fn owned_merge(
        shard_results: Vec<QueryRows>,
        order_by: Option<&OrderBy>,
        limit: Option<usize>,
    ) -> QueryRows {
        let mut out = QueryRows::default();
        for r in shard_results {
            out.postings_scanned += r.postings_scanned;
            out.docs_scanned += r.docs_scanned;
            out.blocks.merge(&r.blocks);
            out.block_prune_ns += r.block_prune_ns;
            out.docs.extend(r.docs);
        }
        if let Some(ob) = order_by {
            out.docs.sort_by(|a, b| {
                let ord = match (a.get(&ob.column), b.get(&ob.column)) {
                    (Some(x), Some(y)) => cmp_values(&x, &y).unwrap_or(Ordering::Equal),
                    (Some(_), None) => Ordering::Greater,
                    (None, Some(_)) => Ordering::Less,
                    (None, None) => Ordering::Equal,
                };
                if ob.descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(l) = limit {
            out.docs.truncate(l);
        }
        out
    }

    /// One shard's rows from `(time, name, status)` draws: few
    /// distinct values per column so ties across shards are common, and
    /// an index past the end of the samples leaves the column missing.
    fn shard_rows(shard: usize, rows: &[(u64, usize, usize)], work: u64) -> QueryRows {
        const NAMES: [&str; 4] = ["", "a", "b", "\u{e9}t\u{e9}"];
        const STATUSES: [i64; 4] = [-2, 0, 1, 7];
        QueryRows {
            docs: rows
                .iter()
                .enumerate()
                .map(|(i, &(t, name, status))| {
                    let id = (shard * 100 + i) as u64;
                    let mut b = Document::builder(TenantId(1), RecordId(id), 1_000 + t);
                    if let Some(name) = NAMES.get(name) {
                        b = b.field("name", *name);
                    }
                    if let Some(status) = STATUSES.get(status) {
                        b = b.field("status", *status);
                    }
                    b.build()
                })
                .collect(),
            postings_scanned: work,
            docs_scanned: 2 * work,
            ..QueryRows::default()
        }
    }

    proptest! {
        #[test]
        fn borrowed_merge_equals_owned_merge(
            shards in prop::collection::vec(
                prop::collection::vec((0u64..4, 0usize..6, 0usize..6), 0..8),
                0..4,
            ),
            column in prop::sample::select(vec!["name", "status", "created_time", "absent"]),
            descending in any::<bool>(),
            ordered in any::<bool>(),
            limit in (0usize..40, any::<bool>()).prop_map(|(l, some)| some.then_some(l)),
        ) {
            let shards: Vec<QueryRows> = shards
                .iter()
                .enumerate()
                .map(|(s, rows)| shard_rows(s, rows, s as u64 + 1))
                .collect();
            let ob = OrderBy { column: column.to_string(), descending };
            let ob = ordered.then_some(&ob);
            let shared: Vec<Arc<QueryRows>> = shards.iter().cloned().map(Arc::new).collect();
            let got = merge_results(shared, ob, limit);
            let want = owned_merge(shards, ob, limit);
            prop_assert_eq!(&got.docs, &want.docs);
            prop_assert_eq!(got.postings_scanned, want.postings_scanned);
            prop_assert_eq!(got.docs_scanned, want.docs_scanned);
        }
    }

    fn rows(n: u64, base_time: u64) -> QueryRows {
        QueryRows {
            docs: (0..n)
                .map(|i| {
                    Document::builder(TenantId(1), RecordId(base_time + i), base_time + i)
                        .field("amount", FieldValue::Float((base_time + i) as f64))
                        .build()
                })
                .collect(),
            postings_scanned: n,
            ..QueryRows::default()
        }
    }

    #[test]
    fn global_sort_and_limit() {
        let merged = merge_results(
            vec![rows(5, 100), rows(5, 50), rows(5, 200)],
            Some(&OrderBy {
                column: "created_time".into(),
                descending: true,
            }),
            Some(4),
        );
        let times: Vec<u64> = merged.docs.iter().map(|d| d.created_at).collect();
        assert_eq!(times, vec![204, 203, 202, 201]);
        assert_eq!(merged.postings_scanned, 15, "work counters summed");
    }

    #[test]
    fn merge_without_order_preserves_all() {
        let merged = merge_results(vec![rows(3, 0), rows(2, 10)], None, None);
        assert_eq!(merged.docs.len(), 5);
    }

    #[test]
    fn ascending_order_across_shards() {
        let merged = merge_results(
            vec![rows(4, 300), rows(4, 100), rows(4, 200)],
            Some(&OrderBy {
                column: "created_time".into(),
                descending: false,
            }),
            Some(6),
        );
        let times: Vec<u64> = merged.docs.iter().map(|d| d.created_at).collect();
        assert_eq!(times, vec![100, 101, 102, 103, 200, 201]);
    }

    #[test]
    fn limit_larger_than_result_is_harmless() {
        let merged = merge_results(
            vec![rows(2, 10), rows(2, 20)],
            Some(&OrderBy {
                column: "created_time".into(),
                descending: true,
            }),
            Some(100),
        );
        assert_eq!(merged.docs.len(), 4);
    }

    #[test]
    fn ties_keep_shard_input_order() {
        // Two shards produce rows with the SAME sort key; the stable
        // merge must keep shard-A rows before shard-B rows. The parallel
        // scatter-gather path relies on this: as long as per-shard
        // results are gathered in span order, output is deterministic
        // for any parallelism degree.
        let mk = |shard: u64| QueryRows {
            docs: (0..3)
                .map(|i| {
                    Document::builder(TenantId(1), RecordId(shard * 10 + i), 5_000)
                        .field("status", 1i64)
                        .build()
                })
                .collect(),
            ..QueryRows::default()
        };
        let merged = merge_results(
            vec![mk(1), mk(2)],
            Some(&OrderBy {
                column: "created_time".into(),
                descending: true,
            }),
            None,
        );
        let ids: Vec<u64> = merged.docs.iter().map(|d| d.record_id.raw()).collect();
        assert_eq!(ids, vec![10, 11, 12, 20, 21, 22]);
    }

    #[test]
    fn aggregates() {
        let docs = rows(4, 10).docs; // amounts 10,11,12,13
        assert_eq!(aggregate(&docs, &AggFunc::Count), FieldValue::Int(4));
        assert_eq!(
            aggregate(&docs, &AggFunc::Sum("amount".into())),
            FieldValue::Float(46.0)
        );
        assert_eq!(
            aggregate(&docs, &AggFunc::Avg("amount".into())),
            FieldValue::Float(11.5)
        );
        assert_eq!(
            aggregate(&docs, &AggFunc::Min("amount".into())),
            FieldValue::Float(10.0)
        );
        assert_eq!(
            aggregate(&docs, &AggFunc::Max("amount".into())),
            FieldValue::Float(13.0)
        );
    }

    #[test]
    fn partials_match_reference_aggregation() {
        let docs = rows(7, 10).docs;
        let funcs = vec![
            AggFunc::Count,
            AggFunc::CountField("amount".into()),
            AggFunc::Sum("amount".into()),
            AggFunc::Avg("amount".into()),
            AggFunc::Min("amount".into()),
            AggFunc::Max("created_time".into()),
        ];
        // Accumulate row-at-a-time, split across two "shards", then merge.
        let mut shard_a = AggPartials::default();
        let mut shard_b = AggPartials::default();
        for (i, d) in docs.iter().enumerate() {
            let tgt = if i < 3 { &mut shard_a } else { &mut shard_b };
            let parts = tgt.entry(None, &funcs);
            for (p, f) in parts.iter_mut().zip(&funcs) {
                let v = f.column().and_then(|c| d.get(c));
                p.accumulate(f, v);
            }
        }
        shard_a.merge(shard_b);
        let got = shard_a.finish(&funcs, false);
        assert_eq!(got.rows, aggregate_rows(&docs, &funcs, None));
    }

    #[test]
    fn grouped_partials_match_reference_and_empty_groups_vanish() {
        let docs: Vec<Document> = (0..20u64)
            .map(|i| {
                Document::builder(TenantId(1), RecordId(i), 1_000 + i)
                    .field("g", (i % 3) as i64)
                    .field("v", i as i64)
                    .build()
            })
            .collect();
        let funcs = vec![AggFunc::Count, AggFunc::Sum("v".into())];
        let mut parts = AggPartials::default();
        for d in &docs {
            let key = d.get("g");
            let row = parts.entry(key, &funcs);
            for (p, f) in row.iter_mut().zip(&funcs) {
                p.accumulate(f, f.column().and_then(|c| d.get(c)));
            }
        }
        let got = parts.finish(&funcs, true);
        assert_eq!(got.rows, aggregate_rows(&docs, &funcs, Some("g")));
        assert_eq!(got.rows.len(), 3);
        // Grouped query over zero matches yields zero rows, not one.
        let empty = AggPartials::default().finish(&funcs, true);
        assert!(empty.rows.is_empty());
        // Ungrouped query over zero matches yields the SQL identity row.
        let idrow = AggPartials::default().finish(&funcs, false);
        assert_eq!(
            idrow.rows,
            vec![AggRow {
                group: None,
                values: vec![FieldValue::Int(0), FieldValue::Float(0.0)],
            }]
        );
    }

    #[test]
    fn count_field_skips_missing() {
        let mut docs = rows(3, 10).docs;
        docs.push(Document::builder(TenantId(1), RecordId(99), 99).build());
        assert_eq!(
            aggregate(&docs, &AggFunc::CountField("amount".into())),
            FieldValue::Int(3)
        );
        assert_eq!(aggregate(&docs, &AggFunc::Count), FieldValue::Int(4));
    }

    #[test]
    fn aggregates_over_empty_and_missing() {
        assert_eq!(aggregate(&[], &AggFunc::Count), FieldValue::Int(0));
        assert_eq!(aggregate(&[], &AggFunc::Avg("x".into())), FieldValue::Null);
        let d = vec![Document::builder(TenantId(1), RecordId(1), 1).build()];
        assert_eq!(
            aggregate(&d, &AggFunc::Sum("missing".into())),
            FieldValue::Float(0.0)
        );
        assert_eq!(
            aggregate(&d, &AggFunc::Min("missing".into())),
            FieldValue::Null
        );
    }
}
