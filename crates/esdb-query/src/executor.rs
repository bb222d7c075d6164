//! Plan execution against segments, with an optional segment filter cache.
//!
//! Caching model (tier 1 of the skew-aware query cache): segments are
//! immutable between refresh/merge except for *monotone* tombstones (a doc
//! can go live → deleted, never back). A cacheable sub-plan's posting list
//! is therefore stored as computed and re-filtered through
//! [`Segment::filter_live`] on every hit — any tombstone that landed after
//! the entry was cached is re-applied, so cached and uncached execution
//! return identical rows at all times. Merged-away segments can never
//! serve stale entries because merges mint fresh segment ids and lookups
//! only ever use ids from the current segment list.

use crate::aggregate::{aggregate_rows, AggPartials, AggResult};
use crate::ast::{cmp_values, values_eq, Bound, Expr, Query};
use crate::naive::naive_plan;
use crate::optimizer::optimize;
use crate::plan::Plan;
use esdb_common::cache::ShardedCache;
use esdb_doc::{CollectionSchema, Document, FieldType, FieldValue};
use esdb_index::snapshot::SnapshotView;
use esdb_index::{Analyzer, BlockStats, ColumnValues, PostingList, Segment, SegmentId};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// `true` = ESDB's rule-based optimizer (§5.1); `false` = the naive
    /// Lucene plan of Fig. 7 (one index search per predicate).
    pub use_optimizer: bool,
    /// `true` = block-at-a-time execution for block-eligible plans;
    /// `false` = always the scalar executor (the equivalence oracle).
    pub block_execution: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            use_optimizer: true,
            block_execution: true,
        }
    }
}

/// A result set plus work counters (used to compare plans).
#[derive(Debug, Clone, Default)]
pub struct QueryRows {
    /// Matching documents (after ORDER BY / LIMIT).
    pub docs: Vec<Document>,
    /// Posting entries materialized while executing (the cost the
    /// optimizer attacks — Fig. 7's "posting list grows prohibitively
    /// large").
    pub postings_scanned: u64,
    /// Documents touched by scan filters.
    pub docs_scanned: u64,
    /// Posting-block counters from block-at-a-time set operations (zero on
    /// the scalar path).
    pub blocks: BlockStats,
    /// Wall time spent in block set operations (the `block_prune` trace
    /// stage; zero on the scalar path).
    pub block_prune_ns: u64,
}

/// Work counters threaded through execution.
#[derive(Debug, Default)]
struct Work {
    postings: u64,
    docs: u64,
    blocks: BlockStats,
    prune_ns: u64,
}

/// Converts a numeric-ish [`FieldValue`] to the i64 domain of the numeric
/// index.
fn to_i64(v: &FieldValue) -> Option<i64> {
    match v {
        FieldValue::Int(i) => Some(*i),
        FieldValue::Timestamp(t) => i64::try_from(*t).ok(),
        FieldValue::Bool(b) => Some(*b as i64),
        _ => None,
    }
}

/// Converts a numeric-ish [`FieldValue`] to the f64 domain of the f64
/// numeric index.
fn to_f64(v: &FieldValue) -> Option<f64> {
    match v {
        FieldValue::Float(x) => Some(*x),
        FieldValue::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Translates an AST bound into an `std::ops::Bound<f64>`; `Err(())` means
/// the bound's value is not f64-convertible.
fn f64_bound(b: &Bound) -> Result<std::ops::Bound<f64>, ()> {
    match b {
        Bound::Unbounded => Ok(std::ops::Bound::Unbounded),
        Bound::Included(v) => to_f64(v).map(std::ops::Bound::Included).ok_or(()),
        Bound::Excluded(v) => to_f64(v).map(std::ops::Bound::Excluded).ok_or(()),
    }
}

/// Evaluates one leaf predicate through the best index the segment has,
/// falling back to a stored-field scan (always exact).
fn index_predicate(
    pred: &Expr,
    seg: &Segment,
    analyzer: &Analyzer,
    work: &mut Work,
) -> PostingList {
    let out = match pred {
        Expr::Eq(col, v) => match eq_lookup(col, v, seg, analyzer, work) {
            Some(list) => list,
            None => return scan_predicate(pred, seg, &seg.all_live(), work),
        },
        Expr::In(col, vals) => {
            // Union of per-value equality lookups. Each value borrows the
            // column and literal directly — no per-value `Expr` trees are
            // rebuilt on the indexed path.
            let mut lists: Vec<PostingList> = Vec::with_capacity(vals.len());
            for v in vals {
                match eq_lookup(col, v, seg, analyzer, work) {
                    Some(list) => {
                        work.postings += list.len() as u64;
                        lists.push(list);
                    }
                    None => {
                        // No usable index in this segment: exact per-value
                        // scan, still borrowing the operands.
                        lists.push(scan_eq(col, v, seg, &seg.all_live(), work));
                    }
                }
            }
            let refs: Vec<&PostingList> = lists.iter().collect();
            PostingList::union_many(&refs)
        }
        Expr::Range(col, lo, hi) => {
            if seg.has_numeric(col) {
                let lo_i = match lo {
                    Bound::Unbounded => None,
                    Bound::Included(v) => match to_i64(v) {
                        Some(i) => Some(i),
                        None => return scan_predicate(pred, seg, &seg.all_live(), work),
                    },
                    Bound::Excluded(v) => match to_i64(v).and_then(|i| i.checked_add(1)) {
                        Some(i) => Some(i),
                        None => return PostingList::new(),
                    },
                };
                let hi_i = match hi {
                    Bound::Unbounded => None,
                    Bound::Included(v) => match to_i64(v) {
                        Some(i) => Some(i),
                        None => return scan_predicate(pred, seg, &seg.all_live(), work),
                    },
                    Bound::Excluded(v) => match to_i64(v).and_then(|i| i.checked_sub(1)) {
                        Some(i) => Some(i),
                        None => return PostingList::new(),
                    },
                };
                seg.numeric_range(col, lo_i, hi_i)
            } else if seg.has_numeric_f64(col) {
                match (f64_bound(lo), f64_bound(hi)) {
                    (Ok(l), Ok(h)) => seg.numeric_f64_range(col, l, h),
                    _ => return scan_predicate(pred, seg, &seg.all_live(), work),
                }
            } else {
                return scan_predicate(pred, seg, &seg.all_live(), work);
            }
        }
        Expr::Match(col, text) => match_terms(col, text, seg, analyzer, work),
        Expr::AttrEq(name, value) => match seg.attr_docs(name, value) {
            Some(list) => list,
            // Not frequency-indexed in this segment: stored-attr scan.
            None => return scan_predicate(pred, seg, &seg.all_live(), work),
        },
        Expr::True => seg.all_live(),
        // Ne and nested booleans only appear here via the naive planner's
        // fallback — evaluate exactly by scanning.
        other => return scan_predicate(other, seg, &seg.all_live(), work),
    };
    work.postings += out.len() as u64;
    out
}

/// Resolves `col = v` through the best index the segment has, borrowing
/// both operands. `None` means no index applies (undeclared column, or a
/// value type the column's index cannot serve) and the caller must fall
/// back to an exact scan.
fn eq_lookup(
    col: &str,
    v: &FieldValue,
    seg: &Segment,
    analyzer: &Analyzer,
    work: &mut Work,
) -> Option<PostingList> {
    if seg.has_numeric(col) {
        to_i64(v).map(|i| seg.numeric_eq(col, i))
    } else if seg.has_numeric_f64(col) {
        to_f64(v).map(|x| seg.numeric_f64_eq(col, x))
    } else if seg.has_inverted(col) {
        match v {
            FieldValue::Str(s) => {
                // Keyword fields index raw values; text fields index
                // tokens — try raw first, then all-tokens semantics.
                let raw = seg.term_docs(col, s);
                Some(if !raw.is_empty() {
                    raw
                } else {
                    match_terms(col, s, seg, analyzer, work)
                })
            }
            _ => None,
        }
    } else {
        None
    }
}

/// All analyzed terms of `text` must match (conjunction of term postings).
fn match_terms(
    col: &str,
    text: &str,
    seg: &Segment,
    analyzer: &Analyzer,
    work: &mut Work,
) -> PostingList {
    let terms = analyzer.tokenize(text);
    if terms.is_empty() {
        return seg.all_live();
    }
    let lists: Vec<PostingList> = terms.iter().map(|t| seg.term_docs(col, t)).collect();
    work.postings += lists.iter().map(|l| l.len() as u64).sum::<u64>();
    let refs: Vec<&PostingList> = lists.iter().collect();
    PostingList::intersect_many(&refs)
}

/// Exact scan evaluation of `pred` over `input`, via doc values when the
/// column has them and stored fields otherwise.
fn scan_predicate(pred: &Expr, seg: &Segment, input: &PostingList, work: &mut Work) -> PostingList {
    // Frequency-based index when this segment has it (§3.2): a list
    // read charged to postings, not a scan of the input's documents.
    if let Expr::AttrEq(name, value) = pred {
        if let Some(list) = seg.attr_docs(name, value) {
            work.postings += list.len() as u64;
            return list.intersect(input);
        }
    }
    work.docs += input.len() as u64;
    match pred {
        Expr::Eq(col, v) if seg.has_doc_values(col) => {
            seg.scan_filter(col, input, |x| x.is_some_and(|x| values_eq(x, v)))
        }
        Expr::Ne(col, v) if seg.has_doc_values(col) => {
            seg.scan_filter(col, input, |x| x.is_some_and(|x| !values_eq(x, v)))
        }
        Expr::In(col, vs) if seg.has_doc_values(col) => seg.scan_filter(col, input, |x| {
            x.is_some_and(|x| vs.iter().any(|v| values_eq(x, v)))
        }),
        Expr::Range(col, lo, hi) if seg.has_doc_values(col) => seg.scan_filter(col, input, |x| {
            let Some(x) = x else { return false };
            bound_ok(x, lo, true) && bound_ok(x, hi, false)
        }),
        // Not frequency-indexed in this segment: stored-attr scan.
        Expr::AttrEq(name, value) => PostingList::from_sorted(
            input
                .iter()
                .filter(|&d| seg.doc(d).is_some_and(|doc| doc.attr(name) == Some(value)))
                .collect(),
        ),
        // Stored-field fallback (undeclared columns, Match on unindexed
        // fields, nested booleans).
        other => PostingList::from_sorted(
            input
                .iter()
                .filter(|&d| seg.doc(d).is_some_and(|doc| other.matches(doc)))
                .collect(),
        ),
    }
}

/// Exact `col = v` scan over `input`, borrowing both operands (same
/// semantics as [`scan_predicate`] with an `Expr::Eq`, without building
/// the temporary expression tree).
fn scan_eq(
    col: &str,
    v: &FieldValue,
    seg: &Segment,
    input: &PostingList,
    work: &mut Work,
) -> PostingList {
    work.docs += input.len() as u64;
    if seg.has_doc_values(col) {
        seg.scan_filter(col, input, |x| x.is_some_and(|x| values_eq(x, v)))
    } else {
        PostingList::from_sorted(
            input
                .iter()
                .filter(|&d| {
                    seg.doc(d)
                        .is_some_and(|doc| doc.get(col).is_some_and(|x| values_eq(&x, v)))
                })
                .collect(),
        )
    }
}

/// Exact `lo <= col <= hi` scan over `input`, borrowing the bounds (same
/// semantics as [`scan_predicate`] with an `Expr::Range`).
fn scan_range(
    col: &str,
    lo: &Bound,
    hi: &Bound,
    seg: &Segment,
    input: &PostingList,
    work: &mut Work,
) -> PostingList {
    work.docs += input.len() as u64;
    if seg.has_doc_values(col) {
        seg.scan_filter(col, input, |x| {
            let Some(x) = x else { return false };
            bound_ok(x, lo, true) && bound_ok(x, hi, false)
        })
    } else {
        PostingList::from_sorted(
            input
                .iter()
                .filter(|&d| {
                    seg.doc(d).is_some_and(|doc| {
                        doc.get(col)
                            .is_some_and(|x| bound_ok(&x, lo, true) && bound_ok(&x, hi, false))
                    })
                })
                .collect(),
        )
    }
}

fn bound_ok(x: &FieldValue, b: &Bound, is_lo: bool) -> bool {
    match b {
        Bound::Unbounded => true,
        Bound::Included(v) => cmp_values(x, v).is_some_and(|o| {
            if is_lo {
                o != Ordering::Less
            } else {
                o != Ordering::Greater
            }
        }),
        Bound::Excluded(v) => cmp_values(x, v).is_some_and(|o| {
            if is_lo {
                o == Ordering::Greater
            } else {
                o == Ordering::Less
            }
        }),
    }
}

/// Executes a plan on one segment.
fn execute_plan(plan: &Plan, seg: &Segment, analyzer: &Analyzer, work: &mut Work) -> PostingList {
    match plan {
        Plan::All => seg.all_live(),
        Plan::Empty => PostingList::new(),
        Plan::CompositeScan { index, eq, range } => {
            let Some(_) = seg.composite(index) else {
                // Segment without the composite (e.g. built before the
                // schema declared it): fall back to exact scanning of the
                // plan's borrowed fragments — no Expr trees are rebuilt.
                let mut acc = seg.all_live();
                for (c, v) in eq {
                    acc = scan_eq(c, v, seg, &acc, work);
                }
                if let Some((c, lo, hi)) = range {
                    acc = scan_range(c, lo, hi, seg, &acc, work);
                }
                return acc;
            };
            let mut prefix = Vec::with_capacity(eq.len() * 10);
            for (_, v) in eq {
                v.encode_ordered(&mut prefix);
            }
            let enc = |b: &Bound| match b {
                Bound::Unbounded => std::ops::Bound::Unbounded,
                Bound::Included(v) => std::ops::Bound::Included(v.to_ordered_bytes()),
                Bound::Excluded(v) => std::ops::Bound::Excluded(v.to_ordered_bytes()),
            };
            let out = match range {
                None => seg.composite_lookup(index, &prefix, None),
                Some((_, lo, hi)) => {
                    fn as_ref(b: &std::ops::Bound<Vec<u8>>) -> std::ops::Bound<&[u8]> {
                        match b {
                            std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
                            std::ops::Bound::Included(v) => std::ops::Bound::Included(v.as_slice()),
                            std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v.as_slice()),
                        }
                    }
                    let lo_b = enc(lo);
                    let hi_b = enc(hi);
                    seg.composite_lookup(index, &prefix, Some((as_ref(&lo_b), as_ref(&hi_b))))
                }
            };
            work.postings += out.len() as u64;
            out
        }
        Plan::IndexPredicate(p) => index_predicate(p, seg, analyzer, work),
        Plan::ScanFilter { input, predicates } => {
            let mut acc = execute_plan(input, seg, analyzer, work);
            for p in predicates {
                if acc.is_empty() {
                    break;
                }
                acc = scan_predicate(p, seg, &acc, work);
            }
            acc
        }
        Plan::Intersect(ps) => {
            let lists: Vec<PostingList> = ps
                .iter()
                .map(|p| execute_plan(p, seg, analyzer, work))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            PostingList::intersect_many(&refs)
        }
        Plan::Union(ps) => {
            let lists: Vec<PostingList> = ps
                .iter()
                .map(|p| execute_plan(p, seg, analyzer, work))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            PostingList::union_many(&refs)
        }
    }
}

/// Key of one cached per-segment filter result: `(routing shard, segment
/// id, plan fingerprint)`. Segment ids are only unique *within* a shard
/// (each shard engine numbers from 1), so the shard index is part of the
/// key.
pub(crate) type FilterCacheKey = (u32, SegmentId, u128);

/// Tier-1 cache: per-segment posting lists of cacheable sub-plans,
/// weighted by approximate resident bytes.
pub type SegmentFilterCache = ShardedCache<FilterCacheKey, Arc<PostingList>>;

/// Binds a shared [`SegmentFilterCache`] to the routing shard whose
/// segments are being executed.
pub struct FilterCacheContext<'a> {
    /// The instance-wide filter cache.
    pub cache: &'a SegmentFilterCache,
    /// Routing shard the segments belong to (key namespace).
    pub shard: u32,
}

/// Approximate resident weight of a cached posting list.
fn posting_weight(list: &PostingList) -> u64 {
    (list.len() * std::mem::size_of::<esdb_index::segment::DocId>() + 64) as u64
}

/// A plan annotated with fingerprints at its *maximal cacheable subtrees*,
/// computed once per query and shared across every segment and shard the
/// query fans out to.
pub struct PreparedPlan<'p> {
    plan: &'p Plan,
    root: CacheNode<'p>,
}

enum CacheNode<'p> {
    /// Root of a maximal cacheable subtree.
    Cached { plan: &'p Plan, fp: u128 },
    /// Non-cacheable scan residual over a (possibly cacheable) input.
    ScanFilter {
        input: Box<CacheNode<'p>>,
        predicates: &'p [Expr],
    },
    /// Intersection with at least one non-cacheable child.
    Intersect(Vec<CacheNode<'p>>),
    /// Union with at least one non-cacheable child.
    Union(Vec<CacheNode<'p>>),
    /// Trivial leaf executed directly (`All` / `Empty`).
    Direct(&'p Plan),
}

fn annotate(plan: &Plan) -> CacheNode<'_> {
    if plan.cacheable() {
        return CacheNode::Cached {
            plan,
            fp: plan.fingerprint(),
        };
    }
    match plan {
        Plan::ScanFilter { input, predicates } => CacheNode::ScanFilter {
            input: Box::new(annotate(input)),
            predicates,
        },
        Plan::Intersect(ps) => CacheNode::Intersect(ps.iter().map(annotate).collect()),
        Plan::Union(ps) => CacheNode::Union(ps.iter().map(annotate).collect()),
        other => CacheNode::Direct(other),
    }
}

impl<'p> PreparedPlan<'p> {
    /// Annotates `plan` for cached execution (fingerprints each maximal
    /// cacheable subtree once).
    pub fn new(plan: &'p Plan) -> Self {
        PreparedPlan {
            plan,
            root: annotate(plan),
        }
    }
}

/// Executes one annotated node on one segment, consulting the cache at
/// cacheable roots.
fn execute_node(
    node: &CacheNode<'_>,
    seg: &Segment,
    analyzer: &Analyzer,
    work: &mut Work,
    ctx: &FilterCacheContext<'_>,
) -> PostingList {
    match node {
        CacheNode::Cached { plan, fp } => {
            let key = (ctx.shard, seg.id, *fp);
            if let Some(hit) = ctx.cache.get(&key) {
                // Re-filter through the *current* tombstones: liveness is
                // monotone, so this equals recomputing from scratch.
                // Work counters stay untouched — a hit does none of the
                // index work the counters measure.
                return seg.filter_live_ref(&hit);
            }
            let out = execute_plan(plan, seg, analyzer, work);
            ctx.cache
                .insert(key, Arc::new(out.clone()), posting_weight(&out));
            out
        }
        CacheNode::ScanFilter { input, predicates } => {
            let mut acc = execute_node(input, seg, analyzer, work, ctx);
            for p in *predicates {
                if acc.is_empty() {
                    break;
                }
                acc = scan_predicate(p, seg, &acc, work);
            }
            acc
        }
        CacheNode::Intersect(ns) => {
            let lists: Vec<PostingList> = ns
                .iter()
                .map(|n| execute_node(n, seg, analyzer, work, ctx))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            PostingList::intersect_many(&refs)
        }
        CacheNode::Union(ns) => {
            let lists: Vec<PostingList> = ns
                .iter()
                .map(|n| execute_node(n, seg, analyzer, work, ctx))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            PostingList::union_many(&refs)
        }
        CacheNode::Direct(plan) => execute_plan(plan, seg, analyzer, work),
    }
}

/// Executes a full query over a set of segments (one shard's searchable
/// state), applying ORDER BY and LIMIT.
pub fn execute_on_segments(
    query: &Query,
    schema: &CollectionSchema,
    segments: &[&Segment],
    opts: QueryOptions,
) -> QueryRows {
    let plan = if opts.use_optimizer {
        optimize(&query.filter, schema)
    } else {
        naive_plan(&query.filter)
    };
    execute_plan_on_segments(query, &plan, segments)
}

/// Executes a pre-built plan.
///
/// Like Elasticsearch's query-then-fetch, matching is done on doc IDs and
/// only the rows surviving ORDER BY / LIMIT are materialized (the paper
/// appends `LIMIT 100` to every benchmark query precisely so fetch cost
/// does not dominate).
fn execute_plan_on_segments(query: &Query, plan: &Plan, segments: &[&Segment]) -> QueryRows {
    collect_and_fetch(query, segments, |seg, analyzer, work| {
        execute_plan(plan, seg, analyzer, work)
    })
}

/// Executes a prepared plan with the segment filter cache. With
/// `cache: None` this is byte-identical to [`execute_plan_on_segments`].
fn execute_prepared_on_segments(
    query: &Query,
    prepared: &PreparedPlan<'_>,
    segments: &[&Segment],
    cache: Option<&FilterCacheContext<'_>>,
) -> QueryRows {
    match cache {
        None => execute_plan_on_segments(query, prepared.plan, segments),
        Some(ctx) => collect_and_fetch(query, segments, |seg, analyzer, work| {
            execute_node(&prepared.root, seg, analyzer, work, ctx)
        }),
    }
}

/// Executes a full query against a pinned point-in-time view. The view
/// is immutable, so execution is lock-free end to end: planning, cache
/// probes, posting intersection, and row materialization all run against
/// the snapshot's sealed segments.
pub fn execute_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    schema: &CollectionSchema,
    view: &V,
    opts: QueryOptions,
) -> QueryRows {
    let segs: Vec<&Segment> = view.segments().iter().map(|s| s.as_ref()).collect();
    execute_on_segments(query, schema, &segs, opts)
}

/// Executes a prepared plan against a pinned point-in-time view (see
/// [`execute_on_snapshot`]). Tier-1 cache entries are keyed by the
/// view's segment ids; because the view is frozen, a concurrent refresh
/// or merge can neither invalidate nor corrupt entries mid-query.
pub fn execute_prepared_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    prepared: &PreparedPlan<'_>,
    view: &V,
    cache: Option<&FilterCacheContext<'_>>,
) -> QueryRows {
    let segs: Vec<&Segment> = view.segments().iter().map(|s| s.as_ref()).collect();
    execute_prepared_on_segments(query, prepared, &segs, cache)
}

/// The shared collection / sort / limit / fetch skeleton: runs `matcher`
/// per segment, then applies ORDER BY and LIMIT and materializes only the
/// surviving rows.
fn collect_and_fetch(
    query: &Query,
    segments: &[&Segment],
    mut matcher: impl FnMut(&Segment, &Analyzer, &mut Work) -> PostingList,
) -> QueryRows {
    let analyzer = Analyzer::default();
    let mut work = Work::default();
    // Row-ID collection phase.
    let mut ids: Vec<(usize, esdb_index::segment::DocId)> = Vec::new();
    for (si, seg) in segments.iter().enumerate() {
        let list = matcher(seg, &analyzer, &mut work);
        ids.extend(list.iter().map(|d| (si, d)));
        // Without a sort we only need `limit` rows in total.
        if query.order_by.is_none() {
            if let Some(limit) = query.limit {
                if ids.len() >= limit {
                    ids.truncate(limit);
                    break;
                }
            }
        }
    }
    if let Some(ob) = &query.order_by {
        // Sort keys come from doc values, falling back to stored fields
        // for columns without a doc-values column.
        let key = |si: usize, d: esdb_index::segment::DocId| -> Option<FieldValue> {
            segments[si]
                .doc_value(&ob.column, d)
                .or_else(|| segments[si].doc(d).and_then(|doc| doc.get(&ob.column)))
        };
        ids.sort_by(|&(sa, da), &(sb, db)| {
            let va = key(sa, da);
            let vb = key(sb, db);
            let ord = match (va, vb) {
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
    if let Some(limit) = query.limit {
        ids.truncate(limit);
    }
    // Fetch phase: materialize only the surviving rows.
    let docs: Vec<Document> = ids
        .into_iter()
        .filter_map(|(si, d)| segments[si].doc(d).cloned())
        .collect();
    QueryRows {
        docs,
        postings_scanned: work.postings,
        docs_scanned: work.docs,
        blocks: work.blocks,
        block_prune_ns: work.prune_ns,
    }
}

// ---------------------------------------------------------------------------
// Block-at-a-time execution (vectorized read path).
// ---------------------------------------------------------------------------

/// Whether `plan` can run on the block-at-a-time path. The criterion is
/// that no predicate forces a *stored-payload* fallback inside a scan
/// residual: leaf predicates (Eq/Ne/In/Range/Match/AttrEq/True) evaluate
/// through indexes or typed doc-value columns block by block, while a
/// nested boolean residual (`And`/`Or` under a `ScanFilter` or
/// `IndexPredicate`) must match full documents and stays on the scalar
/// executor.
pub fn block_eligible(plan: &Plan) -> bool {
    fn leaf_ok(e: &Expr) -> bool {
        matches!(
            e,
            Expr::Eq(..)
                | Expr::Ne(..)
                | Expr::In(..)
                | Expr::Range(..)
                | Expr::Match(..)
                | Expr::AttrEq(..)
                | Expr::True
        )
    }
    match plan {
        Plan::All | Plan::Empty | Plan::CompositeScan { .. } => true,
        Plan::IndexPredicate(e) => leaf_ok(e),
        Plan::ScanFilter { input, predicates } => {
            block_eligible(input) && predicates.iter().all(leaf_ok)
        }
        Plan::Intersect(ps) | Plan::Union(ps) => ps.iter().all(block_eligible),
    }
}

/// Whether an aggregate query can be computed straight from columnar doc
/// values. Every aggregated column and the GROUP BY column must be a
/// declared doc-values column whose columnar representation is faithful to
/// the stored value (Long/Double/Timestamp/Keyword; Bool columns are
/// stored as integers and stay on the scalar path).
pub fn aggregate_pushdown_eligible(query: &Query, schema: &CollectionSchema) -> bool {
    let col_ok = |c: &str| {
        schema
            .field(c)
            .is_some_and(|f| f.doc_values && !matches!(f.ty, FieldType::Bool))
    };
    query
        .aggregates
        .iter()
        .all(|f| f.column().map_or(true, col_ok))
        && query.group_by.as_deref().map_or(true, col_ok)
}

/// Compares a typed i64 column value against a literal with exactly the
/// [`cmp_values`] semantics of the `FieldValue::Int` the column would
/// produce.
fn cmp_col_i64(x: i64, v: &FieldValue) -> Option<Ordering> {
    match v {
        FieldValue::Int(y) => Some(x.cmp(y)),
        FieldValue::Timestamp(y) => Some((x as i128).cmp(&(*y as i128))),
        FieldValue::Float(y) => (x as f64).partial_cmp(y),
        _ => None,
    }
}

/// [`cmp_values`] semantics for a `FieldValue::Timestamp` column value.
fn cmp_col_u64(x: u64, v: &FieldValue) -> Option<Ordering> {
    match v {
        FieldValue::Int(y) => Some((x as i128).cmp(&(*y as i128))),
        FieldValue::Timestamp(y) => Some(x.cmp(y)),
        _ => None,
    }
}

/// [`cmp_values`] semantics for a `FieldValue::Float` column value.
fn cmp_col_f64(x: f64, v: &FieldValue) -> Option<Ordering> {
    match v {
        FieldValue::Float(y) => x.partial_cmp(y),
        FieldValue::Int(y) => x.partial_cmp(&(*y as f64)),
        _ => None,
    }
}

/// [`cmp_values`] semantics for a `FieldValue::Str` column value.
fn cmp_col_str(x: &str, v: &FieldValue) -> Option<Ordering> {
    match v {
        FieldValue::Str(y) => Some(x.cmp(y.as_str())),
        _ => None,
    }
}

/// Evaluates a comparison predicate given a function producing the
/// ordering of the (present) column value against each literal. Mirrors
/// the reference semantics of [`Expr::matches`] / `scan_predicate` for a
/// present value: `Ne` is true whenever the value does not compare equal
/// (incomparable types included), ranges require both bounds to hold.
fn pred_ord_matches(pred: &Expr, ord: impl Fn(&FieldValue) -> Option<Ordering>) -> bool {
    match pred {
        Expr::Eq(_, v) => ord(v) == Some(Ordering::Equal),
        Expr::Ne(_, v) => ord(v) != Some(Ordering::Equal),
        Expr::In(_, vs) => vs.iter().any(|v| ord(v) == Some(Ordering::Equal)),
        Expr::Range(_, lo, hi) => {
            let lo_ok = match lo {
                Bound::Unbounded => true,
                Bound::Included(v) => ord(v).is_some_and(|o| o != Ordering::Less),
                Bound::Excluded(v) => ord(v) == Some(Ordering::Greater),
            };
            let hi_ok = match hi {
                Bound::Unbounded => true,
                Bound::Included(v) => ord(v).is_some_and(|o| o != Ordering::Greater),
                Bound::Excluded(v) => ord(v) == Some(Ordering::Less),
            };
            lo_ok && hi_ok
        }
        _ => false,
    }
}

/// Filters `input` through a typed column block by block, without
/// materializing per-doc `FieldValue`s. Missing values never match (SQL
/// NULL semantics, same as the scalar scan).
fn filter_typed_column<T: Copy>(
    vals: &[Option<T>],
    input: &PostingList,
    pred: &Expr,
    cmp: impl Fn(T, &FieldValue) -> Option<Ordering>,
) -> PostingList {
    let mut out = PostingList::new();
    for b in input.blocks() {
        for &d in b.ids() {
            if let Some(Some(x)) = vals.get(d as usize) {
                if pred_ord_matches(pred, |v| cmp(*x, v)) {
                    out.push(d);
                }
            }
        }
    }
    out
}

/// Block-at-a-time scan residual: evaluates `pred` over `input` via the
/// segment's typed doc-value column, falling back to the scalar
/// [`scan_predicate`] when the predicate's column has no typed column
/// (identical semantics either way).
fn block_scan_predicate(
    pred: &Expr,
    seg: &Segment,
    input: &PostingList,
    work: &mut Work,
) -> PostingList {
    let col = match pred {
        Expr::Eq(c, _) | Expr::Ne(c, _) | Expr::In(c, _) | Expr::Range(c, _, _) => c,
        other => return scan_predicate(other, seg, input, work),
    };
    let Some(column) = seg.column(col) else {
        return scan_predicate(pred, seg, input, work);
    };
    work.docs += input.len() as u64;
    match column {
        ColumnValues::I64(vals) => filter_typed_column(vals, input, pred, cmp_col_i64),
        ColumnValues::U64(vals) => filter_typed_column(vals, input, pred, cmp_col_u64),
        ColumnValues::F64(vals) => filter_typed_column(vals, input, pred, cmp_col_f64),
        ColumnValues::Str(vals) => {
            let mut out = PostingList::new();
            for b in input.blocks() {
                for &d in b.ids() {
                    if let Some(Some(x)) = vals.get(d as usize) {
                        if pred_ord_matches(pred, |v| cmp_col_str(x, v)) {
                            out.push(d);
                        }
                    }
                }
            }
            out
        }
    }
}

/// Executes a plan on one segment block-at-a-time: set operations run
/// through the skip-data-aware block kernels (timed as the `block_prune`
/// stage) and scan residuals filter typed columns block by block. Leaves
/// (index lookups, composite scans) share the scalar implementations, so
/// results are identical to [`execute_plan`] by construction.
fn execute_plan_blocks(
    plan: &Plan,
    seg: &Segment,
    analyzer: &Analyzer,
    work: &mut Work,
) -> PostingList {
    match plan {
        Plan::ScanFilter { input, predicates } => {
            let mut acc = execute_plan_blocks(input, seg, analyzer, work);
            for p in predicates {
                if acc.is_empty() {
                    break;
                }
                acc = block_scan_predicate(p, seg, &acc, work);
            }
            acc
        }
        Plan::Intersect(ps) => {
            let lists: Vec<PostingList> = ps
                .iter()
                .map(|p| execute_plan_blocks(p, seg, analyzer, work))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            let t = Instant::now();
            let out = PostingList::intersect_many_stats(&refs, &mut work.blocks);
            work.prune_ns += t.elapsed().as_nanos() as u64;
            out
        }
        Plan::Union(ps) => {
            let lists: Vec<PostingList> = ps
                .iter()
                .map(|p| execute_plan_blocks(p, seg, analyzer, work))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            let t = Instant::now();
            let out = PostingList::union_many_stats(&refs, &mut work.blocks);
            work.prune_ns += t.elapsed().as_nanos() as u64;
            out
        }
        other => execute_plan(other, seg, analyzer, work),
    }
}

/// The cached variant of [`execute_plan_blocks`]: consults the segment
/// filter cache at cacheable roots exactly like `execute_node`, but runs
/// set operations and scan residuals through the block kernels.
fn execute_node_blocks(
    node: &CacheNode<'_>,
    seg: &Segment,
    analyzer: &Analyzer,
    work: &mut Work,
    ctx: &FilterCacheContext<'_>,
) -> PostingList {
    match node {
        CacheNode::Cached { plan, fp } => {
            let key = (ctx.shard, seg.id, *fp);
            if let Some(hit) = ctx.cache.get(&key) {
                return seg.filter_live_ref(&hit);
            }
            let out = execute_plan_blocks(plan, seg, analyzer, work);
            ctx.cache
                .insert(key, Arc::new(out.clone()), posting_weight(&out));
            out
        }
        CacheNode::ScanFilter { input, predicates } => {
            let mut acc = execute_node_blocks(input, seg, analyzer, work, ctx);
            for p in *predicates {
                if acc.is_empty() {
                    break;
                }
                acc = block_scan_predicate(p, seg, &acc, work);
            }
            acc
        }
        CacheNode::Intersect(ns) => {
            let lists: Vec<PostingList> = ns
                .iter()
                .map(|n| execute_node_blocks(n, seg, analyzer, work, ctx))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            let t = Instant::now();
            let out = PostingList::intersect_many_stats(&refs, &mut work.blocks);
            work.prune_ns += t.elapsed().as_nanos() as u64;
            out
        }
        CacheNode::Union(ns) => {
            let lists: Vec<PostingList> = ns
                .iter()
                .map(|n| execute_node_blocks(n, seg, analyzer, work, ctx))
                .collect();
            let refs: Vec<&PostingList> = lists.iter().collect();
            let t = Instant::now();
            let out = PostingList::union_many_stats(&refs, &mut work.blocks);
            work.prune_ns += t.elapsed().as_nanos() as u64;
            out
        }
        CacheNode::Direct(plan) => execute_plan_blocks(plan, seg, analyzer, work),
    }
}

/// Block-path collection / sort / limit / fetch: row ids stay in posting
/// blocks until the final projection, and ORDER BY decorates each id with
/// its sort key exactly once (the scalar path fetches keys inside the
/// comparator). The decorated sort's total order — key order, then
/// `(segment, doc)` — reproduces the scalar stable sort byte for byte,
/// because ids are collected in ascending `(segment, doc)` order.
fn collect_blocks_and_fetch(
    query: &Query,
    segments: &[&Segment],
    mut matcher: impl FnMut(&Segment, &Analyzer, &mut Work) -> PostingList,
) -> QueryRows {
    let analyzer = Analyzer::default();
    let mut work = Work::default();
    let mut ids: Vec<(usize, esdb_index::segment::DocId)> = Vec::new();
    'collect: for (si, seg) in segments.iter().enumerate() {
        let list = matcher(seg, &analyzer, &mut work);
        for b in list.blocks() {
            ids.extend(b.ids().iter().map(|&d| (si, d)));
        }
        if query.order_by.is_none() {
            if let Some(limit) = query.limit {
                if ids.len() >= limit {
                    ids.truncate(limit);
                    break 'collect;
                }
            }
        }
    }
    if let Some(ob) = &query.order_by {
        // Decorate once: one doc-values lookup per id instead of two per
        // comparison.
        let mut dec: Vec<(Option<FieldValue>, usize, esdb_index::segment::DocId)> = ids
            .iter()
            .map(|&(si, d)| {
                let key = segments[si]
                    .doc_value(&ob.column, d)
                    .or_else(|| segments[si].doc(d).and_then(|doc| doc.get(&ob.column)));
                (key, si, d)
            })
            .collect();
        type Dec = (Option<FieldValue>, usize, esdb_index::segment::DocId);
        let cmp = |a: &Dec, b: &Dec| {
            let ord = match (&a.0, &b.0) {
                (Some(x), Some(y)) => cmp_values(x, y).unwrap_or(Ordering::Equal),
                (Some(_), None) => Ordering::Greater,
                (None, Some(_)) => Ordering::Less,
                (None, None) => Ordering::Equal,
            };
            let ord = if ob.descending { ord.reverse() } else { ord };
            ord.then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
        };
        // Top-k selection: the comparator is a strict total order (ties
        // break on the unique `(segment, doc)` pair), so selecting the
        // smallest `limit` elements and sorting only those reproduces the
        // full sort's prefix exactly, in O(n + k log k) instead of
        // O(n log n).
        if let Some(limit) = query.limit {
            if limit == 0 {
                dec.clear();
            } else if limit < dec.len() {
                dec.select_nth_unstable_by(limit - 1, cmp);
                dec.truncate(limit);
            }
        }
        dec.sort_by(cmp);
        ids = dec.into_iter().map(|(_, si, d)| (si, d)).collect();
    }
    if let Some(limit) = query.limit {
        ids.truncate(limit);
    }
    let docs: Vec<Document> = ids
        .into_iter()
        .filter_map(|(si, d)| segments[si].doc(d).cloned())
        .collect();
    QueryRows {
        docs,
        postings_scanned: work.postings,
        docs_scanned: work.docs,
        blocks: work.blocks,
        block_prune_ns: work.prune_ns,
    }
}

/// Executes a full query block-at-a-time against a pinned point-in-time
/// view. Results are identical to [`execute_on_snapshot`]; only the
/// execution strategy (and the block counters) differ.
pub fn execute_blocks_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    schema: &CollectionSchema,
    view: &V,
    opts: QueryOptions,
) -> QueryRows {
    let plan = if opts.use_optimizer {
        optimize(&query.filter, schema)
    } else {
        naive_plan(&query.filter)
    };
    let segs: Vec<&Segment> = view.segments().iter().map(|s| s.as_ref()).collect();
    collect_blocks_and_fetch(query, &segs, |seg, analyzer, work| {
        execute_plan_blocks(&plan, seg, analyzer, work)
    })
}

/// Executes a prepared plan block-at-a-time with the segment filter cache
/// (the block counterpart of [`execute_prepared_on_snapshot`]).
pub fn execute_prepared_blocks_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    prepared: &PreparedPlan<'_>,
    view: &V,
    cache: Option<&FilterCacheContext<'_>>,
) -> QueryRows {
    let segs: Vec<&Segment> = view.segments().iter().map(|s| s.as_ref()).collect();
    match cache {
        None => collect_blocks_and_fetch(query, &segs, |seg, analyzer, work| {
            execute_plan_blocks(prepared.plan, seg, analyzer, work)
        }),
        Some(ctx) => collect_blocks_and_fetch(query, &segs, |seg, analyzer, work| {
            execute_node_blocks(&prepared.root, seg, analyzer, work, ctx)
        }),
    }
}

/// Aggregation pushdown: computes the aggregate select list directly from
/// per-segment columnar doc values, never materializing stored payloads
/// for column-backed inputs. The matched doc ids are consumed through
/// [`SnapshotView::for_each_live_block`], so the copy-on-write live-doc
/// bitmap is applied a block at a time.
fn aggregate_blocks<V: SnapshotView + ?Sized>(
    query: &Query,
    view: &V,
    mut matcher: impl FnMut(&Segment, &Analyzer, &mut Work) -> PostingList,
) -> AggPartials {
    let analyzer = Analyzer::default();
    let mut work = Work::default();
    let mut partials = AggPartials::default();
    let mut payloads = 0u64;
    let funcs = &query.aggregates;
    for (si, seg) in view.segments().iter().enumerate() {
        let seg = seg.as_ref();
        let list = matcher(seg, &analyzer, &mut work);
        // Typed column per aggregate input (None = payload fallback).
        let cols: Vec<Option<&ColumnValues>> = funcs
            .iter()
            .map(|f| f.column().and_then(|c| seg.column(c)))
            .collect();
        let gcol = query.group_by.as_deref().and_then(|c| seg.column(c));
        view.for_each_live_block(si, &list, &mut |block_ids| {
            for &d in block_ids {
                let key = match &query.group_by {
                    None => None,
                    Some(c) => match gcol {
                        Some(col) => col.get(d),
                        None => {
                            payloads += 1;
                            seg.doc(d).and_then(|doc| doc.get(c))
                        }
                    },
                };
                let parts = partials.entry(key, funcs);
                for (i, (p, f)) in parts.iter_mut().zip(funcs).enumerate() {
                    let v = match cols[i] {
                        Some(col) => col.get(d),
                        None => match f.column() {
                            Some(c) => {
                                payloads += 1;
                                seg.doc(d).and_then(|doc| doc.get(c))
                            }
                            None => None,
                        },
                    };
                    p.accumulate(f, v);
                }
            }
        });
    }
    partials.postings_scanned = work.postings;
    partials.docs_scanned = work.docs;
    partials.payload_reads = payloads;
    partials.blocks = work.blocks;
    partials.block_prune_ns = work.prune_ns;
    partials
}

/// Executes an aggregate query block-at-a-time against a pinned view,
/// returning mergeable per-shard partials (the coordinator merges shards
/// with [`AggPartials::merge`] and finishes once).
pub fn aggregate_blocks_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    schema: &CollectionSchema,
    view: &V,
    opts: QueryOptions,
) -> AggPartials {
    let plan = if opts.use_optimizer {
        optimize(&query.filter, schema)
    } else {
        naive_plan(&query.filter)
    };
    aggregate_blocks(query, view, |seg, analyzer, work| {
        execute_plan_blocks(&plan, seg, analyzer, work)
    })
}

/// Cached variant of [`aggregate_blocks_on_snapshot`].
pub fn aggregate_prepared_blocks_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    prepared: &PreparedPlan<'_>,
    view: &V,
    cache: Option<&FilterCacheContext<'_>>,
) -> AggPartials {
    match cache {
        None => aggregate_blocks(query, view, |seg, analyzer, work| {
            execute_plan_blocks(prepared.plan, seg, analyzer, work)
        }),
        Some(ctx) => aggregate_blocks(query, view, |seg, analyzer, work| {
            execute_node_blocks(&prepared.root, seg, analyzer, work, ctx)
        }),
    }
}

/// The scalar aggregation oracle: materializes every matching row through
/// the scalar executor, then aggregates with the reference semantics of
/// [`crate::aggregate::aggregate`]. `payload_reads` counts the
/// materialized rows — the cost the block path's pushdown avoids.
pub fn aggregate_scalar_on_snapshot<V: SnapshotView + ?Sized>(
    query: &Query,
    schema: &CollectionSchema,
    view: &V,
    opts: QueryOptions,
) -> AggResult {
    let row_query = Query {
        aggregates: Vec::new(),
        group_by: None,
        projection: Vec::new(),
        order_by: None,
        limit: None,
        ..query.clone()
    };
    let rows = execute_on_snapshot(&row_query, schema, view, opts);
    let agg_rows = aggregate_rows(&rows.docs, &query.aggregates, query.group_by.as_deref());
    AggResult {
        rows: agg_rows,
        postings_scanned: rows.postings_scanned,
        docs_scanned: rows.docs_scanned,
        payload_reads: rows.docs.len() as u64,
        blocks: rows.blocks,
        block_prune_ns: rows.block_prune_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_sql;
    use crate::xdriver::translate;
    use esdb_common::fastmap::fast_set;
    use esdb_common::{RecordId, TenantId};
    use esdb_index::SegmentBuilder;

    /// 200 docs: tenants 1..=4, times 1000+i, status i%3, group i%10,
    /// titles cycling, attrs on every 4th doc.
    fn build_segment() -> Segment {
        let schema = CollectionSchema::transaction_logs();
        let mut attrs = fast_set();
        attrs.insert("activity".to_string());
        let mut b = SegmentBuilder::new(schema, attrs);
        for i in 0..200u64 {
            let mut d = Document::builder(TenantId(1 + i % 4), RecordId(i), 1_000 + i)
                .field("status", (i % 3) as i64)
                .field("group", (i % 10) as i64)
                .field("province", if i % 2 == 0 { "zhejiang" } else { "jiangsu" })
                .field("amount", FieldValue::Float(i as f64 * 1.5))
                .field(
                    "auction_title",
                    format!(
                        "{} book vol {}",
                        if i % 2 == 0 { "rust" } else { "java" },
                        i
                    ),
                );
            if i % 4 == 0 {
                d = d.attr("activity", "1111").attr("size", "XL");
            }
            b.add(d.build());
        }
        b.refresh(1)
    }

    fn run(sql: &str, optimizer: bool) -> QueryRows {
        let seg = build_segment();
        let q = translate(parse_sql(sql).unwrap());
        execute_on_segments(
            &q,
            &CollectionSchema::transaction_logs(),
            &[&seg],
            QueryOptions {
                use_optimizer: optimizer,
                ..QueryOptions::default()
            },
        )
    }

    /// Both planners must agree with the reference semantics.
    fn check_against_reference(sql: &str) {
        let seg = build_segment();
        let q = translate(parse_sql(sql).unwrap());
        let expected: Vec<u64> = seg
            .live_docs()
            .filter(|(_, d)| q.filter.matches(d))
            .map(|(_, d)| d.record_id.raw())
            .collect();
        for optimizer in [true, false] {
            let rows = execute_on_segments(
                &q,
                &CollectionSchema::transaction_logs(),
                &[&seg],
                QueryOptions {
                    use_optimizer: optimizer,
                    ..QueryOptions::default()
                },
            );
            let mut got: Vec<u64> = rows.docs.iter().map(|d| d.record_id.raw()).collect();
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            assert_eq!(got, want, "optimizer={optimizer} sql={sql}");
        }
    }

    #[test]
    fn reference_queries_agree() {
        for sql in [
            "SELECT * FROM transaction_logs WHERE tenant_id = 1",
            "SELECT * FROM transaction_logs WHERE tenant_id = 2 AND status = 1",
            "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND created_time BETWEEN 1050 AND 1100",
            "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND created_time >= 1050 AND created_time <= 1150 AND status = 0 OR group = 7",
            "SELECT * FROM transaction_logs WHERE MATCH(auction_title, 'rust book')",
            "SELECT * FROM transaction_logs WHERE tenant_id IN (1, 3) AND group IN (2, 4)",
            "SELECT * FROM transaction_logs WHERE ATTR('activity') = '1111'",
            "SELECT * FROM transaction_logs WHERE ATTR('size') = 'XL' AND tenant_id = 1",
            "SELECT * FROM transaction_logs WHERE status != 2 AND tenant_id = 4",
            "SELECT * FROM transaction_logs WHERE amount > 100.0 AND amount <= 200.0",
            "SELECT * FROM transaction_logs WHERE province = 'zhejiang' AND status = 1",
            "SELECT * FROM transaction_logs WHERE created_time < 1010 OR created_time > 1190",
        ] {
            check_against_reference(sql);
        }
    }

    #[test]
    fn order_by_and_limit() {
        let rows = run(
            "SELECT * FROM transaction_logs WHERE tenant_id = 1 ORDER BY created_time DESC LIMIT 5",
            true,
        );
        assert_eq!(rows.docs.len(), 5);
        let times: Vec<u64> = rows.docs.iter().map(|d| d.created_at).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(times, sorted, "descending order");
        assert_eq!(times[0], 1_196, "latest doc of tenant 1");
    }

    #[test]
    fn optimizer_scans_fewer_postings() {
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 1 \
                   AND created_time BETWEEN 1000 AND 1020 AND status = 1";
        let opt = run(sql, true);
        let naive = run(sql, false);
        let opt_ids: Vec<u64> = opt.docs.iter().map(|d| d.record_id.raw()).collect();
        let naive_ids: Vec<u64> = naive.docs.iter().map(|d| d.record_id.raw()).collect();
        assert_eq!(opt_ids.len(), naive_ids.len());
        assert!(
            opt.postings_scanned < naive.postings_scanned,
            "optimizer {} vs naive {}",
            opt.postings_scanned,
            naive.postings_scanned
        );
    }

    #[test]
    fn multi_segment_execution() {
        let schema = CollectionSchema::transaction_logs();
        let mut b1 = SegmentBuilder::without_attr_index(schema.clone());
        let mut b2 = SegmentBuilder::without_attr_index(schema.clone());
        for i in 0..10u64 {
            b1.add(
                Document::builder(TenantId(1), RecordId(i), 1_000 + i)
                    .field("status", 1i64)
                    .build(),
            );
            b2.add(
                Document::builder(TenantId(1), RecordId(100 + i), 2_000 + i)
                    .field("status", 1i64)
                    .build(),
            );
        }
        let s1 = b1.refresh(1);
        let s2 = b2.refresh(2);
        let q = translate(
            parse_sql("SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 1").unwrap(),
        );
        let rows = execute_on_segments(&q, &schema, &[&s1, &s2], QueryOptions::default());
        assert_eq!(rows.docs.len(), 20);
    }

    #[test]
    fn attr_fallback_scan_when_not_indexed() {
        // "size" is not in the indexed-attr set, so the executor must scan
        // stored attrs — and still be exact.
        let rows = run(
            "SELECT * FROM transaction_logs WHERE ATTR('size') = 'XL'",
            true,
        );
        assert_eq!(rows.docs.len(), 50);
        assert!(rows.docs_scanned > 0, "fallback scanned stored docs");
    }

    #[test]
    fn attr_residual_served_by_index_scans_no_docs() {
        // Tenant 1 owns 50 docs. "activity" is frequency-indexed, so the
        // residual is a list read; "size" is not, so it scans all 50.
        let indexed = run(
            "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND ATTR('activity') = '1111'",
            true,
        );
        assert_eq!(indexed.docs.len(), 50);
        assert_eq!(indexed.docs_scanned, 0);
        let fallback = run(
            "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND ATTR('size') = 'XL'",
            true,
        );
        assert_eq!(fallback.docs.len(), 50);
        assert_eq!(fallback.docs_scanned, 50);
        assert!(indexed.postings_scanned > fallback.postings_scanned);
    }

    #[test]
    fn cached_execution_matches_uncached_across_tombstones() {
        let mut seg = build_segment();
        let schema = CollectionSchema::transaction_logs();
        let q = translate(
            parse_sql(
                "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 0 \
                 ORDER BY created_time ASC LIMIT 100",
            )
            .unwrap(),
        );
        let plan = optimize(&q.filter, &schema);
        let prepared = PreparedPlan::new(&plan);
        let cache = SegmentFilterCache::new(1 << 20);
        let ctx = FilterCacheContext {
            cache: &cache,
            shard: 0,
        };

        let plain = execute_plan_on_segments(&q, &plan, &[&seg]);
        let cold = execute_prepared_on_segments(&q, &prepared, &[&seg], Some(&ctx));
        // A cold pass does exactly the uncached work.
        assert_eq!(cold.docs, plain.docs);
        assert_eq!(cold.postings_scanned, plain.postings_scanned);
        assert_eq!(cold.docs_scanned, plain.docs_scanned);
        assert!(cache.stats().entries >= 1, "cacheable sub-plan stored");

        let warm = execute_prepared_on_segments(&q, &prepared, &[&seg], Some(&ctx));
        assert_eq!(warm.docs, plain.docs);
        assert!(cache.stats().hits >= 1, "warm pass must hit");

        // Tombstones landing *after* the entry was cached must be applied
        // on every subsequent hit.
        let victims: Vec<RecordId> = plain.docs.iter().take(3).map(|d| d.record_id).collect();
        assert_eq!(victims.len(), 3);
        for v in &victims {
            assert!(seg.delete_record(v.raw()));
        }
        let after = execute_prepared_on_segments(&q, &prepared, &[&seg], Some(&ctx));
        let plain_after = execute_plan_on_segments(&q, &plan, &[&seg]);
        assert_eq!(after.docs, plain_after.docs);
        assert_eq!(after.docs.len(), plain.docs.len() - 3);
        assert!(after.docs.iter().all(|d| !victims.contains(&d.record_id)));
    }

    #[test]
    fn prepared_without_cache_is_the_plain_path() {
        let seg = build_segment();
        let schema = CollectionSchema::transaction_logs();
        for sql in [
            "SELECT * FROM transaction_logs WHERE tenant_id = 2 AND group IN (1, 3, 5)",
            "SELECT * FROM transaction_logs WHERE status = 1 OR group = 2",
            "SELECT * FROM transaction_logs WHERE MATCH(auction_title, 'rust book')",
        ] {
            let q = translate(parse_sql(sql).unwrap());
            let plan = optimize(&q.filter, &schema);
            let prepared = PreparedPlan::new(&plan);
            let a = execute_plan_on_segments(&q, &plan, &[&seg]);
            let b = execute_prepared_on_segments(&q, &prepared, &[&seg], None);
            assert_eq!(a.docs, b.docs, "{sql}");
            assert_eq!(a.postings_scanned, b.postings_scanned, "{sql}");
            assert_eq!(a.docs_scanned, b.docs_scanned, "{sql}");
        }
    }

    /// Minimal snapshot view over owned segments, for block-path tests.
    struct TestView {
        segs: Vec<Arc<Segment>>,
    }

    impl SnapshotView for TestView {
        fn segments(&self) -> &[Arc<Segment>] {
            &self.segs
        }
        fn search_generation(&self) -> u64 {
            1
        }
    }

    fn test_view(segs: Vec<Segment>) -> TestView {
        TestView {
            segs: segs.into_iter().map(Arc::new).collect(),
        }
    }

    const BLOCK_CORPUS: &[&str] = &[
        "SELECT * FROM transaction_logs WHERE tenant_id = 1",
        "SELECT * FROM transaction_logs WHERE tenant_id = 2 AND status = 1",
        "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND created_time BETWEEN 1050 AND 1100",
        "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND created_time >= 1050 AND created_time <= 1150 AND status = 0 OR group = 7",
        "SELECT * FROM transaction_logs WHERE MATCH(auction_title, 'rust book')",
        "SELECT * FROM transaction_logs WHERE tenant_id IN (1, 3) AND group IN (2, 4)",
        "SELECT * FROM transaction_logs WHERE status != 2 AND tenant_id = 4",
        "SELECT * FROM transaction_logs WHERE amount > 100.0 AND amount <= 200.0",
        "SELECT * FROM transaction_logs WHERE province = 'zhejiang' AND status = 1",
        "SELECT * FROM transaction_logs WHERE tenant_id = 1 ORDER BY created_time DESC LIMIT 5",
        "SELECT * FROM transaction_logs WHERE status = 1 ORDER BY amount ASC LIMIT 17",
        "SELECT * FROM transaction_logs WHERE tenant_id = 2 LIMIT 9",
        "SELECT * FROM transaction_logs WHERE created_time < 1010 OR created_time > 1190",
    ];

    #[test]
    fn block_rows_match_scalar_exactly() {
        let view = test_view(vec![build_segment()]);
        let schema = CollectionSchema::transaction_logs();
        for sql in BLOCK_CORPUS {
            let q = translate(parse_sql(sql).unwrap());
            for use_optimizer in [true, false] {
                let opts = QueryOptions {
                    use_optimizer,
                    ..QueryOptions::default()
                };
                let scalar = execute_on_snapshot(&q, &schema, &view, opts);
                let block = execute_blocks_on_snapshot(&q, &schema, &view, opts);
                assert_eq!(scalar.docs, block.docs, "{sql} optimizer={use_optimizer}");
            }
        }
    }

    #[test]
    fn block_rows_match_scalar_with_tombstones() {
        let mut seg = build_segment();
        for r in [0u64, 3, 7, 50, 51, 52, 53, 199] {
            assert!(seg.delete_record(r));
        }
        let view = test_view(vec![seg]);
        let schema = CollectionSchema::transaction_logs();
        for sql in BLOCK_CORPUS {
            let q = translate(parse_sql(sql).unwrap());
            let scalar = execute_on_snapshot(&q, &schema, &view, QueryOptions::default());
            let block = execute_blocks_on_snapshot(&q, &schema, &view, QueryOptions::default());
            assert_eq!(scalar.docs, block.docs, "{sql}");
        }
    }

    #[test]
    fn cached_block_execution_matches_plain_block_execution() {
        let view = test_view(vec![build_segment()]);
        let schema = CollectionSchema::transaction_logs();
        let q = translate(
            parse_sql(
                "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 0 \
                 ORDER BY created_time ASC LIMIT 100",
            )
            .unwrap(),
        );
        let plan = optimize(&q.filter, &schema);
        let prepared = PreparedPlan::new(&plan);
        let cache = SegmentFilterCache::new(1 << 20);
        let ctx = FilterCacheContext {
            cache: &cache,
            shard: 0,
        };
        let plain = execute_blocks_on_snapshot(&q, &schema, &view, QueryOptions::default());
        let cold = execute_prepared_blocks_on_snapshot(&q, &prepared, &view, Some(&ctx));
        assert_eq!(cold.docs, plain.docs);
        let warm = execute_prepared_blocks_on_snapshot(&q, &prepared, &view, Some(&ctx));
        assert_eq!(warm.docs, plain.docs);
        assert!(cache.stats().hits >= 1, "warm pass must hit");
    }

    #[test]
    fn block_path_is_eligible_for_leaf_plans_only() {
        let schema = CollectionSchema::transaction_logs();
        let eligible = translate(
            parse_sql("SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 1").unwrap(),
        );
        assert!(block_eligible(&optimize(&eligible.filter, &schema)));
        // A NOT-over-OR style residual the optimizer cannot flatten keeps
        // nested booleans inside a scan predicate.
        let nested = Expr::And(vec![
            Expr::Eq("tenant_id".into(), FieldValue::Int(1)),
            Expr::Or(vec![
                Expr::And(vec![
                    Expr::Ne("status".into(), FieldValue::Int(1)),
                    Expr::Ne("status".into(), FieldValue::Int(2)),
                ]),
                Expr::Match("auction_title".into(), "rust".into()),
            ]),
        ]);
        let plan = optimize(&nested, &schema);
        // Whatever shape the optimizer picks, eligibility must agree with
        // the structural rule (no nested boolean residuals).
        fn has_nested_residual(p: &Plan) -> bool {
            match p {
                Plan::ScanFilter { input, predicates } => {
                    predicates
                        .iter()
                        .any(|e| matches!(e, Expr::And(_) | Expr::Or(_)))
                        || has_nested_residual(input)
                }
                Plan::IndexPredicate(e) => matches!(e, Expr::And(_) | Expr::Or(_)),
                Plan::Intersect(ps) | Plan::Union(ps) => ps.iter().any(has_nested_residual),
                _ => false,
            }
        }
        assert_eq!(block_eligible(&plan), !has_nested_residual(&plan));
    }

    #[test]
    fn aggregation_pushdown_matches_scalar_oracle_with_zero_payload_reads() {
        let view = test_view(vec![build_segment()]);
        let schema = CollectionSchema::transaction_logs();
        for sql in [
            "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 1",
            "SELECT COUNT(*), SUM(group), MIN(amount), MAX(created_time), AVG(status) \
             FROM transaction_logs WHERE tenant_id = 1 AND status = 1",
            "SELECT COUNT(amount), SUM(amount) FROM transaction_logs \
             WHERE created_time BETWEEN 1050 AND 1150",
            "SELECT COUNT(*), SUM(group) FROM transaction_logs \
             WHERE tenant_id = 2 GROUP BY status",
            "SELECT COUNT(*), MIN(created_time), MAX(amount) FROM transaction_logs \
             WHERE tenant_id = 9999",
            "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 3 GROUP BY province",
        ] {
            let q = translate(parse_sql(sql).unwrap());
            assert!(aggregate_pushdown_eligible(&q, &schema), "{sql}");
            let oracle = aggregate_scalar_on_snapshot(&q, &schema, &view, QueryOptions::default());
            let partials =
                aggregate_blocks_on_snapshot(&q, &schema, &view, QueryOptions::default());
            assert_eq!(partials.payload_reads, 0, "{sql}: pushdown read payloads");
            let got = partials.finish(&q.aggregates, q.group_by.is_some());
            assert_eq!(got.rows, oracle.rows, "{sql}");
            assert!(
                oracle.payload_reads > 0 || oracle.rows[0].values[0] == FieldValue::Int(0),
                "{sql}: scalar oracle materializes rows"
            );
        }
    }

    #[test]
    fn aggregation_pushdown_matches_oracle_under_tombstones() {
        let mut seg = build_segment();
        for r in (0..200u64).step_by(3) {
            assert!(seg.delete_record(r));
        }
        let view = test_view(vec![seg, build_segment_offset(200)]);
        let schema = CollectionSchema::transaction_logs();
        let q = translate(
            parse_sql(
                "SELECT COUNT(*), SUM(group), MIN(created_time), MAX(created_time) \
                 FROM transaction_logs WHERE tenant_id = 1 GROUP BY status",
            )
            .unwrap(),
        );
        let oracle = aggregate_scalar_on_snapshot(&q, &schema, &view, QueryOptions::default());
        let partials = aggregate_blocks_on_snapshot(&q, &schema, &view, QueryOptions::default());
        assert_eq!(partials.payload_reads, 0);
        let got = partials.finish(&q.aggregates, true);
        assert_eq!(got.rows, oracle.rows);
    }

    /// Like [`build_segment`] but with record ids / times offset, to model
    /// a second segment.
    fn build_segment_offset(base: u64) -> Segment {
        let schema = CollectionSchema::transaction_logs();
        let mut b = SegmentBuilder::without_attr_index(schema);
        for i in 0..100u64 {
            b.add(
                Document::builder(TenantId(1 + i % 4), RecordId(base + i), 1_000 + base + i)
                    .field("status", (i % 3) as i64)
                    .field("group", (i % 10) as i64)
                    .build(),
            );
        }
        b.refresh(2)
    }

    #[test]
    fn bool_columns_are_not_pushdown_eligible() {
        let schema = CollectionSchema::builder("t")
            .field("flag", esdb_doc::FieldType::Bool, true, true)
            .field("v", esdb_doc::FieldType::Long, true, true)
            .build();
        let q = translate(parse_sql("SELECT SUM(flag) FROM t").unwrap());
        assert!(!aggregate_pushdown_eligible(&q, &schema));
        let q2 = translate(parse_sql("SELECT SUM(v) FROM t").unwrap());
        assert!(aggregate_pushdown_eligible(&q2, &schema));
        let q3 = translate(parse_sql("SELECT COUNT(*) FROM t GROUP BY flag").unwrap());
        assert!(!aggregate_pushdown_eligible(&q3, &schema));
    }
}
