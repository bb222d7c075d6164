//! The query engine: SQL front-end, Xdriver4ES translation, rule-based
//! optimization, and execution over segments (paper §3.1, §5.1).
//!
//! Pipeline:
//!
//! ```text
//! SQL text ──sql──▶ Expr AST ──xdriver──▶ normalized AST (CNF/DNF
//!   conversion + predicate merge, §3.1) ──optimizer──▶ physical plan
//!   (composite index / sequential scan / single-column index, §5.1)
//!   ──executor──▶ per-segment posting lists ──▶ rows
//!   ──aggregate──▶ cross-shard merge (global sort / top-k / LIMIT)
//! ```
//!
//! The `naive` module reproduces the *unoptimized* Lucene plan of Fig. 7
//! (one index search per predicate, then intersect/union) — the baseline of
//! the Fig. 17 experiment.

pub mod aggregate;
pub mod ast;
pub mod datetime;
pub mod executor;
pub mod mapping;
pub mod naive;
pub mod optimizer;
pub mod plan;
pub mod sql;
pub mod xdriver;

pub use aggregate::{
    aggregate, aggregate_rows, merge_results, AggFunc, AggPartials, AggResult, AggRow,
};
pub use ast::{Bound, Expr, OrderBy, Query};
pub use executor::{
    aggregate_blocks_on_snapshot, aggregate_prepared_blocks_on_snapshot,
    aggregate_pushdown_eligible, aggregate_scalar_on_snapshot, block_eligible,
    execute_blocks_on_snapshot, execute_on_segments, execute_on_snapshot,
    execute_prepared_blocks_on_snapshot, execute_prepared_on_snapshot, FilterCacheContext,
    PreparedPlan, QueryOptions, QueryRows, SegmentFilterCache,
};
pub use optimizer::optimize;
pub use plan::{query_fingerprint, Plan};
pub use sql::parse_sql;
pub use xdriver::translate;
