//! The Lucene-like indexing substrate of ESDB-RS.
//!
//! ESDB is built on Elasticsearch/Lucene (paper §2.1); this crate is the
//! from-scratch Rust equivalent of the slice of Lucene the paper relies on:
//!
//! * [`analyzer`] — text analysis for full-text fields (the capability that
//!   motivated the move away from MySQL, §1).
//! * [`postings`] — sorted-doc-id posting lists and the intersect/union
//!   algebra that query plans are made of (Fig. 7/8).
//! * [`segment`] — immutable segments: stored documents, per-field
//!   inverted and numeric indexes, columnar *doc values* (used by the
//!   sequential-scan access path, §5.1), composite indexes (1-D BKD-style
//!   over order-preserving concatenated keys with common-prefix
//!   compression, §5.1), and frequency-based sub-attribute indexes (§3.2).
//! * [`builder`] — the in-memory indexing buffer that `refresh` turns into
//!   a segment (§3.3 "near real-time search").
//! * [`merge`] — tiered segment merging (§3.3 "segment merge").
//! * [`freq`] — the sub-attribute frequency tracker driving
//!   frequency-based indexing (§6.3.3: index only the top-k of ~1500
//!   sub-attributes).

pub mod analyzer;
pub mod builder;
pub mod freq;
pub mod merge;
pub mod postings;
pub mod segment;
pub mod snapshot;

pub use analyzer::Analyzer;
pub use builder::SegmentBuilder;
pub use freq::AttrFrequencyTracker;
pub use merge::{MergePolicy, TieredMergePolicy};
pub use postings::{BlockStats, BlockView, PostingList};
pub use segment::{ColumnValues, DocId, Segment, SegmentId};
pub use snapshot::SnapshotView;
