//! Full transaction-log document generation for the real-engine
//! experiments (Fig. 17/18).
//!
//! Mirrors the paper's simulated rows: structured columns (status, group,
//! buyer, amount, province, full-text auction title) plus an "attributes"
//! column whose ~1500 sub-attribute names are sampled from Zipf(θ=1) —
//! "top 30 sub-attributes appear in about 50% of both write and query
//! workloads" (§6.3.3). Each row samples `attrs_per_doc` sub-attributes
//! (the paper uses 20).

use crate::trace::WriteEvent;
use esdb_common::zipf::ZipfSampler;
use esdb_doc::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PROVINCES: &[&str] = &[
    "zhejiang",
    "jiangsu",
    "guangdong",
    "shanghai",
    "beijing",
    "sichuan",
    "fujian",
    "shandong",
];

const TITLE_WORDS: &[&str] = &[
    "rust",
    "java",
    "python",
    "book",
    "hardcover",
    "phone",
    "case",
    "shirt",
    "cotton",
    "shoes",
    "running",
    "coffee",
    "beans",
    "organic",
    "laptop",
    "stand",
    "aluminum",
    "lamp",
    "desk",
    "usb",
    "cable",
    "fast",
    "charging",
    "notebook",
    "paper",
    "pen",
    "set",
    "gift",
    "box",
    "watch",
    "strap",
    "leather",
    "bag",
    "travel",
    "bottle",
    "thermal",
    "snack",
    "spicy",
];

/// Materializes documents from [`WriteEvent`]s.
#[derive(Debug)]
pub struct DocGenerator {
    rng: StdRng,
    attr_zipf: ZipfSampler,
    attrs_per_doc: usize,
}

impl DocGenerator {
    /// Generator with `n_attrs` distinct sub-attribute names (paper: 1500),
    /// `attrs_per_doc` sampled per row (paper: 20), Zipf(θ=1).
    pub fn new(n_attrs: usize, attrs_per_doc: usize, seed: u64) -> Self {
        DocGenerator {
            rng: StdRng::seed_from_u64(seed),
            attr_zipf: ZipfSampler::new(n_attrs, 1.0),
            attrs_per_doc,
        }
    }

    /// The canonical name of sub-attribute rank `r` (1-based).
    pub(crate) fn attr_name(rank: usize) -> String {
        format!("attr_{rank:04}")
    }

    /// Samples a sub-attribute name from the Zipf popularity distribution
    /// (used for both writes and query filters, matching §6.3.3).
    pub(crate) fn sample_attr_name(&mut self) -> String {
        Self::attr_name(self.attr_zipf.sample(&mut self.rng))
    }

    /// Builds the full document for a write event.
    pub fn materialize(&mut self, ev: &WriteEvent) -> Document {
        let n_title = self.rng.random_range(3..8);
        let mut title = String::new();
        for i in 0..n_title {
            if i > 0 {
                title.push(' ');
            }
            title.push_str(TITLE_WORDS[self.rng.random_range(0..TITLE_WORDS.len())]);
        }
        let mut b = Document::builder(ev.tenant, ev.record, ev.created_at)
            .field("status", self.rng.random_range(0..3) as i64)
            .field("group", self.rng.random_range(0..1_000) as i64)
            .field("buyer_id", self.rng.random_range(0..1_000_000) as i64)
            .field(
                "amount",
                esdb_doc::FieldValue::Float((self.rng.random_range(100..1_000_000) as f64) / 100.0),
            )
            .field(
                "province",
                PROVINCES[self.rng.random_range(0..PROVINCES.len())],
            )
            .field("auction_title", title);
        for _ in 0..self.attrs_per_doc {
            let name = self.sample_attr_name();
            let value = format!("v{}", self.rng.random_range(0..16));
            b = b.attr(name, value);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};

    fn ev(r: u64) -> WriteEvent {
        WriteEvent {
            tenant: TenantId(7),
            record: RecordId(r),
            created_at: 1_000 + r,
            bytes: 512,
        }
    }

    #[test]
    fn documents_follow_template() {
        let mut g = DocGenerator::new(1_500, 20, 1);
        let d = g.materialize(&ev(1));
        assert_eq!(d.tenant_id, TenantId(7));
        assert!(d.get("status").is_some());
        assert!(d.get("auction_title").is_some());
        assert_eq!(d.attrs().len(), 20);
    }

    #[test]
    fn attr_popularity_is_skewed() {
        let mut g = DocGenerator::new(1_500, 1, 2);
        let mut top30 = 0usize;
        const N: usize = 20_000;
        for i in 0..N {
            let d = g.materialize(&ev(i as u64));
            let name = &d.attrs()[0].0;
            let rank: usize = name.trim_start_matches("attr_").parse().unwrap();
            if rank <= 30 {
                top30 += 1;
            }
        }
        let share = top30 as f64 / N as f64;
        // Paper: top 30 of 1500 cover ~50% under Zipf(1).
        assert!(share > 0.4 && share < 0.62, "top-30 share {share}");
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = DocGenerator::new(100, 5, 42);
        let mut b = DocGenerator::new(100, 5, 42);
        assert_eq!(a.materialize(&ev(1)), b.materialize(&ev(1)));
    }
}
