//! Posting lists and their algebra.
//!
//! A posting list is a strictly-increasing sequence of segment-local doc
//! IDs, stored as fixed `BLOCK_SIZE`-entry blocks with per-block max
//! skip data (the block min is the block's first entry, so min/max are
//! both O(1)). Query plans (paper Fig. 7/8) are trees of intersections
//! and unions over posting lists; their cost is dominated by list
//! lengths, which is exactly the overhead the paper's optimizer attacks.
//! The algebra here works block-at-a-time: skip data prunes whole blocks
//! before any element is compared, galloping search handles heavily
//! skewed size ratios, and unions merge k-way instead of pairwise.

use crate::segment::DocId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Entries per posting block. Chosen to keep one block of doc ids (512 B)
/// plus its decoded column values inside L1 while amortizing the per-block
/// skip probe over enough elements to matter.
pub(crate) const BLOCK_SIZE: usize = 128;

/// Work counters for block-wise set operations: how many blocks had their
/// elements examined (`scanned`), were jumped over via skip data without
/// touching any element (`skipped`), or were dropped wholesale from an
/// intersection by a min/max disjointness test (`pruned`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks whose elements were individually examined.
    pub scanned: u64,
    /// Blocks jumped over via skip data (no element touched).
    pub skipped: u64,
    /// Blocks resolved wholesale by the min/max disjointness test.
    pub pruned: u64,
}

impl BlockStats {
    /// Accumulates another operation's counters into this one.
    pub fn merge(&mut self, other: &BlockStats) {
        self.scanned += other.scanned;
        self.skipped += other.skipped;
        self.pruned += other.pruned;
    }
}

/// A borrowed view of one posting block: at most `BLOCK_SIZE` strictly
/// increasing doc ids. Blocks handed out by [`PostingList::blocks`] are
/// never empty, so `min`/`max` are total.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    ids: &'a [DocId],
}

impl<'a> BlockView<'a> {
    /// The ids of this block, strictly increasing.
    pub fn ids(&self) -> &'a [DocId] {
        self.ids
    }

    /// Smallest id in the block.
    pub(crate) fn min(&self) -> DocId {
        self.ids[0]
    }

    /// Largest id in the block.
    pub(crate) fn max(&self) -> DocId {
        self.ids[self.ids.len() - 1]
    }
}

/// A sorted, deduplicated list of doc IDs in fixed-size blocks.
///
/// ```
/// use esdb_index::PostingList;
///
/// let a = PostingList::from_unsorted(vec![3, 1, 2]);
/// let b = PostingList::from_unsorted(vec![2, 3, 4]);
/// assert_eq!(a.intersect(&b).ids(), &[2, 3]);
/// assert_eq!(a.union(&b).ids(), &[1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostingList {
    ids: Vec<DocId>,
    /// Per-block skip data: `skip[b]` is the largest id in block `b`
    /// (derived from `ids`, maintained on every mutation).
    skip: Vec<DocId>,
}

fn build_skip(ids: &[DocId]) -> Vec<DocId> {
    ids.chunks(BLOCK_SIZE).map(|c| c[c.len() - 1]).collect()
}

impl PostingList {
    /// The empty list.
    pub fn new() -> Self {
        PostingList {
            ids: Vec::new(),
            skip: Vec::new(),
        }
    }

    /// Builds from a vector that is already sorted and unique
    /// (debug-asserted).
    pub fn from_sorted(ids: Vec<DocId>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly increasing"
        );
        let skip = build_skip(&ids);
        PostingList { ids, skip }
    }

    /// Builds from arbitrary ids (sorts + dedups).
    pub fn from_unsorted(mut ids: Vec<DocId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        let skip = build_skip(&ids);
        PostingList { ids, skip }
    }

    /// Internal: wraps an output vector that is sorted-unique by
    /// construction.
    fn from_sorted_vec(ids: Vec<DocId>) -> Self {
        let skip = build_skip(&ids);
        PostingList { ids, skip }
    }

    /// Appends an id that must be larger than the current tail (index
    /// build path). Skip data is maintained incrementally.
    pub fn push(&mut self, id: DocId) {
        debug_assert!(self.ids.last().map_or(true, |&l| l < id));
        self.ids.push(id);
        if (self.ids.len() - 1) % BLOCK_SIZE == 0 {
            self.skip.push(id);
        } else {
            *self.skip.last_mut().expect("skip tracks last block") = id;
        }
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The raw sorted ids.
    pub fn ids(&self) -> &[DocId] {
        &self.ids
    }

    /// Number of blocks (`len` divided by [`BLOCK_SIZE`], rounded up).
    pub(crate) fn num_blocks(&self) -> usize {
        self.skip.len()
    }

    /// The `b`-th block (never empty for `b < num_blocks()`).
    pub(crate) fn block(&self, b: usize) -> BlockView<'_> {
        let start = b * BLOCK_SIZE;
        let end = ((b + 1) * BLOCK_SIZE).min(self.ids.len());
        BlockView {
            ids: &self.ids[start..end],
        }
    }

    /// Iterates the list block-at-a-time.
    pub fn blocks(&self) -> impl Iterator<Item = BlockView<'_>> {
        self.ids.chunks(BLOCK_SIZE).map(|c| BlockView { ids: c })
    }

    /// Iterates doc ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        self.ids.iter().copied()
    }

    /// Intersection. See `PostingList::intersect_stats`.
    pub fn intersect(&self, other: &PostingList) -> PostingList {
        self.intersect_stats(other, &mut BlockStats::default())
    }

    /// Block-at-a-time intersection: walks the smaller list block-by-block,
    /// jumps the larger list's cursor forward whole blocks via skip data,
    /// drops blocks whose [min, max] window is disjoint from the remaining
    /// candidates, and only then compares elements — galloping into the
    /// large list when the size ratio is heavily skewed (the common case
    /// when one predicate is much more selective, which is what composite
    /// indexes produce).
    pub(crate) fn intersect_stats(
        &self,
        other: &PostingList,
        stats: &mut BlockStats,
    ) -> PostingList {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.is_empty() || large.is_empty() {
            return PostingList::new();
        }
        let gallop = large.len() / small.len() >= 8;
        let mut out = Vec::with_capacity(small.len());
        let llen = large.ids.len();
        let mut lo = 0usize; // cursor into large.ids
        for sb in 0..small.num_blocks() {
            if lo >= llen {
                break;
            }
            let blk = small.block(sb);
            let (smin, smax) = (blk.min(), blk.max());
            // Skip whole blocks of `large` whose max is below this block's
            // min: one probe per skipped block, zero element comparisons.
            let lb = lo / BLOCK_SIZE;
            if large.skip[lb] < smin {
                let nlb = lb + large.skip[lb..].partition_point(|&m| m < smin);
                stats.skipped += (nlb - lb) as u64;
                lo = nlb * BLOCK_SIZE;
                if lo >= llen {
                    break;
                }
            }
            // Disjoint windows: everything remaining in `large` is above
            // this block's max, so the whole block is dropped unexamined.
            if large.ids[lo] > smax {
                stats.pruned += 1;
                continue;
            }
            stats.scanned += 1;
            if gallop {
                // Galloping: for each id in the small block, exponential +
                // binary search in the large list from the cursor.
                for &id in blk.ids() {
                    let mut step = 1usize;
                    let mut hi = lo;
                    while hi < llen && large.ids[hi] < id {
                        lo = hi;
                        hi = (hi + step).min(llen);
                        step *= 2;
                    }
                    // The match may sit at `hi` itself (the probe that
                    // stopped the gallop) or at `lo` (carried over from the
                    // previous iteration), so search the inclusive range
                    // [lo, hi].
                    let end = if hi < llen { hi + 1 } else { llen };
                    match large.ids[lo..end].binary_search(&id) {
                        Ok(i) => {
                            out.push(id);
                            lo += i + 1;
                        }
                        Err(i) => lo += i,
                    }
                    if lo >= llen {
                        break;
                    }
                }
            } else {
                // Linear merge within the overlapping window.
                let ids = blk.ids();
                let mut i = 0usize;
                while i < ids.len() && lo < llen {
                    match ids[i].cmp(&large.ids[lo]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => lo += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(ids[i]);
                            i += 1;
                            lo += 1;
                        }
                    }
                }
            }
        }
        PostingList::from_sorted_vec(out)
    }

    /// Union by linear merge.
    pub fn union(&self, other: &PostingList) -> PostingList {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        PostingList::from_sorted_vec(out)
    }

    /// K-way intersection, smallest lists first (the optimizer's ordering).
    pub fn intersect_many(lists: &[&PostingList]) -> PostingList {
        Self::intersect_many_stats(lists, &mut BlockStats::default())
    }

    /// K-way block-wise intersection with work counters.
    ///
    /// Sorting ascending by length bounds every intermediate result by the
    /// smallest input and keeps skip pruning + galloping effective; any
    /// empty input short-circuits the whole fold, and the first pairwise
    /// intersection avoids cloning the smallest list outright.
    pub fn intersect_many_stats(lists: &[&PostingList], stats: &mut BlockStats) -> PostingList {
        match lists.len() {
            0 => PostingList::new(),
            1 => lists[0].clone(),
            _ => {
                if lists.iter().any(|l| l.is_empty()) {
                    return PostingList::new();
                }
                let mut order: Vec<&&PostingList> = lists.iter().collect();
                order.sort_unstable_by_key(|l| l.len());
                let mut acc = order[0].intersect_stats(order[1], stats);
                for l in &order[2..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc = acc.intersect_stats(l, stats);
                }
                acc
            }
        }
    }

    /// K-way union. See [`PostingList::union_many_stats`].
    pub fn union_many(lists: &[&PostingList]) -> PostingList {
        Self::union_many_stats(lists, &mut BlockStats::default())
    }

    /// K-way union by a single heap merge over all sorted inputs.
    ///
    /// One output vector is allocated up front and every input element is
    /// visited exactly once (O(n log k)), unlike a pairwise fold that
    /// re-allocates and re-copies intermediate unions on high-fan-in OR
    /// plans. When only one source remains its tail is copied wholesale.
    pub fn union_many_stats(lists: &[&PostingList], stats: &mut BlockStats) -> PostingList {
        match lists.len() {
            0 => PostingList::new(),
            1 => lists[0].clone(),
            2 => {
                stats.scanned += (lists[0].num_blocks() + lists[1].num_blocks()) as u64;
                lists[0].union(lists[1])
            }
            _ => {
                let mut pos = vec![0usize; lists.len()];
                let mut heap: BinaryHeap<Reverse<(DocId, usize)>> = lists
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.is_empty())
                    .map(|(i, l)| Reverse((l.ids[0], i)))
                    .collect();
                stats.scanned += lists.iter().map(|l| l.num_blocks() as u64).sum::<u64>();
                let mut out = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
                while let Some(Reverse((id, li))) = heap.pop() {
                    if out.last() != Some(&id) {
                        out.push(id);
                    }
                    pos[li] += 1;
                    if heap.is_empty() {
                        // Single remaining source: its tail is already
                        // sorted and above everything emitted.
                        let tail = &lists[li].ids[pos[li]..];
                        if let Some(&first) = tail.first() {
                            if out.last() == Some(&first) {
                                out.extend_from_slice(&tail[1..]);
                            } else {
                                out.extend_from_slice(tail);
                            }
                        }
                        break;
                    }
                    if let Some(&next) = lists[li].ids.get(pos[li]) {
                        heap.push(Reverse((next, li)));
                    }
                }
                PostingList::from_sorted_vec(out)
            }
        }
    }
}

impl FromIterator<DocId> for PostingList {
    fn from_iter<T: IntoIterator<Item = DocId>>(iter: T) -> Self {
        PostingList::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn pl(ids: &[u32]) -> PostingList {
        PostingList::from_unsorted(ids.to_vec())
    }

    #[test]
    fn basic_algebra() {
        let a = pl(&[1, 2, 3, 4]);
        let b = pl(&[2, 3, 4, 5]);
        assert_eq!(a.intersect(&b), pl(&[2, 3, 4]));
        assert_eq!(a.union(&b), pl(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn paper_fig7_example() {
        // A∩B∩C = D, D∪E = F from the paper's Lucene plan example.
        let a = pl(&[1, 2, 3, 4]);
        let b = pl(&[2, 3, 4, 5]);
        let c = pl(&[3, 4, 5]);
        let d = PostingList::intersect_many(&[&a, &b, &c]);
        assert_eq!(d, pl(&[3, 4]));
        let e = pl(&[6]);
        assert_eq!(d.union(&e), pl(&[3, 4, 6]));
    }

    #[test]
    fn intersect_many_orders_by_length_and_short_circuits() {
        // Inputs deliberately given largest-first: the result must be
        // independent of input order.
        let large = PostingList::from_sorted((0..10_000).collect());
        let mid = pl(&[5, 50, 500, 5_000]);
        let small = pl(&[50, 5_000]);
        let fwd = PostingList::intersect_many(&[&large, &mid, &small]);
        let rev = PostingList::intersect_many(&[&small, &mid, &large]);
        assert_eq!(fwd, pl(&[50, 5_000]));
        assert_eq!(fwd, rev);
        // Any empty input empties the whole intersection immediately.
        let empty = PostingList::new();
        assert!(PostingList::intersect_many(&[&large, &empty, &mid]).is_empty());
    }

    #[test]
    fn galloping_path_exercised() {
        let small = pl(&[100, 5_000, 99_999]);
        let large = PostingList::from_sorted((0..100_000).collect());
        assert_eq!(small.intersect(&large), small);
        let missing = pl(&[200_000]);
        assert!(missing.intersect(&large).is_empty());
    }

    #[test]
    fn empty_interactions() {
        let e = PostingList::new();
        let a = pl(&[1, 2]);
        assert!(e.intersect(&a).is_empty());
        assert_eq!(e.union(&a), a);
        assert!(PostingList::intersect_many(&[]).is_empty());
        assert!(PostingList::union_many(&[]).is_empty());
    }

    #[test]
    fn block_layout_and_skip_data() {
        // 300 ids → 3 blocks: 128 + 128 + 44.
        let ids: Vec<u32> = (0..300).map(|i| i * 3).collect();
        let p = PostingList::from_sorted(ids.clone());
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.block(0).ids().len(), BLOCK_SIZE);
        assert_eq!(p.block(2).ids().len(), 300 - 2 * BLOCK_SIZE);
        assert_eq!(p.block(0).min(), 0);
        assert_eq!(p.block(0).max(), 127 * 3);
        assert_eq!(p.skip[0], 127 * 3);
        assert_eq!(p.skip[2], 299 * 3);
        let rebuilt: Vec<u32> = p.blocks().flat_map(|b| b.ids().to_vec()).collect();
        assert_eq!(rebuilt, ids);
    }

    #[test]
    fn push_maintains_skip_data() {
        let mut p = PostingList::new();
        for i in 0..=BLOCK_SIZE as u32 {
            p.push(i * 2);
        }
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.skip[0], (BLOCK_SIZE as u32 - 1) * 2);
        assert_eq!(p.skip[1], BLOCK_SIZE as u32 * 2);
        // Equivalent to a bulk build.
        assert_eq!(
            p,
            PostingList::from_sorted((0..=BLOCK_SIZE as u32).map(|i| i * 2).collect())
        );
    }

    #[test]
    fn intersect_skip_counters() {
        // Small list hits only the far end of the large list: every large
        // block below it must be skipped via skip data, not scanned.
        let large = PostingList::from_sorted((0..10_000).collect());
        let small = pl(&[9_990, 9_995]);
        let mut stats = BlockStats::default();
        let got = small.intersect_stats(&large, &mut stats);
        assert_eq!(got, small);
        assert!(stats.skipped > 70, "skipped {} blocks", stats.skipped);
        assert!(stats.scanned <= 2);
    }

    #[test]
    fn intersect_prunes_disjoint_blocks() {
        // Disjoint windows: small sits entirely below large's first id.
        let small = PostingList::from_sorted((0..256).collect());
        let large = PostingList::from_sorted((100_000..100_256).collect());
        let mut stats = BlockStats::default();
        assert!(small.intersect_stats(&large, &mut stats).is_empty());
        assert_eq!(stats.pruned, 2, "both small blocks pruned");
        assert_eq!(stats.scanned, 0);
    }

    #[test]
    fn union_many_high_fan_in() {
        // 16-way union with interleaved ids exercises the heap path.
        let lists: Vec<PostingList> = (0..16u32)
            .map(|k| PostingList::from_sorted((0..200).map(|i| i * 16 + k).collect()))
            .collect();
        let refs: Vec<&PostingList> = lists.iter().collect();
        let got = PostingList::union_many(&refs);
        assert_eq!(got.len(), 3_200);
        assert_eq!(got.ids()[0], 0);
        assert_eq!(*got.ids().last().unwrap(), 199 * 16 + 15);
        assert!(got.ids().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_many_tail_copy_dedups_boundary() {
        // The last id popped from the heap equals the head of the sole
        // remaining source's tail: the wholesale copy must not duplicate it.
        let a = pl(&[1, 5]);
        let b = pl(&[2, 3]);
        let c = pl(&[5, 6, 7]);
        let got = PostingList::union_many(&[&a, &b, &c]);
        assert_eq!(got.ids(), &[1, 2, 3, 5, 6, 7]);
    }

    fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..500, 0..200)
    }

    proptest! {
        #[test]
        fn prop_intersect_matches_sets(a in arb_ids(), b in arb_ids()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.intersection(&sb).copied().collect();
            let got = pl(&a).intersect(&pl(&b));
            prop_assert_eq!(got.ids(), expect.as_slice());
        }

        #[test]
        fn prop_union_matches_sets(a in arb_ids(), b in arb_ids()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.union(&sb).copied().collect();
            let got = pl(&a).union(&pl(&b));
            prop_assert_eq!(got.ids(), expect.as_slice());
        }

        #[test]
        fn prop_many_way_ops(lists in proptest::collection::vec(arb_ids(), 1..6)) {
            let pls: Vec<PostingList> = lists.iter().map(|l| pl(l)).collect();
            let refs: Vec<&PostingList> = pls.iter().collect();
            let mut inter: BTreeSet<u32> = lists[0].iter().copied().collect();
            let mut uni: BTreeSet<u32> = BTreeSet::new();
            for l in &lists {
                let s: BTreeSet<u32> = l.iter().copied().collect();
                inter = inter.intersection(&s).copied().collect();
                uni.extend(s);
            }
            let iv: Vec<u32> = inter.into_iter().collect();
            let uv: Vec<u32> = uni.into_iter().collect();
            let gi = PostingList::intersect_many(&refs);
            prop_assert_eq!(gi.ids(), iv.as_slice());
            let gu = PostingList::union_many(&refs);
            prop_assert_eq!(gu.ids(), uv.as_slice());
        }

        #[test]
        fn prop_skip_data_is_consistent(a in arb_ids()) {
            let p = pl(&a);
            for (b, blk) in p.blocks().enumerate() {
                prop_assert_eq!(p.skip[b], blk.max());
                prop_assert_eq!(p.block(b).ids(), blk.ids());
            }
            prop_assert_eq!(p.num_blocks(), p.len().div_ceil(BLOCK_SIZE));
        }

        #[test]
        fn prop_push_equals_bulk_build(a in arb_ids()) {
            let bulk = pl(&a);
            let mut inc = PostingList::new();
            for id in bulk.iter() {
                inc.push(id);
            }
            prop_assert_eq!(inc, bulk);
        }
    }
}
