//! `CheckHotSpot` and `ComputeOffsetSize` (paper Algorithm 1, lines 8/16/17).
//!
//! The paper leaves both as deployment-tuned functions; this module encodes
//! the policy the rest of the repo (and the figure harness) is calibrated
//! with:
//!
//! * a tenant is *hot* when its throughput proportion exceeds a multiple of
//!   the fair share `1/N_nodes` (a tenant confined to one shard saturates
//!   its node once it exceeds roughly one node's worth of the cluster),
//! * the offset dilutes the tenant back to fair share:
//!   `s ≈ r · N_shards · headroom`, rounded **up to a power of two** (§4.2)
//!   and clamped to `[1, max_offset]`.

/// Offset policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct OffsetPolicy {
    /// Total shards `N`.
    pub shard_count: u32,
    /// A tenant is a hotspot when `r > hot_factor / node_count`
    /// (`CheckHotSpot`).
    pub hot_factor: f64,
    /// Worker node count (sets the fair-share scale).
    pub node_count: u32,
    /// Dilution headroom: >1 spreads hot tenants slightly wider than fair
    /// share so a rule survives moderate growth without re-proposal.
    pub headroom: f64,
    /// Upper bound on `s` (≤ shard_count). With consecutive shards placed
    /// on consecutive nodes, a span of `2·n_nodes` already covers every
    /// node twice; wider spreads only add query fan-out (§4.1's trade-off,
    /// and Fig. 4 shows spans up to 16).
    pub max_offset: u32,
}

impl OffsetPolicy {
    /// Policy for an `n_shards`-shard, `n_nodes`-node cluster with the
    /// defaults used by the figure harness.
    pub(crate) fn new(n_shards: u32, n_nodes: u32) -> Self {
        assert!(n_shards > 0 && n_nodes > 0);
        OffsetPolicy {
            shard_count: n_shards,
            hot_factor: 0.1,
            node_count: n_nodes,
            headroom: 1.5,
            max_offset: (2 * n_nodes).max(8).min(n_shards),
        }
    }

    /// `CheckHotSpot(r)`: is a tenant with throughput/storage proportion
    /// `r` a hotspot?
    pub(crate) fn check_hotspot(&self, r: f64) -> bool {
        r > self.hot_factor / self.node_count as f64
    }

    /// `ComputeOffsetSize(r)`: the power-of-two offset for proportion `r`.
    pub(crate) fn compute_offset_size(&self, r: f64) -> u32 {
        if r.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 1;
        }
        let ideal = (r * self.shard_count as f64 * self.headroom).ceil();
        let ideal = ideal.clamp(1.0, self.max_offset as f64) as u32;
        ideal.next_power_of_two().min(self.max_offset.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn policy() -> OffsetPolicy {
        OffsetPolicy::new(512, 8)
    }

    #[test]
    fn hotspot_threshold_scales_with_nodes() {
        let p = policy();
        // Fair share per node is 1/8; hot_factor 0.1 → threshold 1/80.
        // (Calibrated against Fig. 13d: tenants above ~1% of traffic must
        // split for shard sizes to flatten the way the paper reports.)
        assert!(!p.check_hotspot(0.01));
        assert!(p.check_hotspot(0.02));
    }

    #[test]
    fn offsets_are_powers_of_two() {
        let p = policy();
        for r in [0.001, 0.01, 0.02, 0.05, 0.1, 0.3, 0.9] {
            let s = p.compute_offset_size(r);
            assert!(s.is_power_of_two(), "s={s} for r={r}");
            assert!(s >= 1 && s <= p.max_offset);
        }
    }

    #[test]
    fn offset_grows_with_proportion() {
        let p = policy();
        assert!(p.compute_offset_size(0.10) >= p.compute_offset_size(0.01));
        assert_eq!(p.compute_offset_size(0.0), 1);
        assert_eq!(p.compute_offset_size(-1.0), 1);
    }

    #[test]
    fn small_tenants_stay_on_one_shard() {
        // §4.1: "we set s = 1 for most of the tenants who have a small
        // storage proportion".
        let p = policy();
        assert_eq!(p.compute_offset_size(0.0005), 1);
    }

    #[test]
    fn default_max_offset_reasonable() {
        let p = OffsetPolicy::new(512, 8);
        assert_eq!(p.max_offset, 16);
        let tiny = OffsetPolicy::new(4, 2);
        assert_eq!(tiny.max_offset, 4, "max offset clamped to shard count");
    }

    proptest! {
        #[test]
        fn prop_offset_monotone_and_bounded(r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
            let p = policy();
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            let s_lo = p.compute_offset_size(lo);
            let s_hi = p.compute_offset_size(hi);
            prop_assert!(s_lo <= s_hi);
            prop_assert!(s_hi <= p.max_offset);
            prop_assert!(s_lo >= 1);
        }
    }
}
