//! Zipf(θ) sampling for skewed multi-tenant workloads.
//!
//! The paper's benchmark "lets the workload generators sample tenant IDs
//! from Zipf distribution tunable by a skewness factor θ. The sampling size
//! of tenant k is set to be proportional to (1/k)^θ" (§6.1), with
//! θ ∈ {0, 0.5, 1, 1.5, 2}. θ=0 degenerates to uniform; θ=1 is closest to
//! Alibaba's production distribution.
//!
//! Two samplers are provided:
//!
//! * [`ZipfSampler`] — exact inverse-CDF sampling over a precomputed
//!   cumulative table (O(log n) per sample, exact for any θ). Used by the
//!   figure harnesses where determinism and exactness matter.
//! * [`ZipfRejection`] — the rejection-inversion method (Hörmann 1996) with
//!   O(1) state, used where tables for very large n are undesirable.

use rand::Rng;

/// Exact Zipf sampler over ranks `1..=n` via a cumulative probability table.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative, normalized weights; `cdf[k-1]` = P(rank ≤ k).
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler for `n` ranks with skewness `theta >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point drift in the final entry.
        *cdf.last_mut().expect("n > 0") = 1.0;
        ZipfSampler { cdf }
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "rank out of range");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Samples a 1-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.rank_for(u)
    }

    /// Deterministic inverse-CDF lookup: smallest rank with `cdf >= u`.
    pub(crate) fn rank_for(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0);
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// O(1)-state Zipf sampler using rejection inversion (Hörmann 1996), as
/// popularized by YCSB. Exact distribution, no table.
#[derive(Debug, Clone)]
pub struct ZipfRejection {
    n: u64,
    theta: f64,
    // Precomputed constants.
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl ZipfRejection {
    /// Builds a rejection sampler for ranks `1..=n`, `theta >= 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "ZipfRejection needs at least one rank");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be finite and non-negative"
        );
        let h_integral_x1 = Self::h_integral(1.5, theta) - 1.0;
        let h_integral_n = Self::h_integral(n as f64 + 0.5, theta);
        let s =
            2.0 - Self::h_integral_inv(Self::h_integral(2.5, theta) - Self::h(2.0, theta), theta);
        ZipfRejection {
            n,
            theta,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// H(x) = ∫ h, the integral of the unnormalized density.
    fn h_integral(x: f64, theta: f64) -> f64 {
        let log_x = x.ln();
        Self::helper2((1.0 - theta) * log_x) * log_x
    }

    /// h(x) = x^-θ.
    fn h(x: f64, theta: f64) -> f64 {
        (-theta * x.ln()).exp()
    }

    /// Inverse of `h_integral`.
    fn h_integral_inv(x: f64, theta: f64) -> f64 {
        let mut t = x * (1.0 - theta);
        if t < -1.0 {
            t = -1.0;
        }
        (Self::helper1(t) * x).exp()
    }

    /// (log1p(x))/x, stable near 0.
    fn helper1(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.ln_1p() / x
        } else {
            1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
        }
    }

    /// (exp(x)-1)/x, stable near 0.
    fn helper2(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.exp_m1() / x
        } else {
            1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
        }
    }

    /// Samples a 1-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u: f64 =
                self.h_integral_n + rng.random::<f64>() * (self.h_integral_x1 - self.h_integral_n);
            let x = Self::h_integral_inv(u, self.theta);
            let mut k = (x + 0.5) as u64;
            k = k.clamp(1, self.n);
            if (k as f64 - x <= self.s)
                || (u
                    >= Self::h_integral(k as f64 + 0.5, self.theta) - Self::h(k as f64, self.theta))
            {
                return k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12, "rank {k} pmf {}", z.pmf(k));
        }
    }

    #[test]
    fn theta_one_matches_harmonic() {
        let z = ZipfSampler::new(4, 1.0);
        let h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((z.pmf(1) - 1.0 / h4).abs() < 1e-12);
        assert!((z.pmf(3) - (1.0 / 3.0) / h4).abs() < 1e-12);
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = ZipfSampler::new(100, 1.5);
        for k in 2..=100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15);
        }
    }

    #[test]
    fn rank_for_inverts_cdf_boundaries() {
        let z = ZipfSampler::new(3, 1.0);
        assert_eq!(z.rank_for(0.0), 1);
        assert_eq!(z.rank_for(1.0), 3);
        // Just past the rank-1 mass we must land on rank 2.
        let p1 = z.pmf(1);
        assert_eq!(z.rank_for(p1 + 1e-9), 2);
    }

    #[test]
    fn sample_frequencies_track_pmf() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0usize; 51];
        const N: usize = 200_000;
        for _ in 0..N {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [1usize, 2, 5, 10] {
            let observed = counts[k] as f64 / N as f64;
            let expected = z.pmf(k);
            let rel = (observed - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "rank {k}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn rejection_matches_table_sampler() {
        let table = ZipfSampler::new(1000, 1.0);
        let rej = ZipfRejection::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        const N: usize = 200_000;
        let mut c_top = 0usize;
        for _ in 0..N {
            if rej.sample(&mut rng) == 1 {
                c_top += 1;
            }
        }
        let observed = c_top as f64 / N as f64;
        let expected = table.pmf(1);
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn rejection_stays_in_range() {
        let rej = ZipfRejection::new(10, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let k = rej.sample(&mut rng);
            assert!((1..=10).contains(&k));
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
