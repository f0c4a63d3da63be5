//! Hermetic SplitMix64 streams for deterministic arrival generation.
//!
//! The workspace has no crate-registry RNG; arrival sources need
//! streams that are (a) dependency-free, (b) fast, and (c) *keyable* —
//! `stream(mix(seed, task))` must be a pure function of its key so
//! per-task streams never interact. SplitMix64 satisfies all three,
//! and the campaign runner derives its per-set draw seeds with
//! [`mix`] too, so seed discipline is uniform across the workspace.

/// Mixes a salt into a seed (SplitMix64 finalizer). Pure; the campaign
/// runner derives its per-set and per-core draw seeds with it.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD129_0793_66CA_8C21));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: 2⁶⁴-period, allocation-free, `Copy`-cheap.
#[derive(Debug, Clone)]
pub struct Stream {
    state: u64,
}

impl Stream {
    /// A stream keyed by `seed` (use [`mix`] to derive sub-keys).
    pub fn new(seed: u64) -> Self {
        Stream { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with the given mean (inverse-CDF;
    /// `-mean·ln(1-u)` with `u ∈ [0, 1)`, so the result is finite).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_campaign_finalizer() {
        // The campaign runner derives its per-set and per-core draw
        // seeds with `mix`, so changing the finalizer moves every
        // golden: pin one value here, where a unit test catches it.
        assert_eq!(mix(7, 0), 0x63CB_E1E4_5932_0DD7);
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
    }

    #[test]
    fn stream_is_pure_in_its_seed() {
        let a: Vec<u64> = {
            let mut s = Stream::new(42);
            (0..32).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = Stream::new(42);
            (0..32).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut s = Stream::new(43);
            (0..32).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_draws_live_in_unit_interval() {
        let mut s = Stream::new(1);
        for _ in 0..10_000 {
            let u = s.next_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn exponential_draws_are_finite_positive_with_plausible_mean() {
        let mut s = Stream::new(2);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n)
            .map(|_| {
                let x = s.next_exp(mean);
                assert!(x.is_finite() && x >= 0.0, "{x}");
                x
            })
            .sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.2 * mean,
            "observed mean {observed} vs {mean}"
        );
    }
}
