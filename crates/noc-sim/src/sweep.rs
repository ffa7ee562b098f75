//! Seeding of latency-vs-load sweeps.
//!
//! Every operating point of a sweep is an **independent** simulation: its
//! network, traffic generator and routing function are built from scratch
//! and its RNG seed is a pure function of `(base_seed, point_index)` (see
//! [`point_seed`]). Points can therefore run in any order — or on any
//! thread — and produce bit-identical results; the parallel
//! `ExperimentRunner` in the `noc-sprinting` crate relies on this.

/// Derives the RNG seed of sweep point `index` from the sweep's base seed.
///
/// The derivation is a splitmix64 mix of both inputs — a pure function, so
/// serial and parallel executions (and any thread count) agree on every
/// point's seed, and distinct points get decorrelated streams even for
/// adjacent indices.
#[must_use]
pub fn point_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seed_is_pure_and_decorrelated() {
        assert_eq!(point_seed(7, 3), point_seed(7, 3));
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 7, u64::MAX] {
            for i in 0..64 {
                assert!(seen.insert(point_seed(base, i)), "collision at ({base}, {i})");
            }
        }
        // Adjacent indices must not map to adjacent seeds.
        assert!(point_seed(7, 0).abs_diff(point_seed(7, 1)) > 1 << 20);
    }
}
