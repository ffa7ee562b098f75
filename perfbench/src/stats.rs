//! Order statistics, the tail-percentile rule and the point-stream digest.

/// Percentiles the tail metric may report, lowest first. The ladder stops
/// at p95: on a 2-vCPU host, `sweep_warm`'s p99 is set by scheduler
/// hiccups and varied 5x between runs (0.57 to 3.1 ms).
pub const TAIL_LADDER: [f64; 3] = [50.0, 80.0, 95.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon absorbs the rounding of ladder values like 99.9).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile of ascending `sorted` (nearest rank), or 0 when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it among `n` samples, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= TAIL_BEYOND && n - rank(p, n) >= TAIL_BEYOND)
}

/// 64-bit FNV-1a, fed word by word: a digest that is stable across Rust
/// versions, unlike `DefaultHasher`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds the eight little-endian bytes of `word` into the digest.
    pub fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(49), Some(50.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(308), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(5_000_000), Some(95.0));
        for n in [20usize, 40, 77, 308, 1000, 12_345, 250_000] {
            let p = tail_percentile(n).expect("n >= 20");
            // Count the samples strictly above the reported one.
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let beyond = |p| v.iter().filter(|&&x| x > percentile(&v, p)).count();
            assert!(beyond(p) >= TAIL_BEYOND, "n={n} p={p}");
            // No higher ladder rung qualifies.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(next) < TAIL_BEYOND, "n={n} next={next}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
