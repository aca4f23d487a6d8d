//! Seeded input generation: a SplitMix64 stream and an FNV-1a digest.
//!
//! The benchmark generates every input (arrival schedules, operation
//! streams) from `--seed` with this generator before the measured phase,
//! and fingerprints them with [`Digest`], so two runs can be shown to have
//! driven identical load.

/// SplitMix64: small, fast, and good enough for workload shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that each
    /// thread and each input kind draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform float in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() <= p
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, mut v: u64) {
        for _ in 0..8 {
            self.0 ^= v & 0xff;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            v >>= 8;
        }
    }

    /// Folds a byte string into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_and_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&v| v == r.next_u64()));
        let mut other = Rng::new(7, 2);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
