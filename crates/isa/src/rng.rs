//! The workspace's seeded PRNG.

/// Deterministic xorshift64* PRNG: the fuzz generator's decision source
/// and both load generators' request sampler draw from it (no external
/// randomness anywhere). Each caller keeps its own seed mapping, so every
/// stream is pinned by its seed alone.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seed the generator; a zero seed is remapped to a fixed odd constant
    /// (xorshift has a fixed point at zero).
    #[inline]
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit sample.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pinned_by_the_seed() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
        // Pinned reference values: fuzz kernels and load-generator
        // request mixes are reproducible only while these hold. Zero is
        // remapped away from xorshift's fixed point.
        let mut one = XorShift::new(1);
        assert_eq!(one.next_u64(), 0x47e4_ce4b_896c_dd1d);
        assert_eq!(one.next_u64(), 0xabcf_a6a8_e079_651d);
        assert_eq!(XorShift::new(0).next_u64(), 0x0d83_b3e2_9a21_487a);
    }
}
