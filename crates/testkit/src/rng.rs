//! Deterministic PRNG for the toolkit (SplitMix64-seeded xoshiro256**).
//!
//! This intentionally duplicates the tiny generator in
//! `ivl-sim-core::rng`: the testkit sits at the bottom of the dependency
//! graph (`ivl-sim-core` itself uses it for its tests), so it cannot import
//! the simulator's copy without a cycle.

/// SplitMix64 step: returns `(output, next_state)`.
pub fn splitmix64(state: u64) -> (u64, u64) {
    let next = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = next;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31), next)
}

/// xoshiro256** deterministic PRNG.
///
/// # Examples
///
/// ```
/// use ivl_testkit::rng::TestRng;
/// let mut a = TestRng::seed_from(7);
/// let mut b = TestRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            let (v, next) = splitmix64(state);
            *slot = v;
            state = next;
        }
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        TestRng { s }
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniformly selects an index into a collection of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = TestRng::seed_from(42);
        let mut b = TestRng::seed_from(42);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::seed_from(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = TestRng::seed_from(1);
        for bound in [1u64, 2, 7, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = TestRng::seed_from(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
