//! Reproducible randomness.
//!
//! `rand`'s `StdRng` documents that its stream may change between crate
//! versions, and `SmallRng` differs across platforms. Figures in a paper
//! reproduction must never silently change because a dependency was bumped,
//! so we carry our own generator: **xoshiro256++**, seeded through
//! **SplitMix64** exactly as its authors recommend. Both algorithms are
//! public domain and a dozen lines each; the streams produced here are
//! fixed for the lifetime of this repository (locked by unit tests against
//! reference vectors).
//!
//! [`RngFactory`] derives independent, named sub-streams from a single
//! master seed. Components ask for a stream by label
//! (`factory.stream("workload.arrivals")`), which keeps streams stable when
//! unrelated components are added or reordered.

use rand::{Error, RngCore, SeedableRng};

/// The SplitMix64 output function of the state `x`: one golden-gamma
/// increment, then the two-multiply finalizer. Cheap, well distributed
/// and fixed forever — the one copy of these constants that every
/// deterministic hash in the workspace (sketch rows, ring points,
/// slab index, payload patterns, scenario sizes) goes through.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// SplitMix64 step: the output for `state`, which then advances by the
/// golden gamma. Used for seeding, label hashing and pattern streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    out
}

/// The xoshiro256++ generator (Blackman & Vigna, 2019).
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush. Not
/// cryptographically secure — which is irrelevant here — but fast and
/// permanently reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seed via SplitMix64 from a single `u64`, per the reference
    /// implementation's guidance (never seed xoshiro with low-entropy
    /// state directly).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256PlusPlus { s }
    }

    /// Construct from raw 256-bit state. The state must not be all zero.
    /// Prefer [`Xoshiro256PlusPlus::new`]; this exists for testing against
    /// reference vectors and for checkpoint/restore.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must not be all zero");
        Xoshiro256PlusPlus { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The long-jump function: advances the stream by 2^192 steps, giving
    /// non-overlapping sub-sequences for parallel components.
    pub fn long_jump(&mut self) {
        const LONG_JUMP: [u64; 4] =
            [0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635];
        let mut s = [0u64; 4];
        for jump in LONG_JUMP {
            for b in 0..64 {
                if (jump >> b) & 1 == 1 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next();
            }
        }
        self.s = s;
    }
}

impl RngCore for Xoshiro256PlusPlus {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // Take the high bits: xoshiro's low bits are its weakest.
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Xoshiro256PlusPlus::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Xoshiro256PlusPlus::new(state)
    }
}

/// Derives independent named RNG streams from one master seed.
///
/// The stream for a label is a pure function of `(master_seed, label)`:
/// the label is hashed with an FNV-1a/SplitMix64 combination into a stream
/// seed. Two different labels give statistically independent generators;
/// the same label always gives the same generator. This is the idiom that
/// keeps a 9-crate workspace deterministic: adding one more random
/// consumer never shifts anyone else's stream.
#[derive(Debug, Clone)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the RNG stream for `label`.
    pub fn stream(&self, label: &str) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::new(self.stream_seed(label))
    }

    /// Derive the RNG stream for `(label, index)` — for per-key or
    /// per-shard streams.
    pub fn stream_indexed(&self, label: &str, index: u64) -> Xoshiro256PlusPlus {
        let mut st = self.stream_seed(label) ^ 0xA5A5_A5A5_5A5A_5A5A;
        st = st.wrapping_add(index.wrapping_mul(0x9E3779B97F4A7C15));
        Xoshiro256PlusPlus::new(splitmix64(&mut st))
    }

    /// The derived `u64` seed for a label (exposed for tests and for
    /// embedding in result metadata).
    pub fn stream_seed(&self, label: &str) -> u64 {
        // FNV-1a over the label bytes, folded with the master seed through
        // one SplitMix64 round.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut st = self.master_seed ^ h;
        splitmix64(&mut st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Reference vector for xoshiro256++ with raw state `[1, 2, 3, 4]`,
    /// as published in the `rand_xoshiro` test-suite (which itself checks
    /// against the C reference implementation). Locks our stream forever.
    #[test]
    fn matches_reference_vector() {
        let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// SplitMix64 seeding reference: splitmix64 starting from 0 produces
    /// the well-known sequence 0xE220A8397B1DCDAF, ...
    #[test]
    fn splitmix_seeding_reference() {
        let rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(
            rng.s,
            [
                0xE220A8397B1DCDAF,
                0x6E789E6AA1B965F4,
                0x06C45D188009454F,
                0xF88BB8A8724C81EC
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256PlusPlus::new(42);
        let mut b = Xoshiro256PlusPlus::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256PlusPlus::new(1);
        let mut b = Xoshiro256PlusPlus::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_bytes_handles_partial_words() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Same seed, whole-word draw must agree on the prefix.
        let mut rng2 = Xoshiro256PlusPlus::new(7);
        let w0 = rng2.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
    }

    #[test]
    fn factory_streams_are_stable_and_distinct() {
        let f = RngFactory::new(0xDEADBEEF);
        let mut a1 = f.stream("alpha");
        let mut a2 = f.stream("alpha");
        let mut b = f.stream("beta");
        assert_eq!(a1.next_u64(), a2.next_u64());
        let va = f.stream("alpha").next_u64();
        let vb = b.next_u64();
        assert_ne!(va, vb);
    }

    #[test]
    fn indexed_streams_differ_per_index() {
        let f = RngFactory::new(99);
        let v0 = f.stream_indexed("key", 0).next_u64();
        let v1 = f.stream_indexed("key", 1).next_u64();
        assert_ne!(v0, v1);
        // And are reproducible.
        assert_eq!(v0, f.stream_indexed("key", 0).next_u64());
    }

    #[test]
    fn long_jump_changes_state() {
        let mut a = Xoshiro256PlusPlus::new(5);
        let b = a.clone();
        a.long_jump();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_range_sanity() {
        let mut rng = Xoshiro256PlusPlus::new(123);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for c in counts {
            // Each bucket ~10000; allow generous 10% tolerance.
            assert!((9000..=11000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Xoshiro256PlusPlus::new(321);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
