//! Deterministic value payloads and their checksums.
//!
//! Every writer in the serving pipeline (client puts, store-pushed
//! updates, benches) fills values with the same seeded pattern, so any
//! reader can verify a served value with nothing but the key and the
//! bytes it received: [`verify`] recomputes the FNV-1a checksum of the
//! expected pattern *for the received length* and compares. The pattern
//! seed mixes the length in, so a truncated or padded payload — the
//! framing-bug class wire-size accounting cannot catch — fails the
//! check even when the surviving prefix is byte-identical.
//!
//! [`zeroes`] serves the simulation path, which needs values that
//! occupy wire bytes without meaning anything: it slices a shared
//! thread-local zero buffer, so building a synthetic payload is a
//! refcount bump, not an allocation.

use bytes::Bytes;
use fresca_sim::rng::splitmix64;
use std::cell::RefCell;

/// The SplitMix64 finalizer ([`fresca_sim::rng::mix64`]), re-exported
/// so other deterministic draws (e.g. the load generator's per-op
/// value-size hash) share one set of constants.
pub use fresca_sim::rng::mix64 as mix;

/// Pattern seed for `(key, len)`. The length is folded in so values of
/// different sizes for the same key share no prefix.
#[inline]
fn seed(key: u64, len: usize) -> u64 {
    let mut s = key ^ (len as u64).rotate_left(32) ^ 0xA076_1D64_78BD_642F;
    splitmix64(&mut s)
}

/// Drive `emit` with the pattern bytes for `(key, len)`, 8 at a time.
#[inline]
fn stream(key: u64, len: usize, mut emit: impl FnMut(&[u8])) {
    let mut state = seed(key, len);
    let mut remaining = len;
    while remaining > 0 {
        let word = splitmix64(&mut state).to_le_bytes();
        let take = remaining.min(8);
        emit(&word[..take]);
        remaining -= take;
    }
}

/// The deterministic `len`-byte payload every writer uses for `key`.
pub fn pattern(key: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len);
    stream(key, len, |chunk| out.extend_from_slice(chunk));
    Bytes::from(out)
}

/// FNV-1a over a byte slice (64-bit).
pub fn fnv1a(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = OFFSET;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// FNV-1a of the pattern for `(key, len)`, computed without
/// materializing the pattern.
pub fn expected_fnv(key: u64, len: usize) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = OFFSET;
    stream(key, len, |chunk| {
        for &b in chunk {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    });
    hash
}

/// True when `value` is exactly the pattern a writer would have sent
/// for `key` at this length — the per-read integrity check the load
/// generator counts `checksum_mismatches` from.
///
/// ```
/// use fresca_net::payload;
///
/// let value = payload::pattern(7, 64);
/// assert!(payload::verify(7, &value));
/// assert!(!payload::verify(8, &value), "wrong key");
/// assert!(!payload::verify(7, &value[..63]), "truncated");
/// ```
pub fn verify(key: u64, value: &[u8]) -> bool {
    fnv1a(value) == expected_fnv(key, value.len())
}

thread_local! {
    /// Shared zero buffer backing [`zeroes`]; grows geometrically and is
    /// sliced by refcount, never copied.
    static ZERO_POOL: RefCell<Bytes> = RefCell::new(Bytes::new());
}

/// A `len`-byte all-zero payload for the simulation path. Slices a
/// shared thread-local buffer: after warm-up this allocates nothing.
pub fn zeroes(len: usize) -> Bytes {
    ZERO_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < len {
            *pool = Bytes::from(vec![0u8; len.next_power_of_two()]);
        }
        pool.slice(..len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_length_exact() {
        for len in [0usize, 1, 7, 8, 9, 64, 4096] {
            let a = pattern(42, len);
            let b = pattern(42, len);
            assert_eq!(a, b);
            assert_eq!(a.len(), len);
        }
        assert_ne!(pattern(1, 64), pattern(2, 64), "patterns differ by key");
    }

    #[test]
    fn verify_accepts_only_the_exact_pattern() {
        let v = pattern(9, 100);
        assert!(verify(9, &v));
        assert!(verify(9, &pattern(9, 0)), "empty payloads verify too");
        assert!(!verify(10, &v));
        assert!(!verify(9, &v[..99]), "truncation detected despite shared prefix bytes");
        let mut corrupted = v.to_vec();
        corrupted[50] ^= 1;
        assert!(!verify(9, &corrupted));
    }

    #[test]
    fn expected_fnv_matches_materialized_hash() {
        for len in [0usize, 3, 8, 100, 4096] {
            assert_eq!(expected_fnv(5, len), fnv1a(&pattern(5, len)), "len {len}");
        }
    }

    #[test]
    fn length_is_folded_into_the_seed() {
        let long = pattern(3, 16);
        let short = pattern(3, 8);
        assert_ne!(&long[..8], &short[..], "shorter pattern is not a prefix of the longer");
    }

    #[test]
    fn zeroes_slices_a_shared_pool() {
        let a = zeroes(100);
        let b = zeroes(64);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0));
        assert!(
            a.shares_allocation_with(&b),
            "both sizes are views of one thread-local buffer"
        );
        let big = zeroes(1 << 16);
        assert_eq!(big.len(), 1 << 16);
    }
}
