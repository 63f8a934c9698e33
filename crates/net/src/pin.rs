//! Receive-buffer pinning heuristic.
//!
//! The zero-copy decode path slices value payloads straight out of the
//! codec's receive chunk: a decoded [`Bytes`] is a refcounted view of
//! the (up to 64 KiB) buffer one `read()` filled. That is the right
//! call for the transient case — the value is written to the cache or
//! echoed back and the chunk's refcount drops. But a *cached* value
//! lives as long as the entry does, and a long-lived 100 B value
//! holding a 64 KiB chunk alive pins ~650× its own weight in memory
//! (the classic slab-of-arena amplification problem).
//!
//! [`repin_small`] is the hand-off policy the server applies at every
//! cache-install point: values smaller than a threshold (default
//! [`DEFAULT_PIN_THRESHOLD`]) whose backing allocation is at least
//! [`PIN_AMPLIFICATION`]× their length are copied into a fresh exact
//! allocation first. Large values — and small values decoded from
//! small chunks — keep the zero-copy view: the copy only happens when
//! the amplification is real.

use bytes::Bytes;

/// The threshold the server re-pins with: values below this length are
/// candidates for re-materialization out of a large receive chunk.
pub const DEFAULT_PIN_THRESHOLD: usize = 512;

/// Amplification factor that triggers the copy: a value is re-pinned
/// only when its backing allocation is at least this many times its own
/// length (so a 100 B slice of a 128 B buffer is left alone, while a
/// 100 B slice of a 64 KiB read chunk is copied out).
pub const PIN_AMPLIFICATION: usize = 8;

/// Apply the pinning heuristic to a value about to be cached: returns a
/// freshly-allocated copy when `value` is short (`len < threshold`,
/// non-empty) and pins an allocation ≥ [`PIN_AMPLIFICATION`]× its
/// length; otherwise returns `value` unchanged (still sharing its
/// backing buffer).
///
/// ```
/// use bytes::Bytes;
/// use fresca_net::pin::repin_small;
///
/// let chunk = Bytes::from(vec![7u8; 4096]);
/// let small = chunk.slice(..100);
/// let repinned = repin_small(small.clone(), 512);
/// assert_eq!(repinned, small);
/// assert!(!repinned.shares_allocation_with(&chunk), "copied out of the big chunk");
///
/// let large = chunk.slice(..2048);
/// assert!(repin_small(large.clone(), 512).shares_allocation_with(&chunk), "large values keep the view");
/// ```
pub fn repin_small(value: Bytes, threshold: usize) -> Bytes {
    if !value.is_empty()
        && value.len() < threshold
        && value.allocation_size() >= PIN_AMPLIFICATION * value.len()
    {
        return Bytes::from(value.to_vec());
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_slice_of_large_chunk_is_repinned() {
        let chunk = Bytes::from(vec![1u8; 65536]);
        let v = chunk.slice(100..200);
        let out = repin_small(v.clone(), DEFAULT_PIN_THRESHOLD);
        assert_eq!(out, v, "bytes unchanged");
        assert!(!out.shares_allocation_with(&chunk));
        assert_eq!(out.allocation_size(), 100, "fresh allocation is exact");
    }

    #[test]
    fn large_value_keeps_the_zero_copy_view() {
        let chunk = Bytes::from(vec![2u8; 65536]);
        let v = chunk.slice(..4096);
        assert!(repin_small(v, DEFAULT_PIN_THRESHOLD).shares_allocation_with(&chunk));
    }

    #[test]
    fn small_slice_of_small_chunk_is_left_alone() {
        // 100 B out of 256 B: under threshold but amplification < 8×.
        let chunk = Bytes::from(vec![3u8; 256]);
        let v = chunk.slice(..100);
        assert!(repin_small(v, DEFAULT_PIN_THRESHOLD).shares_allocation_with(&chunk));
    }

    #[test]
    fn boundary_cases() {
        let chunk = Bytes::from(vec![4u8; 4096]);
        // len == threshold: not "below", keep the view.
        assert!(repin_small(chunk.slice(..512), 512).shares_allocation_with(&chunk));
        // exactly 8× amplification triggers.
        assert!(!repin_small(chunk.slice(..4096 / 8), 4096).shares_allocation_with(&chunk));
        // empty values never copy (nothing to pin).
        assert!(repin_small(chunk.slice(..0), 512).shares_allocation_with(&chunk));
        // threshold 0 disables the heuristic outright.
        assert!(repin_small(chunk.slice(..10), 0).shares_allocation_with(&chunk));
    }
}
