//! The rule that makes a cached value own exactly its bytes.
//!
//! A [`Bytes`] keeps its whole backing allocation alive, so a value
//! that is a view of something larger — a 100 B slice of the 64 KiB
//! buffer one `read()` filled — pins that whole allocation for as long
//! as the entry stays cached (the classic slab-of-arena amplification
//! problem). Two halves keep every cached value exact:
//!
//! * Values of [`DEFAULT_PIN_THRESHOLD`] bytes or more arrive exact.
//!   [`crate::FrameCodec::feed`] routes a `PutReq` or `FetchResp`
//!   payload of that size straight from the read chunk into an
//!   allocation of exactly its length (the same one memcpy that would
//!   otherwise have filled the accumulation buffer), and the decoder
//!   copies `Update` item values of that size out of the frame.
//! * Shorter values are decoded as zero-copy views of the accumulation
//!   buffer; [`repin_small`] copies them at every cache-install point.
//!
//! Every copy goes through `Bytes::copy_from_slice`, which makes one
//! block holding the refcount and the bytes: a value copied here costs
//! one allocation, and its `allocation_size()` is its length. Only a
//! large payload that spans two reads keeps a separate refcount header.
//!
//! One constant decides "small enough to copy" on both sides.

use bytes::Bytes;

/// Values shorter than this are copied into an exact allocation when
/// they are cached; the codec hands values of this length or more out
/// already exact.
pub const DEFAULT_PIN_THRESHOLD: usize = 512;

/// Make a value about to be cached own exactly its bytes: a non-empty
/// value shorter than `threshold` that is a view of a larger allocation
/// is copied into a fresh allocation of its own length; anything else
/// is returned unchanged.
///
/// ```
/// use bytes::Bytes;
/// use fresca_net::pin::repin_small;
///
/// let chunk = Bytes::from(vec![7u8; 4096]);
/// let small = chunk.slice(..100);
/// let repinned = repin_small(small.clone(), 512);
/// assert_eq!(repinned, small);
/// assert!(!repinned.shares_allocation_with(&chunk), "copied out of the chunk");
/// assert_eq!(repinned.allocation_size(), 100, "into an exact allocation");
///
/// let exact = Bytes::from(vec![7u8; 100]);
/// assert!(repin_small(exact.clone(), 512).shares_allocation_with(&exact), "already exact");
/// ```
pub fn repin_small(value: Bytes, threshold: usize) -> Bytes {
    if !value.is_empty() && value.len() < threshold && value.allocation_size() != value.len() {
        return Bytes::copy_from_slice(&value);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_view_is_copied_into_an_exact_allocation() {
        let chunk = Bytes::from(vec![1u8; 65536]);
        let v = chunk.slice(100..200);
        let out = repin_small(v.clone(), DEFAULT_PIN_THRESHOLD);
        assert_eq!(out, v, "bytes unchanged");
        assert!(!out.shares_allocation_with(&chunk));
        assert_eq!(out.allocation_size(), 100, "fresh allocation is exact");
    }

    #[test]
    fn any_spare_byte_counts() {
        // 100 B out of 101 B: no amplification worth the name, but the
        // value does not own exactly its bytes, so it is copied.
        let chunk = Bytes::from(vec![3u8; 101]);
        let out = repin_small(chunk.slice(..100), DEFAULT_PIN_THRESHOLD);
        assert!(!out.shares_allocation_with(&chunk));
        assert_eq!(out.allocation_size(), 100);
    }

    #[test]
    fn exact_values_are_left_alone() {
        let exact = Bytes::from(vec![2u8; 100]);
        assert!(repin_small(exact.clone(), DEFAULT_PIN_THRESHOLD).shares_allocation_with(&exact));
    }

    #[test]
    fn boundary_cases() {
        let chunk = Bytes::from(vec![4u8; 4096]);
        // len == threshold: not "shorter", keep the view (the codec hands
        // such values out exact already).
        assert!(repin_small(chunk.slice(..512), 512).shares_allocation_with(&chunk));
        // One byte shorter is copied.
        assert!(!repin_small(chunk.slice(..511), 512).shares_allocation_with(&chunk));
        // Empty values never copy (nothing to pin).
        assert!(repin_small(chunk.slice(..0), 512).shares_allocation_with(&chunk));
        // Threshold 0 copies nothing.
        assert!(repin_small(chunk.slice(..10), 0).shares_allocation_with(&chunk));
    }
}
