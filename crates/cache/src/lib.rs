//! # fresca-cache — the cache-aside cache substrate
//!
//! The paper's system (its Figure 1/4) is a *lazy* or *cache-aside*
//! cache: reads are served from the cache, writes bypass it to the data
//! store, and the cache is populated on read misses. Freshness machinery
//! acts on cached entries from the outside: TTL timers expire or refresh
//! them, and backend-originated invalidate/update messages mark or rewrite
//! them. This crate provides that cache:
//!
//! * [`SlabCache`] — the one store: a single-owner (deterministic) cache
//!   with contiguous slab entry storage, intrusive recency lists and a
//!   SplitMix key index; entry- or byte-based capacity, eviction chosen
//!   by [`EvictionPolicy`] (LRU, FIFO, segmented LRU, ARC — the node's
//!   default — or the freshness-aware extension from the paper's §5),
//!   lazy TTL expiry, and the exact freshness state machine the engine
//!   meters. An [`Entry`] holds its value's bytes, and its size is
//!   their length. The simulation engine runs one; the server runs one
//!   per shard, each behind its own lock, which any event loop takes to
//!   serve a key of that shard.
//! * [`RefetchTable`] — the per-key in-flight-refetch registry the
//!   serving reactor parks refused/missed bounded reads on, coalescing
//!   concurrent readers onto one origin fetch (the dogpile guard);
//!   its park/coalesce/complete protocol is model-checked under
//!   `--cfg miniloom`.
//!
//! Terminology used across the workspace (and in metric names):
//!
//! * **fresh hit** — entry present and fresh: served from cache.
//! * **stale miss** — entry *present but stale* (TTL-expired or
//!   invalidated): this is the paper's staleness cost `C_S`.
//! * **cold miss** — entry absent (never cached or evicted): a normal
//!   cache miss, *not* part of `C_S`.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod entry;
pub mod refetch;
pub mod slab;

pub use cache::{BoundedGet, CacheConfig, CacheStats, Capacity, EvictionPolicy, GetResult};
pub use entry::{Entry, Freshness};
pub use refetch::{Park, RefetchTable};
pub use slab::SlabCache;
