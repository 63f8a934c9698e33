//! The cost model (§3.3 and Table 1).
//!
//! Four per-event costs drive everything:
//!
//! * `c_m` — servicing a miss (cache asks the store, store reads and
//!   replies, cache deserialises and installs),
//! * `c_i` — an invalidation message (key only),
//! * `c_u` — an update message (key + value),
//! * `c_h` — serving a read from the cache (the "useful work" unit used
//!   to normalise `C'_F`).
//!
//! The paper's Table 1 decomposes `c_m`/`c_i`/`c_u` into serialisation /
//! deserialisation / storage primitives on each side of the wire, with the
//! side that is the *bottleneck* determining which components count.
//! [`CostModel::from_bottleneck`] reproduces that table;
//! [`CostModel::unit`] gives the dimensionless constants used for the
//! figure reproductions (where only ratios matter).

use serde::{Deserialize, Serialize};

/// Which resource is saturated (§3.3: "The optimal strategy depends on
/// the nature of the bottleneck").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Compute at the cache is scarce: only cache-side work counts.
    CacheCpu,
    /// Compute at the data store is scarce: only store-side work counts.
    BackendCpu,
    /// The network is scarce: cost is proportional to message bytes.
    Network,
    /// No single bottleneck: count both sides (sum).
    Balanced,
}

/// Primitive operation costs used by the Table 1 decomposition. Units are
/// abstract "cost units" — calibrate with the `codec` bench or leave as
/// relative weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrimitiveCosts {
    /// Serialise or deserialise one byte.
    pub serde_per_byte: f64,
    /// Fixed per-message serialisation overhead.
    pub serde_fixed: f64,
    /// Apply an update/install into the cache's map.
    pub cache_update: f64,
    /// Delete/mark an entry in the cache's map.
    pub cache_delete: f64,
    /// Read a record from backend storage.
    pub store_read: f64,
    /// Transmit one byte (network bottleneck only).
    pub net_per_byte: f64,
}

impl Default for PrimitiveCosts {
    fn default() -> Self {
        // Relative weights: per-byte serde dominates for large values;
        // map operations are cheap; a backend read is the expensive step.
        PrimitiveCosts {
            serde_per_byte: 0.001,
            serde_fixed: 0.05,
            cache_update: 0.1,
            cache_delete: 0.05,
            store_read: 0.5,
            net_per_byte: 0.002,
        }
    }
}

/// Sizes involved in one message, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectSize {
    /// Key size in bytes.
    pub key: u32,
    /// Value size in bytes.
    pub value: u32,
}

impl ObjectSize {
    /// Key-plus-value size.
    pub fn total(&self) -> u32 {
        self.key + self.value
    }
}

/// The cost model used by engines and decision rules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostModel {
    /// Fixed per-event costs, independent of object size. This is what
    /// the paper's simulations use: only the ratios between `c_m`, `c_i`,
    /// `c_u` matter for the figures.
    Unit {
        /// Miss service cost.
        c_m: f64,
        /// Invalidation message cost.
        c_i: f64,
        /// Update message cost.
        c_u: f64,
        /// Cache-hit service cost (normalisation unit).
        c_h: f64,
    },
    /// Table 1 decomposition with byte scaling: costs are composed from
    /// [`PrimitiveCosts`] on the side(s) selected by the [`Bottleneck`]
    /// ("`c_u`, `c_i` and `c_m` should be scaled by the sizes of the
    /// actual keys and values").
    TableOne {
        /// Which side's work counts.
        bottleneck: Bottleneck,
        /// Primitive operation costs.
        primitives: PrimitiveCosts,
    },
}

impl Default for CostModel {
    fn default() -> Self {
        // Defaults satisfy the paper's assumption c_u < c_m, with
        // invalidates cheapest (key-only messages).
        CostModel::Unit { c_m: 1.0, c_i: 0.1, c_u: 0.5, c_h: 1.0 }
    }
}

impl CostModel {
    /// Unit-cost model with explicit constants. Panics unless
    /// `c_u < c_m` (the paper's standing assumption) and all costs are
    /// positive.
    pub fn unit(c_m: f64, c_i: f64, c_u: f64, c_h: f64) -> Self {
        assert!(c_m > 0.0 && c_i > 0.0 && c_u > 0.0 && c_h > 0.0, "costs must be positive");
        assert!(c_u < c_m, "the model assumes updating is cheaper than a miss (c_u < c_m)");
        CostModel::Unit { c_m, c_i, c_u, c_h }
    }

    /// Table 1 model for a given bottleneck.
    pub fn from_bottleneck(bottleneck: Bottleneck, primitives: PrimitiveCosts) -> Self {
        CostModel::TableOne { bottleneck, primitives }
    }

    fn serde(p: &PrimitiveCosts, bytes: u32) -> f64 {
        p.serde_fixed + p.serde_per_byte * bytes as f64
    }

    /// `c_m`: miss service cost for an object of the given size.
    ///
    /// Table 1 — Cache: `ser(K) + deser(K+V) + update`;
    /// Data store: `deser(K) + read + ser(K+V)`.
    pub fn miss_cost(&self, size: ObjectSize) -> f64 {
        match self {
            CostModel::Unit { c_m, .. } => *c_m,
            CostModel::TableOne { bottleneck, primitives: p } => {
                let cache = Self::serde(p, size.key) + Self::serde(p, size.total()) + p.cache_update;
                let store = Self::serde(p, size.key) + p.store_read + Self::serde(p, size.total());
                let wire = p.net_per_byte * (size.key + size.total()) as f64;
                match bottleneck {
                    Bottleneck::CacheCpu => cache,
                    Bottleneck::BackendCpu => store,
                    Bottleneck::Network => wire,
                    Bottleneck::Balanced => cache + store,
                }
            }
        }
    }

    /// `c_i`: invalidation cost.
    ///
    /// Table 1 — Cache: `deser(K) + delete`; Data store: `ser(K)`.
    pub fn invalidate_cost(&self, size: ObjectSize) -> f64 {
        match self {
            CostModel::Unit { c_i, .. } => *c_i,
            CostModel::TableOne { bottleneck, primitives: p } => {
                let cache = Self::serde(p, size.key) + p.cache_delete;
                let store = Self::serde(p, size.key);
                let wire = p.net_per_byte * size.key as f64;
                match bottleneck {
                    Bottleneck::CacheCpu => cache,
                    Bottleneck::BackendCpu => store,
                    Bottleneck::Network => wire,
                    Bottleneck::Balanced => cache + store,
                }
            }
        }
    }

    /// `c_u`: update cost.
    ///
    /// Table 1 — Cache: `deser(K+V) + update`; Data store: `ser(K+V)`.
    pub fn update_cost(&self, size: ObjectSize) -> f64 {
        match self {
            CostModel::Unit { c_u, .. } => *c_u,
            CostModel::TableOne { bottleneck, primitives: p } => {
                let cache = Self::serde(p, size.total()) + p.cache_update;
                let store = Self::serde(p, size.total());
                let wire = p.net_per_byte * size.total() as f64;
                match bottleneck {
                    Bottleneck::CacheCpu => cache,
                    Bottleneck::BackendCpu => store,
                    Bottleneck::Network => wire,
                    Bottleneck::Balanced => cache + store,
                }
            }
        }
    }

    /// `c_h`: cost of serving one read from the cache (the useful-work
    /// unit for `C'_F`).
    pub fn hit_cost(&self, size: ObjectSize) -> f64 {
        match self {
            CostModel::Unit { c_h, .. } => *c_h,
            CostModel::TableOne { bottleneck, primitives: p } => {
                let cache = Self::serde(p, size.key) + Self::serde(p, size.total());
                let wire = p.net_per_byte * size.total() as f64;
                match bottleneck {
                    Bottleneck::CacheCpu | Bottleneck::Balanced => cache,
                    Bottleneck::BackendCpu => cache, // hits don't touch the store; keep useful-work unit non-zero
                    Bottleneck::Network => wire,
                }
            }
        }
    }

    /// The "read latency over everything" special case from §3.3: set
    /// `c_m = ∞` so the decision rule always chooses updates. Represented
    /// by an effectively infinite miss cost.
    pub fn latency_over_throughput(self) -> Self {
        match self {
            CostModel::Unit { c_i, c_u, c_h, .. } => {
                CostModel::Unit { c_m: f64::MAX / 4.0, c_i, c_u, c_h }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZE: ObjectSize = ObjectSize { key: 16, value: 512 };

    #[test]
    fn unit_costs_are_constant() {
        let m = CostModel::unit(1.0, 0.1, 0.5, 1.0);
        let small = ObjectSize { key: 8, value: 10 };
        assert_eq!(m.miss_cost(SIZE), m.miss_cost(small));
        assert_eq!(m.update_cost(SIZE), 0.5);
        assert_eq!(m.invalidate_cost(SIZE), 0.1);
    }

    #[test]
    #[should_panic(expected = "c_u < c_m")]
    fn unit_enforces_paper_assumption() {
        CostModel::unit(0.5, 0.1, 1.0, 1.0);
    }

    #[test]
    fn table_one_ordering_holds_for_all_bottlenecks() {
        // The paper's standing assumptions: c_i < c_u < c_m for realistic
        // sizes (invalidates carry no value; misses do two serde passes
        // plus a store read).
        for b in [
            Bottleneck::CacheCpu,
            Bottleneck::BackendCpu,
            Bottleneck::Network,
            Bottleneck::Balanced,
        ] {
            let m = CostModel::from_bottleneck(b, PrimitiveCosts::default());
            let ci = m.invalidate_cost(SIZE);
            let cu = m.update_cost(SIZE);
            let cm = m.miss_cost(SIZE);
            assert!(ci < cu, "{b:?}: c_i {ci} < c_u {cu}");
            assert!(cu < cm, "{b:?}: c_u {cu} < c_m {cm}");
        }
    }

    #[test]
    fn table_one_scales_with_value_size() {
        let m = CostModel::from_bottleneck(Bottleneck::Network, PrimitiveCosts::default());
        let small = ObjectSize { key: 16, value: 64 };
        let big = ObjectSize { key: 16, value: 64 * 1024 };
        assert!(m.update_cost(big) > 100.0 * m.update_cost(small));
        // Invalidates carry only keys: size-independent.
        assert_eq!(m.invalidate_cost(big), m.invalidate_cost(small));
    }

    #[test]
    fn bottleneck_selects_components() {
        let p = PrimitiveCosts::default();
        let cache = CostModel::from_bottleneck(Bottleneck::CacheCpu, p);
        let store = CostModel::from_bottleneck(Bottleneck::BackendCpu, p);
        let both = CostModel::from_bottleneck(Bottleneck::Balanced, p);
        let sum = cache.miss_cost(SIZE) + store.miss_cost(SIZE);
        assert!((both.miss_cost(SIZE) - sum).abs() < 1e-12);
    }

    #[test]
    fn latency_mode_makes_updates_always_win() {
        let m = CostModel::default().latency_over_throughput();
        // Decision rule threshold (c_i + c_m)/c_u is astronomically large.
        let thr = (m.invalidate_cost(SIZE) + m.miss_cost(SIZE)) / m.update_cost(SIZE);
        assert!(thr > 1e100);
    }
}
