//! Freshness policies.
//!
//! A policy answers one question, once per dirty key per interval flush:
//! *what should the backend send to the cache for this key?* —
//! an update, an invalidate, or nothing.

pub mod adaptive;
pub mod oracle;
pub mod rules;
pub mod slo;

pub use adaptive::AdaptivePolicy;
pub use oracle::OraclePolicy;
pub use slo::SloAdaptivePolicy;

use fresca_sketch::{CountMinEw, EwEstimator, ExactEw, TopKEw};
use serde::{Deserialize, Serialize};

/// The backend's per-key action at an interval flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// Send an update message (key + value): refreshes the cached entry
    /// if present, does nothing if absent.
    Update,
    /// Send an invalidation message (key only): marks the cached entry
    /// stale if present.
    Invalidate,
    /// Send nothing (used by cache-state-aware and oracle policies).
    Nothing,
}

/// Which `E[W]` estimator backs the adaptive policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimatorConfig {
    /// Exact three-counter tracking (paper §3.3).
    Exact,
    /// Count-min sketches of the given geometry.
    CountMin {
        /// Columns per row.
        width: usize,
        /// Rows.
        depth: usize,
    },
    /// Top-K exact entries over a Count-min tail.
    TopK {
        /// Exact slots.
        k: usize,
        /// Tail sketch columns.
        width: usize,
        /// Tail sketch rows.
        depth: usize,
    },
}

impl EstimatorConfig {
    pub(crate) fn build(self) -> Box<dyn EwEstimator> {
        match self {
            EstimatorConfig::Exact => Box::new(ExactEw::new()),
            EstimatorConfig::CountMin { width, depth } => Box::new(CountMinEw::new(width, depth)),
            EstimatorConfig::TopK { k, width, depth } => Box::new(TopKEw::new(k, width, depth)),
        }
    }
}

/// The freshness policy to run (the seven bars of Figure 5, plus the
/// §3.2 SLO-constrained variant).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// TTL-expiry: entries expire `T` after they were fetched.
    TtlExpiry,
    /// TTL-polling: entries re-fetch from the store every `T`.
    TtlPolling,
    /// Always send invalidates on writes (batched per `T`).
    AlwaysInvalidate,
    /// Always send updates on writes (batched per `T`).
    AlwaysUpdate,
    /// The paper's adaptive policy ("Adpt.").
    Adaptive(EstimatorConfig),
    /// Adaptive with backend knowledge of cache contents ("Adpt.+C.S.").
    AdaptiveCacheState(EstimatorConfig),
    /// §3.2's throughput-max-under-staleness-SLO adaptive policy.
    AdaptiveSlo {
        /// Upper bound on the acceptable stale-miss ratio, in `[0, 1]`.
        staleness_slo: f64,
    },
    /// Omniscient optimal ("Opt.").
    Oracle,
}

impl PolicyConfig {
    /// `Adaptive` with the paper-recommended Top-K estimator.
    pub fn adaptive() -> Self {
        PolicyConfig::Adaptive(EstimatorConfig::TopK { k: 128, width: 1024, depth: 4 })
    }

    /// `AdaptiveCacheState` with the Top-K estimator.
    pub fn adaptive_cache_state() -> Self {
        PolicyConfig::AdaptiveCacheState(EstimatorConfig::TopK { k: 128, width: 1024, depth: 4 })
    }

    /// TTL-expiry shorthand.
    pub fn ttl_expiry() -> Self {
        PolicyConfig::TtlExpiry
    }

    /// TTL-polling shorthand.
    pub fn ttl_polling() -> Self {
        PolicyConfig::TtlPolling
    }

    /// Short display name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyConfig::TtlExpiry => "ttl-expiry",
            PolicyConfig::TtlPolling => "ttl-polling",
            PolicyConfig::AlwaysInvalidate => "invalidate",
            PolicyConfig::AlwaysUpdate => "update",
            PolicyConfig::Adaptive(_) => "adaptive",
            PolicyConfig::AdaptiveCacheState(_) => "adaptive+cs",
            PolicyConfig::AdaptiveSlo { .. } => "adaptive-slo",
            PolicyConfig::Oracle => "oracle",
        }
    }

    /// True for the policies that react to writes (and therefore batch
    /// flushes per interval).
    pub fn reacts_to_writes(&self) -> bool {
        !matches!(self, PolicyConfig::TtlExpiry | PolicyConfig::TtlPolling)
    }
}
