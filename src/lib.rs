//! # fresca — real-time cache freshness
//!
//! A reproduction of *"Revisiting Cache Freshness for Emerging Real-Time
//! Applications"* (Mao, Iyer, Shenker, Stoica — HotNets '24) as a Rust
//! workspace. This facade crate re-exports the whole system; depend on it
//! to get everything, or on the individual `fresca-*` crates to pick
//! parts.
//!
//! ## The 60-second tour
//!
//! ```
//! use fresca::prelude::*;
//!
//! // 1. A workload: Poisson arrivals, Zipf popularity, 90% reads.
//! let trace = PoissonZipfConfig {
//!     rate: 50.0,
//!     num_keys: 200,
//!     read_ratio: 0.9,
//!     horizon: SimDuration::from_secs(200),
//!     ..Default::default()
//! }
//! .generate(7);
//!
//! // 2. A freshness target: data no staler than one second.
//! let config = EngineConfig {
//!     staleness_bound: SimDuration::from_secs(1),
//!     ..Default::default()
//! };
//!
//! // 3. Compare TTL-based freshness with the paper's adaptive policy.
//! let ttl = TraceEngine::new(config, PolicyConfig::ttl_polling()).run(&trace);
//! let adaptive = TraceEngine::new(config, PolicyConfig::adaptive()).run(&trace);
//!
//! // Reacting to writes costs a fraction of polling at the same bound.
//! assert!(adaptive.cf_total < ttl.cf_total / 2.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`fresca_core`] | policies, cost model, analytic model, engines |
//! | [`fresca_workload`] | workload generators, distributions, traces |
//! | [`fresca_cache`] | cache-aside cache, eviction, refetch table |
//! | [`fresca_store`] | versioned backend store, write buffer, trackers |
//! | [`fresca_sketch`] | `E[W]` estimators: exact / Count-min / Top-K |
//! | [`fresca_net`] | wire protocol, codec, framed transports, lossy network, reliability |
//! | [`fresca_serve`] | event-driven TCP cache cluster: consistent-hash ring, servers, cluster-aware clients, store-push node, load generator |
//! | [`fresca_sim`] | deterministic event kernel, RNG, stats |

#![warn(missing_docs)]

pub use fresca_cache;
pub use fresca_core;
pub use fresca_net;
pub use fresca_serve;
pub use fresca_sim;
pub use fresca_sketch;
pub use fresca_store;
pub use fresca_workload;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use fresca_cache::{CacheConfig, Capacity, EvictionPolicy, GetResult, SlabCache};
    pub use fresca_core::cost::{Bottleneck, CostModel, ObjectSize, PrimitiveCosts};
    pub use fresca_core::engine::system::{SystemConfig, SystemEngine, SystemReport};
    pub use fresca_core::engine::{
        EngineConfig, EstimatorConfig, PolicyConfig, RunReport, TraceEngine,
    };
    pub use fresca_core::experiment::{staleness_sweep, theory, workloads};
    pub use fresca_core::model::WorkloadPoint;
    pub use fresca_core::policy::rules;
    pub use fresca_net::{
        FaultConfig, FramedStream, GetStatus, Message, NonBlockingFramedStream, RequestId,
        SimNetwork,
    };
    pub use fresca_serve::{
        CacheClient, ClusterClient, ClusterReport, HashRing, LoadGenConfig, LoadReport,
        PipelinedClient, PushConfig, PushPolicy, Response, ServeClock, ServerConfig, StorePusher,
    };
    pub use fresca_sim::{RngFactory, SimDuration, SimTime};
    pub use fresca_sketch::{CountMinEw, EwEstimator, ExactEw, TopKEw};
    pub use fresca_workload::{
        analyze::TraceStats, ClassSpec, Key, MetaLikeConfig, MultiClassConfig, Op,
        PoissonMixConfig, PoissonZipfConfig, ReplayConfig, Request, TimedOp, Trace,
        TwitterLikeConfig, WireOp, WorkloadGen,
    };
}
