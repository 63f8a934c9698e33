//! # fresca-core — real-time cache freshness (HotNets '24)
//!
//! This crate implements the contribution of *"Revisiting Cache Freshness
//! for Emerging Real-Time Applications"* (Mao, Iyer, Shenker, Stoica —
//! HotNets '24): a quantitative model of the cost of keeping cached data
//! fresh within a staleness bound `T`, and an **adaptive per-object
//! policy** that reacts to writes with either *updates* or *invalidates*
//! instead of relying on TTLs.
//!
//! ## Map of the crate
//!
//! | Module | Paper section | Contents |
//! |--------|---------------|----------|
//! | [`cost`] | §3.3, Table 1 | `c_m`/`c_i`/`c_u`/`c_h` cost model, ser/deser breakdown, bottleneck-based estimation |
//! | [`model`] | §2, §3.1 | closed-form `C_F`/`C_S` for TTL-expiry, TTL-polling, update, invalidate |
//! | [`policy`] | §3.2–3.3 | decision rules (exact, `T→0`, `E[W]`, SLO-constrained), adaptive policy, omniscient oracle |
//! | [`metrics`] | §2.1–2.2 | freshness/staleness cost meters and the `C'_F`/`C'_S` normalisations |
//! | [`engine`] | §2.2, §3.4, §5 | the trace-driven simulation engine: flushes cross a store→cache link, ideal for Figures 2, 3, 5 and faulty for the §5 lossy-delivery experiments; every run counts ground-truth violations |
//! | [`experiment`] | §3.4 | paper workload presets, parameter sweeps, JSON reports |
//! | [`composite`] | §5 | many-to-many (composite object) freshness extension |
//!
//! ## Quick start
//!
//! ```
//! use fresca_core::engine::{EngineConfig, PolicyConfig, TraceEngine};
//! use fresca_core::experiment::workloads;
//! use fresca_sim::SimDuration;
//! use fresca_workload::WorkloadGen;
//!
//! // The paper's Poisson workload, staleness bound T = 1s.
//! let trace = workloads::poisson().generate(42);
//! let config = EngineConfig {
//!     staleness_bound: SimDuration::from_secs(1),
//!     ..EngineConfig::default()
//! };
//! let adaptive = TraceEngine::new(config.clone(), PolicyConfig::adaptive()).run(&trace);
//! let ttl = TraceEngine::new(config, PolicyConfig::ttl_expiry()).run(&trace);
//! // Reacting to writes beats TTLs on freshness cost at tight bounds.
//! assert!(adaptive.cf_normalized < ttl.cf_normalized);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod composite;
pub mod cost;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod model;
pub mod policy;

pub use cost::{Bottleneck, CostModel, PrimitiveCosts};
pub use engine::{EngineConfig, LinkConfig, PolicyConfig, Retransmit, RunReport, TraceEngine};
pub use metrics::{CostBreakdown, CostMeters};
pub use model::{policy_costs, PolicyCosts, WorkloadPoint};
pub use policy::{rules, FlushDecision};
