//! A guard on the node's default eviction policy: a reduced eviction
//! sweep (`ablate_eviction --sweep` runs the full grid into
//! `BENCH_evict.json`) replays `churn-large`-shaped traffic — static, and
//! with its hot set reshuffled every 100 k ops — through the node's
//! sharding, and the policy `ServerConfig::default()` runs must still
//! pass the default rule: no row more than one point below LRU's hit
//! ratio, and more than 2 % above it on the static row.

use fresca::fresca_serve::ServerConfig;
use fresca::prelude::EvictionPolicy;
use fresca_bench::evict::{sweep, verdict, Cell, HotSet, CHURN_LARGE};

#[test]
fn node_default_policy_passes_the_default_rule() {
    let cells = [CHURN_LARGE, Cell { hot_set: HotSet::Reshuffle, ..CHURN_LARGE }];
    let node = ServerConfig::default().cache.eviction;
    let policies = [EvictionPolicy::Lru, EvictionPolicy::Slru { protected_pct: 80 }, node];
    // 300 k measured ops after the ⅓ warm-up: at 200 k in all, ARC is
    // still learning its target (1.017× LRU on the static row, against
    // 1.039× in the full sweep).
    let rows = sweep(&cells, &policies, 450_000);

    let default = verdict(&rows, "node default", 2, 0);
    assert!(default.passes, "{node:?} fails the default rule: {default:?}");
    // The rule bites: SLRU-80 gains more on the static row but gives up
    // more than a point once the hot set moves.
    let slru = verdict(&rows, "slru-80", 1, 0);
    assert!(slru.churn_large_vs_lru > default.churn_large_vs_lru, "{slru:?}");
    assert!(!slru.passes && slru.worst_row.hot_set == HotSet::Reshuffle, "{slru:?}");
}
