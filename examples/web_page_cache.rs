//! Composite objects: the many-to-many extension (paper §5, open
//! question 2).
//!
//! A cached web page renders several backend objects — figures, HTML
//! fragments, tables. The paper's proposed rule: "a cached object has
//! bounded staleness if its constituent parts satisfy the staleness
//! bound". This example builds a small page catalog, drives part-level
//! writes, and shows (a) the all-parts-fresh rule in action and (b) the
//! analytic effect: a composite's effective write probability grows with
//! its fan-in, shifting the update/invalidate decision.
//!
//! ```sh
//! cargo run --release --example web_page_cache
//! ```

use fresca::fresca_core::composite::{composite_p_write, CompositeCatalog, CompositeSpec};
use fresca::prelude::*;

fn main() {
    // Page 1 renders 3 parts; page 2 renders 8 (a dashboard).
    let mut catalog = CompositeCatalog::new();
    catalog.register(CompositeSpec { id: 1000, parts: (0..3).collect() });
    catalog.register(CompositeSpec { id: 2000, parts: (10..18).collect() });

    let mut cache = SlabCache::new(Capacity::Entries(64));
    let t0 = SimTime::ZERO;
    for k in (0..3).chain(10..18) {
        cache.insert(k, 1, 2048, t0, None);
    }

    println!("== all-parts-fresh rule ==");
    println!(
        "page 1000 fresh: {:?}   page 2000 fresh: {:?}",
        catalog.is_fresh(1000, &cache, t0),
        catalog.is_fresh(2000, &cache, t0)
    );
    // One fragment of the dashboard is invalidated by a backend write.
    cache.apply_invalidate(14);
    println!(
        "after invalidating part 14: page 1000 {:?}, page 2000 {:?}",
        catalog.is_fresh(1000, &cache, t0),
        catalog.is_fresh(2000, &cache, t0)
    );
    println!(
        "(the reverse index says part 14 taints pages {:?})\n",
        catalog.composites_of(14)
    );

    // Analytic effect of fan-in: every part contributes writes, so the
    // page's effective write probability (and E[W]) grows with part
    // count. With the byte-scaled cost model (updates must carry the
    // whole re-rendered page; invalidates carry a key), wide pages flip
    // from update to invalidate.
    println!("== fan-in vs effective write probability (T = 1s) ==");
    let part = WorkloadPoint::new(1.0, 0.9); // per-part: 1 req/s, 10% writes
    let page_read_rate = 0.4; // the page itself is read 0.4x/s
    let cost = CostModel::from_bottleneck(Bottleneck::Network, PrimitiveCosts::default());
    println!("{:>8} {:>12} {:>10} {:>14}", "parts", "P_W(page)", "E[W]", "decision");
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let parts = vec![part; n];
        let pw = composite_p_write(&parts, 1.0);
        // E[W] for the page = combined part-write rate over page reads.
        let combined_write_rate = n as f64 * part.lambda * (1.0 - part.read_ratio);
        let ew = combined_write_rate / page_read_rate;
        let size = ObjectSize { key: 16, value: 2048 * n as u32 };
        let update = rules::should_update_ew(
            Some(ew),
            cost.update_cost(size),
            cost.miss_cost(size),
            cost.invalidate_cost(size),
        );
        println!(
            "{:>8} {:>12.4} {:>10.2} {:>14}",
            n,
            pw,
            ew,
            if update { "update" } else { "invalidate" }
        );
    }
    println!(
        "\nWide pages accumulate write probability from every part while an\n\
         update has to carry the whole re-rendered page, so keeping them\n\
         materialised stops paying off — the cache should invalidate and\n\
         re-render on demand. This is the paper's §5 extension made\n\
         quantitative."
    );
}
