//! Cache substrate costs: hit/miss/insert/invalidate paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fresca_cache::{Capacity, SlabCache};
use fresca_sim::SimTime;

fn cache(entries: usize) -> SlabCache {
    SlabCache::new(Capacity::Entries(entries))
}

fn bench_cache_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("get_hit", |b| {
        let mut ca = cache(4096);
        for k in 0..4096u64 {
            ca.insert(k, 1, 64, SimTime::ZERO, None);
        }
        let mut i = 0u64;
        b.iter(|| {
            let k = (i * 2654435761) % 4096;
            i += 1;
            black_box(ca.get(black_box(k), SimTime::from_secs(1)))
        });
    });
    group.bench_function("get_cold_miss", |b| {
        let mut ca = cache(64);
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            black_box(ca.get(black_box(i), SimTime::from_secs(1)))
        });
    });
    group.bench_function("insert_evict", |b| {
        let mut ca = cache(1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(ca.insert(i, 1, 64, SimTime::from_nanos(i), None))
        });
    });
    group.bench_function("apply_invalidate", |b| {
        let mut ca = cache(4096);
        for k in 0..4096u64 {
            ca.insert(k, 1, 64, SimTime::ZERO, None);
        }
        let mut i = 0u64;
        b.iter(|| {
            let k = (i * 2654435761) % 4096;
            i += 1;
            black_box(ca.apply_invalidate(k))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cache_paths);
criterion_main!(benches);
