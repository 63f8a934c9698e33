//! Cache substrate costs: hit/miss/insert/invalidate paths and the timer
//! wheel.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fresca_cache::{Capacity, SlabCache, TimerWheel};
use fresca_sim::{SimDuration, SimTime};

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

fn bench_timer_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer_wheel");
    group.bench_function("schedule_cancel", |b| {
        let mut wheel: TimerWheel<u64> = TimerWheel::new(SimDuration::from_millis(1));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let tok = wheel.schedule(SimTime::from_millis(i % 60_000 + 1), i);
            black_box(wheel.cancel(tok))
        });
    });
    group.bench_function("rearm_cycle", |b| {
        // TTL-polling style: 1024 timers, advance one tick, re-arm fired.
        let mut wheel: TimerWheel<u64> = TimerWheel::new(SimDuration::from_millis(1));
        for k in 0..1024u64 {
            wheel.schedule(SimTime::from_millis(k % 100 + 1), k);
        }
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            for (_, k) in wheel.advance(SimTime::from_millis(now)) {
                wheel.schedule(SimTime::from_millis(now + 100), k);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cache_paths, bench_timer_wheel);
criterion_main!(benches);
