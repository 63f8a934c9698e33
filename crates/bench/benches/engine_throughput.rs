//! End-to-end engine throughput: requests replayed per second for each
//! policy on the ideal link, plus one lossy row (adaptive, 5 % drop,
//! reliable) for the link path's replay cost. Keeps the figure harnesses
//! honest about their own runtime and catches accidental O(n²)
//! regressions in the hot loop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fresca_core::engine::{EngineConfig, LinkConfig, PolicyConfig, Retransmit, TraceEngine};
use fresca_net::FaultConfig;
use fresca_sim::SimDuration;
use fresca_workload::{PoissonZipfConfig, WorkloadGen};

fn bench_engine(c: &mut Criterion) {
    let trace = PoissonZipfConfig {
        rate: 100.0,
        num_keys: 500,
        read_ratio: 0.9,
        horizon: SimDuration::from_secs(100),
        ..Default::default()
    }
    .generate(1);

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    for policy in [
        PolicyConfig::TtlExpiry,
        PolicyConfig::TtlPolling,
        PolicyConfig::AlwaysInvalidate,
        PolicyConfig::AlwaysUpdate,
        PolicyConfig::adaptive(),
        PolicyConfig::Oracle,
    ] {
        group.bench_with_input(
            BenchmarkId::new("replay", policy.name()),
            &policy,
            |b, &policy| {
                let cfg = EngineConfig {
                    staleness_bound: SimDuration::from_secs(1),
                    ..EngineConfig::default()
                };
                b.iter(|| black_box(TraceEngine::new(cfg, policy).run(&trace)));
            },
        );
    }
    group.bench_function(BenchmarkId::new("replay", "adaptive-lossy"), |b| {
        let cfg = EngineConfig {
            staleness_bound: SimDuration::from_secs(1),
            link: LinkConfig {
                faults: FaultConfig { drop_prob: 0.05, ..FaultConfig::default() },
                net_seed: 7,
                reliable: Some(Retransmit { rto: SimDuration::from_millis(50), max_retries: 8 }),
            },
            ..EngineConfig::default()
        };
        b.iter(|| black_box(TraceEngine::new(cfg, PolicyConfig::adaptive()).run(&trace)));
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
