//! The sender policy cache: TOFU hits vs the always-refetch ablation
//! (DESIGN.md's design-choice list).

use criterion::{criterion_group, criterion_main, Criterion};
use mtasts::{Mode, MxPattern, Policy, PolicyCache};
use netbase::{DomainName, SimDate};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let domain: DomainName = "example.com".parse().unwrap();
    let policy = Policy::new(
        Mode::Enforce,
        604_800,
        vec![MxPattern::parse("mx.example.com").unwrap()],
    );
    let t0 = SimDate::ymd(2024, 6, 1).at_midnight();

    c.bench_function("cache/hit", |b| {
        let cache = PolicyCache::default();
        cache.store(domain.clone(), policy.clone(), "id1", t0);
        b.iter(|| cache.assess(black_box(&domain), Some("id1"), t0))
    });
    c.bench_function("cache/miss-id-changed", |b| {
        let cache = PolicyCache::default();
        cache.store(domain.clone(), policy.clone(), "id1", t0);
        b.iter(|| cache.assess(black_box(&domain), Some("id2"), t0))
    });
    // The ablation: always refetch = store + evict on every delivery.
    c.bench_function("cache/always-refetch", |b| {
        let cache = PolicyCache::default();
        b.iter(|| {
            cache.store(domain.clone(), policy.clone(), "id1", t0);
            cache.evict(&domain);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60);
    targets = bench_cache
}
criterion_main!(benches);
