//! Criterion comparison of the efficient GREEDY hitting set against the
//! naïve materialized baseline (Fig 17's contenders), on growing target
//! sets from a real MUP expansion. The sparse arms (λ = 2–4 over 12
//! attributes) stay in the solver's search phase; the dense arm, at the
//! repository benchmark's `remedy` shape, finishes on per-combination hit
//! counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coverage_core::enhance::{
    uncovered_patterns_at_level, GreedyHittingSet, HittingSetSolver, NaiveHittingSet,
};
use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::validation::ValidationOracle;
use coverage_core::Threshold;
use coverage_data::generators::airbnb_like;

fn bench_hitting_set(c: &mut Criterion) {
    let ds = airbnb_like(20_000, 12, 3).expect("generator");
    let cards = ds.schema().cardinalities();
    let mups = DeepDiver::default()
        .find_mups(&ds, Threshold::Fraction(1e-3))
        .expect("mups");
    let oracle = ValidationOracle::accept_all();

    let mut group = c.benchmark_group("hitting_set");
    group.sample_size(10);
    for lambda in [2usize, 3, 4] {
        let targets = uncovered_patterns_at_level(&mups, &cards, lambda);
        group.bench_with_input(
            BenchmarkId::new(format!("greedy_m{}", targets.len()), lambda),
            &targets,
            |b, targets| {
                b.iter(|| {
                    black_box(
                        GreedyHittingSet
                            .solve(black_box(targets), &cards, &oracle)
                            .expect("solve"),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("naive_m{}", targets.len()), lambda),
            &targets,
            |b, targets| {
                b.iter(|| {
                    black_box(
                        NaiveHittingSet::default()
                            .solve(black_box(targets), &cards, &oracle)
                            .expect("solve"),
                    )
                });
            },
        );
    }
    group.finish();
}

/// The `remedy` shape: AirBnB-like 100k × 13, τ = 1,000, level 6, whose
/// targets fill most of the level. Greedy only: the naïve baseline
/// materializes every target's completions.
fn bench_dense_targets(c: &mut Criterion) {
    let ds = airbnb_like(100_000, 13, 2019).expect("generator");
    let cards = ds.schema().cardinalities();
    let mups = DeepDiver::default()
        .find_mups(&ds, Threshold::Count(1_000))
        .expect("mups");
    let targets = uncovered_patterns_at_level(&mups, &cards, 6);
    let oracle = ValidationOracle::accept_all();

    let mut group = c.benchmark_group("hitting_set_dense");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new(format!("greedy_m{}", targets.len()), 6),
        &targets,
        |b, targets| {
            b.iter(|| {
                black_box(
                    GreedyHittingSet
                        .solve(black_box(targets), &cards, &oracle)
                        .expect("solve"),
                )
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_hitting_set, bench_dense_targets);
criterion_main!(benches);
