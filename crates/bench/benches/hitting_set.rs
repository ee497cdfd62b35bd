//! Criterion comparison of the efficient GREEDY hitting set against the
//! naïve materialized baseline (Fig 17's contenders), on growing target
//! sets from a real MUP expansion. The sparse arms (λ = 2–4 over 12
//! attributes) stay in the solver's search phase; the dense arm, at the
//! repository benchmark's `remedy` shape, finishes on per-combination hit
//! counts. The `expand` and `copies` arms time the two passes around the
//! solve at that shape: target expansion and the copy counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;

use coverage_core::enhance::{
    uncovered_patterns_at_level, CoverageEnhancer, GreedyHittingSet, HittingSetSolver,
    NaiveHittingSet,
};
use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::pattern::Pattern;
use coverage_core::validation::ValidationOracle;
use coverage_core::Threshold;
use coverage_data::generators::airbnb_like;
use coverage_data::Dataset;
use coverage_index::CoverageOracle;

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
/// targets fill most of the level.
const REMEDY_TAU: u64 = 1_000;
const REMEDY_LAMBDA: usize = 6;

/// The `remedy` shape's data, cardinalities and sorted MUPs.
fn remedy_inputs() -> (Dataset, Vec<u8>, Vec<Pattern>) {
    let ds = airbnb_like(100_000, 13, 2019).expect("generator");
    let cards = ds.schema().cardinalities();
    let mut mups = DeepDiver::default()
        .find_mups(&ds, Threshold::Count(REMEDY_TAU))
        .expect("mups");
    mups.sort();
    (ds, cards, mups)
}

/// Greedy only: the naïve baseline materializes every target's
/// completions.
fn bench_dense_targets(c: &mut Criterion) {
    let (_, cards, mups) = remedy_inputs();
    let targets = uncovered_patterns_at_level(&mups, &cards, REMEDY_LAMBDA);
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

/// Target expansion and copy counting at the `remedy` shape. Each arm first
/// checks its output against the reference path: the sorted union of every
/// MUP's level-λ descendants, and one `coverage` probe per hit target.
fn bench_remedy_passes(c: &mut Criterion) {
    let (ds, cards, mups) = remedy_inputs();
    let union: BTreeSet<Pattern> = mups
        .iter()
        .flat_map(|m| m.descendants_at_level(&cards, REMEDY_LAMBDA))
        .collect();
    let targets = uncovered_patterns_at_level(&mups, &cards, REMEDY_LAMBDA);
    assert!(
        targets.iter().eq(&union),
        "expansion differs from the union"
    );

    let plan = CoverageEnhancer::default()
        .plan_for_level(&GreedyHittingSet, &mups, &cards, REMEDY_LAMBDA)
        .expect("plan");
    let oracle = CoverageOracle::from_dataset(&ds);
    let reference: Vec<u64> = plan
        .hits
        .iter()
        .map(|hit| {
            hit.iter()
                .map(|&j| REMEDY_TAU.saturating_sub(oracle.coverage(plan.targets[j].codes())))
                .max()
                .unwrap_or(1)
                .max(1)
        })
        .collect();
    assert_eq!(plan.required_copies(&oracle, REMEDY_TAU), reference);

    let mut group = c.benchmark_group("remedy_passes");
    group.sample_size(10);
    group.bench_function(format!("expand_m{}", targets.len()), |b| {
        b.iter(|| {
            black_box(uncovered_patterns_at_level(
                black_box(&mups),
                &cards,
                REMEDY_LAMBDA,
            ))
        });
    });
    group.bench_function(format!("copies_c{}", plan.output_size()), |b| {
        b.iter(|| black_box(plan.required_copies(black_box(&oracle), REMEDY_TAU)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hitting_set,
    bench_dense_targets,
    bench_remedy_passes
);
criterion_main!(benches);
