//! Microbenchmarks for the Appendix B MUP dominance index: insertion and
//! the dominated-by check at several index sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coverage_index::{MupDominanceIndex, X};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_pattern(rng: &mut ChaCha8Rng, cards: &[u8]) -> Vec<u8> {
    cards
        .iter()
        .map(|&c| {
            if rng.random::<f64>() < 0.5 {
                X
            } else {
                rng.random_range(0..c)
            }
        })
        .collect()
}

fn bench_dominance(c: &mut Criterion) {
    let cards = vec![2u8; 15];
    let mut group = c.benchmark_group("dominance_index");
    for size in [1_000usize, 10_000, 100_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut index = MupDominanceIndex::new(&cards);
        for _ in 0..size {
            index.add(&random_pattern(&mut rng, &cards));
        }
        let probes: Vec<Vec<u8>> = (0..64).map(|_| random_pattern(&mut rng, &cards)).collect();
        group.bench_with_input(
            BenchmarkId::new("dominated_by_any", size),
            &probes,
            |b, probes| {
                b.iter(|| {
                    for p in probes {
                        black_box(index.dominated_by_any(black_box(p)));
                    }
                });
            },
        );
    }
    group.finish();

    c.bench_function("dominance_add_10k", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let patterns: Vec<Vec<u8>> = (0..10_000)
            .map(|_| random_pattern(&mut rng, &cards))
            .collect();
        b.iter(|| {
            let mut index = MupDominanceIndex::new(&cards);
            for p in &patterns {
                index.add(black_box(p));
            }
            black_box(index.len())
        });
    });
}

criterion_group!(benches, bench_dominance);
criterion_main!(benches);
