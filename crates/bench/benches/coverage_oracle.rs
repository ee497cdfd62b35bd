//! Microbenchmarks for the Appendix A coverage oracle: exact coverage and
//! the early-exit `covered` predicate at several pattern levels, the
//! coverage lattice a serving engine's oracle answers from, and the covered
//! map a batch audit's oracle answers from.
//!
//! The lattice arm runs on the BlueNile-like catalog (380,160 pattern-graph
//! nodes). Before timing it asserts that the lattice and the dense bit-vector
//! path give identical answers on a fixed probe set, and that lattice point
//! probes are at least 10× faster than dense ones.
//!
//! The covered-map arm runs DEEPDIVER on 100k Airbnb-like rows over 13
//! binary attributes (3^13 nodes) at τ = 100 through each of the three
//! oracles, asserts they find the same MUPs, and prints each oracle's build
//! time, walk time and bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_data::generators::{airbnb_like, bluenile_like, BLUENILE_ROWS};
use coverage_data::Dataset;
use coverage_index::{CoverageBackend, CoverageOracle, CoverageProvider, LatticeBudget, X};

fn bench_oracle(c: &mut Criterion) {
    let ds = airbnb_like(100_000, 15, 7).expect("generator");
    let oracle = CoverageOracle::from_dataset(&ds);
    let mut group = c.benchmark_group("coverage_oracle");
    for level in [1usize, 4, 8, 12] {
        let mut codes = vec![X; 15];
        for slot in codes.iter_mut().take(level) {
            *slot = 1;
        }
        group.bench_with_input(BenchmarkId::new("coverage", level), &codes, |b, codes| {
            b.iter(|| black_box(oracle.coverage(black_box(codes))));
        });
        group.bench_with_input(
            BenchmarkId::new("covered_tau100", level),
            &codes,
            |b, codes| {
                b.iter(|| black_box(oracle.covered(black_box(codes), 100)));
            },
        );
    }
    group.finish();

    let mut build = c.benchmark_group("oracle_build");
    build.sample_size(10);
    build.bench_function("100k_rows_d15", |b| {
        b.iter(|| black_box(CoverageOracle::from_dataset(black_box(&ds))));
    });
    build.finish();
}

/// Mean per-probe latency of `probe` over `patterns`, best of 5 passes:
/// the minimum is the figure least disturbed by other load.
fn per_probe_ns(patterns: &[Vec<u8>], probe: impl Fn(&[u8]) -> u64) -> f64 {
    let best = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for p in patterns {
                acc = acc.wrapping_add(probe(black_box(p)));
            }
            black_box(acc);
            start.elapsed()
        })
        .min()
        .expect("ran at least once");
    best.as_nanos() as f64 / patterns.len().max(1) as f64
}

fn bench_lattice(c: &mut Criterion) {
    let ds = bluenile_like(BLUENILE_ROWS, 2019).expect("generator");
    // What a serving engine builds: the lattice plus the dense bit-vectors,
    // which the inherent probes still read.
    let oracle = <CoverageOracle as CoverageBackend>::build(&ds, 1);
    assert!(oracle.has_lattice(), "the BlueNile schema fits the budget");
    let lattice = |p: &[u8]| CoverageProvider::coverage(&oracle, p);
    let dense = |p: &[u8]| oracle.coverage(p);

    // Every 97th row, with a rotating set of elements turned into X.
    let probes: Vec<Vec<u8>> = ds
        .rows()
        .step_by(97)
        .take(512)
        .enumerate()
        .map(|(k, row)| {
            row.iter()
                .enumerate()
                .map(|(i, &v)| if (k >> i) & 1 == 1 { X } else { v })
                .collect()
        })
        .collect();
    for p in &probes {
        let count = dense(p);
        assert_eq!(lattice(p), count, "lattice and dense diverged on {p:?}");
        for tau in [1, count, count + 1] {
            assert_eq!(
                CoverageProvider::covered(&oracle, p, tau),
                oracle.covered(p, tau),
                "covered diverged on {p:?} at τ = {tau}"
            );
        }
    }
    let dense_ns = per_probe_ns(&probes, dense);
    let lattice_ns = per_probe_ns(&probes, lattice);
    println!(
        "coverage_lattice summary: {} probes on {BLUENILE_ROWS} BlueNile rows — \
         dense {dense_ns:.0} ns vs lattice {lattice_ns:.1} ns per point probe ({:.0}x)",
        probes.len(),
        dense_ns / lattice_ns
    );
    assert!(
        dense_ns >= 10.0 * lattice_ns,
        "lattice point probes must be ≥10x faster than dense: {lattice_ns:.1} ns vs {dense_ns:.0} ns"
    );

    let mut group = c.benchmark_group("coverage_lattice");
    group.bench_function("point_probe_dense", |b| {
        b.iter(|| {
            probes
                .iter()
                .fold(0u64, |acc, p| acc.wrapping_add(dense(p)))
        });
    });
    group.bench_function("point_probe_lattice", |b| {
        b.iter(|| {
            probes
                .iter()
                .fold(0u64, |acc, p| acc.wrapping_add(lattice(p)))
        });
    });
    group.sample_size(10);
    group.bench_function("build_bluenile", |b| {
        b.iter(|| black_box(<CoverageOracle as CoverageBackend>::build(black_box(&ds), 1).total()));
    });
    group.finish();
}

/// Builds an oracle over a dataset for a walk at a threshold.
type BuildOracle = fn(&Dataset, u64) -> CoverageOracle;

/// The three oracles DEEPDIVER can walk: the bit-vectors alone, with the
/// lattice, and with the covered map at the walk's τ.
const ORACLES: [(&str, BuildOracle); 3] = [
    ("dense", |ds, _| CoverageOracle::from_dataset(ds)),
    ("lattice", |ds, _| {
        CoverageOracle::with_lattice(ds, LatticeBudget::default())
    }),
    ("map", CoverageOracle::for_threshold),
];

fn bench_covered_map(c: &mut Criterion) {
    const TAU: u64 = 100;
    let ds = airbnb_like(100_000, 13, 42).expect("generator");
    let walk = |oracle: &CoverageOracle| {
        let mut mups = DeepDiver::default()
            .find_mups_with_oracle(oracle, TAU)
            .expect("DeepDiver");
        mups.sort();
        mups
    };
    // Best of 5, the figure least disturbed by other load.
    let best = |f: &mut dyn FnMut() -> Duration| (0..5).map(|_| f()).min().expect("ran");
    let mut reference = None;
    for (name, build) in ORACLES {
        let build_time = best(&mut || {
            let start = Instant::now();
            black_box(build(&ds, TAU));
            start.elapsed()
        });
        let oracle = build(&ds, TAU);
        let walk_time = best(&mut || {
            let start = Instant::now();
            black_box(walk(&oracle));
            start.elapsed()
        });
        let mups = walk(&oracle);
        match &reference {
            None => reference = Some(mups),
            Some(dense) => assert_eq!(&mups, dense, "the {name} oracle finds other MUPs"),
        }
        println!(
            "covered_map summary: {name:>7} oracle on 100k x 13 at τ = {TAU}: build {:.1} ms, \
             walk {:.1} ms, {} bytes",
            build_time.as_secs_f64() * 1e3,
            walk_time.as_secs_f64() * 1e3,
            oracle.memory_stats().bytes
        );
    }
    println!(
        "covered_map summary: {} MUPs, identical through every oracle",
        reference.map_or(0, |m| m.len())
    );

    let mut group = c.benchmark_group("covered_map");
    group.sample_size(10);
    for (name, build) in ORACLES {
        group.bench_function(BenchmarkId::new("build_and_walk", name), |b| {
            b.iter(|| black_box(walk(&build(black_box(&ds), TAU)).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle, bench_lattice, bench_covered_map);
criterion_main!(benches);
