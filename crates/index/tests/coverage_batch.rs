//! `coverage_batch` answers exactly what one `coverage` probe per pattern
//! answers, on a dense oracle, a lattice-backed one and a covered-map-backed
//! one. The batches are unsorted, repeat patterns, include the all-`X`
//! root and the empty batch, and fall on both sides of the rule that sweeps
//! the whole pattern graph instead of probing each pattern. The 11-attribute
//! schema's graph spans more than one sub-cube, so its sweep walks a prefix.

use coverage_data::{Dataset, Schema};
use coverage_index::{CoverageOracle, CoverageProvider, LatticeBudget, X};
use proptest::prelude::*;

mod common;
use common::all_patterns;

fn dataset(cards: &[u8], rows: &[Vec<u8>]) -> Dataset {
    let cards: Vec<usize> = cards.iter().map(|&c| usize::from(c)).collect();
    Dataset::from_rows(Schema::with_cardinalities(&cards).unwrap(), rows).unwrap()
}

/// `n` rows over `cards` from a fixed linear congruential stream.
fn rows(cards: &[u8], n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            cards
                .iter()
                .map(|&c| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % u64::from(c)) as u8
                })
                .collect()
        })
        .collect()
}

/// `patterns` in a scrambled order, with every seventh one repeated.
fn scrambled(patterns: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let n = patterns.len();
    // 7919 is prime, so stepping by it visits every index once unless it
    // divides `n`.
    let step = if n.is_multiple_of(7919) { 1 } else { 7919 };
    let mut out: Vec<Vec<u8>> = (0..n).map(|k| patterns[k * step % n].clone()).collect();
    out.extend(out.iter().step_by(7).cloned().collect::<Vec<_>>());
    out
}

/// Asserts every oracle over `ds` answers `batch` as per-pattern probes do,
/// through the provider trait and the dense oracle's own method, and
/// returns whether the dense oracle sweeps it.
fn assert_batch_agrees(ds: &Dataset, batch: &[Vec<u8>]) -> bool {
    let dense = CoverageOracle::from_dataset(ds);
    let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    let expected: Vec<u64> = refs.iter().map(|p| dense.coverage(p)).collect();
    let oracles = [
        ("dense", dense.clone()),
        (
            "lattice",
            CoverageOracle::with_lattice(ds, LatticeBudget::default()),
        ),
        ("covered map", CoverageOracle::for_threshold(ds, 2)),
    ];
    for (name, oracle) in &oracles {
        assert_eq!(
            CoverageProvider::coverage_batch(oracle, &refs),
            expected,
            "{name} provider batch"
        );
        assert_eq!(oracle.coverage_batch(&refs), expected, "{name} batch");
    }
    dense.batch_sweeps(&refs)
}

#[test]
fn the_empty_batch_answers_nothing() {
    let ds = dataset(&[2, 3], &rows(&[2, 3], 10, 1));
    assert!(!assert_batch_agrees(&ds, &[]));
}

#[test]
fn a_small_unsorted_batch_is_probed() {
    let cards = [3u8, 3, 2, 4, 2, 3];
    let ds = dataset(&cards, &rows(&cards, 400, 2));
    let batch = vec![
        vec![X; 6],
        vec![2, X, X, 1, X, 0],
        vec![0, 0, 0, 0, 0, 0],
        vec![X; 6],
        vec![X, 1, X, X, X, X],
        vec![2, X, X, 1, X, 0],
    ];
    assert!(!assert_batch_agrees(&ds, &batch), "six probes cost less");
}

#[test]
fn every_pattern_in_one_batch_is_swept() {
    let cards = [3u8, 3, 2, 4, 2, 3];
    let ds = dataset(&cards, &rows(&cards, 400, 3));
    let every = all_patterns(&cards);
    assert!(assert_batch_agrees(&ds, &every), "ascending");
    assert!(assert_batch_agrees(&ds, &scrambled(&every)), "scrambled");
}

#[test]
fn a_graph_past_one_sub_cube_is_swept_through_its_prefix() {
    // 3^11 = 177,147 nodes, where a sub-cube holds at most 2^16.
    let cards = [2u8; 11];
    let ds = dataset(&cards, &rows(&cards, 500, 4));
    let every = all_patterns(&cards);
    assert!(assert_batch_agrees(&ds, &every), "ascending");
    let mut batch = scrambled(&every);
    batch.truncate(60_000);
    batch.push(vec![X; 11]);
    assert!(assert_batch_agrees(&ds, &batch), "scrambled");
    assert!(!assert_batch_agrees(&ds, &batch[..40]), "a short batch");
}

#[test]
fn a_graph_past_the_cell_budget_is_never_swept() {
    // 3^14 nodes pass the 2^22-cell default budget.
    let cards = [2u8; 14];
    let ds = dataset(&cards, &rows(&cards, 300, 5));
    let mut batch = Vec::new();
    for (k, row) in rows(&cards, 3_000, 6).into_iter().enumerate() {
        let mut pattern = row;
        for (i, code) in pattern.iter_mut().enumerate() {
            if (k + i) % 3 != 0 {
                *code = X;
            }
        }
        batch.push(pattern);
    }
    assert!(!assert_batch_agrees(&ds, &batch));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random schemas (d ≤ 6, cardinalities 1–4), rows and batches drawn
    /// with repeats from the pattern graph, optionally followed by every
    /// pattern so that the sweep side is taken too.
    #[test]
    fn random_batches_agree(
        cards in proptest::collection::vec(1u8..=4, 1..=6),
        seed in 0u64..1_000,
        n in 0usize..200,
        picks in proptest::collection::vec(0usize..100_000, 0..80),
        every in 0u8..2,
    ) {
        let ds = dataset(&cards, &rows(&cards, n, seed));
        let patterns = all_patterns(&cards);
        let mut batch: Vec<Vec<u8>> =
            picks.iter().map(|&k| patterns[k % patterns.len()].clone()).collect();
        if every == 1 {
            batch.extend(patterns.iter().rev().cloned());
        }
        assert_batch_agrees(&ds, &batch);
    }
}
