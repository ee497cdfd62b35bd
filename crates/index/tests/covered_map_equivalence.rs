//! Property tests: an oracle holding a covered map
//! ([`CoverageOracle::for_threshold`]) answers `covered(P, τ)` at its τ, and
//! a depth-first walk's `descent(τ)`, exactly as a dense oracle, on every
//! pattern of the graph. Sub-cube limits from 0 cells up set where the
//! build splits the attributes into a prefix and a suffix. Probes at any
//! other threshold, and every probe after a mutation, read the bit-vectors
//! with identical answers.

use coverage_data::{Dataset, Schema};
use coverage_index::{CoverageOracle, CoverageProvider, X};
use proptest::prelude::*;

mod common;
use common::all_patterns;

/// Sub-cube limits: 0 and 1 make every attribute a prefix attribute, the
/// default makes every schema here a single sub-cube.
const SUB_CUBES: [usize; 7] = [0, 1, 3, 8, 27, 100, 1 << 16];

fn dataset(cards: &[u8], rows: &[Vec<u8>]) -> Dataset {
    let cards: Vec<usize> = cards.iter().map(|&c| usize::from(c)).collect();
    Dataset::from_rows(Schema::with_cardinalities(&cards).unwrap(), rows).unwrap()
}

/// Reduces raw generated values into the domains of `cards`.
fn row(cards: &[u8], raw: &[u8]) -> Vec<u8> {
    raw.iter().zip(cards).map(|(&v, &c)| v % c).collect()
}

/// Walks the Rule-1 tree depth-first through `oracle.descent(tau)` as
/// DEEPDIVER does, expanding every covered node, and checks each answer
/// against `dense`.
fn assert_descent_agrees(
    oracle: &CoverageOracle,
    dense: &CoverageOracle,
    tau: u64,
) -> Result<(), TestCaseError> {
    let cards = dense.cardinalities().to_vec();
    let mut descent = CoverageProvider::descent(oracle, tau);
    let mut stack = vec![(vec![X; cards.len()], 0usize)];
    while let Some((codes, first_free)) = stack.pop() {
        let covered = descent.covered(&codes, true);
        prop_assert_eq!(
            covered,
            dense.covered(&codes, tau),
            "descent {:?} at τ = {}",
            codes,
            tau
        );
        if covered {
            for (i, &card) in cards.iter().enumerate().skip(first_free) {
                for v in 0..card {
                    let mut child = codes.clone();
                    child[i] = v;
                    stack.push((child, i + 1));
                }
            }
        }
    }
    Ok(())
}

/// Asserts `oracle` agrees with a dense oracle over `ds` on every pattern:
/// `covered` at `tau` and at the thresholds around it, and `coverage`.
fn assert_every_pattern_agrees(
    oracle: &CoverageOracle,
    ds: &Dataset,
    tau: u64,
) -> Result<(), TestCaseError> {
    let dense = CoverageOracle::from_dataset(ds);
    let probe: &dyn CoverageProvider = oracle;
    for p in all_patterns(dense.cardinalities()) {
        prop_assert_eq!(
            probe.coverage(&p),
            dense.coverage(&p),
            "coverage of {:?}",
            p
        );
        for t in [tau.saturating_sub(1), tau, tau + 1] {
            prop_assert_eq!(
                probe.covered(&p, t),
                dense.covered(&p, t),
                "covered {:?} at τ = {}",
                p,
                t
            );
        }
    }
    assert_descent_agrees(oracle, &dense, tau)?;
    assert_descent_agrees(oracle, &dense, tau + 1)
}

/// Random schema (d ≤ 7, cardinalities 1–4), rows, τ and sub-cube limit.
#[allow(clippy::type_complexity)]
fn workload() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>, u64, usize)> {
    proptest::collection::vec(1u8..=4, 1..=7).prop_flat_map(|cards| {
        let d = cards.len();
        let rows = proptest::collection::vec(proptest::collection::vec(0u8..=255, d), 0..40);
        (Just(cards), rows, 0u64..12, 0..SUB_CUBES.len())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn covered_map_equals_the_dense_oracle_on_every_pattern(workload in workload()) {
        let (cards, raw, tau, sub_cube) = workload;
        let rows: Vec<Vec<u8>> = raw.iter().map(|r| row(&cards, r)).collect();
        let ds = dataset(&cards, &rows);
        let oracle = CoverageOracle::for_threshold_in_sub_cubes(&ds, tau, SUB_CUBES[sub_cube]);
        prop_assert_eq!(oracle.covered_map_threshold(), Some(tau));
        assert_every_pattern_agrees(&oracle, &ds, tau)?;
    }

    /// Selector 0 = insert, 1 = delete a present row, 2 = delete the raw
    /// row whether present or not, 3 = grow the attribute the first raw
    /// value picks. A change to the rows or the schema drops the map.
    #[test]
    fn a_mutation_drops_the_map_and_answers_equal_a_rebuild(
        workload in workload(),
        selector in 0u8..4,
        op in proptest::collection::vec(0u8..=255, 7),
    ) {
        let (mut cards, raw, tau, sub_cube) = workload;
        let mut rows: Vec<Vec<u8>> = raw.iter().map(|r| row(&cards, r)).collect();
        let mut oracle =
            CoverageOracle::for_threshold_in_sub_cubes(&dataset(&cards, &rows), tau, SUB_CUBES[sub_cube]);
        let target = match (selector, rows.is_empty()) {
            (1, false) => rows[usize::from(op[0]) % rows.len()].clone(),
            _ => row(&cards, &op),
        };
        let changed = match selector {
            0 => {
                oracle.add_row(&target);
                rows.push(target);
                true
            }
            1 | 2 => {
                let present = rows.iter().position(|r| *r == target);
                prop_assert_eq!(oracle.remove_row(&target), present.is_some());
                if let Some(k) = present {
                    rows.swap_remove(k);
                }
                present.is_some()
            }
            _ => {
                let attribute = usize::from(op[0]) % cards.len();
                prop_assert_eq!(oracle.grow_value(attribute), cards[attribute]);
                cards[attribute] += 1;
                true
            }
        };
        prop_assert_eq!(oracle.covered_map_threshold().is_none(), changed);
        assert_every_pattern_agrees(&oracle, &dataset(&cards, &rows), tau)?;
    }
}

/// Example 1 of the paper.
fn example1() -> Dataset {
    dataset(
        &[2, 2, 2],
        &[
            vec![0, 1, 0],
            vec![0, 0, 1],
            vec![0, 0, 0],
            vec![0, 1, 1],
            vec![0, 0, 1],
        ],
    )
}

#[test]
fn a_schema_past_the_cell_budget_gets_no_map() {
    // 3^14 nodes pass the 2^22-cell default budget.
    let rows: Vec<Vec<u8>> = (0..50u32)
        .map(|k| (0..14).map(|i| ((k * 7) >> (i % 6) & 1) as u8).collect())
        .collect();
    let ds = dataset(&[2; 14], &rows);
    let oracle = CoverageOracle::for_threshold(&ds, 3);
    assert_eq!(oracle.covered_map_threshold(), None);
    let dense = CoverageOracle::from_dataset(&ds);
    assert_eq!(oracle.memory_stats(), dense.memory_stats());
    let mut probe = vec![X; 14];
    for (i, v) in [(0, 1), (3, 0), (13, 1)] {
        probe[i] = v;
        assert_eq!(
            CoverageProvider::covered(&oracle, &probe, 3),
            dense.covered(&probe, 3)
        );
    }
    assert_descent_agrees(&oracle, &dense, 3).unwrap();
}

#[test]
fn tau_zero_covers_every_pattern_and_an_empty_dataset_none() {
    for sub_cube in SUB_CUBES {
        let covered_all = CoverageOracle::for_threshold_in_sub_cubes(&example1(), 0, sub_cube);
        let empty = dataset(&[2, 3, 1], &[]);
        let uncovered = CoverageOracle::for_threshold_in_sub_cubes(&empty, 1, sub_cube);
        for p in all_patterns(&[2, 2, 2]) {
            assert!(CoverageProvider::covered(&covered_all, &p, 0), "{p:?}");
        }
        for p in all_patterns(&[2, 3, 1]) {
            assert!(!CoverageProvider::covered(&uncovered, &p, 1), "{p:?}");
        }
        let vacuous = CoverageOracle::for_threshold_in_sub_cubes(&empty, 0, sub_cube);
        assert_every_pattern_agrees(&vacuous, &empty, 0).unwrap();
        assert_every_pattern_agrees(&uncovered, &empty, 1).unwrap();
    }
}
