//! Property tests: a [`CoverageOracle`] holding its coverage lattice answers
//! every pattern of the graph — through the [`CoverageProvider`] probes,
//! which read the lattice — exactly as a dense oracle rebuilt from scratch,
//! after each step of random insert/delete/grow streams. Budgets small
//! enough to be crossed mid-stream check that dropping the lattice changes
//! no answer.

use coverage_data::{Dataset, Schema};
use coverage_index::{CoverageBackend, CoverageOracle, CoverageProvider, LatticeBudget};
use proptest::prelude::*;

mod common;
use common::all_patterns;

/// The multiset of live rows and the current cardinalities: what a dense
/// oracle is rebuilt from after every step.
struct Model {
    cards: Vec<u8>,
    rows: Vec<Vec<u8>>,
}

impl Model {
    fn dataset(&self) -> Dataset {
        let cards: Vec<usize> = self.cards.iter().map(|&c| usize::from(c)).collect();
        Dataset::from_rows(Schema::with_cardinalities(&cards).unwrap(), &self.rows).unwrap()
    }

    /// Reduces raw generated values into the current domains.
    fn row(&self, raw: &[u8]) -> Vec<u8> {
        raw.iter().zip(&self.cards).map(|(&v, &c)| v % c).collect()
    }
}

/// Asserts `lattice` agrees with a dense rebuild of `model` on every
/// pattern: `coverage` exactly, `covered` at several thresholds (by codes,
/// and by node while the lattice is held), and `coverage_capped` up to its
/// contract (exact below the cap, at least the cap above it), so both sides
/// clamp to the cap before comparing.
fn assert_every_pattern_agrees(
    lattice: &CoverageOracle,
    model: &Model,
) -> Result<(), TestCaseError> {
    let dense = CoverageOracle::from_dataset(&model.dataset());
    let probe: &dyn CoverageProvider = lattice;
    prop_assert_eq!(probe.total(), dense.total());
    prop_assert_eq!(probe.cardinalities(), dense.cardinalities());
    for p in all_patterns(&model.cards) {
        let expect = dense.coverage(&p);
        prop_assert_eq!(probe.coverage(&p), expect, "coverage of {:?}", p);
        for tau in [0, 1, 2, 3, expect, expect + 1] {
            prop_assert_eq!(
                probe.covered(&p, tau),
                dense.covered(&p, tau),
                "covered {:?} at τ = {}",
                p,
                tau
            );
            prop_assert_eq!(probe.covered_nodes(tau).is_some(), lattice.has_lattice());
            if let Some(nodes) = probe.covered_nodes(tau) {
                prop_assert_eq!(
                    nodes.covered(nodes.layout().node(&p)),
                    dense.covered(&p, tau),
                    "node of {:?} at τ = {}",
                    p,
                    tau
                );
            }
            prop_assert_eq!(
                probe.coverage_capped(&p, tau).min(tau),
                dense.coverage_capped(&p, tau).min(tau),
                "capped {:?} at cap {}",
                p,
                tau
            );
        }
    }
    Ok(())
}

/// Random schema (d ≤ 6, cardinalities 1–4), base rows, an op stream and a
/// budget mode. Ops: selector 0 = delete a live row (picked by the raw
/// values), 1 = delete the raw row whether present or not, 2 = grow the
/// attribute the first raw value picks, anything else = insert.
#[allow(clippy::type_complexity)]
fn workload() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>, Vec<(u8, Vec<u8>)>, u8)> {
    proptest::collection::vec(1u8..=4, 1..=6).prop_flat_map(|cards| {
        let d = cards.len();
        let base = proptest::collection::vec(proptest::collection::vec(0u8..=255, d), 0..12);
        let ops =
            proptest::collection::vec((0u8..6, proptest::collection::vec(0u8..=255, d)), 1..16);
        (Just(cards), base, ops, 0u8..3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lattice_oracle_equals_dense_rebuild_after_every_step(workload in workload()) {
        let (cards, raw_base, ops, mode) = workload;
        let mut model = Model { cards, rows: Vec::new() };
        model.rows = raw_base.iter().map(|raw| model.row(raw)).collect();
        let cells: usize = model.cards.iter().map(|&c| usize::from(c) + 1).product();
        // Mode 0 is the engine's default; mode 1 admits no grow; mode 2
        // admits two more rows than the base holds.
        let budget = match mode {
            0 => LatticeBudget::default(),
            1 => LatticeBudget { cells, ..LatticeBudget::default() },
            _ => LatticeBudget { rows: model.rows.len() as u32 + 2, ..LatticeBudget::default() },
        };
        let mut oracle = match mode {
            0 => <CoverageOracle as CoverageBackend>::build(&model.dataset(), 1),
            _ => CoverageOracle::with_lattice(&model.dataset(), budget),
        };
        let mut held = true;
        prop_assert!(oracle.has_lattice());
        assert_every_pattern_agrees(&oracle, &model)?;
        for (selector, raw) in &ops {
            let row = model.row(raw);
            match selector {
                0 | 1 => {
                    let victim = match (selector, model.rows.is_empty()) {
                        (0, false) => model.rows[usize::from(raw[0]) % model.rows.len()].clone(),
                        _ => row,
                    };
                    let present = model.rows.iter().position(|r| *r == victim);
                    prop_assert_eq!(oracle.remove_row(&victim), present.is_some());
                    if let Some(k) = present {
                        model.rows.swap_remove(k);
                    }
                }
                2 => {
                    let attribute = usize::from(raw[0]) % model.cards.len();
                    if model.cards[attribute] < 8 {
                        prop_assert_eq!(oracle.grow_value(attribute), model.cards[attribute]);
                        model.cards[attribute] += 1;
                        held &= budget.cells_for(&model.cards).is_some();
                    }
                }
                _ => {
                    oracle.add_row(&row);
                    model.rows.push(row);
                    held &= model.rows.len() as u64 <= u64::from(budget.rows);
                }
            }
            prop_assert_eq!(oracle.has_lattice(), held, "lattice kept iff within budget");
            assert_every_pattern_agrees(&oracle, &model)?;
        }
    }
}

/// Example 1 of the paper over cardinalities 2, 2, 2.
fn example1() -> Model {
    Model {
        cards: vec![2, 2, 2],
        rows: vec![
            vec![0, 1, 0],
            vec![0, 0, 1],
            vec![0, 0, 0],
            vec![0, 1, 1],
            vec![0, 0, 1],
        ],
    }
}

#[test]
fn a_grow_past_the_cell_budget_drops_the_lattice() {
    let mut model = example1();
    let budget = LatticeBudget {
        cells: 36,
        ..LatticeBudget::default()
    };
    let mut oracle = CoverageOracle::with_lattice(&model.dataset(), budget);
    assert!(oracle.has_lattice());
    // 3·3·3 = 27 cells → 4·3·3 = 36 still fits: the lattice is rebuilt.
    assert_eq!(oracle.grow_value(0), 2);
    model.cards[0] = 3;
    assert!(oracle.has_lattice());
    oracle.add_row(&[2, 1, 1]);
    model.rows.push(vec![2, 1, 1]);
    assert_every_pattern_agrees(&oracle, &model).unwrap();
    // 4·4·3 = 48 cells passes it: dense answers from here on.
    assert_eq!(oracle.grow_value(1), 2);
    model.cards[1] = 3;
    assert!(!oracle.has_lattice());
    assert_every_pattern_agrees(&oracle, &model).unwrap();
    oracle.add_row(&[2, 2, 0]);
    model.rows.push(vec![2, 2, 0]);
    assert!(oracle.remove_row(&[0, 0, 1]));
    model.rows.retain(|r| r != &[0, 0, 1]);
    model.rows.push(vec![0, 0, 1]);
    assert!(!oracle.has_lattice(), "a dropped lattice stays dropped");
    assert_every_pattern_agrees(&oracle, &model).unwrap();
}

#[test]
fn an_insert_past_the_row_limit_drops_the_lattice() {
    // The same guard keeps every u32 count below u32::MAX at the default.
    assert_eq!(LatticeBudget::default().rows, u32::MAX);
    let mut model = example1();
    let budget = LatticeBudget {
        rows: 6,
        ..LatticeBudget::default()
    };
    assert!(
        !CoverageOracle::with_lattice(&model.dataset(), LatticeBudget { rows: 4, ..budget })
            .has_lattice()
    );
    let mut oracle = CoverageOracle::with_lattice(&model.dataset(), budget);
    oracle.add_row(&[1, 1, 1]);
    model.rows.push(vec![1, 1, 1]);
    assert!(
        oracle.has_lattice(),
        "six rows reach the limit without passing it"
    );
    assert_every_pattern_agrees(&oracle, &model).unwrap();
    oracle.add_row(&[1, 0, 1]);
    model.rows.push(vec![1, 0, 1]);
    assert!(!oracle.has_lattice());
    assert_every_pattern_agrees(&oracle, &model).unwrap();
    assert!(oracle.remove_row(&[1, 1, 1]));
    model.rows.retain(|r| r != &[1, 1, 1]);
    assert_every_pattern_agrees(&oracle, &model).unwrap();
}

#[test]
fn removing_an_absent_row_leaves_the_lattice_untouched() {
    let model = example1();
    let mut oracle = <CoverageOracle as CoverageBackend>::build(&model.dataset(), 1);
    let before = oracle.memory_stats();
    assert!(!oracle.remove_row(&[1, 1, 1]));
    assert!(oracle.has_lattice());
    assert_eq!(oracle.memory_stats(), before);
    assert_every_pattern_agrees(&oracle, &model).unwrap();
}
