//! Properties of DeepDiver on small random datasets: it finds exactly the
//! MUPs of the naive enumeration, every backend's descent finds the same
//! ones, and the ancestor check of Algorithm 3 — which the walk leaves out
//! — would never fire.

use std::cell::Cell;

use coverage_core::mup::{DeepDiver, MupAlgorithm, NaiveMup, PatternBreaker};
use coverage_core::pattern::{Pattern, X};
use coverage_data::{Dataset, Schema};
use coverage_index::{CompressedOracle, CoverageOracle, CoverageProvider, ShardedOracle};
use proptest::prelude::*;

/// Algorithm 3 as it stood with the ancestor check: a popped node that
/// dominates a discovered MUP skips its probe and expands directly. Both
/// dominance checks are linear scans. Returns the MUPs and how often the
/// ancestor check fired.
fn walk_with_ancestor_check(
    oracle: &dyn CoverageProvider,
    tau: u64,
    max_level: Option<usize>,
) -> (Vec<Pattern>, usize) {
    let cards = oracle.cardinalities().to_vec();
    let depth = max_level.map_or(cards.len(), |m| m.min(cards.len()));
    let mut mups: Vec<Pattern> = Vec::new();
    let mut fired = 0;
    let mut stack = vec![Pattern::all_x(cards.len())];
    while let Some(p) = stack.pop() {
        if mups.iter().any(|m| p.dominates(m)) {
            fired += 1;
            if p.level() < depth {
                stack.extend(p.rule1_children(&cards));
            }
            continue;
        }
        if !oracle.covered(p.codes(), tau) {
            if !mups.iter().any(|m| m.dominates(&p)) {
                let mut mup = p;
                loop {
                    let uncovered = mup.parents().find(|q| !oracle.covered(q.codes(), tau));
                    match uncovered {
                        Some(parent) => mup = parent,
                        None => break,
                    }
                }
                mups.push(mup);
            }
        } else if p.level() < depth {
            stack.extend(p.rule1_children(&cards));
        }
    }
    (mups, fired)
}

/// A random dataset: d ≤ 7 attributes of cardinality 1–4 and up to 40
/// rows, plus τ and a level bound.
fn instance() -> impl Strategy<Value = (Dataset, u64, Option<usize>)> {
    (1usize..=7)
        .prop_flat_map(|d| {
            let cards = proptest::collection::vec(1u8..=4, d);
            let rows = proptest::collection::vec(proptest::collection::vec(0u8..12, d), 0..40);
            (cards, rows, 1u64..=6, 0usize..=d + 1)
        })
        .prop_map(|(cards, raw_rows, tau, bound)| {
            let schema =
                Schema::with_cardinalities(&cards.iter().map(|&c| c as usize).collect::<Vec<_>>())
                    .unwrap();
            let rows: Vec<Vec<u8>> = raw_rows
                .iter()
                .map(|row| row.iter().zip(&cards).map(|(&v, &c)| v % c).collect())
                .collect();
            let max_level = (bound < cards.len()).then_some(bound);
            (Dataset::from_rows(schema, &rows).unwrap(), tau, max_level)
        })
}

fn sorted(mut mups: Vec<Pattern>) -> Vec<Pattern> {
    mups.sort();
    mups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn deepdiver_finds_the_naive_mups_on_every_backend(case in instance()) {
        let (dataset, tau, max_level) = case;
        let diver = DeepDiver { max_level };
        let dense = CoverageOracle::from_dataset(&dataset);
        let got = sorted(diver.find_mups_with_oracle(&dense, tau).unwrap());

        let depth = max_level.unwrap_or(usize::MAX);
        let naive: Vec<Pattern> = NaiveMup::default()
            .find_mups_with_oracle(&dense, tau)
            .unwrap()
            .into_iter()
            .filter(|p| p.level() <= depth)
            .collect();
        prop_assert_eq!(&got, &sorted(naive));

        let compressed = CompressedOracle::from_dataset(&dataset);
        let sharded: ShardedOracle = ShardedOracle::from_dataset(&dataset, 2);
        for other in [&compressed as &dyn CoverageProvider, &sharded] {
            prop_assert_eq!(&sorted(diver.find_mups_with_oracle(other, tau).unwrap()), &got);
        }

        let breaker = PatternBreaker { max_level };
        prop_assert_eq!(&sorted(breaker.find_mups_with_oracle(&dense, tau).unwrap()), &got);
    }

    #[test]
    fn the_ancestor_check_never_fires(case in instance()) {
        let (dataset, tau, max_level) = case;
        let dense = CoverageOracle::from_dataset(&dataset);
        let (reference, fired) = walk_with_ancestor_check(&dense, tau, max_level);
        prop_assert_eq!(fired, 0);
        // Same MUPs in the same discovery order.
        prop_assert_eq!(
            DeepDiver { max_level }.find_mups_with_oracle(&dense, tau).unwrap(),
            reference
        );
    }
}

/// Forwards to the dense oracle and counts coverage probes.
struct Counting {
    inner: CoverageOracle,
    probes: Cell<usize>,
}

impl CoverageProvider for Counting {
    fn arity(&self) -> usize {
        self.inner.arity()
    }
    fn cardinalities(&self) -> &[u8] {
        self.inner.cardinalities()
    }
    fn total(&self) -> u64 {
        self.inner.total()
    }
    fn coverage(&self, codes: &[u8]) -> u64 {
        self.probes.set(self.probes.get() + 1);
        self.inner.coverage(codes)
    }
    fn coverage_capped(&self, codes: &[u8], cap: u64) -> u64 {
        self.probes.set(self.probes.get() + 1);
        self.inner.coverage_capped(codes, cap)
    }
    fn add_row(&mut self, row: &[u8]) {
        self.inner.add_row(row);
    }
    fn remove_row(&mut self, row: &[u8]) -> bool {
        self.inner.remove_row(row)
    }
    fn grow_value(&mut self, attribute: usize) -> u8 {
        self.inner.grow_value(attribute)
    }
    fn for_each_combination(&self, visit: &mut dyn FnMut(&[u8], u64)) {
        CoverageProvider::for_each_combination(&self.inner, visit);
    }
}

#[test]
fn tau_zero_returns_no_mups_without_probing() {
    // cov(P) ≥ 0 for every pattern, so nothing is uncovered; both top-down
    // walks answer without walking the pattern graph.
    let ds = coverage_data::generators::airbnb_like(2_000, 12, 7).unwrap();
    let oracle = Counting {
        inner: CoverageOracle::from_dataset(&ds),
        probes: Cell::new(0),
    };
    for alg in [
        &DeepDiver::default() as &dyn MupAlgorithm,
        &PatternBreaker::default(),
    ] {
        assert!(alg.find_mups_with_oracle(&oracle, 0).unwrap().is_empty());
        assert_eq!(oracle.probes.get(), 0, "{}", alg.name());
    }
    // The root is the one MUP of an empty dataset at τ = 1.
    let empty = CoverageOracle::from_dataset(&Dataset::new(Schema::binary(3).unwrap()));
    assert!(DeepDiver::default()
        .find_mups_with_oracle(&empty, 0)
        .unwrap()
        .is_empty());
    assert_eq!(
        DeepDiver::default()
            .find_mups_with_oracle(&empty, 1)
            .unwrap(),
        [Pattern::from_codes(vec![X; 3])]
    );
}
