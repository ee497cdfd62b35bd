//! PATTERN-COMBINER (§III-D, Algorithm 2): bottom-up traversal of the
//! pattern graph, transformed into a forest by Rule 2.
//!
//! The coverage of a node is the sum of the coverages of the children that
//! partition it on its right-most non-deterministic attribute, so only the
//! bottom level ever touches the data. The algorithm carries the full set of
//! uncovered patterns per level upward; a node none of whose parents is
//! uncovered is a MUP.

use crate::fxhash::FxHashMap;

use coverage_index::CoverageProvider;

use crate::error::{CoverageError, Result};
use crate::mup::MupAlgorithm;
use crate::pattern::Pattern;

/// The bottom-up algorithm.
#[derive(Debug, Clone)]
pub struct PatternCombiner {
    /// Maximum number of full value combinations (`Π c_i`) it will enumerate
    /// at the bottom level.
    pub max_combinations: u128,
}

impl Default for PatternCombiner {
    fn default() -> Self {
        Self {
            max_combinations: 50_000_000,
        }
    }
}

impl MupAlgorithm for PatternCombiner {
    fn name(&self) -> &'static str {
        "PatternCombiner"
    }

    fn find_mups_with_oracle(
        &self,
        oracle: &dyn CoverageProvider,
        tau: u64,
    ) -> Result<Vec<Pattern>> {
        let cards = oracle.cardinalities().to_vec();
        let d = cards.len();
        let space: u128 = cards
            .iter()
            .fold(1u128, |a, &c| a.saturating_mul(c as u128));
        if space > self.max_combinations {
            return Err(CoverageError::SearchSpaceTooLarge {
                algorithm: "PatternCombiner",
                size: space,
                limit: self.max_combinations,
            });
        }
        if tau == 0 {
            return Ok(Vec::new());
        }

        // Bottom level: counts of every full value combination. Present
        // combinations come from the provider's aggregation (a combination
        // may be reported more than once — summed here);
        // absent ones count 0. Patterns are keyed by their raw code slices
        // (X = 0xFF) so the hot loops can probe the maps without allocating.
        let mut present: FxHashMap<Box<[u8]>, u64> = FxHashMap::default();
        oracle.for_each_combination(&mut |combo, count| {
            *present
                .entry(combo.to_vec().into_boxed_slice())
                .or_insert(0) += count;
        });
        let mut count: FxHashMap<Box<[u8]>, u64> = FxHashMap::default();
        let mut odometer = vec![0u8; d];
        loop {
            let cnt = present.get(odometer.as_slice()).copied().unwrap_or(0);
            if cnt < tau {
                count.insert(odometer.clone().into_boxed_slice(), cnt);
            }
            // Advance the odometer; stop after the last combination.
            let mut i = d;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                odometer[i] += 1;
                if odometer[i] < cards[i] {
                    break;
                }
                odometer[i] = 0;
                if i == 0 {
                    i = usize::MAX;
                    break;
                }
            }
            if i == usize::MAX {
                break;
            }
        }
        if count.is_empty() {
            return Ok(Vec::new());
        }

        const X: u8 = crate::pattern::X;
        let mut mups: Vec<Pattern> = Vec::new();
        let mut scratch: Vec<u8> = Vec::with_capacity(d);
        // Walk levels d, d-1, …, 0. `count` always holds *all* uncovered
        // patterns of the current level (completeness of Rule 2, Theorem 4).
        loop {
            let mut next_count: FxHashMap<Box<[u8]>, u64> = FxHashMap::default();
            for p in count.keys() {
                // Rule 2 parents: deterministic 0-elements to the right of
                // the right-most X become X, one at a time.
                let start = p.iter().rposition(|&v| v == X).map_or(0, |i| i + 1);
                for j in start..d {
                    if p[j] != 0 {
                        continue;
                    }
                    scratch.clear();
                    scratch.extend_from_slice(p);
                    scratch[j] = X;
                    if next_count.contains_key(scratch.as_slice()) {
                        continue;
                    }
                    // Children partitioning the parent on its right-most X
                    // (which is j itself, as everything right of j is
                    // deterministic); covered children (absent from `count`)
                    // contribute ≥ τ each.
                    let mut cnt: u64 = 0;
                    for v in 0..cards[j] {
                        scratch[j] = v;
                        cnt = cnt
                            .saturating_add(count.get(scratch.as_slice()).copied().unwrap_or(tau));
                        if cnt >= tau {
                            break;
                        }
                    }
                    if cnt < tau {
                        scratch[j] = X;
                        next_count.insert(scratch.clone().into_boxed_slice(), cnt);
                    }
                }
            }
            for p in count.keys() {
                // MUP test: no parent is uncovered at the next level.
                scratch.clear();
                scratch.extend_from_slice(p);
                let mut is_mup = true;
                for j in 0..d {
                    let v = scratch[j];
                    if v == X {
                        continue;
                    }
                    scratch[j] = X;
                    let uncovered_parent = next_count.contains_key(scratch.as_slice());
                    scratch[j] = v;
                    if uncovered_parent {
                        is_mup = false;
                        break;
                    }
                }
                if is_mup {
                    mups.push(Pattern::from_codes(p.to_vec()));
                }
            }
            if next_count.is_empty() {
                break;
            }
            count = next_count;
        }
        Ok(mups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mup::test_support::{assert_example1, assert_matches_reference};
    use crate::Threshold;

    #[test]
    fn example1_single_mup() {
        assert_example1(&PatternCombiner::default());
    }

    #[test]
    fn matches_brute_force_reference() {
        for (seed, tau) in [(1, 3), (2, 10), (3, 40), (4, 100)] {
            assert_matches_reference(&PatternCombiner::default(), seed, tau);
        }
    }

    #[test]
    fn coverage_summation_identity() {
        // §III-D: cov(1XX) = cov(1X0) + cov(1X1).
        let ds = coverage_data::generators::airbnb_like(1_000, 3, 6).unwrap();
        let oracle = crate::mup::test_support::oracle_for(&ds);
        assert_eq!(
            oracle.coverage(&[1, coverage_index::X, coverage_index::X]),
            oracle.coverage(&[1, coverage_index::X, 0])
                + oracle.coverage(&[1, coverage_index::X, 1])
        );
    }

    #[test]
    fn refuses_huge_bottom_levels() {
        let guard = PatternCombiner {
            max_combinations: 4,
        };
        let ds = coverage_data::generators::airbnb_like(50, 4, 0).unwrap();
        assert!(matches!(
            guard.find_mups(&ds, Threshold::Count(1)),
            Err(CoverageError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn empty_dataset_root_is_mup() {
        let ds = coverage_data::Dataset::new(coverage_data::Schema::binary(3).unwrap());
        let mups = PatternCombiner::default()
            .find_mups(&ds, Threshold::Count(2))
            .unwrap();
        assert_eq!(mups.len(), 1);
        assert_eq!(mups[0].to_string(), "XXX");
    }

    #[test]
    fn zero_threshold_yields_no_mups() {
        let ds = crate::mup::test_support::example1();
        let mups = PatternCombiner::default()
            .find_mups(&ds, Threshold::Count(0))
            .unwrap();
        assert!(mups.is_empty());
    }

    #[test]
    fn ternary_attributes_partition_correctly() {
        // Non-binary attributes exercise Rule 2's footnote (any attribute
        // value mapped to 0 works); compare against the naive reference.
        assert_matches_reference(&PatternCombiner::default(), 9, 25);
    }
}
