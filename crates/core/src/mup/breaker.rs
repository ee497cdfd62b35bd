//! PATTERN-BREAKER (§III-C, Algorithm 1): top-down BFS over the pattern
//! graph, transformed into a tree by Rule 1.
//!
//! A node is expanded only when covered; its children are generated by
//! replacing the `X`s to the right of its right-most deterministic element.
//! Before a candidate's coverage is computed, all of its parents are checked
//! against the previous level: a missing parent (pruned region) or a MUP
//! parent means the candidate is dominated by an uncovered pattern and can
//! be skipped without touching the data.

use crate::fxhash::FxHashSet;

use coverage_index::CoverageProvider;

use crate::error::Result;
use crate::mup::MupAlgorithm;
use crate::pattern::Pattern;

/// The top-down breadth-first algorithm.
#[derive(Debug, Clone, Default)]
pub struct PatternBreaker {
    /// When set, exploration stops below this level: the output is the set
    /// of MUPs with level ≤ `max_level` (Fig 16's bounded discovery).
    pub max_level: Option<usize>,
}

impl PatternBreaker {
    /// Bounded-level variant (§V-C3).
    pub fn with_max_level(max_level: usize) -> Self {
        Self {
            max_level: Some(max_level),
        }
    }
}

impl MupAlgorithm for PatternBreaker {
    fn name(&self) -> &'static str {
        "PatternBreaker"
    }

    fn find_mups_with_oracle(
        &self,
        oracle: &dyn CoverageProvider,
        tau: u64,
    ) -> Result<Vec<Pattern>> {
        if tau == 0 {
            // cov(P) ≥ 0 for every pattern: nothing is uncovered.
            return Ok(Vec::new());
        }
        let cards = oracle.cardinalities().to_vec();
        let d = cards.len();
        let depth = self.max_level.map_or(d, |m| m.min(d));

        let mut mups: Vec<Pattern> = Vec::new();
        // `processed` holds the previous level's candidates that passed the
        // parent check and were covered — Algorithm 1's Qp minus its MUPs
        // (checking `parent ∉ Qp or parent ∈ M` is equivalent to checking
        // `parent ∉ (Qp \ M)`). Keys are raw code slices so the per-parent
        // membership test needs no allocation.
        let mut processed: FxHashSet<Box<[u8]>> = FxHashSet::default();
        let mut queue: Vec<Pattern> = vec![Pattern::all_x(d)];
        let mut scratch: Vec<u8> = Vec::with_capacity(d);

        for level in 0..=depth {
            if queue.is_empty() {
                break;
            }
            let mut next_queue: Vec<Pattern> = Vec::new();
            let mut next_processed: FxHashSet<Box<[u8]>> =
                FxHashSet::with_capacity_and_hasher(queue.len(), Default::default());
            for p in queue {
                // Parent check: every parent must have been processed at the
                // previous level and covered; otherwise p is dominated by an
                // uncovered pattern.
                scratch.clear();
                scratch.extend_from_slice(p.codes());
                let mut dominated = false;
                for i in 0..d {
                    let v = scratch[i];
                    if v == crate::pattern::X {
                        continue;
                    }
                    scratch[i] = crate::pattern::X;
                    let ok = level == 0 || processed.contains(scratch.as_slice());
                    scratch[i] = v;
                    if !ok {
                        dominated = true;
                        break;
                    }
                }
                if dominated {
                    continue;
                }
                if !oracle.covered(p.codes(), tau) {
                    mups.push(p);
                } else {
                    if level < depth {
                        next_queue.extend(p.rule1_children(&cards));
                    }
                    next_processed.insert(p.codes().to_vec().into_boxed_slice());
                }
            }
            processed = next_processed;
            queue = next_queue;
        }
        Ok(mups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mup::test_support::{assert_example1, assert_matches_reference, brute_force_mups};
    use crate::Threshold;

    #[test]
    fn example1_single_mup() {
        assert_example1(&PatternBreaker::default());
    }

    #[test]
    fn matches_brute_force_reference() {
        for (seed, tau) in [(1, 3), (2, 10), (3, 40), (4, 100)] {
            assert_matches_reference(&PatternBreaker::default(), seed, tau);
        }
    }

    #[test]
    fn paper_pruning_example() {
        // §III-C closing example: τ = 1, no items match XX1, items 000 and
        // 010 present. XX1 is a MUP; 0X1 is uncovered but dominated, and the
        // parent check must prevent it from being reported.
        let ds = coverage_data::Dataset::from_rows(
            coverage_data::Schema::binary(3).unwrap(),
            &[vec![0, 0, 0], vec![0, 1, 0]],
        )
        .unwrap();
        let mups = PatternBreaker::default()
            .find_mups(&ds, Threshold::Count(1))
            .unwrap();
        let strs: Vec<String> = mups.iter().map(|p| p.to_string()).collect();
        assert!(strs.contains(&"XX1".to_string()));
        assert!(strs.contains(&"1XX".to_string()));
        assert!(!strs.contains(&"0X1".to_string()));
        // Every reported MUP satisfies Definition 5.
        let oracle = crate::mup::test_support::oracle_for(&ds);
        for m in &mups {
            assert!(crate::mup::is_mup(&oracle, m, 1), "{m}");
        }
    }

    #[test]
    fn level_bound_truncates_output() {
        let ds = coverage_data::generators::bluenile_like(500, 5).unwrap();
        let oracle = crate::mup::test_support::oracle_for(&ds);
        let full = brute_force_mups(&oracle, 20);
        let bounded = PatternBreaker::with_max_level(2)
            .find_mups(&ds, Threshold::Count(20))
            .unwrap();
        let mut expected: Vec<Pattern> = full.into_iter().filter(|p| p.level() <= 2).collect();
        expected.sort();
        assert_eq!(bounded, expected);
    }

    #[test]
    fn empty_dataset_root_is_mup() {
        let ds = coverage_data::Dataset::new(coverage_data::Schema::binary(4).unwrap());
        let mups = PatternBreaker::default()
            .find_mups(&ds, Threshold::Count(1))
            .unwrap();
        assert_eq!(mups.len(), 1);
        assert_eq!(mups[0].to_string(), "XXXX");
    }

    #[test]
    fn fully_covered_dataset_has_no_mups() {
        // All 4 combinations of 2 binary attributes present → τ=1 covers all.
        let ds = coverage_data::Dataset::from_rows(
            coverage_data::Schema::binary(2).unwrap(),
            &[vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]],
        )
        .unwrap();
        let mups = PatternBreaker::default()
            .find_mups(&ds, Threshold::Count(1))
            .unwrap();
        assert!(mups.is_empty());
    }
}
