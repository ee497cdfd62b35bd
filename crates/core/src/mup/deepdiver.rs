//! DEEPDIVER (§III-E, Algorithm 3): depth-first dives that reach uncovered
//! territory quickly, walk up to the responsible MUP, and then prune the
//! descendants of every discovered MUP through the bit-parallel dominance
//! index of Appendix B.
//!
//! The walk pops nodes off a stack; a popped node is
//!
//! * **dominated by** a discovered MUP — it lies in a pruned subtree and is
//!   skipped (checked only for uncovered nodes: a covered node cannot be
//!   dominated by an uncovered pattern);
//! * **covered** — its Rule-1 children are pushed;
//! * **uncovered** otherwise — a walk-up (moving to the first uncovered
//!   parent until none exists) lands exactly on a new MUP.
//!
//! Algorithm 3 also skips the coverage probe of nodes that *dominate* a
//! discovered MUP (covered ancestors). In this traversal order no such
//! node is ever popped, so the check is left out. Rule-1 children are
//! pushed in ascending (position, value) order and popped last-in first-out,
//! so the walk visits each subtree whole, larger positions first. Take a
//! pattern `p` that dominates a node `q`. Either `p` lies on `q`'s Rule-1
//! path from the root, or the two paths branch at some node `b`. In the
//! second case `p`'s branch below `b` sets a larger position than `q`'s,
//! because `p`'s deterministic elements are a subset of `q`'s. Either way
//! `p`, if visited, is popped before `q`. A MUP found by climbing from `q`
//! dominates `q` or equals it. A node popped after `q` that dominated the
//! MUP would dominate `q` too, so it would have been popped before `q`;
//! and a tree walk never pops `q` itself twice.
//!
//! Pending nodes live in one flat code stack, the climb rewrites the
//! popped node's buffer in place, and coverage probes go through
//! [`CoverageProvider::descent`], so the dense oracle answers each child
//! from its parent's match vector.

use coverage_index::{CoverageProvider, MupDominanceIndex, X};

use crate::error::Result;
use crate::mup::MupAlgorithm;
use crate::pattern::Pattern;

/// The dive-and-prune algorithm.
#[derive(Debug, Clone, Default)]
pub struct DeepDiver {
    /// When set, exploration stops below this level: the output is the set
    /// of MUPs with level ≤ `max_level` (Fig 16's bounded discovery).
    pub max_level: Option<usize>,
}

impl DeepDiver {
    /// Bounded-level variant (§V-C3).
    pub fn with_max_level(max_level: usize) -> Self {
        Self {
            max_level: Some(max_level),
        }
    }

    /// Walk-up phase, in place: starting from an uncovered pattern,
    /// repeatedly move to the first uncovered parent (parents taken in
    /// attribute order); the fixed point has all parents covered and is
    /// therefore a MUP.
    fn climb(oracle: &dyn CoverageProvider, tau: u64, codes: &mut [u8]) {
        'climb: loop {
            for i in 0..codes.len() {
                let value = codes[i];
                if value == X {
                    continue;
                }
                codes[i] = X;
                if !oracle.covered(codes, tau) {
                    continue 'climb;
                }
                codes[i] = value;
            }
            return;
        }
    }
}

impl MupAlgorithm for DeepDiver {
    fn name(&self) -> &'static str {
        "DeepDiver"
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
        let mut index = MupDominanceIndex::new(&cards);
        let mut probe = oracle.descent(tau);
        // Pending nodes: `d` codes each on `codes`, and per node its level
        // and the first position its Rule-1 children may set.
        let mut codes: Vec<u8> = vec![X; d];
        let mut frames: Vec<(usize, usize)> = vec![(0, 0)];
        let mut node: Vec<u8> = vec![X; d];

        while let Some((level, first_free)) = frames.pop() {
            let top = codes.len() - d;
            node.copy_from_slice(&codes[top..]);
            codes.truncate(top);
            let expand = level < depth;
            if probe.covered(&node, expand) {
                if expand {
                    for (i, &card) in cards.iter().enumerate().skip(first_free) {
                        for v in 0..card {
                            let child = codes.len();
                            codes.extend_from_slice(&node);
                            codes[child + i] = v;
                            frames.push((level + 1, i + 1));
                        }
                    }
                }
            } else if !index.dominated_by_any(&node) {
                Self::climb(oracle, tau, &mut node);
                index.add(&node);
                mups.push(Pattern::from_codes(node.as_slice()));
            }
        }
        Ok(mups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mup::test_support::{
        assert_example1, assert_matches_reference, brute_force_mups, example1, oracle_for,
    };
    use crate::Threshold;

    #[test]
    fn example1_single_mup() {
        assert_example1(&DeepDiver::default());
    }

    #[test]
    fn matches_brute_force_reference() {
        for (seed, tau) in [(1, 3), (2, 10), (3, 40), (4, 100)] {
            assert_matches_reference(&DeepDiver::default(), seed, tau);
        }
    }

    #[test]
    fn climb_finds_mup_from_deep_uncovered_node() {
        // §III-E example: the dive XXX → X0X → 10X reaches the uncovered
        // non-MUP 10X whose walk-up must land on 1XX.
        let oracle = oracle_for(&example1());
        let mut codes = Pattern::parse("10X").unwrap().codes().to_vec();
        DeepDiver::climb(&oracle, 1, &mut codes);
        assert_eq!(Pattern::from_codes(codes).to_string(), "1XX");
    }

    #[test]
    fn climb_on_mup_is_identity() {
        let oracle = oracle_for(&example1());
        let mut codes = Pattern::parse("1XX").unwrap().codes().to_vec();
        DeepDiver::climb(&oracle, 1, &mut codes);
        assert_eq!(Pattern::from_codes(codes).to_string(), "1XX");
    }

    #[test]
    fn level_bound_truncates_output() {
        let ds = coverage_data::generators::bluenile_like(500, 5).unwrap();
        let oracle = oracle_for(&ds);
        let mut expected: Vec<Pattern> = brute_force_mups(&oracle, 20)
            .into_iter()
            .filter(|p| p.level() <= 2)
            .collect();
        expected.sort();
        let bounded = DeepDiver::with_max_level(2)
            .find_mups(&ds, Threshold::Count(20))
            .unwrap();
        assert_eq!(bounded, expected);
    }

    #[test]
    fn diagonal_dataset_matches_theorem1_closed_form() {
        // Theorem 1: n items over n binary attributes, τ = n/2 + 1 ⇒
        // |M| = n + C(n, n/2).
        let n = 8usize;
        let ds = coverage_data::generators::diagonal_dataset(n).unwrap();
        let tau = (n / 2 + 1) as u64;
        let mups = DeepDiver::default()
            .find_mups(&ds, Threshold::Count(tau))
            .unwrap();
        let choose = |n: u64, k: u64| -> u64 { (1..=k).fold(1u64, |acc, i| acc * (n - i + 1) / i) };
        let expected = n as u64 + choose(n as u64, n as u64 / 2);
        assert_eq!(mups.len() as u64, expected);
        // All single-1 level-1 patterns are MUPs.
        let ones = mups
            .iter()
            .filter(|p| p.level() == 1 && (0..n).any(|i| p.get(i) == Some(1)));
        assert_eq!(ones.count(), n);
    }

    #[test]
    fn empty_dataset_root_is_mup() {
        let ds = coverage_data::Dataset::new(coverage_data::Schema::binary(5).unwrap());
        let mups = DeepDiver::default()
            .find_mups(&ds, Threshold::Count(1))
            .unwrap();
        assert_eq!(mups.len(), 1);
        assert_eq!(mups[0].level(), 0);
    }

    #[test]
    fn output_is_an_antichain() {
        let ds = coverage_data::generators::airbnb_like(400, 8, 12).unwrap();
        let mups = DeepDiver::default()
            .find_mups(&ds, Threshold::Count(12))
            .unwrap();
        for a in &mups {
            for b in &mups {
                if a != b {
                    assert!(!a.dominates(b), "{a} dominates {b}");
                }
            }
        }
    }
}
