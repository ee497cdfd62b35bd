//! The efficient GREEDY hitting-set implementation (§IV-B, Algorithms 4–5).
//!
//! Per attribute value, an inverted index ([`PatternIndex`], Fig 9) marks the
//! target patterns a combination carrying that value can still hit (`X` or
//! equal value). Each round walks the enumeration tree over value
//! combinations depth-first: every edge ANDs the parent's bit-vector with
//! the value's column, children are visited in decreasing hit-count order,
//! and a subtree is pruned when its count cannot beat the best known
//! combination. The validation oracle is consulted before each child so only
//! semantically valid combinations are produced. The round's pick is the
//! combination with the most un-hit targets; its hits leave the live set
//! and the next round starts over.
//!
//! Two things keep a round's work in proportion to the targets still un-hit
//! rather than to all of them:
//!
//! * **Compaction.** Once the live targets fall to ¾ of the indexed width,
//!   the index is rebuilt over the survivors alone, in their original order.
//!   Every count the search compares is a count of live targets, so the
//!   rebuilt index walks the same tree and picks the same combinations —
//!   over shorter vectors.
//! * **Sparse, fused scoring.** A node's filter keeps only its nonzero
//!   words ([`SparseWords`]). Expansion hands the targets over sorted, so
//!   targets that agree on the first attributes sit in neighbouring words,
//!   and a few levels down most words of a filter are zero: on the Fig 17
//!   configuration only about a fifth of the words a dense walk would scan
//!   hold a bit. A child is scored with one AND+popcount pass over its
//!   parent's nonzero words and the matching words of its column
//!   ([`SparseWords::and_count`]), which allocates nothing. Its filter is
//!   written only when the search descends into it, into a per-level buffer
//!   reused across levels and rounds.
//!
//! Ties break as in the plain walk: interior children are scored in value
//! order and stable-sorted by descending count, the walk stops at the first
//! child whose count does not beat the best, a leaf takes the last child of
//! maximal count, and the best changes only on a strictly greater count.

use std::cmp::Reverse;

use coverage_index::{BitVec, SparseWords};

use crate::enhance::index::PatternIndex;
use crate::enhance::HittingSetSolver;
use crate::error::{CoverageError, Result};
use crate::pattern::Pattern;
use crate::validation::ValidationOracle;

/// The threshold-pruned greedy solver.
#[derive(Debug, Clone, Default)]
pub struct GreedyHittingSet;

/// Compaction trigger: rebuild the index once the live targets are at most
/// `COMPACT_NUM / COMPACT_DEN` of its width.
const COMPACT_NUM: usize = 3;
const COMPACT_DEN: usize = 4;

/// The DFS of one `hit-count` search (Algorithm 4), with buffers that
/// outlive it so later rounds allocate nothing.
struct Search {
    /// `filters[l]`: the live targets still hittable below the current node
    /// at level `l`; `filters[0]` is the round's live set.
    filters: Vec<SparseWords>,
    /// `children[l]`: (count, value) of the current level-`l` node's valid
    /// children.
    children: Vec<Vec<(u64, u8)>>,
    prefix: Vec<u8>,
    best_count: u64,
    best_combo: Vec<u8>,
}

impl Search {
    fn new(d: usize) -> Self {
        Self {
            filters: vec![SparseWords::default(); d],
            children: vec![Vec::new(); d],
            prefix: Vec::with_capacity(d),
            best_count: 0,
            best_combo: Vec::with_capacity(d),
        }
    }

    /// The combination hitting the most `live` targets, if any valid one
    /// hits at least one.
    fn best(
        &mut self,
        index: &PatternIndex,
        validation: &ValidationOracle,
        live: &BitVec,
    ) -> Option<Vec<u8>> {
        self.filters[0].assign(live);
        self.best_count = 0;
        self.descend(index, validation, 0);
        (self.best_count > 0).then(|| self.best_combo.clone())
    }

    fn descend(&mut self, index: &PatternIndex, validation: &ValidationOracle, level: usize) {
        // Score every valid child of the current node.
        let mut children = std::mem::take(&mut self.children[level]);
        children.clear();
        for v in 0..index.cardinality(level) {
            self.prefix.push(v);
            let allowed = validation.allows_prefix(&self.prefix);
            self.prefix.pop();
            if allowed {
                children.push((self.filters[level].and_count(index.vector(level, v)), v));
            }
        }
        if level + 1 == index.arity() {
            // Leaf level: the best child is a full combination.
            if let Some(&(cnt, v)) = children.iter().max_by_key(|child| child.0) {
                if cnt > self.best_count {
                    self.best_count = cnt;
                    self.best_combo.clone_from(&self.prefix);
                    self.best_combo.push(v);
                }
            }
        } else {
            // Interior level: visit children in decreasing hit-count order
            // and prune once a child cannot beat the best known combination.
            children.sort_by_key(|child| Reverse(child.0));
            for &(cnt, v) in &children {
                if cnt <= self.best_count {
                    break;
                }
                let (parents, below) = self.filters.split_at_mut(level + 1);
                below[0].assign_and(&parents[level], index.vector(level, v));
                self.prefix.push(v);
                self.descend(index, validation, level + 1);
                self.prefix.pop();
            }
        }
        self.children[level] = children;
    }
}

impl HittingSetSolver for GreedyHittingSet {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn solve(
        &self,
        targets: &[Pattern],
        cardinalities: &[u8],
        validation: &ValidationOracle,
    ) -> Result<Vec<Vec<u8>>> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        if cardinalities.is_empty() {
            // Arity 0: the empty combination matches every target.
            return Ok(vec![Vec::new()]);
        }
        // `indexed[j]`: the target behind bit `j` of the (compacted) index;
        // `live`: which of those are still un-hit.
        let mut indexed: Vec<usize> = (0..targets.len()).collect();
        let mut index = PatternIndex::build(targets.iter(), cardinalities);
        let mut live = BitVec::ones(targets.len());
        let mut search = Search::new(cardinalities.len());
        let mut selected: Vec<Vec<u8>> = Vec::new();
        loop {
            let remaining = live.count_ones() as usize;
            if remaining == 0 {
                return Ok(selected);
            }
            if remaining * COMPACT_DEN <= index.len() * COMPACT_NUM {
                indexed = live.iter_ones().map(|j| indexed[j]).collect();
                index = PatternIndex::build(indexed.iter().map(|&j| &targets[j]), cardinalities);
                live = BitVec::ones(indexed.len());
            }
            let Some(combo) = search.best(&index, validation, &live) else {
                // Every remaining pattern is matched only by invalid
                // combinations — surface them instead of looping forever.
                let remaining = live
                    .iter_ones()
                    .map(|j| targets[indexed[j]].to_string())
                    .collect();
                return Err(CoverageError::Unhittable {
                    patterns: remaining,
                });
            };
            // Clear the freshly hit patterns from the live set.
            for j in index.hits(&combo).iter_ones() {
                live.set(j, false);
            }
            selected.push(combo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 2's level-2 targets P1..P6 over cardinalities [2,3,3,2,2].
    fn p1_to_p6() -> Vec<Pattern> {
        ["XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX"]
            .iter()
            .map(|s| Pattern::parse(s).unwrap())
            .collect()
    }

    const EX2_CARDS: [u8; 5] = [2, 3, 3, 2, 2];

    fn hit_count(combo: &[u8], targets: &[Pattern]) -> usize {
        targets.iter().filter(|p| p.matches(combo)).count()
    }

    #[test]
    fn first_pick_hits_three_patterns() {
        // §IV-B: "a value combination that hits the maximum number of
        // patterns is 02011, hitting the patterns P1, P3, and P4."
        let targets = p1_to_p6();
        let solver = GreedyHittingSet;
        let combos = solver
            .solve(&targets, &EX2_CARDS, &ValidationOracle::accept_all())
            .unwrap();
        assert_eq!(
            hit_count(&combos[0], &targets),
            3,
            "first pick {:?}",
            combos[0]
        );
    }

    #[test]
    fn example2_needs_three_combinations() {
        // §IV-B: the greedy algorithm suggests collecting three value
        // combinations (e.g. 02011, 02111, 10201).
        let targets = p1_to_p6();
        let combos = GreedyHittingSet
            .solve(&targets, &EX2_CARDS, &ValidationOracle::accept_all())
            .unwrap();
        assert_eq!(combos.len(), 3);
        // The union of hits covers every pattern.
        for (j, p) in targets.iter().enumerate() {
            assert!(
                combos.iter().any(|c| p.matches(c)),
                "pattern {j} ({p}) never hit"
            );
        }
    }

    #[test]
    fn bit_vector_walk_matches_paper_trace() {
        // §IV-B's worked trace: 12110 hits only P5 among P1..P6.
        let targets = p1_to_p6();
        assert_eq!(hit_count(&[1, 2, 1, 1, 0], &targets), 1);
        assert!(targets[4].matches(&[1, 2, 1, 1, 0]));
    }

    #[test]
    fn validation_rules_are_enforced() {
        // Forbid A2 = 2 entirely: the solver must still hit P2 = 1X20X? No —
        // P2 requires A3 = 2 (allowed); forbid A3 = 2 instead and P2 becomes
        // unhittable.
        let targets = p1_to_p6();
        let oracle = ValidationOracle::new(vec![crate::validation::ValidationRule::forbid_values(
            2,
            vec![2],
        )]);
        let err = GreedyHittingSet.solve(&targets, &EX2_CARDS, &oracle);
        match err {
            Err(CoverageError::Unhittable { patterns }) => {
                assert_eq!(patterns, vec!["1X20X".to_string()]);
            }
            other => panic!("expected Unhittable, got {other:?}"),
        }
    }

    #[test]
    fn validation_steers_but_allows_when_hittable() {
        // Forbidding A1 = 0 leaves every pattern hittable (P4 = 02XXX becomes
        // unhittable — it needs A1 = 0). Use a rule on A5 instead: forbid
        // A5 = 0; all patterns remain hittable via A5 = 1.
        let targets = p1_to_p6();
        let oracle = ValidationOracle::new(vec![crate::validation::ValidationRule::forbid_values(
            4,
            vec![0],
        )]);
        let combos = GreedyHittingSet
            .solve(&targets, &EX2_CARDS, &oracle)
            .unwrap();
        for c in &combos {
            assert_ne!(c[4], 0, "validation violated by {c:?}");
        }
        for p in &targets {
            assert!(combos.iter().any(|c| p.matches(c)));
        }
    }

    #[test]
    fn empty_targets_need_nothing() {
        let combos = GreedyHittingSet
            .solve(&[], &EX2_CARDS, &ValidationOracle::accept_all())
            .unwrap();
        assert!(combos.is_empty());
    }

    #[test]
    fn zero_arity_needs_the_empty_combination() {
        let targets = [Pattern::all_x(0), Pattern::all_x(0)];
        let combos = GreedyHittingSet
            .solve(&targets, &[], &ValidationOracle::accept_all())
            .unwrap();
        assert_eq!(combos, vec![Vec::<u8>::new()]);
        assert!(targets.iter().all(|p| p.matches(&combos[0])));
    }

    #[test]
    fn zero_cardinality_attribute_is_unhittable() {
        // No value exists for the second attribute, so no combination does.
        for (targets, cards) in [
            (vec!["1X", "0X"], [2u8, 0]),
            (vec!["X0"], [2, 0]),
            (vec!["XX"], [0, 2]),
        ] {
            let targets: Vec<Pattern> =
                targets.iter().map(|s| Pattern::parse(s).unwrap()).collect();
            match GreedyHittingSet.solve(&targets, &cards, &ValidationOracle::accept_all()) {
                Err(CoverageError::Unhittable { patterns }) => {
                    let expected: Vec<String> = targets.iter().map(Pattern::to_string).collect();
                    assert_eq!(patterns, expected);
                }
                other => panic!("expected Unhittable, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_full_pattern_selects_itself() {
        let target = vec![Pattern::parse("10201").unwrap()];
        let combos = GreedyHittingSet
            .solve(&target, &EX2_CARDS, &ValidationOracle::accept_all())
            .unwrap();
        assert_eq!(combos, vec![vec![1, 0, 2, 0, 1]]);
    }
}
