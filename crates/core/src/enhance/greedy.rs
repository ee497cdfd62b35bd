//! The efficient GREEDY hitting-set implementation (§IV-B, Algorithms 4–5).
//!
//! Each round picks the valid value combination that hits the most un-hit
//! targets; its hits leave the live set and the next round starts over. A
//! round is answered in one of two phases, and the solver moves from the
//! first to the second at most once.
//!
//! **Search.** Per attribute value, an inverted index ([`PatternIndex`],
//! Fig 9) marks the targets a combination carrying that value can still hit
//! (`X` or equal value). A round walks the enumeration tree over value
//! combinations depth-first: every edge ANDs the parent's bit-vector with
//! the value's column, children are visited in decreasing hit-count order,
//! and a subtree is pruned when its count cannot beat the best known
//! combination. The validation oracle is consulted before each child so
//! only semantically valid combinations are produced. Two things keep a
//! round's work in proportion to the targets still un-hit:
//!
//! * **Compaction.** Once the live targets fall to ¾ of the indexed width,
//!   the index is rebuilt over the survivors alone, in their original order.
//!   Every count the search compares is a count of live targets, so the
//!   rebuilt index walks the same tree and picks the same combinations —
//!   over shorter vectors.
//! * **Sparse, fused scoring.** A node's filter keeps only its nonzero
//!   words ([`SparseWords`]). A child is scored with one AND+popcount pass
//!   over its parent's nonzero words and the matching words of its column
//!   ([`SparseWords::and_count`]), which allocates nothing. Its filter is
//!   written only when the search descends into it, into a per-level buffer
//!   reused across levels and rounds.
//!
//! Ties break as in the plain walk: interior children are scored in value
//! order and stable-sorted by descending count, the walk stops at the first
//! child whose count does not beat the best, a leaf takes the last child of
//! maximal count, and the best changes only on a strictly greater count.
//!
//! **Counts.** When the targets fill much of a level, the bounds prune
//! almost nothing and a round scans most of the tree. The count phase keeps
//! one `u32` per value combination, Π c_i cells laid out row-major: the
//! exact number of live targets it hits. It is built by adding 1 at every
//! completion of every live target and kept exact by subtracting the
//! completions of each target a round hits, so over the rest of the run it
//! touches W_live = Σ_live Π_{i: t_i = X} c_i cells twice. A round takes
//! the maximum B over the valid cells (those whose every prefix the oracle
//! allows) and descends through the values whose subtree holds a
//! B-combination, breaking ties as the search does: at an interior
//! attribute the highest live-compatible count, then the lowest value; at
//! the last attribute the highest value. That is the search's own pick: a
//! subtree the search prunes has a count ≤ its best < B, so it holds no
//! B-combination, and the search stops at the first B-combination in its
//! child order.
//!
//! **The switch.** It is an online rent-or-buy choice (Karlin, Manasse,
//! Rudolph & Sleator, 1988) made from exact work counts. Before a round,
//! with `live` targets left and h the last round's new hits, ⌈live ÷ h⌉
//! bounds the rounds left from below (later picks hit no more). The solver
//! switches once the last round's scanned filter words times that bound
//! reach the count phase's remaining cost, 2·W_live + ⌈live ÷ h⌉ · Π c_i.
//! It never switches when Π c_i passes [`LATTICE_CELL_BUDGET`]. On sparse
//! target sets a search round scans few words and the rule never fires.
//! On the repository benchmark's `remedy` shape (AirBnB-like 100k × 13,
//! τ = 1 %, λ = 6: ~71k targets, W ≈ 8.9 M, 2^13 cells) the first round
//! scans ~3.4 M words and the rule fires before the second. A plan with
//! its copy counts then takes a median 0.17 s instead of 0.37 s (10 paired
//! runs per seed on two seeds, 2-vCPU VM).

use std::cmp::Reverse;

use coverage_index::{BitVec, SparseWords, LATTICE_CELL_BUDGET};

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
    /// Filter words the last search read.
    scanned: u64,
}

impl Search {
    fn new(d: usize) -> Self {
        Self {
            filters: vec![SparseWords::default(); d],
            children: vec![Vec::new(); d],
            prefix: Vec::with_capacity(d),
            best_count: 0,
            best_combo: Vec::with_capacity(d),
            scanned: 0,
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
        self.scanned = live.words().len() as u64;
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
        let words = self.filters[level].nonzero_words() as u64;
        self.scanned += words * children.len() as u64;
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
                self.scanned += words;
                self.prefix.push(v);
                self.descend(index, validation, level + 1);
                self.prefix.pop();
            }
        }
        self.children[level] = children;
    }
}

/// Number of value combinations inside the domain that `pattern` matches:
/// Π c_i over its `X` positions, 0 when a code lies outside its domain.
fn completions(pattern: &Pattern, cardinalities: &[u8]) -> u64 {
    cardinalities
        .iter()
        .enumerate()
        .map(|(i, &c)| match pattern.get(i) {
            None => u64::from(c),
            Some(v) => u64::from(v < c),
        })
        .product()
}

/// The count phase: the exact number of live targets each value
/// combination hits, one `u32` cell per combination in row-major order.
struct Counts {
    cardinalities: Vec<u8>,
    /// `strides[i]`: Π_{j>i} c_j, the cell distance between neighbouring
    /// values of attribute `i`.
    strides: Vec<usize>,
    cells: Vec<u32>,
    /// Whether the oracle allows every prefix of the cell's combination.
    valid: Vec<bool>,
    /// The cells holding the round's maximum, ascending.
    top: Vec<usize>,
    /// (stride, cardinality, digit) of the `X` positions of the target
    /// being counted whose cardinality passes 1.
    free: Vec<(usize, usize, usize)>,
}

impl Counts {
    /// Counts the `live` targets over `cells` = Π c_i combinations.
    fn build<'a>(
        live: impl Iterator<Item = &'a Pattern>,
        cardinalities: &[u8],
        cells: usize,
        validation: &ValidationOracle,
    ) -> Self {
        let mut strides = vec![1; cardinalities.len()];
        for i in (1..cardinalities.len()).rev() {
            strides[i - 1] = strides[i] * usize::from(cardinalities[i]);
        }
        let mut counts = Self {
            cardinalities: cardinalities.to_vec(),
            strides,
            cells: vec![0; cells],
            valid: vec![false; cells],
            top: Vec::new(),
            free: Vec::with_capacity(cardinalities.len()),
        };
        counts.mark_valid(validation, &mut Vec::with_capacity(cardinalities.len()), 0);
        for target in live {
            counts.for_each_completion(target, |cell| *cell += 1);
        }
        counts
    }

    /// Marks the valid cells below `prefix`, whose first cell is `base`.
    fn mark_valid(&mut self, validation: &ValidationOracle, prefix: &mut Vec<u8>, base: usize) {
        let level = prefix.len();
        if level == self.cardinalities.len() {
            self.valid[base] = true;
            return;
        }
        for v in 0..self.cardinalities[level] {
            prefix.push(v);
            if validation.allows_prefix(prefix) {
                let below = base + usize::from(v) * self.strides[level];
                self.mark_valid(validation, prefix, below);
            }
            prefix.pop();
        }
    }

    /// Calls `f` on the cell of every combination `target` matches, in
    /// ascending order.
    fn for_each_completion(&mut self, target: &Pattern, mut f: impl FnMut(&mut u32)) {
        self.free.clear();
        let mut cell = 0;
        for (i, (&c, &stride)) in self.cardinalities.iter().zip(&self.strides).enumerate() {
            match target.get(i) {
                None if c == 0 => return,
                None if c == 1 => {}
                None => self.free.push((stride, usize::from(c), 0)),
                Some(v) if v < c => cell += usize::from(v) * stride,
                Some(_) => return,
            }
        }
        // An odometer over the `X` positions, the last one turning fastest.
        loop {
            f(&mut self.cells[cell]);
            let mut carry = true;
            for (stride, c, digit) in self.free.iter_mut().rev() {
                *digit += 1;
                cell += *stride;
                if *digit < *c {
                    carry = false;
                    break;
                }
                *digit = 0;
                cell -= *stride * *c;
            }
            if carry {
                return;
            }
        }
    }

    /// The search's pick over the same live set: the valid combination
    /// hitting the most live targets, ties broken as the search breaks
    /// them. `filters` are path buffers, one per attribute.
    fn best(
        &mut self,
        index: &PatternIndex,
        filters: &mut [SparseWords],
        live: &BitVec,
    ) -> Option<Vec<u8>> {
        let valid_count = |(&n, &ok): (&u32, &bool)| if ok { n } else { 0 };
        let max = self.cells.iter().zip(&self.valid).map(valid_count).max()?;
        if max == 0 {
            return None;
        }
        self.top.clear();
        self.top.extend(
            (0..)
                .zip(self.cells.iter().zip(&self.valid).map(valid_count))
                .filter(|&(_, n)| n == max)
                .map(|(cell, _)| cell),
        );
        let d = self.cardinalities.len();
        let mut top = &self.top[..];
        let mut combo = Vec::with_capacity(d);
        filters[0].assign(live);
        for level in 0..d {
            let (stride, c) = (self.strides[level], usize::from(self.cardinalities[level]));
            // `top` shares the prefix chosen so far, so its digits here
            // ascend: each value is a run.
            let digit = |cell: usize| (cell / stride) % c;
            let run = |cells: &[usize], v: usize| cells.partition_point(|&x| digit(x) == v);
            let (first, last) = (digit(top[0]), digit(top[top.len() - 1]));
            let v = if first == last {
                first
            } else if level + 1 == d {
                // The search's leaf takes the last child of maximal count.
                last
            } else {
                // The search visits interior children by descending count,
                // the lowest value first among equals.
                let mut chosen = (0, first);
                let mut rest = top;
                while let Some(&cell) = rest.first() {
                    let v = digit(cell);
                    let count = filters[level].and_count(index.vector(level, v as u8));
                    if count > chosen.0 {
                        chosen = (count, v);
                    }
                    rest = &rest[run(rest, v)..];
                }
                chosen.1
            };
            let start = top.partition_point(|&x| digit(x) < v);
            top = &top[start..];
            top = &top[..run(top, v)];
            if level + 1 < d {
                let (parents, below) = filters.split_at_mut(level + 1);
                below[0].assign_and(&parents[level], index.vector(level, v as u8));
            }
            combo.push(v as u8);
        }
        Some(combo)
    }
}

/// When the solver moves from the search to the count phase.
#[derive(Debug, Clone, Copy)]
enum Switch {
    /// When the work rule says so.
    ByRule,
    /// Before round `k` (from 1), when the count array fits.
    #[cfg(test)]
    Before(usize),
    /// Never.
    #[cfg(test)]
    Never,
}

/// The greedy rounds over `targets`, with the round before which the count
/// phase took over, if it did.
fn solve_with(
    targets: &[Pattern],
    cardinalities: &[u8],
    validation: &ValidationOracle,
    switch: Switch,
) -> (Result<Vec<Vec<u8>>>, Option<usize>) {
    if targets.is_empty() {
        return (Ok(Vec::new()), None);
    }
    if cardinalities.is_empty() {
        // Arity 0: the empty combination matches every target.
        return (Ok(vec![Vec::new()]), None);
    }
    // Π c_i, when a count array over it fits and its cells cannot overflow.
    let cells = cardinalities
        .iter()
        .try_fold(1usize, |n, &c| n.checked_mul(usize::from(c)))
        .filter(|&n| n <= LATTICE_CELL_BUDGET && u32::try_from(targets.len()).is_ok());
    // W_live, the cells the count phase would touch for the live targets:
    // summed when the rule first needs it, then kept current.
    let mut weight: Option<u64> = None;
    // `indexed[j]`: the target behind bit `j` of the (compacted) index;
    // `live`: which of those are still un-hit.
    let mut indexed: Vec<usize> = (0..targets.len()).collect();
    let mut index = PatternIndex::build(targets.iter(), cardinalities);
    let mut live = BitVec::ones(targets.len());
    let mut search = Search::new(cardinalities.len());
    let mut counts: Option<Counts> = None;
    let mut switched = None;
    let mut new_hits = 0u64;
    let mut selected: Vec<Vec<u8>> = Vec::new();
    loop {
        let remaining = live.count_ones() as usize;
        if remaining == 0 {
            return (Ok(selected), switched);
        }
        if remaining * COMPACT_DEN <= index.len() * COMPACT_NUM {
            indexed = live.iter_ones().map(|j| indexed[j]).collect();
            index = PatternIndex::build(indexed.iter().map(|&j| &targets[j]), cardinalities);
            live = BitVec::ones(indexed.len());
        }
        if let (None, Some(cells)) = (&counts, cells) {
            let round = selected.len() + 1;
            let fire = match switch {
                // Rent or buy: another search round costs about the last
                // one's words, counts cost 2·W_live once plus one pass over
                // the cells a round. It cannot fire while a round scans
                // fewer words than there are cells.
                Switch::ByRule if round > 1 && search.scanned >= cells as u64 => {
                    let rounds = (remaining as u64).div_ceil(new_hits.max(1));
                    let weight = *weight.get_or_insert_with(|| {
                        let live_targets = live.iter_ones().map(|j| &targets[indexed[j]]);
                        live_targets.map(|t| completions(t, cardinalities)).sum()
                    });
                    search.scanned.saturating_mul(rounds)
                        >= (2 * weight).saturating_add(rounds.saturating_mul(cells as u64))
                }
                Switch::ByRule => false,
                #[cfg(test)]
                Switch::Before(k) => round == k,
                #[cfg(test)]
                Switch::Never => false,
            };
            if fire {
                let survivors = live.iter_ones().map(|j| &targets[indexed[j]]);
                counts = Some(Counts::build(survivors, cardinalities, cells, validation));
                switched = Some(round);
            }
        }
        let pick = match &mut counts {
            Some(counts) => counts.best(&index, &mut search.filters, &live),
            None => search.best(&index, validation, &live),
        };
        let Some(combo) = pick else {
            // Every remaining pattern is matched only by invalid
            // combinations — surface them instead of looping forever.
            let patterns = live
                .iter_ones()
                .map(|j| targets[indexed[j]].to_string())
                .collect();
            return (Err(CoverageError::Unhittable { patterns }), switched);
        };
        // Clear the freshly hit patterns from the live set.
        new_hits = 0;
        for j in index.hits(&combo).iter_ones() {
            if live.get(j) {
                live.set(j, false);
                new_hits += 1;
                let target = &targets[indexed[j]];
                match (&mut counts, &mut weight) {
                    (Some(counts), _) => counts.for_each_completion(target, |cell| *cell -= 1),
                    (None, Some(weight)) => *weight -= completions(target, cardinalities),
                    (None, None) => {}
                }
            }
        }
        debug_assert!(new_hits > 0, "pick {combo:?} hit no live target");
        selected.push(combo);
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
        solve_with(targets, cardinalities, validation, Switch::ByRule).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::X;
    use crate::validation::ValidationRule;
    use proptest::prelude::*;

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

    /// A run's picks, or its unhittable targets.
    fn outcome(run: Result<Vec<Vec<u8>>>) -> std::result::Result<Vec<Vec<u8>>, Vec<String>> {
        run.map_err(|e| match e {
            CoverageError::Unhittable { patterns } => patterns,
            other => panic!("unexpected error {other}"),
        })
    }

    /// A random instance: cardinalities 0–4 on d ≤ 5 attributes (0 in about
    /// one attribute of ten), up to 40 targets whose positions are `X`
    /// 6 times in 16 and outside the domain once in 16, up to two rules of
    /// one or two clauses over value sets that may leave the domain, and a
    /// round to force the switch before.
    fn instance() -> impl Strategy<Value = (Vec<u8>, Vec<Pattern>, ValidationOracle, usize)> {
        (1usize..=5)
            .prop_flat_map(|d| {
                let cards = proptest::collection::vec(0u8..10, d);
                let targets =
                    proptest::collection::vec(proptest::collection::vec(0u8..16, d), 0..40);
                let clause = (0usize..d, proptest::collection::vec(0u8..5, 1..=2));
                let rules =
                    proptest::collection::vec(proptest::collection::vec(clause, 1..=2), 0..=2);
                (cards, targets, rules, 1usize..8)
            })
            .prop_map(|(raw_cards, raw_targets, rules, round)| {
                let cards: Vec<u8> = raw_cards
                    .iter()
                    .map(|&k| if k == 0 { 0 } else { 1 + k % 4 })
                    .collect();
                let targets = raw_targets
                    .iter()
                    .map(|codes| {
                        let codes: Vec<u8> = codes
                            .iter()
                            .zip(&cards)
                            .map(|(&k, &c)| match k {
                                0..=5 => X,
                                15 => c,
                                _ => (k - 6) % c.max(1),
                            })
                            .collect();
                        Pattern::from_codes(codes)
                    })
                    .collect();
                let rules = rules.into_iter().map(ValidationRule::new).collect();
                (cards, targets, ValidationOracle::new(rules), round)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn the_count_phase_picks_what_the_search_picks(case in instance()) {
            let (cards, targets, validation, round) = case;
            let run = |switch| solve_with(&targets, &cards, &validation, switch);
            let (searched, never) = run(Switch::Never);
            prop_assert_eq!(never, None);
            let searched = outcome(searched);
            for switch in [Switch::Before(1), Switch::Before(2), Switch::Before(round), Switch::ByRule] {
                let (counted, switched) = run(switch);
                prop_assert_eq!(&outcome(counted), &searched, "{:?}", switch);
                if let Switch::Before(1) = switch {
                    prop_assert_eq!(switched.is_some(), !targets.is_empty());
                }
            }
        }
    }

    #[test]
    fn dense_targets_switch_to_counts_and_sparse_ones_do_not() {
        use crate::enhance::uncovered_patterns_at_level;
        use crate::mup::{DeepDiver, MupAlgorithm};
        use crate::Threshold;
        use coverage_data::generators::airbnb_like;

        let targets = |n, d, seed, threshold, lambda| {
            let ds = airbnb_like(n, d, seed).unwrap();
            let cards = ds.schema().cardinalities();
            let mups = DeepDiver::default().find_mups(&ds, threshold).unwrap();
            (uncovered_patterns_at_level(&mups, &cards, lambda), cards)
        };
        let accept_all = ValidationOracle::accept_all();
        // The d = 13 golden plan: 71,096 targets fill most of level 6.
        let (dense, cards) = targets(20_000, 13, 2019, Threshold::Count(200), 6);
        let (picks, switched) = solve_with(&dense, &cards, &accept_all, Switch::ByRule);
        assert_eq!(switched, Some(2));
        assert_eq!(picks.unwrap().len(), 185);
        // The Criterion sparse arms.
        for lambda in [2, 3, 4] {
            let (sparse, cards) = targets(20_000, 12, 3, Threshold::Fraction(1e-3), lambda);
            let (_, switched) = solve_with(&sparse, &cards, &accept_all, Switch::ByRule);
            assert_eq!(switched, None, "lambda {lambda}");
        }
    }

    #[test]
    fn completions_count_in_domain_combinations() {
        let p = |codes: &[u8]| Pattern::from_codes(codes.to_vec());
        assert_eq!(completions(&p(&[X, 1, X]), &[3, 2, 4]), 12);
        assert_eq!(completions(&p(&[X, 2, X]), &[3, 2, 4]), 0);
        assert_eq!(completions(&p(&[0, 1]), &[3, 2]), 1);
        assert_eq!(completions(&p(&[X, 0]), &[0, 2]), 0);
    }
}
