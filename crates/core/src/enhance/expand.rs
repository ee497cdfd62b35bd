//! Target-set construction for coverage enhancement.
//!
//! Appendix C shows that covering only the MUPs does **not** guarantee a
//! maximum covered level of λ: a MUP's deeper descendants may stay
//! uncovered. The correct target set `M_λ` is *every* uncovered pattern at
//! level λ — the union of the level-λ descendants of all MUPs with level
//! ≤ λ. The value-count variant (Definition 7) instead targets every
//! uncovered pattern whose value count meets a minimum.

use std::collections::HashSet;

use coverage_index::{LatticeBudget, Layout, X};

use crate::pattern::Pattern;

/// All uncovered patterns at exactly `lambda` deterministic elements,
/// derived from the MUP set (Appendix C). Sorted for determinism.
///
/// MUPs deeper than `lambda` contribute nothing: any level-λ ancestor of a
/// deeper MUP is covered by Definition 5.
///
/// When the pattern graph fits [`LatticeBudget::default`], each MUP marks
/// its level-λ descendants in one bitmap over the graph's nodes, laid out
/// row-major as in the coverage lattice, and the set bits are read back in
/// ascending node order. That order is the patterns' own, so nothing is
/// hashed or sorted. Larger schemas, and MUPs whose codes fall outside the
/// schema, take the union of [`Pattern::descendants_at_level`].
pub fn uncovered_patterns_at_level(
    mups: &[Pattern],
    cardinalities: &[u8],
    lambda: usize,
) -> Vec<Pattern> {
    let sources = || mups.iter().filter(|m| m.level() <= lambda);
    let fits = |m: &Pattern| {
        m.arity() == cardinalities.len()
            && m.codes()
                .iter()
                .zip(cardinalities)
                .all(|(&v, &c)| v == X || v < c)
    };
    match LatticeBudget::default().layout(cardinalities) {
        Some(layout) if sources().all(fits) => {
            let mut bitmap = NodeBitmap::new(&layout);
            for mup in sources() {
                bitmap.mark_descendants(mup.codes(), lambda - mup.level());
            }
            bitmap.patterns()
        }
        _ => {
            let mut set: HashSet<Pattern> = HashSet::new();
            for mup in sources() {
                set.extend(mup.descendants_at_level(cardinalities, lambda));
            }
            let mut out: Vec<Pattern> = set.into_iter().collect();
            out.sort();
            out
        }
    }
}

/// One bit per pattern-graph node of a [`Layout`].
struct NodeBitmap<'a> {
    layout: &'a Layout,
    bits: Vec<u64>,
    /// (stride, cardinality) of the `X` positions of the pattern being
    /// marked, in attribute order.
    free: Vec<(usize, usize)>,
}

impl<'a> NodeBitmap<'a> {
    fn new(layout: &'a Layout) -> Self {
        Self {
            layout,
            bits: vec![0; layout.nodes().div_ceil(64)],
            free: Vec::with_capacity(layout.cardinalities().len()),
        }
    }

    /// Marks every descendant of `codes` with `extra` more deterministic
    /// elements.
    fn mark_descendants(&mut self, codes: &[u8], extra: usize) {
        let (cards, strides) = (self.layout.cardinalities(), self.layout.strides());
        self.free.clear();
        self.free.extend(
            (0..codes.len())
                .filter(|&i| codes[i] == X)
                .map(|i| (strides[i], usize::from(cards[i]))),
        );
        let node = self.layout.node(codes);
        mark(&mut self.bits, &self.free, extra, node);
    }

    /// The marked nodes' patterns, in ascending node order.
    fn patterns(&self) -> Vec<Pattern> {
        let marked = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(marked);
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let node = 64 * w + rest.trailing_zeros() as usize;
                out.push(Pattern::from_codes(self.layout.codes(node)));
                rest &= rest - 1;
            }
        }
        out
    }
}

/// Sets the bit of every node reached from `node` by making `extra` of the
/// `X` positions in `free` deterministic, choosing positions in ascending
/// order so that each descendant is reached once. Making position `i`
/// deterministic with value `v` moves the node by `(v − c_i) · stride_i`.
fn mark(bits: &mut [u64], free: &[(usize, usize)], extra: usize, node: usize) {
    if extra == 0 {
        bits[node / 64] |= 1 << (node % 64);
        return;
    }
    for (k, &(stride, card)) in free.iter().enumerate() {
        if free.len() - k < extra {
            break;
        }
        let at_zero = node - card * stride;
        for v in 0..card {
            mark(bits, &free[k + 1..], extra - 1, at_zero + v * stride);
        }
    }
}

/// All uncovered patterns whose value count (Definition 7) is at least
/// `min_value_count` — the alternative enhancement objective of §II/§IV.
///
/// Value count is monotone decreasing down the pattern graph, so the
/// enumeration explores each MUP's descendant cone and prunes as soon as the
/// count drops below the bound.
pub fn uncovered_patterns_with_value_count(
    mups: &[Pattern],
    cardinalities: &[u8],
    min_value_count: u128,
) -> Vec<Pattern> {
    let mut set: HashSet<Pattern> = HashSet::new();
    let mut stack: Vec<Pattern> = Vec::new();
    for mup in mups {
        if mup.value_count(cardinalities) >= min_value_count && set.insert(mup.clone()) {
            stack.push(mup.clone());
        }
    }
    while let Some(p) = stack.pop() {
        for child in p.children(cardinalities) {
            if child.value_count(cardinalities) >= min_value_count && set.insert(child.clone()) {
                stack.push(child);
            }
        }
    }
    let mut out: Vec<Pattern> = set.into_iter().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Example 2's MUP set (Fig 8) over cardinalities [2, 3, 3, 2, 2].
    fn example2_mups() -> Vec<Pattern> {
        [
            "XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX", "X020X",
        ]
        .iter()
        .map(|s| Pattern::parse(s).unwrap())
        .collect()
    }

    const EX2_CARDS: [u8; 5] = [2, 3, 3, 2, 2];

    #[test]
    fn level2_targets_expand_example2() {
        // §IV names "P1 to P6" as the λ = 2 targets, but strictly by
        // Definition the level-2 target set is: the level-2 MUPs themselves
        // (P1 = XX01X, P4 = 02XXX, P5 = XX11X) plus the level-2 descendants
        // of the level-1 MUP P3 = XXXX1 (one per attribute value of the four
        // remaining attributes: 2+3+3+2 = 10). MUPs deeper than λ (P2, P6,
        // P7) contribute nothing.
        let targets = uncovered_patterns_at_level(&example2_mups(), &EX2_CARDS, 2);
        let strs: Vec<String> = targets.iter().map(|p| p.to_string()).collect();
        for expected in ["XX01X", "02XXX", "XX11X", "XXX01", "1XXX1", "X2XX1"] {
            assert!(strs.contains(&expected.to_string()), "missing {expected}");
        }
        for absent in ["1X20X", "111XX", "X020X", "XXXX1"] {
            assert!(!strs.contains(&absent.to_string()), "unexpected {absent}");
        }
        assert!(targets.iter().all(|p| p.level() == 2));
        assert_eq!(targets.len(), 13);
    }

    #[test]
    fn level3_expansion_contains_appendix_c_example() {
        // Appendix C: 1X11X (a child of the MUP XX11X) is uncovered at
        // level 3 and must be in M_3; the expansion of XX01X at level 3
        // contains the seven listed patterns.
        let targets = uncovered_patterns_at_level(&example2_mups(), &EX2_CARDS, 3);
        let strs: HashSet<String> = targets.iter().map(|p| p.to_string()).collect();
        assert!(strs.contains("1X11X"));
        for expected in [
            "0X01X", "1X01X", "X001X", "X101X", "X201X", "XX010", "XX011",
        ] {
            assert!(strs.contains(expected), "missing {expected}");
        }
        // P7 (level 3) is now included as its own descendant.
        assert!(strs.contains("X020X"));
        assert!(targets.iter().all(|p| p.level() == 3));
    }

    #[test]
    fn expansion_is_deduplicated() {
        // Overlapping MUPs share descendants; the result must be a set.
        let mups = vec![
            Pattern::parse("0XX").unwrap(),
            Pattern::parse("X0X").unwrap(),
        ];
        let targets = uncovered_patterns_at_level(&mups, &[2, 2, 2], 2);
        let unique: HashSet<&Pattern> = targets.iter().collect();
        assert_eq!(unique.len(), targets.len());
        // 00X is a descendant of both MUPs but appears once.
        assert!(targets.iter().any(|p| p.to_string() == "00X"));
    }

    #[test]
    fn value_count_targets_respect_bound() {
        // Over [2,3,3,2,2] the MUP 02XXX has value count 3·2·2 = 12; its
        // children drop to ≤ 6.
        let mups = vec![Pattern::parse("02XXX").unwrap()];
        let t12 = uncovered_patterns_with_value_count(&mups, &EX2_CARDS, 12);
        assert_eq!(t12.len(), 1);
        let t6 = uncovered_patterns_with_value_count(&mups, &EX2_CARDS, 6);
        assert!(t6.len() > 1);
        assert!(t6.iter().all(|p| p.value_count(&EX2_CARDS) >= 6));
        // Every target is dominated by the MUP.
        assert!(t6.iter().all(|p| mups[0].dominates(p)));
    }

    /// The union of every source MUP's level-λ descendants, sorted.
    fn reference(mups: &[Pattern], cards: &[u8], lambda: usize) -> Vec<Pattern> {
        let union: BTreeSet<Pattern> = mups
            .iter()
            .filter(|m| m.level() <= lambda)
            .flat_map(|m| m.descendants_at_level(cards, lambda))
            .collect();
        union.into_iter().collect()
    }

    #[test]
    fn row_major_node_order_is_pattern_order() {
        let cards = [2u8, 3, 1, 2, 4];
        let layout = LatticeBudget::default().layout(&cards).unwrap();
        assert_eq!(layout.nodes(), 3 * 4 * 2 * 3 * 5);
        let patterns: Vec<Pattern> = (0..layout.nodes())
            .map(|node| {
                let codes = layout.codes(node);
                assert_eq!(layout.node(&codes), node);
                Pattern::from_codes(codes)
            })
            .collect();
        assert!(patterns.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(patterns[0].to_string(), "00000");
        assert_eq!(patterns[layout.nodes() - 1], Pattern::all_x(cards.len()));
    }

    #[test]
    fn schemas_past_the_budget_take_the_union_of_descendants() {
        // 3^15 nodes pass the 2^22-cell budget.
        let cards = [2u8; 15];
        assert!(LatticeBudget::default().layout(&cards).is_none());
        let mups: Vec<Pattern> = [
            "1XXXXXXXXXXXXXX",
            "X0XXXXXXXXXXXX1",
            "XXXXXXX11XXXXXX",
            "0X1X0XXXXXXXXXX",
            "XXXXXXXXXXXXX0X",
        ]
        .iter()
        .map(|s| Pattern::parse(s).unwrap())
        .collect();
        for lambda in 0..=3 {
            let targets = uncovered_patterns_at_level(&mups, &cards, lambda);
            assert_eq!(targets, reference(&mups, &cards, lambda), "λ = {lambda}");
        }
        // 14·2 descendants of each level-1 MUP, one shared, and the two
        // level-2 MUPs; the level-3 MUP lies deeper.
        assert_eq!(uncovered_patterns_at_level(&mups, &cards, 2).len(), 57);
    }

    #[test]
    fn codes_outside_the_schema_take_the_union_of_descendants() {
        let mups = vec![
            Pattern::parse("X3X").unwrap(),
            Pattern::parse("1XX").unwrap(),
        ];
        let cards = [2u8, 2, 2];
        let targets = uncovered_patterns_at_level(&mups, &cards, 2);
        assert_eq!(targets, reference(&mups, &cards, 2));
        assert!(targets.iter().any(|p| p.to_string() == "03X"));
    }

    /// Random cardinalities 1–4 on d ≤ 6 attributes, up to 12 MUPs whose
    /// positions are `X` half the time, and λ from 0 to d. MUPs may nest,
    /// overlap, repeat and lie deeper than λ.
    fn expansion_case() -> impl Strategy<Value = (Vec<u8>, Vec<Pattern>, usize)> {
        proptest::collection::vec(1u8..=4, 1..=6).prop_flat_map(|cards| {
            let d = cards.len();
            let mups = proptest::collection::vec(proptest::collection::vec(0u8..8, d), 0..12);
            (Just(cards), mups, 0..=d).prop_map(|(cards, raw, lambda)| {
                let mups = raw
                    .iter()
                    .map(|codes| {
                        let codes: Vec<u8> = (codes.iter().zip(&cards))
                            .map(|(&k, &c)| if k < 4 { X } else { (k - 4) % c })
                            .collect();
                        Pattern::from_codes(codes)
                    })
                    .collect();
                (cards, mups, lambda)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_bitmap_expansion_equals_the_union_of_descendants(case in expansion_case()) {
            let (cards, mups, lambda) = case;
            prop_assert_eq!(
                uncovered_patterns_at_level(&mups, &cards, lambda),
                reference(&mups, &cards, lambda)
            );
        }
    }

    #[test]
    fn empty_mups_give_empty_targets() {
        assert!(uncovered_patterns_at_level(&[], &EX2_CARDS, 3).is_empty());
        assert!(uncovered_patterns_with_value_count(&[], &EX2_CARDS, 1).is_empty());
    }
}
