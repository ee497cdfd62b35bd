//! Properties of the greedy hitting set on small random target sets: it
//! walks the same tree as the plain depth-first search of §IV-B, every pick
//! is a maximum-marginal valid combination, and its unhittable targets are
//! the baseline's. Plus the target counts around the solver's compaction.

use coverage_core::enhance::{GreedyHittingSet, HittingSetSolver, NaiveHittingSet};
use coverage_core::pattern::{Pattern, X};
use coverage_core::validation::{ValidationOracle, ValidationRule};
use coverage_core::CoverageError;
use proptest::prelude::*;

/// The plain walk (Algorithm 4 without compaction or bit-vectors): each
/// round re-scores every node's children over the live targets, visits
/// interior children by stable descending count, stops at the first that
/// does not beat the best, and takes the last maximal child at a leaf.
/// `None` when some target is unhittable.
fn plain_walk(
    targets: &[Pattern],
    cards: &[u8],
    validation: &ValidationOracle,
) -> Option<Vec<Vec<u8>>> {
    fn descend(
        level: usize,
        live: &[&Pattern],
        cards: &[u8],
        validation: &ValidationOracle,
        prefix: &mut Vec<u8>,
        best: &mut (usize, Option<Vec<u8>>),
    ) {
        let mut children: Vec<(usize, u8, Vec<&Pattern>)> = Vec::new();
        for v in 0..cards[level] {
            prefix.push(v);
            let allowed = validation.allows_prefix(prefix);
            prefix.pop();
            if allowed {
                let kept: Vec<&Pattern> = live
                    .iter()
                    .copied()
                    .filter(|p| p.get(level).is_none_or(|x| x == v))
                    .collect();
                children.push((kept.len(), v, kept));
            }
        }
        if level + 1 == cards.len() {
            if let Some((cnt, v, _)) = children.iter().max_by_key(|c| c.0) {
                if *cnt > best.0 {
                    let mut combo = prefix.clone();
                    combo.push(*v);
                    *best = (*cnt, Some(combo));
                }
            }
            return;
        }
        children.sort_by_key(|c| std::cmp::Reverse(c.0));
        for (cnt, v, kept) in children {
            if cnt <= best.0 {
                break;
            }
            prefix.push(v);
            descend(level + 1, &kept, cards, validation, prefix, best);
            prefix.pop();
        }
    }

    let mut live: Vec<&Pattern> = targets.iter().collect();
    let mut selected = Vec::new();
    while !live.is_empty() {
        let mut best = (0, None);
        descend(0, &live, cards, validation, &mut Vec::new(), &mut best);
        let combo = best.1?;
        live.retain(|p| !p.matches(&combo));
        selected.push(combo);
    }
    Some(selected)
}

/// Every valid full combination, in odometer order.
fn valid_universe(cards: &[u8], validation: &ValidationOracle) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = vec![Vec::new()];
    for &c in cards {
        all = all
            .into_iter()
            .flat_map(|prefix| {
                (0..c).map(move |v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    all.retain(|combo| validation.is_valid(&Pattern::from_combination(combo)));
    all
}

/// A random instance: cardinalities 2–4 on d ≤ 6 attributes, up to 48
/// targets with each position `X` half the time, and up to two rules, each
/// a forbidden value or a forbidden pair.
fn instance() -> impl Strategy<Value = (Vec<u8>, Vec<Pattern>, ValidationOracle)> {
    (1usize..=6)
        .prop_flat_map(|d| {
            let cards = proptest::collection::vec(2u8..=4, d);
            let targets = proptest::collection::vec(proptest::collection::vec(0u8..8, d), 0..48);
            let rules = proptest::collection::vec((0usize..d, 0u8..4, 0usize..d, 0u8..4), 0..=2);
            (cards, targets, rules)
        })
        .prop_map(|(cards, raw_targets, raw_rules)| {
            let targets = raw_targets
                .into_iter()
                .map(|codes| {
                    Pattern::from_codes(
                        codes
                            .iter()
                            .zip(&cards)
                            .map(|(&k, &c)| if k >= 4 { X } else { k % c })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let rules = raw_rules
                .into_iter()
                .map(|(a, va, b, vb)| {
                    let (va, vb) = (va % cards[a], vb % cards[b]);
                    if a == b {
                        ValidationRule::forbid_values(a, vec![va])
                    } else {
                        ValidationRule::forbid_pair((a, va), (b, vb))
                    }
                })
                .collect();
            (cards, targets, ValidationOracle::new(rules))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn greedy_is_the_plain_walk_and_picks_maximum_marginals(
        case in instance(),
    ) {
        let (cards, targets, validation) = case;
        let greedy = GreedyHittingSet.solve(&targets, &cards, &validation);
        let naive = NaiveHittingSet::default().solve(&targets, &cards, &validation);
        match (greedy, naive) {
            (Ok(picks), Ok(_)) => {
                prop_assert_eq!(Some(picks.clone()), plain_walk(&targets, &cards, &validation));
                let universe = valid_universe(&cards, &validation);
                let mut live: Vec<&Pattern> = targets.iter().collect();
                for pick in &picks {
                    prop_assert!(validation.is_valid(&Pattern::from_combination(pick)));
                    let marginal = |c: &[u8]| live.iter().filter(|p| p.matches(c)).count();
                    let best = universe.iter().map(|c| marginal(c)).max().unwrap_or(0);
                    prop_assert_eq!(marginal(pick), best, "pick {:?}", pick);
                    live.retain(|p| !p.matches(pick));
                }
                prop_assert!(live.is_empty());
            }
            (
                Err(CoverageError::Unhittable { patterns: got }),
                Err(CoverageError::Unhittable { patterns: expected }),
            ) => {
                prop_assert_eq!(got, expected);
                prop_assert!(plain_walk(&targets, &cards, &validation).is_none());
            }
            (greedy, naive) => {
                prop_assert!(false, "greedy {greedy:?} vs naive {naive:?}");
            }
        }
    }
}

/// `n` distinct targets over seven ternary attributes: every fourth one
/// fully deterministic, the rest with `X` on positions picked by the bits
/// of their number, so picks hit varying numbers of them.
fn targets(n: usize) -> Vec<Pattern> {
    (0..n)
        .map(|j| {
            let mut codes: Vec<u8> = (0..7).map(|i| ((j / 3usize.pow(i)) % 3) as u8).collect();
            if j % 4 != 0 {
                for (i, code) in codes.iter_mut().enumerate() {
                    if (j >> (i % 5)) & 1 == 1 {
                        *code = X;
                    }
                }
            }
            Pattern::from_codes(codes)
        })
        .collect()
}

#[test]
fn compaction_boundaries_walk_the_plain_tree() {
    let cards = [3u8; 7];
    let rules = ValidationOracle::new(vec![ValidationRule::forbid_pair((0, 2), (3, 1))]);
    for n in [1, 63, 64, 65, 127, 128, 129, 300] {
        for validation in [ValidationOracle::accept_all(), rules.clone()] {
            let targets = targets(n);
            let expected = plain_walk(&targets, &cards, &validation);
            match GreedyHittingSet.solve(&targets, &cards, &validation) {
                Ok(picks) => assert_eq!(Some(picks), expected, "n={n}"),
                Err(e) => assert!(expected.is_none(), "n={n}: {e}"),
            }
        }
    }
}

#[test]
fn a_pick_clearing_exactly_a_quarter_triggers_compaction_on_the_boundary() {
    // 16 targets hit together by 000000 (value 0 first, {0, X} elsewhere)
    // and 48 fully deterministic ones starting with 1 or 2, each hit only
    // by itself: the first pick leaves 48 of 64 live, exactly ¾, and every
    // later pick leaves one fewer.
    let mut targets: Vec<Pattern> = (0..16u8)
        .map(|m| {
            let mut codes = vec![0u8];
            codes.extend((0..5).map(|i| if m >> i & 1 == 1 { X } else { 0 }));
            Pattern::from_codes(codes)
        })
        .collect();
    targets.extend((0..48u32).map(|k| {
        let mut codes = vec![1 + (k % 2) as u8];
        codes.extend((0..5).map(|i| ((k / 2 / 3u32.pow(i)) % 3) as u8));
        Pattern::from_codes(codes)
    }));
    let cards = [3u8; 6];
    let validation = ValidationOracle::accept_all();
    let picks = GreedyHittingSet
        .solve(&targets, &cards, &validation)
        .unwrap();
    assert_eq!(picks.len(), 49);
    assert_eq!(targets.iter().filter(|p| p.matches(&picks[0])).count(), 16);
    assert_eq!(Some(picks), plain_walk(&targets, &cards, &validation));
}
