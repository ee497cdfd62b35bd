//! DEEPDIVER (§III-E, Algorithm 3): depth-first dives that reach uncovered
//! territory quickly and prune the descendants of every discovered MUP.
//!
//! The walk pops nodes off a stack; a popped node is
//!
//! * **covered** — its Rule-1 children are pushed;
//! * **dominated by** a discovered MUP — it lies in a pruned subtree and is
//!   skipped (checked only for uncovered nodes: a covered node cannot be
//!   dominated by an uncovered pattern);
//! * **uncovered** otherwise — it is a new MUP itself.
//!
//! Rule-1 children are pushed in ascending (position, value) order and
//! popped last-in first-out, so the walk visits each subtree whole, larger
//! positions first. Take a pattern `p` that dominates a node `q`. Either
//! `p` lies on `q`'s Rule-1 path from the root, or the two paths branch at
//! some node `b`. In the second case `p`'s branch below `b` sets a larger
//! position than `q`'s, because `p`'s deterministic elements are a subset
//! of `q`'s. Either way `p`, if visited, is popped before `q`.
//!
//! Algorithm 3 skips the coverage probe of nodes that *dominate* a
//! discovered MUP (covered ancestors). By the order above no such node is
//! popped after the MUP, so the check is left out.
//!
//! Algorithm 3 also walks up from an uncovered node to its MUP. In this
//! order that climb never moves, and an uncovered node is dominated by a
//! discovered MUP exactly when one of its parents is uncovered:
//!
//! * Let `q` be uncovered with an uncovered parent. Climbing from that
//!   parent reaches a MUP `M` that strictly dominates `q`. Every node on
//!   `M`'s Rule-1 path is an ancestor of `M`, so it is covered, and its
//!   level is below `M`'s, so below any `max_level` that admits `q`: the
//!   walk pushes `M`, pops it before `q`, and finds it (a MUP is
//!   dominated by no other uncovered pattern, and a tree walk pops each
//!   node once). So `q` is pruned.
//! * Let `q` be dominated by a discovered MUP `M`. Then `M ≠ q`, since
//!   each node is popped once, and `q` has a parent that `M` dominates or
//!   equals; that parent is uncovered.
//!
//! So an uncovered popped node that is not pruned has every parent
//! covered: by Definition 5 it is a MUP, and the climb is the identity.
//! The dive is written once ([`dive`]) over a [`View`] that probes and
//! prunes in one of two ways:
//!
//! * [`NodeView`] — when the provider answers
//!   [`CoverageProvider::covered_nodes`] (the oracle's lattice at any τ,
//!   or its covered map at the map's τ), pending nodes are indices in the
//!   row-major pattern-graph layout. A child is `node − (c_i − v)·stride_i`,
//!   a parent `node + (c_i − digit_i)·stride_i`, and every probe is one bit
//!   or count read. An uncovered node is a MUP when every parent is
//!   covered (Definition 5), so no dominance index is kept.
//! * [`CodesView`] — otherwise (the dense oracle, schemas past the
//!   lattice's cell budget, wrappers), pending nodes are codes on one flat
//!   stack, probes go through [`CoverageProvider::descent`], which lets the
//!   dense oracle answer each child from its parent's match vector, and the
//!   dominated-by check is Appendix B's [`MupDominanceIndex`].
//!
//! Both find the same MUPs in the same order.

use coverage_index::{CoverageProvider, CoveredNodes, Descent, MupDominanceIndex, X};

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
        let cards = oracle.cardinalities();
        let depth = self.max_level.map_or(cards.len(), |m| m.min(cards.len()));
        Ok(match oracle.covered_nodes(tau) {
            Some(nodes) => dive(NodeView::new(nodes, depth), cards, depth),
            None => dive(CodesView::new(oracle, tau), cards, depth),
        })
    }
}

/// How a [`dive`] sees the pattern graph: it names pending nodes, probes
/// the node just popped, names that node's Rule-1 children, and decides
/// whether it is a new MUP.
trait View {
    /// A pending node as the stack holds it.
    type Node: Copy;

    /// The root, `XX…X`.
    fn root(&mut self) -> Self::Node;

    /// Makes `node`, just popped at `level`, the current node, and tells
    /// whether it is covered. `expand` says whether a covered node's
    /// children are pushed next.
    fn visit(&mut self, node: Self::Node, level: usize, expand: bool) -> bool;

    /// The current node's Rule-1 child that sets attribute `i` to `v`.
    fn child(&mut self, i: usize, v: u8) -> Self::Node;

    /// The current node, which is uncovered, when no discovered MUP
    /// dominates it.
    fn new_mup(&mut self) -> Option<Pattern>;
}

/// The dive: pops nodes in the order the module doc describes and returns
/// the MUPs in discovery order.
fn dive<V: View>(mut view: V, cards: &[u8], depth: usize) -> Vec<Pattern> {
    let mut mups = Vec::new();
    // Pending nodes, each with its level and the first position its Rule-1
    // children may set.
    let mut frames = vec![(view.root(), 0, 0)];
    while let Some((node, level, first_free)) = frames.pop() {
        let expand = level < depth;
        if view.visit(node, level, expand) {
            if expand {
                for (i, &card) in cards.iter().enumerate().skip(first_free) {
                    for v in 0..card {
                        frames.push((view.child(i, v), level + 1, i + 1));
                    }
                }
            }
        } else if let Some(mup) = view.new_mup() {
            mups.push(mup);
        }
    }
    mups
}

/// Nodes as indices in the row-major layout of [`CoveredNodes`]; an
/// uncovered node is a MUP when every parent is covered.
struct NodeView<'a> {
    nodes: CoveredNodes<'a>,
    /// `up[k]` is the step that clears the element the current node's
    /// level-`k + 1` ancestor on its Rule-1 path set (the current node
    /// included): adding it gives a parent. Entries below a popped node's
    /// level were written by its ancestors, since every node popped in
    /// between lies at its level or deeper.
    up: Vec<usize>,
    current: usize,
    level: usize,
}

impl<'a> NodeView<'a> {
    fn new(nodes: CoveredNodes<'a>, depth: usize) -> Self {
        Self {
            nodes,
            up: vec![0; depth],
            current: 0,
            level: 0,
        }
    }
}

impl View for NodeView<'_> {
    /// The node index and the step back to the parent that pushed it.
    type Node = (usize, usize);

    fn root(&mut self) -> (usize, usize) {
        // Every digit is `X`, the highest: the last node.
        (self.nodes.layout().nodes() - 1, 0)
    }

    fn visit(&mut self, (node, up): (usize, usize), level: usize, _expand: bool) -> bool {
        if let Some(k) = level.checked_sub(1) {
            self.up[k] = up;
        }
        self.current = node;
        self.level = level;
        self.nodes.covered(node)
    }

    fn child(&mut self, i: usize, v: u8) -> (usize, usize) {
        let layout = self.nodes.layout();
        let up = usize::from(layout.cardinalities()[i] - v) * layout.strides()[i];
        (self.current - up, up)
    }

    /// The parent that pushed the current node was covered, so only the
    /// other parents are read.
    fn new_mup(&mut self) -> Option<Pattern> {
        let others = &self.up[..self.level.saturating_sub(1)];
        others
            .iter()
            .all(|&up| self.nodes.covered(self.current + up))
            .then(|| Pattern::from_codes(self.nodes.layout().codes(self.current)))
    }
}

/// Nodes as codes on one flat stack, probed through a [`Descent`]; an
/// uncovered node is a MUP when no discovered MUP dominates it.
struct CodesView<'a> {
    probe: Box<dyn Descent + 'a>,
    index: MupDominanceIndex,
    /// `d` codes per pending node.
    pending: Vec<u8>,
    current: Vec<u8>,
}

impl<'a> CodesView<'a> {
    fn new(oracle: &'a dyn CoverageProvider, tau: u64) -> Self {
        Self {
            probe: oracle.descent(tau),
            index: MupDominanceIndex::new(oracle.cardinalities()),
            pending: Vec::new(),
            current: vec![X; oracle.arity()],
        }
    }
}

impl View for CodesView<'_> {
    /// Pending codes live on the view's own stack, in the frames' order.
    type Node = ();

    fn root(&mut self) {
        self.pending.resize(self.current.len(), X);
    }

    fn visit(&mut self, (): (), _level: usize, expand: bool) -> bool {
        let top = self.pending.len() - self.current.len();
        self.current.copy_from_slice(&self.pending[top..]);
        self.pending.truncate(top);
        self.probe.covered(&self.current, expand)
    }

    fn child(&mut self, i: usize, v: u8) {
        let child = self.pending.len();
        self.pending.extend_from_slice(&self.current);
        self.pending[child + i] = v;
    }

    fn new_mup(&mut self) -> Option<Pattern> {
        if self.index.dominated_by_any(&self.current) {
            return None;
        }
        self.index.add(&self.current);
        Some(Pattern::from_codes(self.current.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mup::test_support::{
        assert_example1, assert_matches_reference, brute_force_mups, oracle_for,
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
