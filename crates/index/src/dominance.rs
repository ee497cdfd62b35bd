//! The dynamic MUP-dominance index of Appendix B.
//!
//! DEEPDIVER must decide, for every uncovered node it reaches, whether some
//! already discovered MUP *dominates* it (Definition 9): then the node lies
//! in a pruned subtree. A linear scan over the MUP set is too slow, so the
//! paper keeps, per attribute, one growable bit-vector per value **plus one
//! for `X`**, where bit `k` describes MUP `k`, and reduces the check to a
//! word-parallel AND with early termination.
//!
//! Layout: the vectors are stored word-interleaved. Row `r` holds one word
//! per `(attribute, slot)` pair — `Σ(c_i + 1)` words — for MUPs
//! `64r .. 64r + 63`, so one check reads one contiguous row per 64 MUPs.
//! Value slot `v` of attribute `i` has bit `k` set when `MUP[k][i] ∈ {v, X}`
//! (the paper's value-OR-`X` vector, precomputed at insertion); slot `c_i`
//! has it set when `MUP[k][i] = X`. A query resolves its slot per attribute
//! once, then ANDs those words row by row. Rows are scanned newest-first:
//! the MUP that prunes a node is usually one found a few dives earlier, and
//! the answer does not depend on the order.

use crate::oracle::X;

/// Growable inverted index over a set of MUPs supporting the bit-parallel
/// "is this pattern dominated by a stored MUP?" check.
#[derive(Debug, Clone)]
pub struct MupDominanceIndex {
    /// Row-major words: slot `v` of attribute `i` for MUPs `64r ..` is
    /// `words[r * width + offsets[i] + v]`.
    words: Vec<u64>,
    /// First slot of each attribute within a row; `offsets[d]` is the row
    /// width.
    offsets: Vec<usize>,
    cardinalities: Vec<u8>,
    len: usize,
}

impl MupDominanceIndex {
    /// Creates an empty index for attributes with the given cardinalities.
    pub fn new(cardinalities: &[u8]) -> Self {
        let mut offsets = Vec::with_capacity(cardinalities.len() + 1);
        let mut acc = 0usize;
        for &c in cardinalities {
            offsets.push(acc);
            acc += c as usize + 1; // one slot per value plus the X slot
        }
        offsets.push(acc);
        Self {
            words: Vec::new(),
            offsets,
            cardinalities: cardinalities.to_vec(),
            len: 0,
        }
    }

    /// Words per row (one row per 64 MUPs).
    fn row_width(&self) -> usize {
        self.offsets[self.cardinalities.len()]
    }

    /// The slot of `code` on attribute `attribute`, relative to the row.
    ///
    /// # Panics
    ///
    /// Panics on a value code out of range.
    fn slot(&self, attribute: usize, code: u8) -> usize {
        let c = self.cardinalities[attribute];
        let v = if code == X {
            c as usize
        } else {
            assert!(
                code < c,
                "value {code} out of range for attribute {attribute}"
            );
            code as usize
        };
        self.offsets[attribute] + v
    }

    /// Number of MUPs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no MUPs have been added yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a newly discovered MUP.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range value codes.
    pub fn add(&mut self, codes: &[u8]) {
        assert_eq!(codes.len(), self.cardinalities.len(), "arity mismatch");
        let width = self.row_width();
        if self.len.is_multiple_of(64) {
            self.words.resize(self.words.len() + width, 0);
        }
        let row = (self.len / 64) * width;
        let bit = 1u64 << (self.len % 64);
        for (i, &code) in codes.iter().enumerate() {
            let slot = self.slot(i, code);
            // X matches every value, so it lands in every slot.
            let first = if code == X { self.offsets[i] } else { slot };
            for word in &mut self.words[row + first..=row + slot] {
                *word |= bit;
            }
        }
        self.len += 1;
    }

    /// Whether some stored MUP dominates `codes` (i.e. `codes` lies in a
    /// pruned subtree): some MUP `M` with `M[i] ∈ {X, codes[i]}` for every
    /// deterministic `i`, and `M[i] = X` wherever `codes[i] = X`. Equality
    /// counts as domination.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range value codes.
    pub fn dominated_by_any(&self, codes: &[u8]) -> bool {
        assert_eq!(codes.len(), self.cardinalities.len(), "arity mismatch");
        if self.len == 0 {
            return false;
        }
        let slots: Vec<usize> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| self.slot(i, code))
            .collect();
        if slots.is_empty() {
            // Zero attributes: every stored MUP is the empty pattern.
            return true;
        }
        // Newest row first; within a row, AND the selected words and stop
        // at the first attribute that clears every bit. Bits past `len`
        // were never set, so no masking is needed.
        self.words.chunks_exact(self.row_width()).rev().any(|row| {
            let mut acc = u64::MAX;
            for &s in &slots {
                acc &= row[s];
                if acc == 0 {
                    return false;
                }
            }
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_with(mups: &[&[u8]], cards: &[u8]) -> MupDominanceIndex {
        let mut idx = MupDominanceIndex::new(cards);
        for m in mups {
            idx.add(m);
        }
        idx
    }

    #[test]
    fn empty_index_dominates_nothing() {
        let idx = MupDominanceIndex::new(&[2, 2, 2]);
        assert!(idx.is_empty());
        assert!(!idx.dominated_by_any(&[1, 1, 1]));
        assert!(!idx.dominated_by_any(&[X, X, X]));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn zero_attribute_mups_dominate_the_empty_pattern() {
        let mut idx = MupDominanceIndex::new(&[]);
        assert!(!idx.dominated_by_any(&[]));
        idx.add(&[]);
        assert!(idx.dominated_by_any(&[]));
    }

    #[test]
    fn paper_example_dominance() {
        // MUP 1XX from Example 1.
        let idx = index_with(&[&[1, X, X]], &[2, 2, 2]);
        // 10X is dominated by 1XX.
        assert!(idx.dominated_by_any(&[1, 0, X]));
        assert!(idx.dominated_by_any(&[1, 1, 1]));
        // XXX and 0XX are not.
        assert!(!idx.dominated_by_any(&[X, X, X]));
        assert!(!idx.dominated_by_any(&[0, X, X]));
        // The MUP itself counts as dominated (equality).
        assert!(idx.dominated_by_any(&[1, X, X]));
    }

    #[test]
    fn x_positions_require_x_in_dominator() {
        // MUP 10X: pattern 1XX is NOT dominated by it (1XX is more general).
        let idx = index_with(&[&[1, 0, X]], &[2, 2, 2]);
        assert!(!idx.dominated_by_any(&[1, X, X]));
        assert!(idx.dominated_by_any(&[1, 0, 1]));
    }

    #[test]
    fn multiple_mups_any_semantics() {
        let idx = index_with(&[&[1, X, X], &[X, 0, 2]], &[2, 2, 3]);
        assert!(idx.dominated_by_any(&[1, 1, 0])); // by 1XX
        assert!(idx.dominated_by_any(&[0, 0, 2])); // by X02
        assert!(!idx.dominated_by_any(&[0, 1, 0]));
        assert!(!idx.dominated_by_any(&[X, X, 2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_query_panics() {
        index_with(&[&[1, X]], &[2, 2]).dominated_by_any(&[2, X]);
    }

    #[test]
    fn agrees_with_reference_implementation() {
        use rand::Rng;
        use rand::SeedableRng;
        let cards = [2u8, 3, 2, 4];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let random_pattern = |rng: &mut rand_chacha::ChaCha8Rng| -> Vec<u8> {
            cards
                .iter()
                .map(|&c| {
                    if rng.random::<f64>() < 0.4 {
                        X
                    } else {
                        rng.random_range(0..c)
                    }
                })
                .collect()
        };
        let dominates = |general: &[u8], specific: &[u8]| {
            general
                .iter()
                .zip(specific)
                .all(|(&g, &s)| g == X || g == s)
        };
        // 150 MUPs span three word rows.
        let mups: Vec<Vec<u8>> = (0..150).map(|_| random_pattern(&mut rng)).collect();
        let mut idx = MupDominanceIndex::new(&cards);
        for (n, m) in mups.iter().enumerate() {
            idx.add(m);
            if n % 37 == 0 || n == mups.len() - 1 {
                for _ in 0..100 {
                    let p = random_pattern(&mut rng);
                    let expect = mups[..=n].iter().any(|m| dominates(m, &p));
                    assert_eq!(idx.dominated_by_any(&p), expect, "{n} MUPs, {p:?}");
                }
            }
        }
    }

    #[test]
    fn grows_past_word_boundaries() {
        let mut idx = MupDominanceIndex::new(&[2, 2]);
        for k in 0..130 {
            // MUPs alternate between 0X and X1.
            if k % 2 == 0 {
                idx.add(&[0, X]);
            } else {
                idx.add(&[X, 1]);
            }
        }
        assert_eq!(idx.len(), 130);
        assert!(idx.dominated_by_any(&[0, 0]));
        assert!(idx.dominated_by_any(&[1, 1]));
        assert!(!idx.dominated_by_any(&[1, 0]));
    }

    /// An index of `n` MUPs over six ternary attributes where only MUP
    /// `only` (if any) dominates the probe `1 2 0 1 2 0`: every other MUP
    /// fixes attribute 0 to `0`.
    fn single_dominator(n: usize, only: Option<usize>) -> MupDominanceIndex {
        let mut idx = MupDominanceIndex::new(&[3; 6]);
        for k in 0..n {
            if Some(k) == only {
                idx.add(&[1, X, 0, X, X, X]);
            } else {
                idx.add(&[0, X, X, (k % 3) as u8, X, X]);
            }
        }
        assert_eq!(idx.len(), n);
        idx
    }

    #[test]
    fn finds_a_lone_dominator_in_the_oldest_and_newest_rows() {
        const PROBE: [u8; 6] = [1, 2, 0, 1, 2, 0];
        for n in [0usize, 63, 64, 65, 129] {
            assert!(
                !single_dominator(n, None).dominated_by_any(&PROBE),
                "{n} MUPs, no dominator"
            );
            if n == 0 {
                continue;
            }
            // Oldest row: the first MUP; also the last MUP of that row.
            for k in [0, n.min(64) - 1] {
                assert!(
                    single_dominator(n, Some(k)).dominated_by_any(&PROBE),
                    "{n} MUPs, dominator #{k} (oldest row)"
                );
            }
            // Newest row: its first and its last MUP.
            for k in [(n - 1) / 64 * 64, n - 1] {
                assert!(
                    single_dominator(n, Some(k)).dominated_by_any(&PROBE),
                    "{n} MUPs, dominator #{k} (newest row)"
                );
            }
        }
    }
}
