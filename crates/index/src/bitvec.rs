//! A packed bit-vector tuned for the paper's inverted-index workload:
//! word-parallel AND across several vectors and weighted popcounts against a
//! multiplicity vector (Appendix A's dot product with the `cnt` vector),
//! with an early exit once the count reaches a threshold.
//! [`SparseWords`] is the nonzero-word form the greedy hitting set (§IV-B)
//! narrows its search filters in.
//!
//! The heavy loops live in [`crate::kernels`] — explicit 4×`u64`-lane
//! unrolled word kernels shared with the compressed backend's bitmap
//! containers; this module only adds the length/weight contracts on top.

use crate::kernels;

/// Number of bits per storage word.
const WORD_BITS: usize = kernels::WORD_BITS;

/// A growable packed bit-vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// An all-one vector of `len` bits (trailing bits of the last word are
    /// kept zero so popcounts stay exact).
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector of `len` bits with the given indices set.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut v = Self::zeros(len);
        for i in indices {
            v.set(i, true);
        }
        v
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Writes bit `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Appends one bit (used by the growable MUP dominance index).
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Removes and returns the last bit (used by the shrinkable coverage
    /// oracle when a unique combination's multiplicity drops to zero).
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let value = self.get(self.len - 1);
        self.set(self.len - 1, false); // keep trailing bits zero for popcounts
        self.len -= 1;
        if self.words.len() > self.len.div_ceil(WORD_BITS) {
            self.words.pop();
        }
        Some(value)
    }

    /// Removes bit `i` in O(1) by moving the last bit into its place
    /// (mirrors `Vec::swap_remove`), returning the removed value.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn swap_remove(&mut self, i: usize) -> bool {
        let removed = self.get(i);
        let last = self.pop().expect("len checked by get");
        if i < self.len {
            self.set(i, last);
        }
        removed
    }

    /// `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Copies `other` into `self` without reallocating when capacities match.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        kernels::popcount_words(&self.words)
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Whether `self & other` has any set bit (early exit, no allocation).
    pub fn intersects(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Dot product with a multiplicity vector: Σ `weights[i]` over set bits
    /// `i`. This is Appendix A's `result · cnt`.
    ///
    /// # Panics
    ///
    /// Panics when `weights.len() < self.len()`.
    pub fn weighted_sum(&self, weights: &[u64]) -> u64 {
        assert!(weights.len() >= self.len, "weight vector too short");
        kernels::weighted_sum_words(&self.words, weights)
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors(if word == 0 { None } else { Some(word) }, |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| wi * WORD_BITS + w.trailing_zeros() as usize)
        })
    }

    /// Raw storage words (low bit of word 0 is bit 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A bit-vector kept as its nonzero words and their word indices.
///
/// A filter narrowed by a chain of ANDs — the greedy hitting set's path
/// down its enumeration tree — soon holds bits in few of its words. Kept
/// this way, ANDing it with a full-width [`BitVec`] and counting the result
/// costs time in proportion to the words that still hold bits, not to the
/// width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseWords {
    index: Vec<u32>,
    words: Vec<u64>,
    len: usize,
}

impl SparseWords {
    /// `self = v`, keeping only its nonzero words and reusing the buffers.
    pub fn assign(&mut self, v: &BitVec) {
        self.index.clear();
        self.words.clear();
        for (i, &w) in v.words.iter().enumerate() {
            if w != 0 {
                self.index
                    .push(u32::try_from(i).expect("bit-vector wider than 2^32 words"));
                self.words.push(w);
            }
        }
        self.len = v.len;
    }

    /// `self = a & b`, reusing the buffers; words that come out zero are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn assign_and(&mut self, a: &SparseWords, b: &BitVec) {
        assert_eq!(a.len, b.len, "bitvec length mismatch");
        self.index.clear();
        self.words.clear();
        for (&i, &w) in a.index.iter().zip(&a.words) {
            let w = w & b.words[i as usize];
            if w != 0 {
                self.index.push(i);
                self.words.push(w);
            }
        }
        self.len = a.len;
    }

    /// Number of bits set in `self & other`, in one fused pass without
    /// materializing the intersection.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and_count(&self, other: &BitVec) -> u64 {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        kernels::and_popcount_gather(&self.index, &self.words, &other.words)
    }
}

/// Weighted popcount of the intersection of several vectors without
/// materializing it: Σ `weights[i]` over bits set in *all* of `vectors`.
///
/// An empty `vectors` slice denotes the universe (all bits set), matching the
/// all-`X` pattern whose coverage is the full dataset size.
///
/// # Panics
///
/// Panics when vector lengths differ or `weights` is shorter than the vectors.
pub fn intersection_weighted_sum(vectors: &[&BitVec], weights: &[u64]) -> u64 {
    match vectors {
        [] => weights.iter().sum(),
        [single] => single.weighted_sum(weights),
        [first, rest @ ..] => {
            for v in rest {
                assert_eq!(v.len, first.len, "bitvec length mismatch");
            }
            assert!(weights.len() >= first.len, "weight vector too short");
            let slices: Vec<&[u64]> = vectors.iter().map(|v| v.words.as_slice()).collect();
            kernels::intersect_weighted_sum(&slices, weights)
        }
    }
}

/// The weighted popcount of the intersection, computed only up to `cap`:
/// the exact sum when it is below `cap`, otherwise the first running total
/// that reached `cap` — the early exit behind every covered/uncovered
/// decision (`cov(P) ≥ τ`), which in covered regions terminates after a
/// handful of words instead of scanning the dataset. Returning the capped
/// count instead of a bool lets a caller summing over several disjoint
/// partitions (a sharded oracle) keep the early exit *within* each
/// partition while the cross-partition total stays exact until the
/// threshold is met.
///
/// An empty `vectors` slice denotes the universe.
pub fn intersection_weight_capped(vectors: &[&BitVec], weights: &[u64], cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    if let [first, rest @ ..] = vectors {
        for v in rest {
            assert_eq!(v.len, first.len, "bitvec length mismatch");
        }
        assert!(weights.len() >= first.len, "weight vector too short");
    }
    let slices: Vec<&[u64]> = vectors.iter().map(|v| v.words.as_slice()).collect();
    kernels::intersect_weighted_capped(&slices, weights, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_get_set() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);

        let ones = BitVec::ones(130);
        assert_eq!(ones.count_ones(), 130);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn push_grows() {
        let mut v = BitVec::default();
        for i in 0..200 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 200);
        assert_eq!(v.count_ones(), 67);
        assert!(v.get(0) && v.get(3) && !v.get(1));
    }

    #[test]
    fn pop_shrinks_and_keeps_tail_clean() {
        let mut v = BitVec::from_indices(130, [0, 64, 129]);
        assert_eq!(v.pop(), Some(true));
        assert_eq!(v.len(), 129);
        assert_eq!(v.count_ones(), 2);
        assert_eq!(v.pop(), Some(false));
        // Word count shrinks as whole words empty out.
        for _ in 0..64 {
            v.pop();
        }
        assert_eq!(v.len(), 64);
        assert_eq!(v.words().len(), 1);
        assert!(v.get(0));
        let mut empty = BitVec::default();
        assert_eq!(empty.pop(), None);
    }

    #[test]
    fn swap_remove_moves_last_bit_into_hole() {
        let mut v = BitVec::from_indices(100, [3, 99]);
        assert!(!v.swap_remove(5)); // bit 99 (set) moves into slot 5
        assert_eq!(v.len(), 99);
        assert!(v.get(5) && v.get(3));
        assert_eq!(v.count_ones(), 2);
        assert!(v.swap_remove(3)); // last bit (98, unset) moves into slot 3
        assert!(!v.get(3));
        // Removing the final bit needs no move.
        let mut w = BitVec::from_indices(2, [1]);
        assert!(w.swap_remove(1));
        assert_eq!(w.len(), 1);
        assert!(!w.get(0));
    }

    #[test]
    fn and_or_assign() {
        let a0 = BitVec::from_indices(100, [1, 5, 64, 99]);
        let b = BitVec::from_indices(100, [5, 64, 70]);
        let mut a = a0.clone();
        a.and_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![5, 64]);
        let mut o = a0.clone();
        o.or_assign(&b);
        assert_eq!(o.iter_ones().collect::<Vec<_>>(), vec![1, 5, 64, 70, 99]);
    }

    #[test]
    fn sparse_words_and_count_and_assign_and_match_and_assign() {
        // Ragged lengths: inside one word, on word boundaries, past them,
        // with whole zero words in between.
        for len in [1usize, 63, 64, 65, 128, 200, 257] {
            let a = BitVec::from_indices(len, (0..len).filter(|i| i % 3 != 1 && i / 64 != 1));
            let b = BitVec::from_indices(len, (0..len).filter(|i| i % 5 != 2));
            let mut expected = a.clone();
            expected.and_assign(&b);
            let mut sa = SparseWords::default();
            sa.assign(&a);
            assert_eq!(sa.and_count(&b), expected.count_ones(), "len={len}");
            let mut dst = SparseWords::default();
            dst.assign_and(&sa, &b);
            let mut dense = SparseWords::default();
            dense.assign(&expected);
            assert_eq!(dst, dense, "len={len}");
            assert_eq!(dst.and_count(&BitVec::ones(len)), expected.count_ones());
        }
    }

    #[test]
    fn weighted_sum_matches_appendix_a_example() {
        // Appendix A: cov(0X1) = (v1,0 & v3,1) · cnt = 3 with
        // cnt = [1,2,1,1], combos 000,001,010,011.
        let v1_0 = BitVec::ones(4);
        let v3_1 = BitVec::from_indices(4, [1, 3]);
        let cnt = [1u64, 2, 1, 1];
        assert_eq!(intersection_weighted_sum(&[&v1_0, &v3_1], &cnt), 3);
    }

    #[test]
    fn intersection_weighted_sum_empty_is_total() {
        let cnt = [1u64, 2, 3];
        assert_eq!(intersection_weighted_sum(&[], &cnt), 6);
    }

    #[test]
    fn iter_ones_across_words() {
        let v = BitVec::from_indices(200, [0, 63, 64, 127, 128, 199]);
        assert_eq!(
            v.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 199]
        );
    }

    #[test]
    fn intersects_pairwise() {
        let a = BitVec::from_indices(70, [69]);
        let b = BitVec::from_indices(70, [69, 1]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&BitVec::from_indices(70, [1])));
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let mut dst = BitVec::zeros(128);
        let src = BitVec::from_indices(128, [7, 100]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn ones_masks_tail_bits() {
        let v = BitVec::ones(65);
        assert_eq!(v.count_ones(), 65);
        assert_eq!(v.words()[1], 1);
    }
}
