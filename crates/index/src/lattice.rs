//! The materialized coverage lattice: one count per node of the pattern
//! graph (§III-A), so that `cov(P)` is a single array read.
//!
//! The pattern graph over cardinalities `c_0 … c_{d-1}` has Π(c_i + 1)
//! nodes: each element is a value code or `X`. The lattice lays them out
//! row-major — attribute `i` has stride Π_{j>i}(c_j + 1) and its digit `c_i`
//! stands for `X` — so a probe is one multiply-add per attribute.
//!
//! It is filled by PatternCombiner's Rule-2 identity (§III-D): a node's
//! coverage is the sum of its children that split it on any one `X`
//! attribute. Scattering the unique combinations into their fully
//! deterministic cells and then running one pass per attribute that adds
//! every value slot into the `X` slot yields the whole graph's counts — the
//! data cube of Gray et al. (ICDE 1996). A streamed row changes exactly the
//! 2^d cells whose patterns match it, so inserts and deletes stay cheap
//! while the schema is small enough to materialize.

use coverage_data::UniqueCombinations;

use crate::oracle::X;

/// Default cap on lattice cells: 2^22 `u32` counts, 16 MiB.
pub const LATTICE_CELL_BUDGET: usize = 1 << 22;

/// Attributes whose cell moves a row update tabulates on the stack: 256
/// offsets, 2 KiB. Applying a table is a run of independent stores, where
/// a Gray-code walk over every attribute chains each cell index on the
/// last; on the 8-attribute `ingest` schema the table halved update time.
const TABLE_ATTRIBUTES: usize = 8;

/// The limits a lattice is built and kept under. Over them, the oracle
/// holding it drops the lattice and answers from its dense index instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeBudget {
    /// Most cells (pattern-graph nodes, Π(c_i + 1)) the lattice may hold.
    pub cells: usize,
    /// Most rows it may count. The root cell holds the total and bounds
    /// every other cell, so this keeps each `u32` count from overflowing.
    pub rows: u32,
}

impl Default for LatticeBudget {
    fn default() -> Self {
        Self {
            cells: LATTICE_CELL_BUDGET,
            rows: u32::MAX,
        }
    }
}

impl LatticeBudget {
    /// Cells a lattice over `cards` needs, or `None` when that passes the
    /// cell limit.
    pub fn cells_for(&self, cards: &[u8]) -> Option<usize> {
        cards
            .iter()
            .try_fold(1usize, |n, &c| n.checked_mul(usize::from(c) + 1))
            .filter(|&n| n <= self.cells)
    }
}

/// One `u32` count per pattern-graph node.
#[derive(Debug, Clone)]
pub(crate) struct Lattice {
    budget: LatticeBudget,
    cards: Vec<u8>,
    strides: Vec<usize>,
    cells: Vec<u32>,
}

impl Lattice {
    /// Materializes the lattice of `combos`, or returns `None` when it does
    /// not fit `budget`.
    pub(crate) fn build(combos: &UniqueCombinations, budget: LatticeBudget) -> Option<Self> {
        let cards = combos.cardinalities();
        let len = budget.cells_for(cards)?;
        if combos.total() > u64::from(budget.rows) {
            return None;
        }
        let mut strides = vec![0; cards.len()];
        let mut stride = 1;
        for (i, &c) in cards.iter().enumerate().rev() {
            strides[i] = stride;
            stride *= usize::from(c) + 1;
        }
        let mut lattice = Self {
            budget,
            cards: cards.to_vec(),
            strides,
            cells: vec![0; len],
        };
        // Every count is at most the total, which the budget keeps in u32.
        for (combo, count) in combos.iter() {
            let cell = lattice.cell(combo);
            lattice.cells[cell] += count as u32;
        }
        for (&c, &stride) in lattice.cards.iter().zip(&lattice.strides) {
            let values = usize::from(c) * stride;
            for block in lattice.cells.chunks_exact_mut(values + stride) {
                let (values, x) = block.split_at_mut(values);
                for value in values.chunks_exact(stride) {
                    for (sum, &n) in x.iter_mut().zip(value) {
                        *sum += n;
                    }
                }
            }
        }
        Some(lattice)
    }

    /// The budget the lattice was built under.
    pub(crate) fn budget(&self) -> LatticeBudget {
        self.budget
    }

    /// Bytes held by the counts.
    pub(crate) fn bytes(&self) -> u64 {
        4 * self.cells.len() as u64
    }

    /// `cov(P)`, where `codes` uses [`X`] for non-deterministic elements.
    ///
    /// # Panics
    ///
    /// Panics when `codes.len()` is not the arity or a deterministic code is
    /// out of range, with the dense oracle's messages.
    pub(crate) fn get(&self, codes: &[u8]) -> u64 {
        assert_eq!(codes.len(), self.cards.len(), "pattern arity mismatch");
        let mut cell = 0;
        for (i, ((&v, &c), &stride)) in codes.iter().zip(&self.cards).zip(&self.strides).enumerate()
        {
            let digit = if v == X {
                c
            } else {
                assert!(v < c, "value {v} out of range for attribute {i}");
                v
            };
            cell += usize::from(digit) * stride;
        }
        u64::from(self.cells[cell])
    }

    /// Counts one more copy of `row`. Returns `false`, changing nothing,
    /// when the total would pass the budget's row limit.
    pub(crate) fn add(&mut self, row: &[u8]) -> bool {
        let total = self.cells.last().copied().unwrap_or(0);
        if total >= self.budget.rows {
            return false;
        }
        self.update(row, |n| n + 1);
        true
    }

    /// Forgets one copy of `row`, which must be counted.
    pub(crate) fn remove(&mut self, row: &[u8]) {
        self.update(row, |n| n - 1);
    }

    /// The cell of a fully deterministic `row`.
    fn cell(&self, row: &[u8]) -> usize {
        row.iter()
            .zip(&self.strides)
            .map(|(&v, &stride)| usize::from(v) * stride)
            .sum()
    }

    /// Applies `step` to the 2^d cells whose patterns match `row`: each
    /// element is either the row's value or `X`, and choosing `X` on
    /// attribute `i` moves the cell by `(c_i - v_i) · stride_i`. The moves of
    /// the last (up to) [`TABLE_ATTRIBUTES`] attributes are summed into a
    /// stack table of offsets; a Gray-code walk over the remaining
    /// attributes flips one choice per block, and each block applies the
    /// whole table. The budget bounds the cell count, and every attribute
    /// contributes a factor of at least 2, so `d` fits the shift.
    fn update(&mut self, row: &[u8], step: impl Fn(u32) -> u32) {
        let split = row.len().saturating_sub(TABLE_ATTRIBUTES);
        let shift = |i: usize| usize::from(self.cards[i] - row[i]) * self.strides[i];
        let mut table = [0usize; 1 << TABLE_ATTRIBUTES];
        let mut filled = 1;
        for i in split..row.len() {
            let (done, rest) = table.split_at_mut(filled);
            for (next, &offset) in rest.iter_mut().zip(done.iter()) {
                *next = offset + shift(i);
            }
            filled *= 2;
        }
        let table = &table[..filled];
        let mut cell = self.cell(row);
        let mut xs = 0usize;
        for k in 0..1usize << split {
            if k > 0 {
                let i = k.trailing_zeros() as usize;
                xs ^= 1 << i;
                if xs & (1 << i) != 0 {
                    cell += shift(i);
                } else {
                    cell -= shift(i);
                }
            }
            let block = &mut self.cells[cell..];
            for &offset in table {
                block[offset] = step(block[offset]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_data::{Dataset, Schema};

    fn combos(cards: &[usize], rows: &[Vec<u8>]) -> UniqueCombinations {
        let ds = Dataset::from_rows(Schema::with_cardinalities(cards).unwrap(), rows).unwrap();
        UniqueCombinations::from_dataset(&ds)
    }

    /// Every pattern over `cards`, `X` included, in row-major order.
    fn all_patterns(cards: &[u8]) -> Vec<Vec<u8>> {
        let mut patterns = vec![Vec::new()];
        for &c in cards {
            patterns = patterns
                .into_iter()
                .flat_map(|p| {
                    (0..c).chain([X]).map(move |v| {
                        let mut p = p.clone();
                        p.push(v);
                        p
                    })
                })
                .collect();
        }
        patterns
    }

    fn brute_force(rows: &[Vec<u8>], codes: &[u8]) -> u64 {
        rows.iter()
            .filter(|row| row.iter().zip(codes).all(|(&r, &p)| p == X || p == r))
            .count() as u64
    }

    #[test]
    fn build_counts_every_pattern() {
        let rows = vec![
            vec![0, 1, 0],
            vec![0, 0, 2],
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![1, 1, 2],
        ];
        let lattice = Lattice::build(&combos(&[2, 2, 3], &rows), LatticeBudget::default()).unwrap();
        assert_eq!(lattice.bytes(), 4 * 3 * 3 * 4);
        for p in all_patterns(&[2, 2, 3]) {
            assert_eq!(lattice.get(&p), brute_force(&rows, &p), "{p:?}");
        }
    }

    #[test]
    fn add_and_remove_touch_exactly_the_matching_cells() {
        let mut rows = vec![vec![1, 2, 0, 1]];
        let cards = [2u8, 3, 1, 2];
        let mut lattice =
            Lattice::build(&combos(&[2, 3, 1, 2], &rows), LatticeBudget::default()).unwrap();
        for row in [[0u8, 0, 0, 0], [1, 2, 0, 1], [0, 1, 0, 1]] {
            assert!(lattice.add(&row));
            rows.push(row.to_vec());
        }
        lattice.remove(&[1, 2, 0, 1]);
        rows.remove(0);
        for p in all_patterns(&cards) {
            assert_eq!(lattice.get(&p), brute_force(&rows, &p), "{p:?}");
        }
    }

    #[test]
    fn updates_past_the_offset_table_walk_the_remaining_attributes() {
        // Ten attributes: the first two are Gray-walked, the last eight
        // tabulated.
        let cards = [2u8, 3, 1, 2, 2, 1, 2, 2, 3, 2];
        let wide: Vec<usize> = cards.iter().map(|&c| usize::from(c)).collect();
        let mut rows = vec![vec![1, 2, 0, 1, 0, 0, 1, 1, 2, 0]];
        let mut lattice = Lattice::build(&combos(&wide, &rows), LatticeBudget::default()).unwrap();
        for row in [
            [0u8, 1, 0, 0, 1, 0, 0, 1, 1, 1],
            [1, 2, 0, 1, 0, 0, 1, 1, 2, 0],
        ] {
            assert!(lattice.add(&row));
            rows.push(row.to_vec());
        }
        lattice.remove(&rows[0].clone());
        rows.remove(0);
        for p in all_patterns(&cards) {
            assert_eq!(lattice.get(&p), brute_force(&rows, &p), "{p:?}");
        }
    }

    #[test]
    fn budget_limits_cells_and_rows() {
        let budget = LatticeBudget { cells: 12, rows: 2 };
        assert_eq!(budget.cells_for(&[2, 3]), Some(12));
        assert_eq!(budget.cells_for(&[3, 3]), None);
        assert_eq!(budget.cells_for(&[254; 9]), None, "overflow is over budget");
        let rows = vec![vec![0, 0], vec![1, 2]];
        let mut lattice = Lattice::build(&combos(&[2, 3], &rows), budget).unwrap();
        assert!(!lattice.add(&[0, 1]), "a third row passes the row limit");
        assert_eq!(lattice.get(&[X, X]), 2);
        assert!(Lattice::build(&combos(&[3, 3], &rows), budget).is_none());
        assert!(Lattice::build(&combos(&[2, 3], &vec![vec![0, 0]; 3]), budget).is_none());
    }

    #[test]
    #[should_panic(expected = "pattern arity mismatch")]
    fn wrong_arity_panics() {
        let lattice = Lattice::build(&combos(&[2, 2], &[]), LatticeBudget::default()).unwrap();
        lattice.get(&[X]);
    }

    #[test]
    #[should_panic(expected = "value 2 out of range for attribute 1")]
    fn out_of_range_value_panics() {
        let lattice = Lattice::build(&combos(&[2, 2], &[]), LatticeBudget::default()).unwrap();
        lattice.get(&[X, 2]);
    }
}
