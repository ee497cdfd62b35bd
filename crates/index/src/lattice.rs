//! The materialized coverage lattice: one count per node of the pattern
//! graph (§III-A), so that `cov(P)` is a single array read — and the
//! covered map, one bit per node, for walks that only ask `cov(P) ≥ τ`.
//!
//! The pattern graph over cardinalities `c_0 … c_{d-1}` has Π(c_i + 1)
//! nodes: each element is a value code or `X`. Both structures lay them out
//! row-major — attribute `i` has stride Π_{j>i}(c_j + 1) and its digit `c_i`
//! stands for `X` — so a probe is one multiply-add per attribute.
//!
//! Counts are filled by PatternCombiner's Rule-2 identity (§III-D): a node's
//! coverage is the sum of its children that split it on any one `X`
//! attribute. Scattering the unique combinations into their fully
//! deterministic cells and then running one pass per attribute that adds
//! every value slot into the `X` slot yields the whole graph's counts — the
//! data cube of Gray et al. (ICDE 1996). A streamed row changes exactly the
//! 2^d cells whose patterns match it, so inserts and deletes stay cheap
//! while the schema is small enough to materialize.
//!
//! A covered map keeps only `count ≥ τ` per node — the iceberg-cube
//! question of Beyer & Ramakrishnan (SIGMOD 1999) — and never holds the
//! whole count array: it runs the same passes over one suffix sub-cube at a
//! time (see [`CoveredMap::build`]).

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

    /// Cells the nodes over `combos` need, or `None` when that passes the
    /// cell limit or the rows pass the row limit.
    fn cells_to_count(&self, combos: &UniqueCombinations) -> Option<usize> {
        let cells = self.cells_for(combos.cardinalities())?;
        (combos.total() <= u64::from(self.rows)).then_some(cells)
    }
}

/// Most cells of the suffix sub-cube a covered map counts at a time: 2^16
/// `u32` counts, 256 KiB, whatever the schema.
pub(crate) const SUB_CUBE_CELLS: usize = 1 << 16;

/// The row-major layout of the pattern graph over some cardinalities.
#[derive(Debug, Clone)]
struct Layout {
    cards: Vec<u8>,
    strides: Vec<usize>,
}

impl Layout {
    fn new(cards: &[u8]) -> Self {
        let mut strides = vec![0; cards.len()];
        let mut stride = 1;
        for (i, &c) in cards.iter().enumerate().rev() {
            strides[i] = stride;
            stride *= usize::from(c) + 1;
        }
        Self {
            cards: cards.to_vec(),
            strides,
        }
    }

    /// The node of `codes`, which uses [`X`] for non-deterministic elements.
    ///
    /// # Panics
    ///
    /// Panics when `codes.len()` is not the arity or a deterministic code is
    /// out of range, with the dense oracle's messages.
    fn node(&self, codes: &[u8]) -> usize {
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
        cell
    }

    /// The cell of a fully deterministic `row`.
    fn cell(&self, row: &[u8]) -> usize {
        row.iter()
            .zip(&self.strides)
            .map(|(&v, &stride)| usize::from(v) * stride)
            .sum()
    }
}

/// Rule 2 as array passes: given each fully deterministic cell's count in
/// `cells`, laid out row-major over `cards` with `strides`, adds every value
/// slot into the `X` slot, one attribute at a time, leaving every node's
/// count.
fn sum_into_x_slots(cells: &mut [u32], cards: &[u8], strides: &[usize]) {
    for (&c, &stride) in cards.iter().zip(strides) {
        let values = usize::from(c) * stride;
        for block in cells.chunks_exact_mut(values + stride) {
            let (values, x) = block.split_at_mut(values);
            for value in values.chunks_exact(stride) {
                for (sum, &n) in x.iter_mut().zip(value) {
                    *sum += n;
                }
            }
        }
    }
}

/// One `u32` count per pattern-graph node.
#[derive(Debug, Clone)]
pub(crate) struct Lattice {
    budget: LatticeBudget,
    layout: Layout,
    cells: Vec<u32>,
}

impl Lattice {
    /// Materializes the lattice of `combos`, or returns `None` when it does
    /// not fit `budget`.
    pub(crate) fn build(combos: &UniqueCombinations, budget: LatticeBudget) -> Option<Self> {
        let len = budget.cells_to_count(combos)?;
        let layout = Layout::new(combos.cardinalities());
        let mut cells = vec![0; len];
        // Every count is at most the total, which the budget keeps in u32.
        for (combo, count) in combos.iter() {
            cells[layout.cell(combo)] += count as u32;
        }
        sum_into_x_slots(&mut cells, &layout.cards, &layout.strides);
        Some(Self {
            budget,
            layout,
            cells,
        })
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
        u64::from(self.cells[self.layout.node(codes)])
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
        let shift = |i: usize| usize::from(self.layout.cards[i] - row[i]) * self.layout.strides[i];
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
        let mut cell = self.layout.cell(row);
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

/// One bit per pattern-graph node: whether `cov(P) ≥ τ` for one fixed τ.
/// It answers DEEPDIVER's only question from Π(c_i + 1) bits where the
/// lattice holds as many `u32` counts.
#[derive(Debug, Clone)]
pub(crate) struct CoveredMap {
    tau: u64,
    layout: Layout,
    bits: Vec<u64>,
}

impl CoveredMap {
    /// Builds the map of `combos` at `tau`, or returns `None` when the
    /// schema or the row count does not fit [`LatticeBudget::default`].
    ///
    /// The attributes split into a prefix and the longest suffix whose
    /// sub-cube — the nodes sharing one prefix node, a contiguous block of
    /// the row-major layout — holds at most `sub_cube_cells` counts. A walk
    /// over the prefix digits narrows the combinations to those matching
    /// each prefix node; at the last prefix attribute each value's
    /// combinations are scattered into the sub-cube and summed by
    /// [`sum_into_x_slots`] over the suffix, and the `X` digit's sub-cube is
    /// the sum of its values' sub-cubes. Each node's bit is its count
    /// against `tau`, so two sub-cubes are the only counts ever held.
    pub(crate) fn build(
        combos: &UniqueCombinations,
        tau: u64,
        sub_cube_cells: usize,
    ) -> Option<Self> {
        let len = LatticeBudget::default().cells_to_count(combos)?;
        let cards = combos.cardinalities();
        let layout = Layout::new(cards);
        let mut prefix = cards.len();
        let mut suffix_cells = 1;
        while prefix > 0 && suffix_cells * (usize::from(cards[prefix - 1]) + 1) <= sub_cube_cells {
            prefix -= 1;
            suffix_cells *= usize::from(cards[prefix]) + 1;
        }
        let mut build = SplitBuild {
            layout: &layout,
            combos,
            prefix,
            suffix_cell: combos
                .iter()
                .map(|(combo, _)| {
                    combo[prefix..]
                        .iter()
                        .zip(&layout.strides[prefix..])
                        .map(|(&v, &stride)| usize::from(v) * stride)
                        .sum()
                })
                .collect(),
            tau,
            sub_cube: vec![0; suffix_cells],
            x_sum: vec![0; suffix_cells],
            bits: vec![0; len.div_ceil(64)],
        };
        let all: Vec<usize> = (0..combos.len()).collect();
        if prefix == 0 {
            build.count(&all);
            mark(&mut build.bits, 0, &build.sub_cube, tau);
        } else {
            build.walk(0, 0, &all);
        }
        let bits = build.bits;
        Some(Self { tau, layout, bits })
    }

    /// The threshold the bits answer at.
    pub(crate) fn tau(&self) -> u64 {
        self.tau
    }

    /// Bytes held by the bits.
    pub(crate) fn bytes(&self) -> u64 {
        8 * self.bits.len() as u64
    }

    /// Whether `cov(P) ≥ τ`, where `codes` uses [`X`] for
    /// non-deterministic elements.
    ///
    /// # Panics
    ///
    /// Panics when `codes.len()` is not the arity or a deterministic code is
    /// out of range, with the dense oracle's messages.
    pub(crate) fn get(&self, codes: &[u8]) -> bool {
        let node = self.layout.node(codes);
        self.bits[node / 64] >> (node % 64) & 1 == 1
    }
}

/// The state of one [`CoveredMap::build`] walk. Combinations are named by
/// their index in `combos`.
struct SplitBuild<'a> {
    layout: &'a Layout,
    combos: &'a UniqueCombinations,
    /// Attributes before the suffix.
    prefix: usize,
    /// Each combination's cell within the suffix sub-cube.
    suffix_cell: Vec<usize>,
    tau: u64,
    /// The sub-cube being counted.
    sub_cube: Vec<u32>,
    /// The running sum of a last prefix attribute's value sub-cubes.
    x_sum: Vec<u32>,
    bits: Vec<u64>,
}

impl SplitBuild<'_> {
    /// Marks every node whose prefix digits before `attribute` are fixed in
    /// `base`; `rows` are the combinations matching those digits.
    fn walk(&mut self, attribute: usize, base: usize, rows: &[usize]) {
        let card = usize::from(self.layout.cards[attribute]);
        let stride = self.layout.strides[attribute];
        let (grouped, starts) = self.group(rows, attribute);
        if attribute + 1 < self.prefix {
            for v in 0..card {
                self.walk(
                    attribute + 1,
                    base + v * stride,
                    &grouped[starts[v]..starts[v + 1]],
                );
            }
            self.walk(attribute + 1, base + card * stride, rows);
            return;
        }
        self.x_sum.fill(0);
        for v in 0..card {
            self.count(&grouped[starts[v]..starts[v + 1]]);
            mark(&mut self.bits, base + v * stride, &self.sub_cube, self.tau);
            for (sum, &n) in self.x_sum.iter_mut().zip(&self.sub_cube) {
                *sum += n;
            }
        }
        mark(&mut self.bits, base + card * stride, &self.x_sum, self.tau);
    }

    /// `rows` ordered by their value on `attribute`: value `v`'s rows are
    /// `grouped[starts[v]..starts[v + 1]]`.
    fn group(&self, rows: &[usize], attribute: usize) -> (Vec<usize>, Vec<usize>) {
        let value = |k: usize| usize::from(self.combos.combo(k)[attribute]);
        let mut starts = vec![0; usize::from(self.layout.cards[attribute]) + 1];
        for &k in rows {
            starts[value(k) + 1] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        let mut next = starts.clone();
        let mut grouped = vec![0; rows.len()];
        for &k in rows {
            let slot = &mut next[value(k)];
            grouped[*slot] = k;
            *slot += 1;
        }
        (grouped, starts)
    }

    /// Leaves every suffix node's count over `rows` in the sub-cube.
    fn count(&mut self, rows: &[usize]) {
        self.sub_cube.fill(0);
        let counts = self.combos.counts();
        // Every count is at most the total, which the budget keeps in u32.
        for &k in rows {
            self.sub_cube[self.suffix_cell[k]] += counts[k] as u32;
        }
        let (cards, strides) = (&self.layout.cards, &self.layout.strides);
        sum_into_x_slots(
            &mut self.sub_cube,
            &cards[self.prefix..],
            &strides[self.prefix..],
        );
    }
}

/// Sets the bit of node `base + i` for each `counts[i] ≥ tau`.
fn mark(bits: &mut [u64], base: usize, counts: &[u32], tau: u64) {
    for (i, &n) in counts.iter().enumerate() {
        let node = base + i;
        bits[node / 64] |= u64::from(u64::from(n) >= tau) << (node % 64);
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
