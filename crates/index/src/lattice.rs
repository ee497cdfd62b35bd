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
//! time (see [`split_walk`]). The same walk answers a large batch of `cov`
//! probes ([`sweep_coverage`]) by reading each queried node as its
//! sub-cube goes by.

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
    /// The pattern-graph layout over `cards`, or `None` when its nodes pass
    /// the cell limit.
    pub fn layout(&self, cards: &[u8]) -> Option<Layout> {
        self.cells_for(cards).map(|_| Layout::new(cards))
    }

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

/// Most cells of the suffix sub-cube a split walk counts at a time: 2^16
/// `u32` counts, 256 KiB, whatever the schema.
pub(crate) const SUB_CUBE_CELLS: usize = 1 << 16;

/// The row-major layout of the pattern graph over some cardinalities:
/// attribute `i` has stride Π_{j>i}(c_j + 1), and its digit `c_i` stands
/// for [`X`]. The first attribute is the most significant and `X` the
/// highest digit, so ascending node order is ascending lexicographic order
/// over codes with `X` = 0xFF last.
#[derive(Debug, Clone)]
pub struct Layout {
    cards: Vec<u8>,
    strides: Vec<usize>,
}

impl Layout {
    /// The layout over `cards`, whose node count the caller has checked
    /// against a budget.
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

    /// The cardinalities laid out.
    pub fn cardinalities(&self) -> &[u8] {
        &self.cards
    }

    /// `strides[i]`: the node distance between neighbouring digits of
    /// attribute `i`.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of nodes, Π(c_i + 1).
    pub fn nodes(&self) -> usize {
        self.strides
            .first()
            .zip(self.cards.first())
            .map_or(1, |(&stride, &c)| stride * (usize::from(c) + 1))
    }

    /// The node of `codes`, which uses [`X`] for non-deterministic elements.
    ///
    /// # Panics
    ///
    /// Panics when `codes.len()` is not the arity or a deterministic code is
    /// out of range, with the dense oracle's messages.
    pub fn node(&self, codes: &[u8]) -> usize {
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

    /// The codes of `node`, with [`X`] for non-deterministic elements: the
    /// inverse of [`Self::node`].
    pub fn codes(&self, node: usize) -> Vec<u8> {
        self.cards
            .iter()
            .zip(&self.strides)
            .map(|(&c, &stride)| match node / stride % (usize::from(c) + 1) {
                digit if digit == usize::from(c) => X,
                // Below `c`, so it fits a `u8`.
                digit => digit as u8,
            })
            .collect()
    }

    /// The cell of a fully deterministic `row`.
    fn cell(&self, row: &[u8]) -> usize {
        self.cell_in(row, 0)
    }

    /// The cell of a fully deterministic `row` within the sub-cube over
    /// the attributes from `first` on.
    fn cell_in(&self, row: &[u8], first: usize) -> usize {
        row[first..]
            .iter()
            .zip(&self.strides[first..])
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

/// Whether each pattern-graph node is covered at one τ, read by node index
/// in the row-major [`Layout`]: the bits of a covered map at τ, or a
/// lattice's counts compared with τ. A walk that moves between nodes by
/// adding and subtracting strides probes with one bit or count read.
#[derive(Debug, Clone, Copy)]
pub struct CoveredNodes<'a> {
    layout: &'a Layout,
    cells: Cells<'a>,
}

/// Where [`CoveredNodes`] reads its answers.
#[derive(Debug, Clone, Copy)]
enum Cells<'a> {
    Bits(&'a [u64]),
    Counts { counts: &'a [u32], tau: u64 },
}

impl<'a> CoveredNodes<'a> {
    /// The layout that numbers the nodes.
    pub fn layout(&self) -> &'a Layout {
        self.layout
    }

    /// Whether node `node` is covered.
    ///
    /// # Panics
    ///
    /// Panics when `node` is not below [`Layout::nodes`].
    #[inline]
    pub fn covered(&self, node: usize) -> bool {
        match self.cells {
            Cells::Bits(bits) => bits[node / 64] >> (node % 64) & 1 == 1,
            Cells::Counts { counts, tau } => u64::from(counts[node]) >= tau,
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

    /// Every node's count compared with `tau`.
    pub(crate) fn covered_nodes(&self, tau: u64) -> CoveredNodes<'_> {
        CoveredNodes {
            layout: &self.layout,
            cells: Cells::Counts {
                counts: &self.cells,
                tau,
            },
        }
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
    /// Builds the map of `combos` at `tau` with one [`split_walk`] through
    /// sub-cubes of at most `sub_cube_cells` counts, or returns `None` when
    /// the schema or the row count does not fit [`LatticeBudget::default`].
    /// Each node's bit is its count against `tau`, so two sub-cubes are the
    /// only counts ever held.
    pub(crate) fn build(
        combos: &UniqueCombinations,
        tau: u64,
        sub_cube_cells: usize,
    ) -> Option<Self> {
        let len = LatticeBudget::default().cells_to_count(combos)?;
        let layout = Layout::new(combos.cardinalities());
        let mark = MarkCovered {
            tau,
            bits: vec![0; len.div_ceil(64)],
        };
        let bits = split_walk(combos, &layout, sub_cube_cells, mark).bits;
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
        self.covered_nodes().covered(self.layout.node(codes))
    }

    /// Every node's bit.
    pub(crate) fn covered_nodes(&self) -> CoveredNodes<'_> {
        CoveredNodes {
            layout: &self.layout,
            cells: Cells::Bits(&self.bits),
        }
    }
}

/// `cov` of each pattern in `patterns`, in order, read from one
/// [`split_walk`] through sub-cubes of at most `sub_cube_cells` counts, or
/// `None` when the schema or the row count does not fit
/// [`LatticeBudget::default`].
///
/// # Panics
///
/// Panics when a pattern's length is not the arity or a deterministic code
/// is out of range, with the dense oracle's messages.
pub(crate) fn sweep_coverage(
    combos: &UniqueCombinations,
    patterns: &[&[u8]],
    sub_cube_cells: usize,
) -> Option<Vec<u64>> {
    LatticeBudget::default().cells_to_count(combos)?;
    let layout = Layout::new(combos.cardinalities());
    let mut ascending = true;
    let mut last = 0;
    for codes in patterns {
        let node = layout.node(codes);
        ascending &= last <= node;
        last = node;
    }
    let mut order = Vec::new();
    if !ascending {
        order.extend(0..patterns.len());
        order.sort_by_cached_key(|&slot| layout.node(patterns[slot]));
    }
    let read = ReadNodes {
        layout: &layout,
        patterns,
        order,
        answered: 0,
        answers: vec![0; patterns.len()],
    };
    Some(split_walk(combos, &layout, sub_cube_cells, read).answers)
}

/// The cell and row touches of one [`split_walk`] over `combos` through
/// sub-cubes of at most `sub_cube_cells` counts, counting the sink's read of
/// every node, or `None` when the schema or the row count does not fit
/// [`LatticeBudget::default`]. With `n` combinations, prefix `p`, sub-cube
/// size `S` and `A` = Σ_{j ≥ p} S·c_j / (c_j + 1) adds for Rule 2 over the
/// suffix, counting a sub-cube touches `S + A` cells plus its rows; the
/// walk also groups its rows at each prefix node and, at the last prefix
/// attribute, sums each value's sub-cube into the `X` one.
pub(crate) fn split_walk_work(combos: &UniqueCombinations, sub_cube_cells: usize) -> Option<u64> {
    LatticeBudget::default().cells_to_count(combos)?;
    let cards = combos.cardinalities();
    let (prefix, cells) = split_point(cards, sub_cube_cells);
    let (n, cells) = (combos.len() as u64, cells as u64);
    let rule2: u64 = cards[prefix..]
        .iter()
        .map(|&c| cells / (u64::from(c) + 1) * u64::from(c))
        .sum();
    // Every walk first maps each combination to its suffix cell.
    let Some(last) = prefix.checked_sub(1) else {
        // One sub-cube: count every row, then hand it to the sink.
        return Some(n + (cells + n + rule2) + cells);
    };
    // A node at depth `a` of the prefix walk groups the rows matching it,
    // reading and placing each; each row matches 2^a of them.
    let grouped = 2 * n * ((1 << prefix) - 1);
    let scattered = n << last;
    let calls: u64 = cards[..last].iter().map(|&c| u64::from(c) + 1).product();
    // Per call: clear the `X` sum; per value, count, hand over and add into
    // the `X` sum; then hand over the `X` sum.
    let per_call = 2 * cells + u64::from(cards[last]) * (3 * cells + rule2);
    Some(n + grouped + scattered + calls * per_call)
}

/// The split of `cards` into a prefix and the longest suffix whose
/// sub-cube holds at most `sub_cube_cells` counts: the prefix length and
/// the sub-cube's size.
fn split_point(cards: &[u8], sub_cube_cells: usize) -> (usize, usize) {
    let mut prefix = cards.len();
    let mut cells = 1;
    while prefix > 0 && cells * (usize::from(cards[prefix - 1]) + 1) <= sub_cube_cells {
        prefix -= 1;
        cells *= usize::from(cards[prefix]) + 1;
    }
    (prefix, cells)
}

/// What a [`split_walk`] does with each sub-cube it counts.
trait SubCubeSink {
    /// Takes the counts of nodes `base..base + counts.len()`.
    fn take(&mut self, base: usize, counts: &[u32]);
}

/// Sets each node's covered-map bit.
struct MarkCovered {
    tau: u64,
    bits: Vec<u64>,
}

impl SubCubeSink for MarkCovered {
    fn take(&mut self, base: usize, counts: &[u32]) {
        for (i, &n) in counts.iter().enumerate() {
            let node = base + i;
            self.bits[node / 64] |= u64::from(u64::from(n) >= self.tau) << (node % 64);
        }
    }
}

/// Reads the queried nodes that fall in each sub-cube.
struct ReadNodes<'a> {
    layout: &'a Layout,
    patterns: &'a [&'a [u8]],
    /// The answer slots in ascending node order, or empty when `patterns`
    /// already ascend.
    order: Vec<usize>,
    /// How many slots, in that order, hold their answer.
    answered: usize,
    answers: Vec<u64>,
}

impl SubCubeSink for ReadNodes<'_> {
    /// Sub-cubes arrive in ascending node order, so the slots they answer
    /// are the next ones in `order`, and none of those lies below `base`.
    fn take(&mut self, base: usize, counts: &[u32]) {
        while self.answered < self.answers.len() {
            let slot = self.order.get(self.answered).copied();
            let slot = slot.unwrap_or(self.answered);
            let node = self.layout.node(self.patterns[slot]);
            let Some(&n) = counts.get(node - base) else {
                break;
            };
            self.answers[slot] = u64::from(n);
            self.answered += 1;
        }
    }
}

/// Hands every node's count over `combos`, laid out by `layout`, to `sink`
/// one sub-cube at a time, in ascending node order, and returns the sink.
///
/// The attributes split into a prefix and the longest suffix whose
/// sub-cube — the nodes sharing one prefix node, a contiguous block of the
/// row-major layout — holds at most `sub_cube_cells` counts. A walk over
/// the prefix digits narrows the combinations to those matching each
/// prefix node; at the last prefix attribute each value's combinations are
/// scattered into the sub-cube and summed by [`sum_into_x_slots`] over the
/// suffix, and the `X` digit's sub-cube is the sum of its values'
/// sub-cubes. The sink is a type parameter, so each use compiles its own
/// walk.
fn split_walk<S: SubCubeSink>(
    combos: &UniqueCombinations,
    layout: &Layout,
    sub_cube_cells: usize,
    sink: S,
) -> S {
    let (prefix, cells) = split_point(&layout.cards, sub_cube_cells);
    let mut walk = SplitWalk {
        layout,
        combos,
        prefix,
        suffix_cell: combos
            .iter()
            .map(|(combo, _)| layout.cell_in(combo, prefix))
            .collect(),
        sub_cube: vec![0; cells],
        x_sum: vec![0; cells],
        sink,
    };
    let all: Vec<usize> = (0..combos.len()).collect();
    if prefix == 0 {
        walk.count(&all);
        walk.sink.take(0, &walk.sub_cube);
    } else {
        walk.walk(0, 0, &all);
    }
    walk.sink
}

/// The state of one [`split_walk`]. Combinations are named by their index
/// in `combos`.
struct SplitWalk<'a, S> {
    layout: &'a Layout,
    combos: &'a UniqueCombinations,
    /// Attributes before the suffix.
    prefix: usize,
    /// Each combination's cell within the suffix sub-cube.
    suffix_cell: Vec<usize>,
    /// The sub-cube being counted.
    sub_cube: Vec<u32>,
    /// The running sum of a last prefix attribute's value sub-cubes.
    x_sum: Vec<u32>,
    sink: S,
}

impl<S: SubCubeSink> SplitWalk<'_, S> {
    /// Hands over every node whose prefix digits before `attribute` are
    /// fixed in `base`; `rows` are the combinations matching those digits.
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
            self.sink.take(base + v * stride, &self.sub_cube);
            for (sum, &n) in self.x_sum.iter_mut().zip(&self.sub_cube) {
                *sum += n;
            }
        }
        self.sink.take(base + card * stride, &self.x_sum);
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
