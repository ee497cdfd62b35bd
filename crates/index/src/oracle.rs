//! The coverage oracle of Appendix A.
//!
//! The dataset is aggregated into unique value combinations with
//! multiplicities; one bit-vector per `(attribute, value)` pair marks the
//! combinations carrying that value. `cov(P)` is then the weighted popcount
//! of the AND of the vectors selected by `P`'s deterministic elements —
//! never a scan over the raw rows.

use coverage_data::{Dataset, UniqueCombinations};

use crate::bitvec::{intersection_weighted_sum, BitVec};
use crate::kernels;
use crate::lattice::{CoveredMap, Lattice, LatticeBudget, SUB_CUBE_CELLS};
use crate::provider::Descent;

/// Sentinel code for a non-deterministic (`X`) pattern element.
///
/// Shared contract with the pattern layer: a pattern over `d` attributes is a
/// `&[u8]` of length `d` where each element is either a value code or `X`.
pub const X: u8 = 0xFF;

/// Inverted-index coverage oracle (`cov` in the paper).
#[derive(Debug, Clone)]
pub struct CoverageOracle {
    /// `index[i][v]` = bit-vector of unique combinations with value `v` on
    /// attribute `i`. Outer index laid out as a prefix-offset table.
    vectors: Vec<BitVec>,
    offsets: Vec<usize>,
    cardinalities: Vec<u8>,
    combos: UniqueCombinations,
    /// What the provider trait answers probes from, when the schema fits a
    /// [`LatticeBudget`].
    materialized: Materialized,
}

/// What a [`CoverageOracle`] holds beside its bit-vectors.
#[derive(Debug, Clone)]
pub(crate) enum Materialized {
    /// Nothing: every probe reads the bit-vectors.
    None,
    /// Every pattern's count, kept in step with mutations.
    Counts(Lattice),
    /// Whether each pattern is covered at one τ, dropped by any mutation.
    CoveredAt(CoveredMap),
}

impl CoverageOracle {
    /// Builds the oracle directly from a dataset (aggregating internally).
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self::from_unique(UniqueCombinations::from_dataset(dataset))
    }

    /// Builds the oracle from pre-aggregated unique combinations.
    pub fn from_unique(combos: UniqueCombinations) -> Self {
        let cards = combos.cardinalities().to_vec();
        let mut offsets = Vec::with_capacity(cards.len() + 1);
        let mut acc = 0usize;
        for &c in &cards {
            offsets.push(acc);
            acc += c as usize;
        }
        offsets.push(acc);
        let mut vectors = vec![BitVec::zeros(combos.len()); acc];
        for (k, (combo, _)) in combos.iter().enumerate() {
            for (i, &v) in combo.iter().enumerate() {
                vectors[offsets[i] + v as usize].set(k, true);
            }
        }
        Self {
            vectors,
            offsets,
            cardinalities: cards,
            combos,
            materialized: Materialized::None,
        }
    }

    /// Builds the oracle and materializes its coverage lattice when the
    /// schema and row count fit `budget`. Mutations keep the lattice in
    /// step, and drop it once a row or a grown value would pass the budget.
    /// Only [`crate::CoverageProvider`] probes read it; the inherent probes
    /// always answer from the bit-vectors.
    pub fn with_lattice(dataset: &Dataset, budget: LatticeBudget) -> Self {
        let mut oracle = Self::from_dataset(dataset);
        if let Some(lattice) = Lattice::build(&oracle.combos, budget) {
            oracle.materialized = Materialized::Counts(lattice);
        }
        oracle
    }

    /// Builds the oracle for one walk at threshold `tau`: beside the
    /// bit-vectors it holds a covered map, one bit per pattern-graph node
    /// telling whether `cov(P) ≥ tau`, when the schema and row count fit
    /// [`LatticeBudget::default`]. [`crate::CoverageProvider::covered`] and
    /// [`crate::CoverageProvider::descent`] at `tau` read the map; every
    /// other probe reads the bit-vectors, and any mutation drops the map.
    pub fn for_threshold(dataset: &Dataset, tau: u64) -> Self {
        Self::for_threshold_in_sub_cubes(dataset, tau, SUB_CUBE_CELLS)
    }

    /// [`Self::for_threshold`], counting the map through sub-cubes of at
    /// most `sub_cube_cells` cells. Only for the equivalence tests, which
    /// set it small so that small schemas take the prefix split; not part
    /// of the supported API.
    #[doc(hidden)]
    pub fn for_threshold_in_sub_cubes(dataset: &Dataset, tau: u64, sub_cube_cells: usize) -> Self {
        let mut oracle = Self::from_dataset(dataset);
        if let Some(map) = CoveredMap::build(&oracle.combos, tau, sub_cube_cells) {
            oracle.materialized = Materialized::CoveredAt(map);
        }
        oracle
    }

    /// Whether probes through [`crate::CoverageProvider`] read the lattice.
    pub fn has_lattice(&self) -> bool {
        matches!(self.materialized, Materialized::Counts(_))
    }

    /// The threshold of the covered map, when one is held.
    pub fn covered_map_threshold(&self) -> Option<u64> {
        match &self.materialized {
            Materialized::CoveredAt(map) => Some(map.tau()),
            _ => None,
        }
    }

    pub(crate) fn materialized(&self) -> &Materialized {
        &self.materialized
    }

    /// Incrementally ingests one row (streamed inserts): the aggregation
    /// gains a count — or a brand-new combination, in which case every
    /// bit-vector grows by one bit. The result is identical to rebuilding
    /// with [`Self::from_dataset`] on the extended dataset. Returns the
    /// row's combination index.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or a value code out of range.
    pub fn add_row(&mut self, row: &[u8]) -> usize {
        assert_eq!(row.len(), self.arity(), "row arity mismatch");
        for (i, &v) in row.iter().enumerate() {
            assert!(
                v < self.cardinalities[i],
                "value {v} out of range for attribute {i}"
            );
        }
        let (k, is_new) = self.combos.add_row(row);
        if is_new {
            for (i, &v) in row.iter().enumerate() {
                for value in 0..self.cardinalities[i] {
                    self.vectors[self.offsets[i] + value as usize].push(value == v);
                }
            }
        }
        let kept = match &mut self.materialized {
            Materialized::Counts(lattice) => lattice.add(row),
            _ => false,
        };
        if !kept {
            self.materialized = Materialized::None;
        }
        k
    }

    /// Incrementally forgets one row (streamed deletes): the aggregation
    /// loses a count — and when a combination's multiplicity hits zero every
    /// bit-vector shrinks by one bit in place (the last combination's bit
    /// moves into the vacated slot, mirroring the aggregation's swap-remove).
    /// Coverage answers are identical to rebuilding from the shrunk dataset.
    /// Returns whether a matching row was registered (and removed).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or a value code out of range.
    pub fn remove_row(&mut self, row: &[u8]) -> bool {
        assert_eq!(row.len(), self.arity(), "row arity mismatch");
        for (i, &v) in row.iter().enumerate() {
            assert!(
                v < self.cardinalities[i],
                "value {v} out of range for attribute {i}"
            );
        }
        let Some((k, exhausted)) = self.combos.remove_row(row) else {
            return false;
        };
        if exhausted {
            for vector in &mut self.vectors {
                vector.swap_remove(k);
            }
        }
        match &mut self.materialized {
            Materialized::Counts(lattice) => lattice.remove(row),
            _ => self.materialized = Materialized::None,
        }
        true
    }

    /// Grows attribute `attribute`'s value dictionary by one (the schema
    /// registered a new value), returning the new value's code. One all-zero
    /// bit-vector is appended to the attribute's value list — the new value
    /// matches no existing combination — and later offsets shift by one.
    /// Coverage answers for existing patterns are unchanged; patterns
    /// carrying the new code answer 0 until rows arrive.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range attribute position or when the cardinality
    /// is already at the encoding ceiling.
    pub fn grow_value(&mut self, attribute: usize) -> u8 {
        assert!(
            attribute < self.cardinalities.len(),
            "attribute {attribute} out of range"
        );
        let code = self.cardinalities[attribute];
        assert!(code < u8::MAX - 1, "cardinality ceiling reached");
        self.vectors.insert(
            self.offsets[attribute] + code as usize,
            BitVec::zeros(self.combos.len()),
        );
        for offset in &mut self.offsets[attribute + 1..] {
            *offset += 1;
        }
        self.cardinalities[attribute] = code + 1;
        self.combos.grow_value(attribute);
        self.materialized = match &self.materialized {
            Materialized::Counts(lattice) => Lattice::build(&self.combos, lattice.budget())
                .map_or(Materialized::None, Materialized::Counts),
            _ => Materialized::None,
        };
        code
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cardinalities.len()
    }

    /// Attribute cardinalities.
    pub fn cardinalities(&self) -> &[u8] {
        &self.cardinalities
    }

    /// Total number of rows in the underlying dataset (`cov(XX..X)`).
    pub fn total(&self) -> u64 {
        self.combos.total()
    }

    /// The underlying unique-combination aggregation.
    pub fn combinations(&self) -> &UniqueCombinations {
        &self.combos
    }

    /// The inverted-index bit-vector for `(attribute, value)`.
    ///
    /// # Panics
    ///
    /// Panics when `value >= cardinality(attribute)`.
    pub fn vector(&self, attribute: usize, value: u8) -> &BitVec {
        assert!(
            value < self.cardinalities[attribute],
            "value {value} out of range for attribute {attribute}"
        );
        &self.vectors[self.offsets[attribute] + value as usize]
    }

    /// `cov(P, D)`: the number of rows matching the pattern, where `codes`
    /// uses [`X`] for non-deterministic elements.
    ///
    /// # Panics
    ///
    /// Panics when `codes.len() != arity()` or a deterministic code is out of
    /// range.
    pub fn coverage(&self, codes: &[u8]) -> u64 {
        assert_eq!(codes.len(), self.arity(), "pattern arity mismatch");
        let mut selected: Vec<&BitVec> = Vec::with_capacity(codes.len());
        for (i, &v) in codes.iter().enumerate() {
            if v != X {
                selected.push(self.vector(i, v));
            }
        }
        intersection_weighted_sum(&selected, self.combos.counts())
    }

    /// Whether `cov(P) ≥ tau`, with early exit as soon as the running count
    /// reaches the threshold — much cheaper than [`Self::coverage`] in
    /// covered regions, where most traversal decisions are made.
    pub fn covered(&self, codes: &[u8], tau: u64) -> bool {
        self.coverage_capped(codes, tau) >= tau
    }

    /// `cov(P)` computed only up to `cap`: the exact count when it is below
    /// `cap`, otherwise the first running count that reached `cap` (same
    /// early exit as [`Self::covered`]).
    pub fn coverage_capped(&self, codes: &[u8], cap: u64) -> u64 {
        assert_eq!(codes.len(), self.arity(), "pattern arity mismatch");
        let mut selected: Vec<&BitVec> = Vec::with_capacity(codes.len());
        for (i, &v) in codes.iter().enumerate() {
            if v != X {
                selected.push(self.vector(i, v));
            }
        }
        crate::bitvec::intersection_weight_capped(&selected, self.combos.counts(), cap)
    }

    /// Logical index bytes: every `(attribute, value)` vector stores one bit
    /// per unique combination, packed into words.
    pub fn memory_bytes(&self) -> u64 {
        self.vectors
            .iter()
            .map(|v| 8 * v.words().len() as u64)
            .sum()
    }

    /// Materializes the match bit-vector of a pattern over the unique
    /// combinations (used by callers that post-process matches).
    pub fn match_vector(&self, codes: &[u8]) -> BitVec {
        assert_eq!(codes.len(), self.arity(), "pattern arity mismatch");
        let mut result = BitVec::ones(self.combos.len());
        for (i, &v) in codes.iter().enumerate() {
            if v != X {
                result.and_assign(self.vector(i, v));
            }
        }
        result
    }
}

/// The dense oracle's [`Descent`]: one match vector per level of the walk.
/// `levels[L]` holds the combinations matching the last node expanded at
/// level `L` (level 0 is the root, which matches everything), so a child
/// at level `L + 1` is `levels[L] & column(i, v)` for the element `(i, v)`
/// it added — one AND per word, fused with the capped weighted count, where
/// [`CoverageOracle::covered`] ANDs every deterministic column again. The
/// child's vector is written to `levels[L + 1]` only when it is covered and
/// will be expanded.
pub(crate) struct DenseDescent<'a> {
    oracle: &'a CoverageOracle,
    tau: u64,
    /// Words per match vector.
    width: usize,
    /// `arity + 1` match vectors, level-major.
    levels: Vec<u64>,
}

impl<'a> DenseDescent<'a> {
    pub(crate) fn new(oracle: &'a CoverageOracle, tau: u64) -> Self {
        let root = BitVec::ones(oracle.combos.len());
        let width = root.words().len();
        let mut levels = vec![0; width * (oracle.arity() + 1)];
        levels[..width].copy_from_slice(root.words());
        Self {
            oracle,
            tau,
            width,
            levels,
        }
    }
}

impl Descent for DenseDescent<'_> {
    fn covered(&mut self, codes: &[u8], expand: bool) -> bool {
        assert_eq!(codes.len(), self.oracle.arity(), "pattern arity mismatch");
        let Some(added) = codes.iter().rposition(|&v| v != X) else {
            // The root; its match vector is fixed.
            return self.oracle.total() >= self.tau;
        };
        let level = codes.iter().filter(|&&v| v != X).count();
        let column = self.oracle.vector(added, codes[added]).words();
        let (above, rest) = self.levels.split_at_mut(level * self.width);
        let parent = &above[(level - 1) * self.width..];
        let weight =
            kernels::and_weighted_capped(parent, column, self.oracle.combos.counts(), self.tau);
        let covered = weight >= self.tau;
        if covered && expand {
            let child = &mut rest[..self.width];
            child.copy_from_slice(parent);
            kernels::and_into(child, column);
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_data::Schema;

    /// Example 1 of the paper (also Appendix A's worked bit-vectors).
    fn example1() -> Dataset {
        Dataset::from_rows(
            Schema::binary(3).unwrap(),
            &[
                vec![0, 1, 0],
                vec![0, 0, 1],
                vec![0, 0, 0],
                vec![0, 1, 1],
                vec![0, 0, 1],
            ],
        )
        .unwrap()
    }

    #[test]
    fn appendix_a_worked_example() {
        let oracle = CoverageOracle::from_dataset(&example1());
        // cov(0X1) = 3 (tuples 001 ×2 and 011).
        assert_eq!(oracle.coverage(&[0, X, 1]), 3);
        // cov(XXX) = 5, cov(1XX) = 0 (the MUP), cov(X1X) = 2.
        assert_eq!(oracle.coverage(&[X, X, X]), 5);
        assert_eq!(oracle.coverage(&[1, X, X]), 0);
        assert_eq!(oracle.coverage(&[X, 1, X]), 2);
        assert_eq!(oracle.coverage(&[0, 0, 1]), 2);
    }

    #[test]
    fn coverage_agrees_with_brute_force() {
        let ds = coverage_data::generators::airbnb_like(2_000, 6, 11).unwrap();
        let oracle = CoverageOracle::from_dataset(&ds);
        let patterns: Vec<Vec<u8>> = vec![
            vec![X; 6],
            vec![1, X, X, X, X, X],
            vec![X, 0, X, 1, X, X],
            vec![1, 1, 0, X, X, 0],
            vec![0, 0, 0, 0, 0, 0],
        ];
        for p in patterns {
            let expected = ds
                .count_where(|row, _| row.iter().zip(&p).all(|(&r, &pv)| pv == X || pv == r))
                as u64;
            assert_eq!(oracle.coverage(&p), expected, "pattern {p:?}");
        }
    }

    #[test]
    fn match_vector_selects_unique_combos() {
        let oracle = CoverageOracle::from_dataset(&example1());
        let mv = oracle.match_vector(&[X, 0, X]);
        // Unique combos in first-seen order: 010, 001, 000, 011.
        assert_eq!(mv.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn total_equals_row_count() {
        let oracle = CoverageOracle::from_dataset(&example1());
        assert_eq!(oracle.total(), 5);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        CoverageOracle::from_dataset(&example1()).coverage(&[X, X]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_value_panics() {
        CoverageOracle::from_dataset(&example1()).coverage(&[7, X, X]);
    }

    #[test]
    fn add_row_matches_from_dataset_rebuild() {
        // Stream the second half of a generated dataset into an oracle built
        // from the first half; coverage must equal a from-scratch rebuild on
        // the full dataset for every probe pattern.
        let ds = coverage_data::generators::airbnb_like(600, 5, 23).unwrap();
        let half = ds.head(300);
        let mut streaming = CoverageOracle::from_dataset(&half);
        for i in 300..ds.len() {
            streaming.add_row(ds.row(i));
        }
        let rebuilt = CoverageOracle::from_dataset(&ds);
        assert_eq!(streaming.total(), rebuilt.total());
        assert_eq!(streaming.combinations().len(), rebuilt.combinations().len());
        let patterns: Vec<Vec<u8>> = vec![
            vec![X; 5],
            vec![1, X, X, X, X],
            vec![X, 0, X, 1, X],
            vec![1, 1, 0, X, 0],
            vec![0, 0, 0, 0, 0],
            vec![X, X, X, X, 1],
        ];
        for p in &patterns {
            assert_eq!(streaming.coverage(p), rebuilt.coverage(p), "pattern {p:?}");
            for tau in [1u64, 5, 50, 500] {
                assert_eq!(streaming.covered(p, tau), rebuilt.covered(p, tau));
            }
        }
    }

    #[test]
    fn remove_row_matches_from_dataset_rebuild() {
        // Delete a prefix of a generated dataset from a full oracle; coverage
        // must equal a from-scratch rebuild on the suffix for every probe.
        let ds = coverage_data::generators::airbnb_like(600, 5, 23).unwrap();
        let mut shrinking = CoverageOracle::from_dataset(&ds);
        for i in 0..300 {
            assert!(shrinking.remove_row(ds.row(i)), "row {i} must be present");
        }
        let suffix: Vec<Vec<u8>> = (300..ds.len()).map(|i| ds.row(i).to_vec()).collect();
        let rebuilt = CoverageOracle::from_dataset(
            &Dataset::from_rows(ds.schema().clone(), &suffix).unwrap(),
        );
        assert_eq!(shrinking.total(), rebuilt.total());
        assert_eq!(shrinking.combinations().len(), rebuilt.combinations().len());
        let patterns: Vec<Vec<u8>> = vec![
            vec![X; 5],
            vec![1, X, X, X, X],
            vec![X, 0, X, 1, X],
            vec![1, 1, 0, X, 0],
            vec![0, 0, 0, 0, 0],
            vec![X, X, X, X, 1],
        ];
        for p in &patterns {
            assert_eq!(shrinking.coverage(p), rebuilt.coverage(p), "pattern {p:?}");
            for tau in [1u64, 5, 50, 500] {
                assert_eq!(shrinking.covered(p, tau), rebuilt.covered(p, tau));
            }
        }
    }

    #[test]
    fn remove_row_reports_absence_and_handles_exhaustion() {
        let mut oracle = CoverageOracle::from_dataset(&example1());
        assert!(!oracle.remove_row(&[1, 1, 1]), "row was never present");
        assert_eq!(oracle.total(), 5);
        // (0,1,0) is present exactly once: removing it shrinks the index.
        assert!(oracle.remove_row(&[0, 1, 0]));
        assert!(!oracle.remove_row(&[0, 1, 0]));
        assert_eq!(oracle.total(), 4);
        assert_eq!(oracle.coverage(&[X, 1, X]), 1);
        assert_eq!(oracle.coverage(&[X, X, 0]), 1);
        // Remove everything, then stream rows back in.
        for row in [[0u8, 0, 1], [0, 0, 0], [0, 1, 1], [0, 0, 1]] {
            assert!(oracle.remove_row(&row));
        }
        assert_eq!(oracle.total(), 0);
        assert_eq!(oracle.coverage(&[X, X, X]), 0);
        oracle.add_row(&[1, 0, 1]);
        assert_eq!(oracle.coverage(&[1, X, 1]), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_row_rejects_out_of_range_values() {
        CoverageOracle::from_dataset(&example1()).remove_row(&[0, 0, 7]);
    }

    #[test]
    fn add_row_into_empty_oracle() {
        let mut oracle = CoverageOracle::from_dataset(&Dataset::new(Schema::binary(2).unwrap()));
        assert_eq!(oracle.coverage(&[X, X]), 0);
        oracle.add_row(&[0, 1]);
        oracle.add_row(&[0, 1]);
        oracle.add_row(&[1, 0]);
        assert_eq!(oracle.total(), 3);
        assert_eq!(oracle.coverage(&[X, X]), 3);
        assert_eq!(oracle.coverage(&[0, 1]), 2);
        assert_eq!(oracle.coverage(&[1, X]), 1);
        assert_eq!(oracle.coverage(&[1, 1]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_row_rejects_out_of_range_values() {
        CoverageOracle::from_dataset(&example1()).add_row(&[0, 0, 7]);
    }

    #[test]
    fn grow_value_matches_from_dataset_rebuild() {
        // Grow attribute 1 of Example 1, stream in rows carrying the new
        // value, and compare every probe against a from-scratch rebuild over
        // the equivalent grown dataset.
        let mut grown = CoverageOracle::from_dataset(&example1());
        assert_eq!(grown.grow_value(1), 2);
        assert_eq!(grown.cardinalities(), &[2, 3, 2]);
        // Existing answers are untouched; the new value covers nothing yet.
        assert_eq!(grown.coverage(&[X, X, X]), 5);
        assert_eq!(grown.coverage(&[X, 2, X]), 0);
        grown.add_row(&[1, 2, 0]);
        grown.add_row(&[0, 2, 0]);

        let mut ds = Dataset::new(Schema::with_cardinalities(&[2, 3, 2]).unwrap());
        for row in example1().rows() {
            ds.push_row(row).unwrap();
        }
        ds.push_row(&[1, 2, 0]).unwrap();
        ds.push_row(&[0, 2, 0]).unwrap();
        let rebuilt = CoverageOracle::from_dataset(&ds);
        assert_eq!(grown.total(), rebuilt.total());
        let patterns: Vec<Vec<u8>> = vec![
            vec![X, X, X],
            vec![X, 2, X],
            vec![1, 2, X],
            vec![X, 2, 0],
            vec![0, 1, X],
            vec![1, X, X],
            vec![0, 2, 1],
        ];
        for p in &patterns {
            assert_eq!(grown.coverage(p), rebuilt.coverage(p), "pattern {p:?}");
            for tau in [1u64, 2, 5] {
                assert_eq!(
                    grown.covered(p, tau),
                    rebuilt.covered(p, tau),
                    "{p:?} τ={tau}"
                );
            }
        }
    }

    #[test]
    fn grow_value_on_every_attribute_keeps_offsets_consistent() {
        let mut oracle = CoverageOracle::from_dataset(&example1());
        for i in 0..3 {
            oracle.grow_value(i);
        }
        assert_eq!(oracle.cardinalities(), &[3, 3, 3]);
        for i in 0..3 {
            let mut p = vec![X; 3];
            p[i] = 2;
            assert_eq!(oracle.coverage(&p), 0, "new value on attribute {i}");
        }
        assert_eq!(oracle.coverage(&[0, 1, 0]), 1);
        oracle.add_row(&[2, 2, 2]);
        assert_eq!(oracle.coverage(&[2, X, X]), 1);
        assert_eq!(oracle.coverage(&[2, 2, 2]), 1);
        assert_eq!(oracle.total(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grow_value_rejects_bad_attribute() {
        CoverageOracle::from_dataset(&example1()).grow_value(9);
    }

    #[test]
    fn coverage_capped_is_exact_below_the_cap() {
        let oracle = CoverageOracle::from_dataset(&example1());
        // cov(0XX) = 5: exact below the cap, ≥ cap once it is reached.
        assert_eq!(oracle.coverage_capped(&[0, X, X], 100), 5);
        assert_eq!(oracle.coverage_capped(&[0, X, X], 6), 5);
        assert!(oracle.coverage_capped(&[0, X, X], 3) >= 3);
        assert_eq!(oracle.coverage_capped(&[1, X, X], 3), 0);
        assert_eq!(oracle.coverage_capped(&[0, X, X], 0), 0);
    }

    /// `n` distinct combinations over eight binary attributes (the binary
    /// digits of `0..n`), combination `k` repeated `k % 3 + 1` times.
    fn distinct_combinations(n: usize) -> Dataset {
        let mut ds = Dataset::new(Schema::binary(8).unwrap());
        for k in 0..n {
            let row: Vec<u8> = (0..8).map(|i| (k >> i & 1) as u8).collect();
            for _ in 0..k % 3 + 1 {
                ds.push_row(&row).unwrap();
            }
        }
        ds
    }

    /// Walks the Rule-1 tree depth-first through `descent`, expanding
    /// covered nodes above `depth`, and checks every answer against
    /// [`CoverageOracle::covered`]. Returns the number of probes.
    fn check_descent(oracle: &CoverageOracle, tau: u64, depth: usize) -> usize {
        use crate::provider::CoverageProvider;
        let cards = oracle.cardinalities().to_vec();
        let mut descent = CoverageProvider::descent(oracle, tau);
        let mut stack = vec![(vec![X; cards.len()], 0usize, 0usize)];
        let mut probes = 0;
        while let Some((codes, level, first_free)) = stack.pop() {
            let expand = level < depth;
            let covered = descent.covered(&codes, expand);
            probes += 1;
            assert_eq!(covered, oracle.covered(&codes, tau), "{codes:?} τ={tau}");
            if covered && expand {
                for (i, &card) in cards.iter().enumerate().skip(first_free) {
                    for v in 0..card {
                        let mut child = codes.clone();
                        child[i] = v;
                        stack.push((child, level + 1, i + 1));
                    }
                }
            }
        }
        probes
    }

    #[test]
    fn dense_descent_agrees_with_covered_across_word_boundaries() {
        for n in [63, 64, 65, 129] {
            let ds = distinct_combinations(n);
            let dense = CoverageOracle::from_dataset(&ds);
            let lattice = CoverageOracle::with_lattice(&ds, LatticeBudget::default());
            assert!(lattice.has_lattice());
            assert_eq!(dense.combinations().len(), n);
            for tau in [0, 1, 2, 3, 5, 9, 40, 500] {
                for depth in [8, 3] {
                    check_descent(&dense, tau, depth);
                    check_descent(&lattice, tau, depth);
                }
            }
        }
        let empty = CoverageOracle::from_dataset(&Dataset::new(Schema::binary(3).unwrap()));
        assert_eq!(check_descent(&empty, 1, 3), 1);
        assert_eq!(check_descent(&empty, 0, 3), 1 + 6 + 12 + 8);
    }

    #[test]
    fn empty_dataset_has_zero_coverage() {
        let ds = Dataset::new(Schema::binary(2).unwrap());
        let oracle = CoverageOracle::from_dataset(&ds);
        assert_eq!(oracle.coverage(&[X, X]), 0);
        assert_eq!(oracle.coverage(&[1, 0]), 0);
    }
}
