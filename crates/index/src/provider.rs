//! The [`CoverageProvider`] trait: the probe surface the MUP algorithms,
//! the enhancement planner, and the serving layer actually need from a
//! coverage backend — decoupled from any particular index layout.
//!
//! [`CoverageOracle`] is the one implementation. The traits stay so that
//! the algorithms compile once against `&dyn CoverageProvider`, and so that
//! a wrapper (a probe-counting tracer, say) can stand in for the oracle.

use coverage_data::Dataset;

use crate::lattice::{CoveredMap, LatticeBudget};
use crate::oracle::{CoverageOracle, DenseDescent, Materialized};

/// Storage accounting for a coverage backend, surfaced through the `stats`
/// op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendMemory {
    /// Logical index bytes (posting storage; excludes the aggregation).
    pub bytes: u64,
}

/// Read/write probe interface over a coverage index.
///
/// The pattern contract is the crate-wide one: a `&[u8]` of value codes with
/// [`crate::X`] marking non-deterministic elements. All methods follow the
/// oracle's semantics — `coverage(p)` counts matching rows, `covered(p, τ)`
/// tests `cov(p) ≥ τ`, and the mutation hooks keep answers identical to a
/// from-scratch rebuild over the updated multiset.
///
/// The trait is dyn-compatible on purpose: algorithms take
/// `&dyn CoverageProvider`, so a single compiled body serves every backend.
pub trait CoverageProvider {
    /// Number of attributes (`d`).
    fn arity(&self) -> usize;

    /// Attribute cardinalities, in order.
    fn cardinalities(&self) -> &[u8];

    /// Total number of rows (`cov(XX..X)`).
    fn total(&self) -> u64;

    /// `cov(P, D)`: the number of rows matching the pattern.
    fn coverage(&self, codes: &[u8]) -> u64;

    /// Whether `cov(P) ≥ tau`, routed through [`Self::coverage_capped`] so
    /// every backend keeps the early exit once the running count reaches the
    /// threshold — even backends that only override the capped probe.
    fn covered(&self, codes: &[u8], tau: u64) -> bool {
        self.coverage_capped(codes, tau) >= tau
    }

    /// `cov(P)` computed only up to `cap`: exact when the count is below
    /// `cap`, otherwise any running count that reached `cap` (callers only
    /// compare against `cap`). An exact count satisfies the contract, so
    /// the default delegates to [`Self::coverage`]; backends with an
    /// early-exit path should override.
    fn coverage_capped(&self, codes: &[u8], cap: u64) -> u64 {
        if cap == 0 {
            return 0;
        }
        self.coverage(codes)
    }

    /// A probe session for one top-down, depth-first walk over the Rule-1
    /// tree at threshold `tau` (see [`Descent`]). The default answers each
    /// probe with [`Self::covered`], so wrappers that count or time probes
    /// see every one of them; backends that can reuse the parent's work
    /// override it.
    fn descent(&self, tau: u64) -> Box<dyn Descent + '_> {
        Box::new(ProbeEach {
            provider: self,
            tau,
        })
    }

    /// `cov` for a batch of patterns at once. The default is a loop over
    /// [`Self::coverage`].
    fn coverage_batch(&self, patterns: &[&[u8]]) -> Vec<u64> {
        patterns.iter().map(|p| self.coverage(p)).collect()
    }

    /// Ingests one row; answers afterwards are identical to a rebuild over
    /// the extended multiset.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or a value code out of range (callers
    /// validate against the schema first, as with [`CoverageOracle::add_row`]).
    fn add_row(&mut self, row: &[u8]);

    /// Ingests a batch of rows. The default is a loop over
    /// [`Self::add_row`].
    fn add_rows(&mut self, rows: &[&[u8]]) {
        for row in rows {
            self.add_row(row);
        }
    }

    /// Forgets one copy of `row`, returning whether a matching row was
    /// registered (and removed).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or a value code out of range.
    fn remove_row(&mut self, row: &[u8]) -> bool;

    /// Grows attribute `attribute`'s value dictionary by one, returning the
    /// new value's code (always the old cardinality). Answers for existing
    /// patterns must be unchanged; patterns carrying the new code answer 0
    /// until matching rows arrive.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range attribute position or when the cardinality
    /// is already at the encoding ceiling (callers validate against the
    /// schema's [`coverage_data::MAX_CARDINALITY`] bound first).
    fn grow_value(&mut self, attribute: usize) -> u8;

    /// Visits every `(combination, multiplicity)` pair. A combination may be
    /// visited more than once, so consumers sum multiplicities rather than
    /// assume distinctness.
    fn for_each_combination(&self, visit: &mut dyn FnMut(&[u8], u64));

    /// `[total()]`. Nothing reads it: it stays only because the repository
    /// benchmark's tracing wrapper implements it, and the benchmark edits
    /// of ROADMAP items 5 and 9 remove it.
    fn shard_totals(&self) -> Vec<u64> {
        vec![self.total()]
    }

    /// Backend family name, reported by the `stats` op.
    fn backend_name(&self) -> &'static str {
        "dense"
    }

    /// Storage accounting for the `stats` op. The default reports nothing;
    /// real backends override with their index footprint.
    fn memory_stats(&self) -> BackendMemory {
        BackendMemory::default()
    }
}

/// Coverage probes along one depth-first walk of the Rule-1 tree (§III-B):
/// each probed pattern is the all-`X` root or a Rule-1 child — its
/// right-most deterministic element is the one the child added — of the
/// last pattern probed one level up with `expand` set that was covered.
/// DEEPDIVER walks this way, which lets a backend keep each expanded
/// node's match set and answer a child with one more intersection instead
/// of re-intersecting every deterministic column.
pub trait Descent {
    /// Whether `cov(codes) ≥ τ`. Pass `expand` when a covered `codes` will
    /// have its Rule-1 children probed next.
    fn covered(&mut self, codes: &[u8], expand: bool) -> bool;
}

/// The default [`Descent`]: one [`CoverageProvider::covered`] call per
/// probe.
struct ProbeEach<'a, P: ?Sized> {
    provider: &'a P,
    tau: u64,
}

impl<P: CoverageProvider + ?Sized> Descent for ProbeEach<'_, P> {
    fn covered(&mut self, codes: &[u8], _expand: bool) -> bool {
        self.provider.covered(codes, self.tau)
    }
}

/// The [`Descent`] of an oracle holding a covered map at the walk's τ.
struct ReadMap<'a>(&'a CoveredMap);

impl Descent for ReadMap<'_> {
    fn covered(&mut self, codes: &[u8], _expand: bool) -> bool {
        self.0.get(codes)
    }
}

impl CoverageProvider for CoverageOracle {
    fn arity(&self) -> usize {
        CoverageOracle::arity(self)
    }

    fn cardinalities(&self) -> &[u8] {
        CoverageOracle::cardinalities(self)
    }

    fn total(&self) -> u64 {
        CoverageOracle::total(self)
    }

    fn coverage(&self, codes: &[u8]) -> u64 {
        match self.materialized() {
            Materialized::Counts(lattice) => lattice.get(codes),
            _ => CoverageOracle::coverage(self, codes),
        }
    }

    fn covered(&self, codes: &[u8], tau: u64) -> bool {
        match self.materialized() {
            Materialized::Counts(lattice) => lattice.get(codes) >= tau,
            Materialized::CoveredAt(map) if map.tau() == tau => map.get(codes),
            _ => CoverageOracle::covered(self, codes, tau),
        }
    }

    /// With a lattice, the exact count: it meets the capped contract.
    fn coverage_capped(&self, codes: &[u8], cap: u64) -> u64 {
        match self.materialized() {
            Materialized::Counts(lattice) => lattice.get(codes),
            _ => CoverageOracle::coverage_capped(self, codes, cap),
        }
    }

    /// With a lattice, one read per pattern; otherwise
    /// [`CoverageOracle::coverage_batch`], which sweeps the pattern graph
    /// once when that is cheaper than probing each pattern.
    fn coverage_batch(&self, patterns: &[&[u8]]) -> Vec<u64> {
        match self.materialized() {
            Materialized::Counts(lattice) => patterns.iter().map(|p| lattice.get(p)).collect(),
            _ => CoverageOracle::coverage_batch(self, patterns),
        }
    }

    /// With a lattice or a covered map at `tau` every probe is one array
    /// read, so the walk needs no per-level state.
    fn descent(&self, tau: u64) -> Box<dyn Descent + '_> {
        match self.materialized() {
            Materialized::Counts(_) => Box::new(ProbeEach {
                provider: self,
                tau,
            }),
            Materialized::CoveredAt(map) if map.tau() == tau => Box::new(ReadMap(map)),
            _ => Box::new(DenseDescent::new(self, tau)),
        }
    }

    fn add_row(&mut self, row: &[u8]) {
        CoverageOracle::add_row(self, row);
    }

    fn remove_row(&mut self, row: &[u8]) -> bool {
        CoverageOracle::remove_row(self, row)
    }

    fn grow_value(&mut self, attribute: usize) -> u8 {
        CoverageOracle::grow_value(self, attribute)
    }

    fn for_each_combination(&self, visit: &mut dyn FnMut(&[u8], u64)) {
        for (combo, count) in self.combinations().iter() {
            visit(combo, count);
        }
    }

    /// The bit-vectors plus the lattice or the covered map, when one is
    /// held.
    fn memory_stats(&self) -> BackendMemory {
        let materialized = match self.materialized() {
            Materialized::None => 0,
            Materialized::Counts(lattice) => lattice.bytes(),
            Materialized::CoveredAt(map) => map.bytes(),
        };
        BackendMemory {
            bytes: self.memory_bytes() + materialized,
        }
    }
}

/// A provider a long-lived engine can own: constructible from a dataset
/// and rebuildable after faults. The bounds (`Clone + Send + Sync +
/// 'static`) are what the serving layer needs to share an engine across
/// threads.
pub trait CoverageBackend:
    CoverageProvider + Clone + Send + Sync + std::fmt::Debug + 'static
{
    /// Builds the backend over a dataset.
    ///
    /// `shards` is ignored: the backend is one index. The argument stays
    /// only because the repository benchmark's tracing wrapper implements
    /// this signature; the benchmark edits of ROADMAP items 5 and 9 remove
    /// it.
    fn build(dataset: &Dataset, shards: usize) -> Self;
}

/// A long-lived engine probes far more often than it builds, so the
/// engine's oracle materializes its lattice whenever the default budget
/// admits it.
impl CoverageBackend for CoverageOracle {
    fn build(dataset: &Dataset, _shards: usize) -> Self {
        CoverageOracle::with_lattice(dataset, LatticeBudget::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::X;
    use coverage_data::Schema;

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
    fn oracle_implements_the_provider_surface() {
        let mut oracle: Box<dyn CoverageProvider> =
            Box::new(CoverageOracle::from_dataset(&example1()));
        assert_eq!(oracle.arity(), 3);
        assert_eq!(oracle.cardinalities(), &[2, 2, 2]);
        assert_eq!(oracle.total(), 5);
        assert_eq!(oracle.coverage(&[0, X, 1]), 3);
        assert!(oracle.covered(&[X, X, X], 5));
        assert!(!oracle.covered(&[1, X, X], 1));
        assert_eq!(oracle.coverage_batch(&[&[X, X, X], &[1, X, X]]), vec![5, 0]);
        oracle.add_rows(&[&[1, 0, 1], &[1, 0, 1]]);
        assert_eq!(oracle.coverage(&[1, X, X]), 2);
        assert!(oracle.remove_row(&[1, 0, 1]));
        assert_eq!(oracle.coverage(&[1, X, X]), 1);
        assert_eq!(oracle.grow_value(2), 2);
        assert_eq!(oracle.cardinalities(), &[2, 2, 3]);
        assert_eq!(oracle.coverage(&[X, X, 2]), 0);
        oracle.add_row(&[0, 0, 2]);
        assert_eq!(oracle.coverage(&[X, X, 2]), 1);
        assert!(oracle.remove_row(&[0, 0, 2]));
        assert_eq!(oracle.shard_totals(), vec![6]);
        let mut seen = 0u64;
        oracle.for_each_combination(&mut |combo, count| {
            assert_eq!(combo.len(), 3);
            seen += count;
        });
        assert_eq!(seen, 6);
    }

    #[test]
    fn backend_build_matches_from_dataset() {
        let built = <CoverageOracle as CoverageBackend>::build(&example1(), 7);
        let direct = CoverageOracle::from_dataset(&example1());
        assert_eq!(built.coverage(&[0, X, 1]), direct.coverage(&[0, X, 1]));
        assert_eq!(built.total(), direct.total());
    }

    #[test]
    fn memory_stats_count_the_lattice() {
        let built = <CoverageOracle as CoverageBackend>::build(&example1(), 1);
        let dense = CoverageOracle::from_dataset(&example1());
        assert!(built.has_lattice() && !dense.has_lattice());
        assert_eq!(dense.memory_stats().bytes, dense.memory_bytes());
        // The inherent figure stays dense-only; the stats add 3^3 u32 cells.
        assert_eq!(built.memory_bytes(), dense.memory_bytes());
        assert_eq!(built.memory_stats().bytes, built.memory_bytes() + 4 * 27);
    }

    #[test]
    fn memory_stats_count_the_covered_map() {
        let mapped = CoverageOracle::for_threshold(&example1(), 2);
        let dense = CoverageOracle::from_dataset(&example1());
        assert_eq!(mapped.covered_map_threshold(), Some(2));
        assert_eq!(mapped.memory_bytes(), dense.memory_bytes());
        // 3^3 bits round up to one u64 word.
        assert_eq!(mapped.memory_stats().bytes, mapped.memory_bytes() + 8);
        let wide = Dataset::new(coverage_data::Schema::binary(8).unwrap());
        let wide_mapped = CoverageOracle::for_threshold(&wide, 1);
        // 3^8 = 6,561 bits in 103 words.
        assert_eq!(
            wide_mapped.memory_stats().bytes,
            wide_mapped.memory_bytes() + 8 * 103
        );
    }
}
