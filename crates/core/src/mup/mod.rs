//! MUP identification algorithms (§III).
//!
//! All algorithms implement [`MupAlgorithm`] and return the same set of
//! maximal uncovered patterns, sorted for deterministic comparison:
//!
//! * [`NaiveMup`] — full enumeration + pairwise dominance elimination (§III-A);
//! * [`PatternBreaker`] — top-down BFS with Rule 1 (§III-C, Algorithm 1);
//! * [`PatternCombiner`] — bottom-up combination with Rule 2 (§III-D, Algorithm 2);
//! * [`DeepDiver`] — DFS dive + walk-up with MUP-dominance pruning (§III-E, Algorithm 3);
//! * [`Apriori`] — the frequent-itemset adaptation used as a baseline (§V-C).

mod apriori;
mod breaker;
mod combiner;
mod deepdiver;
mod naive;

pub use apriori::Apriori;
pub use breaker::PatternBreaker;
pub use combiner::PatternCombiner;
pub use deepdiver::DeepDiver;
pub use naive::NaiveMup;

use coverage_data::Dataset;
use coverage_index::{CoverageOracle, CoverageProvider};

use crate::error::Result;
use crate::pattern::Pattern;
use crate::Threshold;

/// Common interface of the MUP identification algorithms.
///
/// Every algorithm probes the data exclusively through the
/// [`CoverageProvider`] trait, so any backend — the canonical single-shard
/// [`CoverageOracle`], a [`coverage_index::ShardedOracle`], or a future
/// compressed/columnar/remote index — plugs in without touching algorithm
/// code.
pub trait MupAlgorithm {
    /// Human-readable algorithm name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Finds all maximal uncovered patterns given a prebuilt coverage
    /// provider and an absolute threshold `tau`.
    fn find_mups_with_oracle(
        &self,
        oracle: &dyn CoverageProvider,
        tau: u64,
    ) -> Result<Vec<Pattern>>;

    /// Convenience entry point: resolves the threshold, builds the
    /// canonical single-shard oracle with its covered map at that threshold
    /// ([`CoverageOracle::for_threshold`]), and returns the MUPs sorted
    /// lexicographically.
    fn find_mups(&self, dataset: &Dataset, threshold: Threshold) -> Result<Vec<Pattern>> {
        let tau = threshold.resolve(dataset.len() as u64)?;
        let oracle = CoverageOracle::for_threshold(dataset, tau);
        let mut mups = self.find_mups_with_oracle(&oracle, tau)?;
        mups.sort();
        Ok(mups)
    }
}

/// Checks the MUP definition (Definition 5) for a single pattern against a
/// coverage provider: uncovered itself, every parent covered. Shared by
/// tests and the property suite.
pub fn is_mup(oracle: &dyn CoverageProvider, pattern: &Pattern, tau: u64) -> bool {
    oracle.coverage(pattern.codes()) < tau
        && pattern.parents().all(|p| oracle.coverage(p.codes()) >= tau)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use coverage_data::Schema;

    /// Example 1 of the paper.
    pub fn example1() -> Dataset {
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

    /// The canonical single-shard provider over a dataset — the one place
    /// the algorithm tests name a concrete backend.
    pub fn oracle_for(dataset: &Dataset) -> CoverageOracle {
        CoverageOracle::from_dataset(dataset)
    }

    /// Runs an algorithm on Example 1 and asserts the single MUP `1XX`.
    pub fn assert_example1(alg: &dyn MupAlgorithm) {
        let mups = alg.find_mups(&example1(), Threshold::Count(1)).unwrap();
        assert_eq!(mups.len(), 1, "{}: {mups:?}", alg.name());
        assert_eq!(mups[0].to_string(), "1XX");
    }

    /// Asserts the algorithm agrees with a brute-force reference on a
    /// randomized dataset.
    pub fn assert_matches_reference(alg: &dyn MupAlgorithm, seed: u64, tau: u64) {
        let ds = coverage_data::generators::bluenile_like(300, seed)
            .unwrap()
            .project(&[1, 4, 5, 6])
            .unwrap();
        let oracle = oracle_for(&ds);
        let mut got = alg.find_mups_with_oracle(&oracle, tau).unwrap();
        got.sort();
        let mut expected = brute_force_mups(&oracle, tau);
        expected.sort();
        assert_eq!(got, expected, "{} seed={seed} tau={tau}", alg.name());
    }

    /// Brute-force MUP enumeration straight from Definition 5.
    pub fn brute_force_mups(oracle: &dyn CoverageProvider, tau: u64) -> Vec<Pattern> {
        let cards = oracle.cardinalities().to_vec();
        let mut all = vec![Pattern::all_x(cards.len())];
        let mut cursor = 0;
        while cursor < all.len() {
            let p = all[cursor].clone();
            all.extend(p.rule1_children(&cards));
            cursor += 1;
        }
        all.into_iter().filter(|p| is_mup(oracle, p, tau)).collect()
    }
}
