//! Coverage enhancement (§IV, Problem 2): choose the minimum set of
//! additional value combinations so that, after collection, the dataset's
//! maximum covered level reaches a target λ (or every large-value-count
//! pattern is covered).
//!
//! The pipeline is: MUPs → target expansion ([`uncovered_patterns_at_level`], Appendix C) →
//! greedy hitting set ([`GreedyHittingSet`] or the [`NaiveHittingSet`]
//! baseline) → an [`EnhancementPlan`] with the combinations to collect,
//! their hit assignments, generalized acquisition patterns, and the copy
//! counts needed to actually reach the coverage threshold.

mod expand;
mod greedy;
mod index;
mod naive_greedy;

pub use expand::{uncovered_patterns_at_level, uncovered_patterns_with_value_count};
pub use greedy::GreedyHittingSet;
pub use naive_greedy::NaiveHittingSet;

use coverage_data::Dataset;
use coverage_index::CoverageProvider;

use crate::error::Result;
use crate::pattern::Pattern;
use crate::validation::ValidationOracle;
use index::PatternIndex;

/// Strategy interface for the hitting-set step.
pub trait HittingSetSolver {
    /// Solver name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Returns value combinations (each valid under `validation`, with one
    /// value inside each attribute's domain) whose union of matches hits
    /// every pattern in `targets`.
    fn solve(
        &self,
        targets: &[Pattern],
        cardinalities: &[u8],
        validation: &ValidationOracle,
    ) -> Result<Vec<Vec<u8>>>;
}

/// The output of coverage enhancement.
#[derive(Debug, Clone)]
pub struct EnhancementPlan {
    /// The uncovered patterns that had to be hit (`M_λ`).
    pub targets: Vec<Pattern>,
    /// The value combinations to collect, in greedy selection order.
    pub combinations: Vec<Vec<u8>>,
    /// `hits[k]` = indices into `targets` matched by `combinations[k]`
    /// (all matches, not only first-time hits).
    pub hits: Vec<Vec<usize>>,
    /// Generalized acquisition patterns (§IV-B's closing note): for each
    /// combination, the most general pattern all of whose matching
    /// combinations hit the same target patterns — giving the data collector
    /// freedom beyond a single exact tuple.
    pub generalized: Vec<Pattern>,
}

impl EnhancementPlan {
    fn build(targets: Vec<Pattern>, combinations: Vec<Vec<u8>>, cardinalities: &[u8]) -> Self {
        // A combination's hits are the AND of its columns in the target
        // index, read out in ascending order.
        let index = PatternIndex::build(targets.iter(), cardinalities);
        let hits: Vec<Vec<usize>> = combinations
            .iter()
            .map(|c| index.hits(c).iter_ones().collect())
            .collect();
        let generalized = combinations
            .iter()
            .zip(&hits)
            .map(|(combo, hit)| {
                // Keep position i deterministic iff some hit pattern
                // constrains it; otherwise any value works.
                let codes: Vec<u8> = (0..combo.len())
                    .map(|i| {
                        if hit.iter().any(|&j| targets[j].is_deterministic(i)) {
                            combo[i]
                        } else {
                            crate::pattern::X
                        }
                    })
                    .collect();
                Pattern::from_codes(codes)
            })
            .collect();
        Self {
            targets,
            combinations,
            hits,
            generalized,
        }
    }

    /// Number of combinations to collect (the paper's "output size").
    pub fn output_size(&self) -> usize {
        self.combinations.len()
    }

    /// Number of target patterns (the paper's "input size").
    pub fn input_size(&self) -> usize {
        self.targets.len()
    }

    /// Copies of each combination sufficient to push every hit pattern to
    /// the threshold `tau` (the paper's hitting-set formulation counts one
    /// hit per pattern; real collection must close each pattern's deficit
    /// `τ − cov(P)`). The allocation is conservative: each combination is
    /// replicated to the largest deficit among the patterns it hits. Any
    /// [`CoverageProvider`] backend answers the deficits with one
    /// [`CoverageProvider::coverage_batch`] over the distinct hit targets,
    /// in ascending target order.
    pub fn required_copies(&self, oracle: &dyn CoverageProvider, tau: u64) -> Vec<u64> {
        let mut is_hit = vec![false; self.targets.len()];
        for &j in self.hits.iter().flatten() {
            is_hit[j] = true;
        }
        let patterns: Vec<&[u8]> = (self.targets.iter().zip(&is_hit))
            .filter(|&(_, &hit)| hit)
            .map(|(target, _)| target.codes())
            .collect();
        let covs = oracle.coverage_batch(&patterns);
        // Free the batch before the deficits take its place.
        drop(patterns);
        let mut covs = covs.into_iter();
        let deficits: Vec<u64> = is_hit
            .iter()
            .map(|&hit| {
                if hit {
                    tau.saturating_sub(covs.next().unwrap_or(0))
                } else {
                    0
                }
            })
            .collect();
        self.hits
            .iter()
            .map(|hit| hit.iter().map(|&j| deficits[j]).max().unwrap_or(1).max(1))
            .collect()
    }

    /// Appends the planned combinations to `dataset` — `copies[k]` copies of
    /// combination `k` (pass `required_copies` output, or all-ones for the
    /// paper-faithful single hit). Labels, when the dataset is labeled, are
    /// set to `false` placeholders.
    pub fn apply_to(&self, dataset: &mut Dataset, copies: &[u64]) -> Result<()> {
        for (combo, &n) in self.combinations.iter().zip(copies) {
            for _ in 0..n {
                if dataset.is_labeled() {
                    dataset.push_labeled_row(combo, false)?;
                } else {
                    dataset.push_row(combo)?;
                }
            }
        }
        Ok(())
    }
}

/// Orchestrates target expansion and hitting-set solving.
#[derive(Debug, Clone, Default)]
pub struct CoverageEnhancer {
    /// Semantic-validity rules enforced on the collected combinations.
    pub validation: ValidationOracle,
}

impl CoverageEnhancer {
    /// Enhancer with a validation oracle.
    pub fn with_validation(validation: ValidationOracle) -> Self {
        Self { validation }
    }

    /// Plans the data collection that raises the maximum covered level to at
    /// least `lambda` (Problem 2): expands the MUPs to all uncovered
    /// patterns at level λ (Appendix C) and hits them all.
    ///
    /// MUPs the domain expert deems immaterial should be removed from `mups`
    /// before calling.
    pub fn plan_for_level(
        &self,
        solver: &dyn HittingSetSolver,
        mups: &[Pattern],
        cardinalities: &[u8],
        lambda: usize,
    ) -> Result<EnhancementPlan> {
        let mut targets = uncovered_patterns_at_level(mups, cardinalities, lambda);
        // Human-in-the-loop materiality (§IV): a target that itself satisfies
        // a validation rule describes semantically impossible combinations
        // (e.g. under-20 *and* widowed) — it is immaterial and must not be
        // collected for.
        targets.retain(|p| self.validation.is_valid(p));
        let combinations = solver.solve(&targets, cardinalities, &self.validation)?;
        Ok(EnhancementPlan::build(targets, combinations, cardinalities))
    }

    /// Plans the data collection for the value-count variant (Definition 7):
    /// every uncovered pattern with value count ≥ `min_value_count` gets hit.
    pub fn plan_for_value_count(
        &self,
        solver: &dyn HittingSetSolver,
        mups: &[Pattern],
        cardinalities: &[u8],
        min_value_count: u128,
    ) -> Result<EnhancementPlan> {
        let mut targets = uncovered_patterns_with_value_count(mups, cardinalities, min_value_count);
        targets.retain(|p| self.validation.is_valid(p));
        let combinations = solver.solve(&targets, cardinalities, &self.validation)?;
        Ok(EnhancementPlan::build(targets, combinations, cardinalities))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mup::{DeepDiver, MupAlgorithm};
    use crate::Threshold;
    use coverage_data::generators::{vertex_cover_dataset, SampleGraph, VERTEX_COVER_TAU};

    fn example2_mups() -> Vec<Pattern> {
        [
            "XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX", "X020X",
        ]
        .iter()
        .map(|s| Pattern::parse(s).unwrap())
        .collect()
    }

    const EX2_CARDS: [u8; 5] = [2, 3, 3, 2, 2];

    #[test]
    fn plan_for_level_2_covers_all_level2_uncovered() {
        let enhancer = CoverageEnhancer::default();
        let plan = enhancer
            .plan_for_level(&GreedyHittingSet, &example2_mups(), &EX2_CARDS, 2)
            .unwrap();
        // 3 level-2 MUPs + 10 level-2 descendants of the level-1 MUP XXXX1.
        assert_eq!(plan.input_size(), 13);
        assert!(plan.output_size() <= plan.input_size());
        assert!(plan.output_size() >= 3);
        // Every target hit by at least one combination.
        let mut hit = vec![false; plan.targets.len()];
        for hits in &plan.hits {
            for &j in hits {
                hit[j] = true;
            }
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn generalized_patterns_hit_same_targets() {
        let enhancer = CoverageEnhancer::default();
        let plan = enhancer
            .plan_for_level(&GreedyHittingSet, &example2_mups(), &EX2_CARDS, 2)
            .unwrap();
        for (k, g) in plan.generalized.iter().enumerate() {
            // Any combination matching the generalized pattern hits at least
            // the same targets as the concrete pick: check by testing every
            // completion over the (small) example space.
            let completions = g.descendants_at_level(&EX2_CARDS, 5);
            for c in completions {
                for &j in &plan.hits[k] {
                    assert!(
                        plan.targets[j].matches(c.codes()),
                        "completion {c} of {g} misses target {}",
                        plan.targets[j]
                    );
                }
            }
        }
    }

    #[test]
    fn vertex_cover_reduction_round_trip() {
        // Theorem 2 / Fig 1: MUPs of the constructed dataset are the five
        // single-1 patterns; the greedy enhancement corresponds to a vertex
        // cover of the original graph.
        let graph = SampleGraph::figure1();
        let ds = vertex_cover_dataset(&graph).unwrap();
        let mups = DeepDiver::default()
            .find_mups(&ds, Threshold::Count(VERTEX_COVER_TAU))
            .unwrap();
        // Exactly the per-edge patterns P1..P5 of Fig 1b.
        assert_eq!(mups.len(), graph.edges.len());
        for m in &mups {
            assert_eq!(m.level(), 1);
            let i = (0..5).find(|&i| m.get(i).is_some()).unwrap();
            assert_eq!(m.get(i), Some(1));
        }
        // Unrestricted enhancement may invent the all-ones tuple that hits
        // every per-edge pattern at once.
        let free = CoverageEnhancer::default()
            .plan_for_level(&GreedyHittingSet, &mups, &[2; 5], 1)
            .unwrap();
        assert_eq!(free.output_size(), 1);
        // Restricting collectible tuples to actual vertex incidence vectors
        // (via the validation oracle) recovers greedy vertex cover: size 2
        // on Fig 1a (e.g. vertices v1 and v4).
        let allowed: Vec<Vec<u8>> = (0..graph.vertices).map(|i| ds.row(i).to_vec()).collect();
        let mut rules = Vec::new();
        let mut odometer = [0u8; 5];
        loop {
            if !allowed.iter().any(|a| a.as_slice() == odometer.as_slice()) {
                rules.push(crate::validation::ValidationRule::new(
                    odometer
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (i, vec![v]))
                        .collect(),
                ));
            }
            let mut i = 5;
            while i > 0 {
                i -= 1;
                odometer[i] += 1;
                if odometer[i] < 2 {
                    break;
                }
                odometer[i] = 0;
                if i == 0 {
                    i = usize::MAX;
                    break;
                }
            }
            if i == usize::MAX {
                break;
            }
        }
        let restricted = CoverageEnhancer::with_validation(ValidationOracle::new(rules))
            .plan_for_level(&GreedyHittingSet, &mups, &[2; 5], 1)
            .unwrap();
        assert_eq!(restricted.output_size(), 2);
        for p in &mups {
            assert!(restricted.combinations.iter().any(|c| p.matches(c)));
        }
        for c in &restricted.combinations {
            assert!(allowed.iter().any(|a| a == c), "non-vertex tuple {c:?}");
        }
    }

    #[test]
    fn apply_to_raises_maximum_covered_level() {
        let ds0 = coverage_data::generators::bluenile_like(200, 3).unwrap();
        let ds0 = ds0.project(&[1, 4, 5]).unwrap(); // cards [4,3,3]
        let tau = 5u64;
        let mups = DeepDiver::default()
            .find_mups(&ds0, Threshold::Count(tau))
            .unwrap();
        let lambda = 1usize;
        let cards = ds0.schema().cardinalities();
        let plan = CoverageEnhancer::default()
            .plan_for_level(&GreedyHittingSet, &mups, &cards, lambda)
            .unwrap();
        let mut ds = ds0.clone();
        let oracle = crate::CoverageReport::oracle_for(&ds0);
        let copies = plan.required_copies(&oracle, tau);
        plan.apply_to(&mut ds, &copies).unwrap();
        // After collection no uncovered pattern remains at level ≤ λ.
        let mups_after = DeepDiver::default()
            .find_mups(&ds, Threshold::Count(tau))
            .unwrap();
        assert!(
            mups_after.iter().all(|m| m.level() > lambda),
            "level ≤ {lambda} MUP remains: {mups_after:?}"
        );
    }

    /// A read-only provider that counts `coverage` probes.
    struct CountingProvider<'a>(&'a coverage_index::CoverageOracle, std::cell::Cell<usize>);

    impl CoverageProvider for CountingProvider<'_> {
        fn arity(&self) -> usize {
            self.0.arity()
        }
        fn cardinalities(&self) -> &[u8] {
            self.0.cardinalities()
        }
        fn total(&self) -> u64 {
            self.0.total()
        }
        fn coverage(&self, codes: &[u8]) -> u64 {
            self.1.set(self.1.get() + 1);
            self.0.coverage(codes)
        }
        fn add_row(&mut self, _: &[u8]) {
            unreachable!("read-only")
        }
        fn remove_row(&mut self, _: &[u8]) -> bool {
            unreachable!("read-only")
        }
        fn grow_value(&mut self, _: usize) -> u8 {
            unreachable!("read-only")
        }
        fn for_each_combination(&self, visit: &mut dyn FnMut(&[u8], u64)) {
            CoverageProvider::for_each_combination(self.0, visit);
        }
    }

    #[test]
    fn required_copies_probes_each_hit_target_once() {
        let ds = coverage_data::generators::airbnb_like(2_000, 8, 7).unwrap();
        let tau = 20u64;
        let mups = DeepDiver::default()
            .find_mups(&ds, Threshold::Count(tau))
            .unwrap();
        let plan = CoverageEnhancer::default()
            .plan_for_level(&GreedyHittingSet, &mups, &[2; 8], 3)
            .unwrap();
        let oracle = crate::CoverageReport::oracle_for(&ds);
        let counting = CountingProvider(&oracle, std::cell::Cell::new(0));
        let copies = plan.required_copies(&counting, tau);
        // Targets are hit by several combinations, but probed once each.
        let distinct: std::collections::BTreeSet<usize> =
            plan.hits.iter().flatten().copied().collect();
        assert!(plan.hits.iter().map(Vec::len).sum::<usize>() > distinct.len());
        assert_eq!(counting.1.get(), distinct.len());
        // Each combination still gets its largest hit deficit.
        for (hit, &n) in plan.hits.iter().zip(&copies) {
            let deficit = hit
                .iter()
                .map(|&j| tau.saturating_sub(oracle.coverage(plan.targets[j].codes())))
                .max()
                .unwrap_or(1);
            assert_eq!(n, deficit.max(1));
        }
    }

    #[test]
    fn value_count_plan_hits_all_large_patterns() {
        let plan = CoverageEnhancer::default()
            .plan_for_value_count(&GreedyHittingSet, &example2_mups(), &EX2_CARDS, 12)
            .unwrap();
        assert!(!plan.targets.is_empty());
        for p in &plan.targets {
            assert!(p.value_count(&EX2_CARDS) >= 12);
            assert!(plan.combinations.iter().any(|c| p.matches(c)));
        }
    }

    #[test]
    fn no_mups_no_plan() {
        let plan = CoverageEnhancer::default()
            .plan_for_level(&GreedyHittingSet, &[], &EX2_CARDS, 3)
            .unwrap();
        assert_eq!(plan.output_size(), 0);
        assert_eq!(plan.input_size(), 0);
    }
}
