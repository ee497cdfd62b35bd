//! The long-lived [`CoverageEngine`]: a mutable dataset + coverage backend
//! whose MUP set is maintained incrementally as tuples stream in — and out.
//!
//! The engine is generic over [`CoverageBackend`] so that a wrapper (a
//! probe-counting tracer, say) can stand in for the backend; `mithra serve`
//! runs the default, the paper's [`CoverageOracle`] with its coverage
//! lattice. All maintenance logic only speaks
//! [`coverage_index::CoverageProvider`].
//!
//! * Fixed (count) thresholds take the pure delta path: an insert re-probes
//!   only the MUPs matching it (retired ones are replaced by a bounded
//!   neighborhood walk below them), a delete re-probes only the covered
//!   sublattice matching the removed tuple (newly uncovered ancestors retire
//!   the MUPs they dominate) — never a full re-discovery.
//! * Rate thresholds re-resolve `τ = max(1, round(f·n))` after every batch;
//!   while the resolved τ is unchanged the delta path applies, and on the
//!   rare batch where τ steps (up on inserts, down on deletes) the engine
//!   falls back to one DEEPDIVER run over the (incrementally maintained)
//!   oracle, since a shifted τ can flip patterns far from the frontier.

use coverage_core::enhance::{CoverageEnhancer, EnhancementPlan, GreedyHittingSet};
use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::pattern::Pattern;
use coverage_core::{CoverageReport, Threshold};
use coverage_data::Dataset;
use coverage_index::{CoverageBackend, CoverageOracle, X};

use crate::cache::CoverageCache;
use crate::delta::{apply_delete_delta, apply_insert_delta, coverage_cached};
use crate::{Result, ServiceError};

/// Default bound on the pattern-coverage memo cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Counters describing the engine's maintenance work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rows ingested through [`CoverageEngine::insert`] /
    /// [`CoverageEngine::insert_batch`] (the initial dataset not included).
    pub inserts: u64,
    /// Insert batches processed (a single insert counts as a batch of one).
    pub batches: u64,
    /// Rows removed through [`CoverageEngine::remove`] /
    /// [`CoverageEngine::remove_batch`].
    pub deletes: u64,
    /// Delete batches processed (a single remove counts as a batch of one).
    pub delete_batches: u64,
    /// MUPs retired (covered by newly arrived tuples, or dominated by newly
    /// uncovered ancestors after deletes).
    pub mups_retired: u64,
    /// MUPs discovered by delta walks around retired ones.
    pub mups_discovered: u64,
    /// Full DEEPDIVER fallbacks triggered by a shifted rate threshold (or a
    /// post-panic [`CoverageEngine::rebuild`]).
    pub full_recomputes: u64,
}

/// A long-lived coverage engine over a mutable dataset, generic over the
/// coverage backend (`B`). The default backend is [`CoverageOracle`].
#[derive(Debug, Clone)]
pub struct CoverageEngine<B: CoverageBackend = CoverageOracle> {
    dataset: Dataset,
    oracle: B,
    threshold: Threshold,
    tau: u64,
    mups: Vec<Pattern>,
    cache: CoverageCache,
    stats: EngineStats,
    /// Values added per attribute through [`Self::grow_value`] since the
    /// engine was built (restored engines carry the counters over via
    /// snapshot v3) — the dictionary-growth signal `stats` surfaces.
    grown: Vec<u64>,
}

impl CoverageEngine {
    /// Builds an engine over `dataset`, running one initial DEEPDIVER audit.
    pub fn new(dataset: Dataset, threshold: Threshold) -> Result<Self> {
        Self::with_cache_capacity(dataset, threshold, DEFAULT_CACHE_CAPACITY)
    }

    /// Like [`Self::new`] with an explicit memo-cache bound (0 disables the
    /// cache).
    pub fn with_cache_capacity(
        dataset: Dataset,
        threshold: Threshold,
        cache_capacity: usize,
    ) -> Result<Self> {
        Self::with_config(dataset, threshold, 1, cache_capacity)
    }
}

impl<B: CoverageBackend> CoverageEngine<B> {
    /// Builds an engine over backend `B` with a memo-cache bound (0 disables
    /// the cache), running one initial DEEPDIVER audit.
    ///
    /// `_shards` is ignored: the backend is one index. The argument stays
    /// only because the repository benchmark calls this signature; the
    /// benchmark edits of ROADMAP items 5 and 9 remove it.
    pub fn with_config(
        dataset: Dataset,
        threshold: Threshold,
        _shards: usize,
        cache_capacity: usize,
    ) -> Result<Self> {
        let oracle = B::build(&dataset, 1);
        let tau = threshold.resolve(dataset.len() as u64)?;
        let mut mups = DeepDiver::default().find_mups_with_oracle(&oracle, tau)?;
        mups.sort();
        let grown = vec![0; dataset.arity()];
        Ok(Self {
            dataset,
            oracle,
            threshold,
            tau,
            mups,
            cache: CoverageCache::new(cache_capacity),
            stats: EngineStats::default(),
            grown,
        })
    }

    fn validate(&self, row: &[u8]) -> Result<()> {
        let schema = self.dataset.schema();
        if row.len() != schema.arity() {
            return Err(ServiceError::BadRequest(format!(
                "row has {} values, schema has {} attributes",
                row.len(),
                schema.arity()
            )));
        }
        for (i, &v) in row.iter().enumerate() {
            if v >= schema.cardinality(i) {
                return Err(ServiceError::BadRequest(format!(
                    "value code {v} out of range for attribute `{}` (cardinality {})",
                    schema.attribute(i).name(),
                    schema.cardinality(i)
                )));
            }
        }
        Ok(())
    }

    /// Ingests one tuple, incrementally maintaining the MUP set. This is the
    /// streaming hot path: the row is borrowed all the way down — no copy.
    pub fn insert(&mut self, row: &[u8]) -> Result<()> {
        self.insert_rows(std::slice::from_ref(&row))
    }

    /// Ingests a batch of tuples atomically: either every row is valid and
    /// applied, or none is.
    pub fn insert_batch(&mut self, rows: &[Vec<u8>]) -> Result<()> {
        self.insert_rows(rows)
    }

    fn insert_rows<R: AsRef<[u8]>>(&mut self, rows: &[R]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        if self.dataset.is_labeled() {
            // push_row would fail halfway through and break batch atomicity.
            return Err(ServiceError::BadRequest(
                "labeled datasets do not support streaming inserts".into(),
            ));
        }
        for row in rows {
            self.validate(row.as_ref())?;
        }
        for row in rows {
            self.dataset
                .push_row(row.as_ref())
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        }
        if let [row] = rows {
            // Streaming hot path: the borrowed row goes straight down,
            // allocation-free.
            self.oracle.add_row(row.as_ref());
        } else {
            let refs: Vec<&[u8]> = rows.iter().map(AsRef::as_ref).collect();
            self.oracle.add_rows(&refs);
        }
        self.cache.invalidate_matching_any(rows);
        self.stats.inserts += rows.len() as u64;
        self.stats.batches += 1;
        let new_tau = self.threshold.resolve(self.dataset.len() as u64)?;
        if new_tau != self.tau {
            // The resolved rate threshold stepped up: patterns anywhere may
            // have dropped below it, so the delta walk is not sound here.
            self.tau = new_tau;
            self.mups = DeepDiver::default().find_mups_with_oracle(&self.oracle, new_tau)?;
            self.stats.full_recomputes += 1;
        } else {
            let outcome = apply_insert_delta(
                &self.oracle,
                &mut self.cache,
                self.tau,
                &mut self.mups,
                rows,
            );
            self.stats.mups_retired += outcome.retired as u64;
            self.stats.mups_discovered += outcome.discovered as u64;
        }
        self.mups.sort();
        Ok(())
    }

    /// Removes one tuple (one copy of it), incrementally maintaining the MUP
    /// set. Borrowed all the way down, like [`Self::insert`].
    pub fn remove(&mut self, row: &[u8]) -> Result<()> {
        self.remove_rows(std::slice::from_ref(&row))
    }

    /// Removes a batch of tuples atomically: either every requested copy is
    /// present (counting multiplicity within the batch) and removed, or
    /// nothing changes.
    pub fn remove_batch(&mut self, rows: &[Vec<u8>]) -> Result<()> {
        self.remove_rows(rows)
    }

    fn remove_rows<R: AsRef<[u8]>>(&mut self, rows: &[R]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        if self.dataset.is_labeled() {
            return Err(ServiceError::BadRequest(
                "labeled datasets do not support streaming deletes".into(),
            ));
        }
        for row in rows {
            self.validate(row.as_ref())?;
        }
        // Atomicity pre-check: every distinct row must be present at least
        // as many times as the batch removes it. `cov` of a fully
        // deterministic pattern is exactly that row's multiplicity.
        let mut batch_copies: std::collections::HashMap<&[u8], u64> =
            std::collections::HashMap::new();
        for row in rows {
            *batch_copies.entry(row.as_ref()).or_insert(0) += 1;
        }
        for (row, &copies) in &batch_copies {
            let present = self.oracle.coverage(row);
            if present < copies {
                return Err(ServiceError::RowNotFound(format!(
                    "cannot delete {copies} copies of row {row:?}: only {present} present"
                )));
            }
        }
        for row in rows {
            self.dataset
                .remove_row(row.as_ref())
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            let removed = self.oracle.remove_row(row.as_ref());
            debug_assert!(removed, "pre-checked row vanished from the oracle");
        }
        self.cache.invalidate_matching_any(rows);
        self.stats.deletes += rows.len() as u64;
        self.stats.delete_batches += 1;
        let new_tau = self.threshold.resolve(self.dataset.len() as u64)?;
        if new_tau != self.tau {
            // The resolved rate threshold stepped down: patterns anywhere
            // may have risen above it, so the delta walk is not sound here.
            self.tau = new_tau;
            self.mups = DeepDiver::default().find_mups_with_oracle(&self.oracle, new_tau)?;
            self.stats.full_recomputes += 1;
        } else {
            let outcome = apply_delete_delta(
                &self.oracle,
                &mut self.cache,
                self.tau,
                &mut self.mups,
                rows,
            );
            self.stats.mups_retired += outcome.retired as u64;
            self.stats.mups_discovered += outcome.discovered as u64;
        }
        self.mups.sort();
        Ok(())
    }

    /// Registers a brand-new value on attribute `attribute`, growing the
    /// schema, the oracle, and the MUP set in lock-step, and returns the new
    /// value's code. Subsequent inserts may carry the code (or the value
    /// name, through the protocol).
    ///
    /// The MUP delta is O(1): no row coverage changes, so existing MUPs stay
    /// exactly where they are, and the only candidate new MUP is the level-1
    /// pattern `(X,…,v,…,X)` — any deeper pattern carrying `v` has an
    /// uncovered parent still carrying `v`, so it cannot be maximal. That
    /// candidate covers nothing (no row carries `v` yet) and its lone parent
    /// is the root, so it joins the frontier iff the root is covered; when
    /// the root itself is uncovered it already dominates everything and the
    /// frontier is unchanged. Rows carrying `v` arriving later retire it
    /// through the ordinary insert delta.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range attribute positions, duplicate value names, and
    /// growth beyond [`coverage_data::MAX_CARDINALITY`]; nothing changes on
    /// error.
    pub fn grow_value(&mut self, attribute: usize, value: impl Into<String>) -> Result<u8> {
        let code = self
            .dataset
            .grow_value(attribute, value)
            .map_err(|e| ServiceError::Core(e.into()))?;
        self.oracle.grow_value(attribute);
        self.grown[attribute] += 1;
        // τ depends only on n, which is unchanged — no re-resolution needed.
        let d = self.dataset.arity();
        let root = vec![X; d];
        if self.tau > 0 && self.oracle.covered(&root, self.tau) {
            let mut codes = root;
            codes[attribute] = code;
            self.mups.push(Pattern::from_codes(codes));
            self.mups.sort();
            self.stats.mups_discovered += 1;
        }
        Ok(code)
    }

    /// Rebuilds every derived structure (oracle, τ, MUP set, memo cache)
    /// from the dataset alone. The serving layer calls this after a request
    /// handler panics while holding the engine, whose derived state may have
    /// been torn mid-update; counted as a full recompute in [`Self::stats`].
    pub fn rebuild(&mut self) -> Result<()> {
        self.oracle = B::build(&self.dataset, 1);
        self.tau = self.threshold.resolve(self.dataset.len() as u64)?;
        self.mups = DeepDiver::default().find_mups_with_oracle(&self.oracle, self.tau)?;
        self.mups.sort();
        self.cache.clear();
        self.stats.full_recomputes += 1;
        Ok(())
    }

    /// Reassembles an engine from snapshot parts **without re-running
    /// discovery** — the caller (the snapshot loader) vouches that `mups` is
    /// exactly the MUP set of `dataset` under `threshold`. The backend is
    /// rebuilt from the dataset; stats and the
    /// per-attribute dictionary-growth counters (`grown`, zeros for pre-v3
    /// snapshots) carry over; the memo cache starts cold.
    pub fn from_snapshot_parts(
        dataset: Dataset,
        threshold: Threshold,
        mut mups: Vec<Pattern>,
        stats: EngineStats,
        grown: Vec<u64>,
    ) -> Result<Self> {
        if grown.len() != dataset.arity() {
            return Err(ServiceError::Snapshot(format!(
                "{} grown counters but {} attributes",
                grown.len(),
                dataset.arity()
            )));
        }
        let oracle = B::build(&dataset, 1);
        let tau = threshold.resolve(dataset.len() as u64)?;
        mups.sort();
        Ok(Self {
            dataset,
            oracle,
            threshold,
            tau,
            mups,
            cache: CoverageCache::new(DEFAULT_CACHE_CAPACITY),
            stats,
            grown,
        })
    }

    /// The current maximal uncovered patterns, sorted.
    pub fn mups(&self) -> &[Pattern] {
        &self.mups
    }

    /// `cov(P)` for a pattern given as raw codes ([`X`] = non-deterministic),
    /// answered through the memo cache.
    pub fn coverage(&mut self, codes: &[u8]) -> Result<u64> {
        let schema = self.dataset.schema();
        if codes.len() != schema.arity() {
            return Err(ServiceError::BadRequest(format!(
                "pattern has {} elements, schema has {} attributes",
                codes.len(),
                schema.arity()
            )));
        }
        for (i, &v) in codes.iter().enumerate() {
            if v != X && v >= schema.cardinality(i) {
                return Err(ServiceError::BadRequest(format!(
                    "pattern value {v} out of range for attribute `{}`",
                    schema.attribute(i).name()
                )));
            }
        }
        Ok(coverage_cached(&self.oracle, &mut self.cache, codes))
    }

    /// Whether `cov(P) ≥ τ` under the current resolved threshold.
    pub fn covered(&mut self, codes: &[u8]) -> Result<bool> {
        Ok(self.coverage(codes)? >= self.tau)
    }

    /// Plans the minimum data collection fixing every uncovered pattern at
    /// level `lambda`, with per-combination copy counts closing the deficit.
    pub fn enhance(&self, lambda: usize) -> Result<(EnhancementPlan, Vec<u64>)> {
        if lambda == 0 || lambda > self.dataset.arity() {
            return Err(ServiceError::BadRequest(format!(
                "lambda must be in 1..={}, got {lambda}",
                self.dataset.arity()
            )));
        }
        let plan = CoverageEnhancer::default().plan_for_level(
            &GreedyHittingSet,
            &self.mups,
            &self.dataset.schema().cardinalities(),
            lambda,
        )?;
        let copies = plan.required_copies(&self.oracle, self.tau);
        Ok((plan, copies))
    }

    /// A point-in-time coverage report (the paper's audit widget).
    pub fn report(&self) -> CoverageReport {
        CoverageReport::from_mups(
            self.mups.clone(),
            self.tau,
            self.dataset.len() as u64,
            self.dataset.arity(),
        )
    }

    /// The configured threshold (count or rate).
    pub fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// The currently resolved absolute threshold τ.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// The live dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The incrementally maintained coverage backend.
    pub fn oracle(&self) -> &B {
        &self.oracle
    }

    /// Maintenance counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Values added per attribute through [`Self::grow_value`] since the
    /// engine was built (carried across snapshot/restore).
    pub fn dictionary_growth(&self) -> &[u64] {
        &self.grown
    }

    /// Memo-cache counters: `(len, capacity, hits, misses, invalidated)`.
    /// `invalidated` counts entries dropped because an inserted or deleted
    /// tuple changed their coverage — the cache-churn signal operators watch
    /// under write-heavy load.
    pub fn cache_stats(&self) -> (usize, usize, u64, u64, u64) {
        (
            self.cache.len(),
            self.cache.capacity(),
            self.cache.hits(),
            self.cache.misses(),
            self.cache.invalidated(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_data::Schema;
    use rand::{Rng, SeedableRng};

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

    fn batch_mups(ds: &Dataset, threshold: Threshold) -> Vec<Pattern> {
        let mut mups = DeepDiver::default().find_mups(ds, threshold).unwrap();
        mups.sort();
        mups
    }

    #[test]
    fn initial_audit_matches_deepdiver() {
        let engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        assert_eq!(engine.mups(), batch_mups(&example1(), Threshold::Count(1)));
        assert_eq!(engine.tau(), 1);
    }

    #[test]
    fn incremental_inserts_track_batch_recompute() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(2)).unwrap();
        let mut materialized = example1();
        let stream = [
            vec![1u8, 0, 1],
            vec![1, 0, 1],
            vec![1, 1, 0],
            vec![0, 1, 0],
            vec![1, 1, 1],
            vec![1, 1, 1],
        ];
        for row in &stream {
            engine.insert(row).unwrap();
            materialized.push_row(row).unwrap();
            assert_eq!(
                engine.mups(),
                batch_mups(&materialized, Threshold::Count(2)),
                "after insert {row:?}"
            );
        }
        assert_eq!(engine.stats().inserts, stream.len() as u64);
        assert_eq!(engine.stats().full_recomputes, 0);
        assert!(engine.stats().mups_retired > 0);
    }

    #[test]
    fn batch_insert_equals_single_inserts() {
        let stream: Vec<Vec<u8>> = {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            (0..40)
                .map(|_| (0..3).map(|_| rng.random_range(0..2u8)).collect())
                .collect()
        };
        let mut singles = CoverageEngine::new(example1(), Threshold::Count(3)).unwrap();
        for row in &stream {
            singles.insert(row).unwrap();
        }
        let mut batched = CoverageEngine::new(example1(), Threshold::Count(3)).unwrap();
        for chunk in stream.chunks(7) {
            batched.insert_batch(chunk).unwrap();
        }
        assert_eq!(singles.mups(), batched.mups());
    }

    #[test]
    fn rate_threshold_resteps_and_recomputes() {
        // Rate 0.2 over a growing dataset: τ starts at 1 and steps up every
        // 5 rows, forcing full-recompute fallbacks that must stay correct.
        let ds = example1();
        let mut engine = CoverageEngine::new(ds.clone(), Threshold::Fraction(0.2)).unwrap();
        assert_eq!(engine.tau(), 1);
        let mut materialized = ds;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for i in 0..30 {
            let row: Vec<u8> = (0..3).map(|_| rng.random_range(0..2u8)).collect();
            engine.insert(&row).unwrap();
            materialized.push_row(&row).unwrap();
            assert_eq!(
                engine.tau(),
                Threshold::Fraction(0.2)
                    .resolve(materialized.len() as u64)
                    .unwrap()
            );
            assert_eq!(
                engine.mups(),
                batch_mups(&materialized, Threshold::Fraction(0.2)),
                "after insert {i}"
            );
        }
        assert!(engine.stats().full_recomputes > 0);
        assert!(engine.stats().full_recomputes < 30);
    }

    #[test]
    fn insert_from_empty_dataset() {
        let mut engine = CoverageEngine::new(
            Dataset::new(Schema::binary(2).unwrap()),
            Threshold::Count(1),
        )
        .unwrap();
        // Empty dataset: the root is the single MUP.
        assert_eq!(engine.mups().len(), 1);
        assert_eq!(engine.mups()[0].level(), 0);
        for row in [[0u8, 0], [0, 1], [1, 0], [1, 1]] {
            engine.insert(&row).unwrap();
        }
        assert!(engine.mups().is_empty());
        assert_eq!(engine.report().maximum_covered_level(), 2);
    }

    #[test]
    fn bad_rows_are_rejected_atomically() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        let before_len = engine.dataset().len();
        let err = engine
            .insert_batch(&[vec![0, 0, 0], vec![0, 9, 0]])
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(engine.dataset().len(), before_len, "batch must be atomic");
        assert!(engine.insert(&[0, 0]).is_err(), "arity mismatch");
    }

    #[test]
    fn coverage_queries_are_cached_and_validated() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        assert_eq!(engine.coverage(&[0, X, 1]).unwrap(), 3);
        assert_eq!(engine.coverage(&[0, X, 1]).unwrap(), 3);
        let (_, _, hits, _, _) = engine.cache_stats();
        assert!(hits >= 1);
        assert!(engine.coverage(&[0, X]).is_err());
        assert!(engine.coverage(&[0, 5, X]).is_err());
        assert!(engine.covered(&[X, X, X]).unwrap());
        assert!(!engine.covered(&[1, X, X]).unwrap());
    }

    #[test]
    fn incremental_deletes_track_batch_recompute() {
        // Grow the dataset, then shrink it back down, checking equivalence
        // with batch discovery after every single delete.
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(2)).unwrap();
        let stream = [
            vec![1u8, 0, 1],
            vec![1, 0, 1],
            vec![1, 1, 0],
            vec![0, 1, 0],
            vec![1, 1, 1],
            vec![1, 1, 1],
        ];
        for row in &stream {
            engine.insert(row).unwrap();
        }
        let mut materialized = example1();
        for row in &stream {
            materialized.push_row(row).unwrap();
        }
        for row in stream.iter().rev() {
            engine.remove(row).unwrap();
            materialized.remove_row(row).unwrap();
            let remaining: Vec<Vec<u8>> = materialized.rows().map(<[u8]>::to_vec).collect();
            let expected = batch_mups(
                &Dataset::from_rows(materialized.schema().clone(), &remaining).unwrap(),
                Threshold::Count(2),
            );
            assert_eq!(engine.mups(), expected, "after delete {row:?}");
        }
        assert_eq!(engine.stats().deletes, stream.len() as u64);
        assert_eq!(engine.stats().full_recomputes, 0);
        assert_eq!(engine.mups(), batch_mups(&example1(), Threshold::Count(2)));
    }

    #[test]
    fn delete_batch_is_atomic_and_validates_multiplicity() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        let before_len = engine.dataset().len();
        let before_mups = engine.mups().to_vec();
        // (0,0,1) appears twice; asking for three copies must change nothing.
        let err = engine
            .remove_batch(&[vec![0, 0, 1], vec![0, 0, 1], vec![0, 0, 1]])
            .unwrap_err();
        assert!(err.to_string().contains("only 2 present"), "{err}");
        assert_eq!(engine.dataset().len(), before_len);
        assert_eq!(engine.mups(), before_mups.as_slice());
        // Absent row.
        assert!(engine.remove(&[1, 1, 1]).is_err());
        // Arity / range validation mirrors the insert path.
        assert!(engine.remove(&[0, 0]).is_err());
        assert!(engine.remove(&[0, 9, 0]).is_err());
        // Exactly two copies works.
        engine
            .remove_batch(&[vec![0, 0, 1], vec![0, 0, 1]])
            .unwrap();
        assert_eq!(engine.dataset().len(), before_len - 2);
        assert_eq!(engine.stats().delete_batches, 1);
    }

    #[test]
    fn rate_threshold_steps_down_on_deletes_and_recomputes() {
        // Fraction 0.2: τ = max(1, round(n/5)) steps down as rows leave.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let rows: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..3).map(|_| rng.random_range(0..2u8)).collect())
            .collect();
        let ds = Dataset::from_rows(Schema::binary(3).unwrap(), &rows).unwrap();
        let mut engine = CoverageEngine::new(ds, Threshold::Fraction(0.2)).unwrap();
        let mut remaining = rows;
        while remaining.len() > 3 {
            let row = remaining.pop().unwrap();
            engine.remove(&row).unwrap();
            assert_eq!(
                engine.tau(),
                Threshold::Fraction(0.2)
                    .resolve(remaining.len() as u64)
                    .unwrap()
            );
            let expected = batch_mups(
                &Dataset::from_rows(Schema::binary(3).unwrap(), &remaining).unwrap(),
                Threshold::Fraction(0.2),
            );
            assert_eq!(
                engine.mups(),
                expected,
                "after shrink to {}",
                remaining.len()
            );
        }
        assert!(engine.stats().full_recomputes > 0, "τ must have stepped");
    }

    #[test]
    fn remove_everything_then_reinsert() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        for row in example1().rows() {
            engine.remove(row).unwrap();
        }
        assert!(engine.dataset().is_empty());
        assert_eq!(engine.mups().len(), 1);
        assert_eq!(engine.mups()[0].level(), 0);
        engine.insert(&[1, 1, 1]).unwrap();
        assert!(engine.covered(&[1, 1, 1]).unwrap());
    }

    #[test]
    fn rebuild_restores_derived_state() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(2)).unwrap();
        engine.insert(&[1, 0, 1]).unwrap();
        let mups_before = engine.mups().to_vec();
        let recomputes_before = engine.stats().full_recomputes;
        engine.rebuild().unwrap();
        assert_eq!(engine.mups(), mups_before.as_slice());
        assert_eq!(engine.stats().full_recomputes, recomputes_before + 1);
        let (len, _, _, _, _) = engine.cache_stats();
        assert_eq!(len, 0, "rebuild starts the memo cache cold");
    }

    #[test]
    fn cache_stats_surface_invalidation_churn() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        // Prime the cache with a pattern matching the upcoming insert…
        assert_eq!(engine.coverage(&[0, X, 1]).unwrap(), 3);
        let (_, _, _, _, invalidated_before) = engine.cache_stats();
        engine.insert(&[0, 1, 1]).unwrap();
        let (_, _, _, _, invalidated) = engine.cache_stats();
        assert!(
            invalidated > invalidated_before,
            "insert matching a cached pattern must invalidate it"
        );
    }

    #[test]
    fn grow_value_mints_the_level1_mup_and_tracks_batch() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        let before = engine.mups().len();
        let code = engine.grow_value(1, "third").unwrap();
        assert_eq!(code, 2);
        assert_eq!(engine.dataset().schema().cardinality(1), 3);
        assert_eq!(engine.dictionary_growth(), &[0, 1, 0]);
        // Exactly one new MUP: (X,2,X).
        assert_eq!(engine.mups().len(), before + 1);
        let expected = {
            let mut ds = Dataset::new(Schema::with_cardinalities(&[2, 3, 2]).unwrap());
            for row in example1().rows() {
                ds.push_row(row).unwrap();
            }
            batch_mups(&ds, Threshold::Count(1))
        };
        assert_eq!(engine.mups(), expected.as_slice());
        // Inserting rows carrying the new value retires it via the ordinary
        // insert delta and keeps tracking batch discovery.
        engine.insert(&[0, 2, 0]).unwrap();
        engine.insert(&[0, 2, 1]).unwrap();
        let expected = {
            let mut ds = Dataset::new(Schema::with_cardinalities(&[2, 3, 2]).unwrap());
            for row in example1().rows() {
                ds.push_row(row).unwrap();
            }
            ds.push_row(&[0, 2, 0]).unwrap();
            ds.push_row(&[0, 2, 1]).unwrap();
            batch_mups(&ds, Threshold::Count(1))
        };
        assert_eq!(engine.mups(), expected.as_slice());
        assert!(!engine.covered(&[1, 2, X]).unwrap());
        assert_eq!(engine.coverage(&[X, 2, X]).unwrap(), 2);
    }

    #[test]
    fn grow_value_under_uncovered_root_changes_nothing() {
        // τ above n: the root itself is uncovered, dominates everything, and
        // the grown value must not join the frontier.
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(10)).unwrap();
        assert_eq!(engine.mups(), &[Pattern::all_x(3)]);
        engine.grow_value(0, "extra").unwrap();
        assert_eq!(engine.mups(), &[Pattern::all_x(3)]);
        assert_eq!(engine.dictionary_growth(), &[1, 0, 0]);
    }

    #[test]
    fn grow_value_rejects_bad_requests_without_side_effects() {
        let mut engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        let mups_before = engine.mups().to_vec();
        assert!(engine.grow_value(7, "nope").is_err(), "bad attribute index");
        engine.grow_value(0, "v").unwrap();
        let err = engine.grow_value(0, "v").unwrap_err();
        assert!(err.to_string().contains("already resolves"), "{err}");
        assert_eq!(engine.dataset().schema().cardinality(0), 3);
        assert_eq!(engine.dictionary_growth(), &[1, 0, 0]);
        assert_eq!(engine.mups().len(), mups_before.len() + 1);
    }

    #[test]
    fn enhance_plan_covers_lambda_frontier() {
        let engine = CoverageEngine::new(example1(), Threshold::Count(1)).unwrap();
        let (plan, copies) = engine.enhance(1).unwrap();
        assert_eq!(plan.combinations.len(), copies.len());
        for t in &plan.targets {
            assert!(plan.combinations.iter().any(|c| t.matches(c)));
        }
        assert!(engine.enhance(0).is_err());
        assert!(engine.enhance(4).is_err());
    }
}
