//! Property tests for the incremental coverage engine: after any insert (or
//! mixed insert/delete) stream, the maintained MUP set must equal a batch
//! DEEPDIVER run over the materialized dataset — for absolute thresholds
//! (pure delta path) and for rate thresholds (whose resolved τ shifts as
//! the dataset grows or shrinks, forcing re-resolution and occasional
//! full-recompute fallbacks). The engine's oracle is built through
//! [`CoverageBackend::build`], so it answers from its coverage lattice; the
//! reference is DEEPDIVER over the dense oracle of the materialized
//! dataset. The same equivalences are asserted when the base rows reach the
//! engine in several `insert_batch` slices rather than one build, for
//! snapshot round trips (including the compacted v2 on-disk form) and for
//! op-log replay.

use mithra::prelude::*;
use mithra::service::oplog::{read_entries_from, LoggedOp, OpLog, SyncPolicy};
use mithra::service::replica::replay_entries;
use mithra::service::snapshot::{
    parse_snapshot, parse_snapshot_anchored, snapshot_string, snapshot_string_anchored,
};
use proptest::prelude::*;

/// Row multiset — snapshot compaction does not preserve row order, only
/// the multiset.
fn sorted_rows(ds: &Dataset) -> Vec<Vec<u8>> {
    let mut rows: Vec<Vec<u8>> = ds.rows().map(<[u8]>::to_vec).collect();
    rows.sort();
    rows
}

/// A random shape, base dataset, and insert stream over a shared schema:
/// 2–4 attributes of cardinality 2–4, 0–40 base rows, 1–60 streamed rows.
fn workload_strategy() -> impl Strategy<Value = (Dataset, Vec<Vec<u8>>)> {
    (2usize..=4, 2u8..=4)
        .prop_flat_map(|(d, c)| {
            let base = proptest::collection::vec(proptest::collection::vec(0..c, d), 0..40);
            let stream = proptest::collection::vec(proptest::collection::vec(0..c, d), 1..60);
            (Just((d, c)), base, stream)
        })
        .prop_map(|((d, c), base, stream)| {
            let schema = Schema::with_cardinalities(&vec![c as usize; d]).unwrap();
            (Dataset::from_rows(schema, &base).unwrap(), stream)
        })
}

/// Builds the engine the way a row-partitioned bulk load reaches it: over
/// the first of `shards` round-robin slices of the base rows, then one
/// `insert_batch` per remaining slice, asserting equivalence with batch
/// DEEPDIVER over the rows loaded so far after each slice. With
/// `shards == 1` this is plain [`CoverageEngine::new`] over `base`.
fn engine_loaded_in_shards(
    base: &Dataset,
    threshold: Threshold,
    shards: usize,
) -> Result<CoverageEngine, TestCaseError> {
    let rows: Vec<Vec<u8>> = base.rows().map(<[u8]>::to_vec).collect();
    let slice =
        |s: usize| -> Vec<Vec<u8>> { rows.iter().skip(s).step_by(shards).cloned().collect() };
    let mut loaded = slice(0);
    let first = Dataset::from_rows(base.schema().clone(), &loaded).unwrap();
    let mut engine = CoverageEngine::new(first, threshold).unwrap();
    for s in 1..shards {
        let piece = slice(s);
        engine.insert_batch(&piece).unwrap();
        loaded.extend(piece);
        let materialized = Dataset::from_rows(base.schema().clone(), &loaded).unwrap();
        let mut expected = DeepDiver::default()
            .find_mups(&materialized, threshold)
            .unwrap();
        expected.sort();
        prop_assert_eq!(
            engine.mups(),
            expected.as_slice(),
            "divergence after loading slice {} of {} (threshold {:?})",
            s + 1,
            shards,
            threshold
        );
        prop_assert_eq!(
            engine.tau(),
            threshold.resolve(loaded.len() as u64).unwrap()
        );
    }
    Ok(engine)
}

/// Applies the stream through the engine in mixed batch sizes (1, 2, 3, …)
/// so both `insert` and `insert_batch` paths are exercised, asserting
/// equivalence with the batch algorithm at every step. The base rows reach
/// the engine in `shards` slices (see [`engine_loaded_in_shards`]).
fn assert_engine_tracks_batch(
    base: Dataset,
    stream: &[Vec<u8>],
    threshold: Threshold,
    shards: usize,
) -> Result<(), TestCaseError> {
    let mut engine = engine_loaded_in_shards(&base, threshold, shards)?;
    let mut materialized = base;
    let mut cursor = 0usize;
    let mut batch_size = 1usize;
    while cursor < stream.len() {
        let end = (cursor + batch_size).min(stream.len());
        let chunk = &stream[cursor..end];
        if chunk.len() == 1 {
            engine.insert(&chunk[0]).unwrap();
        } else {
            engine.insert_batch(chunk).unwrap();
        }
        for row in chunk {
            materialized.push_row(row).unwrap();
        }
        let mut expected = DeepDiver::default()
            .find_mups(&materialized, threshold)
            .unwrap();
        expected.sort();
        prop_assert_eq!(
            engine.mups(),
            expected.as_slice(),
            "divergence after {} rows (threshold {:?})",
            materialized.len(),
            threshold
        );
        prop_assert_eq!(
            engine.tau(),
            threshold.resolve(materialized.len() as u64).unwrap()
        );
        cursor = end;
        batch_size = batch_size % 5 + 1;
    }
    Ok(())
}

/// A random shape, base dataset, and *mixed* op stream: each op is
/// `(selector, row, delete_seed)` — a selector of 0 or 1 deletes a
/// currently-present row chosen by the seed (falling back to an insert when
/// the dataset is empty); anything else inserts `row`.
fn mixed_workload_strategy() -> impl Strategy<Value = (Dataset, Vec<(u8, Vec<u8>, u16)>)> {
    (2usize..=3, 2u8..=3)
        .prop_flat_map(|(d, c)| {
            let base = proptest::collection::vec(proptest::collection::vec(0..c, d), 0..25);
            let ops = proptest::collection::vec(
                (0u8..6, proptest::collection::vec(0..c, d), 0u16..1000),
                1..40,
            );
            (Just((d, c)), base, ops)
        })
        .prop_map(|((d, c), base, ops)| {
            let schema = Schema::with_cardinalities(&vec![c as usize; d]).unwrap();
            (Dataset::from_rows(schema, &base).unwrap(), ops)
        })
}

/// Replays a mixed insert/delete stream through the engine, asserting
/// equivalence with batch DEEPDIVER over the materialized multiset after
/// every op. Deletes arrive through `remove` and (for pairs of consecutive
/// deletes) `remove_batch`, so both entry points are exercised. The base
/// rows reach the engine in `shards` slices.
fn assert_engine_tracks_batch_mixed(
    base: Dataset,
    ops: &[(u8, Vec<u8>, u16)],
    threshold: Threshold,
    shards: usize,
) -> Result<(), TestCaseError> {
    let schema = base.schema().clone();
    let mut engine = engine_loaded_in_shards(&base, threshold, shards)?;
    let mut rows: Vec<Vec<u8>> = base.rows().map(<[u8]>::to_vec).collect();
    for (selector, row, delete_seed) in ops {
        let delete = *selector < 2 && !rows.is_empty();
        if delete {
            let victim = rows.swap_remove(*delete_seed as usize % rows.len());
            if *selector == 0 && !rows.is_empty() {
                // Two-victim batch through remove_batch.
                let second = rows.swap_remove(*delete_seed as usize % rows.len());
                engine.remove_batch(&[victim, second]).unwrap();
            } else {
                engine.remove(&victim).unwrap();
            }
        } else {
            engine.insert(row).unwrap();
            rows.push(row.clone());
        }
        let materialized = Dataset::from_rows(schema.clone(), &rows).unwrap();
        let mut expected = DeepDiver::default()
            .find_mups(&materialized, threshold)
            .unwrap();
        expected.sort();
        prop_assert_eq!(
            engine.mups(),
            expected.as_slice(),
            "divergence at {} rows after {} (threshold {:?})",
            rows.len(),
            if delete { "a delete" } else { "an insert" },
            threshold
        );
        prop_assert_eq!(engine.tau(), threshold.resolve(rows.len() as u64).unwrap());
    }
    Ok(())
}

/// A random shape plus a grow/insert op stream: a selector of 0 grows a
/// random attribute's value dictionary (bounded so the pattern space stays
/// testable); anything else inserts the row template mapped into the
/// *current* grown value ranges, so streamed rows may carry grown codes.
fn grow_workload_strategy() -> impl Strategy<Value = (Dataset, Vec<(u8, u8, Vec<u8>)>)> {
    (2usize..=3, 2u8..=3)
        .prop_flat_map(|(d, c)| {
            let base = proptest::collection::vec(proptest::collection::vec(0..c, d), 0..25);
            let ops = proptest::collection::vec(
                (0u8..4, 0u8..8, proptest::collection::vec(0u8..=u8::MAX, d)),
                1..35,
            );
            (Just((d, c)), base, ops)
        })
        .prop_map(|((d, c), base, ops)| {
            let schema = Schema::with_cardinalities(&vec![c as usize; d]).unwrap();
            (Dataset::from_rows(schema, &base).unwrap(), ops)
        })
}

/// Upper bound on a grown attribute's cardinality in the property tests —
/// keeps the pattern graph small enough for the per-op batch re-audit.
const GROW_CARD_CAP: usize = 6;

/// Replays a grow/insert stream through the engine, asserting after every
/// op that the maintained MUP set equals a batch DeepDiver run over the
/// rebuilt *grown* dataset (same cardinalities, same row multiset). The
/// base rows reach the engine in `shards` slices.
fn assert_grow_stream_tracks_batch(
    base: Dataset,
    ops: &[(u8, u8, Vec<u8>)],
    threshold: Threshold,
    shards: usize,
) -> Result<(), TestCaseError> {
    let mut engine = engine_loaded_in_shards(&base, threshold, shards)?;
    let mut cards: Vec<usize> = base
        .schema()
        .cardinalities()
        .iter()
        .map(|&c| c as usize)
        .collect();
    let mut rows: Vec<Vec<u8>> = base.rows().map(<[u8]>::to_vec).collect();
    let mut grown = vec![0usize; cards.len()];
    for (selector, attr_choice, template) in ops {
        let attr = *attr_choice as usize % cards.len();
        if *selector == 0 && cards[attr] < GROW_CARD_CAP {
            let code = engine
                .grow_value(attr, format!("g{attr}-{}", grown[attr]))
                .unwrap();
            prop_assert_eq!(
                code as usize,
                cards[attr],
                "new code is the old cardinality"
            );
            grown[attr] += 1;
            cards[attr] += 1;
        } else {
            let row: Vec<u8> = template
                .iter()
                .zip(&cards)
                .map(|(&t, &c)| t % c as u8)
                .collect();
            engine.insert(&row).unwrap();
            rows.push(row);
        }
        let schema = Schema::with_cardinalities(&cards).unwrap();
        let materialized = Dataset::from_rows(schema, &rows).unwrap();
        let mut expected = DeepDiver::default()
            .find_mups(&materialized, threshold)
            .unwrap();
        expected.sort();
        prop_assert_eq!(
            engine.mups(),
            expected.as_slice(),
            "divergence at {} rows / cardinalities {:?} (threshold {:?})",
            rows.len(),
            cards,
            threshold
        );
        prop_assert_eq!(engine.tau(), threshold.resolve(rows.len() as u64).unwrap());
    }
    let total_grown: u64 = engine.dictionary_growth().iter().sum();
    prop_assert_eq!(total_grown as usize, grown.iter().sum::<usize>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Absolute thresholds: the delta path alone must track batch discovery.
    #[test]
    fn engine_matches_deepdiver_under_count_threshold(
        workload in workload_strategy(),
        tau in 1u64..12,
    ) {
        let (base, stream) = workload;
        assert_engine_tracks_batch(base, &stream, Threshold::Count(tau), 1)?;
    }

    /// Rate thresholds: τ = max(1, round(f·n)) moves as n grows; the engine
    /// must re-resolve it on every batch and stay equivalent.
    #[test]
    fn engine_matches_deepdiver_under_rate_threshold(
        workload in workload_strategy(),
        rate_milli in 5u64..300,
    ) {
        let (base, stream) = workload;
        let rate = rate_milli as f64 / 1000.0;
        assert_engine_tracks_batch(base, &stream, Threshold::Fraction(rate), 1)?;
    }

    /// Mixed insert/delete streams under absolute thresholds: the insert
    /// and delete delta paths must compose to exactly batch discovery.
    #[test]
    fn engine_matches_deepdiver_under_mixed_stream_count_threshold(
        workload in mixed_workload_strategy(),
        tau in 1u64..10,
    ) {
        let (base, ops) = workload;
        assert_engine_tracks_batch_mixed(base, &ops, Threshold::Count(tau), 1)?;
    }

    /// Mixed streams under rate thresholds: τ steps up on growth and *down*
    /// on shrinkage; both directions must trigger sound fallbacks.
    #[test]
    fn engine_matches_deepdiver_under_mixed_stream_rate_threshold(
        workload in mixed_workload_strategy(),
        rate_milli in 5u64..300,
    ) {
        let (base, ops) = workload;
        let rate = rate_milli as f64 / 1000.0;
        assert_engine_tracks_batch_mixed(base, &ops, Threshold::Fraction(rate), 1)?;
    }

    /// Base rows loaded in a random number of round-robin slices — one
    /// `insert_batch` per slice after the first — must leave the engine
    /// exactly where a single build over all of them does, and the stream
    /// that follows must keep tracking batch DEEPDIVER.
    #[test]
    fn sharded_engine_matches_deepdiver_under_count_threshold(
        workload in workload_strategy(),
        tau in 1u64..12,
        shards in 1usize..=4,
    ) {
        let (base, stream) = workload;
        assert_engine_tracks_batch(base, &stream, Threshold::Count(tau), shards)?;
    }

    /// …and over arbitrary *mixed* insert/delete streams, where deletes must
    /// find their victim row whichever slice loaded it.
    #[test]
    fn sharded_engine_matches_deepdiver_under_mixed_stream(
        workload in mixed_workload_strategy(),
        tau in 1u64..10,
        shards in 1usize..=4,
    ) {
        let (base, ops) = workload;
        assert_engine_tracks_batch_mixed(base, &ops, Threshold::Count(tau), shards)?;
    }

    /// Sliced loads under rate thresholds: τ steps as each slice lands, so
    /// the load itself may run the full-recompute fallback.
    #[test]
    fn sharded_engine_matches_deepdiver_under_mixed_stream_rate_threshold(
        workload in mixed_workload_strategy(),
        rate_milli in 5u64..300,
        shards in 1usize..=4,
    ) {
        let (base, ops) = workload;
        let rate = rate_milli as f64 / 1000.0;
        assert_engine_tracks_batch_mixed(base, &ops, Threshold::Fraction(rate), shards)?;
    }

    /// Dictionary growth interleaved with inserts: the O(1) growth delta
    /// plus the ordinary insert delta must track batch discovery over the
    /// rebuilt grown dataset, under count thresholds.
    #[test]
    fn grow_stream_matches_deepdiver_under_count_threshold(
        workload in grow_workload_strategy(),
        tau in 1u64..10,
    ) {
        let (base, ops) = workload;
        assert_grow_stream_tracks_batch(base, &ops, Threshold::Count(tau), 1)?;
    }

    /// …and under rate thresholds: growth never moves n (so never steps τ),
    /// while the interleaved inserts do — both deltas must compose, and the
    /// full-recompute fallback runs DEEPDIVER over the grown oracle.
    #[test]
    fn grow_stream_matches_deepdiver_under_rate_threshold(
        workload in grow_workload_strategy(),
        rate_milli in 5u64..300,
    ) {
        let (base, ops) = workload;
        let rate = rate_milli as f64 / 1000.0;
        assert_grow_stream_tracks_batch(base, &ops, Threshold::Fraction(rate), 1)?;
    }

    /// A sliced load followed by dictionary growth: the grown codes must
    /// compose with rows that arrived in separate batches.
    #[test]
    fn sharded_grow_stream_matches_deepdiver_under_count_threshold(
        workload in grow_workload_strategy(),
        tau in 1u64..10,
        shards in 1usize..=4,
    ) {
        let (base, ops) = workload;
        assert_grow_stream_tracks_batch(base, &ops, Threshold::Count(tau), shards)?;
    }

    /// Sliced load, rate thresholds: the full-recompute fallback (when an
    /// insert steps τ) runs DEEPDIVER over the grown oracle.
    #[test]
    fn sharded_grow_stream_matches_deepdiver_under_rate_threshold(
        workload in grow_workload_strategy(),
        rate_milli in 5u64..300,
        shards in 1usize..=4,
    ) {
        let (base, ops) = workload;
        let rate = rate_milli as f64 / 1000.0;
        assert_grow_stream_tracks_batch(base, &ops, Threshold::Fraction(rate), shards)?;
    }

    /// Snapshot round trip at an arbitrary point in a stream: the restored
    /// engine serves identical MUPs/τ/stats and keeps tracking batch
    /// discovery afterwards.
    #[test]
    fn snapshot_round_trip_preserves_engine_equivalence(
        workload in mixed_workload_strategy(),
        tau in 1u64..10,
    ) {
        let (base, ops) = workload;
        let threshold = Threshold::Count(tau);
        let arity = base.arity();
        let mut engine = CoverageEngine::new(base.clone(), threshold).unwrap();
        let mut rows: Vec<Vec<u8>> = base.rows().map(<[u8]>::to_vec).collect();
        let mut grown = 0usize;
        for (selector, row, delete_seed) in &ops {
            if *selector < 2 && !rows.is_empty() {
                let victim = rows.swap_remove(*delete_seed as usize % rows.len());
                engine.remove(&victim).unwrap();
            } else if *selector == 2 && grown < 3 {
                // Snapshot v3 must carry grown dictionaries (incl. values
                // with zero rows) and the growth counters.
                let attr = *delete_seed as usize % arity;
                engine.grow_value(attr, format!("grown-{grown}")).unwrap();
                grown += 1;
            } else {
                engine.insert(row).unwrap();
                rows.push(row.clone());
            }
        }
        let restored: CoverageEngine = parse_snapshot(&snapshot_string(&engine).unwrap()).unwrap();
        prop_assert_eq!(restored.mups(), engine.mups());
        prop_assert_eq!(restored.tau(), engine.tau());
        prop_assert_eq!(restored.stats(), engine.stats());
        prop_assert_eq!(restored.dictionary_growth(), engine.dictionary_growth());
        prop_assert_eq!(
            restored.dataset().schema(),
            engine.dataset().schema(),
            "grown dictionaries must round-trip"
        );
        prop_assert_eq!(sorted_rows(restored.dataset()), sorted_rows(engine.dataset()));
    }

    /// Snapshot compaction (v2 stores unique combos + counts): a heavily
    /// duplicated dataset must round-trip exactly AND land on disk in far
    /// fewer bytes than the raw-rows encoding needs (≥ 2d+2 bytes per row).
    #[test]
    fn compacted_snapshots_round_trip_and_shrink(
        shape in (2usize..=3, 2u8..=3).prop_flat_map(|(d, c)| {
            let combos = proptest::collection::vec(
                proptest::collection::vec(0..c, d), 1..5);
            (Just((d, c)), combos, 200usize..400)
        }),
    ) {
        let ((d, c), combos, n) = shape;
        let schema = Schema::with_cardinalities(&vec![c as usize; d]).unwrap();
        let rows: Vec<Vec<u8>> = (0..n).map(|i| combos[i % combos.len()].clone()).collect();
        let base = Dataset::from_rows(schema, &rows).unwrap();
        let engine = CoverageEngine::new(base, Threshold::Count(1)).unwrap();
        let text = snapshot_string(&engine).unwrap();
        let raw_rows_lower_bound = n * (2 * d + 2);
        prop_assert!(
            text.len() < raw_rows_lower_bound,
            "compacted snapshot ({} bytes) must undercut raw rows (≥ {} bytes, {} rows)",
            text.len(), raw_rows_lower_bound, n
        );
        let restored: CoverageEngine = parse_snapshot(&text).unwrap();
        prop_assert_eq!(restored.mups(), engine.mups());
        prop_assert_eq!(sorted_rows(restored.dataset()), sorted_rows(engine.dataset()));
    }
}

/// Deterministic regression: a rate stream crossing many τ steps, checked
/// against the count of full recomputes actually triggered (the fallback
/// must fire, but only when the resolved τ moves).
#[test]
fn rate_threshold_fallbacks_are_bounded_by_tau_steps() {
    let schema = Schema::with_cardinalities(&[2, 3]).unwrap();
    let base = Dataset::from_rows(schema, &[vec![0, 0], vec![1, 1]]).unwrap();
    let threshold = Threshold::Fraction(0.25); // τ steps every 4 rows
    let mut engine = CoverageEngine::new(base.clone(), threshold).unwrap();
    let mut materialized = base;
    let mut tau_steps = 0u64;
    let mut tau = engine.tau();
    for i in 0..40usize {
        let row = vec![(i % 2) as u8, (i % 3) as u8];
        engine.insert(&row).unwrap();
        materialized.push_row(&row).unwrap();
        let resolved = threshold.resolve(materialized.len() as u64).unwrap();
        if resolved != tau {
            tau_steps += 1;
            tau = resolved;
        }
    }
    assert_eq!(engine.stats().full_recomputes, tau_steps);
    assert!(tau_steps > 0, "stream must actually cross τ steps");
    let mut expected = DeepDiver::default()
        .find_mups(&materialized, threshold)
        .unwrap();
    expected.sort();
    assert_eq!(engine.mups(), expected.as_slice());
}

/// A unique scratch path for an op-log file (proptest runs cases
/// concurrently across test binaries, so pid + counter both matter).
fn scratch_log(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "mithra-props-{tag}-{}-{}.oplog",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Renders an encoded row back to the raw strings a client would have sent
/// (the op log stores raw values, not codes).
fn raw_row(schema: &Schema, row: &[u8]) -> Vec<String> {
    row.iter()
        .enumerate()
        .map(|(i, &v)| schema.attribute(i).value_name(v))
        .collect()
}

/// Drives a mixed mutation stream through a live engine while logging every
/// op to a real on-disk [`OpLog`]; snapshots (anchored) after `cut` ops;
/// then recovers a second engine as a restart would — snapshot + replay of
/// the log tail past the anchor — and asserts full state equivalence.
fn oplog_replay_matches_live(
    base: &Dataset,
    ops: &[(u8, Vec<u8>, u16)],
    cut: usize,
    tau: u64,
) -> Result<(), TestCaseError> {
    let path = scratch_log("replay");
    let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
    let threshold = Threshold::Count(tau);
    let arity = base.arity();
    let mut engine = CoverageEngine::new(base.clone(), threshold).unwrap();
    let mut rows: Vec<Vec<u8>> = base.rows().map(<[u8]>::to_vec).collect();
    let mut grown = 0usize;
    let mut snapshot: Option<(String, u64)> = None;
    let mut take_cut = |engine: &CoverageEngine, log: &OpLog, applied: usize| {
        if applied == cut {
            snapshot = Some((
                snapshot_string_anchored(engine, log.last_seq()).unwrap(),
                log.last_seq(),
            ));
        }
    };
    take_cut(&engine, &log, 0);
    for (applied, (selector, row, delete_seed)) in ops.iter().enumerate() {
        // Every iteration applies exactly one engine mutation and logs it,
        // mirroring what the serving path does after each accepted request.
        if *selector < 2 && !rows.is_empty() {
            let victim = rows.swap_remove(*delete_seed as usize % rows.len());
            let raw = raw_row(engine.dataset().schema(), &victim);
            engine.remove(&victim).unwrap();
            log.append(LoggedOp::Delete { rows: vec![raw] }).unwrap();
        } else if *selector == 2 && grown < 3 {
            let attr = *delete_seed as usize % arity;
            let name = engine.dataset().schema().attribute(attr).name().to_string();
            engine.grow_value(attr, format!("grown-{grown}")).unwrap();
            log.append(LoggedOp::Grow {
                attribute: name,
                value: format!("grown-{grown}"),
            })
            .unwrap();
            grown += 1;
        } else {
            let raw = raw_row(engine.dataset().schema(), row);
            engine.insert(row).unwrap();
            rows.push(row.clone());
            log.append(LoggedOp::Insert { rows: vec![raw] }).unwrap();
        }
        take_cut(&engine, &log, applied + 1);
    }
    log.sync_batch().unwrap();
    let final_seq = log.last_seq();
    drop(log);

    let (text, expected_anchor) = snapshot.expect("cut is always within 0..=ops.len()");
    let (mut recovered, anchor) = parse_snapshot_anchored::<CoverageOracle>(&text).unwrap();
    prop_assert_eq!(anchor, expected_anchor, "snapshot must carry its anchor");
    let tail = read_entries_from(&path, anchor + 1).unwrap();
    let applied = replay_entries(&mut recovered, &tail, anchor).unwrap();
    std::fs::remove_file(&path).ok();
    prop_assert_eq!(applied, final_seq, "replay must reach the log head");

    prop_assert_eq!(recovered.mups(), engine.mups());
    prop_assert_eq!(recovered.tau(), engine.tau());
    prop_assert_eq!(recovered.dictionary_growth(), engine.dictionary_growth());
    prop_assert_eq!(
        recovered.dataset().schema(),
        engine.dataset().schema(),
        "replayed grows must rebuild the grown dictionaries"
    );
    prop_assert_eq!(
        sorted_rows(recovered.dataset()),
        sorted_rows(engine.dataset())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Crash-recovery equivalence: for any mixed mutation stream and any
    /// snapshot point within it, `snapshot + op-log tail replay` rebuilds an
    /// engine indistinguishable from the one that never went down — MUPs,
    /// τ, grown dictionaries, and the row multiset all match.
    #[test]
    fn snapshot_plus_oplog_tail_replay_matches_the_live_engine(
        workload in mixed_workload_strategy(),
        cut_seed in 0usize..1000,
        tau in 1u64..6,
    ) {
        let (base, ops) = workload;
        let cut = cut_seed % (ops.len() + 1);
        oplog_replay_matches_live(&base, &ops, cut, tau)?;
    }
}

/// A kill -9 mid-append leaves a torn final line. Recovery must keep every
/// complete entry, drop the torn bytes, and continue numbering densely —
/// end to end through the same snapshot + tail replay path a restart uses.
#[test]
fn torn_oplog_tail_recovers_to_the_last_complete_entry() {
    use std::io::Write;

    let path = scratch_log("torn");
    let schema = Schema::with_cardinalities(&[2, 2]).unwrap();
    let base = Dataset::from_rows(schema, &[vec![0, 0]]).unwrap();
    let mut engine = CoverageEngine::new(base, Threshold::Count(1)).unwrap();
    let text = snapshot_string_anchored(&engine, 0).unwrap();

    let mut log = OpLog::open(&path, SyncPolicy::Always).unwrap();
    for row in [vec![0u8, 1], vec![1, 0], vec![1, 1]] {
        let raw = raw_row(engine.dataset().schema(), &row);
        engine.insert(&row).unwrap();
        log.append(LoggedOp::Insert { rows: vec![raw] }).unwrap();
    }
    drop(log);

    // Simulate the crash: a fourth entry begins but the write is cut short.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(br#"{"v":1,"seq":4,"op":{"insert":"#)
        .unwrap();
    drop(file);

    // The read-side scan stops at the last complete entry…
    let entries = read_entries_from(&path, 1).unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries.last().unwrap().seq, 3);

    // …and a recovering engine lands exactly on the pre-crash state.
    let (mut recovered, anchor) = parse_snapshot_anchored::<CoverageOracle>(&text).unwrap();
    assert_eq!(anchor, 0);
    let applied = replay_entries(&mut recovered, &entries, anchor).unwrap();
    assert_eq!(applied, 3);
    assert_eq!(recovered.mups(), engine.mups());
    assert_eq!(
        sorted_rows(recovered.dataset()),
        sorted_rows(engine.dataset())
    );

    // Reopening for writes drops the torn bytes and keeps numbering dense.
    let mut log = OpLog::open(&path, SyncPolicy::Batch).unwrap();
    assert_eq!(log.last_seq(), 3);
    let seq = log
        .append(LoggedOp::Grow {
            attribute: "a0".into(),
            value: "extra".into(),
        })
        .unwrap();
    assert_eq!(seq, 4);
    drop(log);
    assert_eq!(read_entries_from(&path, 1).unwrap().len(), 4);
    std::fs::remove_file(&path).ok();
}
