//! The serving engine's default backend answers from a coverage lattice
//! when the schema fits. These tests pin that it is observationally the
//! engine it replaced: after random insert/delete streams its MUPs equal
//! batch DeepDiver and an engine over the compressed backend, and an engine
//! restored from a snapshot or replayed from the op log answers `mups` and
//! `coverage` byte for byte as the live one does.

use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::pattern::Pattern;
use coverage_core::Threshold;
use coverage_data::generators::airbnb_like;
use coverage_data::{Dataset, Schema};
use coverage_index::{CompressedOracle, CoverageOracle, X};
use coverage_service::oplog::read_entries_from;
use coverage_service::snapshot::{
    parse_snapshot, parse_snapshot_anchored, snapshot_string_anchored,
};
use coverage_service::{
    handle_line, replay_entries, CoverageEngine, LoggedOp, OpLog, ServeOptions, SyncPolicy,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn batch_mups(dataset: &Dataset, threshold: Threshold) -> Vec<Pattern> {
    let mut mups = DeepDiver::default().find_mups(dataset, threshold).unwrap();
    mups.sort();
    mups
}

/// The raw values a client sends for an encoded row (the op log stores
/// raw values, not codes).
fn raw_row(schema: &Schema, row: &[u8]) -> Vec<String> {
    row.iter()
        .enumerate()
        .map(|(i, &v)| schema.attribute(i).value_name(v))
        .collect()
}

#[test]
fn lattice_engine_matches_batch_and_compressed_engines() {
    for seed in 0..4u64 {
        for threshold in [Threshold::Count(4), Threshold::Fraction(0.02)] {
            let base = airbnb_like(200, 6, seed).unwrap();
            let pool = airbnb_like(100, 6, seed + 100).unwrap();
            let mut lattice = CoverageEngine::new(base.clone(), threshold).unwrap();
            let mut compressed =
                CoverageEngine::<CompressedOracle>::with_shards(base.clone(), threshold, 1)
                    .unwrap();
            assert!(lattice.oracle().has_lattice());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for step in 0..40 {
                let size = rng.random_range(1..4usize);
                let live = lattice.dataset().len();
                if rng.random_range(0..10u8) < 3 && live >= size {
                    let rows: Vec<Vec<u8>> = (0..size)
                        .map(|k| lattice.dataset().row((step * 7 + k * 13) % live).to_vec())
                        .collect();
                    lattice.remove_batch(&rows).unwrap();
                    compressed.remove_batch(&rows).unwrap();
                } else {
                    let rows: Vec<Vec<u8>> = (0..size)
                        .map(|_| pool.row(rng.random_range(0..pool.len())).to_vec())
                        .collect();
                    lattice.insert_batch(&rows).unwrap();
                    compressed.insert_batch(&rows).unwrap();
                }
                let expected = batch_mups(lattice.dataset(), threshold);
                assert_eq!(lattice.mups(), expected, "seed {seed} step {step}");
                assert_eq!(compressed.mups(), expected, "seed {seed} step {step}");
            }
            assert!(lattice.oracle().has_lattice());
        }
    }
}

/// `mups` and one `coverage` request per pattern of a fixed probe set.
fn read_requests(cards: &[u8], rng: &mut ChaCha8Rng) -> Vec<String> {
    let mut lines = vec![
        "{\"op\":\"mups\"}".to_string(),
        "{\"op\":\"mups\",\"limit\":5}".to_string(),
    ];
    for _ in 0..200 {
        let codes: Vec<u8> = cards
            .iter()
            .map(|&c| {
                if rng.random_range(0..3u8) == 0 {
                    X
                } else {
                    rng.random_range(0..c)
                }
            })
            .collect();
        lines.push(format!(
            "{{\"op\":\"coverage\",\"pattern\":\"{}\"}}",
            Pattern::from_codes(codes)
        ));
    }
    lines
}

#[test]
fn snapshot_restore_and_oplog_replay_answer_byte_identically() {
    let path = std::env::temp_dir().join(format!("mithra-lattice-{}.oplog", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut log = OpLog::open(&path, SyncPolicy::Off).unwrap();
    let threshold = Threshold::Count(3);
    let base = airbnb_like(300, 6, 5).unwrap();
    let pool = airbnb_like(100, 6, 6).unwrap();
    let mut live = CoverageEngine::new(base, threshold).unwrap();
    let start = snapshot_string_anchored(&live, log.last_seq()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for step in 0..60 {
        let schema = live.dataset().schema().clone();
        let op = if step == 30 {
            let name = schema.attribute(2).name().to_string();
            live.grow_value(2, "grown").unwrap();
            LoggedOp::Grow {
                attribute: name,
                value: "grown".into(),
            }
        } else if rng.random_range(0..10u8) < 3 {
            let row = live
                .dataset()
                .row(rng.random_range(0..live.dataset().len()))
                .to_vec();
            live.remove(&row).unwrap();
            LoggedOp::Delete {
                rows: vec![raw_row(&schema, &row)],
            }
        } else {
            let row = pool.row(rng.random_range(0..pool.len())).to_vec();
            live.insert(&row).unwrap();
            LoggedOp::Insert {
                rows: vec![raw_row(&schema, &row)],
            }
        };
        log.append(op).unwrap();
    }
    log.sync_batch().unwrap();
    drop(log);

    let mut restored: CoverageEngine =
        parse_snapshot(&snapshot_string_anchored(&live, 0).unwrap()).unwrap();
    let (mut replayed, anchor) = parse_snapshot_anchored::<CoverageOracle>(&start, None).unwrap();
    let tail = read_entries_from(&path, anchor + 1).unwrap();
    assert_eq!(replay_entries(&mut replayed, &tail, anchor).unwrap(), 60);
    std::fs::remove_file(&path).ok();
    assert!(restored.oracle().has_lattice() && replayed.oracle().has_lattice());

    let cards = live.dataset().schema().cardinalities();
    let options = ServeOptions::new();
    for line in read_requests(&cards, &mut rng) {
        let answer = handle_line(&mut live, &options, &line);
        assert!(answer.starts_with("{\"ok\":true"), "{line} → {answer}");
        assert_eq!(
            handle_line(&mut restored, &options, &line),
            answer,
            "restored: {line}"
        );
        assert_eq!(
            handle_line(&mut replayed, &options, &line),
            answer,
            "replayed: {line}"
        );
    }
}
