//! Versioned on-disk snapshots of engine state, so `mithra serve` can
//! restart **without a full re-audit**.
//!
//! A snapshot is a single JSON document (written compactly on one line)
//! carrying everything [`CoverageEngine::from_snapshot_parts`] needs:
//! the schema (names + value dictionaries), the dataset as **unique value
//! combinations with multiplicities**, the shard layout, the configured
//! threshold, the current MUP set, and the maintenance counters. The
//! coverage backend is *not* serialized — it is derived state, rebuilt from
//! the combinations in linear time on load, which keeps the format
//! independent of the bit-vector layout.
//!
//! Format policy (documented in the README):
//!
//! * `"format"` is always `"mithra-coverage-snapshot"`; `"version"` is an
//!   integer, currently [`SNAPSHOT_VERSION`]. Version 5 adds `"backend"` —
//!   the coverage-backend family (`"dense"` or `"compressed"`) the writing
//!   process served with. Like the shard layout, the backend is a *process*
//!   property, not a data property: the combinations restore into whichever
//!   backend the loading process runs (`serve --backend` decides, defaulting
//!   to the recorded value), so snapshots stay backend-agnostic and v1–4
//!   documents simply record `"dense"` semantics. Version 4 adds `"oplog_seq"`
//!   — the op-log sequence number the snapshot is anchored at, so recovery
//!   is "restore snapshot, replay log entries with `seq > oplog_seq`" and a
//!   snapshot-anchored truncation can drop the replayed prefix. Snapshots
//!   written without an op log record 0; versions 1–3 restore with anchor
//!   0. Version 3 adds `"grown"` — the
//!   per-attribute count of values registered through dictionary growth
//!   since load, so a restarted server keeps reporting dictionary growth in
//!   `stats` (the grown dictionaries themselves travel in `"attributes"`,
//!   which always records the *current* value lists). Version 2 stores
//!   `"combos": [[[codes…], count], …]` (compacted — heavily duplicated
//!   datasets shrink by orders of magnitude) plus `"shards"` (the backend's
//!   row-shard layout). Version 1 documents (raw `"rows"`, no layout) are
//!   still read: their rows restore into a single shard (shard 0). Both
//!   older versions restore with zeroed growth counters, and the next
//!   `snapshot` op rewrites the file as the current version. Any *newer*
//!   version is rejected rather than guessed at — bump the version on any
//!   incompatible change.
//! * Snapshots are **trusted input**: the loader validates structure, value
//!   ranges, and arities, but takes the MUP set at its word (re-deriving it
//!   would defeat the purpose). Keep snapshot files as protected as the
//!   dataset itself.
//! * Writes are atomic: the document goes to `<path>.tmp` and is renamed
//!   into place, so a crash mid-write never corrupts the previous snapshot.

use std::fmt::Write as _;
use std::path::Path;

use coverage_core::pattern::Pattern;
use coverage_core::Threshold;
use coverage_data::{Attribute, Dataset, Schema, UniqueCombinations};
use coverage_index::CoverageBackend;

use crate::engine::{CoverageEngine, EngineStats};
use crate::protocol::{write_json_string, Json};
use crate::{Result, ServiceError};

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u64 = 5;

/// Oldest snapshot version this build still reads.
pub const SNAPSHOT_MIN_VERSION: u64 = 1;

const _: () = assert!(1 <= SNAPSHOT_MIN_VERSION && SNAPSHOT_MIN_VERSION <= SNAPSHOT_VERSION);

/// The `"format"` marker distinguishing snapshots from arbitrary JSON.
pub const SNAPSHOT_FORMAT: &str = "mithra-coverage-snapshot";

fn bad(message: impl Into<String>) -> ServiceError {
    ServiceError::Snapshot(message.into())
}

/// Serializes the engine's durable state to a one-line JSON document.
///
/// # Errors
///
/// Fails for labeled datasets (the serving layer never builds one, and the
/// format deliberately omits labels).
pub fn snapshot_string<B: CoverageBackend>(engine: &CoverageEngine<B>) -> Result<String> {
    snapshot_string_anchored(engine, 0)
}

/// [`snapshot_string`] recording the op-log sequence number the snapshot is
/// anchored at (`"oplog_seq"`): every logged entry with `seq <=
/// oplog_seq` is already reflected in the document, so recovery replays
/// only the tail past it, and the leader may truncate that prefix.
pub fn snapshot_string_anchored<B: CoverageBackend>(
    engine: &CoverageEngine<B>,
    oplog_seq: u64,
) -> Result<String> {
    let dataset = engine.dataset();
    if dataset.is_labeled() {
        return Err(bad("labeled datasets cannot be snapshotted"));
    }
    let combos = UniqueCombinations::from_dataset(dataset);
    let mut out = String::with_capacity(1024 + combos.len() * (dataset.arity() * 4 + 8));
    out.push_str("{\"format\":");
    write_json_string(&mut out, SNAPSHOT_FORMAT);
    let _ = write!(out, ",\"version\":{SNAPSHOT_VERSION},\"backend\":");
    write_json_string(&mut out, engine.oracle().backend_name());
    let _ = write!(
        out,
        ",\"oplog_seq\":{oplog_seq},\"shards\":{},\"grown\":[",
        engine.shards()
    );
    for (i, g) in engine.dictionary_growth().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{g}");
    }
    out.push_str("],\"threshold\":");
    match engine.threshold() {
        Threshold::Count(c) => {
            let _ = write!(out, "{{\"count\":{c}}}");
        }
        Threshold::Fraction(f) => {
            // Rust's shortest-roundtrip float formatting: parses back to the
            // bit-identical f64.
            let _ = write!(out, "{{\"fraction\":{f}}}");
        }
    }
    out.push_str(",\"attributes\":[");
    let schema = dataset.schema();
    for i in 0..schema.arity() {
        if i > 0 {
            out.push(',');
        }
        let attr = schema.attribute(i);
        out.push_str("{\"name\":");
        write_json_string(&mut out, attr.name());
        let _ = write!(out, ",\"cardinality\":{}", attr.cardinality());
        if attr.has_dictionary() {
            out.push_str(",\"values\":[");
            for v in 0..attr.cardinality() {
                if v > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, &attr.value_name(v));
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("],\"combos\":[");
    for (k, (combo, count)) in combos.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("[[");
        for (i, &v) in combo.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        let _ = write!(out, "],{count}]");
    }
    out.push_str("],\"mups\":[");
    for (i, mup) in engine.mups().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, &mup.to_string());
    }
    let stats = engine.stats();
    let _ = write!(
        out,
        concat!(
            "],\"stats\":{{\"inserts\":{},\"batches\":{},\"deletes\":{},",
            "\"delete_batches\":{},\"mups_retired\":{},\"mups_discovered\":{},",
            "\"full_recomputes\":{}}}}}"
        ),
        stats.inserts,
        stats.batches,
        stats.deletes,
        stats.delete_batches,
        stats.mups_retired,
        stats.mups_discovered,
        stats.full_recomputes,
    );
    Ok(out)
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json> {
    doc.get(key)
        .ok_or_else(|| bad(format!("snapshot is missing field `{key}`")))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64> {
    field(doc, key)?.as_u64().ok_or_else(|| {
        bad(format!(
            "snapshot field `{key}` must be a non-negative integer"
        ))
    })
}

/// Reassembles an engine from a snapshot document produced by
/// [`snapshot_string`] — current (version 5, with the backend family),
/// version 4 (no backend), version 3 (no op-log anchor), version 2 (no
/// growth counters), or version 1 (raw rows, restored into a single shard).
pub fn parse_snapshot<B: CoverageBackend>(text: &str) -> Result<CoverageEngine<B>> {
    parse_snapshot_with_layout(text, None)
}

/// [`parse_snapshot`] with the shard layout decided by the caller:
/// `shards_override` replaces the snapshot's recorded layout *before* the
/// backend is built, so the index is constructed exactly once (resharding
/// after the fact would build it twice). `None` honors the recorded layout.
pub fn parse_snapshot_with_layout<B: CoverageBackend>(
    text: &str,
    shards_override: Option<usize>,
) -> Result<CoverageEngine<B>> {
    parse_snapshot_anchored(text, shards_override).map(|(engine, _)| engine)
}

/// [`parse_snapshot_with_layout`] that also returns the snapshot's op-log
/// anchor (`"oplog_seq"`; 0 for snapshots written without an op log or by
/// pre-version-4 builds). Recovery replays log entries with `seq` strictly
/// greater than the anchor.
pub fn parse_snapshot_anchored<B: CoverageBackend>(
    text: &str,
    shards_override: Option<usize>,
) -> Result<(CoverageEngine<B>, u64)> {
    let doc = Json::parse(text).map_err(|e| bad(format!("snapshot is not valid JSON: {e}")))?;
    match field(&doc, "format")?.as_str() {
        Some(SNAPSHOT_FORMAT) => {}
        _ => return Err(bad("not a mithra coverage snapshot (bad `format` field)")),
    }
    let version = u64_field(&doc, "version")?;
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(bad(format!(
            "snapshot version {version} is not supported (this build reads versions \
             {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
        )));
    }
    // The recorded backend family is advisory — the combinations restore
    // into whatever backend `B` the caller runs — but a value outside the
    // known families means the document came from a newer build mislabeling
    // itself, so reject rather than guess.
    backend_field(&doc, version)?;
    // v1–3 predate the op log: they restore with anchor 0 (replay the
    // whole log, which is exactly right for a log that started alongside
    // a pre-anchor snapshot).
    let oplog_seq = if version >= 4 {
        u64_field(&doc, "oplog_seq")?
    } else {
        0
    };
    // v1 predates sharding: everything restores into shard 0.
    let recorded = if version >= 2 {
        u64_field(&doc, "shards")?.max(1) as usize
    } else {
        1
    };
    let shards = shards_override.unwrap_or(recorded);
    let threshold_doc = field(&doc, "threshold")?;
    let threshold = match (threshold_doc.get("count"), threshold_doc.get("fraction")) {
        (Some(c), None) => Threshold::Count(
            c.as_u64()
                .ok_or_else(|| bad("threshold `count` must be a non-negative integer"))?,
        ),
        (None, Some(Json::Number(f))) => Threshold::Fraction(*f),
        _ => {
            return Err(bad(
                "threshold must carry exactly one of `count`/`fraction`",
            ))
        }
    };
    let mut attributes = Vec::new();
    for a in field(&doc, "attributes")?
        .as_array()
        .ok_or_else(|| bad("`attributes` must be an array"))?
    {
        let name = a
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("attribute is missing string field `name`"))?;
        let cardinality = u64_field(a, "cardinality")?;
        let attr = match a.get("values") {
            Some(values) => {
                let names: Vec<&str> = values
                    .as_array()
                    .ok_or_else(|| bad("attribute `values` must be an array"))?
                    .iter()
                    .map(|v| v.as_str().ok_or_else(|| bad("value names must be strings")))
                    .collect::<Result<_>>()?;
                if names.len() as u64 != cardinality {
                    return Err(bad(format!(
                        "attribute `{name}`: {} value names but cardinality {cardinality}",
                        names.len()
                    )));
                }
                Attribute::with_values(name, names)
            }
            None => Attribute::new(name, cardinality as usize),
        }
        .map_err(|e| bad(format!("attribute `{name}`: {e}")))?;
        attributes.push(attr);
    }
    let schema = Schema::new(attributes).map_err(|e| bad(format!("bad schema: {e}")))?;
    let arity = schema.arity();
    let mut dataset = Dataset::new(schema);
    let parse_codes = |what: &str, doc: &Json| -> Result<Vec<u8>> {
        doc.as_array()
            .ok_or_else(|| bad(format!("{what} must be an array")))?
            .iter()
            .map(|v| match v.as_u64() {
                Some(code) if code <= u8::MAX as u64 => Ok(code as u8),
                _ => Err(bad(format!("{what} carries a non-u8 value code"))),
            })
            .collect()
    };
    if version >= 2 {
        // Compacted form: [[codes…], multiplicity] per distinct combination.
        for (k, combo_doc) in field(&doc, "combos")?
            .as_array()
            .ok_or_else(|| bad("`combos` must be an array"))?
            .iter()
            .enumerate()
        {
            let pair = combo_doc
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| bad(format!("combo {k} must be a [codes, count] pair")))?;
            let combo = parse_codes(&format!("combo {k}"), &pair[0])?;
            let count = pair[1]
                .as_u64()
                .filter(|&c| c > 0)
                .ok_or_else(|| bad(format!("combo {k} must carry a positive count")))?;
            for _ in 0..count {
                dataset
                    .push_row(&combo)
                    .map_err(|e| bad(format!("combo {k}: {e}")))?;
            }
        }
    } else {
        for (r, row_doc) in field(&doc, "rows")?
            .as_array()
            .ok_or_else(|| bad("`rows` must be an array"))?
            .iter()
            .enumerate()
        {
            let row = parse_codes(&format!("row {r}"), row_doc)?;
            dataset
                .push_row(&row)
                .map_err(|e| bad(format!("row {r}: {e}")))?;
        }
    }
    let mut mups = Vec::new();
    for m in field(&doc, "mups")?
        .as_array()
        .ok_or_else(|| bad("`mups` must be an array"))?
    {
        let text = m
            .as_str()
            .ok_or_else(|| bad("MUPs must be pattern strings"))?;
        let pattern = Pattern::parse(text).map_err(|e| bad(format!("MUP `{text}`: {e}")))?;
        if pattern.arity() != arity {
            return Err(bad(format!(
                "MUP `{text}` has arity {} but the schema has {arity} attributes",
                pattern.arity()
            )));
        }
        mups.push(pattern);
    }
    let stats_doc = field(&doc, "stats")?;
    let stats = EngineStats {
        inserts: u64_field(stats_doc, "inserts")?,
        batches: u64_field(stats_doc, "batches")?,
        deletes: u64_field(stats_doc, "deletes")?,
        delete_batches: u64_field(stats_doc, "delete_batches")?,
        mups_retired: u64_field(stats_doc, "mups_retired")?,
        mups_discovered: u64_field(stats_doc, "mups_discovered")?,
        full_recomputes: u64_field(stats_doc, "full_recomputes")?,
    };
    // v1/v2 predate dictionary growth: counters restore as zeros.
    let grown = if version >= 3 {
        let grown: Vec<u64> = field(&doc, "grown")?
            .as_array()
            .ok_or_else(|| bad("`grown` must be an array"))?
            .iter()
            .map(|g| {
                g.as_u64()
                    .ok_or_else(|| bad("`grown` counters must be non-negative integers"))
            })
            .collect::<Result<_>>()?;
        if grown.len() != arity {
            return Err(bad(format!(
                "{} grown counters but {arity} attributes",
                grown.len()
            )));
        }
        grown
    } else {
        vec![0; arity]
    };
    CoverageEngine::from_snapshot_parts(dataset, threshold, mups, stats, shards, grown)
        .map(|engine| (engine, oplog_seq))
}

/// The backend family a snapshot document records: `"backend"` on v5
/// documents (validated against the known families), `"dense"` on v1–4
/// documents, which predate backend choice.
fn backend_field(doc: &Json, version: u64) -> Result<&'static str> {
    if version >= 5 {
        match field(doc, "backend")?.as_str() {
            Some("dense") => Ok("dense"),
            Some("compressed") => Ok("compressed"),
            Some(other) => Err(bad(format!(
                "snapshot records unknown backend `{other}` (expected `dense` or `compressed`)"
            ))),
            None => Err(bad("snapshot field `backend` must be a string")),
        }
    } else {
        Ok("dense")
    }
}

/// Reads only the backend family a snapshot on disk records (`"dense"` for
/// v1–4 documents) without building any index — the CLI peeks at this to
/// pick the serving backend before the expensive restore.
pub fn snapshot_backend(path: &Path) -> Result<&'static str> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad(format!("cannot read {}: {e}", path.display())))?;
    let doc = Json::parse(&text).map_err(|e| bad(format!("snapshot is not valid JSON: {e}")))?;
    match field(&doc, "format")?.as_str() {
        Some(SNAPSHOT_FORMAT) => {}
        _ => return Err(bad("not a mithra coverage snapshot (bad `format` field)")),
    }
    let version = u64_field(&doc, "version")?;
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(bad(format!(
            "snapshot version {version} is not supported (this build reads versions \
             {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
        )));
    }
    backend_field(&doc, version)
}

/// Writes a snapshot atomically and durably: the document lands in
/// `<path>.tmp` first, is fsynced and renamed over `path`, and the directory
/// is fsynced, so a crash mid-write leaves any previous snapshot intact and
/// a returned `Ok` survives a power cut.
pub fn save_snapshot<B: CoverageBackend>(engine: &CoverageEngine<B>, path: &Path) -> Result<()> {
    save_snapshot_anchored(engine, path, 0)
}

/// [`save_snapshot`] recording an op-log anchor (see
/// [`snapshot_string_anchored`]).
pub fn save_snapshot_anchored<B: CoverageBackend>(
    engine: &CoverageEngine<B>,
    path: &Path,
    oplog_seq: u64,
) -> Result<()> {
    let text = snapshot_string_anchored(engine, oplog_seq)?;
    // Append `.tmp` to the full file name (`with_extension` would *replace*
    // the extension — colliding with the target for `--snapshot state.tmp`,
    // and making `prod.a`/`prod.b` in one directory stage through the same
    // `prod.tmp`, either of which breaks the crash-atomicity promise).
    let tmp = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".tmp");
        std::path::PathBuf::from(name)
    };
    let describe = |what: &str, e: std::io::Error| bad(format!("{what} {}: {e}", tmp.display()));
    // The snapshot must be durable before the caller truncates the op log
    // through its anchor: fsync the file before the rename, and the
    // directory after it.
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, text.as_bytes())?;
        file.sync_all()
    };
    write().map_err(|e| describe("cannot write", e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| bad(format!("cannot move snapshot into {}: {e}", path.display())))?;
    crate::oplog::sync_parent_dir(path).map_err(|e| {
        bad(format!(
            "cannot sync the directory of {}: {e}",
            path.display()
        ))
    })
}

/// Loads a snapshot written by [`save_snapshot`].
pub fn load_snapshot<B: CoverageBackend>(path: &Path) -> Result<CoverageEngine<B>> {
    load_snapshot_with_layout(path, None)
}

/// [`load_snapshot`] with a caller-decided shard layout (see
/// [`parse_snapshot_with_layout`]).
pub fn load_snapshot_with_layout<B: CoverageBackend>(
    path: &Path,
    shards_override: Option<usize>,
) -> Result<CoverageEngine<B>> {
    load_snapshot_anchored(path, shards_override).map(|(engine, _)| engine)
}

/// [`load_snapshot_with_layout`] that also returns the op-log anchor (see
/// [`parse_snapshot_anchored`]).
pub fn load_snapshot_anchored<B: CoverageBackend>(
    path: &Path,
    shards_override: Option<usize>,
) -> Result<(CoverageEngine<B>, u64)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad(format!("cannot read {}: {e}", path.display())))?;
    parse_snapshot_anchored(&text, shards_override)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_index::{CoverageOracle, ShardedOracle};

    /// Row multiset of a dataset — snapshot compaction groups duplicate
    /// rows, so restores preserve the multiset, not the row order.
    fn sorted_rows(ds: &Dataset) -> Vec<Vec<u8>> {
        let mut rows: Vec<Vec<u8>> = ds.rows().map(<[u8]>::to_vec).collect();
        rows.sort();
        rows
    }

    fn engine() -> CoverageEngine {
        let schema = Schema::new(vec![
            Attribute::with_values("sex", ["m", "f"]).unwrap(),
            Attribute::with_values("race", ["white", "black", "asian"]).unwrap(),
        ])
        .unwrap();
        let ds =
            Dataset::from_rows(schema, &[vec![0, 0], vec![0, 1], vec![1, 0], vec![0, 0]]).unwrap();
        let mut engine = CoverageEngine::new(ds, Threshold::Count(1)).unwrap();
        engine.insert(&[1, 1]).unwrap();
        engine.remove(&[0, 1]).unwrap();
        engine
    }

    #[test]
    fn round_trip_preserves_everything_durable() {
        let original = engine();
        let text = snapshot_string(&original).unwrap();
        let restored: CoverageEngine = parse_snapshot(&text).unwrap();
        assert_eq!(restored.mups(), original.mups());
        assert_eq!(restored.tau(), original.tau());
        assert_eq!(restored.threshold(), original.threshold());
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.shards(), original.shards());
        assert_eq!(
            sorted_rows(restored.dataset()),
            sorted_rows(original.dataset())
        );
        // And the restored engine keeps serving correctly.
        let mut restored = restored;
        restored.insert(&[1, 2]).unwrap();
        assert!(restored.covered(&[1, 2]).unwrap());
    }

    #[test]
    fn sharded_engines_round_trip_their_layout() {
        let ds = coverage_data::generators::airbnb_like(300, 4, 2).unwrap();
        let original =
            CoverageEngine::<ShardedOracle>::with_shards(ds, Threshold::Count(3), 3).unwrap();
        let restored: CoverageEngine<ShardedOracle> =
            parse_snapshot(&snapshot_string(&original).unwrap()).unwrap();
        assert_eq!(restored.shards(), 3);
        assert_eq!(restored.oracle().shard_count(), 3);
        assert_eq!(restored.mups(), original.mups());
        assert_eq!(
            sorted_rows(restored.dataset()),
            sorted_rows(original.dataset())
        );
    }

    #[test]
    fn fraction_thresholds_round_trip_bit_exactly() {
        let ds = Dataset::from_rows(
            Schema::binary(2).unwrap(),
            &[vec![0, 0], vec![0, 1], vec![1, 0]],
        )
        .unwrap();
        let original = CoverageEngine::new(ds, Threshold::Fraction(0.1 + 0.2)).unwrap();
        let restored: CoverageEngine =
            parse_snapshot(&snapshot_string(&original).unwrap()).unwrap();
        assert_eq!(restored.threshold(), original.threshold());
    }

    #[test]
    fn anonymous_attributes_round_trip() {
        let ds = Dataset::from_rows(
            Schema::with_cardinalities(&[2, 3]).unwrap(),
            &[vec![0, 2], vec![1, 1]],
        )
        .unwrap();
        let original = CoverageEngine::new(ds, Threshold::Count(2)).unwrap();
        let restored: CoverageEngine =
            parse_snapshot(&snapshot_string(&original).unwrap()).unwrap();
        assert_eq!(
            sorted_rows(restored.dataset()),
            sorted_rows(original.dataset())
        );
        assert_eq!(restored.mups(), original.mups());
    }

    #[test]
    fn save_and_load_via_disk() {
        let dir = std::env::temp_dir().join(format!("mithra-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snapshot");
        let original = engine();
        save_snapshot(&original, &path).unwrap();
        let restored: CoverageEngine = load_snapshot(&path).unwrap();
        assert_eq!(restored.mups(), original.mups());
        assert_eq!(
            sorted_rows(restored.dataset()),
            sorted_rows(original.dataset())
        );
        // Overwriting is atomic-by-rename: a second save replaces the first.
        save_snapshot(&restored, &path).unwrap();
        assert!(load_snapshot::<CoverageOracle>(&path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staging_file_never_collides_with_the_target() {
        let dir = std::env::temp_dir().join(format!("mithra-snap-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let original = engine();
        // A target that already ends in `.tmp` must not be its own staging
        // file (with_extension would make them identical).
        let path = dir.join("state.tmp");
        save_snapshot(&original, &path).unwrap();
        assert!(load_snapshot::<CoverageOracle>(&path).is_ok());
        assert!(
            !dir.join("state.tmp.tmp").exists(),
            "staging file renamed away"
        );
        // Two snapshots differing only in extension stage through distinct
        // files (prod.a.tmp / prod.b.tmp), not a shared prod.tmp.
        save_snapshot(&original, &dir.join("prod.a")).unwrap();
        save_snapshot(&original, &dir.join("prod.b")).unwrap();
        assert!(!dir.join("prod.tmp").exists());
        assert!(load_snapshot::<CoverageOracle>(&dir.join("prod.a")).is_ok());
        assert!(load_snapshot::<CoverageOracle>(&dir.join("prod.b")).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_wrong_version_and_malformed_documents() {
        let good = snapshot_string(&engine()).unwrap();
        let wrong_version = good.replace(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            "\"version\":9999",
        );
        let err = parse_snapshot::<CoverageOracle>(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version 9999"), "{err}");

        for (mutation, needle) in [
            ("not json at all".to_string(), "not valid JSON"),
            ("{}".to_string(), "missing field `format`"),
            (
                good.replace(SNAPSHOT_FORMAT, "something-else"),
                "bad `format`",
            ),
            (good.replace("\"mups\":[", "\"mups\":[\"XXXXX\","), "arity"),
            (
                good.replace("\"combos\":[[[", "\"combos\":[[[9,"),
                "combo 0",
            ),
            (
                good.replace("\"shards\":1", "\"shards\":\"two\""),
                "`shards`",
            ),
        ] {
            let err = parse_snapshot::<CoverageOracle>(&mutation).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{needle}` not in `{err}`"
            );
        }
    }

    #[test]
    fn grown_dictionaries_round_trip_through_version3() {
        let mut original = engine();
        // Grow the race dictionary and land a row on the new value, then
        // grow sex without any rows (the zero-occurrence MUP case).
        original.grow_value(1, "hispanic").unwrap();
        original.insert(&[0, 3]).unwrap();
        original.grow_value(0, "x").unwrap();
        let text = snapshot_string(&original).unwrap();
        assert!(
            text.contains(&format!("\"version\":{SNAPSHOT_VERSION}")),
            "{text}"
        );
        assert!(text.contains("\"grown\":[1,1]"), "{text}");
        let restored: CoverageEngine = parse_snapshot(&text).unwrap();
        assert_eq!(restored.dictionary_growth(), &[1, 1]);
        assert_eq!(restored.mups(), original.mups());
        assert_eq!(
            sorted_rows(restored.dataset()),
            sorted_rows(original.dataset())
        );
        let schema = restored.dataset().schema();
        assert_eq!(schema.cardinalities(), vec![3, 4]);
        assert_eq!(schema.attribute(1).code_of("hispanic").unwrap(), 3);
        assert_eq!(schema.attribute(0).value_name(2), "x");
        // The restored engine keeps growing and serving.
        let mut restored = restored;
        restored.grow_value(1, "other").unwrap();
        assert_eq!(restored.dictionary_growth(), &[1, 2]);
        restored.insert(&[2, 4]).unwrap();
        assert!(restored.covered(&[2, 4]).unwrap());
    }

    #[test]
    fn mismatched_grown_counters_are_rejected() {
        let good = snapshot_string(&engine()).unwrap();
        let bad_len = good.replace("\"grown\":[0,0]", "\"grown\":[0,0,0]");
        let err = parse_snapshot::<CoverageOracle>(&bad_len).unwrap_err();
        assert!(err.to_string().contains("grown counters"), "{err}");
        let bad_type = good.replace("\"grown\":[0,0]", "\"grown\":[0,\"one\"]");
        let err = parse_snapshot::<CoverageOracle>(&bad_type).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
    }

    #[test]
    fn oplog_anchor_round_trips_and_defaults_to_zero() {
        let original = engine();
        // Anchorless save records 0.
        let plain = snapshot_string(&original).unwrap();
        assert!(plain.contains("\"oplog_seq\":0"), "{plain}");
        let (_, anchor) = parse_snapshot_anchored::<CoverageOracle>(&plain, None).unwrap();
        assert_eq!(anchor, 0);
        // An anchored save round-trips its sequence number, and the engine
        // state is unchanged by the anchor.
        let anchored = snapshot_string_anchored(&original, 42).unwrap();
        let (restored, anchor) =
            parse_snapshot_anchored::<CoverageOracle>(&anchored, None).unwrap();
        assert_eq!(anchor, 42);
        assert_eq!(restored.mups(), original.mups());
        // A version-4 document without the field is malformed.
        let missing = anchored.replace(",\"oplog_seq\":42", "");
        let err = parse_snapshot::<CoverageOracle>(&missing).unwrap_err();
        assert!(err.to_string().contains("oplog_seq"), "{err}");
    }

    #[test]
    fn version3_documents_restore_with_anchor_zero() {
        // A pre-oplog (version 3) snapshot: growth counters but no
        // `oplog_seq`. It must restore with anchor 0.
        let v3 = concat!(
            "{\"format\":\"mithra-coverage-snapshot\",\"version\":3,\"shards\":1,",
            "\"grown\":[0,0],",
            "\"threshold\":{\"count\":1},",
            "\"attributes\":[{\"name\":\"a\",\"cardinality\":2},",
            "{\"name\":\"b\",\"cardinality\":2}],",
            "\"combos\":[[[0,1],2],[[1,0],1]],",
            "\"mups\":[\"00\"],",
            "\"stats\":{\"inserts\":3,\"batches\":2,\"deletes\":0,",
            "\"delete_batches\":0,\"mups_retired\":1,\"mups_discovered\":2,",
            "\"full_recomputes\":0}}"
        );
        let (restored, anchor) = parse_snapshot_anchored::<CoverageOracle>(v3, None).unwrap();
        assert_eq!(anchor, 0);
        assert_eq!(restored.dataset().len(), 3);
        let rewritten = snapshot_string(&restored).unwrap();
        assert!(rewritten.contains(&format!("\"version\":{SNAPSHOT_VERSION}")));
        assert!(rewritten.contains("\"oplog_seq\":0"));
    }

    #[test]
    fn version2_documents_restore_with_zeroed_growth_counters() {
        // A pre-growth (version 2) snapshot: compacted combos + layout, no
        // `grown` field. It must restore with zeroed counters — grown value
        // dictionaries still travel in `attributes` — and the next save
        // rewrites it as the current version.
        let v2 = concat!(
            "{\"format\":\"mithra-coverage-snapshot\",\"version\":2,\"shards\":2,",
            "\"threshold\":{\"count\":1},",
            "\"attributes\":[{\"name\":\"a\",\"cardinality\":2},",
            "{\"name\":\"b\",\"cardinality\":3,\"values\":[\"x\",\"y\",\"z\"]}],",
            "\"combos\":[[[0,1],2],[[1,0],1]],",
            "\"mups\":[\"X2\"],",
            "\"stats\":{\"inserts\":3,\"batches\":2,\"deletes\":0,",
            "\"delete_batches\":0,\"mups_retired\":1,\"mups_discovered\":2,",
            "\"full_recomputes\":0}}"
        );
        let restored: CoverageEngine<ShardedOracle> = parse_snapshot(v2).unwrap();
        assert_eq!(restored.shards(), 2);
        assert_eq!(restored.dataset().len(), 3);
        assert_eq!(restored.dictionary_growth(), &[0, 0]);
        assert_eq!(restored.mups().len(), 1);
        let rewritten = snapshot_string(&restored).unwrap();
        assert!(rewritten.contains(&format!("\"version\":{SNAPSHOT_VERSION}")));
        assert!(rewritten.contains("\"grown\":[0,0]"));
    }

    #[test]
    fn version1_documents_restore_into_a_single_shard() {
        // A handwritten pre-sharding (version 1) snapshot: raw rows, no
        // layout field. It must restore — into one shard — and the next
        // save must rewrite it as the current compacted version.
        let v1 = concat!(
            "{\"format\":\"mithra-coverage-snapshot\",\"version\":1,",
            "\"threshold\":{\"count\":1},",
            "\"attributes\":[{\"name\":\"a\",\"cardinality\":2},",
            "{\"name\":\"b\",\"cardinality\":2}],",
            "\"rows\":[[0,1],[1,0],[0,1]],",
            "\"mups\":[\"00\",\"11\"],",
            "\"stats\":{\"inserts\":3,\"batches\":2,\"deletes\":0,",
            "\"delete_batches\":0,\"mups_retired\":1,\"mups_discovered\":2,",
            "\"full_recomputes\":0}}"
        );
        let restored: CoverageEngine<ShardedOracle> = parse_snapshot(v1).unwrap();
        assert_eq!(restored.shards(), 1);
        assert_eq!(restored.shard_layout(), vec![3]);
        assert_eq!(restored.dataset().len(), 3);
        assert_eq!(restored.mups().len(), 2);
        assert_eq!(restored.stats().inserts, 3);
        let rewritten = snapshot_string(&restored).unwrap();
        assert!(rewritten.contains(&format!("\"version\":{SNAPSHOT_VERSION}")));
        assert!(rewritten.contains("\"combos\":"));
    }

    #[test]
    fn layout_override_wins_without_a_second_build() {
        let ds = coverage_data::generators::airbnb_like(200, 3, 4).unwrap();
        let original =
            CoverageEngine::<ShardedOracle>::with_shards(ds, Threshold::Count(2), 2).unwrap();
        let text = snapshot_string(&original).unwrap();
        let overridden: CoverageEngine<ShardedOracle> =
            parse_snapshot_with_layout(&text, Some(4)).unwrap();
        assert_eq!(overridden.shards(), 4);
        assert_eq!(overridden.oracle().shard_count(), 4);
        assert_eq!(overridden.mups(), original.mups());
        let honored: CoverageEngine<ShardedOracle> =
            parse_snapshot_with_layout(&text, None).unwrap();
        assert_eq!(honored.shards(), 2);
    }

    #[test]
    fn compaction_shrinks_heavily_duplicated_datasets() {
        // 1,000 copies of two distinct rows: version 1 stored every row
        // verbatim (≥ 6 bytes per row just for `[0,1],`); version 2 stores
        // two combos with counts, so the document stays in the hundreds of
        // bytes no matter how many duplicates arrive.
        let ds = Dataset::from_rows(
            Schema::binary(2).unwrap(),
            &(0..1_000)
                .map(|i| vec![(i % 2) as u8, (i % 2) as u8])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let engine = CoverageEngine::new(ds, Threshold::Count(1)).unwrap();
        let text = snapshot_string(&engine).unwrap();
        let v1_rows_lower_bound = 1_000 * 6;
        assert!(
            text.len() < v1_rows_lower_bound,
            "compacted snapshot ({} bytes) must undercut raw rows (≥ {v1_rows_lower_bound})",
            text.len()
        );
        let restored: CoverageEngine = parse_snapshot(&text).unwrap();
        assert_eq!(restored.dataset().len(), 1_000);
        assert_eq!(restored.mups(), engine.mups());
    }

    #[test]
    fn backend_family_round_trips_and_is_validated() {
        use coverage_index::CompressedOracle;
        // A dense engine records "dense"; a compressed one "compressed".
        let dense_text = snapshot_string(&engine()).unwrap();
        assert!(dense_text.contains("\"backend\":\"dense\""), "{dense_text}");
        let ds = coverage_data::generators::airbnb_like(300, 4, 2).unwrap();
        let compressed = CoverageEngine::<ShardedOracle<CompressedOracle>>::with_shards(
            ds,
            Threshold::Count(3),
            3,
        )
        .unwrap();
        let text = snapshot_string(&compressed).unwrap();
        assert!(text.contains("\"backend\":\"compressed\""), "{text}");
        // Snapshots are backend-agnostic: a compressed-written document
        // restores into a dense engine and vice versa.
        let as_dense: CoverageEngine<ShardedOracle> = parse_snapshot(&text).unwrap();
        assert_eq!(as_dense.shards(), 3);
        assert_eq!(
            sorted_rows(as_dense.dataset()),
            sorted_rows(compressed.dataset())
        );
        let as_compressed: CoverageEngine<ShardedOracle<CompressedOracle>> =
            parse_snapshot(&dense_text).unwrap();
        assert_eq!(as_compressed.mups().len(), engine().mups().len());
        // An unknown family is rejected rather than guessed at.
        let unknown = text.replace("\"backend\":\"compressed\"", "\"backend\":\"columnar\"");
        let err = parse_snapshot::<ShardedOracle>(&unknown).unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
        let not_string = text.replace("\"backend\":\"compressed\"", "\"backend\":7");
        let err = parse_snapshot::<ShardedOracle>(&not_string).unwrap_err();
        assert!(err.to_string().contains("`backend`"), "{err}");
    }

    #[test]
    fn snapshot_backend_peeks_without_restoring() {
        use coverage_index::CompressedOracle;
        let dir = std::env::temp_dir().join(format!("mithra-snap-peek-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dense_path = dir.join("dense.snapshot");
        save_snapshot(&engine(), &dense_path).unwrap();
        assert_eq!(snapshot_backend(&dense_path).unwrap(), "dense");
        let ds = coverage_data::generators::airbnb_like(100, 3, 5).unwrap();
        let compressed =
            CoverageEngine::<CompressedOracle>::with_shards(ds, Threshold::Count(2), 1).unwrap();
        let compressed_path = dir.join("compressed.snapshot");
        save_snapshot(&compressed, &compressed_path).unwrap();
        assert_eq!(snapshot_backend(&compressed_path).unwrap(), "compressed");
        assert!(snapshot_backend(&dir.join("missing.snapshot")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version4_documents_restore_as_dense_with_their_anchor() {
        // A pre-backend (version 4) snapshot: op-log anchor but no
        // `backend`. It restores (implicitly dense), keeps its anchor, and
        // the next save rewrites it as the current version.
        let v4 = concat!(
            "{\"format\":\"mithra-coverage-snapshot\",\"version\":4,\"oplog_seq\":17,",
            "\"shards\":2,\"grown\":[0,0],",
            "\"threshold\":{\"count\":1},",
            "\"attributes\":[{\"name\":\"a\",\"cardinality\":2},",
            "{\"name\":\"b\",\"cardinality\":2}],",
            "\"combos\":[[[0,1],2],[[1,0],1]],",
            "\"mups\":[\"00\"],",
            "\"stats\":{\"inserts\":3,\"batches\":2,\"deletes\":0,",
            "\"delete_batches\":0,\"mups_retired\":1,\"mups_discovered\":2,",
            "\"full_recomputes\":0}}"
        );
        let (restored, anchor) = parse_snapshot_anchored::<ShardedOracle>(v4, None).unwrap();
        assert_eq!(anchor, 17);
        assert_eq!(restored.shards(), 2);
        assert_eq!(restored.dataset().len(), 3);
        let rewritten = snapshot_string(&restored).unwrap();
        assert!(rewritten.contains(&format!("\"version\":{SNAPSHOT_VERSION}")));
        assert!(rewritten.contains("\"backend\":\"dense\""));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let good = snapshot_string(&engine()).unwrap();
        let err = parse_snapshot::<CoverageOracle>(&good[..good.len() / 2]).unwrap_err();
        assert!(err.to_string().contains("not valid JSON"), "{err}");
    }
}
