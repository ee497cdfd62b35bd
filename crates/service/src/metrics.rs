//! Allocation-free serving metrics: per-op latency histograms plus
//! batching/admission counters.
//!
//! Latencies are recorded into log2-bucketed histograms (`bucket =
//! floor(log2(ns))`, 64 buckets of one `AtomicU64` each), so the hot path
//! is one relaxed fetch-add — no locks, no allocation, no floating point.
//! Percentiles are reconstructed from a snapshot by walking the cumulative
//! counts and reporting the upper edge of the bucket that crosses the
//! rank; the answer is exact to within a factor of 2, which is plenty to
//! tell 5 µs from 5 ms.
//!
//! One [`ServeMetrics`] is shared by every connection of the TCP front end
//! and surfaced through the `stats` op as the `"io"` section.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::protocol::write_json_string;

/// Number of log2 buckets: covers 1 ns .. 2^63 ns (≈ 292 years).
const BUCKETS: usize = 64;

/// The operation classes that get their own latency histogram.
///
/// `insert`/`delete` dominate serving traffic and have batched fast paths;
/// everything else (grow, mups, coverage, enhance, stats, snapshot,
/// restore, plus error responses) lands in `Other` — splitting those
/// further would cost memory without informing any tuning decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `insert` requests.
    Insert,
    /// `delete` requests.
    Delete,
    /// Everything else, including rejected requests.
    Other,
}

impl OpClass {
    /// The `stats` wire label for this class.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Insert => "insert",
            OpClass::Delete => "delete",
            OpClass::Other => "other",
        }
    }

    const ALL: [OpClass; 3] = [OpClass::Insert, OpClass::Delete, OpClass::Other];

    fn index(self) -> usize {
        match self {
            OpClass::Insert => 0,
            OpClass::Delete => 1,
            OpClass::Other => 2,
        }
    }
}

/// A log2-bucketed latency histogram. Recording is lock-free and
/// allocation-free; reading takes a relaxed snapshot (counts recorded
/// concurrently with a read may or may not be included, which is fine for
/// monitoring).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation, in nanoseconds.
    pub fn record(&self, nanos: u64) {
        // bucket = floor(log2(ns)), with 0 ns sharing bucket 0 with 1 ns.
        let bucket = 63 - nanos.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a relaxed snapshot of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]'s buckets.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The latency (in ns) at quantile `q` in `[0, 1]`: the upper edge of
    /// the bucket containing that rank, i.e. an overestimate by at most
    /// 2×. Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // rank ∈ [1, total]: the 1-based index of the target observation.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i is 2^(i+1) − 1 ns.
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        unreachable!("rank <= total");
    }
}

/// Shared counters + histograms for one serving front end.
///
/// All fields are atomics so the structure can sit behind a plain `Arc`
/// and be hammered from every connection without coordination.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    hist: [LatencyHistogram; 3],
    /// Total requests answered (success or error).
    pub requests: AtomicU64,
    /// Insert requests answered successfully.
    pub insert_requests: AtomicU64,
    /// `insert_batch` calls made on the engine for those requests. When
    /// cross-connection coalescing is working this is well below
    /// `insert_requests`.
    pub insert_engine_batches: AtomicU64,
    /// Insert requests that shared their engine batch with at least one
    /// other request (the acceptance metric for coalescing).
    pub coalesced_inserts: AtomicU64,
    /// Delete requests answered successfully.
    pub delete_requests: AtomicU64,
    /// `remove_batch` calls made on the engine for those requests.
    pub delete_engine_batches: AtomicU64,
    /// Delete requests that shared their engine batch with at least one
    /// other request.
    pub coalesced_deletes: AtomicU64,
    /// Connections accepted over the lifetime of the front end.
    pub connections: AtomicU64,
}

impl ServeMetrics {
    /// Records a completed request of class `op` that took `nanos`.
    pub fn record(&self, op: OpClass, nanos: u64) {
        self.hist[op.index()].record(nanos);
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n` (relaxed; helper to keep call sites short).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Appends the `stats` response's `"io"` section: counters plus
    /// per-op `count`/`p50`/`p95`/`p99` (nanoseconds).
    pub fn write_json(&self, out: &mut String) {
        self.write_json_fields(out);
        out.push('}');
    }

    /// Like [`ServeMetrics::write_json`] but leaves the object **open** so
    /// the caller can splice in extra fields (the multi-dataset front end
    /// appends a per-dataset counter array) before closing the brace.
    pub fn write_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"requests\":{},\"connections\":{},\"insert_requests\":{},\
             \"insert_engine_batches\":{},\"coalesced_inserts\":{},\
             \"delete_requests\":{},\"delete_engine_batches\":{},\
             \"coalesced_deletes\":{},\"latency_ns\":{{",
            self.requests.load(Ordering::Relaxed),
            self.connections.load(Ordering::Relaxed),
            self.insert_requests.load(Ordering::Relaxed),
            self.insert_engine_batches.load(Ordering::Relaxed),
            self.coalesced_inserts.load(Ordering::Relaxed),
            self.delete_requests.load(Ordering::Relaxed),
            self.delete_engine_batches.load(Ordering::Relaxed),
            self.coalesced_deletes.load(Ordering::Relaxed),
        );
        for (i, op) in OpClass::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let snap = self.hist[op.index()].snapshot();
            write_json_string(out, op.label());
            let _ = write!(
                out,
                ":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                snap.count(),
                snap.quantile(0.50),
                snap.quantile(0.95),
                snap.quantile(0.99),
            );
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Json;

    #[test]
    fn buckets_are_log2() {
        let h = LatencyHistogram::default();
        h.record(0); // shares bucket 0 with 1 ns
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[1], 2);
        assert_eq!(snap.counts[10], 1);
    }

    #[test]
    fn quantiles_report_bucket_upper_edges() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 127]
        }
        h.record(1_000_000); // bucket 19: [524288, 1048575]
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.50), 127);
        assert_eq!(snap.quantile(0.99), 127);
        assert_eq!(snap.quantile(1.0), (2u64 << 19) - 1);
        // Empty histogram answers 0 everywhere.
        assert_eq!(LatencyHistogram::default().snapshot().quantile(0.5), 0);
    }

    #[test]
    fn stats_section_is_valid_json() {
        let m = ServeMetrics::default();
        m.record(OpClass::Insert, 5_000);
        m.record(OpClass::Other, 100);
        ServeMetrics::add(&m.insert_requests, 1);
        ServeMetrics::add(&m.insert_engine_batches, 1);
        let mut out = String::new();
        m.write_json(&mut out);
        let doc = Json::parse(&out).expect("io section parses");
        assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("insert_requests").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("delete_requests").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("coalesced_deletes").and_then(Json::as_u64), Some(0));
        let lat = doc.get("latency_ns").unwrap();
        assert_eq!(
            lat.get("insert")
                .and_then(|v| v.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            lat.get("insert")
                .and_then(|v| v.get("p50"))
                .and_then(Json::as_u64),
            Some(8191)
        );
    }
}
