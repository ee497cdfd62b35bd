//! # mithra
//!
//! Coverage assessment and enhancement for categorical datasets — a
//! from-scratch Rust reproduction of *"Assessing and Remedying Coverage for a
//! Given Dataset"* (Asudeh, Jin, Jagadish; ICDE 2019).
//!
//! This façade crate re-exports the workspace layers:
//!
//! * [`data`] — schemas, datasets, CSV I/O, bucketization, and the synthetic
//!   workload generators that stand in for the paper's AirBnB / BlueNile /
//!   COMPAS datasets;
//! * [`index`] — bit-vector kernels, the inverted-index coverage oracle
//!   (Appendix A), and the MUP dominance index (Appendix B);
//! * [`core`] — patterns, the pattern graph, the three MUP-identification
//!   algorithms (PATTERN-BREAKER, PATTERN-COMBINER, DEEPDIVER) with naïve and
//!   APRIORI baselines, and coverage enhancement via greedy hitting set;
//! * [`ml`] — the decision-tree classifier and metrics used by the paper's
//!   coverage-impact experiment (Fig 11);
//! * [`service`] — the long-lived serving layer: an incremental
//!   [`CoverageEngine`](service::CoverageEngine) that maintains the MUP set
//!   under streamed inserts, plus the NDJSON protocol behind `mithra serve`.
//!
//! ## Quickstart
//!
//! ```
//! use mithra::prelude::*;
//!
//! // Example 1 of the paper: binary A1..A3, five tuples, τ = 1.
//! let schema = Schema::binary(3)?;
//! let dataset = Dataset::from_rows(
//!     schema,
//!     &[vec![0, 1, 0], vec![0, 0, 1], vec![0, 0, 0], vec![0, 1, 1], vec![0, 0, 1]],
//! )?;
//! let mups = DeepDiver::default().find_mups(&dataset, Threshold::Count(1))?;
//! assert_eq!(mups.len(), 1);
//! assert_eq!(mups[0].to_string(), "1XX");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use coverage_core as core;
pub use coverage_data as data;
pub use coverage_index as index;
pub use coverage_ml as ml;
pub use coverage_service as service;

/// One-stop imports for typical use.
pub mod prelude {
    pub use coverage_core::{
        enhance::{CoverageEnhancer, EnhancementPlan, GreedyHittingSet, NaiveHittingSet},
        mup::{Apriori, DeepDiver, MupAlgorithm, NaiveMup, PatternBreaker, PatternCombiner},
        pattern::Pattern,
        validation::{ValidationOracle, ValidationRule},
        CoverageReport, Threshold,
    };
    pub use coverage_data::{Attribute, Bucketizer, Dataset, Schema, UniqueCombinations};
    pub use coverage_index::{
        CoverageBackend, CoverageOracle, CoverageProvider, MupDominanceIndex,
    };
    pub use coverage_service::{CoverageEngine, EngineStats};
}
