//! # coverage-index
//!
//! Bit-parallel index structures behind the *mithra* coverage library:
//!
//! * [`BitVec`] — packed bit-vectors with word-parallel AND/OR and
//!   weighted popcounts;
//! * [`CoverageProvider`] / [`CoverageBackend`] — the probe-and-mutate
//!   surface the algorithms and the serving layer are generic over;
//! * [`CoverageOracle`] — the inverted-index coverage oracle of Appendix A
//!   (`cov(P)` as an AND over per-(attribute, value) vectors followed by a
//!   dot product with the multiplicity vector) — the one provider;
//! * [`LatticeBudget`] — when a [`CoverageOracle`] built through
//!   [`CoverageBackend::build`] also materializes every pattern's count, so
//!   its provider probes are one array read, and when one built by
//!   [`CoverageOracle::for_threshold`] holds one bit per pattern instead,
//!   telling whether it is covered at the walk's τ;
//! * [`MupDominanceIndex`] — the growable dominance index of Appendix B used
//!   by DEEPDIVER to prune the descendants of discovered MUPs;
//! * [`Descent`] — the probe session of a depth-first Rule-1 walk, which the
//!   dense oracle answers from the parent's match vector.
//!
//! The low-level pattern contract throughout is a `&[u8]` of value codes
//! with [`X`] (= `0xFF`) marking non-deterministic elements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod dominance;
mod kernels;
mod lattice;
mod oracle;
mod provider;

pub use bitvec::{intersection_weighted_sum, BitVec, SparseWords};
pub use dominance::MupDominanceIndex;
pub use kernels::kernel_features;
pub use lattice::{LatticeBudget, LATTICE_CELL_BUDGET};
pub use oracle::{CoverageOracle, X};
pub use provider::{BackendMemory, CoverageBackend, CoverageProvider, Descent};
