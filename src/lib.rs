//! # divexplorer-suite
//!
//! Umbrella crate for the Rust reproduction of *"Looking for Trouble:
//! Analyzing Classifier Behavior via Pattern Divergence"* (Pastor, de
//! Alfaro, Baralis — SIGMOD 2021).
//!
//! Re-exports the public APIs of every workspace crate and hosts the
//! cross-crate integration tests (`tests/`) and runnable examples
//! (`examples/`). See the individual crates for the full documentation:
//!
//! - [`divexplorer`] — the paper's contribution: divergence, Shapley
//!   values, global divergence, corrective items, pruning, lattices;
//! - [`fpm`] — frequent pattern mining (FP-growth, Eclat, a class-mask
//!   popcount engine and its multi-threaded form) with fused payload
//!   aggregation;
//! - [`models`] — decision tree, random forest, logistic regression, MLP;
//! - [`datasets`] — synthetic stand-ins for the paper's six datasets;
//! - [`slicefinder`] — the Slice Finder baseline;
//! - [`explain`] — simplified tabular LIME.

pub use datasets;
pub use divexplorer;
pub use explain;
pub use fpm;
pub use models;
pub use slicefinder;
