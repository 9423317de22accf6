//! End-to-end and per-layer benchmark of the two paths the paper
//! delivers: the *paper path* (simulate → augment → train → evaluate, in
//! its MS and NMR forms) and the *serving path* (submit → queue → batch →
//! kernels → response).
//!
//! The benchmark drives the library crates only through their public
//! functions. `MsPipeline::run` and `NmrPipeline::run` are monolithic, so
//! [`ms_paper`] and [`nmr_paper`] compose the same steps from the layer
//! calls those functions make, with the same configurations and seeds;
//! the crate's tests prove the composition reproduces them bit for bit.
//!
//! Every workload produces a [`report::Report`]: named metrics with
//! units, output checks, and structured details. `WORKLOADS.md` beside
//! this crate records why each workload exists and what it measured.

#![forbid(unsafe_code)]

pub mod args;
pub mod host;
pub mod ms_paper;
pub mod nmr_paper;
pub mod report;
pub mod roofline;
pub mod serve_mixed;
pub mod stages;
pub mod stats;
pub mod trace;

pub use stages::Stages;
