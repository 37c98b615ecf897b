//! # regmutex-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`), shared report-formatting helpers, and the parallel
//! experiment engine ([`runner`]) all simulation binaries submit their
//! `(kernel × config × technique)` jobs to. Each binary prints the same
//! rows/series the paper's artifact reports, regenerated on the Rust
//! simulator substrate; `--jobs N` controls the worker count without
//! changing a byte of output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod report;
pub mod runner;
pub mod source;

pub use cache::{CachedResult, DurableTier, ResultCache, DEFAULT_CACHE_BUDGET};
pub use chaos::{CampaignReport, CampaignSpec, ChaosRun, Outcome};
pub use report::{fmt_pct, GeoMean, RowArityError, Table};
pub use runner::{error_table, JobSpec, Runner};
pub use source::{Fig07Source, JobExecutor, JobSource, MatrixJob};
