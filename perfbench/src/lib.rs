//! `wimesh-perfbench`: the repository benchmark.
//!
//! One binary runs one workload per process, through the public API of
//! the wimesh crates, for a fixed wall-clock budget. It checks every
//! output against computations made here, apart from the code under
//! test, and prints one JSON line of end-to-end metrics (untraced run)
//! or per-layer metrics (traced run). See `README.md` for the workloads,
//! the metrics and how each per-layer number maps to an end-to-end one.

#![forbid(unsafe_code)]

pub mod checks;
pub mod cli;
pub mod collect;
pub mod journal_io;
pub mod report;
pub mod stats;
pub mod workloads;
