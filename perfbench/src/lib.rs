//! A steady, single-threaded benchmark of the reproduction.
//!
//! One command times one workload for a fixed number of seconds, checks
//! the library's outputs, and prints every metric by name with its unit.
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

#![forbid(unsafe_code)]

pub mod ledger;
pub mod metrics;
pub mod paper;
pub mod workloads;
