//! The repository benchmark: simulator throughput, profiling overhead and
//! live-scrape latency, driven in-process through the crates' public APIs.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as its last line, one JSON
//! object with the verdict of its output checks and every metric by name
//! and unit. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod checks;
pub mod metrics;
pub mod pacing;
pub mod stats;
pub mod tally;
pub mod workloads;
