//! # pod-bench
//!
//! Benchmark harness for the POD reproduction.
//!
//! * `cargo run --release -p pod-bench --bin figures` regenerates every
//!   table and figure of the paper as CSV (see `src/bin/figures.rs`).
//!
//! The library part hosts [`store`] — the append-only JSONL experiment
//! store the perf gate writes every run into.

pub mod store;

/// Seed used by all perf-gate workloads.
pub const BENCH_SEED: u64 = 42;
