//! The repository's benchmark. README.md says what is measured and why;
//! `BENCHMARK.json` at the repository root is the contract.

pub mod clock;
pub mod ladder;
pub mod layers;
pub mod manifest;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
