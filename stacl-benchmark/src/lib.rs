//! The parts of the benchmark its smoke test shares with the binary.

pub mod json;
pub mod metrics;
