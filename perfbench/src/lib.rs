//! Host wall-clock benchmark of the RedFuser serving stack.
//!
//! `perfbench` runs one of three workloads against the public API of
//! `rf-runtime`, `rf-codegen`, `rf-fusion`, `rf-tile`, `rf-graph` and
//! `rf-kernels`, checks every output against the unfused oracle, and prints
//! one JSON line of metrics. `--trace 0` measures end-to-end metrics with
//! the engine's tracing off; `--trace 1` measures per-layer metrics from a
//! separate traced run and a single-threaded replay of the same inputs.
//! `compare` reads two result sets and gives a verdict per metric.

pub mod compare;
pub mod jobs;
pub mod loadgen;
pub mod meta;
pub mod replay;
pub mod run;
pub mod stats;
