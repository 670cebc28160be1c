//! # timr-suite
//!
//! Facade crate for the reproduction of *Temporal Analytics on Big Data for
//! Web Advertising* (Chandramouli, Goldstein, Duan — ICDE 2012).
//!
//! Re-exports the workspace crates under one roof so examples and downstream
//! users can depend on a single package:
//!
//! - [`relation`] — shared data model (values, schemas, rows, binary extents, stats);
//! - [`simd`] — the dependency-free portable-SIMD shim behind the fused
//!   kernels (fixed-width lanes over plain arrays, stable Rust only);
//! - [`temporal`] — the single-node temporal DSMS (events, CQ plans,
//!   operators, batch + incremental executors);
//! - [`mapreduce`] — the deterministic map-reduce runtime and in-memory DFS;
//! - [`timr`] — the TiMR framework: plan annotation, cost-based optimization,
//!   fragmentation, M-R compilation, and temporal partitioning;
//! - [`adgen`] — the synthetic advertising-log generator with ground truth;
//! - [`bt`] — the end-to-end behavioral-targeting solution built from
//!   temporal queries.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use adgen;
pub use bt;
pub use mapreduce;
pub use relation;
pub use simd;
pub use temporal;
pub use timr;
