//! A single-node temporal data stream management system (DSMS).
//!
//! This crate is the StreamInsight-style substrate of the TiMR reproduction
//! (paper §II-A). It implements the CEDR temporal algebra the paper's
//! framework relies on:
//!
//! - **Events** carry a payload [`relation::Row`] and a *lifetime*
//!   `[LE, RE)` — the validity interval over which the event contributes to
//!   output. Point events have `RE = LE + 1` (δ = one tick).
//! - A **stream** is a bag of events, viewed as a changing temporal relation.
//!   Operator semantics are defined on that relation and are therefore
//!   independent of physical processing order ("application time", paper
//!   §III-C.1) — the property that lets TiMR run the *same* query over
//!   offline files, restarted reducers, and live feeds with identical
//!   results.
//! - **Operators**: Filter, Project, AlterLifetime (sliding and hopping
//!   windows, shifts), snapshot Aggregate (Count/Sum/Min/Max/Avg),
//!   GroupApply, Union, Multicast (DAG fan-out), TemporalJoin, AntiSemiJoin,
//!   and user-defined windowed operators (UDOs).
//! - **CQ plans** are DAGs built with a fluent, LINQ-like [`plan::Query`]
//!   builder, and executed by the batch [`exec`] engine. The [`rt`] module
//!   provides an incremental, push-based executor for the same plans
//!   (paper §VII real-time readiness); both produce identical normalized
//!   output.
//!
//! Output canonicalization ([`stream::EventStream::normalize`]) — stable
//! sorting plus coalescing of adjacent equal-payload events — gives every
//! query a unique normal form, which is what the repeatability tests and
//! TiMR's temporal-partitioning correctness proof compare.

pub mod agg;
pub mod batch;
mod compiled;
pub mod error;
pub mod event;
pub mod exec;
pub mod expr;
pub mod key;
pub mod operators;
pub mod plan;
pub mod rt;
pub mod stream;
pub mod streamsql;
pub mod time;
pub mod udo;

pub use batch::EventBatch;
pub use error::{Result, TemporalError};
pub use event::Event;
pub use expr::{col, lit, Expr};
pub use plan::{LogicalPlan, NodeId, Query, StreamHandle};
pub use stream::EventStream;
pub use time::{Duration, Lifetime, Time, DAY, HOUR, MIN, SEC, TICK};
