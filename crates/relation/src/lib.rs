//! Shared relational data model for the TiMR reproduction.
//!
//! Every layer of the system — the temporal DSMS, the map-reduce runtime,
//! TiMR's compiler, and the behavioral-targeting application — exchanges data
//! as [`Row`]s of dynamically-typed [`Value`]s described by a [`Schema`].
//! A dynamic model (rather than generic, statically-typed operators) is what
//! lets TiMR's optimizer and fragmenter manipulate plans by column name and
//! ship intermediate rows between map-reduce stages, mirroring how
//! SCOPE/StreamInsight interoperate in the paper.
//!
//! The crate also provides:
//! - dictionary-coded string columns ([`dict`]): `u32` codes into a shared
//!   dictionary that caches each string's key hash;
//! - a framed binary columnar extent codec ([`extent`]) — per-column typed
//!   buffers, validity bitmaps, and FxHash integrity frames — which is the
//!   one representation at every stage boundary and on disk;
//! - order-preserving `u64` words per cell ([`order`]), the one definition
//!   the engine's key order and the reduce sink's canonical order compare;
//! - dataset [`stats`] (cardinalities, distinct counts) consumed by the
//!   cost-based plan-annotation optimizer (paper §VI);
//! - stable 64-bit [`hash`]ing used for partitioning keys, so partition
//!   assignment is reproducible across runs and machines (a prerequisite for
//!   the paper's repeatability-under-failure argument, §III-C).

pub mod column;
pub mod dict;
pub mod error;
pub mod extent;
pub mod hash;
pub mod order;
pub mod row;
pub mod schema;
pub mod stats;
pub mod value;

pub use column::{compact_indices, Column, ColumnBatch, ColumnData, Validity};
pub use dict::{Dictionary, StrCodes};
pub use error::{RelationError, Result};
pub use row::Row;
pub use schema::{ColumnType, Field, Schema};
pub use stats::{ColumnStats, DatasetStats};
pub use value::Value;
