//! # TiMR — Temporal queries on Map-Reduce
//!
//! The paper's primary contribution (§III): a framework that runs temporal
//! continuous queries over massive offline logs by compiling them onto an
//! *unmodified* map-reduce platform with an *unmodified* single-node DSMS
//! embedded inside reducers.
//!
//! The pipeline mirrors Fig 5 of the paper:
//!
//! 1. **Parse query** — users build a [`temporal::LogicalPlan`] with the
//!    fluent query builder (the LINQ analogue).
//! 2. **Annotate plan** — data-parallel semantics are added by placing
//!    logical *exchange* operators on plan edges ([`annotate::Annotation`]),
//!    either by hand (hints) or with the cost-based optimizer
//!    ([`optimizer`], paper §VI / Algorithm 1).
//! 3. **Make fragments** — a top-down traversal cuts the plan at exchange
//!    edges into `{fragment, key}` pairs ([`fragment`]).
//! 4. **Convert to M-R** — each fragment becomes a map-reduce stage through
//!    one builder, which a shared multi-query DAG ([`multi`]) goes through
//!    too, as one fragment with a root per query. The stage's map phase
//!    partitions by `hash(key) mod machines` (§III-C.3), after running the
//!    pushed-down plan prefix, and its reducer embeds the DSMS
//!    ([`compile::DsmsReducer`]); shuffled
//!    batches become events and executor roots become dataset batches at
//!    stage boundaries ([`bridge`] — by value, with no queue in between:
//!    §III-C.2's push/pull queue reconciles an *asynchronous* DSMS, and
//!    this executor has returned before anything is pulled).
//!
//! [`temporal_partition`] implements the paper's second parallelization
//! axis (§III-B): windowed queries with *no* partitionable payload key are
//! split along the time axis into overlapping spans.
//!
//! [`runner::TimrJob`] ties it together: given a plan, an annotation, and a
//! DFS holding the input logs, it compiles, runs the stages on a
//! [`mapreduce::Cluster`], and returns the output dataset plus statistics.

pub mod annotate;
pub mod bridge;
pub mod compile;
pub mod error;
pub mod fragment;
pub(crate) mod mapper;
pub mod multi;
pub mod optimizer;
pub mod runner;
pub mod temporal_partition;

pub use annotate::{Annotation, ExchangeKey};
pub use bridge::{read_output, EventEncoding};
pub use error::{Result, TimrError};
pub use fragment::{Fragment, FragmentInput};
pub use multi::{CompiledMultiJob, MultiTimrJob, MultiTimrOutput};
pub use runner::{TimrJob, TimrOutput};
