//! Physical implementations of the temporal operators.
//!
//! Each operator is a pure function from input batches to an output batch;
//! semantics are defined on the denoted temporal relation, so results
//! never depend on the physical order of input events. The batch executor
//! ([`crate::exec`]) wires these together following a
//! [`crate::plan::LogicalPlan`].
//!
//! There is one layout: every operator reads and writes [`EventBatch`]es.
//! Expressions are index-resolved once per invocation
//! ([`crate::compiled`]) and evaluated by the SIMD kernel suite, join and
//! grouping keys hash in place ([`crate::key`]), and single-consumer
//! inputs are consumed and mutated in place rather than cloned. Stateless
//! chains run as fused fragments ([`fused_fragment`]).
//!
//! The operators a GroupApply sub-plan is made of — the fused steps,
//! `aggregate`, `union` — are also written over *runs* (`group_apply`'s
//! `BatchRuns`: the batch and one run-order permutation of its rows): one
//! compile and one pass serve all the groups, and the plain functions are
//! their one-run case. The tests' reference is a snapshot evaluator outside
//! the library (`tests/common/oracle.rs`).
//!
//! [`EventBatch`]: crate::batch::EventBatch

mod aggregate;
mod anti_semi_join;
mod fused;
mod group_apply;
mod hop_udo;
mod pane;
mod side;
mod spread_grid;
mod temporal_join;
mod union;

pub use aggregate::aggregate;
pub(crate) use aggregate::{aggregate_batch_runs, batch_args, Sweep};
pub use anti_semi_join::anti_semi_join;
pub use fused::fused_fragment;
pub(crate) use fused::{fused_batch_runs, fused_select, ErrorOrder, Selection};
pub(crate) use group_apply::{group_apply, BatchRuns, Cut};
pub use hop_udo::hop_udo;
pub use spread_grid::spread_grid;
pub use temporal_join::temporal_join;
pub(crate) use temporal_join::temporal_join_reading;
pub use union::union;
pub(crate) use union::union_walk;
