//! Physical implementations of the temporal operators.
//!
//! Semantics are defined on the denoted temporal relation, so results
//! never depend on the physical order of input events. The one plan walk
//! ([`crate::exec`]) wires these together following a
//! [`crate::plan::LogicalPlan`].
//!
//! There is one layout: every operator reads and writes [`EventBatch`]es.
//! Expressions are index-resolved once per invocation
//! ([`crate::compiled`]) and evaluated by the SIMD kernel suite, join and
//! grouping keys hash in place ([`crate::key`]), and single-consumer
//! inputs are consumed and mutated in place rather than cloned.
//!
//! The walk hands every operator its inputs as *runs* (`group_apply`'s
//! `BatchRuns`: the batch and its run order) — one run per group inside a
//! GroupApply, one run at the top level. The fused steps, the aggregate
//! sweep and union have run-aware kernels ([`fused_batch_runs`],
//! [`aggregate_batch_runs`], [`union_walk`]): one compile and one pass
//! serve every run, and one dense run costs what a whole-batch operator
//! would (a fragment is [`fused_fragment`] itself). The rest — the joins,
//! the set difference, a UDO, SpreadGrid, GroupApply — are functions from
//! whole batches to a batch, called once per run. The tests' reference is
//! a snapshot evaluator outside the library (`tests/common/oracle.rs`).
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

pub(crate) use aggregate::{aggregate_batch_runs, batch_args, Sweep};
pub use anti_semi_join::anti_semi_join;
pub use fused::fused_fragment;
pub(crate) use fused::{fused_batch_runs, fused_select, ErrorOrder, Selection};
pub(crate) use group_apply::{group_apply, BatchRuns, Cut};
pub use hop_udo::hop_udo;
pub use spread_grid::spread_grid;
pub use temporal_join::temporal_join;
pub(crate) use union::union_walk;
