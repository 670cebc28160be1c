//! Physical implementations of the temporal operators.
//!
//! Each operator is a pure function from input streams to an output
//! stream; semantics are defined on the denoted temporal relation, so
//! results never depend on the physical order of input events. The batch
//! executor ([`crate::exec`]) wires these together following a
//! [`crate::plan::LogicalPlan`].
//!
//! Expressions are index-resolved once per invocation
//! ([`crate::compiled`]), join and grouping keys hash in place
//! ([`crate::key`]), and single-consumer inputs are consumed and mutated in
//! place rather than cloned. Stateless chains run as fused fragments
//! ([`fused_fragment_batch`] on columnar input, [`fused_fragment_rows`] —
//! the row `filter`/`project`/`alter_lifetime` below — on row input). The
//! binary operators — [`temporal_join`], [`anti_semi_join`], [`union`] —
//! have one form each over [`crate::exec::StreamData`]: they read an input
//! in whichever layout it arrives (`side`) and build their output once —
//! the join always as columns, the other two in their inputs' layout. The
//! naive clone-based forms in [`interpreted`] are the reference oracle
//! behind [`crate::exec::execute_reference`]; no production path calls
//! them, and both produce byte-identical outputs.
//!
//! The row operators that GroupApply sub-plans are made of — the fused
//! steps, `aggregate`, `union` — are written over *runs* (`group_apply`'s
//! `Runs`: one stream holding every group back to back): one compile and
//! one pass serve all the groups, and the plain functions below are their
//! one-run case. A GroupApply over a batch whose sub-plan is per-event steps
//! ending in one Aggregate needs no row runs: the fused batch kernel and the
//! columnar aggregate run over one run-order permutation of the batch.

mod aggregate;
mod alter_lifetime;
mod anti_semi_join;
mod filter;
mod fused;
mod group_apply;
mod hop_udo;
pub mod interpreted;
mod pane;
mod project;
mod side;
mod spread_grid;
mod temporal_join;
mod union;

pub use aggregate::{aggregate, aggregate_batch};
pub(crate) use aggregate::{aggregate_runs, Sweep};
pub use alter_lifetime::alter_lifetime;
pub use anti_semi_join::anti_semi_join;
pub use filter::filter;
pub(crate) use fused::fused_fragment_runs;
pub use fused::{fused_fragment_batch, fused_fragment_rows};
pub(crate) use group_apply::{group_apply, Cut, Runs};
pub use hop_udo::hop_udo;
pub use project::project;
pub use spread_grid::spread_grid;
pub use temporal_join::temporal_join;
pub use union::union;
pub(crate) use union::union_runs;
