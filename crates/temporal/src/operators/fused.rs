//! Fused fragment execution: a maximal stateless chain (Filter / Project /
//! AlterLifetime) runs as **one pass** over an [`EventBatch`].
//!
//! Instead of materializing an intermediate batch after every operator the
//! fragment carries a *selection vector* — `None` means "all rows", a
//! `Vec<u32>` names the surviving row indices in order. A filter only
//! shrinks the selection (no compaction, no copies); a lifetime rewrite
//! mutates `vt`/`ve` in place at the selected indices (a hopping window's
//! drops shrink the selection); a projection evaluates its expressions over
//! the selected rows via the SIMD kernel suite, writing output columns
//! directly at the compacted length. The batch is gathered/compacted **at
//! most once**, at the fragment boundary (or at the first projection, whose
//! output is already dense). GroupApply's columnar path skips that last
//! compaction: it reads the survivors through the selection
//! ([`fused_select`]), in its own run order.
//!
//! Semantics are byte-identical to running the steps as separate row
//! operators: predicate/expression errors surface for the first failing
//! *surviving* row in row-major order (selection indices are mapped back
//! through `sel` before the scalar re-run that recovers the exact error),
//! and a projection whose result has no dense column form falls back by
//! materializing the current selection once and running the remaining steps
//! through the ordinary row operators.

use crate::batch::EventBatch;
use crate::compiled::CompiledExpr;
use crate::error::{Result, TemporalError};
use crate::exec::StreamData;
use crate::expr::Expr;
use crate::operators::alter_lifetime::{alter_lifetime_runs, transform};
use crate::operators::filter::filter_runs;
use crate::operators::group_apply::{Cut, Runs};
use crate::operators::project::project_runs;
use crate::plan::{FusedStep, LifetimeOp};
use crate::stream::EventStream;
use crate::time::Lifetime;
use relation::{Column, ColumnBatch, Field, Schema};
use std::sync::Arc;

/// Run a fused fragment over a columnar batch in a single pass. Returns
/// `Rows` only when a projection had to fall back to the row path.
pub fn fused_fragment_batch(batch: EventBatch, steps: &[FusedStep]) -> Result<StreamData> {
    Ok(match fused_select(batch, steps)? {
        Selected::Columns(Selection { mut batch, sel, .. }) => {
            if let Some(s) = sel {
                batch.compact(&s);
            }
            StreamData::Batch(batch)
        }
        // Mixed runtime types: finish on rows, from the step that could
        // not stay columnar.
        Selected::Rows { batch, step } => {
            StreamData::Rows(fused_fragment_rows(batch.into_stream(), &steps[step..])?)
        }
    })
}

/// A fragment's columnar result before its last compaction.
pub(crate) struct Selection {
    pub(crate) batch: EventBatch,
    /// The rows of `batch` that survive, in order (`None`: all of them).
    pub(crate) sel: Option<Vec<u32>>,
    /// The input row each row of `batch` came from (`None`: the same
    /// index) — a projection compacts the batch mid-fragment.
    pub(crate) origin: Option<Vec<u32>>,
}

/// What [`fused_select`] ends with.
pub(crate) enum Selected {
    Columns(Selection),
    /// A projection had no dense column form: `batch` is its input, and
    /// the steps from `step` on are left to the row path.
    Rows {
        batch: EventBatch,
        step: usize,
    },
}

/// The fused pass proper: every step over `batch`, keeping the last
/// selection unapplied and each surviving row traceable to its input row.
pub(crate) fn fused_select(mut batch: EventBatch, steps: &[FusedStep]) -> Result<Selected> {
    let mut sel: Option<Vec<u32>> = None;
    let mut origin: Option<Vec<u32>> = None;
    for (k, step) in steps.iter().enumerate() {
        match step {
            FusedStep::Filter { predicate } => {
                let compiled = CompiledExpr::compile(predicate, batch.schema());
                let keep = compiled.eval_predicate_batch_sel(batch.payload(), sel.as_deref())?;
                // Preallocated to the candidate count: a growth realloc mid
                // scan would copy the partial index vector for nothing.
                let mut next = Vec::with_capacity(keep.len());
                match sel {
                    // Dense → first selection: indices of the kept rows.
                    None => {
                        next.extend(
                            keep.iter()
                                .enumerate()
                                .filter_map(|(i, &k)| k.then_some(i as u32)),
                        );
                    }
                    // Shrink the existing selection.
                    Some(s) => {
                        next.extend(s.iter().zip(&keep).filter_map(|(&i, &k)| k.then_some(i)));
                    }
                }
                sel = Some(next);
            }
            FusedStep::Project { exprs } => {
                // An upstream selection is materialized here — the
                // fragment's single compaction (in place on storage it owns,
                // a gather of the survivors on storage it shares), just
                // moved forward to where the projection wants dense inputs.
                // The now-dense projection *moves* pass-through columns and
                // the lifetime vectors instead of gathering every leaf
                // occurrence separately.
                if let Some(s) = sel.take() {
                    batch.compact(&s);
                    origin = Some(match origin {
                        None => s,
                        Some(o) => s.iter().map(|&i| o[i as usize]).collect(),
                    });
                }
                match project_dense_owned(batch, exprs)? {
                    DenseProject::Done(out) => batch = out,
                    DenseProject::Fallback(orig) => {
                        return Ok(Selected::Rows {
                            batch: orig,
                            step: k,
                        })
                    }
                }
            }
            FusedStep::AlterLifetime { op } => alter_sel(&mut batch, &mut sel, op),
        }
    }
    Ok(Selected::Columns(Selection { batch, sel, origin }))
}

/// Run a fused fragment over a row stream: the steps execute as the
/// in-place row operators, in order. This is the path for data that
/// arrives as rows (streams a caller already holds, ill-typed payloads)
/// and the fallback a batch fragment finishes on.
pub fn fused_fragment_rows(stream: EventStream, steps: &[FusedStep]) -> Result<EventStream> {
    Ok(fused_fragment_runs(Runs::one(stream), steps, &mut Cut::none())?.stream)
}

/// [`fused_fragment_rows`] over every run of a GroupApply at once: each
/// step is compiled once and passes once over the whole stream, compacting
/// the run bounds with its survivors.
pub(crate) fn fused_fragment_runs(
    mut runs: Runs,
    steps: &[FusedStep],
    cut: &mut Cut,
) -> Result<Runs> {
    for step in steps {
        runs = match step {
            FusedStep::Filter { predicate } => filter_runs(runs, predicate, cut)?,
            FusedStep::Project { exprs } => project_runs(runs, exprs, cut)?,
            FusedStep::AlterLifetime { op } => alter_lifetime_runs(runs, op)?,
        };
    }
    Ok(runs)
}

/// Outcome of [`project_dense_owned`]: the projected batch, or the
/// untouched input handed back for the row fallback.
enum DenseProject {
    Done(EventBatch),
    Fallback(EventBatch),
}

/// Dense projection over a batch taken by value. Pass-through `col(name)`
/// expressions *move* their input column when the fragment holds the only
/// handle to the payload (it would drop that storage right after), and the
/// lifetime vectors are forwarded wholesale — so nothing is cloned for the
/// shapes a projection merely forwards. Computed expressions run through the SIMD kernel suite;
/// error order is preserved because a pass-through over an existing
/// column can never error.
fn project_dense_owned(batch: EventBatch, exprs: &[(String, Expr)]) -> Result<DenseProject> {
    let in_schema = batch.schema();
    let out_schema = Schema::new(
        exprs
            .iter()
            .map(|(name, e)| Ok(Field::new(name.clone(), e.infer_type(in_schema)?)))
            .collect::<Result<Vec<_>>>()?,
    );
    let compiled: Vec<CompiledExpr> = exprs
        .iter()
        .map(|(_, e)| CompiledExpr::compile(e, in_schema))
        .collect();
    let n = batch.len();
    let evals: Vec<_> = compiled
        .iter()
        .enumerate()
        .filter(|(_, c)| c.as_col().is_none())
        .map(|(j, c)| (j, c.eval_batch_raw_sel(batch.payload(), None)))
        .collect();
    // Row-major error order across all expressions, exactly as the row
    // projection: the smallest (row, expr) pair fails first.
    let first_bad = evals
        .iter()
        .filter_map(|(j, ev)| ev.first_err(n).map(|i| (i, *j)))
        .min();
    if let Some((i, j)) = first_bad {
        return Err(match compiled[j].eval(&batch.payload_row(i)) {
            Err(e) => e,
            Ok(_) => TemporalError::Eval("fused/scalar divergence".into()),
        });
    }
    let mut computed: Vec<Option<Column>> = (0..exprs.len()).map(|_| None).collect();
    for (j, ev) in evals {
        match ev.into_column(n) {
            Some(col) => computed[j] = Some(col),
            None => return Ok(DenseProject::Fallback(batch)),
        }
    }
    // The lifetimes are handed on as they are, shared or not. A uniquely-owned
    // payload gives its columns away; one another consumer still holds lends
    // them, and only the columns this projection forwards are copied.
    let (vt, ve, payload) = batch.into_shared_parts();
    let mut in_cols: Vec<Option<Column>> = match Arc::try_unwrap(payload) {
        Ok(owned) => owned.into_parts().1.into_iter().map(Some).collect(),
        Err(shared) => (shared.columns().iter().enumerate())
            .map(|(i, col)| {
                let forwarded = compiled.iter().any(|c| c.as_col() == Some(i));
                forwarded.then(|| col.clone())
            })
            .collect(),
    };
    let mut out_cols: Vec<Column> = Vec::with_capacity(exprs.len());
    for (j, c) in compiled.iter().enumerate() {
        let col = match c.as_col() {
            // Move on first use; a duplicated pass-through clones the
            // column an earlier expression already placed.
            Some(i) => match in_cols[i].take() {
                Some(col) => col,
                None => out_cols
                    .iter()
                    .zip(&compiled)
                    .find(|(_, cc)| cc.as_col() == Some(i))
                    .expect("column moved by an earlier pass-through")
                    .0
                    .clone(),
            },
            None => computed[j].take().expect("computed expression evaluated"),
        };
        out_cols.push(col);
    }
    Ok(DenseProject::Done(EventBatch::from_shared(
        vt,
        ve,
        Arc::new(ColumnBatch::new(out_schema, out_cols, n)),
    )))
}

/// Lifetime rewrite at the selected indices, in place — no payload traffic
/// at all. Only a hopping window can drop events; drops shrink the
/// selection rather than compacting the batch.
fn alter_sel(batch: &mut EventBatch, sel: &mut Option<Vec<u32>>, op: &LifetimeOp) {
    let (vt, ve) = batch.times_mut();
    let can_drop = matches!(op, LifetimeOp::Hop { .. });
    match sel.take() {
        // Dense, no drops possible: plain in-place sweep, stay dense.
        None if !can_drop => {
            for i in 0..vt.len() {
                let lt = transform(Lifetime::new(vt[i], ve[i]), op).expect("only hops drop");
                vt[i] = lt.start;
                ve[i] = lt.end;
            }
        }
        cur => {
            let total = vt.len();
            let upper = cur.as_ref().map_or(total, Vec::len);
            let mut survivors = Vec::with_capacity(upper);
            let mut apply = |i: u32| {
                let ii = i as usize;
                if let Some(lt) = transform(Lifetime::new(vt[ii], ve[ii]), op) {
                    vt[ii] = lt.start;
                    ve[ii] = lt.end;
                    survivors.push(i);
                }
            };
            match &cur {
                None => (0..total as u32).for_each(&mut apply),
                Some(s) => s.iter().copied().for_each(&mut apply),
            }
            // A dense batch with no drops stays dense.
            *sel = if cur.is_none() && survivors.len() == total {
                None
            } else {
                Some(survivors)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::expr::{col, lit};
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("Id", ColumnType::Int),
            Field::new("V", ColumnType::Long),
        ])
    }

    fn batch() -> EventBatch {
        let s = EventStream::new(
            schema(),
            vec![
                Event::point(10, row![1i32, 100i64]),
                Event::point(20, row![2i32, 200i64]),
                Event::point(30, row![1i32, 300i64]),
                Event::point(40, row![3i32, 400i64]),
            ],
        );
        EventBatch::from_stream(&s).unwrap()
    }

    fn steps() -> Vec<FusedStep> {
        vec![
            FusedStep::Filter {
                predicate: col("Id").eq(lit(1)),
            },
            FusedStep::Project {
                exprs: vec![("V2".into(), col("V").add(lit(1i64)))],
            },
            FusedStep::AlterLifetime {
                op: LifetimeOp::Window(5),
            },
        ]
    }

    #[test]
    fn fragment_matches_sequential_operators() {
        let fused = fused_fragment_batch(batch(), &steps())
            .unwrap()
            .into_stream();
        let sequential = fused_fragment_rows(batch().into_stream(), &steps()).unwrap();
        assert_eq!(fused, sequential);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused.events()[0].payload, row![101i64]);
        assert_eq!(fused.events()[0].lifetime, Lifetime::new(10, 15));
    }

    #[test]
    fn filter_chain_shrinks_selection_without_compacting() {
        // Two filters then a shift: one compaction at the fragment end.
        let steps = vec![
            FusedStep::Filter {
                predicate: col("Id").le(lit(2)),
            },
            FusedStep::Filter {
                predicate: col("V").gt(lit(100i64)),
            },
            FusedStep::AlterLifetime {
                op: LifetimeOp::Shift(1),
            },
        ];
        let fused = fused_fragment_batch(batch(), &steps).unwrap().into_stream();
        let sequential = fused_fragment_rows(batch().into_stream(), &steps).unwrap();
        assert_eq!(fused, sequential);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused.events()[0].lifetime, Lifetime::point(21));
        assert_eq!(fused.events()[1].lifetime, Lifetime::point(31));
    }

    #[test]
    fn hop_drops_shrink_selection() {
        // hop=100, width=5: only the event at t=100's grid survives... none
        // of 10/20/30/40 reach a report point, so everything drops.
        let steps = vec![FusedStep::AlterLifetime {
            op: LifetimeOp::Hop { hop: 100, width: 5 },
        }];
        let fused = fused_fragment_batch(batch(), &steps).unwrap().into_stream();
        let sequential = fused_fragment_rows(batch().into_stream(), &steps).unwrap();
        assert_eq!(fused, sequential);
        assert!(fused.is_empty());
    }

    #[test]
    fn errors_surface_for_first_surviving_row() {
        // Division by a column that is zero only in surviving rows would
        // change which row errors first if the selection were ignored.
        let s = EventStream::new(
            schema(),
            vec![
                Event::point(1, row![9i32, 0i64]), // filtered out
                Event::point(2, row![1i32, 7i64]),
            ],
        );
        let b = EventBatch::from_stream(&s).unwrap();
        let steps = vec![
            FusedStep::Filter {
                predicate: col("Id").eq(lit(1)),
            },
            FusedStep::Project {
                exprs: vec![("Bad".into(), col("Nope"))],
            },
        ];
        let fused_err = fused_fragment_batch(b, &steps).unwrap_err();
        let rows_err = fused_fragment_rows(s, &steps).unwrap_err();
        assert_eq!(fused_err.to_string(), rows_err.to_string());
    }
}
