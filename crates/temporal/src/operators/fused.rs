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
//! output is already dense). A GroupApply walk skips that last compaction
//! ([`fused_batch_runs`]): its run permutation drops the rows that did not
//! survive, and the next kernel reads the rest through it.
//!
//! Every Filter and Project expression is compiled — type-checked, with
//! [`Expr::infer_type`]'s error when it has none — before any row is read,
//! so an ill-typed step is refused over any batch, an empty one included.
//! After that only a lifetime rewrite can fail: an endpoint moved past the
//! range of `Time`. A rewrite that fails hands back every failing row with
//! its error. At the top level the first failing *surviving* row is the
//! error. Under a walk ([`ErrorOrder`]) the failing row lowest in (run,
//! position) order is: its run is cut ([`Cut`]), the selection keeps the
//! lower runs only, and the step runs again over them — so the lowest
//! failing run wins, as a group-at-a-time evaluation has it. No step
//! mutates anything it would need again before it knows it succeeds.
//!
//! [`Expr::infer_type`]: crate::expr::Expr::infer_type

use crate::batch::EventBatch;
use crate::compiled::CompiledExpr;
use crate::error::{Result, TemporalError};
use crate::operators::group_apply::{row_order, BatchRuns, Cut};
use crate::plan::{lifetime_desc, FusedStep, LifetimeOp};
use crate::time::{checked_ceil_to_grid, Lifetime};
use relation::{Column, ColumnBatch, Field, Schema};
use std::sync::Arc;

/// The lifetime transformation for one event; `Ok(None)` drops the event.
/// An endpoint the operator would move past the range of `Time` is a
/// [`TemporalError::TimeOverflow`], never a wrapped time.
#[inline]
pub(crate) fn transform(lt: Lifetime, op: &LifetimeOp) -> Result<Option<Lifetime>> {
    let overflow = || {
        TemporalError::TimeOverflow(format!(
            "{} moves [{}, {}) past the range of time",
            lifetime_desc(op),
            lt.start,
            lt.end
        ))
    };
    let checked = |t: Option<i64>| t.ok_or_else(overflow);
    Ok(Some(match op {
        // Sliding window: the event influences output for `w` ticks after
        // its timestamp.
        LifetimeOp::Window(w) => Lifetime::new(lt.start, checked(lt.start.checked_add(*w))?),
        // Hopping window: quantize so snapshots only change at grid points.
        // An event at `t` must be active at exactly the grid instants `T`
        // with `T - width < t <= T`; the smallest is `ceil(t / hop) * hop`
        // and the end is the first grid point at or after `t + width`.
        LifetimeOp::Hop { hop, width } => {
            let start = checked(checked_ceil_to_grid(lt.start, *hop))?;
            let reach = checked(lt.start.checked_add(*width))?;
            let end = checked(checked_ceil_to_grid(reach, *hop))?;
            if start >= end {
                // Can only happen for width < hop remainders; the event
                // falls between report points and is dropped.
                return Ok(None);
            }
            Lifetime::new(start, end)
        }
        LifetimeOp::Shift(d) => Lifetime::new(
            checked(lt.start.checked_add(*d))?,
            checked(lt.end.checked_add(*d))?,
        ),
        LifetimeOp::ExtendBack(d) => Lifetime::new(checked(lt.start.checked_sub(*d))?, lt.end),
        LifetimeOp::ToPoint => Lifetime::point(lt.start),
    }))
}

/// Run a fused fragment over a batch in a single pass.
pub fn fused_fragment(batch: EventBatch, steps: &[FusedStep]) -> Result<EventBatch> {
    let Selection { mut batch, sel, .. } = fused_select(batch, steps, None, None)?;
    if let Some(s) = sel {
        batch.compact(&s);
    }
    Ok(batch)
}

/// A fragment's result before its last compaction.
pub(crate) struct Selection {
    pub(crate) batch: EventBatch,
    /// The rows of `batch` that survive, in order (`None`: all of them).
    pub(crate) sel: Option<Vec<u32>>,
    /// The input row each row of `batch` came from (`None`: the same
    /// index) — a projection compacts the batch mid-fragment.
    pub(crate) origin: Option<Vec<u32>>,
}

/// How a fragment inside a walk orders its errors: each input row's
/// `(run, position)` — built only once a step fails — and the walk's cut.
pub(crate) struct ErrorOrder<'a> {
    rows: &'a dyn Fn() -> Vec<(u32, u32)>,
    built: Option<Vec<(u32, u32)>>,
    cut: &'a mut Cut,
}

impl<'a> ErrorOrder<'a> {
    pub(crate) fn new(rows: &'a dyn Fn() -> Vec<(u32, u32)>, cut: &'a mut Cut) -> Self {
        ErrorOrder {
            rows,
            built: None,
            cut,
        }
    }

    fn rows(&mut self) -> &[(u32, u32)] {
        self.built.get_or_insert_with(|| (self.rows)())
    }
}

/// Failing rows of a batch, ascending, each with its error.
type RowErrors = Vec<(u32, Arc<TemporalError>)>;

/// A fused step resolved against the schema it reads.
enum Step<'s> {
    Filter(CompiledExpr),
    /// The output schema and one compiled expression per column.
    Project(Schema, Vec<CompiledExpr>),
    AlterLifetime(&'s LifetimeOp),
}

/// Compile `steps` over input `schema`, each against the schema the steps
/// before it leave: an expression with no type, or a filter predicate that
/// is not boolean, is the error.
fn compile_steps<'s>(steps: &'s [FusedStep], schema: &Schema) -> Result<Vec<Step<'s>>> {
    let mut schema = schema.clone();
    (steps.iter())
        .map(|step| {
            Ok(match step {
                FusedStep::Filter { predicate } => Step::Filter(CompiledExpr::predicate(
                    predicate,
                    &schema,
                    "filter predicate",
                )?),
                FusedStep::Project { exprs } => {
                    let compiled = (exprs.iter())
                        .map(|(_, e)| CompiledExpr::compile(e, &schema))
                        .collect::<Result<Vec<_>>>()?;
                    let fields = (exprs.iter().zip(&compiled))
                        .map(|((name, _), c)| Field::new(name.clone(), c.ty()));
                    schema = Schema::new(fields.collect());
                    Step::Project(schema.clone(), compiled)
                }
                FusedStep::AlterLifetime { op } => Step::AlterLifetime(op),
            })
        })
        .collect()
}

/// The fused pass proper: every step over the rows of `batch` that `sel`
/// names (all of them when `None`), keeping the last selection unapplied
/// and each surviving row traceable to its input row. With an `order`, a
/// step that fails cuts the lowest failing run and goes on over the runs
/// below it (see the module docs).
pub(crate) fn fused_select(
    mut batch: EventBatch,
    steps: &[FusedStep],
    mut sel: Option<Vec<u32>>,
    mut order: Option<ErrorOrder>,
) -> Result<Selection> {
    let steps = compile_steps(steps, batch.schema())?;
    let mut origin: Option<Vec<u32>> = None;
    for step in &steps {
        loop {
            let checked = order.is_some();
            let failed = match run_step(batch, &mut sel, &mut origin, step, checked) {
                Ok(out) => {
                    batch = out;
                    break;
                }
                Err((back, failed)) => {
                    batch = back;
                    failed
                }
            };
            let mut failed = failed.into_iter();
            let Some(order) = order.as_mut() else {
                return Err(Arc::unwrap_or_clone(
                    failed.next().expect("a failing step names a row").1,
                ));
            };
            // The failing event lowest in run order.
            let rows = order.rows();
            let at = |c: u32| rows[origin.as_ref().map_or(c, |o| o[c as usize]) as usize];
            let ((run, _), err) = (failed.map(|(c, err)| (at(c), err)))
                .min_by_key(|&(key, _)| key)
                .expect("a failing step names a row");
            order.cut.fail(run as usize, Arc::unwrap_or_clone(err))?;
            // The runs below the cut, which the step passes over again.
            let limit = order.cut.limit as u32;
            let rows = order.rows();
            let input_run = |c: u32| rows[origin.as_ref().map_or(c, |o| o[c as usize]) as usize].0;
            sel = Some(match &sel {
                None => (0..batch.len() as u32)
                    .filter(|&c| input_run(c) < limit)
                    .collect(),
                Some(s) => s
                    .iter()
                    .copied()
                    .filter(|&c| input_run(c) < limit)
                    .collect(),
            });
        }
    }
    Ok(Selection { batch, sel, origin })
}

/// One step over the selection. Only a lifetime rewrite fails, and then
/// the batch comes back as the step found it.
fn run_step(
    mut batch: EventBatch,
    sel: &mut Option<Vec<u32>>,
    origin: &mut Option<Vec<u32>>,
    step: &Step,
    checked: bool,
) -> std::result::Result<EventBatch, (EventBatch, RowErrors)> {
    match step {
        Step::Filter(predicate) => {
            let keep = predicate.eval_predicate_batch_sel(batch.payload(), sel.as_deref());
            // Preallocated to the candidate count: a growth realloc mid
            // scan would copy the partial index vector for nothing.
            let mut next = Vec::with_capacity(keep.len());
            match sel {
                // Dense → first selection: indices of the kept rows.
                None => next.extend(
                    keep.iter()
                        .enumerate()
                        .filter_map(|(i, &k)| k.then_some(i as u32)),
                ),
                // Shrink the existing selection.
                Some(s) => next.extend(s.iter().zip(&keep).filter_map(|(&i, &k)| k.then_some(i))),
            }
            *sel = Some(next);
            Ok(batch)
        }
        Step::Project(schema, exprs) => {
            // An upstream selection is materialized here — the fragment's
            // single compaction (in place on storage it owns, a gather of
            // the survivors on storage it shares), just moved forward to
            // where the projection wants dense inputs. The now-dense
            // projection *moves* pass-through columns and the lifetime
            // vectors instead of gathering every leaf occurrence separately.
            if let Some(s) = sel.take() {
                batch.compact(&s);
                *origin = Some(match origin.take() {
                    None => s,
                    Some(o) => s.iter().map(|&i| o[i as usize]).collect(),
                });
            }
            let slots = project_columns(&batch, exprs);
            Ok(project_dense_owned(batch, schema.clone(), slots))
        }
        Step::AlterLifetime(op) => match alter_sel(&mut batch, sel, op, checked) {
            Ok(()) => Ok(batch),
            Err(failed) => Err((batch, failed)),
        },
    }
}

/// A fragment over batch runs. The steps are per event, so they run over
/// the batch's live rows in input order, as [`fused_fragment`] runs them; a
/// failing step cuts the lowest failing run in `cut`. Then the permutation
/// drops the rows that did not survive — read back through `origin` when a
/// projection compacted the batch — and the bounds shrink with it. Nothing
/// is gathered but the live rows a projection reads.
///
/// One dense run (a top-level value) is [`fused_fragment`] itself: storage
/// order is run order there, so the first failing row is the error with no
/// checked pass, and the survivors are compacted once.
pub(crate) fn fused_batch_runs(
    runs: BatchRuns,
    steps: &[FusedStep],
    cut: &mut Cut,
) -> Result<BatchRuns> {
    const DROPPED: u32 = u32::MAX;
    if runs.len() == 1 && runs.perm.is_none() {
        return Ok(BatchRuns::one(fused_fragment(runs.batch, steps)?));
    }
    let live = runs.live_rows();
    let (batch, mut perm, mut bounds) = runs.into_perm();
    let rows = batch.len();
    let order = || row_order(&perm, &bounds, rows);
    let runs_before = cut.limit;
    let Selection { batch, sel, origin } =
        fused_select(batch, steps, live, Some(ErrorOrder::new(&order, cut)))?;
    if cut.limit < runs_before && cut.limit < bounds.len() - 1 {
        bounds.truncate(cut.limit + 1);
        perm.truncate(bounds[cut.limit]);
    }
    if sel.is_none() && origin.is_none() {
        // Every row survived where it was.
        return Ok(BatchRuns {
            batch,
            perm: Some(perm),
            bounds,
        });
    }
    // Each input row's row in the output, or DROPPED.
    let mut to_out = vec![DROPPED; rows];
    let mut place = |j: u32| to_out[origin.as_ref().map_or(j, |o| o[j as usize]) as usize] = j;
    match sel {
        Some(s) => s.into_iter().for_each(&mut place),
        None => (0..batch.len() as u32).for_each(&mut place),
    }
    let mut kept = Vec::with_capacity(batch.len());
    let mut kept_bounds = Vec::with_capacity(bounds.len());
    kept_bounds.push(0);
    for w in bounds.windows(2) {
        kept.extend(
            (perm[w[0]..w[1]].iter())
                .map(|&i| to_out[i as usize])
                .filter(|&j| j != DROPPED),
        );
        kept_bounds.push(kept.len());
    }
    Ok(BatchRuns {
        batch,
        perm: Some(kept),
        bounds: kept_bounds,
    })
}

/// One output column of a projection: computed, or a bare input column
/// that [`project_dense_owned`] forwards.
enum Slot {
    Computed(Column),
    Pass(usize),
}

/// A projection's columns over a dense batch: computed expressions run
/// through the SIMD kernel suite, a bare column is forwarded.
fn project_columns(batch: &EventBatch, exprs: &[CompiledExpr]) -> Vec<Slot> {
    (exprs.iter())
        .map(|c| match c.as_col() {
            Some(i) => Slot::Pass(i),
            None => Slot::Computed(c.eval_column(batch.payload())),
        })
        .collect()
}

/// Dense projection over a batch taken by value, given its columns
/// ([`project_columns`]). Pass-through `col(name)` expressions *move* their
/// input column when the fragment holds the only handle to the payload (it
/// would drop that storage right after), and the lifetime vectors are
/// forwarded wholesale — so nothing is cloned for the shapes a projection
/// merely forwards.
fn project_dense_owned(batch: EventBatch, out_schema: Schema, slots: Vec<Slot>) -> EventBatch {
    let n = batch.len();
    let forwards = |i: usize| slots.iter().any(|s| matches!(s, Slot::Pass(p) if *p == i));
    // The lifetimes are handed on as they are, shared or not. A uniquely-owned
    // payload gives its columns away; one another consumer still holds lends
    // them, and only the columns this projection forwards are copied.
    let (vt, ve, payload) = batch.into_shared_parts();
    let mut in_cols: Vec<Option<Column>> = match Arc::try_unwrap(payload) {
        Ok(owned) => owned.into_parts().1.into_iter().map(Some).collect(),
        Err(shared) => (shared.columns().iter().enumerate())
            .map(|(i, col)| forwards(i).then(|| col.clone()))
            .collect(),
    };
    let mut out_cols: Vec<Column> = Vec::with_capacity(slots.len());
    let mut placed: Vec<Option<usize>> = vec![None; in_cols.len()];
    for slot in slots {
        let col = match slot {
            // Move on first use; a duplicated pass-through clones the
            // column an earlier slot already placed.
            Slot::Pass(i) => match in_cols[i].take() {
                Some(col) => {
                    placed[i] = Some(out_cols.len());
                    col
                }
                None => out_cols[placed[i].expect("placed by an earlier pass-through")].clone(),
            },
            Slot::Computed(col) => col,
        };
        out_cols.push(col);
    }
    EventBatch::from_shared(vt, ve, Arc::new(ColumnBatch::new(out_schema, out_cols, n)))
}

/// Lifetime rewrite at the selected indices, in place — no payload traffic
/// at all. Only a hopping window can drop events; drops shrink the
/// selection rather than compacting the batch. An overflow fails at the
/// first selected row that meets it; when `checked`, every selected row
/// that overflows fails, before anything is rewritten, so a walk can pass
/// over the rows again.
fn alter_sel(
    batch: &mut EventBatch,
    sel: &mut Option<Vec<u32>>,
    op: &LifetimeOp,
    checked: bool,
) -> std::result::Result<(), RowErrors> {
    let at = |i: u32| move |err| vec![(i, Arc::new(err))];
    if checked {
        let (vt, ve) = (batch.vt(), batch.ve());
        let check = |i: u32| {
            let lt = Lifetime::new(vt[i as usize], ve[i as usize]);
            Some((i, Arc::new(transform(lt, op).err()?)))
        };
        let failed: RowErrors = match sel.as_deref() {
            None => (0..vt.len() as u32).filter_map(check).collect(),
            Some(s) => s.iter().copied().filter_map(check).collect(),
        };
        if !failed.is_empty() {
            return Err(failed);
        }
    }
    let (vt, ve) = batch.times_mut();
    let can_drop = matches!(op, LifetimeOp::Hop { .. });
    match sel.take() {
        // Dense, no drops possible: plain in-place sweep, stay dense.
        None if !can_drop => {
            for i in 0..vt.len() {
                let lt = transform(Lifetime::new(vt[i], ve[i]), op).map_err(at(i as u32))?;
                let lt = lt.expect("only hops drop");
                vt[i] = lt.start;
                ve[i] = lt.end;
            }
        }
        cur => {
            let total = vt.len();
            let upper = cur.as_ref().map_or(total, Vec::len);
            let mut survivors = Vec::with_capacity(upper);
            let mut apply = |i: u32| -> std::result::Result<(), RowErrors> {
                let ii = i as usize;
                if let Some(lt) = transform(Lifetime::new(vt[ii], ve[ii]), op).map_err(at(i))? {
                    vt[ii] = lt.start;
                    ve[ii] = lt.end;
                    survivors.push(i);
                }
                Ok(())
            };
            match &cur {
                None => (0..total as u32).try_for_each(&mut apply)?,
                Some(s) => s.iter().copied().try_for_each(&mut apply)?,
            }
            // A dense batch with no drops stays dense.
            *sel = if cur.is_none() && survivors.len() == total {
                None
            } else {
                Some(survivors)
            };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::expr::{col, lit};
    use crate::stream::EventStream;
    use relation::row;
    use relation::schema::ColumnType;

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

    fn run(steps: &[FusedStep]) -> Result<EventStream> {
        fused_fragment(batch(), steps).map(EventBatch::into_stream)
    }

    /// One lifetime step over a row stream, back as rows.
    fn alter(input: EventStream, op: &LifetimeOp) -> Result<EventStream> {
        let steps = [FusedStep::AlterLifetime { op: op.clone() }];
        let input = EventBatch::from_stream(&input).unwrap();
        fused_fragment(input, &steps).map(EventBatch::into_stream)
    }

    fn stream(times: &[i64]) -> EventStream {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        EventStream::new(
            schema,
            times.iter().map(|&t| Event::point(t, row![t])).collect(),
        )
    }

    #[test]
    fn a_fragment_filters_projects_and_windows_in_one_pass() {
        let out = run(&[
            FusedStep::Filter {
                predicate: col("Id").eq(lit(1)),
            },
            FusedStep::Project {
                exprs: vec![("V2".into(), col("V").add(lit(1i64)))],
            },
            FusedStep::AlterLifetime {
                op: LifetimeOp::Window(5),
            },
        ])
        .unwrap();
        assert_eq!(
            out.events(),
            &[
                Event::interval(10, 15, row![101i64]),
                Event::interval(30, 35, row![301i64]),
            ]
        );
    }

    #[test]
    fn filter_chain_shrinks_selection_without_compacting() {
        // Two filters then a shift: one compaction at the fragment end.
        let out = run(&[
            FusedStep::Filter {
                predicate: col("Id").le(lit(2)),
            },
            FusedStep::Filter {
                predicate: col("V").gt(lit(100i64)),
            },
            FusedStep::AlterLifetime {
                op: LifetimeOp::Shift(1),
            },
        ])
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.events()[0].lifetime, Lifetime::point(21));
        assert_eq!(out.events()[1].lifetime, Lifetime::point(31));
    }

    #[test]
    fn errors_surface_for_first_surviving_row() {
        // The row a filter drops cannot fail the projection after it.
        let s = EventStream::new(
            schema(),
            vec![
                Event::point(1, row![9i32, 0i64]), // filtered out
                Event::point(2, row![1i32, 7i64]),
            ],
        );
        let steps = vec![
            FusedStep::Filter {
                predicate: col("Id").eq(lit(1)),
            },
            FusedStep::Project {
                exprs: vec![("Q".into(), col("V").div(col("Id").sub(lit(9))))],
            },
        ];
        let out = fused_fragment(EventBatch::from_stream(&s).unwrap(), &steps).unwrap();
        assert_eq!(out.into_stream().events()[0].payload, row![0i64]);
    }

    #[test]
    fn sliding_window_sets_re() {
        // Paper Fig 3: window w=3 makes a reading at t active on [t, t+3).
        let out = alter(stream(&[2, 4]), &LifetimeOp::Window(3)).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(2, 5));
        assert_eq!(out.events()[1].lifetime, Lifetime::new(4, 7));
    }

    #[test]
    fn hopping_window_quantizes_to_grid() {
        // hop=4, width=6: event at t=1 is active at the single grid report
        // T=4 (since 4-6 < 1 <= 4 but 8-6 > 1): lifetime [4, 8).
        let out = alter(stream(&[1]), &LifetimeOp::Hop { hop: 4, width: 6 }).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(4, 8));
        // Event exactly on the grid is active at T=4 and T=8: [4, 12).
        let out = alter(stream(&[4]), &LifetimeOp::Hop { hop: 4, width: 6 }).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(4, 12));
    }

    #[test]
    fn hopping_window_drops_between_report_points() {
        // hop=10, width=2: an event at t=3 influences no grid report
        // (next report T=10, but 10-2=8 > 3) and must vanish.
        let out = alter(stream(&[3]), &LifetimeOp::Hop { hop: 10, width: 2 }).unwrap();
        assert!(out.is_empty());
        // t=9 influences T=10: [10, 20)? end = ceil(9+2)=20? No: ceil(11,10)=20.
        let out = alter(stream(&[9]), &LifetimeOp::Hop { hop: 10, width: 2 }).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(10, 20));
    }

    #[test]
    fn shift_and_extend_back() {
        let out = alter(stream(&[10]), &LifetimeOp::Shift(5)).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(15, 16));
        // GenTrainData (Fig 12): clicks extended back d=5 cover [t-5, t+1).
        let out = alter(stream(&[10]), &LifetimeOp::ExtendBack(5)).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::new(5, 11));
    }

    #[test]
    fn to_point_collapses_intervals() {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let input = EventStream::new(schema, vec![Event::interval(3, 99, row![0i64])]);
        let out = alter(input, &LifetimeOp::ToPoint).unwrap();
        assert_eq!(out.events()[0].lifetime, Lifetime::point(3));
    }

    /// `op` over one event with lifetime `lt`: the lifetimes it leaves.
    fn one_event(lt: Lifetime, op: LifetimeOp) -> Result<Vec<Lifetime>> {
        let schema = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let input = EventStream::new(schema, vec![Event::new(lt, row![0i64])]);
        alter(input, &op).map(|s| s.events().iter().map(|e| e.lifetime).collect())
    }

    const MAX: i64 = i64::MAX;
    const MIN: i64 = i64::MIN;

    /// The named error `op` raises over `lt`.
    fn overflow(op: &str, lt: Lifetime) -> Result<Vec<Lifetime>> {
        Err(TemporalError::TimeOverflow(format!(
            "{op} moves [{}, {}) past the range of time",
            lt.start, lt.end
        )))
    }

    #[test]
    fn a_window_past_the_last_instant_is_an_error() {
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            one_event(late, LifetimeOp::Window(10)),
            overflow("Window w=10", late)
        );
        assert_eq!(
            one_event(late, LifetimeOp::Window(5)),
            Ok(vec![Lifetime::new(MAX - 5, MAX)])
        );
        let early = Lifetime::new(MIN, MIN + 5);
        assert_eq!(
            one_event(early, LifetimeOp::Window(10)),
            Ok(vec![Lifetime::new(MIN, MIN + 10)])
        );
    }

    #[test]
    fn a_hop_past_the_last_instant_is_an_error() {
        // 2^63 - 1 is a multiple of 7: the first report point is `MAX`, the
        // window's reach is past it.
        let late = Lifetime::new(MAX - 5, MAX);
        let op = LifetimeOp::Hop { hop: 7, width: 100 };
        assert_eq!(one_event(late, op), overflow("HopWindow h=7 w=100", late));
        // 2^63 - 1 is 3 modulo 4: the first report point is past `MAX`.
        let last = Lifetime::new(MAX - 1, MAX);
        let op = LifetimeOp::Hop { hop: 4, width: 1 };
        assert_eq!(one_event(last, op), overflow("HopWindow h=4 w=1", last));
        // -2^63 is 6 modulo 7.
        let early = Lifetime::new(MIN, MIN + 1);
        assert_eq!(
            one_event(early, LifetimeOp::Hop { hop: 7, width: 7 }),
            Ok(vec![Lifetime::new(MIN + 1, MIN + 8)])
        );
    }

    #[test]
    fn a_shift_past_either_end_is_an_error() {
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            one_event(late, LifetimeOp::Shift(10)),
            overflow("Shift 10", late)
        );
        assert_eq!(
            one_event(late, LifetimeOp::Shift(-10)),
            Ok(vec![Lifetime::new(MAX - 15, MAX - 10)])
        );
        let early = Lifetime::new(MIN, MIN + 5);
        assert_eq!(
            one_event(early, LifetimeOp::Shift(-10)),
            overflow("Shift -10", early)
        );
        assert_eq!(
            one_event(early, LifetimeOp::Shift(10)),
            Ok(vec![Lifetime::new(MIN + 10, MIN + 15)])
        );
    }

    #[test]
    fn an_extension_before_the_first_instant_is_an_error() {
        let early = Lifetime::new(MIN + 5, MIN + 6);
        assert_eq!(
            one_event(early, LifetimeOp::ExtendBack(10)),
            overflow("ExtendBack 10", early)
        );
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            one_event(late, LifetimeOp::ExtendBack(10)),
            Ok(vec![Lifetime::new(MAX - 15, MAX)])
        );
    }

    #[test]
    fn to_point_stays_in_range_at_both_ends() {
        let late = Lifetime::new(MAX - 5, MAX);
        assert_eq!(
            one_event(late, LifetimeOp::ToPoint),
            Ok(vec![Lifetime::point(MAX - 5)])
        );
        let early = Lifetime::new(MIN, MIN + 5);
        assert_eq!(
            one_event(early, LifetimeOp::ToPoint),
            Ok(vec![Lifetime::point(MIN)])
        );
    }

    #[test]
    fn shared_input_is_left_untouched() {
        // Copy-on-write: altering a batch another consumer still holds
        // must not mutate the shared storage.
        let original = EventBatch::from_stream(&stream(&[1, 2])).unwrap();
        let steps = [FusedStep::AlterLifetime {
            op: LifetimeOp::Shift(100),
        }];
        let out = fused_fragment(original.clone(), &steps).unwrap();
        assert_eq!(original.lifetime(0), Lifetime::point(1));
        assert_eq!(out.lifetime(0), Lifetime::new(101, 102));
    }
}
