//! The pane kernel: GroupApply over a tumbling, combinable hopping
//! aggregate as **one hash aggregation over (group, cell)**.
//!
//! When a GroupApply sub-plan is `GroupInput → Hop{g, g} → Aggregate` with
//! every aggregate [`AggExpr::combinable`] — the partial step
//! [`crate::plan::push_down`] and [`crate::plan::factor_windows`] emit, and
//! what `plan::share::HoppingAggregate::pane_grid` recognises from the plan
//! alone — every event of a group lives in exactly one cell
//! `[T, T + g)`, `T = ceil_to_grid(start, g)`, and the cells of a group
//! never overlap. The general path (key-ordered runs, two endpoints per
//! event, a sort, an add/retract sweep, a key prefix re-row) computes for
//! each (group, cell) exactly the aggregate of the events that fall in it:
//!
//! * Inside a burst of adjacent non-empty cells the sweep retracts the old
//!   cell's values and adds the new cell's at one instant. For COUNT,
//!   integer SUM, MIN and MAX — the combinable set — retraction is exact,
//!   so the state after "retract all, add all" is the state of a fresh
//!   accumulator fed the new cell alone. (AVG/STDDEV/float SUM keep
//!   rounding residue across a retraction; they are not combinable and
//!   never reach this kernel.)
//! * Between bursts the active set empties and the sweep resets its
//!   accumulators — fresh again.
//!
//! So the kernel keeps one fresh figure per (group, cell) and aggregate,
//! adds each event to its slot in one pass over the input — no `remove`,
//! no endpoint buffer, no sort of events — then orders the *slots* by
//! (group key, cell) and emits one row per slot with its key prefix in
//! place, coalescing a slot into its predecessor when the cells are
//! adjacent and the values equal, exactly as the sweep's "don't close when
//! equal" does. Output is byte-identical to the general path.
//!
//! Since nothing is retracted, a figure is one native number ([`Partial`]),
//! all of them in one flat vector: a count, an exact `i128` sum, or the
//! event holding a running MIN or MAX — no accumulator, and no ordered
//! multiset, per slot.
//!
//! The batch is read on its columns: keys are grouped and ordered on their
//! exact words (a string by its dictionary code and rank; no key is
//! materialized), every argument is one typed column over every event (a
//! bare column's cells, or a computed argument evaluated once by the batch
//! kernels), and the output is written as columns, each key column
//! gathered once from the groups' representatives. Combinability is
//! decided from the *declared* argument type, which every cell inhabits,
//! so an integer SUM never meets a `Double`.

use crate::agg::{AggExpr, Cell};
use crate::batch::EventBatch;
use crate::compiled::BatchEval;
use crate::error::Result;
use crate::exec::ExecStats;
use crate::key::KeySelector;
use crate::operators::aggregate::batch_args;
use crate::operators::group_apply::{batch_groups, key_order, Groups};
use crate::time::{checked_ceil_to_grid, Duration, Time};
use relation::column::ColumnBuilder;
use relation::{ColumnBatch, Schema, Value};
use rustc_hash::FxHashMap;
use std::cmp::Ordering::{Greater, Less};

/// Run `GroupApply(sel){Hop{grid, grid} → Aggregate(aggs)}` over `input`;
/// returns the output (key columns, then one column per aggregate, as
/// `out_schema` says) in (group key, time) order, or `None` when a cell
/// would end past the last instant.
pub(crate) fn pane_aggregate(
    input: &EventBatch,
    sel: &KeySelector,
    grid: Duration,
    aggs: &[(String, AggExpr)],
    out_schema: &Schema,
    stats: &mut ExecStats,
) -> Result<Option<EventBatch>> {
    let payload = input.payload();
    // Every argument is evaluated once, over every event, as a typed
    // column.
    let compiled = (aggs.iter())
        .map(|(_, a)| a.compile_arg(input.schema()))
        .collect::<Result<Vec<_>>>()?;
    let args = batch_args(payload, None, &compiled);
    let groups = batch_groups(payload, sel);
    let order = |first: &[usize]| key_order(payload, sel, first);
    let Some(cells) = panes(&groups, grid, aggs, &args, input.vt(), order, stats)? else {
        return Ok(None);
    };
    let Panes {
        first,
        vt,
        ve,
        values,
    } = cells;
    let keys = (sel.indices().iter()).map(|&k| payload.column(k).gather(&first));
    let n_keys = sel.indices().len();
    let mut columns: Vec<ColumnBuilder> = (out_schema.fields()[n_keys..].iter())
        .map(|f| ColumnBuilder::new(f, first.len()))
        .collect();
    for row in values.chunks(aggs.len().max(1)).take(first.len()) {
        for (c, v) in columns.iter_mut().zip(row) {
            c.push(v).expect("a value of its declared type");
        }
    }
    let columns = keys
        .chain(columns.into_iter().map(ColumnBuilder::finish))
        .collect();
    let rows = first.len();
    Ok(Some(EventBatch::new(
        vt,
        ve,
        ColumnBatch::new(out_schema.clone(), columns, rows),
    )))
}

/// How one aggregate's figure in a slot grows. The pane only adds, so a
/// figure is one running number, not a retractable accumulator: a count,
/// an exact integer sum, or the event that holds the running extreme.
#[derive(Debug, Clone, Copy)]
enum Partial {
    Count,
    Sum,
    Min,
    Max,
}

/// A SUM's or an extreme's figure before its first non-null argument.
const EMPTY: i128 = i128::MIN;

impl Partial {
    fn of(agg: &AggExpr) -> Partial {
        match agg {
            AggExpr::Count => Partial::Count,
            AggExpr::Sum(_) => Partial::Sum,
            AggExpr::Min(_) => Partial::Min,
            AggExpr::Max(_) => Partial::Max,
            _ => unreachable!("a pane aggregate is combinable"),
        }
    }

    fn fresh(self) -> i128 {
        match self {
            Partial::Count => 0,
            _ => EMPTY,
        }
    }

    /// Add event `i`, whose argument is `cell` (of the column `arg`), to
    /// `figure`. Nulls count for COUNT only, as in the sweep.
    #[inline]
    fn add(self, figure: &mut i128, i: usize, cell: Cell<'_>, arg: Option<&BatchEval<'_>>) {
        match self {
            Partial::Count => *figure += 1,
            _ if matches!(cell, Cell::Null) => {}
            Partial::Sum => {
                let x = i128::from(cell.as_long().expect("a combinable SUM is over integers"));
                *figure = if *figure == EMPTY { x } else { *figure + x };
            }
            Partial::Min | Partial::Max => {
                let arg = arg.expect("an extreme has an argument");
                let wins = *figure == EMPTY || {
                    let order = cell.total_cmp(arg.cell(*figure as usize));
                    order
                        == if matches!(self, Partial::Min) {
                            Less
                        } else {
                            Greater
                        }
                };
                if wins {
                    *figure = i as i128;
                }
            }
        }
    }

    /// The aggregate's value for `figure`: `None` for an integer SUM past
    /// `i64`.
    fn value(self, figure: i128, arg: Option<&BatchEval<'_>>) -> Option<Value> {
        Some(match self {
            Partial::Count => Value::Long(figure as i64),
            _ if figure == EMPTY => Value::Null,
            Partial::Sum => Value::Long(i64::try_from(figure).ok()?),
            Partial::Min | Partial::Max => {
                let arg = arg.expect("an extreme has an argument");
                arg.cell(figure as usize).to_value()
            }
        })
    }
}

/// The kernel's output: per output event, its group's representative
/// event, its lifetime and its aggregate values (stride `aggs.len()`).
struct Panes {
    first: Vec<u32>,
    vt: Vec<Time>,
    ve: Vec<Time>,
    values: Vec<Value>,
}

/// The kernel proper: `start[i]` is event `i`'s lifetime start, `args` the
/// aggregates' typed argument columns, `order(first)` the groups whose
/// first events are `first` in key order.
fn panes(
    groups: &Groups,
    grid: Duration,
    aggs: &[(String, AggExpr)],
    args: &[Option<BatchEval<'_>>],
    start: &[Time],
    order: impl FnOnce(&[usize]) -> Vec<u32>,
    stats: &mut ExecStats,
) -> Result<Option<Panes>> {
    const NO_SLOT: u32 = u32::MAX;
    let n_aggs = aggs.len();
    let partials: Vec<Partial> = aggs.iter().map(|(_, a)| Partial::of(a)).collect();
    // Slot `s` aggregates cell `cells[s].1` of group `cells[s].0` in
    // `figures[s * n_aggs..][..n_aggs]`. Events mostly arrive in time
    // order, so a group's latest slot is tried before the map.
    let mut cells: Vec<(u32, Time)> = Vec::new();
    let mut figures: Vec<i128> = Vec::new();
    let mut slots: FxHashMap<(u32, Time), u32> = FxHashMap::default();
    let mut latest: Vec<u32> = vec![NO_SLOT; groups.first.len()];

    for (i, &g) in groups.ordinals.iter().enumerate() {
        // A cell that ends past the last instant is the hop's overflow:
        // the walk reports it, in group order.
        let cell = checked_ceil_to_grid(start[i], grid).filter(|c| c.checked_add(grid).is_some());
        let Some(cell) = cell else { return Ok(None) };
        let last = latest[g as usize];
        let slot = if last != NO_SLOT && cells[last as usize].1 == cell {
            last
        } else {
            let fresh = cells.len() as u32;
            let slot = *slots.entry((g, cell)).or_insert(fresh);
            if slot == fresh {
                cells.push((g, cell));
                figures.extend(partials.iter().map(|p| p.fresh()));
            }
            latest[g as usize] = slot;
            slot
        };
        let slot_figures = &mut figures[slot as usize * n_aggs..][..n_aggs];
        for ((partial, figure), arg) in partials.iter().zip(slot_figures).zip(args) {
            let value = arg.as_ref().map_or(Cell::Null, |a| a.cell(i));
            partial.add(figure, i, value, arg.as_ref());
        }
    }

    // Distinct groups have distinct keys, so the order is total.
    let by_key = order(&groups.first);
    let mut rank = vec![0u32; by_key.len()];
    for (r, &g) in by_key.iter().enumerate() {
        rank[g as usize] = r as u32;
    }
    // A group-at-a-time evaluation fails in its lowest failing group, at
    // its first cell whose SUM leaves `i64`: slots go in that order.
    let mut order: Vec<u32> = (0..cells.len() as u32).collect();
    order.sort_unstable_by_key(|&s| {
        let (g, cell) = cells[s as usize];
        (rank[g as usize], cell)
    });

    let mut out = Panes {
        first: Vec::with_capacity(order.len()),
        vt: Vec::with_capacity(order.len()),
        ve: Vec::with_capacity(order.len()),
        values: Vec::with_capacity(order.len() * n_aggs),
    };
    let mut open = NO_SLOT; // group of `out`'s last event
    for s in order {
        let (g, cell) = cells[s as usize];
        let slot_figures = &figures[s as usize * n_aggs..][..n_aggs];
        let at = out.values.len();
        for (((name, _), partial), (&figure, arg)) in aggs
            .iter()
            .zip(&partials)
            .zip(slot_figures.iter().zip(args))
        {
            let value = partial.value(figure, arg.as_ref());
            out.values
                .push(value.ok_or_else(|| AggExpr::overflow(name, cell))?);
        }
        if open == g {
            let (last, value) = out.values[at - n_aggs..].split_at(n_aggs);
            let same = last == value;
            let end = out.ve.last_mut().expect("an open group has an event");
            if *end == cell && same {
                *end = cell + grid;
                out.values.truncate(at);
                continue;
            }
        }
        out.first.push(groups.first[g as usize] as u32);
        out.vt.push(cell);
        out.ve.push(cell + grid);
        open = g;
    }
    stats.groups += rank.len() as u64;
    stats.pane_groups += rank.len() as u64;
    Ok(Some(out))
}
