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
//! So the kernel keeps one fresh accumulator set per (group, cell), adds
//! each event to its slot in one pass over the input — no `remove`, no
//! endpoint buffer, no sort of events — then orders the *slots* by (group
//! key, cell) and emits one row per slot with its key prefix in place,
//! coalescing a slot into its predecessor when the cells are adjacent and
//! the values equal, exactly as the sweep's "don't close when equal" does.
//! Output is byte-identical to the general path.
//!
//! The batch is read on its columns: keys are hashed, compared and
//! ordered off them (a string by its dictionary's cached hash, code and
//! rank; no key is materialized), bare-column arguments read straight from
//! them (a computed argument is evaluated once, as a batch, over every
//! event), and the output is written as columns, each key column gathered
//! once from the groups' representatives. Combinability is decided from
//! the *declared* argument type, which every cell inhabits, so an integer
//! SUM never meets a `Double`.

use crate::agg::{Accumulator, AggExpr};
use crate::batch::EventBatch;
use crate::compiled::BatchEval;
use crate::error::{Result, TemporalError};
use crate::exec::ExecStats;
use crate::key::KeySelector;
use crate::operators::group_apply::{batch_groups, key_order, Groups};
use crate::time::{checked_ceil_to_grid, Duration, Time};
use relation::column::ColumnBuilder;
use relation::{Column, ColumnBatch, Schema, Value};
use rustc_hash::FxHashMap;

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
    // A computed argument is evaluated once, over every event; a cell's
    // error surfaces only where the walk reads it.
    let args: Vec<Arg> = (aggs.iter())
        .map(|(_, a)| match a.compile_arg(input.schema()) {
            None => Arg::None,
            Some(arg) => match arg.as_col() {
                Some(c) => Arg::Col(payload.column(c)),
                None => Arg::Eval(arg.eval_batch_raw_sel(payload, None)),
            },
        })
        .collect();
    let groups = batch_groups(payload, sel);
    let Some(cells) = panes(
        &groups,
        grid,
        aggs,
        |i| input.vt()[i],
        |first| key_order(payload, sel, first),
        |i, k| match &args[k] {
            Arg::None => Ok(Value::Null),
            Arg::Col(col) => Ok(col.value(i)),
            Arg::Eval(eval) => eval.get(i),
        },
        stats,
    )?
    else {
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
            // An aggregate's value inhabits the type `infer_type` declares.
            c.push(v).map_err(TemporalError::Relation)?;
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

/// How the kernel reads an aggregate's argument: none (COUNT), a bare
/// column's cells, or a computed argument's evaluation.
enum Arg<'a> {
    None,
    Col(&'a Column),
    Eval(BatchEval),
}

/// The kernel's output: per output event, its group's representative
/// event, its lifetime and its aggregate values (stride `aggs.len()`).
struct Panes {
    first: Vec<u32>,
    vt: Vec<Time>,
    ve: Vec<Time>,
    values: Vec<Value>,
}

/// The kernel proper, over accessors: `start(i)` is event `i`'s lifetime
/// start, `order(first)` the groups whose first events are `first` in key
/// order, `arg(i, k)` aggregate `k`'s argument value for it.
fn panes(
    groups: &Groups,
    grid: Duration,
    aggs: &[(String, AggExpr)],
    start: impl Fn(usize) -> Time,
    order: impl FnOnce(&[usize]) -> Vec<u32>,
    mut arg: impl FnMut(usize, usize) -> Result<Value>,
    stats: &mut ExecStats,
) -> Result<Option<Panes>> {
    const NO_SLOT: u32 = u32::MAX;
    let n_aggs = aggs.len();
    // Slot `s` aggregates cell `cells[s].1` of group `cells[s].0` in
    // `accs[s * n_aggs..][..n_aggs]`. Events mostly arrive in time order,
    // so a group's latest slot is tried before the map.
    let mut cells: Vec<(u32, Time)> = Vec::new();
    let mut accs: Vec<Accumulator> = Vec::new();
    let mut slots: FxHashMap<(u32, Time), u32> = FxHashMap::default();
    let mut latest: Vec<u32> = vec![NO_SLOT; groups.first.len()];
    // The first argument error of each failing group.
    let mut errors: FxHashMap<u32, TemporalError> = FxHashMap::default();

    'events: for (i, &g) in groups.ordinals.iter().enumerate() {
        // A cell that ends past the last instant is the hop's overflow:
        // the walk reports it, in group order.
        let cell = checked_ceil_to_grid(start(i), grid).filter(|c| c.checked_add(grid).is_some());
        let Some(cell) = cell else { return Ok(None) };
        let last = latest[g as usize];
        let slot = if last != NO_SLOT && cells[last as usize].1 == cell {
            last
        } else {
            let fresh = cells.len() as u32;
            let slot = *slots.entry((g, cell)).or_insert(fresh);
            if slot == fresh {
                cells.push((g, cell));
                accs.extend(aggs.iter().map(|(_, a)| a.accumulator()));
            }
            latest[g as usize] = slot;
            slot
        };
        let slot_accs = &mut accs[slot as usize * n_aggs..][..n_aggs];
        for (k, acc) in slot_accs.iter_mut().enumerate() {
            match arg(i, k) {
                Ok(v) => acc.add(&v),
                Err(err) => {
                    errors.entry(g).or_insert(err);
                    continue 'events;
                }
            }
        }
    }

    // Distinct groups have distinct keys, so the order is total.
    let by_key = order(&groups.first);
    let mut rank = vec![0u32; by_key.len()];
    for (r, &g) in by_key.iter().enumerate() {
        rank[g as usize] = r as u32;
    }
    // A group-at-a-time evaluation fails in its lowest failing group: on
    // that group's first failing event, or at its first cell whose SUM
    // leaves `i64`.
    let failing = errors.keys().copied().min_by_key(|&g| rank[g as usize]);
    let failing_rank = failing.map_or(u32::MAX, |g| rank[g as usize]);
    debug_assert!(
        !(accs.iter()).any(|a| matches!(
            a,
            Accumulator::Sum {
                saw_float: true,
                ..
            }
        )),
        "a combinable SUM is over integers"
    );
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
        if rank[g as usize] >= failing_rank {
            break;
        }
        let slot_accs = &accs[s as usize * n_aggs..][..n_aggs];
        let at = out.values.len();
        for ((name, _), acc) in aggs.iter().zip(slot_accs) {
            let value = acc.value().ok_or_else(|| AggExpr::overflow(name, cell))?;
            out.values.push(value);
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
    if let Some(g) = failing {
        return Err(errors.remove(&g).expect("key just seen"));
    }
    stats.groups += rank.len() as u64;
    stats.pane_groups += rank.len() as u64;
    Ok(Some(out))
}
