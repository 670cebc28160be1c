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
//! The input is read in the layout it arrives in: a batch hashes, compares
//! and extracts keys off its columns and reads bare-column arguments
//! straight from them (a computed argument evaluates over one reusable
//! scratch row); a row stream is read through its rows. Neither is
//! converted to the other.
//!
//! One premise is checked, not assumed: combinability is decided from the
//! *declared* argument type, and a row stream may carry a `Double` in a
//! column declared integer. A SUM that met one answers in doubles until
//! its burst ends — state a fresh accumulator does not have — so the
//! kernel then declines ([`pane_aggregate`] returns `None`) and the caller
//! runs the general path over the untouched input.

use crate::agg::{Accumulator, AggExpr};
use crate::compiled::CompiledExpr;
use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::exec::{ExecStats, StreamData};
use crate::key::KeySelector;
use crate::operators::group_apply::{assign_groups, Groups};
use crate::time::{checked_ceil_to_grid, Duration, Lifetime, Time};
use relation::{Row, Value};
use rustc_hash::FxHashMap;

/// Run `GroupApply(sel){Hop{grid, grid} → Aggregate(aggs)}` over `input`;
/// returns the output events (key prefix, then one column per aggregate) in
/// (group key, time) order, or `None` when the input breaks the
/// combinability premise (see the module docs) or a cell would end past the
/// last instant.
pub(crate) fn pane_aggregate(
    input: &StreamData,
    sel: &KeySelector,
    grid: Duration,
    aggs: &[(String, AggExpr)],
    stats: &mut ExecStats,
) -> Result<Option<Vec<Event>>> {
    let args: Vec<Option<CompiledExpr>> = aggs
        .iter()
        .map(|(_, a)| a.compile_arg(input.schema()))
        .collect();
    match input {
        StreamData::Rows(stream) => {
            let events = stream.events();
            let groups = assign_groups(
                events.len(),
                |i| sel.hash(&events[i].payload),
                |i, j| sel.matches_same(&events[i].payload, &events[j].payload),
            );
            panes(
                &groups,
                grid,
                aggs,
                |i| events[i].lifetime.start,
                |i| sel.extract(&events[i].payload),
                |i, k| match &args[k] {
                    None => Ok(Value::Null),
                    Some(arg) => arg.eval(&events[i].payload),
                },
                stats,
            )
        }
        StreamData::Batch(batch) => {
            let payload = batch.payload();
            let hashes = sel.hash_batch(payload);
            let groups = assign_groups(
                batch.len(),
                |i| hashes[i],
                |i, j| sel.matches_batch(payload, i, j),
            );
            // One gather per event, and only for events a computed
            // argument reads.
            let mut scratch = (usize::MAX, Row::default());
            panes(
                &groups,
                grid,
                aggs,
                |i| batch.vt()[i],
                |i| sel.extract_batch(payload, i),
                |i, k| match &args[k] {
                    None => Ok(Value::Null),
                    Some(arg) => match arg.as_col() {
                        Some(c) => Ok(payload.column(c).value(i)),
                        None => {
                            if scratch.0 != i {
                                payload.row_into(i, &mut scratch.1);
                                scratch.0 = i;
                            }
                            arg.eval(&scratch.1)
                        }
                    },
                },
                stats,
            )
        }
    }
}

/// The kernel proper, over accessors so both layouts share it: `start(i)`
/// is event `i`'s lifetime start, `key(i)` its materialized key (called
/// once per group), `arg(i, k)` aggregate `k`'s argument value for it.
fn panes(
    groups: &Groups,
    grid: Duration,
    aggs: &[(String, AggExpr)],
    start: impl Fn(usize) -> Time,
    key: impl Fn(usize) -> Vec<Value>,
    mut arg: impl FnMut(usize, usize) -> Result<Value>,
    stats: &mut ExecStats,
) -> Result<Option<Vec<Event>>> {
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

    // A group-at-a-time evaluation fails in its lowest failing group, on
    // that group's first failing event.
    let keys: Vec<Vec<Value>> = groups.first.iter().map(|&i| key(i)).collect();
    if let Some(g) = errors.keys().copied().min_by_key(|&g| &keys[g as usize]) {
        return Err(errors.remove(&g).expect("key just seen"));
    }
    if accs.iter().any(|a| {
        matches!(
            a,
            Accumulator::Sum {
                saw_float: true,
                ..
            }
        )
    }) {
        return Ok(None);
    }
    stats.groups += keys.len() as u64;
    stats.pane_groups += keys.len() as u64;

    // Distinct groups have distinct keys, so the order is total.
    let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
    by_key.sort_unstable_by_key(|&g| &keys[g as usize]);
    let mut rank = vec![0u32; keys.len()];
    for (r, &g) in by_key.iter().enumerate() {
        rank[g as usize] = r as u32;
    }
    let mut order: Vec<u32> = (0..cells.len() as u32).collect();
    order.sort_unstable_by_key(|&s| {
        let (g, cell) = cells[s as usize];
        (rank[g as usize], cell)
    });

    let mut out: Vec<Event> = Vec::with_capacity(order.len());
    let mut open = NO_SLOT; // group of `out`'s last event
    for s in order {
        let (g, cell) = cells[s as usize];
        let key = &keys[g as usize];
        let slot_accs = &accs[s as usize * n_aggs..][..n_aggs];
        if let Some(last) = out.last_mut().filter(|_| open == g) {
            let same = last.payload.values()[key.len()..]
                .iter()
                .zip(slot_accs)
                .all(|(v, a)| *v == a.value());
            if last.lifetime.end == cell && same {
                last.lifetime.end = cell + grid;
                continue;
            }
        }
        let mut values = Vec::with_capacity(key.len() + n_aggs);
        values.extend_from_slice(key);
        values.extend(slot_accs.iter().map(Accumulator::value));
        out.push(Event::new(
            Lifetime::new(cell, cell + grid),
            Row::new(values),
        ));
        open = g;
    }
    Ok(Some(out))
}
