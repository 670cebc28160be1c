//! The reference operator implementations: the dev-only oracle.
//!
//! These are the clone-based, per-row name-resolving forms the engine's
//! operators replaced: `Expr::eval(&Schema, &Row)` re-resolves column names
//! per row, join/group keys materialize a `Vec<Value>` per event, and every
//! surviving event is cloned. They are kept as the reference
//! implementation the property tests, benches and experiments compare the
//! engine against (byte-identical outputs required), reached at plan level
//! through [`crate::exec::execute_reference`] and by no job or cluster
//! configuration.

use crate::agg::AggExpr;
use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::expr::Expr;
use crate::operators::aggregate::{sweep_runs, RowRuns};
use crate::plan::{LifetimeOp, LogicalPlan};
use crate::stream::EventStream;
use crate::time::{ceil_to_grid, merge_intervals, Duration, Lifetime};
use crate::udo::UdoRef;
use relation::{Field, Row, Schema, Value};
use rustc_hash::FxHashMap;

/// Interpreted Filter: per-row name resolution, clones survivors.
pub fn filter(input: &EventStream, predicate: &Expr) -> Result<EventStream> {
    let schema = input.schema().clone();
    let mut events = Vec::with_capacity(input.len());
    for e in input.events() {
        if predicate.eval_predicate(&schema, &e.payload)? {
            events.push(e.clone());
        }
    }
    Ok(EventStream::new(schema, events))
}

/// Interpreted Project: per-row name resolution.
pub fn project(input: &EventStream, exprs: &[(String, Expr)]) -> Result<EventStream> {
    let in_schema = input.schema();
    let out_schema = Schema::new(
        exprs
            .iter()
            .map(|(name, e)| Ok(Field::new(name.clone(), e.infer_type(in_schema)?)))
            .collect::<Result<Vec<_>>>()?,
    );
    let mut events = Vec::with_capacity(input.len());
    for e in input.events() {
        let mut values = Vec::with_capacity(exprs.len());
        for (_, expr) in exprs {
            values.push(expr.eval(in_schema, &e.payload)?);
        }
        events.push(Event::new(e.lifetime, Row::new(values)));
    }
    Ok(EventStream::new(out_schema, events))
}

/// Interpreted AlterLifetime: rebuilds the stream, cloning every payload.
pub fn alter_lifetime(input: &EventStream, op: &LifetimeOp) -> Result<EventStream> {
    let events = input
        .events()
        .iter()
        .filter_map(|e| {
            crate::operators::alter_lifetime::transform(e.lifetime, op)
                .map(|lt| e.with_lifetime(lt))
        })
        .collect();
    Ok(EventStream::new(input.schema().clone(), events))
}

/// Interpreted snapshot Aggregate: per-row name resolution of arguments.
pub fn aggregate(input: &EventStream, aggs: &[(String, AggExpr)]) -> Result<EventStream> {
    let in_schema = input.schema();
    let out_schema = Schema::new(
        aggs.iter()
            .map(|(name, a)| Ok(Field::new(name.clone(), a.infer_type(in_schema)?)))
            .collect::<Result<Vec<_>>>()?,
    );
    let mut arg_values: Vec<Value> = Vec::with_capacity(input.len() * aggs.len());
    for e in input.events() {
        for (_, a) in aggs {
            arg_values.push(a.eval_arg(in_schema, &e.payload)?);
        }
    }
    let events = input.events();
    let mut out = RowRuns::new(1);
    let bounds = [0, events.len()];
    sweep_runs(
        &bounds,
        |i| events[i].lifetime,
        aggs,
        &arg_values,
        |r, lt, v| out.push(r, lt, v),
    );
    Ok(out.finish(out_schema).stream)
}

/// Interpreted GroupApply: `Vec<Value>` key per event, clones group events.
pub fn group_apply(
    input: &EventStream,
    keys: &[String],
    subplan: &LogicalPlan,
    run_subplan: &mut dyn FnMut(&LogicalPlan, EventStream) -> Result<EventStream>,
) -> Result<EventStream> {
    let in_schema = input.schema();
    let key_indices: Vec<usize> = keys
        .iter()
        .map(|k| in_schema.index_of(k).map_err(TemporalError::from))
        .collect::<Result<Vec<_>>>()?;

    let mut groups: FxHashMap<Vec<Value>, Vec<Event>> = FxHashMap::default();
    for e in input.events() {
        let key: Vec<Value> = key_indices
            .iter()
            .map(|&i| e.payload.get(i).clone())
            .collect();
        groups.entry(key).or_default().push(e.clone());
    }

    let mut ordered: Vec<(Vec<Value>, Vec<Event>)> = groups.into_iter().collect();
    ordered.sort_by(|a, b| a.0.cmp(&b.0));

    let sub_out_schema = subplan.schema_of(subplan.roots()[0]).clone();
    let mut fields = Vec::with_capacity(keys.len() + sub_out_schema.len());
    for k in keys {
        fields.push(in_schema.field(k)?.clone());
    }
    fields.extend(sub_out_schema.fields().iter().cloned());
    let out_schema = Schema::new(fields);

    let mut out_events = Vec::new();
    for (key, events) in ordered {
        let group_stream = EventStream::new(in_schema.clone(), events);
        let result = run_subplan(subplan, group_stream)?;
        for e in result.into_events() {
            let mut values = Vec::with_capacity(key.len() + e.payload.len());
            values.extend(key.iter().cloned());
            values.extend(e.payload.into_values());
            out_events.push(Event::new(e.lifetime, Row::new(values)));
        }
    }
    Ok(EventStream::new(out_schema, out_events))
}

/// Interpreted Union: clones every input stream into the output.
pub fn union(inputs: &[&EventStream]) -> Result<EventStream> {
    let first = inputs
        .first()
        .ok_or_else(|| TemporalError::Plan("union of zero streams".into()))?;
    let mut out = EventStream::empty(first.schema().clone());
    for s in inputs {
        out.merge((*s).clone())?;
    }
    Ok(out)
}

/// Interpreted TemporalJoin: `Vec<Value>` keys per event on both sides,
/// per-row name resolution of the residual.
pub fn temporal_join(
    left: &EventStream,
    right: &EventStream,
    keys: &[(String, String)],
    residual: Option<&Expr>,
) -> Result<EventStream> {
    let lschema = left.schema();
    let rschema = right.schema();
    let out_schema = lschema.join(rschema);

    let lkeys: Vec<usize> = keys
        .iter()
        .map(|(l, _)| lschema.index_of(l).map_err(TemporalError::from))
        .collect::<Result<Vec<_>>>()?;
    let rkeys: Vec<usize> = keys
        .iter()
        .map(|(_, r)| rschema.index_of(r).map_err(TemporalError::from))
        .collect::<Result<Vec<_>>>()?;

    let mut right_index: FxHashMap<Vec<Value>, Vec<&Event>> = FxHashMap::default();
    for e in right.events() {
        let key: Vec<Value> = rkeys.iter().map(|&i| e.payload.get(i).clone()).collect();
        right_index.entry(key).or_default().push(e);
    }
    for bucket in right_index.values_mut() {
        bucket.sort_by_key(|e| (e.lifetime.start, e.lifetime.end));
    }

    let mut out = Vec::new();
    for le in left.events() {
        let key: Vec<Value> = lkeys.iter().map(|&i| le.payload.get(i).clone()).collect();
        let Some(bucket) = right_index.get(&key) else {
            continue;
        };
        for re in bucket {
            if re.lifetime.start >= le.lifetime.end {
                break;
            }
            let Some(lifetime) = le.lifetime.intersect(&re.lifetime) else {
                continue;
            };
            let payload = le.payload.concat(&re.payload);
            if let Some(pred) = residual {
                if !pred.eval_predicate(&out_schema, &payload)? {
                    continue;
                }
            }
            out.push(Event::new(lifetime, payload));
        }
    }
    Ok(EventStream::new(out_schema, out))
}

/// Interpreted AntiSemiJoin: `Vec<Value>` keys per event, clones survivors.
pub fn anti_semi_join(
    left: &EventStream,
    right: &EventStream,
    keys: &[(String, String)],
) -> Result<EventStream> {
    let lschema = left.schema();
    let rschema = right.schema();
    let lkeys: Vec<usize> = keys
        .iter()
        .map(|(l, _)| lschema.index_of(l).map_err(TemporalError::from))
        .collect::<Result<Vec<_>>>()?;
    let rkeys: Vec<usize> = keys
        .iter()
        .map(|(_, r)| rschema.index_of(r).map_err(TemporalError::from))
        .collect::<Result<Vec<_>>>()?;

    let mut covers: FxHashMap<Vec<Value>, Vec<Lifetime>> = FxHashMap::default();
    for e in right.events() {
        let key: Vec<Value> = rkeys.iter().map(|&i| e.payload.get(i).clone()).collect();
        covers.entry(key).or_default().push(e.lifetime);
    }
    for intervals in covers.values_mut() {
        let merged = merge_intervals(std::mem::take(intervals));
        *intervals = merged;
    }

    let mut out = Vec::with_capacity(left.len());
    for e in left.events() {
        let key: Vec<Value> = lkeys.iter().map(|&i| e.payload.get(i).clone()).collect();
        match covers.get(&key) {
            None => out.push(e.clone()),
            Some(holes) => {
                for fragment in e.lifetime.subtract_all(holes) {
                    out.push(e.with_lifetime(fragment));
                }
            }
        }
    }
    Ok(EventStream::new(lschema.clone(), out))
}

/// Interpreted HopUdo: copies and sorts the events.
pub fn hop_udo(
    input: &EventStream,
    hop: Duration,
    width: Duration,
    udo: &UdoRef,
) -> Result<EventStream> {
    let in_schema = input.schema();
    let out_schema = udo.output_schema(in_schema)?;
    if input.is_empty() {
        return Ok(EventStream::empty(out_schema));
    }
    let mut events: Vec<Event> = input.events().to_vec();
    events.sort_by_key(|e| e.lifetime.start);
    let min_t = events.first().map(|e| e.start()).unwrap();
    let max_t = events.last().map(|e| e.start()).unwrap();

    let mut out = Vec::new();
    let mut lo = 0usize;
    let mut hi = 0usize;
    let mut t = ceil_to_grid(min_t, hop);
    while t < max_t + width {
        while lo < events.len() && events[lo].start() <= t - width {
            lo += 1;
        }
        while hi < events.len() && events[hi].start() <= t {
            hi += 1;
        }
        if lo < hi {
            for row in udo.apply(t, in_schema, &events[lo..hi])? {
                out.push(Event::new(Lifetime::new(t, t + hop), row));
            }
        }
        t += hop;
    }
    Ok(EventStream::new(out_schema, out))
}
