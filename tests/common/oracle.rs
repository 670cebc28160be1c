//! The test oracle: a deliberately naive evaluator of CEDR snapshot
//! semantics, sharing no code with the engine.
//!
//! A plan denotes a function of time: at every instant, the relational
//! query over the events alive at that instant. [`run`] evaluates the
//! `LogicalPlan` exactly as the user built it, one operator at a time, on
//! plain event vectors:
//!
//! - Filter, Project and AlterLifetime run per event, with `Expr::eval`
//!   and the lifetime definitions written out below.
//! - Aggregate cuts time at every LE and RE of its input, computes each
//!   aggregate from scratch over the events alive on each piece, emits
//!   nothing where none are alive, and coalesces equal neighbours.
//! - GroupApply splits by key in key order, runs the sub-plan once per
//!   group (a sub-plan `Source` reads the outer binding) and prefixes the
//!   key columns.
//! - Union is a bag; TemporalJoin pairs key-equal events whose lifetimes
//!   overlap, keeps the intersection and applies the residual;
//!   AntiSemiJoin keeps the left lifetime minus the union of the matching
//!   right lifetimes; HopUdo calls the UDO on each hop's window contents.
//! - A node with several consumers is evaluated once; output schemas come
//!   from `LogicalPlan::schema_of`.
//!
//! Rewritten plans (fused fragments, spread grids) have no place here:
//! a rewrite is checked by running its engine output against the oracle
//! on the *original* plan. Being quadratic where the engine sweeps is the
//! point; inputs in the tests are small.
//!
//! [`same_relation`] compares an engine's output with the oracle's as bags
//! of events over time: lifetimes and cells exactly, except the
//! Double-valued aggregate columns [`Tolerance::of`] names, which rounding
//! in a running sum may move by a relative 1e-9.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasher;
use timr_suite::relation::schema::ColumnType;
use timr_suite::relation::{Row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::plan::{LifetimeOp, Operator};
use timr_suite::temporal::udo::UdoRef;
use timr_suite::temporal::{
    Event, EventBatch, EventStream, Expr, Lifetime, LogicalPlan, NodeId, Result, TemporalError,
    Time,
};

/// Evaluate every root of `plan` over `sources`.
///
/// # Panics
///
/// On a `FusedFragment` or `SpreadGrid` node: those only appear in plans
/// a rewrite produced, and the oracle evaluates what the user wrote.
pub fn run<S: BuildHasher>(
    plan: &LogicalPlan,
    sources: &HashMap<String, EventStream, S>,
) -> Result<Vec<EventStream>> {
    let mut scope = Scope {
        plan,
        sources,
        group: None,
        memo: HashMap::new(),
    };
    (plan.roots().iter())
        .map(|&root| {
            Ok(EventStream::new(
                plan.schema_of(root).clone(),
                scope.eval(root)?,
            ))
        })
        .collect()
}

/// [`run`] on a single-output plan.
pub fn run_single<S: BuildHasher>(
    plan: &LogicalPlan,
    sources: &HashMap<String, EventStream, S>,
) -> Result<EventStream> {
    let mut roots = run(plan, sources)?;
    assert_eq!(roots.len(), 1, "run_single on a plan with several outputs");
    Ok(roots.pop().unwrap())
}

/// One evaluation of a plan: the whole plan, or one group's run of a
/// GroupApply sub-plan.
struct Scope<'a, S> {
    plan: &'a LogicalPlan,
    sources: &'a HashMap<String, EventStream, S>,
    group: Option<&'a [Event]>,
    memo: HashMap<NodeId, Vec<Event>>,
}

impl<S: BuildHasher> Scope<'_, S> {
    fn eval(&mut self, id: NodeId) -> Result<Vec<Event>> {
        if let Some(done) = self.memo.get(&id) {
            return Ok(done.clone());
        }
        let plan = self.plan;
        let node = plan.node(id);
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            inputs.push(self.eval(input)?);
        }
        let in_schema = |k: usize| plan.schema_of(node.inputs[k]);
        let out_schema = plan.schema_of(id);
        let out = match &node.op {
            Operator::Source { name, schema } => {
                let bound = self.sources.get(name).ok_or_else(|| {
                    TemporalError::Input(format!("no binding for source `{name}`"))
                })?;
                if bound.schema() != schema {
                    return Err(TemporalError::Input(format!(
                        "source `{name}` bound with schema {}, plan expects {schema}",
                        bound.schema()
                    )));
                }
                bound.events().to_vec()
            }
            Operator::GroupInput { .. } => self
                .group
                .expect("GroupInput outside a GroupApply sub-plan")
                .to_vec(),
            Operator::Filter { predicate } => filter(in_schema(0), &inputs[0], predicate)?,
            Operator::Project { exprs } => project(in_schema(0), &inputs[0], exprs)?,
            Operator::AlterLifetime { op } => alter_lifetime(&inputs[0], op),
            Operator::Aggregate { aggs } => aggregate(in_schema(0), &inputs[0], aggs)?,
            Operator::GroupApply { keys, subplan } => {
                let key_at = (keys.iter())
                    .map(|k| in_schema(0).index_of(k))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let mut groups: BTreeMap<Vec<Value>, Vec<Event>> = BTreeMap::new();
                for e in &inputs[0] {
                    let key = key_at.iter().map(|&i| e.payload.get(i).clone()).collect();
                    groups.entry(key).or_default().push(e.clone());
                }
                let mut out = Vec::new();
                for (key, events) in &groups {
                    let mut scope = Scope {
                        plan: subplan,
                        sources: self.sources,
                        group: Some(events),
                        memo: HashMap::new(),
                    };
                    for e in scope.eval(subplan.roots()[0])? {
                        let values = key.iter().chain(e.payload.values()).cloned().collect();
                        out.push(Event::new(e.lifetime, Row::new(values)));
                    }
                }
                out
            }
            Operator::Union => inputs.concat(),
            Operator::TemporalJoin { keys, residual } => temporal_join(
                [in_schema(0), in_schema(1)],
                [&inputs[0], &inputs[1]],
                keys,
                residual.as_ref(),
                out_schema,
            )?,
            Operator::AntiSemiJoin { keys } => {
                anti_semi_join([in_schema(0), in_schema(1)], [&inputs[0], &inputs[1]], keys)?
            }
            Operator::HopUdo { hop, width, udo } => {
                hop_udo(in_schema(0), &inputs[0], *hop, *width, udo)?
            }
            Operator::FusedFragment { .. } | Operator::SpreadGrid { .. } => panic!(
                "the oracle evaluates the plan as built; {} is a rewrite's node",
                node.op.name()
            ),
        };
        self.memo.insert(id, out.clone());
        Ok(out)
    }
}

/// The events whose predicate holds (Null counts as false).
pub fn filter(schema: &Schema, events: &[Event], predicate: &Expr) -> Result<Vec<Event>> {
    let mut out = Vec::new();
    for e in events {
        if predicate.eval_predicate(schema, &e.payload)? {
            out.push(e.clone());
        }
    }
    Ok(out)
}

/// Every event's payload recomputed, its lifetime kept. An expression
/// with no type over `schema` fails the projection, events or none.
pub fn project(schema: &Schema, events: &[Event], exprs: &[(String, Expr)]) -> Result<Vec<Event>> {
    for (_, x) in exprs {
        x.infer_type(schema)?;
    }
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let values = (exprs.iter())
            .map(|(_, x)| x.eval(schema, &e.payload))
            .collect::<Result<Vec<_>>>()?;
        out.push(Event::new(e.lifetime, Row::new(values)));
    }
    Ok(out)
}

/// Every event under `op`; an event `op` leaves no lifetime drops.
pub fn alter_lifetime(events: &[Event], op: &LifetimeOp) -> Vec<Event> {
    (events.iter())
        .filter_map(|e| Some(Event::new(lifetime(e.lifetime, op)?, e.payload.clone())))
        .collect()
}

/// The smallest multiple of `m` at or after `t`.
fn next_multiple(t: Time, m: Time) -> Time {
    t.div_euclid(m) * m + if t.rem_euclid(m) == 0 { 0 } else { m }
}

/// One lifetime under `op`, from the definitions in `LifetimeOp`'s docs.
fn lifetime(lt: Lifetime, op: &LifetimeOp) -> Option<Lifetime> {
    let (le, re) = (lt.start, lt.end);
    let (start, end) = match *op {
        LifetimeOp::Window(w) => (le, le + w),
        // The event belongs to the snapshots at the grid instants `T` with
        // `LE <= T < LE + width`: alive from the first of them until the
        // first grid instant past them all.
        LifetimeOp::Hop { hop, width } => (next_multiple(le, hop), next_multiple(le + width, hop)),
        LifetimeOp::Shift(d) => (le + d, re + d),
        LifetimeOp::ExtendBack(d) => (le - d, re),
        LifetimeOp::ToPoint => (le, le + 1),
    };
    (start < end).then(|| Lifetime::new(start, end))
}

/// Snapshot aggregation by brute force: cut time at every endpoint of the
/// input, aggregate the events alive on each piece from scratch, emit
/// nothing where none are alive, then coalesce equal neighbours.
fn aggregate(schema: &Schema, events: &[Event], aggs: &[(String, AggExpr)]) -> Result<Vec<Event>> {
    // Each argument once per event, in input order.
    let mut args: Vec<Vec<Value>> = Vec::with_capacity(events.len());
    for e in events {
        let row = (aggs.iter())
            .map(|(_, a)| match agg_arg(a) {
                Some(x) => x.eval(schema, &e.payload),
                None => Ok(Value::Null),
            })
            .collect::<Result<Vec<_>>>()?;
        args.push(row);
    }
    let cuts: BTreeSet<Time> = (events.iter())
        .flat_map(|e| [e.lifetime.start, e.lifetime.end])
        .collect();
    let cuts: Vec<Time> = cuts.into_iter().collect();
    let mut out: Vec<Event> = Vec::new();
    // Where the current stretch of time with some event alive began.
    let mut burst: Option<Time> = None;
    for piece in cuts.windows(2) {
        let (from, to) = (piece[0], piece[1]);
        let alive: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].lifetime.contains(from))
            .collect();
        if alive.is_empty() {
            burst = None;
            continue;
        }
        let began = *burst.get_or_insert(from);
        let values = (aggs.iter().enumerate())
            .map(|(k, (name, a))| {
                // SUM answers a Double from the first Double it meets
                // until no event is alive any more.
                let met_double = matches!(a, AggExpr::Sum(_))
                    && (0..events.len()).any(|i| {
                        (began..=from).contains(&events[i].lifetime.start)
                            && matches!(args[i][k], Value::Double(_))
                    });
                agg_value(a, alive.iter().map(|&i| &args[i][k]), met_double).ok_or_else(|| {
                    TemporalError::SumOverflow {
                        aggregate: name.clone(),
                        at: from,
                    }
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let row = Row::new(values);
        match out.last_mut() {
            Some(prev) if prev.lifetime.end == from && prev.payload == row => {
                prev.lifetime = Lifetime::new(prev.lifetime.start, to);
            }
            _ => out.push(Event::new(Lifetime::new(from, to), row)),
        }
    }
    Ok(out)
}

fn agg_arg(a: &AggExpr) -> Option<&Expr> {
    match a {
        AggExpr::Count => None,
        AggExpr::Sum(x)
        | AggExpr::Min(x)
        | AggExpr::Max(x)
        | AggExpr::Avg(x)
        | AggExpr::StdDev(x)
        | AggExpr::CountDistinct(x) => Some(x),
    }
}

/// One aggregate over one snapshot's argument values. Nulls are ignored,
/// except by COUNT, which counts events; an empty SUM, AVG, STDDEV, MIN or
/// MAX is Null. SUM answers a Long unless `met_double`, added up exactly in
/// `i128`: `None` when the total does not fit a Long.
fn agg_value<'v>(
    a: &AggExpr,
    args: impl Iterator<Item = &'v Value>,
    met_double: bool,
) -> Option<Value> {
    let args: Vec<&Value> = args.collect();
    let present: Vec<&Value> = args.iter().copied().filter(|v| !v.is_null()).collect();
    let numbers: Vec<f64> = present.iter().filter_map(|v| v.as_double()).collect();
    let n = numbers.len() as f64;
    let sum: f64 = numbers.iter().sum();
    Some(match a {
        AggExpr::Count => Value::Long(args.len() as i64),
        AggExpr::Sum(_) if present.is_empty() => Value::Null,
        AggExpr::Sum(_) if met_double => Value::Double(sum),
        AggExpr::Sum(_) => {
            let total: i128 = present
                .iter()
                .filter_map(|v| v.as_long())
                .map(i128::from)
                .sum();
            Value::Long(i64::try_from(total).ok()?)
        }
        AggExpr::Min(_) => present.iter().min().map_or(Value::Null, |v| (*v).clone()),
        AggExpr::Max(_) => present.iter().max().map_or(Value::Null, |v| (*v).clone()),
        AggExpr::Avg(_) | AggExpr::StdDev(_) if numbers.is_empty() => Value::Null,
        AggExpr::Avg(_) => Value::Double(sum / n),
        AggExpr::StdDev(_) => {
            let mean = sum / n;
            let squares: f64 = numbers.iter().map(|x| x * x).sum();
            Value::Double((squares / n - mean * mean).max(0.0).sqrt())
        }
        AggExpr::CountDistinct(_) => {
            Value::Long(present.iter().collect::<BTreeSet<_>>().len() as i64)
        }
    })
}

/// The key-column positions of `keys` on each side.
fn key_positions(schemas: [&Schema; 2], keys: &[(String, String)]) -> Result<Vec<(usize, usize)>> {
    (keys.iter())
        .map(|(l, r)| Ok((schemas[0].index_of(l)?, schemas[1].index_of(r)?)))
        .collect()
}

fn keys_match(at: &[(usize, usize)], left: &Row, right: &Row) -> bool {
    at.iter().all(|&(l, r)| left.get(l) == right.get(r))
}

/// Every key-equal pair whose lifetimes overlap, over the intersection,
/// with the payloads concatenated (`out` is the joined schema the residual
/// reads).
pub fn temporal_join(
    schemas: [&Schema; 2],
    [left, right]: [&[Event]; 2],
    keys: &[(String, String)],
    residual: Option<&Expr>,
    out: &Schema,
) -> Result<Vec<Event>> {
    let at = key_positions(schemas, keys)?;
    let mut joined = Vec::new();
    for l in left {
        for r in right {
            if !keys_match(&at, &l.payload, &r.payload) {
                continue;
            }
            let Some(lifetime) = l.lifetime.intersect(&r.lifetime) else {
                continue;
            };
            let payload = l.payload.concat(&r.payload);
            if let Some(pred) = residual {
                if !pred.eval_predicate(out, &payload)? {
                    continue;
                }
            }
            joined.push(Event::new(lifetime, payload));
        }
    }
    Ok(joined)
}

/// Each left event over what is left of its lifetime once every matching
/// right event's lifetime is taken out, one event per surviving stretch.
pub fn anti_semi_join(
    schemas: [&Schema; 2],
    [left, right]: [&[Event]; 2],
    keys: &[(String, String)],
) -> Result<Vec<Event>> {
    let at = key_positions(schemas, keys)?;
    let mut out = Vec::new();
    for l in left {
        let holes: Vec<Lifetime> = (right.iter())
            .filter(|r| keys_match(&at, &l.payload, &r.payload))
            .map(|r| r.lifetime)
            .collect();
        let mut cuts: BTreeSet<Time> = [l.lifetime.start, l.lifetime.end].into();
        for h in &holes {
            cuts.extend(
                [h.start, h.end]
                    .into_iter()
                    .filter(|&t| l.lifetime.contains(t)),
            );
        }
        let cuts: Vec<Time> = cuts.into_iter().collect();
        let mut kept: Vec<Lifetime> = Vec::new();
        for piece in cuts.windows(2) {
            if holes.iter().any(|h| h.contains(piece[0])) {
                continue;
            }
            match kept.last_mut() {
                Some(prev) if prev.end == piece[0] => *prev = Lifetime::new(prev.start, piece[1]),
                _ => kept.push(Lifetime::new(piece[0], piece[1])),
            }
        }
        out.extend(kept.into_iter().map(|lt| Event::new(lt, l.payload.clone())));
    }
    Ok(out)
}

/// The UDO applied to every non-empty hopping window: the window reported
/// at grid instant `T` holds the events with `T - width < LE <= T`, handed
/// over as a batch in (LE, RE, payload) order, and the rows of the batch
/// it returns live `[T, T + hop)`.
fn hop_udo(
    schema: &Schema,
    events: &[Event],
    hop: Time,
    width: Time,
    udo: &UdoRef,
) -> Result<Vec<Event>> {
    let mut sorted = events.to_vec();
    sorted.sort();
    let mut instants = BTreeSet::new();
    for e in &sorted {
        let mut t = next_multiple(e.lifetime.start, hop);
        while t < e.lifetime.start + width {
            instants.insert(t);
            t += hop;
        }
    }
    let mut out = Vec::new();
    for t in instants {
        let window: Vec<Event> = (sorted.iter())
            .filter(|e| t - width < e.lifetime.start && e.lifetime.start <= t)
            .cloned()
            .collect();
        let window = EventBatch::from_events(schema.clone(), &window)?;
        for row in udo.apply(t, &window)?.to_rows() {
            out.push(Event::new(Lifetime::new(t, t + hop), row));
        }
    }
    Ok(out)
}

/// The output columns of `plan`'s root `root` an engine may compute with a
/// different rounding than the oracle: SUM, AVG and STDDEV over a Double
/// argument, found by name in every Aggregate of the plan and its
/// sub-plans. A running sum adds and retracts values as events come and go,
/// the oracle sums each snapshot afresh. Such a cell may differ by 1e-9 of
/// the larger of the two values and the column's largest magnitude.
#[derive(Debug, Clone, Default)]
pub struct Tolerance {
    /// Column positions compared to a relative 1e-9.
    sums: Vec<usize>,
    /// STDDEV column positions, compared as variances: a residue of ε in a
    /// running Σx² is √ε in a deviation that should be 0.
    deviations: Vec<usize>,
    /// Largest magnitude per column of a relation the compared ones are
    /// pieces of (see [`Tolerance::scaled_by`]).
    scales: Vec<f64>,
}

impl Tolerance {
    /// Exact comparison everywhere.
    pub fn exact() -> Self {
        Tolerance::default()
    }

    /// The Double-valued aggregate columns of `plan`'s output `root`.
    pub fn of(plan: &LogicalPlan, root: NodeId) -> Self {
        let mut names = (Vec::new(), Vec::new());
        collect_double_aggregates(plan, &mut names);
        let schema = plan.schema_of(root);
        let at = |names: &[String]| -> Vec<usize> {
            (schema.fields().iter().enumerate())
                .filter(|(_, f)| f.ty == ColumnType::Double && names.contains(&f.name))
                .map(|(i, _)| i)
                .collect()
        };
        Tolerance {
            sums: at(&names.0),
            deviations: at(&names.1),
            scales: Vec::new(),
        }
    }

    /// Take each column's magnitude from `whole` too: for comparing pieces
    /// of it, such as an online run's output per punctuation.
    pub fn scaled_by(mut self, whole: &EventStream) -> Self {
        self.scales = column_scales(whole.events(), whole.schema().len());
        self
    }

    fn is_exact(&self) -> bool {
        self.sums.is_empty() && self.deviations.is_empty()
    }
}

fn collect_double_aggregates(plan: &LogicalPlan, names: &mut (Vec<String>, Vec<String>)) {
    for node in plan.nodes() {
        match &node.op {
            Operator::GroupApply { subplan, .. } => collect_double_aggregates(subplan, names),
            Operator::Aggregate { aggs } => {
                let input = plan.schema_of(node.inputs[0]);
                for (name, a) in aggs {
                    let double = |x: &Expr| x.infer_type(input).ok() == Some(ColumnType::Double);
                    match a {
                        AggExpr::StdDev(x) if double(x) => names.1.push(name.clone()),
                        AggExpr::Sum(x) | AggExpr::Avg(x) if double(x) => {
                            names.0.push(name.clone())
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

/// A bag of events as a function of time: for every payload, its
/// multiplicity on each maximal stretch where that multiplicity is
/// constant and positive. Two bags denote the same relation exactly when
/// these are equal, however their events are cut.
fn multiplicities(events: &[Event]) -> Vec<(Row, Lifetime, i64)> {
    let mut deltas: BTreeMap<&Row, BTreeMap<Time, i64>> = BTreeMap::new();
    for e in events {
        let d = deltas.entry(&e.payload).or_default();
        *d.entry(e.lifetime.start).or_default() += 1;
        *d.entry(e.lifetime.end).or_default() -= 1;
    }
    let mut out: Vec<(Row, Lifetime, i64)> = Vec::new();
    for (row, d) in deltas {
        let (mut count, mut from) = (0i64, Time::MIN);
        for (t, delta) in d {
            if delta == 0 {
                continue;
            }
            let next = count + delta;
            if count > 0 {
                out.push((row.clone(), Lifetime::new(from, t), count));
            }
            (count, from) = (next, t);
        }
    }
    out
}

/// The largest magnitude of each numeric column of `events`.
fn column_scales(events: &[Event], columns: usize) -> Vec<f64> {
    let scale = |col: usize| {
        (events.iter())
            .filter_map(|e| e.payload.get(col).as_double())
            .fold(0.0f64, |m, x| m.max(x.abs()))
    };
    (0..columns).map(scale).collect()
}

/// `got` and `want` (the oracle's) hold the same schema and the same bag of
/// events at every instant, cells equal except where `tol` allows.
pub fn same_relation(
    got: &EventStream,
    want: &EventStream,
    tol: &Tolerance,
) -> std::result::Result<(), String> {
    if got.schema() != want.schema() {
        return Err(format!(
            "schema {} vs the oracle's {}",
            got.schema(),
            want.schema()
        ));
    }
    let (g, w) = (multiplicities(got.events()), multiplicities(want.events()));
    if g == w {
        return Ok(());
    }
    let diff = || {
        let missing: Vec<_> = w.iter().filter(|x| !g.contains(x)).take(4).collect();
        let extra: Vec<_> = g.iter().filter(|x| !w.contains(x)).take(4).collect();
        format!("relations differ: missing {missing:?}, unexpected {extra:?}")
    };
    if tol.is_exact() {
        return Err(diff());
    }
    // Instant by instant, pairing rows by their exact cells first.
    let both: Vec<Event> = got.events().iter().chain(want.events()).cloned().collect();
    let mut scales = column_scales(&both, got.schema().len());
    for (s, whole) in scales.iter_mut().zip(&tol.scales) {
        *s = s.max(*whole);
    }
    let sort_key = |row: &Row| {
        let (inexact, exact): (Vec<_>, Vec<_>) = (row.values().iter().enumerate())
            .partition(|(i, _)| tol.sums.contains(i) || tol.deviations.contains(i));
        let cells =
            |v: Vec<(usize, &Value)>| v.into_iter().map(|(_, c)| c.clone()).collect::<Vec<_>>();
        (cells(exact), cells(inexact))
    };
    let close = |col: usize, a: &Value, b: &Value| match (a, b) {
        (Value::Double(x), Value::Double(y)) if tol.deviations.contains(&col) => {
            (x * x - y * y).abs() <= 1e-9 * (x * x).max(y * y).max(scales[col] * scales[col])
        }
        (Value::Double(x), Value::Double(y)) if tol.sums.contains(&col) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(scales[col])
        }
        _ => a == b,
    };
    let cuts: BTreeSet<Time> = (got.events().iter().chain(want.events()))
        .flat_map(|e| [e.lifetime.start, e.lifetime.end])
        .collect();
    fn alive(events: &[Event], t: Time) -> Vec<&Row> {
        (events.iter())
            .filter(|e| e.lifetime.contains(t))
            .map(|e| &e.payload)
            .collect()
    }
    for t in cuts {
        let (mut a, mut b) = (alive(got.events(), t), alive(want.events(), t));
        a.sort_by_cached_key(|r| sort_key(r));
        b.sort_by_cached_key(|r| sort_key(r));
        let same = a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| (0..x.len()).all(|c| close(c, x.get(c), y.get(c))));
        if !same {
            return Err(format!("at {t}: {a:?} vs the oracle's {b:?}; {}", diff()));
        }
    }
    Ok(())
}
