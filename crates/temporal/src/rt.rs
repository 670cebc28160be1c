//! Incremental, push-based execution (real-time readiness, paper §VII).
//!
//! The paper's central promise is that temporal queries debugged and
//! back-tested over offline logs with TiMR "can work unmodified over
//! real-time streams". An [`RtSession`] accepts events one at a time in
//! arrival order, advances a low-watermark punctuation, and emits finalized
//! output as soon as the algebra guarantees it can no longer change: a
//! punctuation at `t` finalizes everything below `t − horizon`
//! ([`LogicalPlan::history_horizon`]), in clipped pieces that tile the
//! timeline across punctuations.
//!
//! The session carries state across punctuations. What runs where is
//! chosen once, at [`RtSession::new`], from the plan's shape:
//!
//! - **Per-event prefix.** Each source's longest chain of single-consumer,
//!   non-output Filter and Project steps (the lifetime-preserving head of
//!   its fused fragment) runs once over the events pushed since the last
//!   punctuation, on the batch executor. Only its output is kept.
//! - **Stateful grouped aggregate.** When what is left is a GroupApply over
//!   one source whose sub-plan is per-event steps ending in one Aggregate,
//!   each live group keeps its sweep — accumulators, active count, open
//!   segment ([`crate::operators::aggregate`]) — and the endpoints that are
//!   not yet final. A punctuation applies the endpoints below its boundary
//!   through the batch sweep's own per-instant step, emits the closed
//!   segments and the open one clipped at the boundary, and drops the
//!   groups with no live event. Nothing is re-evaluated.
//! - **Recompute.** Any other plan (joins, anti-semi-joins, unions,
//!   multicast sources, UDOs, SpreadGrid) is re-run after its prefixes over
//!   the retained prefix outputs at each punctuation; the normalized result
//!   is clipped to the new window, and inputs that can no longer matter are
//!   evicted. Eviction drops the retraction residue a float running sum
//!   carries, so such a plan with an order-sensitive aggregate (SUM over
//!   doubles, AVG, STDDEV) is refused at construction instead of publishing
//!   bytes that differ from batch.
//!
//! The paths share one late-event rule and one boundary, and each
//! punctuation's output equals the batch executor's over every event pushed
//! so far, normalized and clipped to the same window (`tests/integration_rt.rs`).
//! [`RtSession::explain`] names what runs where, and why.

use crate::agg::AggExpr;
use crate::compiled::CompiledExpr;
use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::exec::{execute_single, Bindings};
use crate::key::KeySelector;
use crate::operators::{fused_fragment_rows, fused_fragment_runs, Cut, Runs, Sweep};
use crate::plan::{
    fuse_plan, per_event_aggregate, step_desc, FusedStep, LifetimeOp, LogicalPlan, Operator,
    PerEventAggregate, PlanNode,
};
use crate::stream::EventStream;
use crate::time::{Duration, Lifetime, Time};
use relation::{ColumnType, Row, Schema, Value};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// An online execution session for a single-output plan.
#[derive(Debug)]
pub struct RtSession {
    /// One per source name: its per-event prefix and pending events.
    feeds: Vec<Feed>,
    /// What runs over the prefixes' output.
    body: Body,
    /// The latest punctuation: an event starting before it is late.
    watermark: Time,
    /// Output below this instant has been emitted; the next punctuation
    /// emits from here on.
    emitted_until: Time,
    /// How much history can still influence future output.
    horizon: Duration,
    out_schema: Schema,
    closed: bool,
}

/// One source of the plan.
#[derive(Debug)]
struct Feed {
    name: String,
    schema: Schema,
    /// `Source → FusedFragment` over the source's per-event prefix.
    prefix: Option<LogicalPlan>,
    /// Read by more than one operator, so it has no prefix.
    multicast: bool,
    /// Events pushed since the last successful punctuation.
    pending: Vec<Event>,
}

impl Feed {
    /// The prefix's output over `batch`, which the caller keeps.
    fn run(&self, batch: &EventStream) -> Result<EventStream> {
        match &self.prefix {
            None => Ok(batch.clone()),
            Some(prefix) => {
                let sources: Bindings = [(self.name.clone(), batch.clone())].into_iter().collect();
                execute_single(prefix, &sources)
            }
        }
    }

    fn prefix_steps(&self) -> Option<&[FusedStep]> {
        let prefix = self.prefix.as_ref()?;
        match &prefix.node(prefix.roots()[0]).op {
            Operator::FusedFragment { steps } => Some(steps),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum Body {
    Stateful(Grouped),
    Recompute(Recompute),
}

/// The plan left after the prefixes, re-run at every punctuation.
#[derive(Debug)]
struct Recompute {
    plan: LogicalPlan,
    /// Retained prefix outputs, one per feed.
    buffers: Vec<EventStream>,
    /// Why the plan has no stateful form, one reason per obstacle.
    reasons: Vec<String>,
}

/// A GroupApply whose sub-plan is per-event steps ending in one Aggregate,
/// over one source, kept as per-group sweeps.
#[derive(Debug)]
struct Grouped {
    keys: Vec<String>,
    key: KeySelector,
    /// Per-event steps between the source's prefix and the GroupApply.
    outer: Vec<FusedStep>,
    /// The sub-plan's per-event steps before its Aggregate.
    steps: Vec<FusedStep>,
    aggs: Vec<(String, AggExpr)>,
    args: Vec<Option<CompiledExpr>>,
    groups: FxHashMap<Vec<Value>, Group>,
    /// Arrival number of the next event to reach the aggregate.
    next_seq: u64,
}

/// One group's live state.
#[derive(Debug)]
struct Group {
    sweep: Sweep,
    /// Endpoints not yet applied, as `(t, is_start, arrival seq, argument
    /// values)`; sorted into the sweep's order at each punctuation.
    endpoints: Vec<(Time, bool, u64, Arc<[Value]>)>,
}

/// An event that reached the aggregate: its group key, lifetime and
/// argument values.
type Keyed = (Vec<Value>, Lifetime, Arc<[Value]>);

impl RtSession {
    /// Start a session for `plan` (must have exactly one output). Fails
    /// when the plan recomputes an order-sensitive aggregate (see the
    /// module docs).
    pub fn new(plan: LogicalPlan) -> Result<Self> {
        if plan.roots().len() != 1 {
            return Err(TemporalError::Plan(
                "real-time sessions require a single-output plan".into(),
            ));
        }
        let out_schema = plan.schema_of(plan.roots()[0]).clone();
        // The sum of window extents is a safe (if conservative) bound for
        // chained windows.
        let horizon: Duration = plan.history_horizon();
        let plan = fuse_plan(&plan)?;
        let (feeds, rest) = cut_prefixes(&plan)?;
        let reasons = obstacles(&rest, &feeds);
        let body = if reasons.is_empty() {
            Body::Stateful(Grouped::new(&rest)?)
        } else {
            if let Some(agg) = order_sensitive(&rest) {
                return Err(TemporalError::Plan(format!(
                    "order-sensitive aggregate {agg} in a recomputed real-time plan ({}): \
                     re-evaluating it over the retained events would differ from batch",
                    reasons.join("; ")
                )));
            }
            let sources = rest.sources();
            let buffers = feeds
                .iter()
                .map(|f| {
                    let (_, schema) = sources
                        .iter()
                        .find(|(n, _)| *n == f.name)
                        .expect("every plan source is read by the plan left after the prefixes");
                    EventStream::empty((*schema).clone())
                })
                .collect();
            Body::Recompute(Recompute {
                plan: rest,
                buffers,
                reasons,
            })
        };
        Ok(RtSession {
            feeds,
            body,
            watermark: Time::MIN,
            emitted_until: Time::MIN,
            horizon,
            out_schema,
            closed: false,
        })
    }

    /// The output schema.
    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// What runs where: each source's per-event prefix, whether the output
    /// is a stateful aggregate, and why anything is recomputed.
    pub fn explain(&self) -> String {
        let mut lines = Vec::new();
        for f in &self.feeds {
            lines.push(match (f.prefix_steps(), f.multicast) {
                (Some(steps), _) => {
                    let steps: Vec<String> = steps.iter().map(step_desc).collect();
                    format!(
                        "source `{}`: per-event prefix [{}]",
                        f.name,
                        steps.join("; ")
                    )
                }
                (None, true) => format!(
                    "source `{}`: no per-event prefix (multicast source)",
                    f.name
                ),
                (None, false) => format!(
                    "source `{}`: no per-event prefix (no Filter or Project follows it)",
                    f.name
                ),
            });
        }
        match &self.body {
            Body::Stateful(g) => {
                let aggs: Vec<String> = g.aggs.iter().map(|(n, a)| format!("{n}={a}")).collect();
                lines.push(format!(
                    "stateful: GroupApply ({}) keeps per-group accumulators for [{}]",
                    g.keys.join(", "),
                    aggs.join(", ")
                ));
                lines.push("recomputed: nothing".into());
            }
            Body::Recompute(r) => {
                lines.push("stateful: nothing".into());
                lines.push(format!(
                    "recomputed over the retained events at every punctuation: {}",
                    r.reasons.join("; ")
                ));
            }
        }
        lines.join("\n")
    }

    /// Feed one event into the named source. Events may arrive in any order
    /// as long as they are not older than an already-issued punctuation
    /// (late events are rejected, mirroring DSMS time-progress rules).
    pub fn push(&mut self, source: &str, event: Event) -> Result<()> {
        self.check_open()?;
        if event.start() < self.watermark {
            return Err(TemporalError::Input(format!(
                "late event at {} behind punctuation {}",
                event.start(),
                self.watermark
            )));
        }
        let feed = self
            .feeds
            .iter_mut()
            .find(|f| f.name == source)
            .ok_or_else(|| TemporalError::Input(format!("unknown source `{source}`")))?;
        feed.pending.push(event);
        Ok(())
    }

    /// Advance application time to `t`, promising no further events with
    /// timestamps `< t`. Returns newly finalized output: the portion of the
    /// output lying in `[emitted_until, t - horizon)` — nothing there can be
    /// affected by future input — in pieces clipped to that window, so a
    /// straddling event comes out in pieces whose union is the offline
    /// event. A failed punctuation changes nothing: the same call fails the
    /// same way again.
    pub fn punctuate(&mut self, t: Time) -> Result<Vec<Event>> {
        self.check_open()?;
        let watermark = self.watermark.max(t);
        let until = watermark
            .saturating_sub(self.horizon)
            .max(self.emitted_until);
        let out = self.advance(until)?;
        self.watermark = watermark;
        Ok(out)
    }

    /// Finish the stream: flush everything at or after the emitted
    /// boundary. The session accepts nothing afterwards.
    pub fn close(&mut self) -> Result<Vec<Event>> {
        self.check_open()?;
        let out = self.advance(Time::MAX)?;
        self.closed = true;
        Ok(out)
    }

    fn check_open(&self) -> Result<()> {
        if self.closed {
            return Err(TemporalError::Input("real-time session closed".into()));
        }
        Ok(())
    }

    /// Run the prefixes over the pending events and emit the output in
    /// `[emitted_until, until)`. All or nothing: on error the pending events
    /// and the retained state are as they were.
    fn advance(&mut self, until: Time) -> Result<Vec<Event>> {
        let batches: Vec<EventStream> = self
            .feeds
            .iter_mut()
            .map(|f| EventStream::new(f.schema.clone(), std::mem::take(&mut f.pending)))
            .collect();
        let from = self.emitted_until;
        let fed = self
            .feeds
            .iter()
            .zip(&batches)
            .map(|(f, batch)| f.run(batch))
            .collect::<Result<Vec<_>>>();
        let out = fed.and_then(|fed| match &mut self.body {
            Body::Stateful(g) => {
                let fed = fed
                    .into_iter()
                    .next()
                    .expect("a stateful plan reads one source");
                let keyed = g.feed(fed)?;
                Ok(g.advance(keyed, from, until))
            }
            Body::Recompute(r) => r.advance(&self.feeds, fed, from, until, self.horizon),
        });
        match out {
            Ok(mut out) => {
                out.sort();
                self.emitted_until = until;
                Ok(out)
            }
            Err(err) => {
                for (f, batch) in self.feeds.iter_mut().zip(batches) {
                    f.pending = batch.into_events();
                }
                Err(err)
            }
        }
    }
}

impl Grouped {
    /// The stateful form of `rest`, which [`obstacles`] found none in.
    fn new(rest: &LogicalPlan) -> Result<Grouped> {
        let root = rest.node(rest.roots()[0]);
        let Operator::GroupApply { keys, subplan } = &root.op else {
            unreachable!("an unobstructed plan is a GroupApply at the output")
        };
        let PerEventAggregate {
            steps,
            input: agg_input,
            aggs,
        } = stateful_aggregate(subplan).map_err(TemporalError::Plan)?;
        let mut outer = Vec::new();
        let mut id = root.inputs[0];
        while let Operator::FusedFragment { steps } = &rest.node(id).op {
            outer.splice(0..0, steps.iter().cloned());
            id = rest.node(id).inputs[0];
        }
        let args = aggs.iter().map(|(_, a)| a.compile_arg(agg_input)).collect();
        Ok(Grouped {
            keys: keys.clone(),
            key: KeySelector::new(rest.schema_of(root.inputs[0]), keys)?,
            outer,
            steps,
            aggs: aggs.to_vec(),
            args,
            groups: FxHashMap::default(),
            next_seq: 0,
        })
    }

    /// Run the per-event steps over the source's prefix output and evaluate
    /// the aggregate's arguments. Reads no state, so an error leaves it
    /// untouched.
    fn feed(&self, input: EventStream) -> Result<Vec<Keyed>> {
        let input = match self.outer.is_empty() {
            true => input,
            false => fused_fragment_rows(input, &self.outer)?,
        };
        let keys: Vec<Vec<Value>> = input
            .events()
            .iter()
            .map(|e| self.key.extract(&e.payload))
            .collect();
        // One run per event, so each survivor of the sub-plan's steps stays
        // beside its key.
        let runs = Runs {
            bounds: (0..=input.len()).collect(),
            stream: input,
        };
        let mut cut = Cut::none();
        let runs = fused_fragment_runs(runs, &self.steps, &mut cut)?;
        if let Some(err) = cut.err {
            return Err(err);
        }
        let events = runs.stream.events();
        let mut keyed = Vec::with_capacity(events.len());
        for (key, run) in keys.into_iter().zip(runs.bounds.windows(2)) {
            debug_assert!(
                run[1] - run[0] <= 1,
                "per-event steps keep at most the event"
            );
            if run[0] == run[1] {
                continue;
            }
            let e = &events[run[0]];
            let args = self
                .args
                .iter()
                .map(|c| c.as_ref().map_or(Ok(Value::Null), |c| c.eval(&e.payload)))
                .collect::<Result<Arc<[Value]>>>()?;
            keyed.push((key, e.lifetime, args));
        }
        Ok(keyed)
    }

    /// Add `keyed` to the groups, then sweep every group up to `until`:
    /// the segments it closes and its open segment, clipped to
    /// `[from, until)`. A group with no live event left is dropped.
    fn advance(&mut self, keyed: Vec<Keyed>, from: Time, until: Time) -> Vec<Event> {
        for (key, lifetime, args) in keyed {
            let seq = self.next_seq;
            self.next_seq += 1;
            let group = self.groups.entry(key).or_insert_with(|| Group {
                sweep: Sweep::new(&self.aggs),
                endpoints: Vec::new(),
            });
            group
                .endpoints
                .push((lifetime.start, true, seq, args.clone()));
            group.endpoints.push((lifetime.end, false, seq, args));
        }
        let mut out = Vec::new();
        let mut emit = |key: &[Value], start: Time, end: Time, row: &Row| {
            let start = start.max(from);
            if start < end {
                let payload = Row::new(key.iter().chain(row.values()).cloned().collect());
                out.push(Event::new(Lifetime::new(start, end), payload));
            }
        };
        self.groups.retain(|key, g| {
            g.endpoints
                .sort_unstable_by_key(|&(t, is_start, seq, _)| (t, is_start, seq));
            let due = g.endpoints.partition_point(|e| e.0 < until);
            let mut at = 0;
            while at < due {
                let t = g.endpoints[at].0;
                let at_t = g.endpoints[at..due].iter().take_while(|e| e.0 == t).count();
                let changes = g.endpoints[at..at + at_t]
                    .iter()
                    .map(|(_, s, _, a)| (*s, &a[..]));
                if let Some(closed) = g.sweep.instant(t, changes) {
                    emit(key, closed.start(), closed.end(), &closed.payload);
                }
                at += at_t;
            }
            g.endpoints.drain(..due);
            if let Some((start, row)) = g.sweep.open() {
                emit(key, *start, until, row);
            }
            g.sweep.open().is_some() || !g.endpoints.is_empty()
        });
        out
    }
}

impl Recompute {
    /// Retain the prefixes' new output, re-run the plan over everything
    /// retained and clip its normalized result to `[from, until)`, then
    /// evict what can no longer reach output past `until`.
    fn advance(
        &mut self,
        feeds: &[Feed],
        fed: Vec<EventStream>,
        from: Time,
        until: Time,
        horizon: Duration,
    ) -> Result<Vec<Event>> {
        let marks: Vec<usize> = self.buffers.iter().map(EventStream::len).collect();
        for (buffer, fed) in self.buffers.iter_mut().zip(fed) {
            buffer.events_mut().extend(fed.into_events());
        }
        let mut out = Vec::new();
        if from < until {
            // The bindings share the buffers: the executor copies only what
            // its first operator keeps.
            let sources: Bindings = feeds
                .iter()
                .zip(&self.buffers)
                .map(|(f, b)| (f.name.clone(), b.clone()))
                .collect();
            let result = execute_single(&self.plan, &sources);
            drop(sources);
            let window = Lifetime::new(from, until);
            match result {
                Ok(result) => {
                    out = result
                        .normalize()
                        .into_events()
                        .into_iter()
                        .filter_map(|mut e| {
                            e.lifetime = e.lifetime.intersect(&window)?;
                            Some(e)
                        })
                        .collect();
                }
                Err(err) => {
                    for (buffer, mark) in self.buffers.iter_mut().zip(marks) {
                        buffer.events_mut().truncate(mark);
                    }
                    return Err(err);
                }
            }
        }
        // An input whose whole influence window is below `until` can no
        // longer contribute to unemitted output.
        for buffer in &mut self.buffers {
            buffer
                .events_mut()
                .retain(|e| e.end().saturating_add(horizon) > until);
        }
        Ok(out)
    }
}

/// Cut each source's per-event prefix off the fused `plan`. Returns one
/// feed per source name and the plan left, whose `Source` leaves read the
/// prefixes' outputs.
fn cut_prefixes(plan: &LogicalPlan) -> Result<(Vec<Feed>, LogicalPlan)> {
    let mut refs: FxHashMap<&str, usize> = FxHashMap::default();
    count_sources(plan, &mut refs);
    let chains = |id| plan.consumers(id).len() == 1 && !plan.roots().contains(&id);
    let mut nodes = plan.nodes().to_vec();
    let mut feeds: Vec<Feed> = Vec::new();
    for (id, node) in plan.nodes().iter().enumerate() {
        let Operator::Source { name, schema } = &node.op else {
            continue;
        };
        if feeds.iter().any(|f| f.name == *name) {
            continue;
        }
        let mut feed = Feed {
            name: name.clone(),
            schema: schema.clone(),
            prefix: None,
            multicast: refs[name.as_str()] > 1 || plan.consumers(id).len() > 1,
            pending: Vec::new(),
        };
        // Absorb whole fragments while every step keeps lifetimes; the
        // first fragment that alters them gives up its leading steps only.
        let (mut prefix, mut tail, mut split) = (Vec::new(), id, None);
        while !feed.multicast && chains(tail) {
            let next = plan.consumers(tail)[0];
            let Operator::FusedFragment { steps } = &plan.node(next).op else {
                break;
            };
            if !chains(next) {
                break;
            }
            let keep = steps
                .iter()
                .take_while(|s| !matches!(s, FusedStep::AlterLifetime { .. }))
                .count();
            prefix.extend_from_slice(&steps[..keep]);
            if keep < steps.len() {
                if keep > 0 {
                    split = Some((next, steps[keep..].to_vec()));
                }
                break;
            }
            tail = next;
        }
        if !prefix.is_empty() {
            let prefix_plan = LogicalPlan::from_parts(
                vec![
                    PlanNode {
                        op: Operator::Source {
                            name: name.clone(),
                            schema: schema.clone(),
                        },
                        inputs: vec![],
                    },
                    PlanNode {
                        op: Operator::FusedFragment { steps: prefix },
                        inputs: vec![0],
                    },
                ],
                vec![1],
            )?;
            nodes[tail] = PlanNode {
                op: Operator::Source {
                    name: name.clone(),
                    schema: prefix_plan.schema_of(1).clone(),
                },
                inputs: vec![],
            };
            if let Some((fragment, steps)) = split {
                nodes[fragment].op = Operator::FusedFragment { steps };
            }
            feed.prefix = Some(prefix_plan);
        }
        feeds.push(feed);
    }
    Ok((feeds, LogicalPlan::from_reachable(nodes, plan.roots())?))
}

/// `Source` references per name, sub-plans included.
fn count_sources<'p>(plan: &'p LogicalPlan, refs: &mut FxHashMap<&'p str, usize>) {
    for node in plan.nodes() {
        match &node.op {
            Operator::Source { name, .. } => *refs.entry(name).or_default() += 1,
            Operator::GroupApply { subplan, .. } => count_sources(subplan, refs),
            _ => {}
        }
    }
}

/// Why the plan left after the prefixes has no stateful form; empty when it
/// is a GroupApply over one source's per-event steps whose sub-plan is
/// per-event steps ending in one Aggregate.
fn obstacles(rest: &LogicalPlan, feeds: &[Feed]) -> Vec<String> {
    let mut why: Vec<String> = feeds
        .iter()
        .filter(|f| f.multicast)
        .map(|f| format!("multicast source `{}`", f.name))
        .collect();
    let root = rest.roots()[0];
    for (id, node) in rest.nodes().iter().enumerate() {
        why.extend(match &node.op {
            Operator::GroupApply { subplan, .. } if id == root => stateful_aggregate(subplan).err(),
            op if id == root => Some(format!("{} at the output has no stateful form", op.name())),
            Operator::Source { .. } => None,
            Operator::FusedFragment { steps } => steps
                .iter()
                .any(shifts_back)
                .then(|| BACKWARD_SHIFT.to_string()),
            Operator::GroupApply { .. } => {
                Some("GroupApply below the output has no stateful form".into())
            }
            Operator::Aggregate { .. } => {
                Some("Aggregate outside a GroupApply has no stateful form".into())
            }
            op => Some(format!("{} has no stateful form", op.name())),
        });
    }
    why
}

const BACKWARD_SHIFT: &str = "a backward Shift moves lifetimes behind the punctuation";

fn shifts_back(step: &FusedStep) -> bool {
    matches!(step, FusedStep::AlterLifetime { op: LifetimeOp::Shift(d) } if *d < 0)
}

/// The sub-plan's per-event aggregate ([`per_event_aggregate`]) when the
/// session can keep it as per-group state, or why not.
fn stateful_aggregate(subplan: &LogicalPlan) -> std::result::Result<PerEventAggregate<'_>, String> {
    let shape = per_event_aggregate(subplan)?;
    if shape.steps.iter().any(shifts_back) {
        return Err(BACKWARD_SHIFT.into());
    }
    Ok(shape)
}

/// The first aggregate in `plan` whose value depends on the order its
/// inputs were added and retracted in: a float running sum.
fn order_sensitive(plan: &LogicalPlan) -> Option<String> {
    plan.nodes().iter().find_map(|node| match &node.op {
        Operator::Aggregate { aggs } => {
            let input = plan.schema_of(node.inputs[0]);
            aggs.iter().find_map(|(name, agg)| {
                let sensitive = match agg {
                    AggExpr::Sum(e) => matches!(e.infer_type(input), Ok(ColumnType::Double)),
                    AggExpr::Avg(_) | AggExpr::StdDev(_) => true,
                    _ => false,
                };
                sensitive.then(|| format!("{name}={agg}"))
            })
        }
        Operator::GroupApply { subplan, .. } => order_sensitive(subplan),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::bindings;
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("AdId", ColumnType::Str),
        ])
    }

    fn click(t: i64, ad: &str) -> Event {
        Event::point(t, row![t, 1i32, ad])
    }

    fn plan() -> LogicalPlan {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").eq(lit(1)))
            .group_apply(&["AdId"], |g| g.window(10).count("N"));
        q.build(vec![out]).unwrap()
    }

    #[test]
    fn online_equals_offline() {
        let events = vec![click(1, "a"), click(4, "a"), click(9, "b"), click(25, "a")];

        // Offline (batch) execution.
        let offline = execute_single(
            &plan(),
            &bindings(vec![("in", EventStream::new(schema(), events.clone()))]),
        )
        .unwrap()
        .normalize();

        // Online execution with punctuation every tick.
        let mut session = RtSession::new(plan()).unwrap();
        let mut online = Vec::new();
        for e in &events {
            session.push("in", e.clone()).unwrap();
            online.extend(session.punctuate(e.start()).unwrap());
        }
        online.extend(session.close().unwrap());

        let online_stream = EventStream::new(offline.schema().clone(), online).normalize();
        assert_eq!(offline.events(), online_stream.events());
    }

    #[test]
    fn late_events_are_rejected() {
        let mut session = RtSession::new(plan()).unwrap();
        session.push("in", click(100, "a")).unwrap();
        session.punctuate(100).unwrap();
        assert!(session.push("in", click(5, "a")).is_err());
    }

    #[test]
    fn no_duplicate_emission_across_punctuations() {
        let mut session = RtSession::new(plan()).unwrap();
        session.push("in", click(1, "a")).unwrap();
        let mut all = Vec::new();
        for t in 1..60 {
            all.extend(session.punctuate(t).unwrap());
        }
        all.extend(session.close().unwrap());
        // Emitted pieces tile the offline event without overlap: their
        // total duration equals the normalized (coalesced) duration.
        let stream = EventStream::new(session.output_schema().clone(), all.clone());
        let normalized = stream.normalize();
        assert_eq!(normalized.len(), 1);
        let piece_total: i64 = all.iter().map(|e| e.lifetime.duration()).sum();
        assert_eq!(piece_total, normalized.events()[0].lifetime.duration());
        // The single count event covers [1, 11).
        assert_eq!(
            normalized.events()[0].lifetime,
            crate::time::Lifetime::new(1, 11)
        );
    }

    #[test]
    fn running_click_count_recomputes_nothing() {
        let session = RtSession::new(plan()).unwrap();
        assert!(matches!(session.body, Body::Stateful(_)));
        assert_eq!(
            session.explain(),
            "source `in`: per-event prefix [Filter (StreamId = 1)]\n\
             stateful: GroupApply (AdId) keeps per-group accumulators for [N=COUNT()]\n\
             recomputed: nothing"
        );
    }

    #[test]
    fn a_join_recomputes_and_says_why() {
        let q = Query::new();
        let input = q.source("in", schema());
        let counts = input
            .clone()
            .filter(col("StreamId").eq(lit(2)))
            .group_apply(&["AdId"], |g| g.window(10).count("N"));
        let out = input.temporal_join(counts, &[("AdId", "AdId")], None);
        let session = RtSession::new(q.build(vec![out]).unwrap()).unwrap();
        assert!(matches!(session.body, Body::Recompute(_)));
        let explain = session.explain();
        assert!(explain.contains("(multicast source)"), "{explain}");
        assert!(
            explain.ends_with(
                "multicast source `in`; GroupApply below the output has no stateful form; \
                 TemporalJoin at the output has no stateful form"
            ),
            "{explain}"
        );
    }

    fn double_schema() -> Schema {
        Schema::new(vec![
            Field::new("K", ColumnType::Str),
            Field::new("X", ColumnType::Double),
        ])
    }

    fn sample(t: i64, x: f64) -> Event {
        Event::point(t, row!["a", x])
    }

    #[test]
    fn a_stateful_double_sum_keeps_the_residue_of_evicted_events() {
        // 0.1 + 0.2 - 0.1 leaves a residue in the running sum that batch
        // carries into [15, 22); re-evaluating after 0.1 was evicted lost it.
        let q = Query::new();
        let out = q.source("in", double_schema()).group_apply(&["K"], |g| {
            g.window(10)
                .aggregate(vec![("S".into(), AggExpr::Sum(col("X")))])
        });
        let plan = q.build(vec![out]).unwrap();
        let events = [sample(0, 0.1), sample(5, 0.2), sample(12, 0.01)];
        let mut session = RtSession::new(plan.clone()).unwrap();
        for e in &events {
            session.push("in", e.clone()).unwrap();
        }
        let mut online = session.punctuate(25).unwrap();
        session.push("in", sample(30, 1.0)).unwrap();
        online.extend(session.close().unwrap());

        let mut all = events.to_vec();
        all.push(sample(30, 1.0));
        let batch = execute_single(
            &plan,
            &bindings(vec![("in", EventStream::new(double_schema(), all))]),
        )
        .unwrap()
        .normalize();
        let burst_tail = Event::interval(15, 22, row!["a", 0.010000000000000037f64]);
        assert!(batch.events().contains(&burst_tail), "{batch}");
        let online = EventStream::new(batch.schema().clone(), online).normalize();
        assert_eq!(online, batch);
    }

    #[test]
    fn a_recomputed_order_sensitive_aggregate_is_refused() {
        // A filter after the aggregate has no stateful form, so the sum
        // would be recomputed over the retained events.
        let q = Query::new();
        let out = q.source("in", double_schema()).group_apply(&["K"], |g| {
            g.window(10)
                .aggregate(vec![("S".into(), AggExpr::Sum(col("X")))])
                .filter(col("S").gt(lit(0.5)))
        });
        let err = RtSession::new(q.build(vec![out]).unwrap()).unwrap_err();
        assert!(
            matches!(&err, TemporalError::Plan(m) if m.starts_with("order-sensitive aggregate S=SUM(X)")),
            "{err}"
        );
    }

    #[test]
    fn a_closed_session_refuses_everything() {
        let mut session = RtSession::new(plan()).unwrap();
        session.push("in", click(1, "a")).unwrap();
        assert_eq!(session.close().unwrap().len(), 1);
        let closed = TemporalError::Input("real-time session closed".into());
        assert_eq!(session.push("in", click(30, "a")), Err(closed.clone()));
        assert_eq!(session.punctuate(40), Err(closed.clone()));
        assert_eq!(session.close(), Err(closed));
    }

    /// A plan whose prefix fails on a `StreamId` that is not a number and
    /// whose aggregate fails on a `Time` that is not one.
    fn failing_plan() -> LogicalPlan {
        let q = Query::new();
        let out = q
            .source("in", schema())
            .filter(col("StreamId").add(lit(1)).gt(lit(0)))
            .group_apply(&["AdId"], |g| {
                g.window(10)
                    .aggregate(vec![("S".into(), AggExpr::Sum(col("Time").add(lit(1i64))))])
            });
        q.build(vec![out]).unwrap()
    }

    #[test]
    fn a_failed_punctuation_loses_nothing() {
        for bad in [row![7i64, "x", "a"], row!["x", 1i32, "a"]] {
            let mut session = RtSession::new(failing_plan()).unwrap();
            session.push("in", click(1, "a")).unwrap();
            session.punctuate(5).unwrap();
            session.push("in", click(6, "b")).unwrap();
            session.push("in", Event::point(7, bad)).unwrap();
            let before = format!("{session:?}");
            let err = session.punctuate(20).unwrap_err();
            assert!(matches!(err, TemporalError::Eval(_)), "{err}");
            assert_eq!(format!("{session:?}"), before);
            assert_eq!(session.punctuate(20).unwrap_err(), err);
            assert_eq!(format!("{session:?}"), before);
        }
    }

    #[test]
    fn retained_state_is_bounded_by_the_horizon() {
        let recompute = {
            let q = Query::new();
            let out = q.source("in", schema()).group_apply(&["AdId"], |g| {
                g.window(10).count("N").filter(col("N").gt(lit(1i64)))
            });
            q.build(vec![out]).unwrap()
        };
        for plan in [plan(), recompute] {
            let mut session = RtSession::new(plan).unwrap();
            for t in [1, 4, 9, 25] {
                session.push("in", click(t, "a")).unwrap();
                session.push("in", click(t, "b")).unwrap();
                session.punctuate(t).unwrap();
            }
            // The last event ends at 26, its window at 36.
            session.punctuate(26 + 10 + 10).unwrap();
            assert!(session.feeds.iter().all(|f| f.pending.is_empty()));
            match &session.body {
                Body::Stateful(g) => assert!(g.groups.is_empty(), "{:?}", g.groups),
                Body::Recompute(r) => assert!(r.buffers.iter().all(EventStream::is_empty)),
            }
        }
    }
}
