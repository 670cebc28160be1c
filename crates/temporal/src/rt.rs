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
//!   punctuation, laid out once as a batch, through the fused kernel. Only
//!   its output is kept. A pushed event is checked against its source's
//!   schema at [`RtSession::push`], so the batch always has its columns.
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
//!   the retained prefix outputs — batches, appended to at each punctuation
//!   and compacted by eviction — at each punctuation; the normalized result
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
use crate::batch::EventBatch;
use crate::compiled::CompiledExpr;
use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::exec::{execute, BatchBindings};
use crate::key::KeySelector;
use crate::operators::{
    batch_args, fused_fragment, fused_select, Cut, ErrorOrder, Selection, Sweep,
};
use crate::plan::{
    fuse_plan, per_event_aggregate, step_desc, FusedStep, LifetimeOp, LogicalPlan, Operator,
    PerEventAggregate, PlanNode,
};
use crate::time::{Duration, Lifetime, Time};
use relation::{ColumnType, Row, Schema, Value};
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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
    /// The stateful aggregate's overflow, which ends the session.
    failed: Option<TemporalError>,
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
    /// The pending events laid out as a batch, and the prefix run over it.
    /// The pending events stay until the punctuation succeeds.
    ///
    /// Filters that lead the prefix run first, over a batch of only the
    /// columns they read; the other columns — strings interned cell by
    /// cell — are laid out for the events that pass, and the rest of the
    /// prefix runs over those. A filter cannot fail (its predicate was
    /// typed when the plan was built), so running it first changes no
    /// answer.
    fn run(&self) -> Result<EventBatch> {
        let what = format!("source `{}`", self.name);
        let schema = self.schema.clone();
        let steps = prefix_steps(&self.prefix).unwrap_or(&[]);
        let lead = (steps.iter())
            .take_while(|s| matches!(s, FusedStep::Filter { .. }))
            .count();
        // With no leading filter, every column counts as read.
        let mut reads = vec![lead == 0; schema.len()];
        for step in &steps[..lead] {
            if let FusedStep::Filter { predicate } = step {
                for name in predicate.referenced_columns() {
                    reads[schema.index_of(name)?] = true;
                }
            }
        }
        let (events, rest): (Vec<&Event>, _) = match reads.iter().all(|&r| r) {
            true => (self.pending.iter().collect(), steps),
            false => {
                let narrow =
                    EventBatch::lay_out(&what, schema.clone(), &self.pending, Some(&reads))?;
                let Selection { sel, .. } = fused_select(narrow, &steps[..lead], None, None)?;
                let passed = match sel {
                    None => self.pending.iter().collect(),
                    Some(sel) => sel.iter().map(|&i| &self.pending[i as usize]).collect(),
                };
                (passed, &steps[lead..])
            }
        };
        let batch = EventBatch::lay_out(&what, schema, &events, None)?;
        match rest {
            [] => Ok(batch),
            rest => fused_fragment(batch, rest),
        }
    }
}

/// The steps of a feed's per-event prefix, if it has one.
fn prefix_steps(prefix: &Option<LogicalPlan>) -> Option<&[FusedStep]> {
    let prefix = prefix.as_ref()?;
    match &prefix.node(prefix.roots()[0]).op {
        Operator::FusedFragment { steps } => Some(steps),
        _ => None,
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
    buffers: Vec<EventBatch>,
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
    /// A new group's sweep.
    fresh: Sweep,
    groups: HashMap<GroupKey, Group, BuildHasherDefault<FxHasher>>,
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

/// A group's key with its hash ([`KeySelector::group_hashes`]), which is
/// all the map hashes: a string key cell's hash is its dictionary's cached
/// one, so no key byte is hashed per event.
#[derive(Debug, PartialEq, Eq)]
struct GroupKey {
    hash: u64,
    key: Vec<Value>,
}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// An event that reached the aggregate: its group key, lifetime and
/// argument values.
type Keyed = (GroupKey, Lifetime, Arc<[Value]>);

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
                    EventBatch::empty((*schema).clone())
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
            failed: None,
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
            lines.push(match (prefix_steps(&f.prefix), f.multicast) {
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
    /// An event whose payload does not fit the source's schema — the wrong
    /// arity, or a cell that does not inhabit its column's type — is
    /// refused with [`TemporalError::Input`], and the session goes on
    /// without it.
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
        event.payload.check(&feed.schema).map_err(|err| {
            TemporalError::Input(format!(
                "source `{source}`: event at {}: {err}",
                event.start()
            ))
        })?;
        feed.pending.push(event);
        Ok(())
    }

    /// Advance application time to `t`, promising no further events with
    /// timestamps `< t`. Returns newly finalized output: the portion of the
    /// output lying in `[emitted_until, t - horizon)` — nothing there can be
    /// affected by future input — in pieces clipped to that window, so a
    /// straddling event comes out in pieces whose union is the offline
    /// event. A failed punctuation changes nothing: the same call fails the
    /// same way again. The one exception is a snapshot of the stateful
    /// aggregate whose integer SUM leaves `i64`: groups swept before it
    /// have moved on, so the session ends there, and this and every later
    /// call fail with its [`TemporalError::SumOverflow`] (the lowest
    /// failing group's in key order).
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
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        if self.closed {
            return Err(TemporalError::Input("real-time session closed".into()));
        }
        Ok(())
    }

    /// Run the prefixes over the pending events and emit the output in
    /// `[emitted_until, until)`. All or nothing: on error the pending events
    /// and the retained state are as they were — except for a SUM overflow
    /// in the stateful sweep, which ends the session ([`Self::punctuate`]).
    fn advance(&mut self, until: Time) -> Result<Vec<Event>> {
        let from = self.emitted_until;
        let failed = &mut self.failed;
        let fed = self.feeds.iter().map(Feed::run).collect::<Result<Vec<_>>>();
        let out = fed.and_then(|fed| match &mut self.body {
            Body::Stateful(g) => {
                let fed = fed
                    .into_iter()
                    .next()
                    .expect("a stateful plan reads one source");
                let keyed = g.feed(fed)?;
                g.advance(keyed, from, until)
                    .inspect_err(|err| *failed = Some(err.clone()))
            }
            Body::Recompute(r) => r.advance(&self.feeds, fed, from, until, self.horizon),
        });
        let mut out = out?;
        out.sort();
        self.emitted_until = until;
        self.feeds.iter_mut().for_each(|f| f.pending.clear());
        Ok(out)
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
        let args = (aggs.iter())
            .map(|(_, a)| a.compile_arg(agg_input))
            .collect::<Result<_>>()?;
        Ok(Grouped {
            keys: keys.clone(),
            key: KeySelector::new(rest.schema_of(root.inputs[0]), keys)?,
            outer,
            steps,
            aggs: aggs.to_vec(),
            args,
            fresh: Sweep::new(aggs, agg_input)?,
            groups: HashMap::default(),
            next_seq: 0,
        })
    }

    /// Run the per-event steps over the source's prefix output and evaluate
    /// the aggregate's arguments. Reads no state, so an error leaves it
    /// untouched. The sub-plan's steps see each event as a group of its
    /// own, so an error is the earliest event's, at its first failing step;
    /// each survivor is mapped back to its input event, and so to its key,
    /// through the fragment's selection and origin.
    fn feed(&self, input: EventBatch) -> Result<Vec<Keyed>> {
        let input = match self.outer.is_empty() {
            true => input,
            false => fused_fragment(input, &self.outer)?,
        };
        let keys = input.shared_payload();
        let n = input.len() as u32;
        let each_its_own = || (0..n).map(|i| (i, i)).collect();
        let mut cut = Cut::none();
        let order = ErrorOrder::new(&each_its_own, &mut cut);
        let Selection { batch, sel, origin } = fused_select(input, &self.steps, None, Some(order))?;
        if let Some(err) = cut.err {
            return Err(err);
        }
        let args = batch_args(batch.payload(), sel.as_deref(), &self.args);
        let survivors = sel.as_ref().map_or(batch.len(), Vec::len);
        let mut keyed = Vec::with_capacity(survivors);
        for j in 0..survivors {
            let row = sel.as_ref().map_or(j, |s| s[j] as usize);
            let input_row = origin.as_ref().map_or(row, |o| o[row] as usize);
            let key = GroupKey {
                hash: keys.group_hash(self.key.indices(), input_row),
                key: self.key.extract_batch(&keys, input_row),
            };
            let args: Arc<[Value]> = (args.iter())
                .map(|a| a.as_ref().map_or(Value::Null, |a| a.value_at(j)))
                .collect();
            keyed.push((key, batch.lifetime(row), args));
        }
        Ok(keyed)
    }

    /// Add `keyed` to the groups, then sweep every group up to `until`:
    /// the segments it closes and its open segment, clipped to
    /// `[from, until)`. A group with no live event left is dropped. A
    /// snapshot with no value fails its group's sweep, and the error is the
    /// lowest failing group's in key order, after every group is swept.
    fn advance(&mut self, keyed: Vec<Keyed>, from: Time, until: Time) -> Result<Vec<Event>> {
        for (key, lifetime, args) in keyed {
            let seq = self.next_seq;
            self.next_seq += 1;
            let group = self.groups.entry(key).or_insert_with(|| Group {
                sweep: self.fresh.clone(),
                endpoints: Vec::new(),
            });
            group
                .endpoints
                .push((lifetime.start, true, seq, args.clone()));
            group.endpoints.push((lifetime.end, false, seq, args));
        }
        let mut out = Vec::new();
        let mut emit = |key: &[Value], start: Time, end: Time, value: &[Value]| {
            let start = start.max(from);
            if start < end {
                let payload = Row::new(key.iter().chain(value).cloned().collect());
                out.push(Event::new(Lifetime::new(start, end), payload));
            }
        };
        let mut failed: Option<(Vec<Value>, TemporalError)> = None;
        self.groups.retain(|GroupKey { key, .. }, g| {
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
                match g.sweep.instant(t, changes, &self.aggs) {
                    Ok(Some((closed, value))) => emit(key, closed.start, closed.end, value),
                    Ok(None) => {}
                    Err(err) => {
                        if failed.as_ref().is_none_or(|(lowest, _)| key < lowest) {
                            failed = Some((key.clone(), err));
                        }
                        return false;
                    }
                }
                at += at_t;
            }
            g.endpoints.drain(..due);
            if let Some((start, value)) = g.sweep.open() {
                emit(key, start, until, value);
            }
            g.sweep.open().is_some() || !g.endpoints.is_empty()
        });
        match failed {
            Some((_, err)) => Err(err),
            None => Ok(out),
        }
    }
}

impl Recompute {
    /// Retain the prefixes' new output, re-run the plan over everything
    /// retained and clip its normalized result to `[from, until)`, then
    /// evict what can no longer reach output past `until`.
    fn advance(
        &mut self,
        feeds: &[Feed],
        fed: Vec<EventBatch>,
        from: Time,
        until: Time,
        horizon: Duration,
    ) -> Result<Vec<Event>> {
        let marks: Vec<usize> = self.buffers.iter().map(EventBatch::len).collect();
        for (buffer, fed) in self.buffers.iter_mut().zip(fed) {
            buffer.append(fed)?;
        }
        let mut out = Vec::new();
        if from < until {
            // The bindings share the buffers: the executor copies only what
            // its first operator keeps.
            let sources: BatchBindings = feeds
                .iter()
                .zip(&self.buffers)
                .map(|(f, b)| (f.name.clone(), b.clone()))
                .collect();
            let result = execute(&self.plan, sources)
                .map(|(mut roots, _)| roots.swap_remove(0).into_stream());
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
                        buffer.compact(&(0..mark as u32).collect::<Vec<_>>());
                    }
                    return Err(err);
                }
            }
        }
        // An input whose whole influence window is below `until` can no
        // longer contribute to unemitted output.
        for buffer in &mut self.buffers {
            let live: Vec<u32> = (buffer.ve().iter().enumerate())
                .filter(|(_, end)| end.saturating_add(horizon) > until)
                .map(|(i, _)| i as u32)
                .collect();
            if live.len() < buffer.len() {
                buffer.compact(&live);
                // Appends adopt each punctuation's strings; evicted ones go.
                buffer.shrink_dictionaries();
            }
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
    use crate::exec::{bindings, execute_single};
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use crate::stream::EventStream;
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

    /// A plan whose per-group window fails on an event too late to be
    /// windowed.
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
        let late = i64::MAX - 5;
        let mut session = RtSession::new(failing_plan()).unwrap();
        session.push("in", click(1, "a")).unwrap();
        session.punctuate(5).unwrap();
        session.push("in", click(6, "b")).unwrap();
        session.push("in", click(late, "a")).unwrap();
        let before = format!("{session:?}");
        let err = session.punctuate(20).unwrap_err();
        assert!(matches!(err, TemporalError::TimeOverflow(_)), "{err}");
        assert_eq!(format!("{session:?}"), before);
        assert_eq!(session.punctuate(20).unwrap_err(), err);
        assert_eq!(format!("{session:?}"), before);
    }

    #[test]
    fn a_push_that_does_not_fit_its_source_is_refused() {
        // A `Str` where `StreamId` is an `Int`, and a row one cell short.
        let mut session = RtSession::new(plan()).unwrap();
        let mut batch = Vec::new();
        for e in [click(1, "a"), click(4, "a")] {
            session.push("in", e.clone()).unwrap();
            batch.push(e);
        }
        let err = session.push("in", Event::point(3, row![3i64, "x", "a"]));
        assert_eq!(
            err,
            Err(TemporalError::Input(
                "source `in`: event at 3: type mismatch in `StreamId`: expected int, got str"
                    .into()
            ))
        );
        let short = session.push("in", Event::point(3, row![3i64, 1i32]));
        assert!(matches!(short, Err(TemporalError::Input(_))), "{short:?}");
        let mut online = session.punctuate(10).unwrap();
        online.extend(session.close().unwrap());
        let offline = execute_single(
            &plan(),
            &bindings(vec![("in", EventStream::new(schema(), batch))]),
        );
        let online = EventStream::new(schema_of_plan(), online).normalize();
        assert_eq!(online, offline.unwrap().normalize());
    }

    fn schema_of_plan() -> Schema {
        plan().schema_of(plan().roots()[0]).clone()
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
                Body::Recompute(r) => assert!(r.buffers.iter().all(EventBatch::is_empty)),
            }
        }
    }
}
