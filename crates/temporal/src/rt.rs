//! Incremental, push-based execution (real-time readiness, paper §VII).
//!
//! The paper's central promise is that temporal queries debugged and
//! back-tested over offline logs with TiMR "can work unmodified over
//! real-time streams". This module demonstrates that property: an
//! [`RtSession`] accepts events one at a time in arrival order, advances a
//! low-watermark punctuation, and emits finalized output events as soon as
//! the algebra guarantees they can no longer change.
//!
//! The implementation re-evaluates the plan over the retained event buffer
//! at every punctuation and flushes output events whose lifetimes are fully
//! below the watermark, evicting input events that can no longer affect
//! future output (anything older than the plan's maximum window extent).
//! This is a *semantics-first* incremental engine: modest per-punctuation
//! cost, but byte-identical output to the batch executor — which is the
//! property the paper's repeatability argument needs, and which the
//! equivalence tests in `tests/` verify.

use crate::error::Result;
use crate::event::Event;
use crate::exec::{execute_single, Bindings};
use crate::plan::LogicalPlan;
use crate::stream::EventStream;
use crate::time::{Duration, Time};
use relation::Schema;
use rustc_hash::FxHashMap;

/// An online execution session for a single-output plan.
#[derive(Debug)]
pub struct RtSession {
    plan: LogicalPlan,
    /// Retained input events per source.
    buffers: FxHashMap<String, Vec<Event>>,
    /// Largest watermark seen so far.
    watermark: Time,
    /// Output events already emitted (by normalized identity), to avoid
    /// re-emission across punctuations.
    emitted_until: Time,
    /// How much history can still influence future output.
    horizon: Duration,
    out_schema: Schema,
}

impl RtSession {
    /// Start a session for `plan` (must have exactly one output).
    pub fn new(plan: LogicalPlan) -> Result<Self> {
        if plan.roots().len() != 1 {
            return Err(crate::error::TemporalError::Plan(
                "real-time sessions require a single-output plan".into(),
            ));
        }
        let out_schema = plan.schema_of(plan.roots()[0]).clone();
        // Retain enough history to cover nested windows: the sum of window
        // extents is a safe (if conservative) bound for chained windows.
        let horizon: Duration = plan.history_horizon();
        let buffers = plan
            .sources()
            .iter()
            .map(|(name, _)| (name.to_string(), Vec::new()))
            .collect();
        // Fused once here, so the executor's fuse-on-entry at every
        // punctuation returns the borrowed plan untouched.
        let plan = crate::plan::fuse_plan(&plan)?.into_owned();
        Ok(RtSession {
            plan,
            buffers,
            watermark: Time::MIN,
            emitted_until: Time::MIN,
            horizon,
            out_schema,
        })
    }

    /// The output schema.
    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Feed one event into the named source. Events may arrive in any order
    /// as long as they are not older than an already-issued punctuation
    /// (late events are rejected, mirroring DSMS time-progress rules).
    pub fn push(&mut self, source: &str, event: Event) -> Result<()> {
        if event.start() < self.watermark {
            return Err(crate::error::TemporalError::Input(format!(
                "late event at {} behind punctuation {}",
                event.start(),
                self.watermark
            )));
        }
        let buf = self.buffers.get_mut(source).ok_or_else(|| {
            crate::error::TemporalError::Input(format!("unknown source `{source}`"))
        })?;
        buf.push(event);
        Ok(())
    }

    /// Advance application time to `t`, promising no further events with
    /// timestamps `< t`. Returns newly finalized output: the portion of
    /// the normalized output lying in `[emitted_until, t - horizon)` —
    /// nothing in that window can be affected by future input, and the
    /// emitted pieces exactly tile the timeline across punctuations (a
    /// straddling event is emitted in clipped pieces whose union equals
    /// the offline event after normalization).
    pub fn punctuate(&mut self, t: Time) -> Result<Vec<Event>> {
        self.watermark = self.watermark.max(t);
        let stable_until = match self.watermark.checked_sub(self.horizon) {
            Some(v) => v,
            None => return Ok(Vec::new()),
        };
        if stable_until <= self.emitted_until {
            return Ok(Vec::new());
        }

        let window = crate::time::Lifetime::new(self.emitted_until, stable_until);
        let result = self.evaluate()?;
        let mut fresh: Vec<Event> = result
            .normalize()
            .into_events()
            .into_iter()
            .filter_map(|e| e.lifetime.intersect(&window).map(|lt| e.with_lifetime(lt)))
            .collect();
        fresh.sort();
        self.emitted_until = stable_until;

        // Evict input events that can no longer contribute to unfinalized
        // output: their entire influence window is below `stable_until`.
        let horizon = self.horizon;
        for buf in self.buffers.values_mut() {
            buf.retain(|e| e.end() + horizon > stable_until);
        }
        Ok(fresh)
    }

    /// Finish the stream: flush everything at or after the emitted
    /// boundary.
    pub fn close(&mut self) -> Result<Vec<Event>> {
        let result = self.evaluate()?;
        let boundary = self.emitted_until;
        let mut fresh: Vec<Event> = result
            .normalize()
            .into_events()
            .into_iter()
            .filter_map(|e| {
                if e.end() <= boundary {
                    return None;
                }
                let start = e.start().max(boundary);
                Some(e.with_lifetime(crate::time::Lifetime::new(start, e.end())))
            })
            .collect();
        fresh.sort();
        self.emitted_until = Time::MAX;
        Ok(fresh)
    }

    fn evaluate(&self) -> Result<EventStream> {
        let mut sources: Bindings = FxHashMap::default();
        for (name, schema) in self.plan.sources() {
            let events = self.buffers.get(name).cloned().unwrap_or_default();
            sources.insert(name.to_string(), EventStream::new(schema.clone(), events));
        }
        execute_single(&self.plan, &sources)
    }
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
}
