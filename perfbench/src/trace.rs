//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only: one per call
//! into a layer, plus synthetic children cut from the `StageStats` a stage
//! returns. They stay in memory until the run ends and are then written as
//! Chrome-trace JSON (load in `chrome://tracing` or Perfetto).

use serde_json::Value;
use std::time::{Duration, Instant};

/// The repository module a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own job span (parent of everything in one pass).
    Job,
    Core,
    Temporal,
    MapReduce,
    Relation,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Job => "job",
            Layer::Core => "core",
            Layer::Temporal => "temporal",
            Layer::MapReduce => "mapreduce",
            Layer::Relation => "relation",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: Layer,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
}

/// The spans of one traced pass of one workload.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is the zero of the timeline, shared by every pass of a run.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, layer: Layer, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_us: self.now_us(),
            dur_us: 0.0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let dur = self.now_us() - self.spans[id].start_us;
        self.spans[id].dur_us = dur;
        dur / 1e6
    }

    /// Lay `parts` end to end from the start of `parent` as child spans —
    /// how a stage's reported map/shuffle/reduce times become spans.
    pub fn children(&mut self, parent: usize, layer: Layer, parts: &[(&str, Duration)]) {
        let mut at = self.spans[parent].start_us;
        for (name, dur) in parts {
            let dur_us = dur.as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: format!("{}.{name}", self.spans[parent].name),
                layer,
                start_us: at,
                dur_us,
                parent: Some(parent),
            });
            at += dur_us;
        }
    }

    /// Seconds charged to `layer`: its spans whose parent is of another
    /// layer (or absent), so nested spans of one layer count once.
    pub fn layer_seconds(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.parent.map(|p| self.spans[p].layer) != Some(layer))
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// Duration of span `root` minus what its leaf descendants cover.
    pub fn unattributed_seconds(&self, root: usize) -> f64 {
        let is_parent = |i: usize| self.spans.iter().any(|s| s.parent == Some(i));
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let leaves: f64 = (0..self.spans.len())
            .filter(|&i| under_root(i) && !is_parent(i))
            .map(|i| self.spans[i].dur_us)
            .sum();
        (self.spans[root].dur_us - leaves) / 1e6
    }
}

/// Chrome-trace JSON of every pass; `tid` is the pass number.
pub fn chrome_trace(workload: &str, passes: &[Tracer]) -> Value {
    let mut events = Vec::new();
    for (pass, tracer) in passes.iter().enumerate() {
        for (id, s) in tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::UInt(p as u64));
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("cat".into(), Value::Str(s.layer.name().into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(s.start_us)),
                ("dur".into(), Value::Float(s.dur_us)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(pass as u64)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::UInt(id as u64)),
                        ("parent".into(), parent),
                        ("workload".into(), Value::Str(workload.into())),
                    ]),
                ),
            ]));
        }
    }
    Value::Object(vec![("traceEvents".into(), Value::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_time_counts_nested_spans_once_and_self_time_is_left_over() {
        let mut t = Tracer::new(Instant::now());
        let job = t.begin("job", Layer::Job, None);
        let stage = t.begin("stage", Layer::MapReduce, Some(job));
        t.end(stage);
        t.end(job);
        t.spans[job].dur_us = 10e6;
        t.spans[stage].dur_us = 6e6;
        t.children(
            stage,
            Layer::MapReduce,
            &[
                ("map", Duration::from_secs(2)),
                ("reduce", Duration::from_secs(3)),
            ],
        );
        assert_eq!(t.spans[3].name, "stage.reduce");
        assert_eq!(t.spans[3].start_us, t.spans[stage].start_us + 2e6);
        assert_eq!(t.layer_seconds(Layer::MapReduce), 6.0);
        assert_eq!(t.layer_seconds(Layer::Temporal), 0.0);
        assert_eq!(t.unattributed_seconds(job), 5.0);
        let replay = t.begin("replay", Layer::Core, None);
        t.end(replay);
        assert_eq!(
            t.unattributed_seconds(job),
            5.0,
            "siblings are not the job's"
        );
        let Value::Object(top) = chrome_trace("w", &[t]) else {
            panic!("object")
        };
        let Value::Array(events) = &top[0].1 else {
            panic!("array")
        };
        assert_eq!(events.len(), 5);
    }
}
