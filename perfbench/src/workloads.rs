//! The seven workloads: set-up, one untraced repetition, one traced pass.
//!
//! Every workload reads the same generated log. The system is driven only
//! through its public functions; an untraced repetition calls the entry
//! point a user would (`BtPipeline::run`, `run_custom`, `TimrJob::run`,
//! `execute_single`, `RtSession`), and the traced pass runs the same work
//! stage by stage — `compile()` then `Cluster::run_stage` — so that each
//! call can carry a span. Both must publish the same bytes.

use crate::stats::digest_datasets;
use crate::trace::{Layer, Tracer};
use adgen::{generate, GenConfig};
use bt::pipeline::{BtPipeline, KeywordScore};
use bt::queries::{self, advertisers, BtQuery};
use bt::BtParams;
use mapreduce::{
    BackendKind, Cluster, ClusterConfig, Dataset, Dfs, Partitioner, Stage, StageStats,
};
use relation::{Row, Schema};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use temporal::exec::{bindings, execute_single, Bindings};
use temporal::rt::RtSession;
use temporal::{Event, EventStream, LogicalPlan};
use timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Workload names, in the order the full run executes them.
pub const WORKLOADS: [&str; 7] = [
    "bt_timr",
    "bt_custom",
    "dsms_single",
    "dash_pushdown",
    "shuffle_spill",
    "shuffle_procs",
    "rt_online",
];

/// Reduce partitions of every job and extents of the loaded log, fixed so
/// that bytes moved do not depend on the core count of the machine.
pub const MACHINES: usize = 8;
/// Dashboards in the shared `dash_pushdown` job.
const DASHBOARDS: usize = 16;
/// `rt_online` punctuates after this many pushed events.
const PUNCTUATE_EVERY: usize = 256;
/// `shuffle_spill` gets this fraction of the job's measured shuffle volume.
const SPILL_BUDGET_DIVISOR: u64 = 8;

/// Where the benchmark writes (spill files, traces): inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// What one repetition (or traced pass) produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Job submission (compile included) to every output published.
    pub wall_s: f64,
    /// Digest of everything the repetition published.
    pub digest: u64,
    /// Why the output or the mechanism check failed, if it did.
    pub fault: Option<String>,
    /// `rt_online`: duration of each `punctuate()` call, ms.
    pub punct_ms: Vec<f64>,
}

/// One traced pass: its spans and the per-layer figures read beside them.
pub struct Pass {
    pub tracer: Tracer,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn new(origin: Instant) -> Pass {
        Pass {
            tracer: Tracer::new(origin),
            metrics: BTreeMap::new(),
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.metrics.entry(name).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.metrics.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// Close the job span; what its leaf spans do not cover is unattributed.
    fn finish(&mut self, job: usize) -> f64 {
        let wall = self.tracer.end(job);
        self.add("job_span_s", wall);
        let unattributed = self.tracer.unattributed_seconds(job);
        self.add("unattributed_s", unattributed);
        wall
    }

    /// Seconds of span time per layer, replays included. Call once, after
    /// the pass has recorded its last span.
    pub fn add_layer_totals(&mut self) {
        for (name, layer) in [
            ("core.span_s", Layer::Core),
            ("temporal.span_s", Layer::Temporal),
            ("mapreduce.span_s", Layer::MapReduce),
            ("relation.span_s", Layer::Relation),
        ] {
            let s = self.tracer.layer_seconds(layer);
            self.add(name, s);
        }
    }
}

/// Open a span if the run is traced (`dsms_single` and `rt_online` run the
/// same code either way).
fn begin(
    pass: &mut Option<&mut Pass>,
    name: &str,
    layer: Layer,
    parent: Option<usize>,
) -> Option<usize> {
    pass.as_deref_mut()
        .map(|p| p.tracer.begin(name, layer, parent))
}

/// Close a span opened by [`begin`]; its seconds, 0 when untraced.
fn end(pass: &mut Option<&mut Pass>, span: Option<usize>) -> f64 {
    match (pass.as_deref_mut(), span) {
        (Some(p), Some(span)) => p.tracer.end(span),
        _ => 0.0,
    }
}

pub trait Workload {
    /// Events one repetition reads.
    fn input_events(&self) -> usize;
    /// One repetition with tracing off.
    fn rep(&mut self) -> Res<Rep>;
    /// The same work with a span around every call into a layer.
    fn traced(&mut self, pass: &mut Pass) -> Res<Rep>;
}

/// The generated log and what every workload derives from it.
pub struct Env {
    pub params: BtParams,
    pub log: adgen::GeneratedLog,
    pub logs: Dataset,
    pub gen_s: f64,
}

impl Env {
    pub fn build(seed: u64, users: usize) -> Env {
        let start = Instant::now();
        let mut cfg = GenConfig::small(seed);
        cfg.users = users;
        let log = generate(&cfg);
        let gen_s = start.elapsed().as_secs_f64();
        let rows = log.rows();
        let per_extent = rows.len().div_ceil(MACHINES).max(1);
        let extents: Vec<Vec<Row>> = rows.chunks(per_extent).map(<[Row]>::to_vec).collect();
        Env {
            params: BtParams {
                machines: MACHINES,
                ..Default::default()
            },
            logs: Dataset::partitioned(adgen::unified_schema(), extents),
            log,
            gen_s,
        }
    }
}

fn dfs_with(inputs: &[(String, Dataset)]) -> Dfs {
    let dfs = Dfs::new();
    for (name, ds) in inputs {
        dfs.put_overwrite(name.clone(), ds.clone());
    }
    dfs
}

fn alias(dfs: &Dfs, from: &str, to: &str) -> Res<()> {
    dfs.put_overwrite(to, dfs.get(from)?);
    Ok(())
}

fn encoding_of(schema: &Schema) -> EventEncoding {
    if EventEncoding::Interval.payload_schema(schema).is_ok() {
        EventEncoding::Interval
    } else {
        EventEncoding::Point
    }
}

fn decode_dataset(dfs: &Dfs, name: &str) -> Res<EventStream> {
    let ds = dfs.get(name)?;
    let encoding = encoding_of(&ds.schema);
    let payload = encoding.payload_schema(&ds.schema)?;
    Ok(encoding.decode_stream(ds.iter(), &payload)?)
}

/// Pre-decoded single-node inputs for `plan`, one stream per source.
fn decode_sources(dfs: &Dfs, plan: &LogicalPlan) -> Res<Bindings> {
    let mut pairs = Vec::new();
    for (name, _) in plan.sources() {
        pairs.push((name, decode_dataset(dfs, name)?));
    }
    Ok(bindings(pairs))
}

fn bound_events(b: &Bindings) -> usize {
    b.values().map(EventStream::len).sum()
}

/// Run BotElim once and return the cleaned log — the prerequisite dataset
/// of the dashboards and of the shuffle job, as in the deployed pipeline.
fn clean_log(env: &Env) -> Res<Dataset> {
    let dfs = dfs_with(&[("logs".into(), env.logs.clone())]);
    let bot = queries::bot_elim::query(&env.params);
    let out = TimrJob::new("prep_botelim", bot.plan)
        .with_annotation(bot.annotation)
        .with_machines(MACHINES)
        .run(&dfs, &Cluster::new())?;
    Ok(dfs.get(&out.dataset)?)
}

// ---------------------------------------------------------------------
// Map-reduce workloads
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MrKind {
    BtTimr,
    BtCustom,
    DashPushdown,
    ShuffleSpill,
    ShuffleProcs,
}

/// What a job compiles to, whichever kind of job it is.
struct Built {
    stages: Vec<Stage>,
    outputs: Vec<String>,
    pushed_ops: usize,
    pushed_partials: usize,
}

/// One job of a traced pass.
struct TracedJob {
    name: &'static str,
    build: Box<dyn Fn() -> Res<Built>>,
    /// Layer that does the building: `core` compiles temporal plans,
    /// `bt_custom` assembles `mapreduce` stages by hand.
    build_layer: Layer,
    /// Publish the (single) output under this name for the next job.
    alias_output: Option<&'static str>,
    /// Plan to replay on the single-node DSMS, and the metric it feeds.
    replay: Option<(&'static str, LogicalPlan)>,
}

fn timr_traced(
    name: &'static str,
    job: TimrJob,
    alias_output: Option<&'static str>,
    replay: Option<&'static str>,
) -> TracedJob {
    let plan = job.plan.clone();
    TracedJob {
        name,
        build: Box::new(move || {
            let c = job.compile()?;
            Ok(Built {
                stages: c.stages,
                outputs: vec![c.output],
                pushed_ops: c.pushed_ops,
                pushed_partials: c.pushed_partials,
            })
        }),
        build_layer: Layer::Core,
        alias_output,
        replay: replay.map(|metric| (metric, plan)),
    }
}

/// The job `BtPipeline::run` submits for `query` under prefix `bt`.
fn bt_job(query: &BtQuery, suffix: &str, interval_sources: &[&str]) -> TimrJob {
    let job = TimrJob::new(format!("bt_{suffix}"), query.plan.clone())
        .with_annotation(query.annotation.clone())
        .with_machines(MACHINES);
    interval_sources.iter().fold(job, |j, s| {
        j.with_source_encoding(s, EventEncoding::Interval)
    })
}

pub struct MrWorkload {
    kind: MrKind,
    params: BtParams,
    inputs: Vec<(String, Dataset)>,
    input_events: usize,
    cluster: Cluster,
    /// Default in-memory thread cluster: the reference for `shuffle_*`.
    threads: Cluster,
    /// Digest the outputs must equal (`shuffle_*`: the in-memory run).
    reference: Option<u64>,
    /// `bt_timr`: the hand-written pipeline's z-scores.
    custom_scores: Vec<KeywordScore>,
}

impl MrWorkload {
    fn new(kind: MrKind, env: &Env) -> Res<MrWorkload> {
        let mut w = MrWorkload {
            kind,
            params: env.params.clone(),
            inputs: vec![("logs".into(), env.logs.clone())],
            input_events: env.logs.len(),
            cluster: Cluster::new(),
            threads: Cluster::new(),
            reference: None,
            custom_scores: Vec::new(),
        };
        match kind {
            MrKind::BtCustom => {}
            MrKind::BtTimr => {
                let dfs = dfs_with(&w.inputs);
                bt::baselines::custom::run_custom(&dfs, &w.threads, "logs", "cust", &w.params)?;
                w.custom_scores = BtPipeline::load_custom_scores(&dfs, "cust_scores")?;
            }
            MrKind::DashPushdown => {
                w.inputs
                    .push((advertisers::CLEAN_LOG_DATASET.into(), clean_log(env)?));
            }
            MrKind::ShuffleSpill | MrKind::ShuffleProcs => {
                let clean = clean_log(env)?;
                w.input_events = clean.len();
                w.inputs = vec![("clean_logs".into(), clean)];
                let dfs = dfs_with(&w.inputs);
                let out = w.shuffle_job().run(&dfs, &w.threads)?;
                w.reference = Some(digest_datasets(&dfs, &[out.dataset])?);
                let config = if kind == MrKind::ShuffleSpill {
                    let spill_dir = out_dir().join("spill");
                    std::fs::create_dir_all(&spill_dir)?;
                    let volume = out.stats.total_shuffle_bytes_binary();
                    ClusterConfig {
                        memory_budget_bytes: Some((volume / SPILL_BUDGET_DIVISOR).max(1)),
                        spill_dir: Some(spill_dir),
                        ..ClusterConfig::default()
                    }
                } else {
                    let workers = ClusterConfig::default().threads;
                    ClusterConfig {
                        backend: BackendKind::Processes { workers },
                        ..ClusterConfig::default()
                    }
                };
                w.cluster = Cluster::with_config(config);
            }
        }
        Ok(w)
    }

    /// GenTrainData with push-down off, so the whole cleaned log crosses
    /// the shuffle.
    fn shuffle_job(&self) -> TimrJob {
        let q = queries::train_data::train_query(&self.params);
        bt_job(&q, "train", &["clean_logs"]).with_push_down(false)
    }

    fn traced_jobs(&self) -> Vec<TracedJob> {
        let p = &self.params;
        match self.kind {
            MrKind::BtTimr => vec![
                timr_traced(
                    "botelim",
                    bt_job(&queries::bot_elim::query(p), "botelim", &[]),
                    Some("clean_logs"),
                    Some("temporal.botelim_events_per_s"),
                ),
                timr_traced(
                    "labels",
                    bt_job(
                        &queries::train_data::labels_query(p),
                        "labels",
                        &["clean_logs"],
                    ),
                    Some("labels"),
                    Some("temporal.labels_events_per_s"),
                ),
                timr_traced(
                    "gentrain",
                    bt_job(
                        &queries::train_data::train_query(p),
                        "train",
                        &["clean_logs"],
                    ),
                    Some("train_rows"),
                    Some("temporal.gentrain_events_per_s"),
                ),
                timr_traced(
                    "featsel",
                    bt_job(
                        &queries::feature_selection::query(p),
                        "scores",
                        &["labels", "train_rows"],
                    ),
                    None,
                    Some("temporal.featsel_events_per_s"),
                ),
            ],
            MrKind::BtCustom => {
                let params = p.clone();
                vec![TracedJob {
                    name: "custom",
                    build: Box::new(move || Ok(custom_stages(&params)?)),
                    build_layer: Layer::MapReduce,
                    alias_output: None,
                    replay: None,
                }]
            }
            MrKind::DashPushdown => {
                let dash = advertisers::dashboard_job(p, DASHBOARDS);
                vec![
                    TracedJob {
                        name: "dashboards",
                        build: Box::new(move || {
                            let c = dash.compile()?;
                            Ok(Built {
                                stages: vec![c.stage],
                                outputs: c.outputs,
                                pushed_ops: c.pushed_ops,
                                pushed_partials: c.pushed_partials,
                            })
                        }),
                        build_layer: Layer::Core,
                        alias_output: None,
                        replay: None,
                    },
                    timr_traced("clickscore", advertisers::click_score_job(p), None, None),
                ]
            }
            MrKind::ShuffleSpill | MrKind::ShuffleProcs => vec![timr_traced(
                "gentrain",
                self.shuffle_job(),
                None,
                Some("temporal.gentrain_events_per_s"),
            )],
        }
    }

    /// Output and mechanism checks of one repetition.
    fn check(
        &self,
        dfs: &Dfs,
        outputs: &[String],
        stages: &[StageStats],
        pushed: usize,
    ) -> Res<Rep> {
        let digest = digest_datasets(dfs, outputs)?;
        let spilled: u64 = stages.iter().map(|s| s.spill_extents).sum();
        let fault = match self.kind {
            _ if self.reference.is_some_and(|r| r != digest) => {
                Some("output differs from the in-memory run on threads".to_string())
            }
            MrKind::ShuffleSpill if spilled == 0 => Some("nothing spilled".to_string()),
            MrKind::ShuffleProcs if live_children() > 0 => {
                Some("a worker process survived the job".to_string())
            }
            MrKind::DashPushdown if pushed == 0 => Some("no operator was pushed down".to_string()),
            MrKind::BtTimr => {
                let scores = BtPipeline::load_scores(dfs, outputs.last().expect("scores"))?;
                z_scores_disagree(&scores, &self.custom_scores)
            }
            _ => None,
        };
        Ok(Rep {
            digest,
            fault,
            ..Rep::default()
        })
    }
}

/// The two stages `run_custom` submits under prefix `cust`.
fn custom_stages(params: &BtParams) -> mapreduce::Result<Built> {
    use bt::baselines::custom::{AdStageReducer, UserStageReducer};
    let key = |c: &str| Partitioner::KeyHash {
        columns: vec![c.to_string()],
    };
    let user = Arc::new(UserStageReducer {
        params: params.clone(),
    });
    let ad = Arc::new(AdStageReducer {
        params: params.clone(),
    });
    let (examples, scores) = ("cust_examples".to_string(), "cust_scores".to_string());
    Ok(Built {
        stages: vec![
            Stage::new(
                "cust/user",
                vec!["logs".to_string()],
                examples.clone(),
                key("UserId"),
                MACHINES,
                user,
            )?,
            Stage::new(
                "cust/ad",
                vec![examples.clone()],
                scores.clone(),
                key("AdId"),
                MACHINES,
                ad,
            )?,
        ],
        outputs: vec![examples, scores],
        pushed_ops: 0,
        pushed_partials: 0,
    })
}

/// The tolerance of `tests/integration_bt.rs`: nine tenths of the
/// keywords shared, and shared z-scores within 1e-6.
fn z_scores_disagree(timr: &[KeywordScore], custom: &[KeywordScore]) -> Option<String> {
    let map = |v: &[KeywordScore]| -> BTreeMap<(String, String), f64> {
        v.iter()
            .map(|s| ((s.ad.clone(), s.keyword.clone()), s.z))
            .collect()
    };
    let (a, b) = (map(timr), map(custom));
    let shared: Vec<_> = a.keys().filter(|k| b.contains_key(*k)).collect();
    if (shared.len() as f64) < 0.9 * a.len().max(b.len()) as f64 {
        return Some(format!(
            "TiMR and custom pipelines share {} of {}/{} keywords",
            shared.len(),
            a.len(),
            b.len()
        ));
    }
    shared
        .into_iter()
        .find(|k| (a[*k] - b[*k]).abs() >= 1e-6)
        .map(|k| format!("z mismatch for {k:?}: {} vs {}", a[k], b[k]))
}

/// Child processes of this process that still exist (zombies included).
fn live_children() -> usize {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        // "pid (comm) state ppid ...": comm may hold spaces, so split after it.
        .filter(|stat| {
            stat.rsplit_once(") ")
                .and_then(|(_, rest)| rest.split(' ').nth(1))
                == Some(me.as_str())
        })
        .count()
}

/// Replay the row↔event bridge over the datasets `stages` read and wrote.
fn replay_bridge(pass: &mut Pass, dfs: &Dfs, stages: &[Stage]) -> Res<()> {
    for stage in stages {
        for name in &stage.inputs {
            let ds = dfs.get(name)?;
            let encoding = encoding_of(&ds.schema);
            let payload = encoding.payload_schema(&ds.schema)?;
            let span = pass
                .tracer
                .begin(format!("replay:bridge_decode:{name}"), Layer::Core, None);
            black_box(encoding.decode_stream(ds.iter(), &payload)?);
            let s = pass.tracer.end(span);
            pass.add("core.bridge_decode_s", s);
        }
        for name in stage.sink_names() {
            let encoding = encoding_of(&dfs.get(name)?.schema);
            let stream = decode_dataset(dfs, name)?;
            let span = pass
                .tracer
                .begin(format!("replay:bridge_encode:{name}"), Layer::Core, None);
            black_box(encoding.encode_stream(&stream)?);
            let s = pass.tracer.end(span);
            pass.add("core.bridge_encode_s", s);
        }
    }
    Ok(())
}

/// Replay the extent codec over the stored extents of `dataset`.
fn replay_extents(pass: &mut Pass, name: &str, dataset: &Dataset) -> Res<()> {
    let extents: Vec<&Arc<Vec<u8>>> = (0..dataset.extents().len())
        .filter_map(|i| dataset.binary_extent(i))
        .collect();
    let mb = extents.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6;
    let mut timed = |what: &str, metric: &'static str, f: &mut dyn FnMut() -> Res<()>| -> Res<()> {
        let span = pass.tracer.begin(
            format!("replay:extent_{what}:{name}"),
            Layer::Relation,
            None,
        );
        f()?;
        let s = pass.tracer.end(span);
        pass.add(metric, mb / s.max(1e-9));
        Ok(())
    };
    timed("verify", "relation.extent_verify_mb_s", &mut || {
        for b in &extents {
            relation::extent::verify_extent(b)?;
        }
        Ok(())
    })?;
    let mut batches = Vec::new();
    timed("decode", "relation.extent_decode_mb_s", &mut || {
        for b in &extents {
            batches.push(relation::extent::decode_extent(b)?);
        }
        Ok(())
    })?;
    timed("encode", "relation.extent_encode_mb_s", &mut || {
        for b in &batches {
            black_box(relation::extent::encode_extent(b)?);
        }
        Ok(())
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl Workload for MrWorkload {
    fn input_events(&self) -> usize {
        self.input_events
    }

    fn rep(&mut self) -> Res<Rep> {
        let dfs = dfs_with(&self.inputs);
        let (p, cluster) = (&self.params, &self.cluster);
        let start = Instant::now();
        let (outputs, stages, pushed): (Vec<String>, Vec<StageStats>, usize) = match self.kind {
            MrKind::BtTimr => {
                let a = BtPipeline::new(p.clone()).run(&dfs, cluster, "logs", "bt")?;
                (
                    vec![a.clean, a.labels, a.train_rows, a.scores],
                    a.stats.into_iter().flat_map(|(_, s)| s.stages).collect(),
                    0,
                )
            }
            MrKind::BtCustom => {
                let s = bt::baselines::custom::run_custom(&dfs, cluster, "logs", "cust", p)?;
                (
                    vec!["cust_examples".into(), "cust_scores".into()],
                    s.stages,
                    0,
                )
            }
            MrKind::DashPushdown => {
                let d = advertisers::dashboard_job(p, DASHBOARDS).run(&dfs, cluster)?;
                let c = advertisers::click_score_job(p).run(&dfs, cluster)?;
                let mut outputs = d.datasets;
                outputs.push(c.dataset);
                let mut stages = d.stats.stages;
                stages.extend(c.stats.stages);
                (outputs, stages, d.pushed_ops)
            }
            MrKind::ShuffleSpill | MrKind::ShuffleProcs => {
                let o = self.shuffle_job().run(&dfs, cluster)?;
                (vec![o.dataset], o.stats.stages, 0)
            }
        };
        let wall_s = secs(start.elapsed());
        Ok(Rep {
            wall_s,
            ..self.check(&dfs, &outputs, &stages, pushed)?
        })
    }

    fn traced(&mut self, pass: &mut Pass) -> Res<Rep> {
        let dfs = dfs_with(&self.inputs);
        let jobs = self.traced_jobs();
        let mut built = Vec::new();
        let mut stats = Vec::new();
        let job_span = pass.tracer.begin("job", Layer::Job, None);
        for job in &jobs {
            let what = if job.build_layer == Layer::Core {
                "compile"
            } else {
                "build_stages"
            };
            let span = pass.tracer.begin(
                format!("{}.{what}", job.name),
                job.build_layer,
                Some(job_span),
            );
            let b = (job.build)()?;
            let s = pass.tracer.end(span);
            if job.build_layer == Layer::Core {
                pass.add("core.compile_ms", s * 1e3);
            }
            for stage in &b.stages {
                let span = pass
                    .tracer
                    .begin(stage.name.clone(), Layer::MapReduce, Some(job_span));
                let st = self.cluster.run_stage(&dfs, stage)?;
                pass.tracer.end(span);
                pass.tracer.children(
                    span,
                    Layer::MapReduce,
                    &[
                        ("map", st.map_time),
                        ("shuffle", st.shuffle_time),
                        ("reduce", st.reduce_wall_time),
                    ],
                );
                stats.push(st);
            }
            if let Some(to) = job.alias_output {
                alias(&dfs, &b.outputs[0], to)?;
            }
            built.push(b);
        }
        let wall_s = pass.finish(job_span);

        for st in &stats {
            pass.add("mapreduce.map_s", secs(st.map_time));
            pass.add("mapreduce.shuffle_s", secs(st.shuffle_time));
            pass.add("mapreduce.reduce_s", secs(st.reduce_wall_time));
            pass.add("mapreduce.shuffle_bytes", st.shuffle_bytes as f64);
            pass.add("mapreduce.spill_bytes", st.spill_bytes as f64);
            pass.add("mapreduce.spill_extents", st.spill_extents as f64);
            pass.add("mapreduce.task_retries", st.task_retries as f64);
            pass.add("mapreduce.workers_lost", st.workers_lost as f64);
            pass.add("mapreduce.heartbeats_missed", st.heartbeats_missed as f64);
            let mean = secs(st.total_reduce_time()) / st.partition_times.len().max(1) as f64;
            if mean > 0.0 {
                pass.max(
                    "mapreduce.partition_skew",
                    secs(st.max_partition_time()) / mean,
                );
            }
        }
        for b in &built {
            pass.add("core.pushed_ops", b.pushed_ops as f64);
            pass.add("core.pushed_partials", b.pushed_partials as f64);
        }
        let outputs: Vec<String> = built.iter().flat_map(|b| b.outputs.clone()).collect();
        let pushed = built.iter().map(|b| b.pushed_ops).sum();
        let rep = self.check(&dfs, &outputs, &stats, pushed)?;

        // Layer replays: siblings of the job span, not part of it.
        let (input, dataset) = self.inputs.last().expect("every workload has an input");
        replay_extents(pass, input, dataset)?;
        for (job, b) in jobs.iter().zip(&built) {
            if job.build_layer == Layer::Core {
                replay_bridge(pass, &dfs, &b.stages)?;
            }
            if let Some((metric, plan)) = &job.replay {
                let sources = decode_sources(&dfs, plan)?;
                let span =
                    pass.tracer
                        .begin(format!("replay:dsms:{}", job.name), Layer::Temporal, None);
                black_box(execute_single(plan, &sources)?);
                let s = pass.tracer.end(span);
                pass.add(metric, bound_events(&sources) as f64 / s.max(1e-9));
            }
        }
        if self.kind == MrKind::ShuffleProcs {
            let start = Instant::now();
            self.shuffle_job()
                .run(&dfs_with(&self.inputs), &self.threads)?;
            pass.add("mapreduce.transport_s", wall_s - secs(start.elapsed()));
        }
        Ok(Rep { wall_s, ..rep })
    }
}

// ---------------------------------------------------------------------
// dsms_single
// ---------------------------------------------------------------------

/// One Fig 15 sub-query over pre-decoded streams.
struct SubQuery {
    metric: &'static str,
    plan: LogicalPlan,
    sources: Bindings,
}

pub struct DsmsSingle {
    queries: Vec<SubQuery>,
}

/// Position of ModelGen, whose output is Scoring's `models` input.
const MODELGEN: usize = 4;

impl DsmsSingle {
    fn new(env: &Env) -> Res<DsmsSingle> {
        let p = &env.params;
        let dfs = dfs_with(&[("logs".into(), env.logs.clone())]);
        let a = BtPipeline::new(p.clone()).run(&dfs, &Cluster::new(), "logs", "prep")?;
        alias(&dfs, &a.clean, "clean_logs")?;
        alias(&dfs, &a.labels, "labels")?;
        alias(&dfs, &a.train_rows, "train_rows")?;

        // As in the Fig 15 experiment: retrain every 6 hours so model
        // validity intervals overlap the profile timeline.
        let mut model_params = p.clone();
        model_params.horizon = 6 * temporal::HOUR;
        // Scoring's profiles are the (UserId, Keyword, Cnt) view of the
        // training rows.
        let profiles = {
            use temporal::expr::col;
            let q = temporal::Query::new();
            let view = q
                .source("train_rows", queries::train_rows_payload())
                .project(
                    ["UserId", "Keyword", "Cnt"]
                        .map(|c| (c.to_string(), col(c)))
                        .to_vec(),
                );
            let plan = q.build(vec![view])?;
            execute_single(&plan, &decode_sources(&dfs, &plan)?)?
        };

        let plans = [
            (
                "temporal.botelim_events_per_s",
                queries::bot_elim::query(p).plan,
            ),
            (
                "temporal.labels_events_per_s",
                queries::train_data::labels_query(p).plan,
            ),
            (
                "temporal.gentrain_events_per_s",
                queries::train_data::train_query(p).plan,
            ),
            (
                "temporal.featsel_events_per_s",
                queries::feature_selection::query(p).plan,
            ),
            (
                "temporal.modelgen_events_per_s",
                queries::model::model_query(&model_params, bt::lr::LrConfig::default()).plan,
            ),
        ];
        let mut queries = Vec::new();
        for (metric, plan) in plans {
            let sources = decode_sources(&dfs, &plan)?;
            queries.push(SubQuery {
                metric,
                plan,
                sources,
            });
        }
        queries.push(SubQuery {
            metric: "temporal.scoring_events_per_s",
            plan: queries::model::scoring_query(p).plan,
            sources: bindings(vec![("profiles", profiles)]),
        });
        Ok(DsmsSingle { queries })
    }

    fn run(&self, mut pass: Option<&mut Pass>) -> Res<Rep> {
        let job_span = begin(&mut pass, "job", Layer::Job, None);
        let start = Instant::now();
        let mut outs: Vec<EventStream> = Vec::new();
        for (i, q) in self.queries.iter().enumerate() {
            // Stream clones share their events, so this copies nothing.
            let mut sources = q.sources.clone();
            if i > MODELGEN {
                sources.insert("models".to_string(), outs[MODELGEN].clone());
            }
            let span = begin(&mut pass, q.metric, Layer::Temporal, job_span);
            outs.push(execute_single(&q.plan, &sources)?);
            let s = end(&mut pass, span);
            if let Some(p) = pass.as_deref_mut() {
                p.add(q.metric, bound_events(&sources) as f64 / s.max(1e-9));
            }
        }
        let mut wall_s = secs(start.elapsed());
        if let (Some(p), Some(job)) = (pass, job_span) {
            wall_s = p.finish(job);
        }
        let digests: Vec<u64> = outs
            .iter()
            .map(|s| relation::hash::stable_hash(s.events()))
            .collect();
        Ok(Rep {
            wall_s,
            digest: relation::hash::stable_hash(&digests),
            ..Rep::default()
        })
    }
}

impl Workload for DsmsSingle {
    fn input_events(&self) -> usize {
        self.queries.iter().map(|q| bound_events(&q.sources)).sum()
    }

    fn rep(&mut self) -> Res<Rep> {
        self.run(None)
    }

    fn traced(&mut self, pass: &mut Pass) -> Res<Rep> {
        self.run(Some(pass))
    }
}

// ---------------------------------------------------------------------
// rt_online
// ---------------------------------------------------------------------

pub struct RtOnline {
    plan: LogicalPlan,
    events: Vec<Event>,
    /// The same query run offline through TiMR over the same log.
    offline: EventStream,
}

impl RtOnline {
    fn new(env: &Env) -> Res<RtOnline> {
        use temporal::expr::{col, lit};
        let q = temporal::Query::new();
        let out = q
            .source("logs", queries::log_payload())
            .filter(col("StreamId").eq(lit(queries::stream_id::CLICK)))
            .group_apply(&["KwAdId"], |g| {
                g.window(6 * temporal::HOUR).count("ClickCount")
            });
        let plan = q.build(vec![out])?;
        let filter = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, temporal::plan::Operator::Filter { .. }))
            .expect("RunningClickCount has a filter");
        let dfs = dfs_with(&[("logs".into(), env.logs.clone())]);
        let offline = TimrJob::new("rt_offline", plan.clone())
            .with_annotation(Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"])))
            .with_machines(MACHINES)
            .run(&dfs, &Cluster::new())?
            .stream(&dfs)?;
        let events = env
            .log
            .events
            .iter()
            .map(|e| {
                Event::point(
                    e.time,
                    relation::row![e.stream as i32, e.user.as_str(), e.kw_ad.as_str()],
                )
            })
            .collect();
        Ok(RtOnline {
            plan,
            events,
            offline,
        })
    }

    /// Closed loop, one client: push in arrival order, punctuate every
    /// `PUNCTUATE_EVERY` events at the last pushed timestamp, then close.
    fn run(&self, mut pass: Option<&mut Pass>) -> Res<Rep> {
        let mut session = RtSession::new(self.plan.clone())?;
        let events = self.events.clone();
        let mut out: Vec<Event> = Vec::new();
        let mut punct_ms = Vec::new();
        let mut push_s = 0.0;
        let job_span = begin(&mut pass, "job", Layer::Job, None);
        let start = Instant::now();
        let mut events = events.into_iter().peekable();
        while events.peek().is_some() {
            let span = begin(&mut pass, "push", Layer::Temporal, job_span);
            let (mut pushed, mut last) = (0, 0);
            for e in events.by_ref().take(PUNCTUATE_EVERY) {
                last = e.start();
                session.push("logs", e)?;
                pushed += 1;
            }
            push_s += end(&mut pass, span);
            if pushed == PUNCTUATE_EVERY && events.peek().is_some() {
                let span = begin(&mut pass, "punctuate", Layer::Temporal, job_span);
                let at = Instant::now();
                out.extend(session.punctuate(last)?);
                punct_ms.push(secs(at.elapsed()) * 1e3);
                end(&mut pass, span);
            }
        }
        let span = begin(&mut pass, "close", Layer::Temporal, job_span);
        out.extend(session.close()?);
        end(&mut pass, span);
        let mut wall_s = secs(start.elapsed());
        if let (Some(p), Some(job)) = (pass, job_span) {
            wall_s = p.finish(job);
            p.add(
                "temporal.rt_push_us",
                push_s * 1e6 / self.events.len().max(1) as f64,
            );
            p.add(
                "temporal.rt_punct_ms",
                punct_ms.iter().sum::<f64>() / punct_ms.len().max(1) as f64,
            );
        }
        let online = EventStream::new(self.offline.schema().clone(), out).normalize();
        let fault = (!self.offline.same_relation(&online))
            .then(|| "online output is not the offline TiMR relation".to_string());
        Ok(Rep {
            wall_s,
            digest: relation::hash::stable_hash(online.events()),
            fault,
            punct_ms,
        })
    }
}

impl Workload for RtOnline {
    fn input_events(&self) -> usize {
        self.events.len()
    }

    fn rep(&mut self) -> Res<Rep> {
        self.run(None)
    }

    fn traced(&mut self, pass: &mut Pass) -> Res<Rep> {
        self.run(Some(pass))
    }
}

/// Build workload `name` over `env`: its prerequisite datasets, reference
/// outputs and cluster. The warm-up repetition is the caller's.
pub fn build(name: &str, env: &Env) -> Res<Box<dyn Workload>> {
    let mr = |kind| -> Res<Box<dyn Workload>> { Ok(Box::new(MrWorkload::new(kind, env)?)) };
    match name {
        "bt_timr" => mr(MrKind::BtTimr),
        "bt_custom" => mr(MrKind::BtCustom),
        "dash_pushdown" => mr(MrKind::DashPushdown),
        "shuffle_spill" => mr(MrKind::ShuffleSpill),
        "shuffle_procs" => mr(MrKind::ShuffleProcs),
        "dsms_single" => Ok(Box::new(DsmsSingle::new(env)?)),
        "rt_online" => Ok(Box::new(RtOnline::new(env)?)),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}
