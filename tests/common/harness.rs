//! One differential harness for whole TiMR jobs (paper §III-C.1: the
//! scaled-out run equals the single-node DSMS under any restart).
//!
//! A [`Case`] is a set of [`Member`] queries, a log and a reduce partition
//! count. Every [`Config`] runs the members on the cluster and returns each
//! query's published extents and decoded relation. The one property,
//! [`check`]: every configuration publishes the baseline configuration's
//! bytes, and every relation is the oracle's over the same events.
//!
//! A configuration draws every dimension at once: pool threads or forked
//! workers (with fewer, as many or more map tasks than workers), push-down,
//! one shared `MultiTimrJob` stage or one `TimrJob` per query, a spill
//! budget, a chaos schedule, the row order inside each stored extent and
//! the order the log's columns are stored in. A test pins the dimensions it
//! is about with [`Dim`] and lets the rest vary.

use super::oracle::{self, Tolerance};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;
use timr_suite::mapreduce::{
    BackendKind, ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, FaultTotals, JobStats,
    RetryPolicy, StoredExtent, TaskPhase,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{Row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::{EventStream, LogicalPlan, Query};
use timr_suite::timr::multi::MultiTimrJob;
use timr_suite::timr::{read_output, Annotation, EventEncoding, ExchangeKey, TimrJob};

/// The log's payload columns, in their canonical order.
const FIELDS: [(&str, ColumnType); 4] = [
    ("StreamId", ColumnType::Int),
    ("UserId", ColumnType::Str),
    ("KwAdId", ColumnType::Str),
    ("V", ColumnType::Long),
];

/// The payload with its columns stored in `order` (a permutation of
/// [`FIELDS`]' positions).
pub fn payload(order: &[usize; 4]) -> Schema {
    Schema::new(
        (order.iter())
            .map(|&i| Field::new(FIELDS[i].0, FIELDS[i].1))
            .collect(),
    )
}

/// The column order every dimension but [`Config::column_order`] uses.
pub const CANONICAL: [usize; 4] = [0, 1, 2, 3];

/// Which aggregate a member's hopping window computes. `Count` and `SumV`
/// are combinable (the partial pushes map-side); `Avg` is not, so only the
/// stateless prefix may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggKind {
    Count,
    SumV,
    Avg,
}

impl AggKind {
    fn aggs(self) -> Vec<(String, AggExpr)> {
        match self {
            AggKind::Count => vec![("N".to_string(), AggExpr::Count)],
            AggKind::SumV => vec![
                ("N".to_string(), AggExpr::Count),
                ("S".to_string(), AggExpr::Sum(col("V"))),
            ],
            AggKind::Avg => vec![("A".to_string(), AggExpr::Avg(col("V")))],
        }
    }
}

/// One query of a set: a click-filter prefix (shared by every member, and
/// pushable), an optional narrowing projection (pushable, drops
/// `StreamId`), a hopping (or, when `slide`, a sliding) window over (user,
/// ad) with the member's aggregate, and a residual ad filter that stays
/// reduce-side.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    pub hop_mult: i64,
    pub width_mult: i64,
    pub ad: usize,
    pub agg: AggKind,
    pub narrow: bool,
    pub slide: bool,
}

/// `m`'s plan over a log stored in column order `order`.
pub fn member_plan(m: &Member, order: &[usize; 4]) -> LogicalPlan {
    let q = Query::new();
    let mut clicks = q
        .source("logs", payload(order))
        .filter(col("StreamId").eq(lit(1)));
    if m.narrow {
        clicks = clicks.project(vec![
            ("UserId".to_string(), col("UserId")),
            ("KwAdId".to_string(), col("KwAdId")),
            ("V".to_string(), col("V")),
        ]);
    }
    let aggs = m.agg.aggs();
    let (hop, width, slide) = (10 * m.hop_mult, 10 * m.width_mult, m.slide);
    let out = clicks
        .group_apply(&["UserId", "KwAdId"], move |g| {
            let g = match slide {
                true => g.window(width),
                false => g.hop_window(hop, width),
            };
            g.aggregate(aggs.clone())
        })
        .filter(col("KwAdId").eq(lit(format!("ad{}", m.ad))));
    q.build(vec![out]).unwrap()
}

/// Hop × width multipliers mix harmonic (shared gcd 10) and co-prime
/// (7·10) cadences, so some sets factor into one window group and some
/// keep several, and one member in four slides; identical members exercise
/// whole-query dedup; aggregates mix combinable and not, so some members
/// push partials and some only their stateless prefix.
fn arb_member() -> impl Strategy<Value = Member> {
    ((1i64..5, 0u8..8), 1i64..5, 0usize..3, 0u8..3, any::<bool>()).prop_map(
        |((h, cadence), w, ad, agg, narrow)| Member {
            hop_mult: if cadence % 2 == 0 { 7 } else { h },
            slide: cadence < 2,
            width_mult: w + 1,
            ad,
            agg: match agg {
                0 => AggKind::Count,
                1 => AggKind::SumV,
                _ => AggKind::Avg,
            },
            narrow,
        },
    )
}

/// Log rows in canonical column order `(Time, StreamId, UserId, KwAdId,
/// V)`: a third of them clicks, over 11 users and 5 ads, unsorted.
fn arb_log() -> impl Strategy<Value = Vec<Row>> {
    let row = (0i64..500, 0i32..3, 0u8..11, 0u8..5, 0i64..50).prop_map(|(t, sid, u, ad, v)| {
        Row::new(vec![
            Value::Long(t),
            Value::Int(sid),
            Value::str(format!("u{u}")),
            Value::str(format!("ad{ad}")),
            Value::Long(v),
        ])
    });
    prop::collection::vec(row, 1..140)
}

/// A chaos schedule: explicit first-attempt kills at `(phase, task)` of
/// every stage, plus (when `seeded`) every fault kind at seeded rates
/// below the retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Chaos {
    pub seed: u64,
    pub seeded: bool,
    pub kills: Vec<(TaskPhase, usize)>,
}

/// Pool threads or forked worker processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workers {
    Threads(usize),
    Processes(usize),
}

/// One configuration of the cluster and the job front end.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub workers: Workers,
    /// Extents the log is stored in: one map task each.
    pub extents: usize,
    pub push_down: bool,
    /// One shared stage for all members, or one job per member.
    pub shared: bool,
    /// Shuffle memory budget in bytes (spills past it).
    pub budget: Option<u64>,
    pub chaos: Option<Chaos>,
    /// Seed of a shuffle of the rows inside every stored extent.
    pub row_seed: Option<u64>,
    /// The order the log's payload columns are stored (and declared) in.
    pub column_order: [usize; 4],
}

impl Config {
    /// Every dimension at its plainest.
    pub fn baseline() -> Self {
        Config {
            workers: Workers::Threads(1),
            extents: 1,
            push_down: false,
            shared: false,
            budget: None,
            chaos: None,
            row_seed: None,
            column_order: CANONICAL,
        }
    }
}

/// A dimension a test pins away from the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dim {
    Shared,
    PushDown,
    Processes,
    Spill,
    /// Seeded faults of every kind, plus explicit kills.
    Chaos,
    /// Explicit kills only, so the faults that fire are exactly theirs.
    Kills,
    RowOrder,
}

fn arb_chaos() -> impl Strategy<Value = Chaos> {
    let phase = prop_oneof![
        Just(TaskPhase::Map),
        Just(TaskPhase::Shuffle),
        Just(TaskPhase::Reduce)
    ];
    (
        any::<u64>(),
        any::<bool>(),
        prop::collection::vec((phase, 0usize..5), 0..4),
    )
        .prop_map(|(seed, seeded, kills)| Chaos {
            seed,
            seeded,
            kills,
        })
}

fn arb_order() -> impl Strategy<Value = [usize; 4]> {
    (0usize..24).prop_map(|mut k| {
        let mut left = CANONICAL.to_vec();
        let mut order = [0; 4];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = left.remove(k % (4 - i));
            k /= 4 - i;
        }
        order
    })
}

/// A configuration with every dimension drawn, then `pinned` forced away
/// from the baseline.
fn arb_config(pinned: &'static [Dim]) -> impl Strategy<Value = Config> {
    let workers = prop_oneof![
        (1usize..5).prop_map(Workers::Threads),
        (1usize..4).prop_map(Workers::Processes),
    ];
    let storage = (
        1usize..6,
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(CANONICAL), arb_order()],
    );
    (
        workers,
        storage,
        (any::<bool>(), any::<bool>()),
        prop_oneof![Just(None), Just(Some(2048u64))],
        prop_oneof![Just(None), arb_chaos().prop_map(Some)],
        (1usize..4, arb_chaos(), any::<u64>()),
    )
        .prop_map(
            move |(workers, storage, (push_down, shared), budget, chaos, forced)| {
                let (extents, row_seed, order) = storage;
                let mut c = Config {
                    workers,
                    extents,
                    push_down,
                    shared,
                    budget,
                    chaos,
                    row_seed,
                    column_order: order,
                };
                let (procs, mut schedule, seed) = forced;
                for dim in pinned {
                    match dim {
                        Dim::Shared => c.shared = true,
                        Dim::PushDown => c.push_down = true,
                        Dim::Processes => c.workers = Workers::Processes(procs),
                        Dim::Spill => c.budget = Some(2048),
                        Dim::Chaos => {
                            schedule.seeded = true;
                            c.chaos = Some(schedule.clone());
                        }
                        Dim::Kills => {
                            schedule.seeded = false;
                            schedule.kills.push((TaskPhase::Reduce, 0));
                            c.chaos = Some(schedule.clone());
                        }
                        Dim::RowOrder => c.row_seed = Some(seed),
                    }
                }
                c
            },
        )
}

/// Members, a log, a reduce partition count, and the configurations to
/// hold to the baseline.
#[derive(Debug, Clone)]
pub struct Case {
    pub members: Vec<Member>,
    pub rows: Vec<Row>,
    pub machines: usize,
    pub configs: Vec<Config>,
}

/// `configs` configurations per case, `pinned` in each.
pub fn arb_case(pinned: &'static [Dim], configs: usize) -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(arb_member(), 1..6),
        arb_log(),
        1usize..9,
        prop::collection::vec(arb_config(pinned), configs..configs + 1),
    )
        .prop_map(|(members, rows, machines, configs)| Case {
            members,
            rows,
            machines,
            configs,
        })
}

/// What one configuration published: per member, its extents and its
/// decoded relation; and the job's fault tallies.
struct Published {
    extents: Vec<Vec<StoredExtent>>,
    relations: Vec<EventStream>,
    faults: FaultTotals,
    /// Kill coordinates that name a task some stage really ran.
    live_kills: u64,
}

/// `rows` (canonical order) stored as the configuration says: columns in
/// its order, `extents` extents, rows shuffled inside each.
fn store(config: &Config, rows: &[Row]) -> Dfs {
    let order = config.column_order;
    let mut rows: Vec<Row> = (rows.iter())
        .map(|r| {
            let mut values = vec![r.get(0).clone()];
            values.extend(order.iter().map(|&i| r.get(i + 1).clone()));
            Row::new(values)
        })
        .collect();
    let per_extent = rows.len().div_ceil(config.extents).max(1);
    if let Some(seed) = config.row_seed {
        let mut state = seed | 1;
        for extent in rows.chunks_mut(per_extent) {
            for i in (1..extent.len()).rev() {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                extent.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
    }
    let parts: Vec<Vec<Row>> = rows.chunks(per_extent).map(<[Row]>::to_vec).collect();
    let dfs = Dfs::new();
    let schema = EventEncoding::Point.dataset_schema(&payload(&order));
    dfs.put("logs", Dataset::partitioned(schema, parts))
        .unwrap();
    dfs
}

fn chaos_plan(chaos: &Chaos, stages: &[String]) -> ChaosPlan {
    let mut plan = match chaos.seeded {
        true => ChaosPlan::seeded(chaos.seed)
            .with_panics(0.08)
            .with_transients(0.10)
            .with_corruption(0.08)
            .with_delays(0.06, Duration::from_micros(200))
            .with_process_kills(0.06)
            .with_fault_cap(2),
        false => ChaosPlan::none(),
    };
    for stage in stages {
        for &(phase, task) in &chaos.kills {
            plan = plan.kill(stage.clone(), phase, task);
        }
    }
    plan
}

/// Kill coordinates of `chaos` that name a task a stage of `stats` ran.
fn live_kills(chaos: &Chaos, stats: &JobStats) -> u64 {
    let mut kills: Vec<(TaskPhase, usize)> = Vec::new();
    for k in &chaos.kills {
        if !kills.contains(k) {
            kills.push(*k);
        }
    }
    let mut live = 0;
    for stage in &stats.stages {
        for (phase, task) in &kills {
            let tasks = match phase {
                TaskPhase::Map => stage.map_tasks,
                _ => stage.partitions,
            };
            live += u64::from(*task < tasks);
        }
    }
    live
}

/// Run every member under `config`.
fn run(config: &Config, members: &[Member], rows: &[Row], machines: usize) -> Published {
    let order = config.column_order;
    let plans: Vec<LogicalPlan> = members.iter().map(|m| member_plan(m, &order)).collect();
    let key = ExchangeKey::keys(&["UserId"]);
    let shared = MultiTimrJob::new("shared", plans.clone())
        .with_key(key.clone())
        .with_machines(machines)
        .with_push_down(config.push_down);
    let solo: Vec<TimrJob> = (plans.iter().enumerate())
        .map(|(i, plan)| {
            let filter = plan.consumers(0)[0];
            TimrJob::new(format!("q{i}"), plan.clone())
                .with_annotation(Annotation::none().exchange(filter, 0, key.clone()))
                .with_machines(machines)
                .with_push_down(config.push_down)
        })
        .collect();
    let stages: Vec<String> = match config.shared {
        true => vec![shared.compile().unwrap().stage.name],
        false => (solo.iter())
            .map(|j| j.compile().unwrap().stages[0].name.clone())
            .collect(),
    };
    let (backend, threads) = match config.workers {
        Workers::Threads(n) => (BackendKind::Threads, n),
        Workers::Processes(n) => (BackendKind::Processes { workers: n }, n),
    };
    let cluster = Cluster::with_config(ClusterConfig {
        threads,
        backend,
        chaos: (config.chaos.as_ref()).map_or_else(ChaosPlan::none, |c| chaos_plan(c, &stages)),
        retry: RetryPolicy::no_backoff(4),
        memory_budget_bytes: config.budget,
        ..ClusterConfig::default()
    });
    let dfs = store(config, rows);
    let (datasets, stats) = match config.shared {
        true => {
            let out = shared.run(&dfs, &cluster).unwrap();
            (out.datasets, out.stats)
        }
        false => {
            let mut datasets = Vec::new();
            let mut stats = JobStats::default();
            for job in &solo {
                let out = job.run(&dfs, &cluster).unwrap();
                datasets.push(out.dataset);
                stats.stages.extend(out.stats.stages);
            }
            (datasets, stats)
        }
    };
    let extents = (datasets.iter())
        .map(|d| dfs.get(d).unwrap().partitions.as_ref().clone())
        .collect();
    let relations = (datasets.iter())
        .map(|d| read_output(&dfs, d).unwrap())
        .collect();
    Published {
        extents,
        relations,
        faults: stats.fault_totals(),
        live_kills: config.chaos.as_ref().map_or(0, |c| live_kills(c, &stats)),
    }
}

/// The tallies that are functions of the chaos schedule and the stage
/// shapes alone, not of wall-clock races.
fn deterministic(t: &FaultTotals) -> [u64; 5] {
    [
        t.task_retries,
        t.panics_contained,
        t.transient_faults,
        t.corruption_detected,
        t.delays_injected,
    ]
}

/// Each member's relation over `rows` according to the oracle.
fn oracle_relations(members: &[Member], rows: &[Row]) -> Vec<EventStream> {
    let log = EventEncoding::Point
        .decode_stream(rows, &payload(&CANONICAL))
        .expect("generated rows decode");
    let sources = HashMap::from([("logs".to_string(), log)]);
    (members.iter())
        .map(|m| oracle::run_single(&member_plan(m, &CANONICAL), &sources).unwrap())
        .collect()
}

/// The property: the baseline's relations are the oracle's, and every
/// configuration publishes the baseline's bytes and the oracle's relations.
/// A chaos schedule's kills that name a live task fired, and forked workers
/// tally the same deterministic faults as pool threads under one schedule.
pub fn check(case: &Case) -> Result<(), TestCaseError> {
    let Case {
        members,
        rows,
        machines,
        configs,
    } = case;
    let want = oracle_relations(members, rows);
    let mut baseline: Option<Vec<Vec<StoredExtent>>> = None;
    for config in std::iter::once(&Config::baseline()).chain(configs) {
        let got = run(config, members, rows, *machines);
        let bytes = baseline.get_or_insert_with(|| got.extents.clone());
        prop_assert_eq!(&got.extents, bytes, "{:?}", config);
        for (i, (relation, want)) in got.relations.iter().zip(&want).enumerate() {
            let same = oracle::same_relation(relation, want, &Tolerance::exact());
            prop_assert!(
                same.is_ok(),
                "query {} under {:?}: {}",
                i,
                config,
                same.unwrap_err()
            );
        }
        prop_assert!(
            got.faults.transient_faults >= got.live_kills,
            "{} live kills, {:?}, under {:?}",
            got.live_kills,
            got.faults,
            config
        );
        if let (Some(_), Workers::Processes(_)) = (&config.chaos, config.workers) {
            let threads = Config {
                workers: Workers::Threads(4),
                ..config.clone()
            };
            let twin = run(&threads, members, rows, *machines);
            prop_assert_eq!(
                deterministic(&got.faults),
                deterministic(&twin.faults),
                "fault tallies differ from threads under {:?}",
                config
            );
        }
    }
    Ok(())
}
