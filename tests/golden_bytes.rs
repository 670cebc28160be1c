//! Committed digests of the bytes the system publishes.
//!
//! Paper §III-C.1: a restarted or rescheduled job publishes the same bytes.
//! The property suites hold configurations of one tree to each other and to
//! the oracle; this test holds the tree to `tests/golden/bytes.txt`, so a
//! change that moved a published byte in every configuration at once fails
//! here.
//!
//! At seeds 42 and 1729, over a 200-user log laid out as the benchmark lays
//! it out (8 extents, 8 reduce partitions), it writes with `save_dataset`,
//! into a temporary directory:
//! - `BtPipeline::run`'s `clean`, `labels`, `train_rows` and `scores`;
//! - `run_custom`'s `cust_examples` and `cust_scores`;
//! - the cleaned log a separate BotElim job publishes, and over it the
//!   GenTrainData job with push-down off: on threads, under a spill budget
//!   of an eighth of its shuffle, and on two forked workers;
//! - a job over the log with a nullable key and a nullable double, its
//!   timestamps cut to ten minutes: a running sum per key, on threads and
//!   under a spill budget. No BT output has a null, and none adds doubles
//!   in the order a reducer reads its input; this one publishes rows that
//!   tie on their lifetimes and differ only in a null, and sums whose last
//!   bits follow the order the reducer's chunks are merged in;
//! - the 16 shared dashboards and the click score;
//! - each Fig 15 sub-query's root, computed by the batch `execute` over
//!   bindings decoded with `decode_column_batch` and encoded by
//!   `encode_sink` (one extent each);
//! - RunningClickCount through `RtSession`, punctuated every 256 events:
//!   each punctuation, and the close, as one extent in canonical order.
//!
//! Every file (schema and `part-NNNNN.bin` alike) is digested with a 64-bit
//! FNV-1a written here, not `relation::hash`, so that a change to the
//! library's hasher cannot move both sides. Each line of the golden file is
//! `seed dataset/file digest length`.
//!
//! A change that moves published bytes on purpose regenerates the file,
//! and says in CHANGES.md which lines changed and why:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release --test golden_bytes
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use timr_suite::adgen::{self, generate, GenConfig};
use timr_suite::bt::pipeline::BtPipeline;
use timr_suite::bt::queries::{self, advertisers};
use timr_suite::bt::{self, BtParams};
use timr_suite::mapreduce::persist::save_dataset;
use timr_suite::mapreduce::{BackendKind, Cluster, ClusterConfig, Dataset, Dfs, StoredExtent};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{ColumnBatch, Row, Schema, Value};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{execute, BatchBindings};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::rt::RtSession;
use timr_suite::temporal::{Event, EventBatch, EventStream, LogicalPlan, Query};
use timr_suite::timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

const SEEDS: [u64; 2] = [42, 1729];
const USERS: usize = 200;
/// Extents of the log and reduce partitions of every job.
const MACHINES: usize = 8;
const DASHBOARDS: usize = 16;
const PUNCTUATE_EVERY: usize = 256;
const GOLDEN: &str = "tests/golden/bytes.txt";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where one seed's datasets are saved, and the names saved so far.
struct Saved {
    root: PathBuf,
    names: Vec<String>,
}

impl Saved {
    fn save(&mut self, name: &str, dataset: &Dataset) {
        save_dataset(&self.root, name, dataset).unwrap();
        self.names.push(name.to_string());
    }

    /// Save the DFS dataset `from` as `name`.
    fn save_from(&mut self, dfs: &Dfs, from: &str, name: &str) {
        self.save(name, &dfs.get(from).unwrap());
    }

    /// One line per file of every saved dataset, in save order.
    fn lines(&self, seed: u64) -> Vec<String> {
        let mut lines = Vec::new();
        for name in &self.names {
            let mut files: Vec<PathBuf> = fs::read_dir(self.root.join(name))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            for path in files {
                let bytes = fs::read(&path).unwrap();
                let file = path.file_name().unwrap().to_str().unwrap();
                lines.push(format!(
                    "{seed} {name}/{file} {:016x} {}",
                    fnv1a(&bytes),
                    bytes.len()
                ));
            }
        }
        lines
    }
}

/// A one-extent dataset of `batch`, sealed as a stage seals its output.
fn one_extent(batch: &ColumnBatch) -> Dataset {
    let schema = batch.schema().clone();
    let extent = StoredExtent::seal(&schema, batch).unwrap();
    Dataset {
        schema,
        partitions: Arc::new(vec![extent]),
    }
}

fn dfs_with(inputs: &[(&str, &Dataset)]) -> Dfs {
    let dfs = Dfs::new();
    for (name, ds) in inputs {
        dfs.put_overwrite(*name, (*ds).clone());
    }
    dfs
}

/// A dataset's extents, concatenated in partition order, decoded as a
/// reducer decodes its input.
fn decode(ds: &Dataset, source: &str, payload: &Schema) -> EventBatch {
    let encoding = match EventEncoding::Interval.payload_schema(&ds.schema) {
        Ok(_) => EventEncoding::Interval,
        Err(_) => EventEncoding::Point,
    };
    let mut columns = ColumnBatch::from_rows(&ds.schema, &[]).unwrap();
    for i in 0..ds.extents().len() {
        columns.append(ds.batch(i).unwrap()).unwrap();
    }
    encoding
        .decode_column_batch(columns, source, payload)
        .unwrap()
}

/// The first root of `plan` over `sources`.
fn root(plan: &LogicalPlan, sources: &[(&str, &EventBatch)]) -> EventBatch {
    let bound: BatchBindings = (sources.iter())
        .map(|(name, batch)| (name.to_string(), (*batch).clone()))
        .collect();
    execute(plan, bound).unwrap().0.remove(0)
}

/// The log's events with what no BT output has: a nullable key and a
/// nullable double, and timestamps cut to ten minutes so that events tie.
fn null_log(log: &adgen::GeneratedLog) -> Dataset {
    let schema = Schema::timestamped(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
        Field::new("D", ColumnType::Double),
    ]);
    let rows: Vec<Row> = (log.events.iter().enumerate())
        .map(|(i, e)| {
            let key = match i % 5 {
                0 => Value::Null,
                _ => Value::from(e.kw_ad.as_str()),
            };
            let d = match i % 11 {
                0 => Value::Null,
                _ => Value::Double((i * 7919 % 1000) as f64 / 7.0),
            };
            let t = e.time - e.time.rem_euclid(600);
            Row::new(vec![Value::Long(t), Value::from(e.user.as_str()), key, d])
        })
        .collect();
    let per_extent = rows.len().div_ceil(MACHINES).max(1);
    Dataset::partitioned(
        schema,
        rows.chunks(per_extent).map(<[Row]>::to_vec).collect(),
    )
}

/// Per `KwAdId`, nulls one group, an hour's running sum and count of `D`,
/// push-down off so that every row crosses the shuffle. Groups publish
/// rows that tie on their lifetimes, which the sink orders by the key,
/// nulls first; a double sum adds the events that tie in the order the
/// reducer reads them, which is the order its chunks are merged in.
fn null_job() -> TimrJob {
    let payload = Schema::new(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
        Field::new("D", ColumnType::Double),
    ]);
    let q = Query::new();
    let out = q.source("nulls", payload).group_apply(&["KwAdId"], |g| {
        g.window(timr_suite::temporal::HOUR).aggregate(vec![
            ("S".to_string(), AggExpr::Sum(col("D"))),
            ("N".to_string(), AggExpr::Count),
        ])
    });
    let plan = q.build(vec![out]).unwrap();
    let group = (plan.nodes().iter())
        .position(|n| n.op.name() == "GroupApply")
        .unwrap();
    let key = ExchangeKey::keys(&["KwAdId"]);
    TimrJob::new("nulls", plan)
        .with_annotation(Annotation::none().exchange(group, 0, key))
        .with_machines(MACHINES)
        .with_push_down(false)
}

/// Every output of one seed, saved under `root`.
fn publish(seed: u64, root_dir: &Path) -> Vec<String> {
    let mut saved = Saved {
        root: root_dir.to_path_buf(),
        names: Vec::new(),
    };
    let mut cfg = GenConfig::small(seed);
    cfg.users = USERS;
    let log = generate(&cfg);
    let rows = log.rows();
    let per_extent = rows.len().div_ceil(MACHINES).max(1);
    let extents: Vec<Vec<Row>> = rows.chunks(per_extent).map(<[Row]>::to_vec).collect();
    let logs = Dataset::partitioned(adgen::unified_schema(), extents);
    let params = BtParams {
        machines: MACHINES,
        ..Default::default()
    };
    let threads = Cluster::new();

    // The BT pipeline and the hand-written baseline.
    let dfs = dfs_with(&[("logs", &logs)]);
    let a = BtPipeline::new(params.clone())
        .run(&dfs, &threads, "logs", "bt")
        .unwrap();
    saved.save_from(&dfs, &a.clean, "bt_clean");
    saved.save_from(&dfs, &a.labels, "bt_labels");
    saved.save_from(&dfs, &a.train_rows, "bt_train_rows");
    saved.save_from(&dfs, &a.scores, "bt_scores");
    bt::baselines::custom::run_custom(&dfs, &threads, "logs", "cust", &params).unwrap();
    saved.save_from(&dfs, "cust_examples", "cust_examples");
    saved.save_from(&dfs, "cust_scores", "cust_scores");

    // The cleaned log, as its own BotElim job publishes it.
    let bot = queries::bot_elim::query(&params);
    let dfs = dfs_with(&[("logs", &logs)]);
    let out = TimrJob::new("prep_botelim", bot.plan)
        .with_annotation(bot.annotation)
        .with_machines(MACHINES)
        .run(&dfs, &threads)
        .unwrap();
    let clean = dfs.get(&out.dataset).unwrap();
    saved.save("prep_clean", &clean);

    // GenTrainData, push-down off, on threads, spilling, and on workers.
    let train = queries::train_data::train_query(&params);
    let job = TimrJob::new("bt_train", train.plan)
        .with_annotation(train.annotation)
        .with_machines(MACHINES)
        .with_source_encoding("clean_logs", EventEncoding::Interval)
        .with_push_down(false);
    let dfs = dfs_with(&[("clean_logs", &clean)]);
    let out = job.run(&dfs, &threads).unwrap();
    saved.save_from(&dfs, &out.dataset, "train_threads");
    let spill_dir = root_dir.join("spill");
    fs::create_dir_all(&spill_dir).unwrap();
    let budget = (out.stats.total_shuffle_bytes_binary() / 8).max(1);
    let configs = [
        (
            "train_spill",
            ClusterConfig {
                memory_budget_bytes: Some(budget),
                spill_dir: Some(spill_dir.clone()),
                ..ClusterConfig::default()
            },
        ),
        (
            "train_workers",
            ClusterConfig {
                backend: BackendKind::Processes { workers: 2 },
                ..ClusterConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        let dfs = dfs_with(&[("clean_logs", &clean)]);
        let out = job.run(&dfs, &Cluster::with_config(config)).unwrap();
        if name == "train_spill" {
            let spilled: u64 = out.stats.stages.iter().map(|s| s.spill_extents).sum();
            assert!(spilled > 0, "nothing spilled");
        }
        saved.save_from(&dfs, &out.dataset, name);
    }
    fs::remove_dir_all(&spill_dir).unwrap();

    // Nulls and ties, which no BT output has, on threads and spilling.
    let nulls = null_log(&log);
    let job = null_job();
    let dfs = dfs_with(&[("nulls", &nulls)]);
    let out = job.run(&dfs, &threads).unwrap();
    saved.save_from(&dfs, &out.dataset, "nulls_threads");
    let budget = (out.stats.total_shuffle_bytes_binary() / 8).max(1);
    let spill = ClusterConfig {
        memory_budget_bytes: Some(budget),
        spill_dir: Some(spill_dir.clone()),
        ..ClusterConfig::default()
    };
    fs::create_dir_all(&spill_dir).unwrap();
    let dfs = dfs_with(&[("nulls", &nulls)]);
    let out = job.run(&dfs, &Cluster::with_config(spill)).unwrap();
    let spilled: u64 = out.stats.stages.iter().map(|s| s.spill_extents).sum();
    assert!(spilled > 0, "nothing spilled");
    saved.save_from(&dfs, &out.dataset, "nulls_spill");
    fs::remove_dir_all(&spill_dir).unwrap();

    // The shared dashboards and the click score.
    let dfs = dfs_with(&[("logs", &logs), (advertisers::CLEAN_LOG_DATASET, &clean)]);
    let d = advertisers::dashboard_job(&params, DASHBOARDS)
        .run(&dfs, &threads)
        .unwrap();
    for (i, ds) in d.datasets.iter().enumerate() {
        saved.save_from(&dfs, ds, &format!("dashboard_{i:02}"));
    }
    let c = advertisers::click_score_job(&params)
        .run(&dfs, &threads)
        .unwrap();
    saved.save_from(&dfs, &c.dataset, "click_score");

    // The Fig 15 sub-queries over the pipeline's datasets, on the batch
    // path a reducer runs, each root through the reduce sink.
    let dfs = dfs_with(&[("logs", &logs)]);
    let a = BtPipeline::new(params.clone())
        .run(&dfs, &threads, "logs", "prep")
        .unwrap();
    let get = |name: &str| dfs.get(name).unwrap();
    let logs_b = decode(&logs, "logs", &queries::log_payload());
    let clean_b = decode(&get(&a.clean), "clean_logs", &queries::log_payload());
    let labels_b = decode(&get(&a.labels), "labels", &queries::labels_payload());
    let train_b = decode(
        &get(&a.train_rows),
        "train_rows",
        &queries::train_rows_payload(),
    );
    let mut model_params = params.clone();
    model_params.horizon = 6 * timr_suite::temporal::HOUR;
    let model = queries::model::model_query(&model_params, bt::lr::LrConfig::default()).plan;
    let models = root(&model, &[("train_rows", &train_b)]);
    let profiles = {
        let q = Query::new();
        let view = q
            .source("train_rows", queries::train_rows_payload())
            .project(
                ["UserId", "Keyword", "Cnt"]
                    .map(|c| (c.to_string(), col(c)))
                    .to_vec(),
            );
        root(&q.build(vec![view]).unwrap(), &[("train_rows", &train_b)])
    };
    let sub_queries: [(&str, EventBatch); 6] = [
        (
            "fig15_botelim",
            root(
                &queries::bot_elim::query(&params).plan,
                &[("logs", &logs_b)],
            ),
        ),
        (
            "fig15_labels",
            root(
                &queries::train_data::labels_query(&params).plan,
                &[("clean_logs", &clean_b)],
            ),
        ),
        (
            "fig15_gentrain",
            root(
                &queries::train_data::train_query(&params).plan,
                &[("clean_logs", &clean_b)],
            ),
        ),
        (
            "fig15_featsel",
            root(
                &queries::feature_selection::query(&params).plan,
                &[("labels", &labels_b), ("train_rows", &train_b)],
            ),
        ),
        ("fig15_modelgen", models.clone()),
        (
            "fig15_scoring",
            root(
                &queries::model::scoring_query(&params).plan,
                &[("profiles", &profiles), ("models", &models)],
            ),
        ),
    ];
    for (name, batch) in sub_queries {
        let sink = EventEncoding::Interval.encode_sink(batch).unwrap();
        saved.save(name, &one_extent(&sink));
    }

    // RunningClickCount, online: each punctuation in canonical order.
    let q = Query::new();
    let out = q
        .source("logs", queries::log_payload())
        .filter(col("StreamId").eq(lit(queries::stream_id::CLICK)))
        .group_apply(&["KwAdId"], |g| {
            g.window(6 * timr_suite::temporal::HOUR).count("ClickCount")
        });
    let plan = q.build(vec![out]).unwrap();
    let mut session = RtSession::new(plan).unwrap();
    let schema = session.output_schema().clone();
    let mut punctuations: Vec<Vec<Event>> = Vec::new();
    let events: Vec<Event> = (log.events.iter())
        .map(|e| {
            let payload =
                timr_suite::relation::row![e.stream as i32, e.user.as_str(), e.kw_ad.as_str()];
            Event::point(e.time, payload)
        })
        .collect();
    for chunk in events.chunks(PUNCTUATE_EVERY) {
        for e in chunk {
            session.push("logs", e.clone()).unwrap();
        }
        if chunk.len() == PUNCTUATE_EVERY {
            punctuations.push(session.punctuate(chunk[chunk.len() - 1].start()).unwrap());
        }
    }
    punctuations.push(session.close().unwrap());
    let extents = (punctuations.into_iter())
        .map(|events| {
            let stream = EventStream::new(schema.clone(), events);
            let batch = EventEncoding::Interval.encode_stream(&stream).unwrap();
            StoredExtent::seal(batch.schema(), &batch).unwrap()
        })
        .collect();
    let rt = Dataset {
        schema: EventEncoding::Interval.dataset_schema(&schema),
        partitions: Arc::new(extents),
    };
    saved.save("rt_punctuations", &rt);

    saved.lines(seed)
}

#[test]
fn published_bytes_match_the_committed_digests() {
    let tmp = std::env::temp_dir().join(format!("golden_bytes_{}", std::process::id()));
    let mut lines = Vec::new();
    for seed in SEEDS {
        let dir = tmp.join(seed.to_string());
        fs::create_dir_all(&dir).unwrap();
        lines.extend(publish(seed, &dir));
    }
    fs::remove_dir_all(&tmp).unwrap();
    let actual = lines.join("\n") + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(&golden, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&golden).unwrap_or_default();
    if expected != actual {
        let want: Vec<&str> = expected.lines().collect();
        let got: Vec<&str> = actual.lines().collect();
        let missing: Vec<&&str> = want.iter().filter(|l| !got.contains(l)).collect();
        let extra: Vec<&&str> = got.iter().filter(|l| !want.contains(l)).collect();
        panic!(
            "published bytes differ from {GOLDEN}\n\
             expected, not produced ({}):\n{}\n\
             produced, not expected ({}):\n{}\n\
             if the change is on purpose, regenerate with \
             `GOLDEN_BLESS=1 cargo test --release --test golden_bytes` \
             and say why in CHANGES.md",
            missing.len(),
            missing
                .iter()
                .map(|l| format!("  {l}"))
                .collect::<Vec<_>>()
                .join("\n"),
            extra.len(),
            extra
                .iter()
                .map(|l| format!("  {l}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}
