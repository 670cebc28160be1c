//! End-to-end BT orchestration over TiMR (paper Fig 10).
//!
//! Two jobs, as the paper partitions the BT solution (§III-A, §VI,
//! Example 3): everything up to feature selection runs under one
//! `{UserId}` partitioning, feature selection under `{AdId}`.
//!
//! 1. One `MultiTimrJob` stage keyed `{UserId}` over the raw log with
//!    three single-output plans — the cleaned log
//!    ([`bot_elim::clean_stream`]), the labelled stream over it
//!    ([`train_data::labelled_stream`]) and the training rows over it
//!    ([`train_data::train_stream`]). `share_plans` merges what they have
//!    in common, so each reducer runs BotElim and the labelled stream once
//!    and publishes `clean`, `labels` and `train_rows`; the raw log is
//!    shuffled once and the cleaned log not at all.
//! 2. Feature selection as a `TimrJob` keyed `{AdId}`, reading `labels`
//!    and `train_rows` (Interval-encoded) with both partial counts pushed
//!    map-side.
//!
//! Typed views of the resulting datasets feed model training and
//! evaluation.

use crate::error::{BtError, Result};
use crate::example::Example;
use crate::params::BtParams;
use crate::queries::{self, bot_elim, log_payload, train_data};
use mapreduce::{Cluster, Dfs, JobStats};
use relation::Row;
use rustc_hash::FxHashMap;
use temporal::plan::{Query, StreamHandle};
use timr::{EventEncoding, ExchangeKey, MultiTimrJob, TimrJob};

/// Dataset names produced by one pipeline run, plus per-job statistics.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// Cleaned (bot-free) log.
    pub clean: String,
    /// Labelled click/non-click events.
    pub labels: String,
    /// Per-(example, keyword) training rows.
    pub train_rows: String,
    /// Keyword z-scores.
    pub scores: String,
    /// `(job name, stats)` in execution order.
    pub stats: Vec<(String, JobStats)>,
}

/// One keyword's feature-selection result.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordScore {
    /// Ad class.
    pub ad: String,
    /// Keyword.
    pub keyword: String,
    /// Clicks with the keyword in the profile.
    pub clicks_with: i64,
    /// Examples with the keyword in the profile.
    pub examples_with: i64,
    /// Ad total clicks.
    pub total_clicks: i64,
    /// Ad total examples.
    pub total_examples: i64,
    /// The z statistic.
    pub z: f64,
}

/// The TiMR-based BT pipeline.
#[derive(Debug, Clone, Default)]
pub struct BtPipeline {
    /// BT parameters.
    pub params: BtParams,
}

impl BtPipeline {
    /// Build with parameters.
    pub fn new(params: BtParams) -> Self {
        BtPipeline { params }
    }

    /// Run both jobs against `logs_dataset` (Point-encoded unified log).
    /// Dataset names are prefixed with `prefix` so multiple runs (e.g.
    /// train/test splits) can share a DFS.
    pub fn run(
        &self,
        dfs: &Dfs,
        cluster: &Cluster,
        logs_dataset: &str,
        prefix: &str,
    ) -> Result<PipelineArtifacts> {
        self.run_jobs(dfs, cluster, logs_dataset, prefix, true)
    }

    /// [`Self::run`] with map-side push-down set to `push_down` in both
    /// jobs (on there; the tests switch it off).
    fn run_jobs(
        &self,
        dfs: &Dfs,
        cluster: &Cluster,
        logs_dataset: &str,
        prefix: &str,
        push_down: bool,
    ) -> Result<PipelineArtifacts> {
        // 1. BotElim, labels and GenTrainData: logs -> clean, labels,
        //    train_rows, in one stage keyed by {UserId}.
        alias(dfs, logs_dataset, "logs")?;
        let out = self
            .user_stage(prefix)?
            .with_push_down(push_down)
            .run(dfs, cluster)?;
        let [clean, labels, train_rows]: [String; 3] =
            out.datasets.try_into().expect("one output per query");
        let mut stats = vec![("BotElim+GenTrainData".to_string(), out.stats)];

        // 2. Feature selection: labels + train_rows -> scores.
        alias(dfs, &labels, "labels")?;
        alias(dfs, &train_rows, "train_rows")?;
        let fs_q = queries::feature_selection::query(&self.params);
        let out = TimrJob::new(format!("{prefix}_scores"), fs_q.plan)
            .with_annotation(fs_q.annotation)
            .with_machines(self.params.machines)
            .with_source_encoding("labels", EventEncoding::Interval)
            .with_source_encoding("train_rows", EventEncoding::Interval)
            .with_push_down(push_down)
            .run(dfs, cluster)?;
        stats.push(("FeatureSelection".to_string(), out.stats));

        Ok(PipelineArtifacts {
            clean,
            labels,
            train_rows,
            scores: out.dataset,
            stats,
        })
    }

    /// The `{UserId}`-keyed job over the `logs` source: three plans — the
    /// cleaned log, the labelled stream over it, the training rows over
    /// it — that `share_plans` merges so each reducer runs BotElim and the
    /// labelled stream once for all three outputs.
    fn user_stage(&self, prefix: &str) -> Result<MultiTimrJob> {
        let params = &self.params;
        let over_clean = |stream: fn(&StreamHandle, &BtParams) -> StreamHandle| {
            let q = Query::new();
            let clean = bot_elim::clean_stream(&q.source("logs", log_payload()), params);
            q.build(vec![stream(&clean, params)])
        };
        let plans = vec![
            over_clean(|clean, _| clean.clone())?,
            over_clean(train_data::labelled_stream)?,
            over_clean(train_data::train_stream)?,
        ];
        Ok(MultiTimrJob::new(format!("{prefix}_user"), plans)
            .with_key(ExchangeKey::keys(&["UserId"]))
            .with_machines(params.machines))
    }

    /// Decode keyword scores from a scores dataset (TiMR Interval
    /// encoding: `Time, TimeEnd, AdId, Keyword, …, Z`).
    pub fn load_scores(dfs: &Dfs, dataset: &str) -> Result<Vec<KeywordScore>> {
        let ds = dfs.get(dataset)?;
        let mut out = Vec::with_capacity(ds.len());
        for r in ds.iter() {
            out.push(parse_score_row(&r, 2)?);
        }
        out.sort_by(|a, b| (&a.ad, &a.keyword).cmp(&(&b.ad, &b.keyword)));
        Ok(out)
    }

    /// Decode keyword scores from the custom pipeline's output
    /// (Point-style framing: `Time, AdId, Keyword, …, Z`).
    pub fn load_custom_scores(dfs: &Dfs, dataset: &str) -> Result<Vec<KeywordScore>> {
        let ds = dfs.get(dataset)?;
        let mut out = Vec::with_capacity(ds.len());
        for r in ds.iter() {
            out.push(parse_score_row(&r, 1)?);
        }
        out.sort_by(|a, b| (&a.ad, &a.keyword).cmp(&(&b.ad, &b.keyword)));
        Ok(out)
    }

    /// Assemble labelled examples with sparse profiles from the labels and
    /// train-rows datasets (both TiMR Interval-encoded).
    pub fn load_examples(dfs: &Dfs, labels: &str, train_rows: &str) -> Result<Vec<Example>> {
        let get = |r: &Row, i: usize| -> Result<String> {
            r.get(i)
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| BtError::Pipeline(format!("expected string at column {i}")))
        };
        let mut examples: FxHashMap<(i64, String, String), Example> = FxHashMap::default();
        for r in dfs.get(labels)?.iter() {
            let t = r
                .get(0)
                .as_long()
                .ok_or_else(|| BtError::Pipeline("bad Time".into()))?;
            let user = get(&r, 2)?;
            let ad = get(&r, 3)?;
            let label = match r.get(4).as_long() {
                Some(l @ 0..=1) => l as u8,
                _ => {
                    return Err(BtError::Pipeline(format!(
                        "column Label: expected 0 or 1, got {:?}",
                        r.get(4)
                    )))
                }
            };
            examples.insert(
                (t, user.clone(), ad.clone()),
                Example {
                    time: t,
                    user,
                    ad,
                    label,
                    features: FxHashMap::default(),
                },
            );
        }
        for r in dfs.get(train_rows)?.iter() {
            let t = r
                .get(0)
                .as_long()
                .ok_or_else(|| BtError::Pipeline("bad Time".into()))?;
            let user = get(&r, 2)?;
            let ad = get(&r, 3)?;
            let kw = get(&r, 5)?;
            let cnt = r.get(6).as_double().ok_or_else(|| {
                BtError::Pipeline(format!("column Cnt: expected a number, got {:?}", r.get(6)))
            })?;
            if let Some(e) = examples.get_mut(&(t, user, ad)) {
                e.features.insert(kw, cnt);
            }
        }
        let mut out: Vec<Example> = examples.into_values().collect();
        out.sort_by(|a, b| (a.time, &a.user, &a.ad).cmp(&(b.time, &b.user, &b.ad)));
        Ok(out)
    }
}

fn parse_score_row(r: &Row, base: usize) -> Result<KeywordScore> {
    let s = |i: usize| -> Result<String> {
        r.get(i)
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| BtError::Pipeline(format!("expected string at column {i}")))
    };
    let n = |i: usize| -> Result<i64> {
        r.get(i)
            .as_long()
            .ok_or_else(|| BtError::Pipeline(format!("expected integer at column {i}")))
    };
    Ok(KeywordScore {
        ad: s(base)?,
        keyword: s(base + 1)?,
        clicks_with: n(base + 2)?,
        examples_with: n(base + 3)?,
        total_clicks: n(base + 4)?,
        total_examples: n(base + 5)?,
        z: r.get(base + 6)
            .as_double()
            .ok_or_else(|| BtError::Pipeline("expected double Z".into()))?,
    })
}

fn alias(dfs: &Dfs, from: &str, to: &str) -> Result<()> {
    if from != to {
        let ds = dfs.get(from)?;
        dfs.put_overwrite(to, ds);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adgen::{generate, GenConfig};
    use mapreduce::Dataset;
    use temporal::plan::Operator;

    fn run_small() -> (Dfs, PipelineArtifacts, adgen::GroundTruth) {
        let mut cfg = GenConfig::small(23);
        cfg.users = 600;
        let log = generate(&cfg);
        let truth = log.truth.clone();
        let dfs = Dfs::new();
        dfs.put("raw", Dataset::single(adgen::unified_schema(), log.rows()))
            .unwrap();
        let params = BtParams {
            machines: 4,
            ..Default::default()
        };
        let artifacts = BtPipeline::new(params)
            .run(&dfs, &Cluster::new(), "raw", "t")
            .unwrap();
        (dfs, artifacts, truth)
    }

    #[test]
    fn pipeline_produces_all_artifacts_and_recovers_planted_keywords() {
        let (dfs, artifacts, truth) = run_small();
        assert_eq!(artifacts.stats.len(), 2);

        let scores = BtPipeline::load_scores(&dfs, &artifacts.scores).unwrap();
        assert!(!scores.is_empty(), "feature selection found keywords");

        // The z-test must recover planted positive keywords: among the
        // top-scoring keywords of each ad, planted positives dominate.
        let mut hits = 0usize;
        let mut total = 0usize;
        for ad in truth.positive_keywords.keys() {
            let mut ad_scores: Vec<&KeywordScore> = scores
                .iter()
                .filter(|s| &s.ad == ad && s.z > 1.96)
                .collect();
            ad_scores.sort_by(|a, b| b.z.total_cmp(&a.z));
            for s in ad_scores.iter().take(5) {
                total += 1;
                if truth.positive_keywords[ad].contains(&s.keyword) {
                    hits += 1;
                }
            }
        }
        assert!(total >= 5, "expected significant keywords, got {total}");
        assert!(
            hits as f64 / total as f64 > 0.7,
            "planted positives should dominate top z-scores: {hits}/{total}"
        );

        // Examples load and have sane labels.
        let examples =
            BtPipeline::load_examples(&dfs, &artifacts.labels, &artifacts.train_rows).unwrap();
        assert!(!examples.is_empty());
        let ctr = crate::example::ctr(&examples);
        assert!(ctr > 0.0 && ctr < 0.5, "ctr {ctr}");
    }

    /// Push-down — in the shared `{UserId}` stage and with both
    /// feature-selection counts combined map-side — publishes the very
    /// extent images the reduce-only plans do, for all four datasets.
    #[test]
    fn push_down_on_and_off_publish_the_same_extent_images() {
        let mut cfg = GenConfig::small(7);
        cfg.users = 200;
        let dfs = Dfs::new();
        let rows = generate(&cfg).rows();
        dfs.put("raw", Dataset::single(adgen::unified_schema(), rows))
            .unwrap();
        let pipeline = BtPipeline::new(BtParams {
            machines: 4,
            ..Default::default()
        });
        let cluster = Cluster::new();
        let on = pipeline.run(&dfs, &cluster, "raw", "on").unwrap();
        let off = pipeline
            .run_jobs(&dfs, &cluster, "raw", "off", false)
            .unwrap();
        let saved = |a: &PipelineArtifacts| -> u64 {
            a.stats
                .iter()
                .map(|(_, s)| s.total_shuffle_bytes_saved())
                .sum()
        };
        assert!(saved(&on) > 0 && saved(&off) == 0);
        for (a, b) in [
            (&on.clean, &off.clean),
            (&on.labels, &off.labels),
            (&on.train_rows, &off.train_rows),
            (&on.scores, &off.scores),
        ] {
            let (a, b) = (dfs.get(a).unwrap(), dfs.get(b).unwrap());
            assert!(!a.is_empty());
            assert_eq!(a.extents().len(), b.extents().len());
            for (x, y) in a.extents().iter().zip(b.extents()) {
                assert_eq!(x.bytes, y.bytes);
            }
        }
    }

    /// The first job is one stage whose merged DAG holds BotElim once —
    /// one `[UserId]` GroupApply, one bot AntiSemiJoin — and the labelled
    /// stream once, though two of the three plans read it: its non-click
    /// AntiSemiJoin is the only other one.
    #[test]
    fn the_user_stage_runs_bot_elim_and_the_labels_once() {
        let job = BtPipeline::default().user_stage("t").unwrap();
        assert_eq!(job.queries.len(), 3);
        let compiled = job.compile().unwrap();
        let ops = |pred: &dyn Fn(&Operator) -> bool| {
            (compiled.plan.nodes().iter())
                .filter(|n| pred(&n.op))
                .count()
        };
        let user_id = ["UserId".to_string()];
        let by_user =
            |op: &Operator| matches!(op, Operator::GroupApply { keys, .. } if keys[..] == user_id);
        assert_eq!(ops(&by_user), 1, "{}", compiled.plan);
        let asj = |op: &Operator| matches!(op, Operator::AntiSemiJoin { .. });
        assert_eq!(ops(&asj), 2, "{}", compiled.plan);
        assert!(compiled.shared.shared_nodes > 0, "{:?}", compiled.shared);
        assert_eq!(compiled.outputs.len(), 3);
        assert_eq!(compiled.plan.roots().len(), 3);
    }

    /// BotElim, GenTrainData and Scoring on a generated log, single-node as
    /// the Fig 15 sub-queries run, Scoring's profiles in the order a stage
    /// publishes the training rows (by lifetime, then payload): a log in
    /// time order leaves every run the aggregate sweep meets in time order,
    /// so none is sorted, and Scoring's join builds only the 4 of its 6
    /// columns its projection reads. The log reversed publishes the same
    /// relations, and its runs are sorted.
    #[test]
    fn a_log_in_time_order_sweeps_without_sorting() {
        use relation::Value;
        use temporal::exec::{execute, ExecStats};
        use temporal::{Event, EventStream, LogicalPlan};
        let mut cfg = GenConfig::small(7);
        cfg.users = 200;
        let log = generate(&cfg);
        let logs = EventEncoding::Point
            .decode_stream(log.rows(), &log_payload())
            .unwrap();
        let params = BtParams::default();
        let run = |plan: &LogicalPlan, sources: Vec<(&str, EventStream)>| {
            let sources = (sources.into_iter())
                .map(|(n, s)| {
                    (
                        n.to_string(),
                        temporal::EventBatch::from_stream(&s).unwrap(),
                    )
                })
                .collect();
            let (mut roots, stats) = execute(plan, sources).unwrap();
            (roots.remove(0).into_stream(), stats)
        };
        let mut model_params = params.clone();
        model_params.horizon = 6 * temporal::HOUR;
        let model_query = queries::model::model_query(&model_params, Default::default());
        let mut models = None;
        // The three queries' outputs and stats, the models trained once.
        let mut sub_queries = |logs: EventStream| {
            let (clean, bot) = run(&bot_elim::query(&params).plan, vec![("logs", logs)]);
            let train_query = train_data::train_query(&params).plan;
            let (train, gen) = run(&train_query, vec![("clean_logs", clean.clone())]);
            let models = models
                .get_or_insert_with(|| {
                    run(&model_query.plan, vec![("train_rows", train.clone())]).0
                })
                .clone();
            let profile = |e: &Event| {
                let cells: Vec<Value> = [0, 3, 4].map(|c| e.payload.get(c).clone()).into();
                Event::new(e.lifetime, Row::new(cells))
            };
            let mut published = train.events().to_vec();
            published.sort();
            let profiles = published.iter().map(profile).collect();
            let profiles = EventStream::new(queries::model::profiles_payload(), profiles);
            let scoring = queries::model::scoring_query(&params).plan;
            let sources = vec![("profiles", profiles), ("models", models)];
            let (scores, score) = run(&scoring, sources);
            ([clean, train, scores], [bot, gen, score])
        };
        let (outputs, stats) = sub_queries(logs.clone());
        assert!(outputs.iter().all(|o| !o.is_empty()));
        let sorted = |stats: &[ExecStats]| stats.iter().map(|s| s.sorted_runs).sum::<u64>();
        assert_eq!(sorted(&stats), 0, "{stats:?}");
        assert_eq!(stats[2].join_columns_pruned, 2);

        let mut reversed = logs.into_events();
        reversed.reverse();
        let (again, stats) = sub_queries(EventStream::new(log_payload(), reversed));
        assert!(sorted(&stats) > 0, "{stats:?}");
        for (a, b) in outputs.iter().zip(&again) {
            assert_eq!(a.normalize().events(), b.normalize().events());
        }
    }

    /// A labels or train-rows dataset with a cell of the wrong kind is a
    /// named error, not a default value.
    #[test]
    fn load_examples_names_a_bad_label_or_count() {
        use relation::schema::{ColumnType, Field};
        use relation::{Schema, Value};
        // One example (`Time` 10, user u1, ad a1) and one profile keyword
        // for it; `label` and `cnt` are the cells under test, typed as
        // given.
        let load = |label: (ColumnType, Value), cnt: (ColumnType, Value)| {
            let framed = |payload: Vec<(&str, ColumnType)>| {
                let fields = payload.into_iter().map(|(n, ty)| Field::new(n, ty));
                EventEncoding::Interval.dataset_schema(&Schema::new(fields.collect()))
            };
            let s = ColumnType::Str;
            let dfs = Dfs::new();
            let head = [
                Value::Long(10),
                Value::Long(11),
                Value::str("u1"),
                Value::str("a1"),
            ];
            let labels = framed(vec![("UserId", s), ("AdId", s), ("Label", label.0)]);
            let mut row = head.to_vec();
            row.push(label.1);
            dfs.put("labels", Dataset::single(labels, vec![Row::new(row)]))
                .unwrap();
            let train = framed(vec![
                ("UserId", s),
                ("AdId", s),
                ("Label", ColumnType::Int),
                ("Keyword", s),
                ("Cnt", cnt.0),
            ]);
            let mut row = head.to_vec();
            row.extend([Value::Int(1), Value::str("cars"), cnt.1]);
            dfs.put("train", Dataset::single(train, vec![Row::new(row)]))
                .unwrap();
            BtPipeline::load_examples(&dfs, "labels", "train").map_err(|e| e.to_string())
        };
        let (int, long) = (ColumnType::Int, ColumnType::Long);
        let ok = load((int, Value::Int(1)), (long, Value::Long(3))).unwrap();
        assert_eq!((ok.len(), ok[0].label, ok[0].features["cars"]), (1, 1, 3.0));
        for bad in [
            (int, Value::Int(2)),
            (int, Value::Int(256)),
            (int, Value::Int(-1)),
            (int, Value::Null),
            (ColumnType::Str, Value::str("1")),
        ] {
            let err = load(bad.clone(), (long, Value::Long(3))).unwrap_err();
            assert!(
                err.contains("column Label: expected 0 or 1"),
                "{bad:?}: {err}"
            );
        }
        for bad in [(ColumnType::Str, Value::str("3")), (long, Value::Null)] {
            let err = load((int, Value::Int(0)), bad.clone()).unwrap_err();
            assert!(
                err.contains("column Cnt: expected a number"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn timr_and_custom_pipelines_agree_on_z_scores() {
        // The Fig 14 pair compute the same statistics: cross-check the
        // z-scores of the temporal-query pipeline against the hand-written
        // reducer pipeline.
        let (dfs, artifacts, _) = run_small();
        crate::baselines::custom::run_custom(
            &dfs,
            &Cluster::new(),
            "raw",
            "cust",
            &BtParams {
                machines: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let timr_scores = BtPipeline::load_scores(&dfs, &artifacts.scores).unwrap();
        let custom_scores = BtPipeline::load_custom_scores(&dfs, "cust_scores").unwrap();

        let to_map = |v: &[KeywordScore]| -> std::collections::BTreeMap<(String, String), f64> {
            v.iter()
                .map(|s| ((s.ad.clone(), s.keyword.clone()), s.z))
                .collect()
        };
        let a = to_map(&timr_scores);
        let b = to_map(&custom_scores);
        // The two implementations share keys and agree numerically.
        let shared: Vec<_> = a.keys().filter(|k| b.contains_key(*k)).collect();
        assert!(
            shared.len() as f64 >= 0.9 * a.len().max(b.len()) as f64,
            "pipelines should find the same keywords: timr={} custom={} shared={}",
            a.len(),
            b.len(),
            shared.len()
        );
        for k in shared {
            let (za, zb) = (a[k], b[k]);
            assert!((za - zb).abs() < 1e-6, "z mismatch for {k:?}: {za} vs {zb}");
        }
    }
}
