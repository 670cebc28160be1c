//! End-to-end BT orchestration over TiMR (paper Fig 10).
//!
//! Chains the temporal-query jobs — BotElim → GenTrainData (labels +
//! training rows) → FeatureSelection — through the DFS, then exposes
//! typed views of the resulting datasets for model training and
//! evaluation.

use crate::error::{BtError, Result};
use crate::example::Example;
use crate::params::BtParams;
use crate::queries;
use mapreduce::{Cluster, Dfs, JobStats};
use relation::Row;
use rustc_hash::FxHashMap;
use timr::{EventEncoding, TimrJob};

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

    /// Run all jobs against `logs_dataset` (Point-encoded unified log).
    /// Dataset names are prefixed with `prefix` so multiple runs (e.g.
    /// train/test splits) can share a DFS.
    pub fn run(
        &self,
        dfs: &Dfs,
        cluster: &Cluster,
        logs_dataset: &str,
        prefix: &str,
    ) -> Result<PipelineArtifacts> {
        self.run_jobs(dfs, cluster, logs_dataset, prefix, |job| job)
    }

    /// [`Self::run`] with every job passed through `job` before it runs
    /// (the identity there; the tests switch push-down off with it).
    fn run_jobs(
        &self,
        dfs: &Dfs,
        cluster: &Cluster,
        logs_dataset: &str,
        prefix: &str,
        job: impl Fn(TimrJob) -> TimrJob,
    ) -> Result<PipelineArtifacts> {
        let mut stats = Vec::new();
        let machines = self.params.machines;

        // 1. BotElim: logs -> clean_logs.
        let bot = queries::bot_elim::query(&self.params);
        alias(dfs, logs_dataset, "logs")?;
        let bot_job = TimrJob::new(format!("{prefix}_botelim"), bot.plan.clone())
            .with_annotation(bot.annotation.clone())
            .with_machines(machines);
        let out = job(bot_job).run(dfs, cluster)?;
        stats.push(("BotElim".to_string(), out.stats));
        let clean = out.dataset;

        // 2a. Labels: clean_logs -> labels.
        alias(dfs, &clean, "clean_logs")?;
        let labels_q = queries::train_data::labels_query(&self.params);
        let labels_job = TimrJob::new(format!("{prefix}_labels"), labels_q.plan.clone())
            .with_annotation(labels_q.annotation.clone())
            .with_machines(machines)
            .with_source_encoding("clean_logs", EventEncoding::Interval);
        let out = job(labels_job).run(dfs, cluster)?;
        stats.push(("GenTrainData/labels".to_string(), out.stats));
        let labels = out.dataset;

        // 2b. Training rows: clean_logs -> train_rows.
        let train_q = queries::train_data::train_query(&self.params);
        let train_job = TimrJob::new(format!("{prefix}_train"), train_q.plan.clone())
            .with_annotation(train_q.annotation.clone())
            .with_machines(machines)
            .with_source_encoding("clean_logs", EventEncoding::Interval);
        let out = job(train_job).run(dfs, cluster)?;
        stats.push(("GenTrainData".to_string(), out.stats));
        let train_rows = out.dataset;

        // 3. Feature selection: labels + train_rows -> scores.
        alias(dfs, &labels, "labels")?;
        alias(dfs, &train_rows, "train_rows")?;
        let fs_q = queries::feature_selection::query(&self.params);
        let scores_job = TimrJob::new(format!("{prefix}_scores"), fs_q.plan.clone())
            .with_annotation(fs_q.annotation.clone())
            .with_machines(machines)
            .with_source_encoding("labels", EventEncoding::Interval)
            .with_source_encoding("train_rows", EventEncoding::Interval);
        let out = job(scores_job).run(dfs, cluster)?;
        stats.push(("FeatureSelection".to_string(), out.stats));
        let scores = out.dataset;

        Ok(PipelineArtifacts {
            clean,
            labels,
            train_rows,
            scores,
            stats,
        })
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
            let label = r.get(4).as_int().unwrap_or(0) as u8;
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
            let cnt = r.get(6).as_double().unwrap_or(1.0);
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
        assert_eq!(artifacts.stats.len(), 4);

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

    /// Push-down — now with both feature-selection counts combined
    /// map-side — publishes the very extent images the reduce-only plans
    /// do, for all four datasets.
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
            .run_jobs(&dfs, &cluster, "raw", "off", |job| {
                job.with_push_down(false)
            })
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
