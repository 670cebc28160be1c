//! The hand-written "custom reducer" BT pipeline (paper §V-B, Fig 14).
//!
//! This is the comparison point for TiMR: the same BT computation coded
//! directly against the map-reduce API with hand-maintained in-memory data
//! structures (expiring deques, per-user sweeps) instead of temporal
//! queries. Two stages:
//!
//! 1. **user stage** (partitioned by `UserId`): per user, time-sorted
//!    sweep performing bot elimination, click/non-click labelling, and UBP
//!    construction; emits one *marker* row per labelled example (Null
//!    keyword) plus one row per profile keyword.
//! 2. **ad stage** (partitioned by `AdId`): per (ad, keyword) click and
//!    example counts, ad totals from the marker rows, and z-scores.
//!
//! It computes the same quantities as the temporal queries (the test suite
//! cross-checks z-scores against the TiMR pipeline), illustrating the
//! paper's point: it is several times more code, all of it entangled with
//! windowing mechanics the DSMS provides for free, and none of it reusable
//! on a live stream.

use crate::params::BtParams;
use crate::ztest::{has_support, z_score, KeywordCounts};
use mapreduce::{Cluster, Dfs, JobStats, MrError, Partitioner, Reducer, ReducerContext, Stage};
use relation::schema::{ColumnType, Field};
use relation::{row, ColumnBatch, Row, Schema, Value};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Output schema of the user stage: labelled example rows
/// (`Keyword = Null`, `Cnt = 0`) and profile rows.
pub fn user_stage_schema() -> Schema {
    Schema::timestamped(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("AdId", ColumnType::Str),
        Field::new("Label", ColumnType::Int),
        Field::new("Keyword", ColumnType::Str),
        Field::new("Cnt", ColumnType::Long),
    ])
}

/// Output schema of the ad stage (same content as the TiMR
/// feature-selection output).
pub fn ad_stage_schema() -> Schema {
    Schema::timestamped(vec![
        Field::new("AdId", ColumnType::Str),
        Field::new("Keyword", ColumnType::Str),
        Field::new("ClicksWith", ColumnType::Long),
        Field::new("ExamplesWith", ColumnType::Long),
        Field::new("TotalClicks", ColumnType::Long),
        Field::new("TotalExamples", ColumnType::Long),
        Field::new("Z", ColumnType::Double),
    ])
}

/// The per-user sweep reducer.
#[derive(Debug, Clone)]
pub struct UserStageReducer {
    /// BT parameters.
    pub params: BtParams,
}

impl UserStageReducer {
    /// Process one user's time-sorted activity.
    fn process_user(&self, events: &[(i64, i32, &str)], out: &mut Vec<Row>, user: &str) {
        let p = &self.params;

        // ---- bot periods: count clicks/searches in (T - tau, T] at every
        // bot_hop grid instant T; flag [T, T + bot_hop) when over
        // threshold (mirrors the hopping-window CQ). ----
        let mut bot_periods: Vec<(i64, i64)> = Vec::new();
        {
            let mut clicks: VecDeque<i64> = VecDeque::new();
            let mut searches: VecDeque<i64> = VecDeque::new();
            let mut idx = 0;
            if let (Some(first), Some(last)) = (events.first(), events.last()) {
                // First grid instant at or after the first event (matching
                // the CQ's hop quantization, which reports *at* a grid
                // point covering events with ts ≤ that point).
                let mut grid = (first.0 + p.bot_hop - 1) / p.bot_hop * p.bot_hop;
                while grid < last.0 + p.tau + p.bot_hop {
                    while idx < events.len() && events[idx].0 <= grid {
                        match events[idx].1 {
                            1 => clicks.push_back(events[idx].0),
                            2 => searches.push_back(events[idx].0),
                            _ => {}
                        }
                        idx += 1;
                    }
                    while clicks.front().is_some_and(|&t| t <= grid - p.tau) {
                        clicks.pop_front();
                    }
                    while searches.front().is_some_and(|&t| t <= grid - p.tau) {
                        searches.pop_front();
                    }
                    if clicks.len() as i64 > p.bot_click_threshold
                        || searches.len() as i64 > p.bot_search_threshold
                    {
                        // Coalesce adjacent flagged hops.
                        match bot_periods.last_mut() {
                            Some((_, end)) if *end == grid => *end = grid + p.bot_hop,
                            _ => bot_periods.push((grid, grid + p.bot_hop)),
                        }
                    }
                    grid += p.bot_hop;
                }
            }
        }
        let in_bot_period = |t: i64| bot_periods.iter().any(|&(s, e)| s <= t && t < e);

        // ---- clean activity, labelled examples, UBP sweep ----
        let clean: Vec<&(i64, i32, &str)> = events.iter().filter(|e| !in_bot_period(e.0)).collect();

        // Click lookup for non-click determination.
        let clicks: Vec<(i64, &str)> = clean
            .iter()
            .filter(|e| e.1 == 1)
            .map(|e| (e.0, e.2))
            .collect();

        let mut profile: VecDeque<(i64, &str)> = VecDeque::new();
        let mut search_idx = 0;
        let searches: Vec<(i64, &str)> = clean
            .iter()
            .filter(|e| e.1 == 2)
            .map(|e| (e.0, e.2))
            .collect();

        let mut emit_example = |t: i64, ad: &str, label: i32, profile: &VecDeque<(i64, &str)>| {
            out.push(row![t, user, ad, label, Value::Null, 0i64]);
            let mut counts: FxHashMap<&str, i64> = FxHashMap::default();
            for &(_, kw) in profile {
                *counts.entry(kw).or_insert(0) += 1;
            }
            let mut sorted: Vec<(&str, i64)> = counts.into_iter().collect();
            sorted.sort_unstable();
            for (kw, cnt) in sorted {
                out.push(row![t, user, ad, label, kw, cnt]);
            }
        };

        for e in &clean {
            let (t, sid, ad) = (e.0, e.1, e.2);
            if sid != 0 && sid != 1 {
                continue;
            }
            // Advance the 6-hour profile to this instant.
            while search_idx < searches.len() && searches[search_idx].0 <= t {
                profile.push_back(searches[search_idx]);
                search_idx += 1;
            }
            while profile
                .front()
                .is_some_and(|&(st, _)| st <= t - self.params.tau)
            {
                profile.pop_front();
            }
            if sid == 1 {
                emit_example(t, ad, 1, &profile);
            } else {
                // Non-click unless a click on the same ad falls within
                // [t, t + d] — the coverage of the CQ's back-extended
                // click lifetime [c − d, c + δ).
                let followed = clicks
                    .iter()
                    .any(|&(ct, cad)| cad == ad && ct >= t && ct <= t + self.params.click_window);
                if !followed {
                    emit_example(t, ad, 0, &profile);
                }
            }
        }
    }
}

impl Reducer for UserStageReducer {
    fn output_schema(&self, _inputs: &[Schema]) -> mapreduce::Result<Schema> {
        Ok(user_stage_schema())
    }

    fn reduce(
        &self,
        ctx: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> mapreduce::Result<Vec<ColumnBatch>> {
        let bad = |m: &str| MrError::Reducer {
            stage: ctx.stage.clone(),
            partition: ctx.partition,
            message: m.to_string(),
        };
        let rows: Vec<Vec<Row>> = inputs.iter().map(ColumnBatch::to_rows).collect();
        // Group by user, then time-sort each user's events — the manual
        // "pre-sorting of data" the paper's strawman discussion calls out.
        let mut by_user: FxHashMap<String, Vec<(i64, i32, String)>> = FxHashMap::default();
        for r in rows.iter().flatten() {
            let t = r.get(0).as_long().ok_or_else(|| bad("bad Time"))?;
            let sid = r.get(1).as_int().ok_or_else(|| bad("bad StreamId"))?;
            let user = r.get(2).as_str().ok_or_else(|| bad("bad UserId"))?;
            let kw = r.get(3).as_str().ok_or_else(|| bad("bad KwAdId"))?;
            by_user
                .entry(user.to_string())
                .or_default()
                .push((t, sid, kw.to_string()));
        }
        type UserEvents = (String, Vec<(i64, i32, String)>);
        let mut users: Vec<UserEvents> = by_user.into_iter().collect();
        users.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        for (user, mut events) in users {
            events.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
            let borrowed: Vec<(i64, i32, &str)> = events
                .iter()
                .map(|(t, s, k)| (*t, *s, k.as_str()))
                .collect();
            self.process_user(&borrowed, &mut out, &user);
        }
        Ok(vec![ColumnBatch::from_rows(&user_stage_schema(), &out)?])
    }
}

/// The per-ad counting + z-test reducer.
#[derive(Debug, Clone)]
pub struct AdStageReducer {
    /// BT parameters.
    pub params: BtParams,
}

impl Reducer for AdStageReducer {
    fn output_schema(&self, _inputs: &[Schema]) -> mapreduce::Result<Schema> {
        Ok(ad_stage_schema())
    }

    fn reduce(
        &self,
        ctx: &ReducerContext,
        inputs: Vec<ColumnBatch>,
    ) -> mapreduce::Result<Vec<ColumnBatch>> {
        let bad = |m: &str| MrError::Reducer {
            stage: ctx.stage.clone(),
            partition: ctx.partition,
            message: m.to_string(),
        };
        let rows: Vec<Vec<Row>> = inputs.iter().map(ColumnBatch::to_rows).collect();
        let mut totals: FxHashMap<String, (i64, i64)> = FxHashMap::default();
        let mut per_kw: FxHashMap<(String, String), (i64, i64)> = FxHashMap::default();
        let mut max_t = 0i64;
        for r in rows.iter().flatten() {
            let t = r.get(0).as_long().ok_or_else(|| bad("bad Time"))?;
            max_t = max_t.max(t);
            let ad = r
                .get(2)
                .as_str()
                .ok_or_else(|| bad("bad AdId"))?
                .to_string();
            let label = r.get(3).as_int().ok_or_else(|| bad("bad Label"))?;
            match r.get(4) {
                Value::Null => {
                    let slot = totals.entry(ad).or_insert((0, 0));
                    slot.0 += i64::from(label == 1);
                    slot.1 += 1;
                }
                Value::Str(kw) => {
                    let slot = per_kw.entry((ad, kw.to_string())).or_insert((0, 0));
                    slot.0 += i64::from(label == 1);
                    slot.1 += 1;
                }
                other => return Err(bad(&format!("bad Keyword {other}"))),
            }
        }
        let mut keys: Vec<(String, String)> = per_kw.keys().cloned().collect();
        keys.sort();
        let mut out = Vec::new();
        for (ad, kw) in keys {
            let (cw, ew) = per_kw[&(ad.clone(), kw.clone())];
            let Some(&(tc, te)) = totals.get(&ad) else {
                continue;
            };
            let counts = KeywordCounts {
                clicks_with: cw,
                examples_with: ew,
                total_clicks: tc,
                total_examples: te,
            };
            if !has_support(
                &counts,
                self.params.min_support,
                self.params.min_example_support,
            ) {
                continue;
            }
            let Some(z) = z_score(&counts) else { continue };
            out.push(row![max_t, ad, kw, cw, ew, tc, te, z]);
        }
        Ok(vec![ColumnBatch::from_rows(&ad_stage_schema(), &out)?])
    }
}

/// Run the custom pipeline: `logs_dataset` → `{prefix}_examples` and
/// `{prefix}_scores`.
pub fn run_custom(
    dfs: &Dfs,
    cluster: &Cluster,
    logs_dataset: &str,
    prefix: &str,
    params: &BtParams,
) -> mapreduce::Result<JobStats> {
    let stages = vec![
        Stage::new(
            format!("{prefix}/user"),
            vec![logs_dataset.to_string()],
            format!("{prefix}_examples"),
            Partitioner::KeyHash {
                columns: vec!["UserId".into()],
            },
            params.machines,
            Arc::new(UserStageReducer {
                params: params.clone(),
            }),
        )?,
        Stage::new(
            format!("{prefix}/ad"),
            vec![format!("{prefix}_examples")],
            format!("{prefix}_scores"),
            Partitioner::KeyHash {
                columns: vec!["AdId".into()],
            },
            params.machines,
            Arc::new(AdStageReducer {
                params: params.clone(),
            }),
        )?,
    ];
    cluster.run_job(dfs, &stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::Dataset;

    fn logs_schema() -> Schema {
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    const HOUR: i64 = 3600;
    const MIN: i64 = 60;

    fn sample_rows() -> Vec<Row> {
        vec![
            row![HOUR, 2i32, "u1", "cars"],
            row![HOUR + 10 * MIN, 0i32, "u1", "adA"],
            row![HOUR + 12 * MIN, 1i32, "u1", "adA"],
            row![HOUR + 30 * MIN, 0i32, "u1", "adB"],
            row![2 * HOUR, 0i32, "u2", "adA"],
        ]
    }

    #[test]
    fn user_stage_labels_and_profiles() {
        let dfs = Dfs::new();
        dfs.put("logs", Dataset::single(logs_schema(), sample_rows()))
            .unwrap();
        run_custom(&dfs, &Cluster::new(), "logs", "c", &BtParams::default()).unwrap();
        let rows = dfs.get("c_examples").unwrap().scan();
        // Examples: click(adA,1), nonclick(adB,0), nonclick(u2 adA,0);
        // markers = 3; profile rows = 2 (cars for u1's two examples).
        let markers = rows.iter().filter(|r| r.get(4).is_null()).count();
        let kw_rows = rows.iter().filter(|r| !r.get(4).is_null()).count();
        assert_eq!(markers, 3);
        assert_eq!(kw_rows, 2);
        // The clicked impression must not appear as a non-click.
        let ad_a_labels: Vec<i32> = rows
            .iter()
            .filter(|r| {
                r.get(4).is_null()
                    && r.get(2).as_str() == Some("adA")
                    && r.get(1).as_str() == Some("u1")
            })
            .map(|r| r.get(3).as_int().unwrap())
            .collect();
        assert_eq!(ad_a_labels, vec![1]);
    }

    #[test]
    fn ad_stage_scores_keywords() {
        // Many users clicking adA after "hot"; many not clicking without.
        let mut rows = Vec::new();
        let mut t = HOUR;
        for i in 0..8 {
            t += 10 * MIN;
            rows.push(row![t, 2i32, format!("c{i}"), "hot"]);
            rows.push(row![t + MIN, 0i32, format!("c{i}"), "adA"]);
            rows.push(row![t + 2 * MIN, 1i32, format!("c{i}"), "adA"]);
        }
        // Two hot searchers who do NOT click (keeps the with-keyword CTR
        // away from the degenerate zero-variance p = 1 case).
        for i in 0..2 {
            t += 10 * MIN;
            rows.push(row![t, 2i32, format!("h{i}"), "hot"]);
            rows.push(row![t + MIN, 0i32, format!("h{i}"), "adA"]);
        }
        for i in 0..30 {
            t += 10 * MIN;
            rows.push(row![t, 2i32, format!("n{i}"), "bg"]);
            rows.push(row![t + MIN, 0i32, format!("n{i}"), "adA"]);
        }
        // One click without "hot", so the without-keyword CTR is nonzero.
        t += 10 * MIN;
        rows.push(row![t, 0i32, "x0", "adA"]);
        rows.push(row![t + MIN, 1i32, "x0", "adA"]);
        let dfs = Dfs::new();
        dfs.put("logs", Dataset::single(logs_schema(), rows))
            .unwrap();
        run_custom(&dfs, &Cluster::new(), "logs", "c", &BtParams::default()).unwrap();
        let scores = dfs.get("c_scores").unwrap().scan();
        let hot: Vec<&Row> = scores
            .iter()
            .filter(|r| r.get(2).as_str() == Some("hot"))
            .collect();
        assert_eq!(hot.len(), 1, "scores: {scores:?}");
        let z = hot[0].get(7).as_double().unwrap();
        assert!(z > 3.0, "hot z = {z}");
        // "bg" never co-occurs with clicks: zero support, filtered out.
        assert!(scores.iter().all(|r| r.get(2).as_str() != Some("bg")));
    }

    #[test]
    fn bot_users_are_suppressed() {
        let mut rows = Vec::new();
        // A bot clicking 20 ads over 4 hours (threshold 5/6h).
        for i in 0..20 {
            rows.push(row![HOUR + i * 12 * MIN, 1i32, "bot", "adA"]);
        }
        let dfs = Dfs::new();
        dfs.put("logs", Dataset::single(logs_schema(), rows))
            .unwrap();
        run_custom(&dfs, &Cluster::new(), "logs", "c", &BtParams::default()).unwrap();
        let examples = dfs.get("c_examples").unwrap().scan();
        // Clicks before detection survive, the long tail does not.
        assert!(
            examples.len() < 10,
            "most bot activity suppressed, got {}",
            examples.len()
        );
    }
}
