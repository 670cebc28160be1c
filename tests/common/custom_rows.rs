//! The Fig 14 baseline's reducers as they were first written, on rows:
//! every input batch becomes `Row`s, users and keywords are grouped under
//! owned `String` keys, and the output is built row by row. Kept verbatim
//! as the reference `bt::baselines::custom`'s column reducers are held to
//! (`tests/prop_custom.rs`): the same sealed bytes per partition.

use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use timr_suite::bt::baselines::custom::{ad_stage_schema, user_stage_schema};
use timr_suite::bt::ztest::{has_support, z_score, KeywordCounts};
use timr_suite::bt::BtParams;
use timr_suite::mapreduce::{self, MrError, Reducer, ReducerContext};
use timr_suite::relation::{row, ColumnBatch, Row, Schema, Value};

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
