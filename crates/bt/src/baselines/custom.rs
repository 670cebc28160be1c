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
//! Both stages are written as a competent hand-coder writes against this
//! platform: on the column batches the runtime hands a reducer. Each checks
//! its input columns once, reads times and stream ids as slices and strings
//! as dictionary codes, groups and counts by code, orders by the
//! dictionary's rank table (string order), and pushes its output into typed
//! vectors; the user stage's string columns reuse the input's dictionaries.
//! So Fig 14's denominator times the algorithm, as the paper's does, not a
//! change of layout.
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
use relation::{Column, ColumnBatch, ColumnData, Schema, StrCodes, Validity};
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

/// A reducer failure naming the stage and partition.
fn bad(ctx: &ReducerContext, message: &str) -> MrError {
    MrError::Reducer {
        stage: ctx.stage.clone(),
        partition: ctx.partition,
        message: message.to_owned(),
    }
}

/// The partition's rows as one batch, every stage input appended in order,
/// with each string dictionary re-coded when it holds far more entries than
/// there are rows ([`ColumnBatch::shrink_dictionaries`]): so whatever a
/// reducer sizes by a dictionary costs O(rows). `None` when no row arrived.
fn one_batch(inputs: Vec<ColumnBatch>) -> mapreduce::Result<Option<ColumnBatch>> {
    let mut batches = inputs.into_iter().filter(|b| !b.is_empty());
    let Some(mut batch) = batches.next() else {
        return Ok(None);
    };
    for more in batches {
        batch.append(more)?;
    }
    batch.shrink_dictionaries();
    Ok(Some(batch))
}

/// No row, of `schema`.
fn empty(schema: Schema) -> ColumnBatch {
    let columns = (schema.fields().iter())
        .map(|f| Column::new(ColumnData::with_capacity(f.ty, 0), None))
        .collect();
    ColumnBatch::new(schema, columns, 0)
}

/// Whether a bitmap marks some slot null.
fn has_null(v: &Validity) -> bool {
    let valid: usize = v.words().iter().map(|w| w.count_ones() as usize).sum();
    valid < v.len()
}

/// The storage of column `i` when it exists and holds no null.
fn dense(batch: &ColumnBatch, i: usize) -> Option<&ColumnData> {
    let column = batch.columns().get(i)?;
    (!column.validity().is_some_and(has_null)).then(|| column.data())
}

fn longs(batch: &ColumnBatch, i: usize) -> Option<&[i64]> {
    match dense(batch, i)? {
        ColumnData::Long(v) => Some(v),
        _ => None,
    }
}

fn ints(batch: &ColumnBatch, i: usize) -> Option<&[i32]> {
    match dense(batch, i)? {
        ColumnData::Int(v) => Some(v),
        _ => None,
    }
}

fn strs(batch: &ColumnBatch, i: usize) -> Option<&StrCodes> {
    match dense(batch, i)? {
        ColumnData::Str(v) => Some(v),
        _ => None,
    }
}

/// `inverse(ranks)[rank]` is the code whose rank that is.
fn inverse(ranks: &[u32]) -> Vec<u32> {
    let mut codes = vec![0; ranks.len()];
    for (code, &rank) in ranks.iter().enumerate() {
        codes[rank as usize] = code as u32;
    }
    codes
}

/// A column of string codes into the dictionary of `like`.
fn str_column(like: &StrCodes, codes: Vec<u32>, validity: Option<Validity>) -> Column {
    Column::new(
        ColumnData::Str(StrCodes::new(Arc::clone(like.dict()), codes)),
        validity,
    )
}

/// The per-user sweep reducer.
#[derive(Debug, Clone)]
pub struct UserStageReducer {
    /// BT parameters.
    pub params: BtParams,
}

/// One user's activity: `(time, stream id, keyword or ad rank)`.
type Activity = (i64, i32, u32);

/// Buffers one partition's sweep reuses from user to user.
#[derive(Default)]
struct Sweep {
    events: Vec<Activity>,
    bot_periods: Vec<(i64, i64)>,
    clean: Vec<Activity>,
    clicks: Vec<(i64, u32)>,
    searches: Vec<(i64, u32)>,
    profile: VecDeque<(i64, u32)>,
    ranks: Vec<u32>,
}

/// The user stage's output columns, pushed in place. `ad` and `keyword` are
/// codes into the input's `KwAdId` dictionary, `user` into its `UserId`
/// one; a marker's keyword slot is null (its code, the ad's, unobserved).
#[derive(Default)]
struct Examples {
    time: Vec<i64>,
    user: Vec<u32>,
    ad: Vec<u32>,
    label: Vec<i32>,
    keyword: Vec<u32>,
    keyword_valid: Validity,
    cnt: Vec<i64>,
}

impl Examples {
    fn push(&mut self, t: i64, user: u32, ad: u32, label: i32, keyword: Option<u32>, cnt: i64) {
        self.time.push(t);
        self.user.push(user);
        self.ad.push(ad);
        self.label.push(label);
        self.keyword.push(keyword.unwrap_or(ad));
        self.keyword_valid.push(keyword.is_some());
        self.cnt.push(cnt);
    }

    fn finish(self, users: &StrCodes, kws: &StrCodes) -> ColumnBatch {
        let rows = self.time.len();
        let validity = has_null(&self.keyword_valid).then_some(self.keyword_valid);
        let columns = vec![
            Column::new(ColumnData::Long(self.time), None),
            str_column(users, self.user, None),
            str_column(kws, self.ad, None),
            Column::new(ColumnData::Int(self.label), None),
            str_column(kws, self.keyword, validity),
            Column::new(ColumnData::Long(self.cnt), None),
        ];
        ColumnBatch::new(user_stage_schema(), columns, rows)
    }
}

impl UserStageReducer {
    /// Process one user's time-sorted activity (strings as ranks in the
    /// `KwAdId` dictionary; `kw_codes` maps a rank back to its code).
    fn process_user(&self, sweep: &mut Sweep, user: u32, kw_codes: &[u32], out: &mut Examples) {
        let p = &self.params;
        let events = &sweep.events;

        // ---- bot periods: count clicks/searches in (T - tau, T] at every
        // bot_hop grid instant T; flag [T, T + bot_hop) when over
        // threshold (mirrors the hopping-window CQ). ----
        let bot_periods = &mut sweep.bot_periods;
        bot_periods.clear();
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

        // ---- clean activity, labelled examples, UBP sweep ----
        // The periods are disjoint and ascending, the events time-sorted:
        // one pointer walks both.
        let clean = &mut sweep.clean;
        clean.clear();
        let mut period = 0;
        for &e in events {
            while period < bot_periods.len() && bot_periods[period].1 <= e.0 {
                period += 1;
            }
            if bot_periods
                .get(period)
                .is_none_or(|&(start, _)| e.0 < start)
            {
                clean.push(e);
            }
        }

        // Click lookup for non-click determination, and the searches that
        // build the profile: both time-sorted.
        let (clicks, searches) = (&mut sweep.clicks, &mut sweep.searches);
        clicks.clear();
        searches.clear();
        for &(t, sid, kw) in clean.iter() {
            match sid {
                1 => clicks.push((t, kw)),
                2 => searches.push((t, kw)),
                _ => {}
            }
        }

        let profile = &mut sweep.profile;
        profile.clear();
        let mut search_idx = 0;
        // The first click at or after the current instant.
        let mut click_idx = 0;
        let ranks = &mut sweep.ranks;

        let mut emit_example = |t: i64, ad: u32, label: i32, profile: &VecDeque<(i64, u32)>| {
            let ad = kw_codes[ad as usize];
            out.push(t, user, ad, label, None, 0);
            // Profile keywords in string order, each with its count.
            ranks.clear();
            ranks.extend(profile.iter().map(|&(_, kw)| kw));
            ranks.sort_unstable();
            for run in ranks.chunk_by(|a, b| a == b) {
                let kw = kw_codes[run[0] as usize];
                out.push(t, user, ad, label, Some(kw), run.len() as i64);
            }
        };

        for &(t, sid, ad) in clean.iter() {
            if sid != 0 && sid != 1 {
                continue;
            }
            // Advance the 6-hour profile to this instant.
            while search_idx < searches.len() && searches[search_idx].0 <= t {
                profile.push_back(searches[search_idx]);
                search_idx += 1;
            }
            while profile.front().is_some_and(|&(st, _)| st <= t - p.tau) {
                profile.pop_front();
            }
            if sid == 1 {
                emit_example(t, ad, 1, profile);
            } else {
                // Non-click unless a click on the same ad falls within
                // [t, t + d] — the coverage of the CQ's back-extended
                // click lifetime [c − d, c + δ).
                while click_idx < clicks.len() && clicks[click_idx].0 < t {
                    click_idx += 1;
                }
                let followed = clicks[click_idx..]
                    .iter()
                    .take_while(|&&(ct, _)| ct <= t + p.click_window)
                    .any(|&(_, cad)| cad == ad);
                if !followed {
                    emit_example(t, ad, 0, profile);
                }
            }
        }
    }
}

/// The rows of `codes` grouped by code, codes in string order and each
/// group's rows in input order (a counting sort): the row indices, and
/// each group's code and end in them.
fn group_by_code(codes: &StrCodes) -> (Vec<u32>, Vec<(u32, usize)>) {
    let mut next = vec![0u32; codes.dict().len()];
    for &c in codes.codes() {
        next[c as usize] += 1;
    }
    let mut groups = Vec::new();
    let mut end = 0;
    for code in inverse(codes.dict().ranks()) {
        let count = next[code as usize];
        if count > 0 {
            next[code as usize] = end;
            end += count;
            groups.push((code, end as usize));
        }
    }
    let mut rows = vec![0u32; codes.len()];
    for (i, &c) in codes.codes().iter().enumerate() {
        let at = &mut next[c as usize];
        rows[*at as usize] = i as u32;
        *at += 1;
    }
    (rows, groups)
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
        let Some(batch) = one_batch(inputs)? else {
            return Ok(vec![empty(user_stage_schema())]);
        };
        let time = longs(&batch, 0).ok_or_else(|| bad(ctx, "bad Time"))?;
        let sid = ints(&batch, 1).ok_or_else(|| bad(ctx, "bad StreamId"))?;
        let users = strs(&batch, 2).ok_or_else(|| bad(ctx, "bad UserId"))?;
        let kws = strs(&batch, 3).ok_or_else(|| bad(ctx, "bad KwAdId"))?;
        let kw_ranks = kws.dict().ranks();
        let kw_codes = inverse(kw_ranks);
        let kw = kws.codes();
        // Group by user, then time-sort each user's events — the manual
        // "pre-sorting of data" the paper's strawman discussion calls out.
        let (rows, groups) = group_by_code(users);
        let mut sweep = Sweep::default();
        let mut out = Examples::default();
        let mut start = 0;
        for (user, end) in groups {
            sweep.events.clear();
            sweep.events.extend(rows[start..end].iter().map(|&i| {
                let i = i as usize;
                (time[i], sid[i], kw_ranks[kw[i] as usize])
            }));
            sweep.events.sort_unstable();
            self.process_user(&mut sweep, user, &kw_codes, &mut out);
            start = end;
        }
        Ok(vec![out.finish(users, kws)])
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
        let Some(batch) = one_batch(inputs)? else {
            return Ok(vec![empty(ad_stage_schema())]);
        };
        let time = longs(&batch, 0).ok_or_else(|| bad(ctx, "bad Time"))?;
        let ads = strs(&batch, 2).ok_or_else(|| bad(ctx, "bad AdId"))?;
        let labels = ints(&batch, 3).ok_or_else(|| bad(ctx, "bad Label"))?;
        // Null keywords are the marker rows; a column with no keyword may
        // carry any storage.
        let keyword = batch
            .columns()
            .get(4)
            .ok_or_else(|| bad(ctx, "bad Keyword"))?;
        let valid = |i: usize| keyword.is_valid(i);
        let no_keyword = StrCodes::empty();
        let kws = match keyword.data() {
            ColumnData::Str(kws) => kws,
            _ => match (0..batch.len()).find(|&i| valid(i)) {
                Some(i) => return Err(bad(ctx, &format!("bad Keyword {}", keyword.value(i)))),
                None => &no_keyword,
            },
        };
        let max_t = time.iter().copied().fold(0i64, i64::max);

        // Ad totals by ad code (an ad is present once it has a marker);
        // per-keyword counts keyed by (ad rank, keyword rank), which sort as
        // (ad, keyword) strings do.
        let (ad_ranks, kw_ranks) = (ads.dict().ranks(), kws.dict().ranks());
        let mut totals = vec![(0i64, 0i64); ads.dict().len()];
        let mut per_kw: FxHashMap<u64, (i64, i64)> = FxHashMap::default();
        for (i, (&ad, &label)) in ads.codes().iter().zip(labels).enumerate() {
            let slot = if valid(i) {
                let kw_rank = kw_ranks[kws.codes()[i] as usize];
                let key = u64::from(ad_ranks[ad as usize]) << 32 | u64::from(kw_rank);
                per_kw.entry(key).or_insert((0, 0))
            } else {
                &mut totals[ad as usize]
            };
            slot.0 += i64::from(label == 1);
            slot.1 += 1;
        }
        let mut keys: Vec<(u64, (i64, i64))> = per_kw.into_iter().collect();
        keys.sort_unstable_by_key(|&(key, _)| key);

        let (ad_codes, kw_codes) = (inverse(ad_ranks), inverse(kw_ranks));
        let mut out_ads = Vec::new();
        let mut out_kws = Vec::new();
        let mut counts: [Vec<i64>; 4] = Default::default();
        let mut zs = Vec::new();
        for (key, (cw, ew)) in keys {
            let ad = ad_codes[(key >> 32) as usize];
            let (tc, te) = totals[ad as usize];
            if te == 0 {
                continue;
            }
            let counts_with = KeywordCounts {
                clicks_with: cw,
                examples_with: ew,
                total_clicks: tc,
                total_examples: te,
            };
            if !has_support(
                &counts_with,
                self.params.min_support,
                self.params.min_example_support,
            ) {
                continue;
            }
            let Some(z) = z_score(&counts_with) else {
                continue;
            };
            out_ads.push(ad);
            out_kws.push(kw_codes[key as u32 as usize]);
            for (column, v) in counts.iter_mut().zip([cw, ew, tc, te]) {
                column.push(v);
            }
            zs.push(z);
        }
        let rows = zs.len();
        let mut columns = vec![
            Column::new(ColumnData::Long(vec![max_t; rows]), None),
            str_column(ads, out_ads, None),
            str_column(kws, out_kws, None),
        ];
        columns.extend(counts.map(|c| Column::new(ColumnData::Long(c), None)));
        columns.push(Column::new(ColumnData::Double(zs), None));
        Ok(vec![ColumnBatch::new(ad_stage_schema(), columns, rows)])
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
    use relation::{row, Row, Value};

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

    /// The message of the error `reducer` fails with on `rows`.
    fn reduce_error(reducer: &dyn Reducer, schema: &Schema, rows: &[Row]) -> String {
        let batch = ColumnBatch::from_rows(schema, rows).unwrap();
        let ctx = ReducerContext::standalone("s", 3, 8);
        match reducer.reduce(&ctx, vec![batch]) {
            Err(MrError::Reducer {
                stage,
                partition,
                message,
            }) => {
                assert_eq!((stage.as_str(), partition), ("s", 3));
                message
            }
            other => panic!("expected a reducer error, got {other:?}"),
        }
    }

    #[test]
    fn a_null_user_id_is_a_named_error() {
        let mut rows = sample_rows();
        rows[3] = row![HOUR + 30 * MIN, 0i32, Value::Null, "adB"];
        let user = UserStageReducer {
            params: BtParams::default(),
        };
        assert_eq!(reduce_error(&user, &logs_schema(), &rows), "bad UserId");
    }

    #[test]
    fn a_long_label_or_keyword_is_a_named_error() {
        let ad = AdStageReducer {
            params: BtParams::default(),
        };
        let examples = |label: ColumnType, keyword: ColumnType| {
            Schema::timestamped(vec![
                Field::new("UserId", ColumnType::Str),
                Field::new("AdId", ColumnType::Str),
                Field::new("Label", label),
                Field::new("Keyword", keyword),
                Field::new("Cnt", ColumnType::Long),
            ])
        };
        let rows = [row![HOUR, "u1", "adA", 1i64, Value::Null, 0i64]];
        let schema = examples(ColumnType::Long, ColumnType::Str);
        assert_eq!(reduce_error(&ad, &schema, &rows), "bad Label");
        let rows = [
            row![HOUR, "u1", "adA", 1i32, Value::Null, 0i64],
            row![HOUR, "u1", "adA", 1i32, 7i64, 1i64],
        ];
        let schema = examples(ColumnType::Int, ColumnType::Long);
        assert_eq!(reduce_error(&ad, &schema, &rows), "bad Keyword 7");
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
