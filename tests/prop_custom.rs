//! The Fig 14 baseline's column reducers (`bt::baselines::custom`) against
//! their row-at-a-time originals (`common::custom_rows`): on generated BT
//! logs and on hand-built edge cases, every partition of both stages must
//! seal to the same extent bytes.

mod common;

use common::custom_rows;
use std::sync::Arc;
use timr_suite::adgen::{generate, unified_schema, GenConfig};
use timr_suite::bt::baselines::custom::{self, run_custom, AdStageReducer, UserStageReducer};
use timr_suite::bt::BtParams;
use timr_suite::mapreduce::{
    job::ReducerRef, Cluster, Dataset, Dfs, Partitioner, Reducer, ReducerContext, Stage,
};
use timr_suite::relation::{row, ColumnBatch, Row, Value};

/// The two-stage custom pipeline with the reference's row reducers.
fn run_rows(dfs: &Dfs, logs: &str, prefix: &str, params: &BtParams) {
    let stage = |name: &str, input: String, output: String, key: &str, reducer: ReducerRef| {
        Stage::new(
            format!("{prefix}/{name}"),
            vec![input],
            output,
            Partitioner::KeyHash {
                columns: vec![key.into()],
            },
            params.machines,
            reducer,
        )
        .unwrap()
    };
    let stages = vec![
        stage(
            "user",
            logs.to_string(),
            format!("{prefix}_examples"),
            "UserId",
            Arc::new(custom_rows::UserStageReducer {
                params: params.clone(),
            }),
        ),
        stage(
            "ad",
            format!("{prefix}_examples"),
            format!("{prefix}_scores"),
            "AdId",
            Arc::new(custom_rows::AdStageReducer {
                params: params.clone(),
            }),
        ),
    ];
    Cluster::new().run_job(dfs, &stages).unwrap();
}

/// Assert two published datasets seal every partition to the same bytes.
fn assert_same_extents(dfs: &Dfs, a: &str, b: &str, what: &str) {
    let (a, b) = (dfs.get(a).unwrap(), dfs.get(b).unwrap());
    assert_eq!(a.schema, b.schema, "{what}: schema");
    assert_eq!(a.extents().len(), b.extents().len(), "{what}: partitions");
    for (i, (x, y)) in a.extents().iter().zip(b.extents()).enumerate() {
        assert!(x.bytes == y.bytes, "{what}: partition {i} differs");
    }
}

/// Default parameters, and looser ones under which bots, followed
/// impressions and supported keywords are all common in a small log.
fn param_sets(machines: usize) -> Vec<BtParams> {
    let loose = BtParams {
        bot_click_threshold: 2,
        bot_search_threshold: 12,
        click_window: 40 * 60,
        min_support: 1,
        min_example_support: 2,
        machines,
        ..BtParams::default()
    };
    vec![
        BtParams {
            machines,
            ..BtParams::default()
        },
        loose,
    ]
}

#[test]
fn column_reducers_publish_the_row_reducers_bytes_on_generated_logs() {
    for seed in [3, 42, 1729] {
        let mut cfg = GenConfig::small(seed);
        cfg.users = 160;
        let rows = generate(&cfg).rows();
        // Four input extents, so each reduce partition appends chunks with
        // dictionaries of their own.
        let quarter = rows.len().div_ceil(4);
        let dfs = Dfs::new();
        let chunks = rows.chunks(quarter).map(<[Row]>::to_vec).collect();
        dfs.put("logs", Dataset::partitioned(unified_schema(), chunks))
            .unwrap();
        for machines in [1, 8] {
            for (k, params) in param_sets(machines).iter().enumerate() {
                let (cols, refs) = (format!("c{machines}_{k}"), format!("r{machines}_{k}"));
                run_custom(&dfs, &Cluster::new(), "logs", &cols, params).unwrap();
                run_rows(&dfs, "logs", &refs, params);
                let what = format!("seed {seed}, {machines} machines, params {k}");
                let examples = dfs.get(&format!("{cols}_examples")).unwrap();
                assert!(examples.extents().iter().any(|e| e.rows > 0), "{what}");
                assert_same_extents(
                    &dfs,
                    &format!("{cols}_examples"),
                    &format!("{refs}_examples"),
                    &format!("{what}: examples"),
                );
                assert_same_extents(
                    &dfs,
                    &format!("{cols}_scores"),
                    &format!("{refs}_scores"),
                    &format!("{what}: scores"),
                );
            }
        }
    }
}

const MIN: i64 = 60;
const HOUR: i64 = 60 * MIN;

fn logs_batch(rows: &[Row]) -> ColumnBatch {
    ColumnBatch::from_rows(&unified_schema(), rows).unwrap()
}

/// Both user stages, then both ad stages over the user stage's output:
/// each pair must seal to the same bytes. Returns the examples.
fn both_ways(inputs: Vec<ColumnBatch>) -> ColumnBatch {
    let params = BtParams {
        min_support: 1,
        min_example_support: 1,
        ..BtParams::default()
    };
    let ctx = ReducerContext::standalone("edge", 0, 1);
    let sealed = |b: &ColumnBatch| b.to_extent_bytes().unwrap();
    let user = UserStageReducer {
        params: params.clone(),
    };
    let user_ref = custom_rows::UserStageReducer {
        params: params.clone(),
    };
    let mut examples = user.reduce(&ctx, inputs.clone()).unwrap();
    let reference = user_ref.reduce(&ctx, inputs).unwrap();
    assert_eq!(examples.len(), 1);
    assert_eq!(sealed(&examples[0]), sealed(&reference[0]), "user stage");
    let examples = examples.remove(0);

    let ad = AdStageReducer {
        params: params.clone(),
    };
    let ad_ref = custom_rows::AdStageReducer { params };
    let scores = ad.reduce(&ctx, vec![examples.clone()]).unwrap();
    let reference = ad_ref.reduce(&ctx, vec![examples.clone()]).unwrap();
    assert_eq!(sealed(&scores[0]), sealed(&reference[0]), "ad stage");
    examples
}

/// `(label, keyword)` of every example row of `user` on `ad`.
fn labels(examples: &ColumnBatch, user: &str, ad: &str) -> Vec<(i32, Value)> {
    (examples.to_rows().iter())
        .filter(|r| r.get(1).as_str() == Some(user) && r.get(2).as_str() == Some(ad))
        .map(|r| (r.get(3).as_int().unwrap(), r.get(4).clone()))
        .collect()
}

#[test]
fn ties_on_time_stream_and_keyword() {
    let t = 2 * HOUR;
    let rows = vec![
        row![t, 2i32, "u1", "cars"],
        row![t, 2i32, "u1", "cars"],
        row![t, 2i32, "u1", "boats"],
        row![t, 2i32, "u2", "cars"],
        row![t + MIN, 0i32, "u1", "adA"],
        row![t + MIN, 0i32, "u1", "adA"],
        row![t + MIN, 0i32, "u1", "adB"],
        row![t + MIN, 1i32, "u1", "adB"],
        row![t + MIN, 1i32, "u2", "adA"],
        row![t + MIN, 1i32, "u2", "adA"],
        row![t + MIN, 0i32, "u2", "cars"],
    ];
    let examples = both_ways(vec![logs_batch(&rows)]);
    // Both of u1's equal impressions of adA are examples, each with the
    // profile {boats: 1, cars: 2} in string order.
    let a = labels(&examples, "u1", "adA");
    assert_eq!(a.iter().filter(|(_, k)| k.is_null()).count(), 2);
    assert_eq!(
        a.iter().filter_map(|(_, k)| k.as_str()).collect::<Vec<_>>(),
        ["boats", "cars", "boats", "cars"]
    );
}

#[test]
fn a_click_at_the_window_s_end_follows_and_one_past_it_does_not() {
    let window = BtParams::default().click_window;
    let rows = vec![
        row![HOUR, 0i32, "u", "adA"],
        row![HOUR + window, 1i32, "u", "adA"],
        row![3 * HOUR, 0i32, "u", "adB"],
        row![3 * HOUR + window + 1, 1i32, "u", "adB"],
    ];
    let examples = both_ways(vec![logs_batch(&rows)]);
    assert_eq!(labels(&examples, "u", "adA"), [(1, Value::Null)]);
    assert_eq!(
        labels(&examples, "u", "adB"),
        [(0, Value::Null), (1, Value::Null)]
    );
}

#[test]
fn a_user_whose_whole_history_is_a_bot_period_leaves_nothing() {
    // Twenty clicks at one grid instant: the first hop is already over
    // the threshold, so every event falls inside the flagged period.
    let mut rows: Vec<Row> = (0..20)
        .map(|_| row![4 * HOUR, 1i32, "bot", "adA"])
        .collect();
    rows.push(row![4 * HOUR, 2i32, "bot", "cars"]);
    rows.push(row![5 * HOUR, 1i32, "human", "adA"]);
    let examples = both_ways(vec![logs_batch(&rows)]);
    assert!(labels(&examples, "bot", "adA").is_empty());
    assert_eq!(labels(&examples, "human", "adA"), [(1, Value::Null)]);
}

#[test]
fn an_empty_partition_publishes_an_empty_extent() {
    let examples = both_ways(vec![logs_batch(&[])]);
    assert!(examples.is_empty());
    let examples = both_ways(Vec::new());
    assert!(examples.is_empty());
    assert_eq!(examples.schema(), &custom::user_stage_schema());
}

#[test]
fn dictionaries_with_entries_no_row_uses() {
    let mut rows = Vec::new();
    for u in 0..200 {
        for k in 0..6i64 {
            let t = HOUR + (u * 7 + k) * MIN;
            rows.push(row![
                t,
                2i32,
                format!("u{u}"),
                format!("kw{}", (u * 5 + k) % 150)
            ]);
            rows.push(row![
                t + MIN,
                (k % 2) as i32,
                format!("u{u}"),
                format!("ad{}", k % 3)
            ]);
        }
    }
    let whole = logs_batch(&rows);
    // A few rows gathered out of the whole batch: its dictionaries, far
    // larger than the rows, come along.
    let few: Vec<u32> = (0..rows.len() as u32).step_by(97).collect();
    both_ways(vec![whole.gather(&few)]);
    // Every other row: more than half of each dictionary is still used.
    let half: Vec<u32> = (0..rows.len() as u32).step_by(2).collect();
    both_ways(vec![whole.gather(&half)]);
    // Two batches of their own dictionaries, appended, and handed over as
    // two inputs.
    let (a, b) = rows.split_at(rows.len() / 3);
    let mut appended = logs_batch(b);
    appended.append(logs_batch(a)).unwrap();
    both_ways(vec![appended]);
    both_ways(vec![logs_batch(a), logs_batch(b)]);
}
