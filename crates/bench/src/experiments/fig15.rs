//! Fig 15: per-machine DSMS event throughput for each BT sub-query.
//!
//! The paper reports events/second sustained by the embedded single-node
//! DSMS for BotElim, GenTrainData, TotalCount, PerKWCount, CalcScore, and
//! Scoring. We time each query plan's single-node execution over the
//! datasets produced by the pipeline, on the path a TiMR reducer runs
//! (`DsmsReducer`): each dataset is decoded into a batch with
//! `decode_column_batch` and laid out afresh before the timer starts, the
//! batch `execute` is timed, and its roots are left as batches. We report
//! input events per second: one untimed warm-up run, then [`TIMED_RUNS`]
//! timed ones, printed as their median and quartiles, so a table states its
//! own spread.
//!
//! Beside each row, the same plan through `execute_single` — the row
//! convenience, which lays row bindings out and turns its root back into
//! rows — with its runs alternated with the batch path's: the rate the
//! table printed before it timed the reducers' path, and the output count
//! of both paths.

use super::Ctx;
use crate::table::Table;
use bt::queries;
use relation::ColumnBatch;
use std::time::{Duration, Instant};
use temporal::exec::{execute, execute_single, BatchBindings, Bindings};
use temporal::EventBatch;
use timr::EventEncoding;

/// A dataset's extents, concatenated in partition order, decoded as the
/// reducer decodes its input.
fn decode(
    ctx: &Ctx,
    dataset: &str,
    payload: relation::Schema,
    encoding: EventEncoding,
) -> EventBatch {
    let ds = ctx.workload.dfs.get(dataset).expect("dataset exists");
    let mut columns = ColumnBatch::from_rows(&ds.schema, &[]).expect("empty batch");
    for i in 0..ds.extents().len() {
        (columns.append(ds.batch(i).expect("extent decodes"))).expect("one schema");
    }
    encoding
        .decode_column_batch(columns, dataset, &payload)
        .expect("decode dataset")
}

/// Bindings of `sources` that own all of their storage, as a reducer's
/// decoded partitions do.
fn bind(sources: &[(&str, EventBatch)]) -> BatchBindings {
    (sources.iter())
        .map(|(name, batch)| {
            let (vt, ve, payload) = batch.clone().into_parts();
            (name.to_string(), EventBatch::new(vt, ve, payload))
        })
        .collect()
}

/// Timed runs per sub-query, after one untimed warm-up.
pub const TIMED_RUNS: usize = 5;

/// The median and the nearest-rank quartiles of the five runs (the 2nd,
/// 3rd and 4th) as events per second.
fn rates(events: usize, times: Vec<Duration>) -> [String; 2] {
    let mut rates: Vec<f64> = (times.into_iter())
        .map(|t| events as f64 / t.as_secs_f64().max(1e-9))
        .collect();
    rates.sort_by(f64::total_cmp);
    let rank = |q: f64| rates[((q * TIMED_RUNS as f64).ceil() as usize).clamp(1, TIMED_RUNS) - 1];
    [
        format!("{:.0}", rank(0.5)),
        format!("[{:.0}, {:.0}]", rank(0.25), rank(0.75)),
    ]
}

fn time_query(
    name: &str,
    plan: &temporal::LogicalPlan,
    sources: Vec<(&str, EventBatch)>,
    table: &mut Table,
) {
    let events: usize = sources.iter().map(|(_, b)| b.len()).sum();
    let streams: Bindings = (sources.iter())
        .map(|(n, b)| (n.to_string(), b.clone().into_stream()))
        .collect();
    let out = execute(plan, bind(&sources)).expect("query runs").0[0].len();
    let out_rows = execute_single(plan, &streams).expect("query runs").len();
    let (mut on_batches, mut on_rows) = (Vec::new(), Vec::new());
    for _ in 0..TIMED_RUNS {
        let bound = bind(&sources);
        let start = Instant::now();
        let roots = execute(plan, bound).expect("query runs");
        on_batches.push(start.elapsed());
        drop(roots);
        let start = Instant::now();
        execute_single(plan, &streams).expect("query runs");
        on_rows.push(start.elapsed());
    }
    let mut cells = vec![name.to_string(), events.to_string(), out.to_string()];
    cells.extend(rates(events, on_batches));
    cells.push(out_rows.to_string());
    cells.extend(rates(events, on_rows));
    table.row(cells);
}

/// Run the experiment.
pub fn run(ctx: &mut Ctx) -> String {
    let params = ctx.workload.bt_params();
    let artifacts_names = {
        let a = ctx.artifacts();
        (a.clean.clone(), a.labels.clone(), a.train_rows.clone())
    };
    let (clean, labels, train_rows) = artifacts_names;

    let logs = decode(ctx, "logs", queries::log_payload(), EventEncoding::Point);
    let clean_b = decode(ctx, &clean, queries::log_payload(), EventEncoding::Interval);
    let labels_b = decode(
        ctx,
        &labels,
        queries::labels_payload(),
        EventEncoding::Interval,
    );
    let train_b = decode(
        ctx,
        &train_rows,
        queries::train_rows_payload(),
        EventEncoding::Interval,
    );

    let mut table = Table::new(&[
        "Sub-query",
        "Input events",
        "Output events",
        "Events/sec (median)",
        "[Q1, Q3]",
        "execute_single: output",
        "events/sec (median)",
        "[Q1, Q3]",
    ]);

    let bot = queries::bot_elim::query(&params);
    time_query("BotElim", &bot.plan, vec![("logs", logs)], &mut table);

    let labels_q = queries::train_data::labels_query(&params);
    time_query(
        "GenTrainData/labels",
        &labels_q.plan,
        vec![("clean_logs", clean_b.clone())],
        &mut table,
    );

    let train_q = queries::train_data::train_query(&params);
    time_query(
        "GenTrainData",
        &train_q.plan,
        vec![("clean_logs", clean_b)],
        &mut table,
    );

    let fs_q = queries::feature_selection::query(&params);
    time_query(
        "TotalCount+PerKWCount+CalcScore",
        &fs_q.plan,
        vec![("labels", labels_b), ("train_rows", train_b.clone())],
        &mut table,
    );

    // Retrain every 6 hours over a 12-hour window so model validity
    // intervals overlap the profile timeline (scoring joins the two).
    let mut model_params = params.clone();
    model_params.horizon = 6 * temporal::HOUR;
    let model_q = queries::model::model_query(&model_params, bt::lr::LrConfig::default());
    let models = execute(&model_q.plan, bind(&[("train_rows", train_b.clone())]));
    let models = models.expect("model query").0.remove(0);
    time_query(
        "ModelGen (LR UDO)",
        &model_q.plan,
        vec![("train_rows", train_b.clone())],
        &mut table,
    );

    // Scoring: profiles = (UserId, Keyword, Cnt) view of the training
    // rows; models = the ModelGen output.
    let profiles = {
        use temporal::expr::col;
        let q = temporal::Query::new();
        let out = q
            .source("train_rows", queries::train_rows_payload())
            .project(vec![
                ("UserId".to_string(), col("UserId")),
                ("Keyword".to_string(), col("Keyword")),
                ("Cnt".to_string(), col("Cnt")),
            ]);
        let plan = q.build(vec![out]).expect("projection plan");
        let profiles = execute(&plan, bind(&[("train_rows", train_b)]));
        profiles.expect("profiles view").0.remove(0)
    };
    let scoring_q = queries::model::scoring_query(&params);
    time_query(
        "Scoring",
        &scoring_q.plan,
        vec![("profiles", profiles), ("models", models)],
        &mut table,
    );

    format!(
        "Fig 15 — single-node DSMS event rates on the reducers' batch path (one \
         partition per query; median and quartiles of {TIMED_RUNS} timed runs after a \
         warm-up), and beside them the row convenience `execute_single`, its runs \
         alternated with the batch path's:\n{}",
        table.render()
    )
}
