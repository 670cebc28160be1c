//! Fig 15: per-machine DSMS event throughput for each BT sub-query.
//!
//! The paper reports events/second sustained by the embedded single-node
//! DSMS for BotElim, GenTrainData, TotalCount, PerKWCount, CalcScore, and
//! Scoring. We time each query plan's single-node execution over the
//! datasets produced by the pipeline and report input events per second:
//! one untimed warm-up run, then [`TIMED_RUNS`] timed ones, printed as
//! their median and quartiles, so a table states its own spread.

use super::Ctx;
use crate::table::Table;
use bt::queries;
use rustc_hash::FxHashMap;
use std::time::Instant;
use temporal::exec::{execute_single, Bindings};
use temporal::EventStream;
use timr::EventEncoding;

fn decode(
    ctx: &Ctx,
    dataset: &str,
    payload: relation::Schema,
    encoding: EventEncoding,
) -> EventStream {
    let ds = ctx.workload.dfs.get(dataset).expect("dataset exists");
    encoding
        .decode_stream(ds.iter(), &payload)
        .expect("decode dataset")
}

/// Timed runs per sub-query, after one untimed warm-up.
pub const TIMED_RUNS: usize = 5;

fn time_query(
    name: &str,
    plan: &temporal::LogicalPlan,
    sources: Vec<(&str, EventStream)>,
    table: &mut Table,
) {
    let events: usize = sources.iter().map(|(_, s)| s.len()).sum();
    let bindings: Bindings = sources
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect::<FxHashMap<_, _>>();
    let out = execute_single(plan, &bindings).expect("query runs");
    let mut rates: Vec<f64> = (0..TIMED_RUNS)
        .map(|_| {
            let start = Instant::now();
            execute_single(plan, &bindings).expect("query runs");
            events as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    // Nearest-rank quartiles of the five runs: the 2nd, 3rd and 4th.
    let rank = |q: f64| rates[((q * TIMED_RUNS as f64).ceil() as usize).clamp(1, TIMED_RUNS) - 1];
    table.row(vec![
        name.to_string(),
        events.to_string(),
        out.len().to_string(),
        format!("{:.0}", rank(0.5)),
        format!("[{:.0}, {:.0}]", rank(0.25), rank(0.75)),
    ]);
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
    let clean_s = decode(ctx, &clean, queries::log_payload(), EventEncoding::Interval);
    let labels_s = decode(
        ctx,
        &labels,
        queries::labels_payload(),
        EventEncoding::Interval,
    );
    let train_s = decode(
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
    ]);

    let bot = queries::bot_elim::query(&params);
    time_query("BotElim", &bot.plan, vec![("logs", logs)], &mut table);

    let labels_q = queries::train_data::labels_query(&params);
    time_query(
        "GenTrainData/labels",
        &labels_q.plan,
        vec![("clean_logs", clean_s.clone())],
        &mut table,
    );

    let train_q = queries::train_data::train_query(&params);
    time_query(
        "GenTrainData",
        &train_q.plan,
        vec![("clean_logs", clean_s)],
        &mut table,
    );

    let fs_q = queries::feature_selection::query(&params);
    time_query(
        "TotalCount+PerKWCount+CalcScore",
        &fs_q.plan,
        vec![("labels", labels_s), ("train_rows", train_s.clone())],
        &mut table,
    );

    // Retrain every 6 hours over a 12-hour window so model validity
    // intervals overlap the profile timeline (scoring joins the two).
    let mut model_params = params.clone();
    model_params.horizon = 6 * temporal::HOUR;
    let model_q = queries::model::model_query(&model_params, bt::lr::LrConfig::default());
    let models_out = execute_single(
        &model_q.plan,
        &[("train_rows".to_string(), train_s.clone())]
            .into_iter()
            .collect::<FxHashMap<_, _>>(),
    )
    .expect("model query");
    time_query(
        "ModelGen (LR UDO)",
        &model_q.plan,
        vec![("train_rows", train_s.clone())],
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
        execute_single(
            &plan,
            &[("train_rows".to_string(), train_s)]
                .into_iter()
                .collect::<FxHashMap<_, _>>(),
        )
        .expect("profiles view")
    };
    let scoring_q = queries::model::scoring_query(&params);
    time_query(
        "Scoring",
        &scoring_q.plan,
        vec![("profiles", profiles), ("models", models_out)],
        &mut table,
    );

    format!(
        "Fig 15 — single-node DSMS event rates (one partition per query; \
         median and quartiles of {TIMED_RUNS} timed runs after a warm-up):\n{}",
        table.render()
    )
}
