//! Training-data generation (paper §IV-B.2, Fig 12).
//!
//! Two stream functions over a cleaned log, each with a standalone query
//! that applies it to the `clean_logs` source:
//!
//! - [`labelled_stream`] ([`labels_query`]) derives labelled
//!   click/non-click events: an impression is a *non-click* unless the
//!   same user clicked the same ad within `d` — implemented by
//!   AntiSemiJoining impressions against clicks whose lifetimes are
//!   extended `d` into the past.
//! - [`train_stream`] ([`train_query`]) additionally builds
//!   per-`(user, keyword)` sliding 6-hour counts (the sparse UBP,
//!   refreshed on every activity) and TemporalJoins each labelled event
//!   with the profile *as of that instant*, emitting one row per
//!   (example, profile keyword).
//!
//! The pipeline (`crate::pipeline`) applies both to BotElim's output in
//! one `{UserId}`-keyed stage, where the labelled stream is computed once
//! for both outputs.
//!
//! [`train_query`] ships with the optimized annotation of Example 3 — one
//! partitioning by `{UserId}` — and [`naive_annotation`] builds the
//! alternative that partitions UBP generation by `{UserId, Keyword}`
//! first, for the §V-B "Fragment Optimization" experiment.

use super::{log_payload, stream_id, BtQuery};
use crate::params::BtParams;
use temporal::expr::{col, lit};
use temporal::plan::{LogicalPlan, Operator, Query, StreamHandle};
use timr::{Annotation, ExchangeKey};

/// Labelled click/non-click events over a cleaned log: payload
/// `(UserId, AdId, Label)`. The one definition of the labels CQ, used by
/// [`labels_query`], inside [`train_stream`], and by the pipeline's shared
/// `{UserId}` stage, where `share_plans` merges those two uses into one.
pub fn labelled_stream(input: &StreamHandle, params: &BtParams) -> StreamHandle {
    let impressions = input
        .clone()
        .filter(col("StreamId").eq(lit(stream_id::IMPRESSION)));
    let clicks = input
        .clone()
        .filter(col("StreamId").eq(lit(stream_id::CLICK)));
    // A click at time c covers [c-d, c]: any impression it covers became a
    // click rather than a non-click.
    let clicks_back = clicks.clone().extend_back(params.click_window);
    let non_clicks =
        impressions.anti_semi_join(clicks_back, &[("UserId", "UserId"), ("KwAdId", "KwAdId")]);
    let label = |h: StreamHandle, value: i32| {
        h.project(vec![
            ("UserId".to_string(), col("UserId")),
            ("AdId".to_string(), col("KwAdId")),
            ("Label".to_string(), lit(value)),
        ])
    };
    label(non_clicks, 0).union(label(clicks, 1))
}

/// Build the labels query ([`labelled_stream`] over `clean_logs`).
pub fn labels_query(params: &BtParams) -> BtQuery {
    let q = Query::new();
    let out = labelled_stream(&q.source("clean_logs", log_payload()), params);
    let plan = q.build(vec![out]).unwrap();
    BtQuery {
        name: "GenTrainData/labels",
        annotation: exchange_all_source_edges(&plan, ExchangeKey::keys(&["UserId"])),
        plan,
    }
}

fn ubp_stream(input: &StreamHandle, params: &BtParams) -> StreamHandle {
    input
        .clone()
        .filter(col("StreamId").eq(lit(stream_id::KEYWORD)))
        .group_apply(&["UserId", "KwAdId"], |g| g.window(params.tau).count("Cnt"))
        .project(vec![
            ("UserId".to_string(), col("UserId")),
            ("Keyword".to_string(), col("KwAdId")),
            ("Cnt".to_string(), col("Cnt")),
        ])
}

/// Training rows over a cleaned log: each labelled event TemporalJoined
/// with the user's profile as of that instant, payload
/// `(UserId, AdId, Label, Keyword, Cnt)` — one point event per (labelled
/// example, profile keyword).
pub fn train_stream(input: &StreamHandle, params: &BtParams) -> StreamHandle {
    let labels = labelled_stream(input, params);
    let ubp = ubp_stream(input, params);
    let joined = labels.temporal_join(ubp, &[("UserId", "UserId")], None);
    joined.project(vec![
        ("UserId".to_string(), col("UserId")),
        ("AdId".to_string(), col("AdId")),
        ("Label".to_string(), col("Label")),
        ("Keyword".to_string(), col("Keyword")),
        ("Cnt".to_string(), col("Cnt")),
    ])
}

/// Build the training-rows query ([`train_stream`] over `clean_logs`).
pub fn train_query(params: &BtParams) -> BtQuery {
    let q = Query::new();
    let out = train_stream(&q.source("clean_logs", log_payload()), params);
    let plan = q.build(vec![out]).unwrap();
    BtQuery {
        name: "GenTrainData",
        annotation: exchange_all_source_edges(&plan, ExchangeKey::keys(&["UserId"])),
        plan,
    }
}

/// The naive Example 3 annotation for [`train_query`]: UBP generation is
/// partitioned by `{UserId, KwAdId}` in its own fragment, whose output is
/// then repartitioned by `{UserId}` for the join — two shuffles of the
/// keyword data instead of one.
pub fn naive_annotation(plan: &LogicalPlan) -> Annotation {
    // The UBP GroupApply and the filter feeding it.
    let ga = plan
        .nodes()
        .iter()
        .position(|n| matches!(&n.op, Operator::GroupApply { keys, .. } if keys.len() == 2))
        .expect("UBP group-apply exists");
    let ubp_filter = plan.node(ga).inputs[0];
    // The project above the GroupApply (renames KwAdId -> Keyword), whose
    // output feeds the join's right input.
    let ubp_project = plan
        .consumers(ga)
        .into_iter()
        .find(|&c| matches!(plan.node(c).op, Operator::Project { .. }))
        .expect("UBP rename project exists");
    let join = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::TemporalJoin { .. }))
        .expect("train join exists");
    let join_right_idx = plan
        .node(join)
        .inputs
        .iter()
        .position(|&i| i == ubp_project)
        .expect("project feeds the join");

    let mut ann = Annotation::none()
        // UBP fragment partitioned by the full composite key.
        .exchange(ubp_filter, 0, ExchangeKey::keys(&["UserId", "KwAdId"]))
        // ...then repartitioned by {UserId} for the join.
        .exchange(join, join_right_idx, ExchangeKey::keys(&["UserId"]));
    // The labels side still needs {UserId} partitioning from the raw log.
    for (id, node) in plan.nodes().iter().enumerate() {
        if id == ubp_filter {
            continue;
        }
        for (idx, &child) in node.inputs.iter().enumerate() {
            if matches!(plan.node(child).op, Operator::Source { .. }) {
                ann = ann.exchange(id, idx, ExchangeKey::keys(&["UserId"]));
            }
        }
    }
    ann
}

/// Annotate every edge that reads a `Source` with `key` (the "partition
/// once" pattern: a single fragment keyed by `key`).
fn exchange_all_source_edges(plan: &LogicalPlan, key: ExchangeKey) -> Annotation {
    let mut ann = Annotation::none();
    for (id, node) in plan.nodes().iter().enumerate() {
        for (idx, &child) in node.inputs.iter().enumerate() {
            if matches!(plan.node(child).op, Operator::Source { .. }) {
                ann = ann.exchange(id, idx, key.clone());
            }
        }
    }
    ann
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{row, Value};
    use temporal::exec::{bindings, execute_single};
    use temporal::{Event, EventStream, HOUR, MIN};

    fn event(t: i64, sid: i32, user: &str, kw: &str) -> Event {
        Event::point(t, row![sid, user, kw])
    }

    fn sample_log() -> EventStream {
        EventStream::new(
            log_payload(),
            vec![
                // u1 searches cars, then sees adA and clicks it.
                event(HOUR, 2, "u1", "cars"),
                event(HOUR + 10 * MIN, 0, "u1", "adA"),
                event(HOUR + 12 * MIN, 1, "u1", "adA"),
                // u1 sees adB and does not click.
                event(HOUR + 30 * MIN, 0, "u1", "adB"),
                // u2 sees adA with no profile and doesn't click.
                event(2 * HOUR, 0, "u2", "adA"),
                // u1 sees adA again much later: the cars search has
                // expired from the 6h profile by then.
                event(10 * HOUR, 0, "u1", "adA"),
            ],
        )
    }

    #[test]
    fn labels_distinguish_clicks_from_non_clicks() {
        let btq = labels_query(&BtParams::default());
        let out = execute_single(&btq.plan, &bindings(vec![("clean_logs", sample_log())]))
            .unwrap()
            .normalize();
        let mut labelled: Vec<(i64, String, String, i32)> = out
            .events()
            .iter()
            .map(|e| {
                (
                    e.start(),
                    e.payload.get(0).as_str().unwrap().to_string(),
                    e.payload.get(1).as_str().unwrap().to_string(),
                    e.payload.get(2).as_int().unwrap(),
                )
            })
            .collect();
        labelled.sort();
        assert_eq!(
            labelled,
            vec![
                (HOUR + 12 * MIN, "u1".into(), "adA".into(), 1), // the click
                (HOUR + 30 * MIN, "u1".into(), "adB".into(), 0),
                (2 * HOUR, "u2".into(), "adA".into(), 0),
                (10 * HOUR, "u1".into(), "adA".into(), 0),
            ],
            "clicked impression must NOT appear as a non-click"
        );
    }

    #[test]
    fn train_rows_attach_profile_as_of_impression() {
        let btq = train_query(&BtParams::default());
        let out = execute_single(&btq.plan, &bindings(vec![("clean_logs", sample_log())]))
            .unwrap()
            .normalize();
        // Only u1's two early examples have "cars" in the 6h profile; the
        // 10-hour impression and u2's example have empty profiles (no
        // rows — inner join).
        let rows: Vec<(i64, Vec<Value>)> = out
            .events()
            .iter()
            .map(|e| (e.start(), e.payload.values().to_vec()))
            .collect();
        assert_eq!(rows.len(), 2, "rows: {rows:?}");
        for (t, vals) in &rows {
            assert!(*t < 2 * HOUR);
            assert_eq!(vals[0], Value::str("u1"));
            assert_eq!(vals[3], Value::str("cars"));
            assert_eq!(vals[4], Value::Long(1));
        }
        // The click example carries Label=1, the others 0.
        let labels: Vec<i32> = rows.iter().map(|(_, v)| v[2].as_int().unwrap()).collect();
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 1);
    }

    #[test]
    fn ubp_counts_accumulate_within_window() {
        // Two searches of the same keyword within τ: the second example
        // sees Cnt=2.
        let log = EventStream::new(
            log_payload(),
            vec![
                event(HOUR, 2, "u1", "cars"),
                event(HOUR + 5 * MIN, 2, "u1", "cars"),
                event(HOUR + 10 * MIN, 0, "u1", "adA"),
            ],
        );
        let btq = train_query(&BtParams::default());
        let out = execute_single(&btq.plan, &bindings(vec![("clean_logs", log)]))
            .unwrap()
            .normalize();
        assert_eq!(out.len(), 1);
        assert_eq!(out.events()[0].payload.get(4), &Value::Long(2));
    }

    #[test]
    fn both_annotations_validate_and_fragment() {
        let params = BtParams::default();
        let btq = train_query(&params);
        btq.annotation.validate(&btq.plan).unwrap();
        let optimized = timr::fragment::fragment(&btq.plan, &btq.annotation).unwrap();
        assert_eq!(optimized.len(), 1, "optimized plan is one fragment");

        let naive = naive_annotation(&btq.plan);
        naive.validate(&btq.plan).unwrap();
        let frags = timr::fragment::fragment(&btq.plan, &naive).unwrap();
        assert_eq!(frags.len(), 2, "naive plan has a separate UBP fragment");
        assert!(frags
            .iter()
            .any(|f| f.key == timr::ExchangeKey::keys(&["UserId", "KwAdId"])));
    }

    #[test]
    fn naive_and_optimized_agree_on_results() {
        use mapreduce::{Cluster, Dataset, Dfs};
        use timr::{EventEncoding, TimrJob};
        let params = BtParams::default();
        let btq = train_query(&params);

        let rows: Vec<relation::Row> = sample_log()
            .events()
            .iter()
            .map(|e| {
                let mut v = vec![Value::Long(e.start())];
                v.extend(e.payload.values().iter().cloned());
                relation::Row::new(v)
            })
            .collect();
        let run = |ann: Annotation, name: &str| {
            let dfs = Dfs::new();
            dfs.put(
                "clean_logs",
                Dataset::single(
                    EventEncoding::Point.dataset_schema(&log_payload()),
                    rows.clone(),
                ),
            )
            .unwrap();
            let out = TimrJob::new(name, btq.plan.clone())
                .with_annotation(ann)
                .with_machines(4)
                .run(&dfs, &Cluster::new())
                .unwrap();
            out.stream(&dfs).unwrap()
        };
        let a = run(btq.annotation.clone(), "opt");
        let b = run(naive_annotation(&btq.plan), "naive");
        assert!(a.same_relation(&b));
    }
}
