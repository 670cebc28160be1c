//! Property tests for TiMR's core guarantees: scaled-out map-reduce
//! execution is indistinguishable from the single-node DSMS, for any data,
//! machine count, failure pattern, and temporal span width.

use proptest::prelude::*;
use timr_suite::mapreduce::{
    ChaosPlan, Cluster, ClusterConfig, Dataset, Dfs, RetryPolicy, TaskPhase,
};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::Query;
use timr_suite::timr::temporal_partition::TemporalPartitionJob;
use timr_suite::timr::{read_output, Annotation, EventEncoding, ExchangeKey, TimrJob};

fn payload() -> Schema {
    Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("UserId", ColumnType::Str),
        Field::new("KwAdId", ColumnType::Str),
    ])
}

prop_compose! {
    fn arb_log(max_len: usize)(
        items in prop::collection::vec((0i64..2_000, 0u8..3, 0u8..12, 0u8..6), 1..max_len)
    ) -> Vec<Row> {
        let mut rows: Vec<Row> = items
            .into_iter()
            .map(|(t, sid, u, k)| row![t, sid as i32, format!("u{u}"), format!("ad{k}")])
            .collect();
        rows.sort();
        rows
    }
}

fn click_count_plan() -> (timr_suite::temporal::LogicalPlan, usize) {
    let q = Query::new();
    let out = q
        .source("logs", payload())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["KwAdId"], |g| g.window(100).count("N"));
    let plan = q.build(vec![out]).unwrap();
    let filter = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, timr_suite::temporal::plan::Operator::Filter { .. }))
        .unwrap();
    (plan, filter)
}

fn dfs_with(rows: &[Row]) -> Dfs {
    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::single(
            EventEncoding::Point.dataset_schema(&payload()),
            rows.to_vec(),
        ),
    )
    .unwrap();
    dfs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TiMR over any machine count equals the single-node DSMS.
    #[test]
    fn timr_matches_dsms(rows in arb_log(120), machines in 1usize..12) {
        let (plan, filter) = click_count_plan();
        let reference = {
            let stream = EventEncoding::Point.decode_stream(&rows, &payload()).unwrap();
            execute_single(&plan, &bindings(vec![("logs", stream)])).unwrap()
        };
        let dfs = dfs_with(&rows);
        let out = TimrJob::new("p", plan.clone())
            .with_annotation(
                Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"])),
            )
            .with_machines(machines)
            .run(&dfs, &Cluster::new())
            .unwrap();
        prop_assert!(out.stream(&dfs).unwrap().same_relation(&reference));
    }

    /// Killing arbitrary first attempts changes nothing: the restart path
    /// is byte-deterministic (paper §III-C.1).
    #[test]
    fn restart_determinism(
        rows in arb_log(80),
        kills in prop::collection::vec((0usize..4, 0u8..3), 0..4),
    ) {
        let (plan, filter) = click_count_plan();
        let ann = Annotation::none().exchange(filter, 0, ExchangeKey::keys(&["KwAdId"]));
        let run = |chaos: ChaosPlan| {
            let dfs = dfs_with(&rows);
            let cluster = Cluster::with_config(ClusterConfig {
                threads: 4,
                chaos,
                retry: RetryPolicy::no_backoff(3),
                ..ClusterConfig::default()
            });
            let out = TimrJob::new("p", plan.clone())
                .with_annotation(ann.clone())
                .with_machines(4)
                .run(&dfs, &cluster)
                .unwrap();
            dfs.get(&out.dataset).unwrap().partitions.as_ref().clone()
        };
        let clean = run(ChaosPlan::none());
        let mut chaos = ChaosPlan::none();
        for (task, phase) in &kills {
            let phase = match phase {
                0 => TaskPhase::Map,
                1 => TaskPhase::Shuffle,
                _ => TaskPhase::Reduce,
            };
            // Stage name is `p/f<root>`; kill by matching any stage. Kills
            // aimed at task indices a phase doesn't have are no-ops.
            chaos = chaos.kill(format!("p/f{}", plan.roots()[0]), phase, *task);
        }
        let with_kills = run(chaos);
        prop_assert_eq!(clean, with_kills);
    }

    /// Temporal partitioning at any span width reproduces the
    /// unpartitioned output (paper §III-B).
    #[test]
    fn temporal_partitioning_correct(rows in arb_log(100), span in 20i64..4_000) {
        let q = Query::new();
        let out = q.source("logs", payload()).window(75).count("N");
        let plan = q.build(vec![out]).unwrap();
        let reference = {
            let stream = EventEncoding::Point.decode_stream(&rows, &payload()).unwrap();
            execute_single(&plan, &bindings(vec![("logs", stream)])).unwrap()
        };
        let dfs = dfs_with(&rows);
        let job = TemporalPartitionJob::new("tp", plan, span);
        let out = job.run(&dfs, &Cluster::new()).unwrap();
        let got = read_output(&dfs, &out.dataset).unwrap();
        prop_assert!(
            got.same_relation(&reference),
            "span {} over {} rows ({} spans)", span, rows.len(), out.spans
        );
    }
}
