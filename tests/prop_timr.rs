//! Property tests for TiMR's core guarantees: scaled-out map-reduce
//! execution is indistinguishable from the single-node DSMS, for any data,
//! machine count, failure pattern, and temporal span width. The first two
//! are `tests/common/harness.rs`'s property; the oracle is
//! `tests/common/oracle.rs`.

mod common;

use common::harness::{arb_case, check, Dim};
use common::oracle::{self, Tolerance};
use proptest::prelude::*;
use timr_suite::mapreduce::{Cluster, Dataset, Dfs};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::Value;
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::agg::AggExpr;
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::expr::Func;
use timr_suite::temporal::plan::Operator;
use timr_suite::temporal::{col, lit, Expr, Query};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// TiMR over any machine count and any configuration equals the
    /// oracle.
    #[test]
    fn timr_matches_dsms(case in arb_case(&[], 3)) {
        check(&case)?;
    }

    /// Killing arbitrary first attempts changes nothing: the restart path
    /// is byte-deterministic (paper §III-C.1), and every kill aimed at a
    /// task that exists fires.
    #[test]
    fn restart_determinism(case in arb_case(&[Dim::Kills], 3)) {
        check(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Temporal partitioning at any span width reproduces the oracle's
    /// unpartitioned output (paper §III-B).
    #[test]
    fn temporal_partitioning_correct(rows in arb_log(100), span in 20i64..4_000) {
        let q = Query::new();
        let out = q.source("logs", payload()).window(75).count("N");
        let plan = q.build(vec![out]).unwrap();
        let want = {
            let stream = EventEncoding::Point.decode_stream(&rows, &payload()).unwrap();
            oracle::run_single(&plan, &bindings(vec![("logs", stream)])).unwrap()
        };
        let dfs = Dfs::new();
        let schema = EventEncoding::Point.dataset_schema(&payload());
        dfs.put("logs", Dataset::single(schema, rows.clone())).unwrap();
        let job = TemporalPartitionJob::new("tp", plan, span);
        let out = job.run(&dfs, &Cluster::new()).unwrap();
        let got = read_output(&dfs, &out.dataset).unwrap();
        let same = oracle::same_relation(&got, &want, &Tolerance::exact());
        prop_assert!(
            same.is_ok(),
            "span {} over {} rows ({} spans): {}", span, rows.len(), out.spans, same.unwrap_err()
        );
    }
}

/// `min2(V, 2.5)` over a `Long` `V` is a `Double`, whichever operand wins,
/// so a plan that projects it publishes through a TiMR job the relation
/// the single-node engine computes — the reduce sink's columns hold every
/// cell the engine hands it (paper §III-C: M-R ≡ single node).
#[test]
fn a_min2_of_a_long_and_a_double_publishes_the_single_node_relation() {
    let schema = Schema::new(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("V", ColumnType::Long),
    ]);
    let q = Query::new();
    let out = q
        .source("logs", schema.clone())
        .project(vec![
            ("UserId".to_string(), col("UserId")),
            (
                "M".to_string(),
                Expr::call(Func::Min2, vec![col("V"), lit(2.5f64)]),
            ),
        ])
        .group_apply(&["UserId"], |g| {
            g.window(10)
                .aggregate(vec![("S".to_string(), AggExpr::Sum(col("M")))])
        });
    let plan = q.build(vec![out]).unwrap();
    let rows: Vec<Row> = (0..40i64)
        .map(|t| row![t * 3, format!("u{}", t % 3), t % 6])
        .collect();
    let stream = EventEncoding::Point.decode_stream(&rows, &schema).unwrap();
    let single = execute_single(&plan, &bindings(vec![("logs", stream)])).unwrap();
    assert!(single
        .events()
        .iter()
        .all(|e| matches!(e.payload.get(1), Value::Double(_))));

    let dfs = Dfs::new();
    let dataset = Dataset::single(EventEncoding::Point.dataset_schema(&schema), rows);
    dfs.put("logs", dataset).unwrap();
    let group_apply = (plan.nodes().iter())
        .position(|n| matches!(n.op, Operator::GroupApply { .. }))
        .unwrap();
    let annotation = Annotation::none().exchange(group_apply, 0, ExchangeKey::keys(&["UserId"]));
    let out = TimrJob::new("min2", plan)
        .with_annotation(annotation)
        .with_machines(3)
        .run(&dfs, &Cluster::new())
        .unwrap();
    let published = out.stream(&dfs).unwrap();
    assert!(
        published.same_relation(&single),
        "{published}\nvs\n{single}"
    );
}
