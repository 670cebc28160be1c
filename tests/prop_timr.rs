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
use timr_suite::relation::{row, Row, Schema};
use timr_suite::temporal::exec::bindings;
use timr_suite::temporal::Query;
use timr_suite::timr::temporal_partition::TemporalPartitionJob;
use timr_suite::timr::{read_output, EventEncoding};

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
