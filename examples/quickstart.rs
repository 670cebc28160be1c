//! Quickstart: write a temporal query, run it on the embedded DSMS, then
//! scale the *same* query out on map-reduce with TiMR.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use timr_suite::mapreduce::{Cluster, Dataset, Dfs};
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::relation::{row, Schema};
use timr_suite::temporal::exec::{bindings, execute_single};
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::{EventBatch, EventStream, Query};
use timr_suite::timr::{Annotation, EventEncoding, ExchangeKey, TimrJob};

fn main() {
    // 1. A payload schema: what each event carries (TiMR manages the
    //    timestamp separately, as the leading `Time` column of datasets).
    let payload = Schema::new(vec![
        Field::new("StreamId", ColumnType::Int),
        Field::new("AdId", ColumnType::Str),
    ]);

    // 2. A temporal query — the paper's Example 1 (RunningClickCount):
    //    per-ad click counts over a sliding window, refreshed on every
    //    change.
    let q = Query::new();
    let out = q
        .source("clicks", payload.clone())
        .filter(col("StreamId").eq(lit(1)))
        .group_apply(&["AdId"], |g| g.window(60).count("ClickCount"));
    let plan = q.build(vec![out]).expect("valid query");
    println!("The continuous query plan:\n{plan}");

    // 3. Run it directly on the single-node DSMS.
    let events = EventStream::from_points(
        payload,
        vec![
            (10, row![1i32, "sneakers"]),
            (25, row![1i32, "sneakers"]),
            (40, row![2i32, "sneakers"]), // a search, filtered out
            (90, row![1i32, "sneakers"]),
            (95, row![1i32, "laptops"]),
        ],
    );
    let result = execute_single(&plan, &bindings(vec![("clicks", events.clone())]))
        .expect("query runs")
        .normalize();
    println!("Single-node DSMS output (count valid over [LE, RE)):");
    for e in result.events() {
        println!("  {e}");
    }

    // 4. The same query, unmodified, on map-reduce: store the events as a
    //    DFS dataset, annotate the plan with one exchange by {AdId}, and
    //    let TiMR compile and run it.
    let dfs = Dfs::new();
    let batch = EventBatch::from_stream(&events).expect("well-typed events");
    let rows = (EventEncoding::Point.encode_sink(batch))
        .expect("point events")
        .to_rows();
    dfs.put(
        "clicks",
        Dataset::single(EventEncoding::Point.dataset_schema(events.schema()), rows),
    )
    .expect("fresh DFS");

    let filter_node = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, timr_suite::temporal::plan::Operator::Filter { .. }))
        .expect("filter exists");
    let annotation = Annotation::none().exchange(filter_node, 0, ExchangeKey::keys(&["AdId"]));

    let job = TimrJob::new("quickstart", plan)
        .with_annotation(annotation)
        .with_machines(4);
    let output = job.run(&dfs, &Cluster::new()).expect("job runs");
    let distributed = output.stream(&dfs).expect("decode output");

    println!(
        "\nTiMR output over {} reduce partitions — identical to single-node: {}",
        output.stats.stages[0].partitions,
        distributed.same_relation(&result)
    );
}
