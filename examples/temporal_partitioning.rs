//! Temporal partitioning (paper §III-B): scale out a query with *no*
//! partitionable payload key by splitting the time axis into overlapping
//! spans, and watch the span-width trade-off of Fig 16.
//!
//! ```text
//! cargo run --release --example temporal_partitioning
//! ```

use timr_suite::mapreduce::{Cluster, Dataset, Dfs};
use timr_suite::relation::row;
use timr_suite::relation::schema::{ColumnType, Field};
use timr_suite::temporal::{Query, HOUR, MIN};
use timr_suite::timr::temporal_partition::TemporalPartitionJob;
use timr_suite::timr::{read_output, EventEncoding};

fn main() {
    // A global 30-minute sliding count: no key column to partition on.
    let payload = timr_suite::relation::Schema::new(vec![Field::new("AdId", ColumnType::Str)]);
    let q = Query::new();
    let out = q
        .source("clicks", payload.clone())
        .window(30 * MIN)
        .count("N");
    let plan = q.build(vec![out]).expect("valid query");

    // A dense day of click events.
    let events = 80_000i64;
    let duration = 24 * HOUR;
    let rows: Vec<timr_suite::relation::Row> = (0..events)
        .map(|i| row![i * duration / events, format!("ad{}", i % 5)])
        .collect();

    println!("span-width sweep over {events} events (overlap = plan horizon = 30 min):\n");
    println!(
        "{:>10}  {:>6}  {:>12}  {:>10}",
        "span", "spans", "replication", "wall time"
    );
    let mut reference: Option<timr_suite::temporal::EventStream> = None;
    for (label, width) in [
        ("15 min", 15 * MIN),
        ("1 hour", HOUR),
        ("4 hours", 4 * HOUR),
        ("single", duration + HOUR),
    ] {
        let dfs = Dfs::new();
        dfs.put(
            "clicks",
            Dataset::single(EventEncoding::Point.dataset_schema(&payload), rows.clone()),
        )
        .expect("fresh DFS");
        let start = std::time::Instant::now();
        let job = TemporalPartitionJob::new("demo", plan.clone(), width);
        let out = job.run(&dfs, &Cluster::new()).expect("span job");
        let elapsed = start.elapsed();
        println!(
            "{label:>10}  {:>6}  {:>11.2}x  {:>10.2?}",
            out.spans, out.replication, elapsed
        );

        // Every span width yields the identical temporal relation.
        let stream = read_output(&dfs, &out.dataset).expect("decode");
        match &reference {
            None => reference = Some(stream),
            Some(r) => assert!(stream.same_relation(r), "span width changed the result!"),
        }
    }
    println!("\nall span widths produced the identical output relation ✓");
}
