//! Closing the M3 loop (paper §VII): the exact query that ran offline on
//! TiMR consumes a live feed through the incremental executor, emitting
//! finalized results as punctuations advance — an "online tracker" for
//! RunningClickCount.
//!
//! ```text
//! cargo run --release --example realtime_dashboard
//! ```

use timr_suite::adgen::{generate, GenConfig, StreamId};
use timr_suite::relation::row;
use timr_suite::temporal::expr::{col, lit};
use timr_suite::temporal::rt::RtSession;
use timr_suite::temporal::{Event, Query, HOUR, MIN};

fn main() {
    // The CQ: per-ad click count over a 2-hour window.
    let q = Query::new();
    let out = q
        .source("feed", timr_suite::adgen::unified_payload_schema())
        .filter(col("StreamId").eq(lit(StreamId::Click as i32)))
        .group_apply(&["KwAdId"], |g| g.window(2 * HOUR).count("Clicks"));
    let plan = q.build(vec![out]).expect("valid query");

    let mut session = RtSession::new(plan).expect("session");
    println!("{}\n", session.explain());

    // Replay a generated log as the live feed, punctuating every 30
    // simulated minutes and printing the finalized counter updates.
    let log = generate(&GenConfig::small(99));
    println!(
        "replaying {} events as a live feed; finalized updates:\n",
        log.events.len()
    );
    let mut next_tick = 0i64;
    let mut updates = 0usize;
    for e in &log.events {
        session
            .push(
                "feed",
                Event::point(
                    e.time,
                    row![e.stream as i32, e.user.as_str(), e.kw_ad.as_str()],
                ),
            )
            .expect("in-order feed");
        if e.time >= next_tick {
            for update in session.punctuate(e.time).expect("punctuate") {
                if updates < 25 {
                    println!(
                        "  t=[{:>6},{:>6})  ad={:<10} clicks={}",
                        update.start(),
                        update.end(),
                        update.payload.get(0),
                        update.payload.get(1)
                    );
                }
                updates += 1;
            }
            next_tick = e.time + 30 * MIN;
        }
    }
    let tail = session.close().expect("close");
    updates += tail.len();
    println!("\n… {updates} finalized counter updates in total.");
    println!(
        "(the same plan object runs unmodified on TiMR over offline logs — see the quickstart example)"
    );
}
