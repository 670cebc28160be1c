//! Bot elimination (paper §IV-B.1, Fig 11).
//!
//! A bot is a user who clicks more than `T1` ads or searches more than
//! `T2` keywords within τ. The CQ hops a 6-hour window every 15 minutes
//! over the composite source, counts clicks and searches per user, keeps
//! users over either threshold (Union of the two filtered counts), and
//! AntiSemiJoins the original point stream against those bot periods —
//! emitting only non-bot activity.
//!
//! [`clean_stream`] is that CQ as a stream function. [`query`] applies it
//! to the raw log as a standalone plan; the pipeline applies it once in
//! the `{UserId}`-keyed stage whose reducers also derive the labels and
//! training rows from its output (`crate::pipeline`).

use super::{log_payload, stream_id, BtQuery};
use crate::params::BtParams;
use temporal::expr::{col, lit};
use temporal::plan::{Query, StreamHandle};
use timr::{Annotation, ExchangeKey};

/// The cleaned log: `input` minus each bot user's activity during the
/// periods the user is flagged (same payload schema as `input`). The one
/// definition of BotElim: [`query`] applies it to the `logs` source, and
/// the pipeline's `{UserId}`-keyed stage feeds it to the labels and
/// training-row streams as well.
pub fn clean_stream(input: &StreamHandle, params: &BtParams) -> StreamHandle {
    // Bot detection path: hopping 6h window refreshed every 15 min.
    let hopped = input.clone().hop_window(params.bot_hop, params.tau);
    let bots = hopped.group_apply(&["UserId"], |g| {
        let clicks = g
            .clone()
            .filter(col("StreamId").eq(lit(stream_id::CLICK)))
            .count("N")
            .filter(col("N").gt(lit(params.bot_click_threshold)));
        let searches = g
            .filter(col("StreamId").eq(lit(stream_id::KEYWORD)))
            .count("N")
            .filter(col("N").gt(lit(params.bot_search_threshold)));
        clicks
            .union(searches)
            .project(vec![("IsBot".to_string(), lit(1))])
    });

    // Remove bot users' activity during their bot periods.
    input.clone().anti_semi_join(bots, &[("UserId", "UserId")])
}

/// Build the BotElim query. Input: `logs`; output: the cleaned log
/// (same payload schema).
pub fn query(params: &BtParams) -> BtQuery {
    let q = Query::new();
    let clean = clean_stream(&q.source("logs", log_payload()), params);
    let plan = q.build(vec![clean.clone()]).unwrap();

    // Exchange both reads of the raw log by {UserId}: one keyed fragment
    // (paper: "UserId serves as the partitioning key for BotElim").
    let asj = clean.node_id();
    let hop = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, temporal::plan::Operator::AlterLifetime { .. }))
        .expect("hop window exists");
    let annotation = Annotation::none()
        .exchange(hop, 0, ExchangeKey::keys(&["UserId"]))
        .exchange(asj, 0, ExchangeKey::keys(&["UserId"]));

    BtQuery {
        name: "BotElim",
        plan,
        annotation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use temporal::exec::{bindings, execute_single};
    use temporal::{Event, EventStream, HOUR, MIN};

    fn params() -> BtParams {
        BtParams {
            bot_click_threshold: 3,
            bot_search_threshold: 5,
            ..Default::default()
        }
    }

    fn event(t: i64, sid: i32, user: &str, kw: &str) -> Event {
        Event::point(t, row![sid, user, kw])
    }

    #[test]
    fn heavy_clicker_is_removed_once_detected() {
        let mut events = Vec::new();
        // "bot" clicks every 20 minutes for 4 hours. The bot list refreshes
        // every 15 minutes over a 6-hour window, so detection kicks in
        // shortly after the threshold (3) is crossed; earlier activity has
        // already been let through — the paper's motivation for closing
        // the loop quickly.
        for i in 0..12 {
            events.push(event(HOUR + i * 20 * MIN, 1, "bot", "ad1"));
        }
        events.push(event(HOUR, 1, "human", "ad1"));
        events.push(event(HOUR, 2, "human", "cars"));
        let input = EventStream::new(super::log_payload(), events);

        let btq = query(&params());
        let out = execute_single(&btq.plan, &bindings(vec![("logs", input)]))
            .unwrap()
            .normalize();
        let human: usize = out
            .events()
            .iter()
            .filter(|e| e.payload.get(1).as_str() == Some("human"))
            .count();
        let bot_times: Vec<i64> = out
            .events()
            .iter()
            .filter(|e| e.payload.get(1).as_str() == Some("bot"))
            .map(|e| e.start())
            .collect();
        assert_eq!(human, 2, "human activity untouched");
        // Early bot clicks precede detection and survive; everything after
        // the first bot-list refresh past the threshold is gone.
        assert!(!bot_times.is_empty(), "pre-detection clicks survive");
        assert!(
            bot_times.len() <= 5,
            "post-detection clicks eliminated, got {bot_times:?}"
        );
        assert!(bot_times.iter().all(|&t| t <= 2 * HOUR + 15 * MIN));
    }

    #[test]
    fn every_sub_plan_node_has_a_segmented_kernel() {
        // Two filtered counts off one GroupInput, joined by a Union: the
        // whole sub-plan runs once over all users, and EXPLAIN says so.
        let text = query(&params()).plan.to_string();
        assert_eq!(text.matches("[segmented]").count(), 10, "{text}");
        assert!(text.contains("| output 0:\n"), "{text}");
        assert!(text.contains("Union [segmented]"), "{text}");
        assert!(text.contains("GroupInput [segmented]"), "{text}");
        assert!(!text.contains("[per-run]"), "{text}");
        // Marks are for sub-plan nodes only.
        assert!(text.contains("AntiSemiJoin (UserId=UserId)\n"), "{text}");
    }

    /// The hop sinks into the sub-plan, but two filtered counts are not a
    /// hopping aggregate: no pane kernel, no partial — and the compiled job
    /// says which rule kept the raw log in the shuffle.
    #[test]
    fn the_two_branch_sub_plan_walks_the_runs_and_pushes_no_partial() {
        let btq = query(&params());
        let fused = temporal::plan::fuse_plan(&btq.plan).unwrap().to_string();
        assert!(!fused.contains("[pane]"), "{fused}");
        assert!(
            fused.contains("FusedFragment [HopWindow h=900 w=21600] [segmented]"),
            "the hop runs inside the sub-plan:\n{fused}"
        );
        let input = EventStream::new(
            super::log_payload(),
            vec![event(HOUR, 1, "u1", "ad1"), event(HOUR, 2, "u2", "cars")],
        );
        let batch = temporal::EventBatch::from_stream(&input).unwrap();
        let srcs = [("logs".to_string(), batch)].into_iter().collect();
        let (_, stats) = temporal::exec::execute(&btq.plan, srcs).unwrap();
        assert_eq!((stats.groups, stats.pane_groups), (2, 0));

        let compiled = timr::TimrJob::new("botelim", btq.plan.clone())
            .with_annotation(btq.annotation.clone())
            .compile()
            .unwrap();
        assert_eq!((compiled.pushed_ops, compiled.pushed_partials), (0, 0));
        let text = compiled.to_string();
        assert!(
            text.contains("<- logs: no partial aggregate (cut point has other consumers)"),
            "{text}"
        );
    }

    #[test]
    fn light_activity_survives() {
        let events = vec![
            event(10 * MIN, 2, "u1", "cars"),
            event(20 * MIN, 1, "u1", "ad1"),
            event(30 * MIN, 2, "u2", "movies"),
        ];
        let input = EventStream::new(super::log_payload(), events.clone());
        let btq = query(&params());
        let out = execute_single(&btq.plan, &bindings(vec![("logs", input)]))
            .unwrap()
            .normalize();
        assert_eq!(out.len(), 3, "all light activity survives:\n{out}");
    }

    #[test]
    fn heavy_searcher_is_removed_only_during_bot_window() {
        let mut events = Vec::new();
        // Burst of 10 searches in hour 1, one search an hour after the
        // burst (still inside the 6h bot window), and a lone search a day
        // later after the window has drained.
        for i in 0..10 {
            events.push(event(HOUR + i * MIN, 2, "u", &format!("k{i}")));
        }
        events.push(event(2 * HOUR, 2, "u", "during"));
        events.push(event(30 * HOUR, 2, "u", "later"));
        let input = EventStream::new(super::log_payload(), events);
        let btq = query(&params());
        let out = execute_single(&btq.plan, &bindings(vec![("logs", input)]))
            .unwrap()
            .normalize();
        let kws: Vec<&str> = out
            .events()
            .iter()
            .map(|e| e.payload.get(2).as_str().unwrap())
            .collect();
        assert!(kws.contains(&"later"), "post-window activity survives");
        assert!(
            !kws.contains(&"during"),
            "activity while flagged is eliminated: {kws:?}"
        );
    }

    #[test]
    fn annotation_is_valid_and_keyed_by_user() {
        let btq = query(&params());
        btq.annotation.validate(&btq.plan).unwrap();
        let frags = timr::fragment::fragment(&btq.plan, &btq.annotation).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].key, timr::ExchangeKey::keys(&["UserId"]));
    }
}
