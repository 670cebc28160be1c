//! Feature selection by statistical hypothesis testing
//! (paper §IV-B.3, Fig 13).
//!
//! Three sub-queries composed into one plan:
//!
//! - **TotalCount** (partitioned by `AdId`): total clicks and examples per
//!   ad over the analysis horizon;
//! - **PerKWCount** (partitioned by `{AdId, Keyword}`): clicks and
//!   examples per `(ad, keyword)` pair, from the training rows;
//! - **CalcScore**: a TemporalJoin of the two count streams on `AdId`,
//!   followed by the z-score computed as a plain arithmetic expression
//!   (where the paper uses a UDO) and the support filter (≥ 5 clicks with
//!   the keyword).
//!
//! The output keeps the raw counts alongside `Z`, so different |z|
//! thresholds (the Fig 20/22 sweeps) can be applied without re-running the
//! job.

use super::{labels_payload, train_rows_payload, BtQuery};
use crate::params::BtParams;
use temporal::agg::AggExpr;
use temporal::expr::{col, lit, Expr};
use temporal::plan::{Operator, Query};
use timr::{Annotation, ExchangeKey};

/// `s(1-s)/n` with the smoothed proportion `s = (clicks + ½)/(examples+1)`
/// (Agresti–Coull-style; keeps the variance positive at zero clicks).
fn variance_term(clicks: Expr, examples: Expr) -> Expr {
    let s = clicks.add(lit(0.5)).div(examples.clone().add(lit(1.0)));
    s.clone().mul(lit(1.0).sub(s)).div(examples)
}

/// Build the feature-selection query. Inputs: `labels` and `train_rows`
/// (both Interval-encoded outputs of the GenTrainData jobs); output:
/// [`super::scores_payload`].
pub fn query(params: &BtParams) -> BtQuery {
    let q = Query::new();
    let labels = q.source("labels", labels_payload());
    let train = q.source("train_rows", train_rows_payload());

    // TotalCount: clicks and examples per ad over the whole horizon.
    let totals = labels
        .hop_window(params.horizon, params.horizon)
        .group_apply(&["AdId"], |g| {
            g.aggregate(vec![
                ("TotalClicks".to_string(), AggExpr::Sum(col("Label"))),
                ("TotalExamples".to_string(), AggExpr::Count),
            ])
        });

    // PerKWCount: clicks and examples per (ad, keyword).
    let per_kw = train
        .hop_window(params.horizon, params.horizon)
        .group_apply(&["AdId", "Keyword"], |g| {
            g.aggregate(vec![
                ("ClicksWith".to_string(), AggExpr::Sum(col("Label"))),
                ("ExamplesWith".to_string(), AggExpr::Count),
            ])
        });

    // CalcScore: join the two streams and evaluate the unpooled
    // two-proportion z-test. Variance terms use Agresti–Coull-style
    // smoothed proportions (clicks + ½)/(examples + 1) — see
    // `crate::ztest::z_score`, which this expression mirrors exactly (the
    // cross-check tests compare the two to 1e-9).
    let joined = per_kw.temporal_join(totals, &[("AdId", "AdId")], None);
    let clicks_without = col("TotalClicks").sub(col("ClicksWith"));
    let examples_without = col("TotalExamples").sub(col("ExamplesWith"));
    let p_with = col("ClicksWith").mul(lit(1.0)).div(col("ExamplesWith"));
    let p_without = clicks_without
        .clone()
        .mul(lit(1.0))
        .div(examples_without.clone());
    let var_with = variance_term(col("ClicksWith"), col("ExamplesWith"));
    let var_without = variance_term(clicks_without, examples_without);
    let z = p_with.sub(p_without).div(var_with.add(var_without).sqrt());

    let out = joined
        .filter(
            col("ClicksWith")
                .ge(lit(params.min_support))
                .or(col("ExamplesWith").ge(lit(params.min_example_support))),
        )
        .project(vec![
            ("AdId".to_string(), col("AdId")),
            ("Keyword".to_string(), col("Keyword")),
            ("ClicksWith".to_string(), col("ClicksWith")),
            ("ExamplesWith".to_string(), col("ExamplesWith")),
            ("TotalClicks".to_string(), col("TotalClicks")),
            ("TotalExamples".to_string(), col("TotalExamples")),
            ("Z".to_string(), z),
        ])
        // Degenerate rows (zero variance, empty without-population) make
        // the z expression Null; drop them with a tautological comparison
        // that is Null-rejecting.
        .filter(col("Z").ge(lit(f64::MIN)).or(col("Z").lt(lit(f64::MIN))));

    let plan = q.build(vec![out]).unwrap();

    // Everything is partitionable by AdId: exchange both source reads.
    let mut annotation = Annotation::none();
    for (id, node) in plan.nodes().iter().enumerate() {
        for (idx, &child) in node.inputs.iter().enumerate() {
            if matches!(plan.node(child).op, Operator::Source { .. }) {
                annotation = annotation.exchange(id, idx, ExchangeKey::keys(&["AdId"]));
            }
        }
    }

    BtQuery {
        name: "FeatureSelection",
        plan,
        annotation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ztest::{z_score, KeywordCounts};
    use relation::row;
    use temporal::exec::{bindings, execute_single};
    use temporal::{Event, EventStream};

    /// Build label and train-row streams describing a keyword strongly
    /// correlated with clicks on "adA" and an uncorrelated one.
    fn sample() -> (EventStream, EventStream) {
        let mut labels = Vec::new();
        let mut rows = Vec::new();
        let mut t = 100i64;
        let mut add = |user: &str, ad: &str, label: i32, kws: &[&str], t: &mut i64| {
            *t += 10;
            labels.push(Event::point(*t, row![user, ad, label]));
            for kw in kws {
                rows.push(Event::point(*t, row![user, ad, label, *kw, 1i64]));
            }
        };
        // 10 clicks with "hot" in profile, 2 without.
        for i in 0..10 {
            add(&format!("c{i}"), "adA", 1, &["hot"], &mut t);
        }
        for i in 0..2 {
            add(&format!("d{i}"), "adA", 1, &["meh"], &mut t);
        }
        // 40 non-clicks, few with "hot", many with "meh"/none.
        for i in 0..3 {
            add(&format!("n{i}"), "adA", 0, &["hot"], &mut t);
        }
        for i in 0..20 {
            add(&format!("m{i}"), "adA", 0, &["meh"], &mut t);
        }
        for i in 0..17 {
            add(&format!("e{i}"), "adA", 0, &[], &mut t);
        }
        (
            EventStream::new(labels_payload(), labels),
            EventStream::new(train_rows_payload(), rows),
        )
    }

    #[test]
    fn z_scores_match_direct_computation() {
        let (labels, rows) = sample();
        let btq = query(&BtParams::default());
        let out = execute_single(
            &btq.plan,
            &bindings(vec![("labels", labels), ("train_rows", rows)]),
        )
        .unwrap()
        .normalize();

        // Expected from the pure z-test implementation.
        let expect_hot = z_score(&KeywordCounts {
            clicks_with: 10,
            examples_with: 13,
            total_clicks: 12,
            total_examples: 52,
        })
        .unwrap();
        let expect_meh = z_score(&KeywordCounts {
            clicks_with: 2,
            examples_with: 22,
            total_clicks: 12,
            total_examples: 52,
        })
        .unwrap();

        let mut got = std::collections::BTreeMap::new();
        for e in out.events() {
            let kw = e.payload.get(1).as_str().unwrap().to_string();
            let z = e.payload.get(6).as_double().unwrap();
            got.insert(kw, z);
        }
        let hot = got.get("hot").copied().expect("hot passes support");
        assert!((hot - expect_hot).abs() < 1e-9, "hot {hot} vs {expect_hot}");
        assert!(hot > 1.96, "hot is significantly positive: {hot}");
        if let Some(&meh) = got.get("meh") {
            assert!((meh - expect_meh).abs() < 1e-9);
            assert!(meh < 0.0, "meh leans negative: {meh}");
        }
    }

    #[test]
    fn support_filter_removes_rare_keywords() {
        let (labels, rows) = sample();
        let params = BtParams {
            min_support: 5,
            ..Default::default()
        };
        let btq = query(&params);
        let out = execute_single(
            &btq.plan,
            &bindings(vec![("labels", labels), ("train_rows", rows)]),
        )
        .unwrap()
        .normalize();
        // "meh" has only 2 clicks-with: filtered.
        assert!(out
            .events()
            .iter()
            .all(|e| e.payload.get(1).as_str() != Some("meh")));
        assert!(out
            .events()
            .iter()
            .any(|e| e.payload.get(1).as_str() == Some("hot")));
    }

    /// The query is written the way the paper draws it — `hop_window` above
    /// the GroupApply — and still is a hopping aggregate to the planner:
    /// both counts push their partials map-side and run on the pane kernel.
    #[test]
    fn both_counts_push_partials_and_take_the_pane_kernel() {
        let btq = query(&BtParams::default());
        let compiled = timr::TimrJob::new("scores", btq.plan.clone())
            .with_annotation(btq.annotation.clone())
            .with_source_encoding("labels", timr::EventEncoding::Interval)
            .with_source_encoding("train_rows", timr::EventEncoding::Interval)
            .compile()
            .unwrap();
        assert_eq!((compiled.pushed_ops, compiled.pushed_partials), (0, 2));
        assert!(compiled.partial_refusals.is_empty(), "{compiled}");

        let fused = temporal::plan::fuse_plan(&btq.plan).unwrap().to_string();
        for needle in [
            "Aggregate [TotalClicks=SUM(Label), TotalExamples=COUNT()] [pane]",
            "Aggregate [ClicksWith=SUM(Label), ExamplesWith=COUNT()] [pane]",
        ] {
            assert!(fused.contains(needle), "missing `{needle}` in:\n{fused}");
        }
        assert!(!fused.contains("[segmented]"), "{fused}");

        let (labels, rows) = sample();
        let srcs = [("labels", labels), ("train_rows", rows)].map(|(n, s)| {
            (
                n.to_string(),
                temporal::EventBatch::from_stream(&s).unwrap(),
            )
        });
        let (_, stats) = temporal::exec::execute(&btq.plan, srcs.into_iter().collect()).unwrap();
        // One ad; keywords "hot" and "meh" under it.
        assert_eq!((stats.groups, stats.pane_groups), (3, 3));
    }

    #[test]
    fn annotation_forms_single_adid_fragment() {
        let btq = query(&BtParams::default());
        btq.annotation.validate(&btq.plan).unwrap();
        let frags = timr::fragment::fragment(&btq.plan, &btq.annotation).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].key, timr::ExchangeKey::keys(&["AdId"]));
        // Two inputs: labels and train_rows.
        assert_eq!(frags[0].inputs.len(), 2);
    }
}
