//! Model generation and scoring (paper §IV-B.4).
//!
//! Model generation is a GroupApply by `AdId` around a hopping-window UDO
//! that runs logistic regression over the window's training rows; the
//! emitted weight events are valid until the next retraining, so lodging
//! them in a TemporalJoin synopsis scores any incoming profile against the
//! *current* model — the paper's architecture for closing the M3 loop.
//!
//! Scoring is itself a temporal query: profiles join model weights on the
//! keyword, per-`(user, ad)` contributions are summed by a GroupApply, and
//! a Project applies the logistic function. (The intercept is omitted from
//! the query-side score: it is constant per ad, so rankings and
//! threshold sweeps are unaffected; CTR calibration happens downstream.)

use super::{train_rows_payload, BtQuery};
use crate::lr::{train, LrConfig};
use crate::params::BtParams;
use relation::schema::{ColumnType, Field};
use relation::{Row, Schema};
use rustc_hash::FxHashMap;
use std::sync::Arc;
use temporal::agg::AggExpr;
use temporal::expr::{col, lit, Expr, Func};
use temporal::plan::{Operator, Query};
use temporal::udo::WindowUdo;
use temporal::{Event, Time};
use timr::{Annotation, ExchangeKey};

/// Name of the intercept pseudo-feature in model weight streams.
pub const BIAS_FEATURE: &str = "__bias";

/// The logistic-regression UDO: one training pass per hop.
#[derive(Debug, Clone)]
pub struct LrUdo {
    /// Training hyper-parameters.
    pub config: LrConfig,
}

impl WindowUdo for LrUdo {
    fn name(&self) -> &str {
        "logistic_regression"
    }

    fn output_schema(&self, _input: &Schema) -> temporal::Result<Schema> {
        Ok(Schema::new(vec![
            Field::new("Feature", ColumnType::Str),
            Field::new("Weight", ColumnType::Double),
        ]))
    }

    fn apply(
        &self,
        _window_end: Time,
        input_schema: &Schema,
        events: &[Event],
    ) -> temporal::Result<Vec<Row>> {
        // Assemble examples: rows sharing (time, user) belong to one
        // example; Label repeats on each row.
        let user_idx = input_schema.index_of("UserId")?;
        let label_idx = input_schema.index_of("Label")?;
        let kw_idx = input_schema.index_of("Keyword")?;
        let cnt_idx = input_schema.index_of("Cnt")?;

        let mut examples: FxHashMap<(Time, String), crate::Example> = FxHashMap::default();
        for e in events {
            let user = e
                .payload
                .get(user_idx)
                .as_str()
                .ok_or_else(|| temporal::TemporalError::Eval("UserId not a string".into()))?
                .to_string();
            let entry = examples
                .entry((e.start(), user.clone()))
                .or_insert_with(|| crate::Example {
                    time: e.start(),
                    user,
                    ad: String::new(),
                    label: 0,
                    features: FxHashMap::default(),
                });
            entry.label = e.payload.get(label_idx).as_int().unwrap_or(0) as u8;
            if let (Some(kw), Some(cnt)) = (
                e.payload.get(kw_idx).as_str(),
                e.payload.get(cnt_idx).as_double(),
            ) {
                entry.features.insert(kw.to_string(), cnt);
            }
        }
        let mut data: Vec<crate::Example> = examples.into_values().collect();
        data.sort_by(|a, b| (a.time, &a.user).cmp(&(b.time, &b.user)));

        let model = train(&data, &self.config);
        let mut rows = Vec::with_capacity(model.weights.len() + 1);
        rows.push(relation::row![BIAS_FEATURE, model.bias]);
        let mut weights: Vec<(&String, &f64)> = model.weights.iter().collect();
        weights.sort_by(|a, b| a.0.cmp(b.0));
        for (feature, weight) in weights {
            rows.push(relation::row![feature.as_str(), *weight]);
        }
        Ok(rows)
    }
}

/// Build the model-generation query. Input: `train_rows`; output payload:
/// `(AdId, Feature, Weight)` interval events valid until the next
/// retraining hop.
pub fn model_query(params: &BtParams, config: LrConfig) -> BtQuery {
    let q = Query::new();
    let train = q.source("train_rows", train_rows_payload());
    let udo = Arc::new(LrUdo { config });
    let out = train.group_apply(&["AdId"], move |g| {
        g.hop_udo(params.horizon, params.horizon, udo.clone())
    });
    let plan = q.build(vec![out]).unwrap();
    let ga = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::GroupApply { .. }))
        .expect("group-apply exists");
    BtQuery {
        name: "ModelGen",
        annotation: Annotation::none().exchange(ga, 0, ExchangeKey::keys(&["AdId"])),
        plan,
    }
}

/// Payload schema of per-user profile streams used for scoring.
pub fn profiles_payload() -> Schema {
    Schema::new(vec![
        Field::new("UserId", ColumnType::Str),
        Field::new("Keyword", ColumnType::Str),
        Field::new("Cnt", ColumnType::Long),
    ])
}

/// Payload schema of model weight streams.
pub fn models_payload() -> Schema {
    Schema::new(vec![
        Field::new("AdId", ColumnType::Str),
        Field::new("Feature", ColumnType::Str),
        Field::new("Weight", ColumnType::Double),
    ])
}

/// Build the scoring query. Inputs: `profiles` (UBP count events) and
/// `models`; output payload: `(UserId, AdId, Score)` with
/// `Score = σ(Σ weight·cnt)`.
pub fn scoring_query(_params: &BtParams) -> BtQuery {
    let q = Query::new();
    let profiles = q.source("profiles", profiles_payload());
    let models = q.source("models", models_payload());

    // Align names so the join (and its partitioning) is on `Keyword`.
    let weights = models
        .filter(col("Feature").ne(lit(BIAS_FEATURE)))
        .project(vec![
            ("AdId".to_string(), col("AdId")),
            ("Keyword".to_string(), col("Feature")),
            ("Weight".to_string(), col("Weight")),
        ]);
    let contributions = profiles
        .temporal_join(weights, &[("Keyword", "Keyword")], None)
        .project(vec![
            ("UserId".to_string(), col("UserId")),
            ("AdId".to_string(), col("AdId")),
            ("Contribution".to_string(), col("Weight").mul(col("Cnt"))),
        ]);
    let summed = contributions.group_apply(&["UserId", "AdId"], |g| {
        g.aggregate(vec![(
            "LinearScore".to_string(),
            AggExpr::Sum(col("Contribution")),
        )])
    });
    let sigmoid: Expr = lit(1.0).div(lit(1.0).add(Expr::call(
        Func::Exp,
        vec![lit(0.0).sub(col("LinearScore"))],
    )));
    let out = summed.project(vec![
        ("UserId".to_string(), col("UserId")),
        ("AdId".to_string(), col("AdId")),
        ("Score".to_string(), sigmoid),
    ]);
    let plan = q.build(vec![out]).unwrap();

    // Two fragments: the join keyed by {Keyword}, then the per-(user, ad)
    // summation keyed by {UserId, AdId}.
    let join = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::TemporalJoin { .. }))
        .expect("scoring join exists");
    let ga = plan
        .nodes()
        .iter()
        .position(|n| matches!(n.op, Operator::GroupApply { .. }))
        .expect("scoring group-apply exists");
    let annotation = Annotation::none()
        .exchange(join, 0, ExchangeKey::keys(&["Keyword"]))
        .exchange(join, 1, ExchangeKey::keys(&["Keyword"]))
        .exchange(ga, 0, ExchangeKey::keys(&["UserId", "AdId"]));
    BtQuery {
        name: "Scoring",
        plan,
        annotation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use temporal::exec::{bindings, execute_single};
    use temporal::{Event, EventStream};

    fn train_rows() -> EventStream {
        // Clicks co-occur with "hot"; non-clicks with "cold".
        let mut events = Vec::new();
        let mut t = 10i64;
        for i in 0..30 {
            t += 7;
            let (label, kw) = if i % 3 == 0 { (1, "hot") } else { (0, "cold") };
            events.push(Event::point(
                t,
                row![format!("u{i}"), "adA", label, kw, 1i64],
            ));
        }
        EventStream::new(train_rows_payload(), events)
    }

    #[test]
    fn the_udo_runs_once_per_group_and_explain_says_so() {
        let text = model_query(&BtParams::default(), LrConfig::default())
            .plan
            .to_string();
        assert!(text.contains(" [per-run]\n"), "{text}");
        assert_eq!(text.matches("[per-run]").count(), 1, "{text}");
        assert!(text.contains("GroupInput [segmented]"), "{text}");
    }

    #[test]
    fn model_query_learns_signed_weights() {
        let params = BtParams::default();
        let btq = model_query(&params, LrConfig::default());
        let out = execute_single(&btq.plan, &bindings(vec![("train_rows", train_rows())]))
            .unwrap()
            .normalize();
        // Output schema: (AdId, Feature, Weight).
        let mut weights = FxHashMap::default();
        for e in out.events() {
            assert_eq!(e.payload.get(0).as_str(), Some("adA"));
            weights.insert(
                e.payload.get(1).as_str().unwrap().to_string(),
                e.payload.get(2).as_double().unwrap(),
            );
        }
        assert!(weights["hot"] > 0.5, "hot weight {}", weights["hot"]);
        assert!(weights["cold"] < -0.5, "cold weight {}", weights["cold"]);
        assert!(weights.contains_key(BIAS_FEATURE));
    }

    #[test]
    fn periodic_retraining_emits_one_model_per_hop() {
        let params = BtParams {
            horizon: 100, // retrain every 100 ticks over the last 100
            ..Default::default()
        };
        let btq = model_query(
            &params,
            LrConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let out = execute_single(&btq.plan, &bindings(vec![("train_rows", train_rows())]))
            .unwrap()
            .normalize();
        // Training rows span ~210 ticks: at least two hops emit models.
        let starts: std::collections::BTreeSet<i64> =
            out.events().iter().map(|e| e.start()).collect();
        assert!(starts.len() >= 2, "hops: {starts:?}");
        // Model events are valid for one hop.
        assert!(out.events().iter().all(|e| e.lifetime.duration() <= 100));
    }

    #[test]
    fn scoring_applies_current_model() {
        let btq = scoring_query(&BtParams::default());
        let profiles = EventStream::new(
            profiles_payload(),
            vec![
                Event::interval(0, 100, row!["u1", "hot", 2i64]),
                Event::interval(0, 100, row!["u2", "cold", 1i64]),
            ],
        );
        let models = EventStream::new(
            models_payload(),
            vec![
                Event::interval(0, 100, row!["adA", "hot", 1.5f64]),
                Event::interval(0, 100, row!["adA", "cold", -2.0f64]),
                Event::interval(0, 100, row!["adA", BIAS_FEATURE, -1.0f64]),
            ],
        );
        let out = execute_single(
            &btq.plan,
            &bindings(vec![("profiles", profiles), ("models", models)]),
        )
        .unwrap()
        .normalize();
        let mut scores = FxHashMap::default();
        for e in out.events() {
            scores.insert(
                e.payload.get(0).as_str().unwrap().to_string(),
                e.payload.get(2).as_double().unwrap(),
            );
        }
        // u1: σ(2·1.5) ≈ 0.95; u2: σ(−2) ≈ 0.12.
        assert!((scores["u1"] - 1.0 / (1.0 + (-3.0f64).exp())).abs() < 1e-9);
        assert!((scores["u2"] - 1.0 / (1.0 + 2.0f64.exp())).abs() < 1e-9);
    }

    /// What a reducer sees: profiles and models bound as batches stay
    /// columns from the join to the root — the per-(user, ad) `Sum` is a
    /// per-event aggregate, swept on the columns — and publish the events
    /// the row-bound query and the reference do. `u3`'s contributions all
    /// start at one instant and do not add associatively, so the bytes pin
    /// the order a group's events are summed in.
    #[test]
    fn scoring_on_batches_is_never_transposed() {
        use temporal::exec::{execute_data, execute_reference, DataBindings, StreamData};
        use temporal::EventBatch;
        let btq = scoring_query(&BtParams::default());
        let mut profiles = Vec::new();
        for (i, kw) in ["hot", "cold", "warm", "hot", "warm"].iter().enumerate() {
            let t = i as i64 * 10;
            profiles.push(Event::interval(t, t + 60, row!["u1", *kw, i as i64 + 1]));
            profiles.push(Event::interval(t + 5, t + 30, row!["u2", *kw, 3i64]));
        }
        for kw in ["hot", "big", "warm", "cold", "neg"] {
            profiles.push(Event::interval(20, 50, row!["u3", kw, 1i64]));
        }
        let profiles = EventStream::new(profiles_payload(), profiles);
        let models = EventStream::new(
            models_payload(),
            vec![
                Event::interval(0, 200, row!["adA", "hot", 0.1f64]),
                Event::interval(0, 200, row!["adA", "big", 1e16f64]),
                Event::interval(0, 200, row!["adA", "cold", -0.7f64]),
                Event::interval(0, 200, row!["adA", "warm", 0.2f64]),
                Event::interval(0, 200, row!["adA", "neg", -1e16f64]),
                Event::interval(0, 35, row!["adB", "warm", 1.3f64]),
                Event::interval(0, 200, row!["adB", BIAS_FEATURE, -1.0f64]),
            ],
        );
        let rows = bindings(vec![
            ("profiles", profiles.clone()),
            ("models", models.clone()),
        ]);
        let on_rows = execute_single(&btq.plan, &rows).unwrap();
        let reference = execute_reference(&btq.plan, &rows).unwrap().pop().unwrap();
        assert_eq!(on_rows.events(), reference.events());
        let mut srcs = DataBindings::default();
        for (name, stream) in [("profiles", profiles), ("models", models)] {
            let batch = EventBatch::from_stream(&stream).unwrap();
            srcs.insert(name.to_string(), StreamData::Batch(batch));
        }
        let (mut roots, stats) = execute_data(&btq.plan, srcs).unwrap();
        assert_eq!((stats.transposed_events, stats.row_fallbacks), (0, 0));
        assert_eq!(stats.groups, 6, "(u1, u2, u3) × (adA, adB)");
        assert!(on_rows.len() > 6);
        let on_batch = roots.pop().unwrap().into_stream();
        assert_eq!(on_batch.events(), reference.events());
    }

    #[test]
    fn queries_validate_and_fragment() {
        let params = BtParams::default();
        let m = model_query(&params, LrConfig::default());
        m.annotation.validate(&m.plan).unwrap();
        let s = scoring_query(&params);
        s.annotation.validate(&s.plan).unwrap();
        let frags = timr::fragment::fragment(&s.plan, &s.annotation).unwrap();
        // Weight-renaming prep (stateless spread), the keyword-keyed join,
        // and the (user, ad)-keyed summation.
        assert_eq!(
            frags.len(),
            3,
            "scoring splits into prep + join + summation"
        );
    }
}
