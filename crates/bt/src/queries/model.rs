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
use crate::lr::{balance_by, fit, LrConfig};
use crate::params::BtParams;
use relation::schema::{ColumnType, Field};
use relation::{Column, ColumnBatch, ColumnData, Schema, StrCodes};
use rustc_hash::FxHashMap;
use std::sync::Arc;
use temporal::agg::AggExpr;
use temporal::expr::{col, lit, Expr, Func};
use temporal::plan::{Operator, Query};
use temporal::udo::WindowUdo;
use temporal::{EventBatch, TemporalError, Time};
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

    fn apply(&self, _window_end: Time, window: &EventBatch) -> temporal::Result<ColumnBatch> {
        // Assemble examples: rows sharing (time, user) belong to one
        // example, `(time, user) → (label, features)`; Label repeats on each
        // row. Names stay borrowed from the columns' dictionaries.
        let payload = window.payload();
        let column = |name: &str| -> temporal::Result<&Column> {
            Ok(payload.column(payload.schema().index_of(name)?))
        };
        let (users, labels) = (column("UserId")?, column("Label")?);
        let (keywords, counts) = (column("Keyword")?, column("Cnt")?);

        type Features<'a> = FxHashMap<&'a str, f64>;
        let mut examples: FxHashMap<(Time, &str), (u8, Features)> = FxHashMap::default();
        for (i, &start) in window.vt().iter().enumerate() {
            let user = str_at(users, i)
                .ok_or_else(|| TemporalError::Eval("UserId not a string".into()))?;
            let label = labels.value(i);
            let label = match label.as_long() {
                Some(l @ 0..=1) => l as u8,
                _ => {
                    return Err(TemporalError::Eval(format!(
                        "column Label: expected 0 or 1, got {label:?}"
                    )))
                }
            };
            let cnt = counts.value(i);
            let cnt = cnt.as_double().ok_or_else(|| {
                TemporalError::Eval(format!("column Cnt: expected a number, got {cnt:?}"))
            })?;
            let (example_label, features) = examples.entry((start, user)).or_default();
            *example_label = label;
            if let Some(kw) = str_at(keywords, i) {
                features.insert(kw, cnt);
            }
        }
        let mut data: Vec<_> = examples.into_iter().collect();
        data.sort_by(|a, b| a.0.cmp(&b.0));

        let sample = balance_by(&data, |(_, (label, _))| *label, &self.config);
        let features = sample
            .iter()
            .map(|(_, (label, features))| (*label, features.iter().map(|(&k, &v)| (k, v))));
        let (bias, mut weights) = fit(features, &self.config);
        weights.sort_by(|a, b| a.0.cmp(b.0));
        let names = std::iter::once(BIAS_FEATURE).chain(weights.iter().map(|w| w.0));
        let values = std::iter::once(bias).chain(weights.iter().map(|w| w.1));
        Ok(ColumnBatch::new(
            self.output_schema(window.schema())?,
            vec![
                Column::new(ColumnData::Str(StrCodes::from_strs(names)), None),
                Column::new(ColumnData::Double(values.collect()), None),
            ],
            weights.len() + 1,
        ))
    }
}

/// The string in row `i` of `column`, borrowed from its dictionary: `None`
/// for a null, or for a column that does not hold strings.
fn str_at(column: &Column, i: usize) -> Option<&str> {
    match column.data() {
        ColumnData::Str(codes) if column.is_valid(i) => Some(codes.get(i)),
        _ => None,
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
    use relation::{row, Row, Value};
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

    /// `LrUdo` over a one-event window whose `Label` and `Cnt` cells are
    /// the values given, in columns of their own types (a null in the
    /// declared one): the error message, if it fails.
    fn udo_on(label: Value, cnt: Value) -> Option<String> {
        let udo = LrUdo {
            config: LrConfig::default(),
        };
        let declared = train_rows_payload();
        let fields = (declared
            .fields()
            .iter()
            .zip([None, None, Some(&label), None, Some(&cnt)]))
        .map(|(f, cell)| {
            let ty = match cell {
                Some(Value::Bool(_)) => ColumnType::Bool,
                Some(Value::Int(_)) => ColumnType::Int,
                Some(Value::Long(_)) => ColumnType::Long,
                Some(Value::Double(_)) => ColumnType::Double,
                Some(Value::Str(_)) => ColumnType::Str,
                Some(Value::Null) | None => f.ty,
            };
            Field::new(f.name.clone(), ty)
        });
        let schema = Schema::new(fields.collect());
        let cells = vec![
            Value::str("u1"),
            Value::str("adA"),
            label,
            Value::str("hot"),
            cnt,
        ];
        let events = [Event::point(10, Row::new(cells))];
        let window = EventBatch::from_events(schema, &events).unwrap();
        let out = udo.apply(100, &window);
        out.err().map(|e| e.to_string())
    }

    #[test]
    fn the_udo_rejects_a_label_that_is_not_0_or_1() {
        assert_eq!(udo_on(Value::Int(1), Value::Long(2)), None);
        for bad in [
            Value::Int(2),
            Value::Int(-1),
            Value::Long(256),
            Value::Null,
            Value::str("1"),
        ] {
            let err = udo_on(bad.clone(), Value::Long(2)).expect("must fail");
            let want = format!("eval error: column Label: expected 0 or 1, got {bad:?}");
            assert_eq!(err, want);
        }
    }

    #[test]
    fn the_udo_rejects_a_count_that_is_not_a_number() {
        assert_eq!(udo_on(Value::Int(0), Value::Double(0.5)), None);
        for bad in [Value::Null, Value::str("3"), Value::Bool(true)] {
            let err = udo_on(Value::Int(0), bad.clone()).expect("must fail");
            let want = format!("eval error: column Cnt: expected a number, got {bad:?}");
            assert_eq!(err, want);
        }
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
