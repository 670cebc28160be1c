//! Sparse logistic regression (paper §IV-B.4).
//!
//! `y = 1 / (1 + e^-(w0 + wᵀx))`, trained by stochastic gradient descent
//! (one update per example, in a fresh shuffle each epoch) with L2
//! regularization over a *balanced* dataset: because CTR is typically
//! below 1%, the paper samples negatives to match positives, and then
//! calibrates raw predictions back to CTR estimates with a k-nearest
//! validation lookup ([`CtrCalibrator`]).
//!
//! There is one SGD loop (`fit`). It interns each example's features
//! once into `(dense id, value)` pairs, in the order the example yields
//! them, so every epoch reads and updates a dense weight vector instead of
//! hashing (and allocating) a feature name per example. The float
//! operations and their order are those of a name-keyed loop over the same
//! examples, so the model is bit for bit the same. [`train`] feeds it
//! [`Example`]s; the model-generation UDO
//! ([`crate::queries::model::LrUdo`]) feeds it examples assembled on names
//! borrowed from its events.

use crate::example::{Example, FeatureVector};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};
use rustc_hash::FxHashMap;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct LrConfig {
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Seed for negative sampling and shuffling.
    pub seed: u64,
    /// Negatives per positive in the balanced sample.
    pub negatives_per_positive: f64,
}

impl Default for LrConfig {
    fn default() -> Self {
        LrConfig {
            epochs: 40,
            learning_rate: 0.3,
            l2: 1e-3,
            seed: 17,
            negatives_per_positive: 1.0,
        }
    }
}

/// A trained model: intercept plus sparse weights.
#[derive(Debug, Clone, Default)]
pub struct LrModel {
    /// w0.
    pub bias: f64,
    /// Feature weights.
    pub weights: FxHashMap<String, f64>,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl LrModel {
    /// Raw model output in (0, 1) for a feature vector.
    pub fn predict(&self, features: &FeatureVector) -> f64 {
        let mut x = self.bias;
        for (k, v) in features {
            if let Some(w) = self.weights.get(k) {
                x += w * v;
            }
        }
        sigmoid(x)
    }

    /// Number of non-zero weights.
    pub fn dimensionality(&self) -> usize {
        self.weights.len()
    }
}

/// Balance the dataset by sampling negatives (paper: "we create a balanced
/// dataset by sampling the negative examples").
pub fn balance<'a>(examples: &'a [Example], config: &LrConfig) -> Vec<&'a Example> {
    balance_by(examples, |e| e.label, config)
}

/// [`balance`] over any example type, reading each one's label through
/// `label`.
pub(crate) fn balance_by<'a, T>(
    examples: &'a [T],
    label: impl Fn(&T) -> u8,
    config: &LrConfig,
) -> Vec<&'a T> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let positives: Vec<&T> = examples.iter().filter(|e| label(e) == 1).collect();
    let negatives: Vec<&T> = examples.iter().filter(|e| label(e) == 0).collect();
    let keep = ((positives.len() as f64 * config.negatives_per_positive).ceil() as usize)
        .min(negatives.len());
    let mut sampled: Vec<&T> = negatives.choose_multiple(&mut rng, keep).copied().collect();
    sampled.extend(positives);
    sampled.shuffle(&mut rng);
    sampled
}

/// Train a model on (already feature-selected) examples.
pub fn train(examples: &[Example], config: &LrConfig) -> LrModel {
    let data = balance(examples, config);
    let features = data.iter().map(|e| {
        let features = e.features.iter().map(|(k, v)| (k.as_str(), *v));
        (e.label, features)
    });
    let (bias, fitted) = fit(features, config);
    let mut weights = FxHashMap::default();
    for (feature, weight) in fitted {
        weights.insert(feature.to_string(), weight);
    }
    LrModel { bias, weights }
}

/// The SGD loop over a balanced sample, given as `(label, features)` per
/// example. Each example's features are interned once, in the order given,
/// into `(dense id, value)` pairs; every epoch then reads and updates a
/// dense weight vector with a seen flag (a feature no update has reached
/// yet has no weight, and adds nothing to a prediction). Returns the bias
/// and the weights in the order of their first update.
pub(crate) fn fit<'a, F>(
    data: impl IntoIterator<Item = (u8, F)>,
    config: &LrConfig,
) -> (f64, Vec<(&'a str, f64)>)
where
    F: IntoIterator<Item = (&'a str, f64)>,
{
    let mut ids: FxHashMap<&'a str, usize> = FxHashMap::default();
    let mut names: Vec<&'a str> = Vec::new();
    let (mut labels, mut bounds, mut features) = (Vec::new(), vec![0], Vec::new());
    for (label, example) in data {
        for (name, value) in example {
            let id = *ids.entry(name).or_insert_with(|| {
                names.push(name);
                names.len() - 1
            });
            features.push((id, value));
        }
        labels.push(f64::from(label));
        bounds.push(features.len());
    }

    let n = labels.len() as f64;
    let (rate, decay) = (config.learning_rate, config.learning_rate * config.l2);
    let mut bias = 0.0;
    let (mut weights, mut seen) = (vec![0.0; names.len()], vec![false; names.len()]);
    let mut updated = Vec::new();
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xABCD);
    let mut order: Vec<usize> = (0..labels.len()).collect();
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        for &i in &order {
            let example = &features[bounds[i]..bounds[i + 1]];
            let mut x = bias;
            for &(id, v) in example {
                if seen[id] {
                    x += weights[id] * v;
                }
            }
            let step = rate * (labels[i] - sigmoid(x));
            bias += step - decay * bias / n;
            for &(id, v) in example {
                if !seen[id] {
                    seen[id] = true;
                    updated.push(id);
                }
                weights[id] += step * v - decay * weights[id] / n;
            }
        }
    }
    let fitted = updated.into_iter().map(|id| (names[id], weights[id]));
    (bias, fitted.collect())
}

/// Calibrates balanced-model outputs back to CTR estimates: the predicted
/// value `y` is mapped to the positive fraction among the `k` validation
/// examples with the nearest predictions (paper §IV-B.4).
#[derive(Debug, Clone)]
pub struct CtrCalibrator {
    /// `(prediction, label)` sorted by prediction.
    scored: Vec<(f64, u8)>,
    k: usize,
}

impl CtrCalibrator {
    /// Build from a validation set.
    pub fn new(model: &LrModel, validation: &[Example], k: usize) -> Self {
        let mut scored: Vec<(f64, u8)> = validation
            .iter()
            .map(|e| (model.predict(&e.features), e.label))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        CtrCalibrator {
            scored,
            k: k.max(1),
        }
    }

    /// Estimated CTR for raw prediction `y`.
    pub fn ctr(&self, y: f64) -> f64 {
        if self.scored.is_empty() {
            return 0.0;
        }
        let idx = self
            .scored
            .partition_point(|(p, _)| *p < y)
            .min(self.scored.len() - 1);
        let half = self.k / 2;
        let lo = idx.saturating_sub(half);
        let hi = (lo + self.k).min(self.scored.len());
        let lo = hi.saturating_sub(self.k);
        let slice = &self.scored[lo..hi];
        slice.iter().filter(|(_, l)| *l == 1).count() as f64 / slice.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn example(label: u8, feats: &[(&str, f64)]) -> Example {
        Example {
            time: 0,
            user: "u".into(),
            ad: "ad".into(),
            label,
            features: feats.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// A separable dataset: clicks iff "good" feature present.
    fn separable(n: usize) -> Vec<Example> {
        let mut out = Vec::new();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..n {
            if rng.gen::<f64>() < 0.2 {
                out.push(example(1, &[("good", 1.0), ("noise", rng.gen())]));
            } else {
                out.push(example(0, &[("bad", 1.0), ("noise", rng.gen())]));
            }
        }
        out
    }

    /// The name-keyed SGD the interned loop replaced, kept as its oracle:
    /// one `weights` lookup per feature per prediction and one entry (and
    /// one name clone) per feature per update.
    fn oracle_train(examples: &[Example], config: &LrConfig) -> LrModel {
        let data = balance(examples, config);
        let mut model = LrModel::default();
        if data.is_empty() {
            return model;
        }
        let n = data.len() as f64;
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xABCD);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let e = data[i];
                let p = model.predict(&e.features);
                let err = e.label as f64 - p;
                let step = config.learning_rate * err;
                model.bias += step - config.learning_rate * config.l2 * model.bias / n;
                for (k, v) in &e.features {
                    let w = model.weights.entry(k.clone()).or_insert(0.0);
                    *w += step * v - config.learning_rate * config.l2 * *w / n;
                }
            }
        }
        model
    }

    /// Seeded random example sets over a small shared vocabulary: examples
    /// with no feature, zero and fractional counts, and a positive rate of
    /// `positive` (0 gives a set with no positives).
    fn random_examples(seed: u64, n: usize, positive: f64) -> Vec<Example> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = u8::from(rng.gen::<f64>() < positive);
                let width = rng.gen_range(0..6);
                let features: Vec<(String, f64)> = (0..width)
                    .map(|_| {
                        let name = format!("kw{}", rng.gen_range(0..12));
                        let value = match rng.gen_range(0..4) {
                            0 => 0.0,
                            1 => rng.gen_range(1..5) as f64,
                            _ => rng.gen::<f64>() * 3.0,
                        };
                        (name, value)
                    })
                    .collect();
                Example {
                    time: i as i64 / 3,
                    user: format!("u{}", i % 7),
                    ad: "ad".into(),
                    label,
                    features: features.into_iter().collect(),
                }
            })
            .collect()
    }

    /// The configurations the oracle comparisons run under.
    fn configs() -> Vec<LrConfig> {
        vec![
            LrConfig::default(),
            LrConfig {
                epochs: 0,
                ..Default::default()
            },
            LrConfig {
                epochs: 3,
                learning_rate: 1.7,
                l2: 0.2,
                seed: 99,
                negatives_per_positive: 2.5,
            },
        ]
    }

    fn bits(model: &LrModel) -> (u64, Vec<(String, u64)>) {
        let weights = model.weights.iter();
        let weights = weights.map(|(k, w)| (k.clone(), w.to_bits())).collect();
        (model.bias.to_bits(), weights)
    }

    #[test]
    fn the_interned_trainer_equals_the_name_keyed_one_bit_for_bit() {
        let mut sets = vec![Vec::new(), separable(60), graded(80)];
        for seed in 0..24 {
            let positive = [0.0, 0.1, 0.5][seed as usize % 3];
            sets.push(random_examples(seed, 5 + 3 * seed as usize, positive));
        }
        sets[3].push(example(1, &[]));
        for (s, data) in sets.iter().enumerate() {
            for config in configs() {
                let (got, want) = (train(data, &config), oracle_train(data, &config));
                // Same bias and weight bits, and — the map rebuilt in
                // first-update order — the same iteration order.
                assert_eq!(bits(&got), bits(&want), "set {s}, {config:?}");
                if config.epochs == 0 {
                    assert_eq!(got.dimensionality(), 0);
                }
            }
        }
    }

    /// How `LrUdo` assembled examples before it borrowed names: one
    /// `String`-keyed example per `(time, user)`, the last row's label.
    fn oracle_assemble(events: &[temporal::Event]) -> Vec<Example> {
        let mut examples: FxHashMap<(i64, String), Example> = FxHashMap::default();
        for e in events {
            let user = e.payload.get(0).as_str().unwrap().to_string();
            let entry = examples
                .entry((e.start(), user.clone()))
                .or_insert_with(|| Example {
                    time: e.start(),
                    user,
                    ad: String::new(),
                    label: 0,
                    features: FxHashMap::default(),
                });
            entry.label = e.payload.get(2).as_long().unwrap() as u8;
            if let (Some(kw), Some(cnt)) = (e.payload.get(3).as_str(), e.payload.get(4).as_double())
            {
                entry.features.insert(kw.to_string(), cnt);
            }
        }
        let mut data: Vec<Example> = examples.into_values().collect();
        data.sort_by(|a, b| (a.time, &a.user).cmp(&(b.time, &b.user)));
        data
    }

    /// `LrUdo::apply` over windows of random example sets — several
    /// sharing one `(time, user)`, some with a null keyword only —
    /// publishes the rows the name-keyed oracle trains from the examples as
    /// the UDO used to assemble them.
    #[test]
    fn the_udo_publishes_the_oracle_s_rows() {
        use crate::queries::model::{LrUdo, BIAS_FEATURE};
        use relation::schema::{ColumnType, Field};
        use relation::{Row, Schema, Value};
        use temporal::udo::WindowUdo;
        use temporal::{Event, EventBatch};
        // The training rows' schema, with counts that are doubles.
        let schema = Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("AdId", ColumnType::Str),
            Field::new("Label", ColumnType::Int),
            Field::new("Keyword", ColumnType::Str),
            Field::new("Cnt", ColumnType::Double),
        ]);
        for seed in 0..16 {
            let positive = [0.0, 0.3][seed as usize % 2];
            let mut events = Vec::new();
            for (i, e) in random_examples(100 + seed, 30, positive).iter().enumerate() {
                let (time, user) = (i as i64 / 4, Value::str(format!("u{}", i % 3)));
                let row = |kw: Value, cnt: f64| {
                    let label = Value::Int(i32::from(e.label));
                    let cells = [user.clone(), Value::str("ad"), label, kw];
                    Row::new(cells.into_iter().chain([Value::Double(cnt)]).collect())
                };
                if e.features.is_empty() {
                    events.push(Event::point(time, row(Value::Null, 1.0)));
                }
                for (kw, &cnt) in &e.features {
                    events.push(Event::point(time, row(Value::str(kw), cnt)));
                }
            }
            let assembled = oracle_assemble(&events);
            let window = EventBatch::from_events(schema.clone(), &events).unwrap();
            for config in configs() {
                let udo = LrUdo {
                    config: config.clone(),
                };
                let got = udo.apply(0, &window).unwrap().to_rows();
                let got: Vec<(String, u64)> = (got.iter())
                    .map(|r| {
                        let name = r.get(0).as_str().unwrap().to_string();
                        (name, r.get(1).as_double().unwrap().to_bits())
                    })
                    .collect();
                let model = oracle_train(&assembled, &config);
                let mut weights: Vec<(&String, &f64)> = model.weights.iter().collect();
                weights.sort_by(|a, b| a.0.cmp(b.0));
                let mut want = vec![(BIAS_FEATURE.to_string(), model.bias.to_bits())];
                want.extend(weights.into_iter().map(|(k, w)| (k.clone(), w.to_bits())));
                assert_eq!(got, want, "seed {seed}, {config:?}");
            }
        }
    }

    #[test]
    fn learns_separable_data() {
        let data = separable(500);
        let model = train(&data, &LrConfig::default());
        assert!(
            model.weights["good"] > 1.0,
            "good weight {:?}",
            model.weights["good"]
        );
        assert!(model.weights["bad"] < -1.0);
        let pos = model.predict(&example(1, &[("good", 1.0)]).features);
        let neg = model.predict(&example(0, &[("bad", 1.0)]).features);
        assert!(pos > 0.8, "positive prediction {pos}");
        assert!(neg < 0.2, "negative prediction {neg}");
    }

    #[test]
    fn balancing_downsamples_negatives() {
        let mut data = separable(0);
        for _ in 0..10 {
            data.push(example(1, &[("a", 1.0)]));
        }
        for _ in 0..990 {
            data.push(example(0, &[("b", 1.0)]));
        }
        let balanced = balance(&data, &LrConfig::default());
        let pos = balanced.iter().filter(|e| e.label == 1).count();
        let neg = balanced.iter().filter(|e| e.label == 0).count();
        assert_eq!(pos, 10);
        assert_eq!(neg, 10);
    }

    #[test]
    fn training_is_deterministic() {
        let data = separable(200);
        let a = train(&data, &LrConfig::default());
        let b = train(&data, &LrConfig::default());
        assert_eq!(a.bias, b.bias);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn empty_training_set_gives_null_model() {
        let model = train(&[], &LrConfig::default());
        assert_eq!(model.bias, 0.0);
        assert_eq!(model.dimensionality(), 0);
    }

    #[test]
    fn gradient_direction_check() {
        // Single positive example with one feature: weight must move up.
        let data = vec![example(1, &[("f", 1.0)]), example(0, &[("g", 1.0)])];
        let model = train(
            &data,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        assert!(model.weights["f"] > 0.0);
        assert!(model.weights["g"] < 0.0);
    }

    /// Graded data: click probability grows with the feature value, so
    /// predictions spread over (0, 1) instead of clustering at the ends.
    fn graded(n: usize) -> Vec<Example> {
        let mut rng = SmallRng::seed_from_u64(5);
        (0..n)
            .map(|i| {
                let v = (i % 10) as f64;
                let label = u8::from(rng.gen::<f64>() < v / 10.0);
                example(label, &[("x", v)])
            })
            .collect()
    }

    #[test]
    fn calibrator_recovers_monotone_ctr() {
        let data = graded(2000);
        let model = train(&data, &LrConfig::default());
        let cal = CtrCalibrator::new(&model, &data, 100);
        let strong = model.predict(&example(1, &[("x", 9.0)]).features);
        let weak = model.predict(&example(0, &[("x", 0.0)]).features);
        assert!(strong > weak);
        let high = cal.ctr(strong);
        let low = cal.ctr(weak);
        assert!(
            high > low + 0.3,
            "calibrated CTR must track true CTR: high {high} low {low}"
        );
        assert!(high > 0.6, "v=9 clicks ~90% of the time: {high}");
        assert!(low < 0.3, "v=0 never clicks: {low}");
    }
}
