//! Dataset statistics for the cost-based optimizer.
//!
//! TiMR's plan-annotation optimizer (paper §VI) needs, for each input
//! dataset, (a) row counts — to cost operators and exchanges — and (b)
//! per-column distinct counts — to estimate how many partitions a candidate
//! partitioning key yields and hence the parallel speedup. These are the same
//! statistics SCOPE's Cascades integration consumes.

use crate::row::Row;
use crate::schema::Schema;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// An equi-depth histogram over a numeric column: `bounds` holds the
/// upper edge of each bucket, each bucket covering an equal share of the
/// rows. Gives the optimizer range-predicate selectivities the way
/// SCOPE's Cascades integration consumes them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Ascending bucket upper bounds (length = bucket count).
    pub bounds: Vec<f64>,
}

impl Histogram {
    /// Build an equi-depth histogram with up to `buckets` buckets from
    /// numeric samples. Returns `None` for empty input.
    pub fn build(mut samples: Vec<f64>, buckets: usize) -> Option<Histogram> {
        if samples.is_empty() || buckets == 0 {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let buckets = buckets.min(n);
        let bounds = (1..=buckets)
            .map(|b| samples[(b * n / buckets).saturating_sub(1)])
            .collect();
        Some(Histogram { bounds })
    }

    /// Estimated fraction of rows with value `< x` (monotone in `x`;
    /// linear interpolation inside the straddled bucket).
    pub fn selectivity_lt(&self, x: f64) -> f64 {
        let b = self.bounds.len() as f64;
        let mut covered = 0.0;
        let mut lower = f64::NEG_INFINITY;
        for (i, &upper) in self.bounds.iter().enumerate() {
            if x > upper {
                covered = (i + 1) as f64;
                lower = upper;
                continue;
            }
            // x falls inside bucket i: interpolate.
            let span = (upper - lower).max(f64::MIN_POSITIVE);
            let frac = if lower.is_infinite() {
                1.0
            } else {
                ((x - lower) / span).clamp(0.0, 1.0)
            };
            return ((covered + frac) / b).clamp(0.0, 1.0);
        }
        1.0
    }
}

/// Statistics about one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Estimated number of distinct values.
    pub distinct: u64,
    /// Equi-depth histogram (numeric columns only).
    pub histogram: Option<Histogram>,
}

/// Statistics about a dataset.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Total row count.
    pub rows: u64,
    /// Average row width in bytes (for exchange-cost estimation).
    pub avg_row_width: f64,
    /// Per-column statistics.
    pub columns: Vec<ColumnStats>,
}

impl DatasetStats {
    /// Exact statistics computed in one streaming pass over rows, borrowed
    /// or owned — no materialized copy of the dataset is required. Fine at
    /// simulator scale; a production system would sample.
    pub fn compute<I>(schema: &Schema, rows: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Row>,
    {
        const HISTOGRAM_BUCKETS: usize = 32;
        let mut distinct: Vec<FxHashSet<crate::value::Value>> =
            (0..schema.len()).map(|_| FxHashSet::default()).collect();
        let mut numeric: Vec<Vec<f64>> = (0..schema.len()).map(|_| Vec::new()).collect();
        let mut width_sum = 0usize;
        let mut n = 0u64;
        for row in rows {
            let row = row.borrow();
            n += 1;
            width_sum += row.width();
            for (i, v) in row.values().iter().enumerate() {
                distinct[i].insert(v.clone());
                if let Some(x) = v.as_double() {
                    numeric[i].push(x);
                }
            }
        }
        DatasetStats {
            rows: n,
            avg_row_width: if n == 0 {
                0.0
            } else {
                width_sum as f64 / n as f64
            },
            columns: schema
                .fields()
                .iter()
                .zip(distinct)
                .zip(numeric)
                .map(|((f, set), samples)| ColumnStats {
                    name: f.name.clone(),
                    distinct: set.len() as u64,
                    // Histogram only when the column is (mostly) numeric.
                    histogram: if samples.len() as u64 * 2 >= n && n > 0 {
                        Histogram::build(samples, HISTOGRAM_BUCKETS)
                    } else {
                        None
                    },
                })
                .collect(),
        }
    }

    /// The histogram of `column`, if one was built.
    pub fn histogram_of(&self, column: &str) -> Option<&Histogram> {
        self.columns
            .iter()
            .find(|c| c.name == column)
            .and_then(|c| c.histogram.as_ref())
    }

    /// Distinct count of `column`, if known.
    pub fn distinct_of(&self, column: &str) -> Option<u64> {
        self.columns
            .iter()
            .find(|c| c.name == column)
            .map(|c| c.distinct)
    }

    /// Estimated number of distinct composite keys over `columns`:
    /// the product of per-column distinct counts, clamped by the row count
    /// (the standard independence assumption).
    pub fn distinct_of_key(&self, columns: &[String]) -> u64 {
        let mut product: u64 = 1;
        for c in columns {
            let d = self.distinct_of(c).unwrap_or(1).max(1);
            product = product.saturating_mul(d);
        }
        product.min(self.rows.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{ColumnType, Field};

    fn sample() -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Field::new("Time", ColumnType::Long),
            Field::new("UserId", ColumnType::Str),
            Field::new("Kw", ColumnType::Str),
        ]);
        let rows = vec![
            row![1i64, "u1", "a"],
            row![2i64, "u1", "b"],
            row![3i64, "u2", "a"],
            row![4i64, "u2", "a"],
        ];
        (schema, rows)
    }

    #[test]
    fn compute_counts_rows_and_distincts() {
        let (schema, rows) = sample();
        let stats = DatasetStats::compute(&schema, &rows);
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.distinct_of("UserId"), Some(2));
        assert_eq!(stats.distinct_of("Kw"), Some(2));
        assert_eq!(stats.distinct_of("Time"), Some(4));
        assert!(stats.avg_row_width > 0.0);
    }

    #[test]
    fn composite_key_estimate_clamps_to_row_count() {
        let (schema, rows) = sample();
        let stats = DatasetStats::compute(&schema, &rows);
        // 2 users x 2 keywords = 4, equals the row count clamp.
        assert_eq!(stats.distinct_of_key(&["UserId".into(), "Kw".into()]), 4);
        // Per-column estimate is untouched by the clamp.
        assert_eq!(stats.distinct_of_key(&["UserId".into()]), 2);
    }

    #[test]
    fn histogram_estimates_range_selectivity() {
        // Uniform 0..999: selectivity of `< x` should be ≈ x/1000.
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(samples, 32).unwrap();
        for (x, want) in [
            (0.0, 0.0),
            (250.0, 0.25),
            (500.0, 0.5),
            (999.0, 1.0),
            (5000.0, 1.0),
        ] {
            let got = h.selectivity_lt(x);
            assert!(
                (got - want).abs() < 0.05,
                "selectivity_lt({x}) = {got}, want ≈ {want}"
            );
        }
        // Monotone.
        let mut prev = -1.0;
        for x in (0..100).map(|i| i as f64 * 12.0) {
            let s = h.selectivity_lt(x);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn histograms_built_for_numeric_columns_only() {
        let (schema, rows) = sample();
        let stats = DatasetStats::compute(&schema, &rows);
        assert!(stats.histogram_of("Time").is_some());
        assert!(stats.histogram_of("UserId").is_none());
        assert!(Histogram::build(vec![], 8).is_none());
    }

    #[test]
    fn empty_dataset_stats() {
        let (schema, _) = sample();
        let stats = DatasetStats::compute(&schema, &[]);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.avg_row_width, 0.0);
        assert_eq!(stats.distinct_of_key(&["UserId".into()]), 1);
    }
}
