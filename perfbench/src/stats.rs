//! Order statistics for timings and the output digest.

use mapreduce::Dfs;
use serde_json::Value;

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation
/// between closest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The figures the noise protocol prints for every timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: percentile(&s, 0.0),
            q1: percentile(&s, 25.0),
            median: percentile(&s, 50.0),
            q3: percentile(&s, 75.0),
            max: percentile(&s, 100.0),
        }
    }

    pub fn to_json(self) -> Value {
        Value::Object(vec![
            ("n".into(), Value::UInt(self.n as u64)),
            ("min".into(), Value::Float(self.min)),
            ("q1".into(), Value::Float(self.q1)),
            ("median".into(), Value::Float(self.median)),
            ("q3".into(), Value::Float(self.q3)),
            ("max".into(), Value::Float(self.max)),
        ])
    }
}

/// Digest of the named datasets' rows, extent by extent: equal digests
/// mean byte-identical stage outputs.
pub fn digest_datasets(dfs: &Dfs, names: &[String]) -> Result<u64, String> {
    let mut parts = Vec::with_capacity(names.len());
    for name in names {
        let ds = dfs.get(name).map_err(|e| e.to_string())?;
        parts.push(relation::hash::stable_hash(ds.partitions.as_ref()));
    }
    Ok(relation::hash::stable_hash(&parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::Dataset;
    use relation::row;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert_eq!(percentile(&s, 95.0), 4.8);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn summary_sorts_and_reports_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn digest_sees_rows_and_extent_boundaries() {
        let schema = adgen::unified_schema();
        let rows = vec![row![1i64, 1i32, "u1", "ad0"], row![2i64, 2i32, "u2", "kw"]];
        let put = |parts: Vec<Vec<relation::Row>>| {
            let dfs = Dfs::new();
            dfs.put("d", Dataset::partitioned(schema.clone(), parts))
                .unwrap();
            digest_datasets(&dfs, &["d".to_string()]).unwrap()
        };
        let whole = put(vec![rows.clone()]);
        assert_eq!(whole, put(vec![rows.clone()]));
        assert_ne!(
            whole,
            put(vec![vec![rows[0].clone()], vec![rows[1].clone()]])
        );
        assert_ne!(whole, put(vec![vec![rows[1].clone(), rows[0].clone()]]));
        assert!(digest_datasets(&Dfs::new(), &["missing".to_string()]).is_err());
    }
}
