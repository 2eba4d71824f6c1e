//! Log-bucketed histograms over `u64` observations.
//!
//! Bucketing is by *significant bits*: value `0` lands in bucket `0`, and
//! a value `v > 0` lands in bucket `64 - v.leading_zeros()`, i.e. bucket
//! `k` holds the half-open power-of-two range `[2^(k-1), 2^k)`. Two
//! properties the property tests pin down (and the exporters rely on):
//!
//! * **monotone** — `a <= b` implies `bucket_index(a) <= bucket_index(b)`,
//!   so cumulative bucket counts are a valid CDF;
//! * **merge-associative** (and commutative) — merging is element-wise
//!   addition of bucket counts plus min/max/sum/count folds, so a
//!   histogram built from shards equals the histogram of the
//!   concatenation, in any association order.

use aoci_json::Value;

/// Number of buckets: one for zero plus one per possible bit width.
pub const BUCKETS: usize = 65;

/// The bucket an observation falls into (see the module docs).
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive `(lo, hi)` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1 => (1, 1),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A fixed-shape log-bucketed histogram. Cheap to clone, deterministic to
/// serialize (buckets render sparsely, lowest index first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` (element-wise bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The non-empty buckets as `(index, count)`, lowest index first.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Smallest value `x` such that at least `q * count` observations fall
    /// in buckets whose upper bound is `<= bucket_bounds(bucket(x)).1` —
    /// i.e. the bucket-upper-bound approximation of the `q`-quantile.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Serializes to an `aoci-json` object (sparse buckets).
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("count".to_string(), Value::from(self.count)),
            ("sum".to_string(), Value::from(self.sum)),
            ("min".to_string(), self.min().map_or(Value::Null, Value::from)),
            ("max".to_string(), self.max().map_or(Value::Null, Value::from)),
            (
                "buckets".to_string(),
                Value::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(i, c)| {
                            Value::Arr(vec![Value::from(i as u64), Value::from(c)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_powers_land_in_distinct_buckets() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_cover_the_domain_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ended", i.wrapping_sub(1));
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
    }

    #[test]
    fn observe_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [3, 0, 700, 9] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 712);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(700));
        assert_eq!(h.mean(), Some(178.0));
        assert!(h.quantile(1.0) == Some(700));
    }

    #[test]
    fn merge_matches_concatenated_observation() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 5, 1000] {
            a.observe(v);
            all.observe(v);
        }
        for v in [0u64, 5, 1 << 40] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    /// Every field, written under its name; the texts are the parent
    /// commit's.
    #[test]
    fn to_value_is_the_committed_text() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, 1 << 40] {
            h.observe(v);
        }
        assert_eq!(aoci_json::to_string_pretty(&h.to_value()), EXPECTED_TEXT);
        assert_eq!(aoci_json::to_string_pretty(&Histogram::new().to_value()), EXPECTED_EMPTY);
    }

    const EXPECTED_TEXT: &str = r##"{
  "buckets": [
    [
      0,
      1
    ],
    [
      1,
      1
    ],
    [
      2,
      2
    ],
    [
      3,
      1
    ],
    [
      10,
      1
    ],
    [
      11,
      1
    ],
    [
      41,
      1
    ]
  ],
  "count": 8,
  "max": 1099511627776,
  "min": 0,
  "sum": 1099511629833
}"##;

    const EXPECTED_EMPTY: &str = r##"{
  "buckets": [],
  "count": 0,
  "max": null,
  "min": null,
  "sum": 0
}"##;
}
