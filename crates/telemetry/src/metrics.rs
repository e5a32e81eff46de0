//! A small metrics registry: counters, gauges, and log-linear histograms,
//! keyed by name.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Histogram buckets split every power of two into `2^SUB_BITS` equal
/// linear sub-buckets, so a bucket's width is at most 1/32 of its lower
/// edge.
const SUB_BITS: u32 = 5;
const SUBS: u16 = 1 << SUB_BITS;
/// The lowest bucket edge is `2^MIN_EXP` (≈ 0.93 ns); smaller values land
/// in the zero bucket.
const MIN_EXP: i32 = -30;
/// The highest bucket ends at `2^MAX_EXP` (≈ 4.6 h); larger values land in
/// the overflow bucket.
const MAX_EXP: i32 = 14;
/// Index of the overflow bucket; index 0 is the zero bucket.
const OVERFLOW: u16 = 1 + (MAX_EXP - MIN_EXP) as u16 * SUBS;

/// The bucket holding `v` (0 for zero, negative and sub-`2^MIN_EXP`
/// values); `v` is not NaN.
fn bucket_of(v: f64) -> u16 {
    if v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        0
    } else if exp >= MAX_EXP {
        OVERFLOW
    } else {
        let sub = (bits >> (52 - SUB_BITS)) as u16 & (SUBS - 1);
        1 + (exp - MIN_EXP) as u16 * SUBS + sub
    }
}

/// Lower and upper edge of bucket `i`. The zero bucket reads as `[0, 0]`
/// and the overflow bucket's upper edge is +∞.
fn bucket_edges(i: u16) -> (f64, f64) {
    if i == 0 {
        return (0.0, 0.0);
    }
    if i == OVERFLOW {
        return (2f64.powi(MAX_EXP), f64::INFINITY);
    }
    let (octave, sub) = ((i - 1) / SUBS, (i - 1) % SUBS);
    let base = 2f64.powi(MIN_EXP + i32::from(octave));
    let step = base / f64::from(SUBS);
    (
        base + f64::from(sub) * step,
        base + f64::from(sub + 1) * step,
    )
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A log-linear histogram: a zero bucket, 32 linear buckets per power of
/// two from 2⁻³⁰ to 2¹⁴ (≈ 1 ns to 4.6 h in seconds), and an overflow
/// bucket. Only occupied buckets are stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observation count per occupied bucket index.
    counts: BTreeMap<u16, u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (+∞ when empty).
    pub min: f64,
    /// Largest observed value (−∞ when empty).
    pub max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records `v`; NaN is ignored.
    fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        *self.counts.entry(bucket_of(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (0 when empty): linear interpolation inside the
    /// bucket that holds the nearest-rank observation, kept within the
    /// observed range. For values from 2⁻³⁰ to 2¹⁴ the result is within
    /// 1/32 (≈ 3.1%) of the nearest-rank value; the zero bucket reads as 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let target = (rank.ceil() as u64).max(1);
        let mut seen = 0;
        for (&i, &c) in &self.counts {
            if seen + c >= target {
                let (lo, hi) = bucket_edges(i);
                let hi = hi.min(self.max);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + frac * (hi - lo)).max(self.min).min(self.max);
            }
            seen += c;
        }
        self.max
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last set value.
    Gauge(f64),
    /// Distribution snapshot.
    Histogram(Histogram),
}

/// Thread-safe registry of named metrics.
///
/// Updates are typed by method; updating an existing name with a different
/// type replaces the metric (telemetry must never panic the workload).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` (creating it at 0).
    pub fn add(&self, name: &str, n: u64) {
        let mut m = self.inner.lock().expect("registry lock");
        match m.get_mut(name) {
            Some(Metric::Counter(c)) => *c += n,
            _ => {
                m.insert(name.to_string(), Metric::Counter(n));
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.inner
            .lock()
            .expect("registry lock")
            .insert(name.to_string(), Metric::Gauge(v));
    }

    /// Records `v` into the histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        let mut m = self.inner.lock().expect("registry lock");
        match m.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            _ => {
                let mut h = Histogram::new();
                h.observe(v);
                m.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Reads one metric.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.inner
            .lock()
            .expect("registry lock")
            .get(name)
            .map(|m| match m {
                Metric::Counter(c) => MetricValue::Counter(*c),
                Metric::Gauge(g) => MetricValue::Gauge(*g),
                Metric::Histogram(h) => MetricValue::Histogram(h.clone()),
            })
    }

    /// Reads every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.inner
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(*c),
                    Metric::Gauge(g) => MetricValue::Gauge(*g),
                    Metric::Histogram(h) => MetricValue::Histogram(h.clone()),
                };
                (k.clone(), v)
            })
            .collect()
    }

    /// The whole registry as one JSON object (for dumps and the report
    /// binary).
    pub fn to_json(&self) -> Value {
        Value::obj(self.snapshot().into_iter().map(|(k, v)| {
            let rendered = match v {
                MetricValue::Counter(c) => Value::obj([("counter", Value::from(c))]),
                MetricValue::Gauge(g) => Value::obj([("gauge", Value::from(g))]),
                MetricValue::Histogram(h) => Value::obj([
                    ("count", Value::from(h.count)),
                    ("sum", Value::from(h.sum)),
                    ("mean", Value::from(h.mean())),
                    ("min", Value::from(h.min)),
                    ("max", Value::from(h.max)),
                    ("p50", Value::from(h.quantile(0.5))),
                    ("p95", Value::from(h.quantile(0.95))),
                    ("p99", Value::from(h.quantile(0.99))),
                ]),
            };
            (k, rendered)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.inc("a");
        r.add("a", 4);
        r.inc("b");
        assert_eq!(r.get("a"), Some(MetricValue::Counter(5)));
        assert_eq!(r.get("b"), Some(MetricValue::Counter(1)));
        assert_eq!(r.get("c"), None);
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = Registry::new();
        r.set_gauge("mape", 0.5);
        r.set_gauge("mape", 0.25);
        assert_eq!(r.get("mape"), Some(MetricValue::Gauge(0.25)));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let r = Registry::new();
        for v in [0.0, 5e-4, 5e-4, 2.0, 1e9] {
            r.observe("lat", v);
        }
        r.observe("lat", f64::NAN); // ignored
        let Some(MetricValue::Histogram(h)) = r.get("lat") else {
            panic!("expected histogram");
        };
        assert_eq!(h.count, 5);
        assert_eq!((h.min, h.max), (0.0, 1e9));
        let buckets: Vec<(f64, u64)> = h
            .counts
            .iter()
            .map(|(&i, &c)| (bucket_edges(i).0, c))
            .collect();
        assert_eq!(buckets.len(), 4, "zero, 5e-4 (twice), 2.0, overflow");
        assert_eq!(buckets[0], (0.0, 1), "zero bucket");
        assert_eq!(buckets[1].1, 2);
        assert!(buckets[1].0 <= 5e-4 && 5e-4 < buckets[1].0 * (1.0 + 1.0 / 32.0));
        assert_eq!(buckets[2], (2.0, 1), "powers of two open a bucket");
        assert_eq!(buckets[3], (2f64.powi(14), 1), "overflow bucket");
        assert!((h.mean() - (1e9 + 2.001) / 5.0).abs() < 1e-3);
        assert_eq!(h.quantile(0.0), 0.0);
        assert!((h.quantile(0.5) - 5e-4).abs() <= 5e-4 / 32.0);
        assert_eq!(h.quantile(1.0), 1e9);
    }

    #[test]
    fn quantile_error_is_within_five_percent() {
        // Seeded log-uniform values over 1e-8..1e3 s, plus zeros.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut values: Vec<f64> = (0..20_000)
            .map(|_| 10f64.powf(-8.0 + 11.0 * uniform()))
            .collect();
        values.extend([0.0; 100]);
        let r = Registry::new();
        for &v in &values {
            r.observe("v", v);
        }
        let Some(MetricValue::Histogram(h)) = r.get("v") else {
            panic!("expected histogram");
        };
        values.sort_by(f64::total_cmp);
        for i in 0..=1000 {
            let q = f64::from(i) / 1000.0;
            let k = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[k - 1];
            let got = h.quantile(q);
            if exact == 0.0 {
                assert_eq!(got, 0.0, "q={q}");
            } else {
                let err = (got - exact).abs() / exact;
                assert!(err <= 0.05, "q={q}: {got} vs {exact} ({err:.4})");
            }
        }
    }

    #[test]
    fn type_conflicts_replace_without_panicking() {
        let r = Registry::new();
        r.inc("x");
        r.set_gauge("x", 1.5);
        assert_eq!(r.get("x"), Some(MetricValue::Gauge(1.5)));
    }

    #[test]
    fn snapshot_sorted_and_json_renders() {
        let r = Registry::new();
        r.inc("b.count");
        r.set_gauge("a.gauge", 2.0);
        r.observe("c.hist", 0.01);
        let snap = r.snapshot();
        assert_eq!(snap[0].0, "a.gauge");
        assert_eq!(snap[2].0, "c.hist");
        let json = r.to_json().to_string();
        let v = Value::parse(&json).unwrap();
        assert_eq!(v["b.count"]["counter"].as_u64(), Some(1));
        assert_eq!(v["c.hist"]["count"].as_u64(), Some(1));
        assert_eq!(v["c.hist"]["p95"].as_f64(), Some(0.01));
    }
}
