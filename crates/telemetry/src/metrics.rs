//! A small metrics registry: counters, gauges, and fixed-bucket histograms,
//! keyed by name.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default histogram bucket upper bounds (seconds): exponential from 1 µs
/// to 100 s — wide enough for op durations and strategy-calculation spans.
pub const DEFAULT_BUCKETS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// Fine-grained bucket bounds (seconds) starting at 10 ns, for latencies
/// that land sub-microsecond — small-graph planner placements collapse
/// into the first [`DEFAULT_BUCKETS`] bucket otherwise. Used for
/// `planner.latency` and the other profiling histograms.
pub const FINE_BUCKETS: [f64; 11] = [
    1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
];

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A fixed-bucket histogram snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds, ascending; an implicit +∞ bucket follows.
    pub bounds: Vec<f64>,
    /// Observation count per bound, plus the final overflow bucket
    /// (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`f64::INFINITY` for the overflow bucket, 0 when empty).
    pub fn quantile_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
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

    /// Records `v` into the histogram `name` with [`DEFAULT_BUCKETS`].
    pub fn observe(&self, name: &str, v: f64) {
        self.observe_with(name, v, &DEFAULT_BUCKETS);
    }

    /// Records `v` into the histogram `name`, creating it with the given
    /// bucket bounds if absent (bounds of an existing histogram are kept).
    pub fn observe_with(&self, name: &str, v: f64, bounds: &[f64]) {
        let mut m = self.inner.lock().expect("registry lock");
        match m.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            _ => {
                let mut h = Histogram::new(bounds);
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
                    ("bounds", Value::arr(h.bounds.clone())),
                    ("counts", Value::arr(h.counts.clone())),
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
        for v in [5e-7, 5e-4, 5e-4, 2.0, 1e9] {
            r.observe("lat", v);
        }
        let Some(MetricValue::Histogram(h)) = r.get("lat") else {
            panic!("expected histogram");
        };
        assert_eq!(h.count, 5);
        assert_eq!(h.counts[0], 1); // ≤1e-6
        assert_eq!(h.counts[3], 2); // ≤1e-3
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert!(h.mean() > 0.0);
        assert_eq!(h.quantile_bound(0.5), 1e-3);
        assert_eq!(h.quantile_bound(1.0), f64::INFINITY);
    }

    #[test]
    fn declared_bounds_survive_plain_observe() {
        let r = Registry::new();
        r.observe_with("lat", 5e-8, &FINE_BUCKETS);
        r.observe("lat", 5e-8); // sub-µs: first DEFAULT bucket, second FINE bucket
        let Some(MetricValue::Histogram(h)) = r.get("lat") else {
            panic!("expected histogram");
        };
        assert_eq!(h.bounds, FINE_BUCKETS.to_vec());
        assert_eq!(
            h.counts[1], 2,
            "lands in the ≤1e-7 bucket, not a 1 µs floor"
        );
        // other bounds on a later observation keep bounds and counts
        r.observe_with("lat", 5e-8, &DEFAULT_BUCKETS);
        let Some(MetricValue::Histogram(h)) = r.get("lat") else {
            panic!("expected histogram");
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.bounds.len(), FINE_BUCKETS.len());
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
    }
}
