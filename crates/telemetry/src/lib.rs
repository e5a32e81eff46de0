//! # fastt-telemetry
//!
//! Dependency-free observability substrate for the FastT reproduction:
//! a thread-safe structured-event bus with pluggable sinks, a metrics
//! registry (counters / gauges / log-linear histograms), a phase profiler,
//! and the minimal JSON machinery that backs them.
//!
//! The paper's workflow is driven by *inspectable* white-box decisions —
//! why a strategy was activated or rolled back, how far the cost models
//! drifted. This crate is how those decisions become data: the session,
//! the placement algorithms, the simulator, and the cost models all emit
//! [`Event`]s through a shared [`Collector`] when one is attached, and
//! stay zero-overhead when none is. Hot loops (DPOS placement, the
//! simulator's sends) record per-run summaries, never per-op events.
//!
//! # Examples
//!
//! ```
//! use fastt_telemetry::{jobj, Collector, MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new(1024));
//! let col = Collector::new().with_sink(sink.clone());
//! col.emit("demo.start", jobj! { "answer" => 42u64 });
//! col.metrics().inc("demo.events");
//!
//! let events = sink.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].kind, "demo.start");
//! assert_eq!(events[0].field("answer").as_u64(), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod event;
mod metrics;
mod profile;
mod sink;
mod slo;

pub use event::Event;
pub use json::Value;
pub use metrics::{Histogram, MetricValue, Registry};
pub use profile::{fmt_secs, PhaseGuard, ProfileEntry, Profiler, PATH_SEPARATOR};
pub use sink::{parse_jsonl, JsonlSink, MemorySink, NullSink, Sink};
pub use slo::{evaluate_slos, Slo, SloGrade, SloVerdict};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The shared half of a [`Collector`]: sequence counter, clock origin,
/// sinks, metrics, and profiler. Labeled views created with
/// [`Collector::labeled`] all point at one `Core`, so a fleet of per-job
/// collectors still produces a single totally-ordered event stream and a
/// single metrics registry.
struct Core {
    start: Instant,
    seq: AtomicU64,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    metrics: Registry,
    profiler: Profiler,
}

/// The event bus: stamps emitted events with a sequence number and a
/// relative timestamp, fans them out to every attached sink, and hosts the
/// process-wide [`Registry`] of metrics.
///
/// A `Collector` is usually shared as `Arc<Collector>`; all methods take
/// `&self` and are thread-safe. [`Collector::labeled`] derives a view that
/// shares the same sequence/sinks/metrics but stamps extra fields (e.g. a
/// job name) onto every event it emits.
pub struct Collector {
    core: Arc<Core>,
    labels: Vec<(String, Value)>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("events", &self.core.seq.load(Ordering::Relaxed))
            .field("sinks", &self.core.sinks.lock().unwrap().len())
            .field("labels", &self.labels.len())
            .finish()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector with no sinks (events are counted but go nowhere; the
    /// metrics registry still accumulates).
    pub fn new() -> Self {
        Collector {
            core: Arc::new(Core {
                start: Instant::now(),
                seq: AtomicU64::new(0),
                sinks: Mutex::new(Vec::new()),
                metrics: Registry::new(),
                profiler: Profiler::new(),
            }),
            labels: Vec::new(),
        }
    }

    /// Builder-style sink attachment. The sink is added to the shared core,
    /// so labeled views derived before or after this call all see it.
    pub fn with_sink<S: Sink + 'static>(self, sink: S) -> Self {
        self.core.sinks.lock().unwrap().push(Box::new(sink));
        self
    }

    /// A view onto the same event bus that stamps `key = value` onto every
    /// event it emits (after the event's own fields; an existing field with
    /// the same name wins). Sequence numbers, sinks, metrics, and the
    /// profiler are shared with the parent, so multi-job runs interleave
    /// into one totally-ordered stream. Labels accumulate across nested
    /// calls.
    pub fn labeled<V: Into<Value>>(&self, key: &str, value: V) -> Collector {
        let mut labels = self.labels.clone();
        labels.push((key.to_string(), value.into()));
        Collector {
            core: self.core.clone(),
            labels,
        }
    }

    /// The labels this view stamps onto emitted events (empty for the root
    /// collector).
    pub fn labels(&self) -> &[(String, Value)] {
        &self.labels
    }

    /// Emits one event to every sink. `fields` should be a
    /// [`Value::Obj`] (use [`jobj!`]). Labels from [`Collector::labeled`]
    /// are appended unless the event already carries a field of the same
    /// name.
    pub fn emit(&self, kind: &str, fields: Value) {
        let fields = if self.labels.is_empty() {
            fields
        } else if let Value::Obj(mut pairs) = fields {
            for (k, v) in &self.labels {
                if !pairs.iter().any(|(name, _)| name == k) {
                    pairs.push((k.clone(), v.clone()));
                }
            }
            Value::Obj(pairs)
        } else {
            fields
        };
        let ev = Event {
            seq: self.core.seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.core.start.elapsed().as_micros() as u64,
            kind: kind.to_string(),
            fields,
        };
        for s in self.core.sinks.lock().unwrap().iter() {
            s.record(&ev);
        }
    }

    /// Total events emitted so far (across every labeled view).
    pub fn events_emitted(&self) -> u64 {
        self.core.seq.load(Ordering::Relaxed)
    }

    /// The metrics registry (shared across every labeled view).
    pub fn metrics(&self) -> &Registry {
        &self.core.metrics
    }

    /// The per-run profile tree accumulated by [`Collector::phase`].
    pub fn profiler(&self) -> &Profiler {
        &self.core.profiler
    }

    /// Opens a nested profiling phase (see [`Profiler::enter`]): the
    /// returned guard rolls the phase's wall-clock time into the profile
    /// tree on drop. It emits no event and touches no histogram.
    pub fn phase(&self, name: &str) -> PhaseGuard<'_> {
        self.core.profiler.enter(name)
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for s in self.core.sinks.lock().unwrap().iter() {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn emit_stamps_monotonic_seq_and_time() {
        let sink = Arc::new(MemorySink::new(16));
        let col = Collector::new().with_sink(sink.clone());
        col.emit("a", jobj! {});
        col.emit("b", jobj! {});
        let evs = sink.events();
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert!(evs[1].t_us >= evs[0].t_us);
        assert_eq!(col.events_emitted(), 2);
    }

    #[test]
    fn fans_out_to_multiple_sinks() {
        let a = Arc::new(MemorySink::new(4));
        let b = Arc::new(MemorySink::new(4));
        let col = Collector::new()
            .with_sink(a.clone())
            .with_sink(b.clone())
            .with_sink(NullSink);
        col.emit("x", jobj! { "v" => 1u64 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn labeled_views_share_the_stream_and_stamp_fields() {
        let sink = Arc::new(MemorySink::new(16));
        let col = Collector::new().with_sink(sink.clone());
        let a = col.labeled("job", "alpha");
        let b = col.labeled("job", "beta");
        col.emit("root", jobj! {});
        a.emit("work", jobj! { "v" => 1u64 });
        b.emit("work", jobj! { "v" => 2u64, "job" => "override" });
        a.metrics().inc("n");
        b.metrics().inc("n");

        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        // One shared sequence across all views.
        assert_eq!((evs[0].seq, evs[1].seq, evs[2].seq), (0, 1, 2));
        assert!(evs[0].field("job").as_str().is_none());
        assert_eq!(evs[1].field("job").as_str(), Some("alpha"));
        // An explicit field of the same name wins over the label.
        assert_eq!(evs[2].field("job").as_str(), Some("override"));
        // Metrics registry is shared too.
        assert_eq!(col.metrics().get("n"), Some(MetricValue::Counter(2)));
        assert_eq!(col.events_emitted(), 3);
    }

    #[test]
    fn concurrent_emit_is_safe_and_lossless() {
        let sink = Arc::new(MemorySink::new(10_000));
        let col = Arc::new(Collector::new().with_sink(sink.clone()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let col = col.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    col.emit("t", jobj! { "thread" => t as u64, "i" => i as u64 });
                    col.metrics().inc("n");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 1000);
        assert_eq!(col.metrics().get("n"), Some(MetricValue::Counter(1000)));
        // seq numbers are unique
        let mut seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 1000);
    }
}
