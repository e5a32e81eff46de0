//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! The [`Tracer`] times every call it wraps, in wall-clock and in process
//! CPU seconds; only when tracing is on does it also keep a span (name,
//! start, end, parent, workload, job) in memory. The untraced and traced
//! runs therefore execute the same code, and the spans are written out
//! once, when the run ends.

use fastt_telemetry::Value;
use std::time::Instant;

/// CPU seconds the whole process has used: every thread, including the
/// planner threads that have already exited. Unlike wall-clock time it
/// does not grow while other processes hold the CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of this target, and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the process CPU clock of 64-bit Linux");

/// How long a call took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Secs {
    pub wall: f64,
    pub cpu: f64,
}

impl std::ops::AddAssign for Secs {
    fn add_assign(&mut self, o: Secs) {
        self.wall += o.wall;
        self.cpu += o.cpu;
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub workload: String,
    pub job: String,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::from(self.name.as_str())),
            ("start", Value::from(self.start)),
            ("end", Value::from(self.end)),
            (
                "parent",
                self.parent.map_or(Value::Null, |p| Value::from(p as u64)),
            ),
            ("workload", Value::from(self.workload.as_str())),
            ("job", Value::from(self.job.as_str())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Span> {
        Some(Span {
            name: v["name"].as_str()?.to_string(),
            start: v["start"].as_f64()?,
            end: v["end"].as_f64()?,
            parent: v["parent"].as_u64().map(|p| p as usize),
            workload: v["workload"].as_str()?.to_string(),
            job: v["job"].as_str()?.to_string(),
        })
    }
}

pub struct Tracer {
    recording: bool,
    t0: Instant,
    workload: String,
    job: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that only times.
    pub fn off() -> Tracer {
        Tracer::new(false, "")
    }

    /// A tracer that also records spans, labelled with `workload`.
    pub fn on(workload: &str) -> Tracer {
        Tracer::new(true, workload)
    }

    fn new(recording: bool, workload: &str) -> Tracer {
        Tracer {
            recording,
            t0: Instant::now(),
            workload: workload.to_string(),
            job: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Labels the spans that follow with `job`.
    pub fn set_job(&mut self, job: &str) {
        self.job = job.to_string();
    }

    /// Runs `f`, returning its result and how long it took; records a span
    /// named `name` when tracing is on. Spans opened inside `f` get this
    /// one as their parent.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Secs) {
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start: self.t0.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.open.last().copied(),
                workload: self.workload.clone(),
                job: self.job.clone(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let (t, cpu) = (Instant::now(), cpu_seconds());
        let out = f(self);
        let secs = Secs {
            wall: t.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - cpu,
        };
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end = self.t0.elapsed().as_secs_f64();
        }
        (out, secs)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.secs() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            workload: "w".into(),
            job: "j".into(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 5.0).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 2.5).abs() < 1e-12, "{st:?}");
        assert!((st[2] - 3.0).abs() < 1e-12, "{st:?}");
    }

    #[test]
    fn cpu_clock_counts_work_on_every_thread() {
        let spin = || {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 100 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let (_, secs) = Tracer::off().time("spin", |_| {
            std::thread::scope(|s| {
                s.spawn(spin);
                spin();
            })
        });
        // Two threads busy for 0.1 s each; allow for a loaded machine.
        assert!(secs.cpu > 0.1, "{secs:?}");
        assert!(secs.cpu < 10.0 * secs.wall, "{secs:?}");
    }

    #[test]
    fn tracer_nests_and_only_records_when_on() {
        let mut off = Tracer::off();
        let (v, secs) = off.time("outer", |t| t.time("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs.wall >= 0.0 && secs.cpu >= 0.0);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::on("w");
        on.set_job("j");
        on.time("outer", |t| t.time("inner", |_| ()));
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end <= spans[0].end);
        assert_eq!(Span::from_json(&spans[1].to_json()), Some(spans[1].clone()));
    }
}
