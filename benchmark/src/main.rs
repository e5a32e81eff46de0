//! `benchmark`: the end-to-end benchmark of FastT.
//!
//! ```text
//! benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--spans FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run of one workload sets it up cold `SETUP_RUNS` times, then repeats
//! whole passes for `--seconds` (at least `MIN_PASSES`) and reports each
//! end-to-end metric's median: `setup_s` over the set-ups, the others over
//! the passes. Every set-up and pass runs in a fresh child
//! process of this binary, one at a time, so process-global memos and lazy
//! state never serve a later repeat, just as each real training job pays
//! them once. `--trace 1` instead runs one untraced pass, the same pass
//! with spans, and the per-layer calls, and reports the per-layer metrics.
//! The last line of standard output is the run's JSON result; `--out`
//! appends a record of it to a file that `compare` reads.

mod layers;
mod spec;
mod stats;
mod trace;
mod workload;

use fastt_telemetry::Value;
use spec::{Metric, Spec};
use stats::{median, spread, verdict};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{self_times, Secs, Span, Tracer};
use workload::{ratio, run_pass, set_up, Inputs, Workload};

#[cfg(test)]
mod tests;

const USAGE: &str = "usage:
  benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
  benchmark compare A.jsonl B.jsonl";

/// Cold set-ups per run. A pass sets up each session right after the
/// previous one trained, in a warm heap, so its set-ups are not counted.
const SETUP_RUNS: usize = 5;

/// Passes per run at least, so that repeats can be compared.
const MIN_PASSES: usize = 2;

/// Wall-clock numbers each pass reports next to the end-to-end metrics.
/// They are recorded but not gated: on a shared machine they move with
/// other processes' load (see the README).
const REPORTED: [&str; 2] = ["run_wall_s", "strategy_calc_s"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    res.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: 20.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "run" => o.trace = false,
            "trace" => o.trace = true,
            "--workload" => {
                let name = value()?;
                o.workloads =
                    vec![Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?];
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => o.out = Some(value()?.into()),
            "--spans" => o.spans = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// One workload's run, as printed and recorded.
struct RunResult {
    workload: Workload,
    seed: u64,
    trace: bool,
    attempted: u64,
    failures: Vec<String>,
    /// Every sample behind each metric, by metric name.
    samples: BTreeMap<String, Vec<f64>>,
    /// The metrics of `BENCHMARK.json` in order, with their reported value.
    metrics: Vec<(Metric, f64)>,
    details: Value,
    spans: Vec<Span>,
    passes: usize,
    secs: f64,
}

impl RunResult {
    fn new(workload: Workload, seed: u64, trace: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            trace,
            attempted: 0,
            failures: Vec::new(),
            samples: BTreeMap::new(),
            metrics: Vec::new(),
            details: Value::Null,
            spans: Vec::new(),
            passes: 0,
            secs: 0.0,
        }
    }

    /// Counts a child's attempts and failures.
    fn absorb(&mut self, child: &Value) {
        self.attempted += child["attempted"].as_u64().unwrap_or(0);
        for f in child["failures"].as_array().unwrap_or(&[]) {
            self.failures.push(f.as_str().unwrap_or("?").to_string());
        }
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    fn sample(&mut self, name: &str, v: Option<f64>) {
        if let Some(v) = v {
            self.samples.entry(name.to_string()).or_default().push(v);
        }
    }

    /// Reports each metric of `list` as the median of its samples.
    fn finish(&mut self, list: &[Metric]) {
        for m in list {
            let v = self.samples.get(&m.name).map_or(f64::NAN, |s| median(s));
            if !v.is_finite() {
                self.failures.push(format!("{} was not measured", m.name));
            }
            self.metrics.push((m.clone(), v));
        }
    }

    /// Takes the per-layer samples from the three children of a traced run.
    fn add_layers(&mut self, untraced: &Value, traced: &Value, layers: &Value, fleet: bool) {
        self.check(
            "traced pass differs from the untraced pass",
            traced["fingerprint"] == untraced["fingerprint"],
        );
        for (name, v) in layers["metrics"].as_object().unwrap_or(&[]) {
            self.sample(name, v.as_f64());
        }
        let c = &traced["counts"];
        let count = |k: &str| c[k].as_u64().unwrap_or(0);
        for (name, key) in [
            ("session.rounds", "rounds"),
            ("session.activations", "activations"),
            ("session.rollbacks", "rollbacks"),
            ("fleet.preemptions", "preemptions"),
            ("fleet.ticks", "ticks"),
            ("fleet.job_iters", "job_iters"),
        ] {
            self.sample(name, Some(count(key) as f64));
        }
        let (act, rb) = (count("activations"), count("rollbacks"));
        self.sample("session.activation_rate", Some(ratio(act, act + rb)));
        if fleet {
            // The fleet's own admissions, not the layer run's admission pair.
            let (hits, misses) = (count("cache_hits"), count("cache_misses"));
            self.samples.remove("fleet.cache_hit_rate");
            self.sample("fleet.cache_hit_rate", Some(ratio(hits, hits + misses)));
        }
        self.sample(
            "trace_overhead",
            traced["run_cpu_s"]
                .as_f64()
                .zip(untraced["run_cpu_s"].as_f64())
                .map(|(t, u)| t / u),
        );
        self.details = untraced["details"].clone();
        self.passes = 2;
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn result_json(&self) -> Value {
        Value::obj([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted.max(1))),
            ("failed", Value::from(self.failures.len() as u64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.clone(),
                                Value::obj([
                                    ("value", Value::from(*v)),
                                    ("unit", Value::from(m.unit.as_str())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn record_json(&self) -> Value {
        Value::obj([
            ("workload", Value::from(self.workload.name())),
            ("seed", Value::from(self.seed)),
            ("trace", Value::from(self.trace)),
            ("result", self.result_json()),
            (
                "samples",
                Value::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::arr(v.iter().copied())))
                        .collect(),
                ),
            ),
            ("details", self.details.clone()),
        ])
    }

    fn print(&self) {
        println!(
            "== {} (seed {}, {}): {} passes in {:.1} s ==",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.passes,
            self.secs
        );
        let line = |name: &str, unit: &str, s: &[f64]| {
            let (lo, hi) = s
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
                    (a.min(x), b.max(x))
                });
            println!(
                "  {name:<26} {:>14.6} {unit:<9} median of {}, min {lo:.6}, max {hi:.6}",
                median(s),
                s.len(),
            );
        };
        for (m, _) in &self.metrics {
            line(
                &m.name,
                &m.unit,
                self.samples.get(&m.name).map_or(&[], Vec::as_slice),
            );
        }
        for (name, s) in &self.samples {
            if !self.metrics.iter().any(|(m, _)| &m.name == name) {
                line(name, "s (reported, not gated)", s);
            }
        }
        for d in self.details.as_array().unwrap_or(&[]) {
            println!("  {d}");
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let spec = Spec::load();
    let mut ok = true;
    let mut spans = Vec::new();
    for &w in &o.workloads {
        let r = if o.trace {
            trace_run(w, o.seed, &spec)
        } else {
            measure_run(w, o.seed, o.seconds, &spec)
        };
        r.print();
        println!("{}", r.result_json());
        if let Some(path) = &o.out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(f, "{}", r.record_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        ok &= r.correct();
        spans.push((w, r.spans));
    }
    if let Some(path) = &o.spans {
        std::fs::write(path, format!("{}\n", spans_json(o.seed, &spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `kind` of `workload` in a fresh child process and returns its JSON
/// line and its start time relative to `since`.
fn spawn(kind: &str, w: Workload, seed: u64, since: Instant) -> Result<(Value, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let offset = since.elapsed().as_secs_f64();
    let out = Command::new(exe)
        .args(["child", kind, w.name(), &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{kind} child of {} exited with {}",
            w.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let v = Value::parse(line).map_err(|e| format!("{kind} child printed bad JSON: {e}"))?;
    Ok((v, offset))
}

fn measure_run(w: Workload, seed: u64, seconds: f64, spec: &Spec) -> RunResult {
    let start = Instant::now();
    let mut r = RunResult::new(w, seed, false);
    for _ in 0..SETUP_RUNS {
        match spawn("setup", w, seed, start) {
            Ok((v, _)) => {
                r.absorb(&v);
                for k in ["setup_s", "setup_wall_s"] {
                    r.sample(k, v[k].as_f64());
                }
            }
            Err(e) => r.check(&e, false),
        }
    }
    let mut passes: Vec<Value> = Vec::new();
    let mut last = 0.0;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        match spawn("pass", w, seed, start) {
            Ok((v, _)) => passes.push(v),
            Err(e) => {
                r.check(&e, false);
                break;
            }
        }
        last = t.elapsed().as_secs_f64();
    }
    for p in &passes {
        r.absorb(p);
        for m in &spec.end_to_end {
            r.sample(&m.name, p[m.name.as_str()].as_f64());
        }
        for k in REPORTED {
            r.sample(k, p[k].as_f64());
        }
    }
    if let Some((first, rest)) = passes.split_first() {
        for p in rest {
            r.check(
                "simulated results differ between repeats",
                p["fingerprint"] == first["fingerprint"],
            );
        }
        r.details = first["details"].clone();
    }
    r.passes = passes.len();
    r.finish(&spec.end_to_end);
    r.secs = start.elapsed().as_secs_f64();
    r
}

fn trace_run(w: Workload, seed: u64, spec: &Spec) -> RunResult {
    let start = Instant::now();
    let mut r = RunResult::new(w, seed, true);
    let mut children = Vec::new();
    for kind in ["pass", "traced", "layers"] {
        match spawn(kind, w, seed, start) {
            Ok((v, offset)) => {
                r.absorb(&v);
                children.push((v, offset));
            }
            Err(e) => r.check(&e, false),
        }
    }
    if let [(untraced, _), (traced, _), (layers, _)] = &children[..] {
        r.add_layers(untraced, traced, layers, w == Workload::Fleet);
    }
    for (v, offset) in &children {
        let base = r.spans.len();
        for s in v["spans"].as_array().unwrap_or(&[]) {
            if let Some(mut s) = Span::from_json(s) {
                s.start += offset;
                s.end += offset;
                s.parent = s.parent.map(|p| p + base);
                r.spans.push(s);
            }
        }
    }
    r.finish(&spec.per_layer);
    r.secs = start.elapsed().as_secs_f64();
    r
}

/// The spans of every traced workload, plus each span name's total and
/// self time.
fn spans_json(seed: u64, runs: &[(Workload, Vec<Span>)]) -> Value {
    let mut all = Vec::new();
    let mut summary = Vec::new();
    for (w, spans) in runs {
        let base = all.len();
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, self_s) in spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name.as_str()).or_default();
            *e = (e.0 + 1, e.1 + s.secs(), e.2 + self_s);
            let mut s = s.clone();
            s.parent = s.parent.map(|p| p + base);
            all.push(s.to_json());
        }
        for (name, (count, total, self_s)) in by_name {
            summary.push(Value::obj([
                ("workload", Value::from(w.name())),
                ("name", Value::from(name)),
                ("count", Value::from(count)),
                ("total_s", Value::from(total)),
                ("self_s", Value::from(self_s)),
            ]));
        }
    }
    Value::obj([
        ("seed", Value::from(seed)),
        ("summary", Value::Arr(summary)),
        ("spans", Value::Arr(all)),
    ])
}

/// The child side: runs one set-up, pass, traced pass or layer run and
/// prints it as one JSON line.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let [kind, name, seed] = args else {
        return Err("child needs KIND WORKLOAD SEED".into());
    };
    let w = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    println!("{}", child_json(kind, w.name(), &w.inputs(), seed)?);
    Ok(ExitCode::SUCCESS)
}

fn child_json(kind: &str, workload: &str, inputs: &Inputs, seed: u64) -> Result<Value, String> {
    let with_spans = |mut v: Value, tr: Tracer| {
        if let Value::Obj(fields) = &mut v {
            let spans = tr.into_spans().iter().map(Span::to_json).collect();
            fields.push(("spans".into(), Value::Arr(spans)));
        }
        v
    };
    Ok(match kind {
        "setup" => {
            let (secs, failures) = match set_up(inputs, seed) {
                Ok(s) => (s, Vec::new()),
                Err(e) => (
                    Secs {
                        wall: f64::NAN,
                        cpu: f64::NAN,
                    },
                    vec![e],
                ),
            };
            Value::obj([
                ("setup_s", Value::from(secs.cpu)),
                ("setup_wall_s", Value::from(secs.wall)),
                ("attempted", Value::from(1u64)),
                ("failures", Value::arr(failures)),
            ])
        }
        "pass" => run_pass(inputs, seed, &mut Tracer::off()).to_json(),
        "traced" => {
            let mut tr = Tracer::on(workload);
            let pass = run_pass(inputs, seed, &mut tr);
            with_spans(pass.to_json(), tr)
        }
        "layers" => {
            let mut tr = Tracer::on(workload);
            let l = layers::run(inputs, seed, &mut tr);
            let metrics = l
                .metrics()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Value::from(v)))
                .collect();
            let v = Value::obj([
                ("metrics", Value::Obj(metrics)),
                ("attempted", Value::from(l.units + l.failures.len() as u64)),
                ("failures", Value::arr(l.failures)),
            ]);
            with_spans(v, tr)
        }
        other => return Err(format!("unknown child kind `{other}`")),
    })
}

/// Compares two files of `--out` records, one row per workload and
/// end-to-end metric, with the bounds of `BENCHMARK.json`.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs two record files".into());
    };
    let spec = Spec::load();
    let (ra, rb) = (read_records(a)?, read_records(b)?);
    println!("| workload | metric | A median | B median | change | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&ra, w, &m.name), values(&rb, w, &m.name));
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "| {w} | {} | {ma:.6} | {mb:.6} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                m.name,
                (mb / ma - 1.0) * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                m.bound * 100.0,
                verdict(&va, &vb, m.bound, m.lower_is_better).label()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn read_records(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Value::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// The untraced runs' values of `metric` on `workload`.
fn values(records: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r["workload"] == workload && r["trace"].as_bool() == Some(false))
        .filter_map(|r| r["result"]["metrics"][metric]["value"].as_f64())
        .collect()
}
