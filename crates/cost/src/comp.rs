//! The computation cost model: execution time of a (sub-)operation on a
//! device, keyed by op name + device (Sec. 4 "The computation cost model
//! provides the execution time of a (sub-)operation on a device, using the
//! operation's name and device as the key").
//!
//! Storage is dense: each canonical name is interned to an id once, and an
//! id's stats are a row indexed by device. Every row keeps its maximal mean
//! current, so [`CompCostModel::max_time`] — called once per op by every
//! rank computation — is a hash lookup, not a scan over all keys.

use fastt_cluster::DeviceId;
use fastt_graph::Graph;
use fastt_sim::RunTrace;
use std::borrow::Cow;
use std::collections::HashMap;

/// Canonicalizes an op name for cost-model keying: data-parallel replicas
/// (`rep3/conv1_1` → `conv1_1`) and split parts (`conv.part2` → `conv.part#`)
/// perform identical work, so their measurements share one key. This is what
/// makes the paper's bootstrap fast: "we use data parallelism as the starting
/// strategy … by which each operation is replicated to different GPUs and
/// their execution time on different devices is learned" (Sec. 4).
pub fn canonical_name(name: &str) -> String {
    canonical(name).into_owned()
}

/// [`canonical_name`] that borrows whenever it can: stripping a replica
/// prefix is a subslice, so only names with `.partN` indices allocate.
fn canonical(name: &str) -> Cow<'_, str> {
    let mut s = name;
    // strip a leading replica prefix
    if let Some(rest) = s.strip_prefix("rep") {
        if let Some(slash) = rest.find('/') {
            if rest[..slash].chars().all(|c| c.is_ascii_digit()) && slash > 0 {
                s = &rest[slash + 1..];
            }
        }
    }
    // merge part indices
    let mut out = String::new();
    let mut rest = s;
    let mut merged = false;
    while let Some(pos) = rest.find(".part") {
        out.push_str(&rest[..pos + 5]);
        rest = &rest[pos + 5..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            out.push('#');
            rest = &rest[digits..];
            merged = true;
        }
    }
    if !merged {
        return Cow::Borrowed(s);
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Running mean of observed execution times for one (op, device) key.
/// `count == 0` marks a key that has never been observed or seeded.
#[derive(Debug, Clone, Copy, Default)]
struct Stat {
    sum: f64,
    count: u64,
    /// True when the value is an analytic seed rather than a measurement;
    /// seeds may be replaced by later seeds, measurements may not.
    seeded: bool,
    /// Mean at the last [`CompCostModel::snapshot`]; 0 when the key was
    /// absent then, which [`CompCostModel::max_drift`] counts as full drift.
    snap: f64,
}

impl Stat {
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The stats of one canonical name on every device.
#[derive(Debug, Clone, Default)]
struct Row {
    /// Indexed by [`DeviceId::index`], grown on first write.
    stats: Vec<Stat>,
    /// Maximal mean over the present keys, recomputed on every write — a
    /// measurement replacing a larger seed can lower it.
    max: Option<f64>,
}

impl Row {
    fn stat_mut(&mut self, device: DeviceId) -> &mut Stat {
        let i = device.index();
        if i >= self.stats.len() {
            self.stats.resize(i + 1, Stat::default());
        }
        &mut self.stats[i]
    }

    fn refresh_max(&mut self) {
        self.max = self
            .stats
            .iter()
            .filter(|s| s.count > 0)
            .map(Stat::mean)
            .reduce(f64::max);
    }
}

/// One op's row of a [`CompCostModel`], from [`CompCostModel::times`].
#[derive(Debug, Clone, Copy)]
pub struct OpTimes<'a>(Option<&'a Row>);

impl OpTimes<'_> {
    /// Mean observed execution time on `device`, if any — the same answer
    /// as [`CompCostModel::get`].
    pub fn get(&self, device: DeviceId) -> Option<f64> {
        self.0?
            .stats
            .get(device.index())
            .filter(|s| s.count > 0)
            .map(Stat::mean)
    }
}

/// Profiled per-(op, device) execution times with running averages.
#[derive(Debug, Clone, Default)]
pub struct CompCostModel {
    /// Canonical name → index into `rows`.
    ids: HashMap<String, u32>,
    rows: Vec<Row>,
    /// Monotonic counter bumped on every real measurement; plan-cache
    /// fingerprints use it to detect that predictions may have moved.
    generation: u64,
}

impl CompCostModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    fn row(&self, name: &str) -> Option<&Row> {
        let id = *self.ids.get(canonical(name).as_ref())?;
        Some(&self.rows[id as usize])
    }

    /// The row for `name`, interning the canonical name on first use.
    fn row_mut(&mut self, name: &str) -> &mut Row {
        let key = canonical(name);
        let id = match self.ids.get(key.as_ref()) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.rows.len()).expect("op names fit in u32 ids");
                self.ids.insert(key.into_owned(), id);
                self.rows.push(Row::default());
                id
            }
        };
        &mut self.rows[id as usize]
    }

    /// Records one observed execution of `name` on `device`. The first real
    /// measurement discards any analytic seed for the key. Names are
    /// canonicalized (see [`canonical_name`]).
    ///
    /// Once a key has a few real measurements (≥ 3), new samples are
    /// winsorized to within 8x of the running mean: a straggler window or a
    /// faulty re-executed op then nudges the average instead of poisoning
    /// it, while genuine hardware drift (which arrives as a stream of
    /// consistent samples, not one spike) still moves the mean past the
    /// drift threshold.
    pub fn observe(&mut self, name: &str, device: DeviceId, secs: f64) {
        self.generation += 1;
        let row = self.row_mut(name);
        let s = row.stat_mut(device);
        if s.seeded {
            *s = Stat {
                snap: s.snap,
                ..Stat::default()
            };
        }
        let secs = if s.count >= 3 {
            let m = s.mean();
            if m > 0.0 {
                secs.clamp(m / 8.0, m * 8.0)
            } else {
                secs
            }
        } else {
            secs
        };
        s.sum += secs;
        s.count += 1;
        row.refresh_max();
    }

    /// Ingests every op record of a profiled iteration
    /// (the paper's `RunMetadata` consumption).
    pub fn update_from_trace(&mut self, graph: &Graph, trace: &RunTrace) {
        for r in &trace.op_records {
            let name = &graph.op_ref(r.op).name;
            self.observe(name, r.device, r.duration());
        }
    }

    /// Mean observed execution time of `name` on `device`, if any.
    pub fn get(&self, name: &str, device: DeviceId) -> Option<f64> {
        self.times(name).get(device)
    }

    /// `name`'s stats on every device, looked up once: a planner probing
    /// one op on many devices canonicalizes and hashes its name once.
    pub fn times(&self, name: &str) -> OpTimes<'_> {
        OpTimes(self.row(name))
    }

    /// Maximal mean execution time of `name` over all profiled devices —
    /// the `w_i` of the rank computation (Sec. 5.1).
    pub fn max_time(&self, name: &str) -> Option<f64> {
        self.row(name)?.max
    }

    /// Number of distinct (op, device) keys profiled.
    pub fn key_count(&self) -> usize {
        self.stats().count()
    }

    /// Every present (op, device) stat.
    fn stats(&self) -> impl Iterator<Item = &Stat> {
        self.rows
            .iter()
            .flat_map(|r| &r.stats)
            .filter(|s| s.count > 0)
    }

    /// Monotonic measurement generation: bumped once per [`observe`] call
    /// (including trace ingestion), never by [`seed`] — analytic priors do
    /// not invalidate cached plans.
    ///
    /// [`observe`]: CompCostModel::observe
    /// [`seed`]: CompCostModel::seed
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether every op of `graph` has at least one profiled device.
    pub fn covers(&self, graph: &Graph) -> bool {
        graph
            .iter_ops()
            .all(|(_, o)| self.max_time(&o.name).is_some())
    }

    /// Seeds an estimate for `name` on every device in `devices` (used to
    /// give freshly created sub-operations an analytic prior of
    /// `parent_time / n` before they have ever run; refined by profiling).
    ///
    /// A seed never overwrites real measurements, but a newer seed replaces
    /// an older one (split candidates with different part counts reuse
    /// sub-op names).
    pub fn seed(&mut self, name: &str, devices: &[DeviceId], secs: f64) {
        let row = self.row_mut(name);
        for &d in devices {
            let s = row.stat_mut(d);
            if s.count == 0 || s.seeded {
                *s = Stat {
                    sum: secs,
                    count: 1,
                    seeded: true,
                    snap: s.snap,
                };
            }
        }
        row.refresh_max();
    }

    /// Remembers the current means; [`CompCostModel::max_drift`] compares
    /// against them.
    pub fn snapshot(&mut self) {
        for s in self.rows.iter_mut().flat_map(|r| &mut r.stats) {
            s.snap = s.mean();
        }
    }

    /// Largest relative change of any key's mean since the last snapshot
    /// (keys unseen at snapshot time count as fully drifted). The paper
    /// finishes pre-training "when the average time of the same
    /// (sub-)operation(s) on the same device(s) does not vary much".
    pub fn max_drift(&self) -> f64 {
        self.stats()
            .map(|s| {
                if s.snap > 0.0 {
                    (s.mean() - s.snap).abs() / s.snap
                } else {
                    1.0
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn observe_and_average() {
        let mut m = CompCostModel::new();
        m.observe("conv", D0, 1.0);
        m.observe("conv", D0, 3.0);
        assert_eq!(m.get("conv", D0), Some(2.0));
        assert_eq!(m.get("conv", D1), None);
    }

    #[test]
    fn max_time_over_devices() {
        let mut m = CompCostModel::new();
        m.observe("conv", D0, 1.0);
        m.observe("conv", D1, 5.0);
        assert_eq!(m.max_time("conv"), Some(5.0));
        assert_eq!(m.max_time("missing"), None);
    }

    #[test]
    fn seed_does_not_overwrite_observations() {
        let mut m = CompCostModel::new();
        m.observe("x", D0, 2.0);
        m.seed("x", &[D0, D1], 9.0);
        assert_eq!(m.get("x", D0), Some(2.0));
        assert_eq!(m.get("x", D1), Some(9.0));
    }

    #[test]
    fn lookups_borrow_unless_parts_merge() {
        assert!(matches!(canonical("rep3/conv"), Cow::Borrowed("conv")));
        assert!(matches!(canonical("conv.partial"), Cow::Borrowed(_)));
        assert!(matches!(canonical("conv.part2"), Cow::Owned(_)));
    }

    #[test]
    fn drift_detection() {
        let mut m = CompCostModel::new();
        m.observe("a", D0, 1.0);
        m.snapshot();
        assert_eq!(m.max_drift(), 0.0);
        m.observe("a", D0, 1.0); // mean unchanged
        assert_eq!(m.max_drift(), 0.0);
        m.observe("a", D0, 7.0); // mean 3.0 → drift 2.0
        assert!(m.max_drift() > 1.9);
        // a brand-new key counts as full drift
        m.snapshot();
        m.observe("b", D0, 1.0);
        assert!(m.max_drift() >= 1.0);
    }

    #[test]
    fn winsorized_observe_bounds_straggler_spikes() {
        let mut m = CompCostModel::new();
        for _ in 0..4 {
            m.observe("conv", D0, 1.0);
        }
        // a 100x spike (op re-executed under faults) is clamped to 8x ...
        m.observe("conv", D0, 100.0);
        let after_spike = m.get("conv", D0).unwrap();
        assert!(
            (after_spike - (4.0 + 8.0) / 5.0).abs() < 1e-9,
            "mean {after_spike}"
        );
        // ... while early samples (count < 3) are taken at face value
        let mut fresh = CompCostModel::new();
        fresh.observe("x", D0, 1.0);
        fresh.observe("x", D0, 100.0);
        assert_eq!(fresh.get("x", D0), Some(50.5));
    }

    #[test]
    fn canonical_name_strips_replicas_and_part_indices() {
        assert_eq!(canonical_name("rep3/conv1_1"), "conv1_1");
        assert_eq!(canonical_name("rep12/grad/fc6"), "grad/fc6");
        assert_eq!(canonical_name("conv.part2"), "conv.part#");
        assert_eq!(canonical_name("rep0/conv.part7"), "conv.part#");
        assert_eq!(canonical_name("conv.part0.part1"), "conv.part#.part#");
        // names that merely resemble the patterns are left alone
        assert_eq!(canonical_name("repository/x"), "repository/x");
        assert_eq!(canonical_name("agg/apply/w"), "agg/apply/w");
        assert_eq!(canonical_name("conv.partial"), "conv.partial");
    }

    #[test]
    fn replicas_share_cost_entries() {
        let mut m = CompCostModel::new();
        m.observe("rep0/conv", D0, 2.0);
        assert_eq!(m.get("rep1/conv", D0), Some(2.0));
        assert_eq!(m.max_time("rep7/conv"), Some(2.0));
    }

    #[test]
    fn coverage_check() {
        use fastt_graph::{Graph, OpKind, Operation};
        let mut g = Graph::new();
        g.add_op(Operation::new("a", OpKind::Relu, [1])).unwrap();
        g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        let mut m = CompCostModel::new();
        m.observe("a", D0, 1.0);
        assert!(!m.covers(&g));
        m.observe("b", D1, 1.0);
        assert!(m.covers(&g));
    }
}
