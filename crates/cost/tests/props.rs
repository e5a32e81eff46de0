//! Property tests for the cost models.
//!
//! `dense_model_matches_reference` drives seeded random
//! interleavings of `observe`/`seed`/`snapshot` through the dense
//! [`CompCostModel`] and through a naive `(name, device)`-keyed reference,
//! and requires every query to agree bit for bit.
//! `resolved_comm_prices_match_reference` does the same for the
//! communication model's resolved pairs and `c̄` lines, against a
//! reference that walks routes and picks lines per call. The rest check
//! name canonicalization, least squares and the communication model on
//! seeded inputs from the same generator.

use fastt_cluster::{DeviceId, LinkClass, Topology};
use fastt_cost::{canonical_name, CommCostModel, CompCostModel, LinReg};
use fastt_graph::{Graph, OpKind, Operation};
use std::collections::HashMap;

/// The computation cost model as its documentation specifies it: one
/// running mean per `(canonical name, device)` key and a linear scan for
/// the maximum.
#[derive(Default)]
struct Reference {
    /// `(sum, count, seeded)` per key.
    stats: HashMap<(String, DeviceId), (f64, u64, bool)>,
    snapshot: HashMap<(String, DeviceId), f64>,
}

/// Strips one `repK/` prefix, if the name has one.
fn strip_replica(name: &str) -> &str {
    match name.split_once('/') {
        Some((rep, rest))
            if rep.len() > 3
                && rep.starts_with("rep")
                && rep[3..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            rest
        }
        _ => name,
    }
}

/// Strips one `repK/` prefix and rewrites every `.partN` to `.part#`.
fn reference_canonical(name: &str) -> String {
    let name = strip_replica(name);
    let mut out = String::new();
    let mut pieces = name.split(".part");
    out.push_str(pieces.next().unwrap_or(""));
    for piece in pieces {
        out.push_str(".part");
        let digits = piece.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            out.push('#');
        }
        out.push_str(&piece[digits..]);
    }
    out
}

fn mean((sum, count, _): (f64, u64, bool)) -> f64 {
    sum / count as f64
}

impl Reference {
    fn observe(&mut self, name: &str, d: DeviceId, secs: f64) {
        let s = self
            .stats
            .entry((reference_canonical(name), d))
            .or_insert((0.0, 0, false));
        if s.2 {
            *s = (0.0, 0, false);
        }
        let secs = if s.1 >= 3 {
            let m = mean(*s);
            if m > 0.0 {
                secs.clamp(m / 8.0, m * 8.0)
            } else {
                secs
            }
        } else {
            secs
        };
        s.0 += secs;
        s.1 += 1;
    }

    fn seed(&mut self, name: &str, devices: &[DeviceId], secs: f64) {
        for &d in devices {
            let s = self
                .stats
                .entry((reference_canonical(name), d))
                .or_insert((0.0, 0, false));
            if s.1 == 0 || s.2 {
                *s = (secs, 1, true);
            }
        }
    }

    fn get(&self, name: &str, d: DeviceId) -> Option<f64> {
        self.stats
            .get(&(reference_canonical(name), d))
            .map(|&s| mean(s))
    }

    fn max_time(&self, name: &str) -> Option<f64> {
        let key = reference_canonical(name);
        self.stats
            .iter()
            .filter(|((n, _), _)| *n == key)
            .map(|(_, &s)| mean(s))
            .reduce(f64::max)
    }

    fn snapshot(&mut self) {
        self.snapshot = self
            .stats
            .iter()
            .map(|(k, &s)| (k.clone(), mean(s)))
            .collect();
    }

    fn max_drift(&self) -> f64 {
        self.stats
            .iter()
            .map(|(k, &s)| match self.snapshot.get(k) {
                Some(&then) if then > 0.0 => (mean(s) - then).abs() / then,
                _ => 1.0,
            })
            .fold(0.0, f64::max)
    }
}

/// SplitMix64: a dependency-free deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const BASES: [&str; 5] = [
    "conv",
    "grad/fc6",
    "repository/x",
    "conv.partial",
    "attn.part",
];

/// A random name from a small pool, so keys collide often: an optional
/// replica prefix, a base, and zero to two `.partN` indices.
fn random_name(rng: &mut Rng) -> String {
    let mut name = String::new();
    if rng.below(2) == 0 {
        name.push_str(&format!("rep{}/", rng.below(4)));
    }
    name.push_str(BASES[rng.below(BASES.len() as u64) as usize]);
    for _ in 0..rng.below(3) {
        name.push_str(&format!(".part{}", rng.below(12)));
    }
    name
}

fn assert_agree(m: &CompCostModel, r: &Reference, rng: &mut Rng, ctx: &str) {
    assert_eq!(m.key_count(), r.stats.len(), "{ctx}: key_count");
    assert_eq!(
        m.max_drift().to_bits(),
        r.max_drift().to_bits(),
        "{ctx}: max_drift"
    );
    let mut graph = Graph::new();
    for _ in 0..8 {
        let name = random_name(rng);
        let d = DeviceId(rng.below(5) as u16);
        assert_eq!(m.get(&name, d), r.get(&name, d), "{ctx}: get({name}, {d})");
        assert_eq!(
            m.max_time(&name),
            r.max_time(&name),
            "{ctx}: max_time({name})"
        );
        // duplicates are simply skipped: the graph only needs distinct names
        let _ = graph.add_op(Operation::new(name, OpKind::Relu, [1]));
    }
    let covered = graph.iter_ops().all(|(_, o)| r.max_time(&o.name).is_some());
    assert_eq!(m.covers(&graph), covered, "{ctx}: covers");
}

#[test]
fn dense_model_matches_reference() {
    for case in 0..64u64 {
        let mut rng = Rng(case);
        let mut m = CompCostModel::new();
        let mut r = Reference::default();
        for step in 0..200 {
            let name = random_name(&mut rng);
            let d = DeviceId(rng.below(4) as u16);
            match rng.below(20) {
                0..=11 => {
                    // occasional 100x spikes exercise the winsorizing clamp
                    let secs = if rng.below(10) == 0 {
                        rng.range(10.0, 100.0)
                    } else {
                        rng.range(1e-4, 1.0)
                    };
                    m.observe(&name, d, secs);
                    r.observe(&name, d, secs);
                }
                12..=17 => {
                    let devices: Vec<DeviceId> =
                        (0..4).filter(|_| rng.below(2) == 0).map(DeviceId).collect();
                    let secs = rng.range(1e-4, 2.0);
                    m.seed(&name, &devices, secs);
                    r.seed(&name, &devices, secs);
                }
                _ => {
                    m.snapshot();
                    r.snapshot();
                }
            }
            assert_agree(&m, &r, &mut rng, &format!("case {case} step {step}"));
        }
    }
}

#[test]
fn measurement_replacing_a_larger_seed_lowers_the_max() {
    let mut m = CompCostModel::new();
    let mut r = Reference::default();
    let all = [DeviceId(0), DeviceId(1), DeviceId(2)];
    m.seed("rep1/conv.part3", &all, 50.0);
    r.seed("rep1/conv.part3", &all, 50.0);
    m.snapshot();
    r.snapshot();
    for (i, &d) in all.iter().enumerate() {
        let secs = 0.5 + i as f64;
        m.observe("conv.part0", d, secs);
        r.observe("conv.part0", d, secs);
        assert_eq!(m.max_time("conv.part9"), r.max_time("conv.part9"));
    }
    assert_eq!(m.max_time("rep0/conv.part1"), Some(2.5));
    assert_eq!(m.max_drift().to_bits(), r.max_drift().to_bits());
}

/// What `CommCostModel::predict` and the rank computation's `c̄` answer,
/// computed per call
/// from the model's public pieces: the health-aware route, and per hop the
/// distrust override, else the trained line (`fit_for`), else the class
/// prior seeded from the slowest link spec of that class.
struct CommReference<'a> {
    m: &'a CommCostModel,
    /// The topology the model is bound to; `None` for an unbound model.
    topo: Option<&'a Topology>,
    /// Distrusted hops with the line each was installed with.
    distrust: Vec<((DeviceId, DeviceId), LinReg)>,
}

impl CommReference<'_> {
    fn prior(&self, c: LinkClass) -> Option<LinReg> {
        let topo = self.topo?;
        let mut best: Option<LinReg> = None;
        for s in topo.device_ids() {
            for d in topo.device_ids() {
                if let (Some(l), Some(lc)) = (topo.link(s, d), topo.link_class(s, d)) {
                    let prior = LinReg {
                        slope: 1.0 / l.bandwidth,
                        intercept: l.latency,
                        n: 0,
                    };
                    if lc == c && best.is_none_or(|b| prior.predict(1e6) > b.predict(1e6)) {
                        best = Some(prior);
                    }
                }
            }
        }
        best
    }

    fn hop_line(&self, a: DeviceId, b: DeviceId) -> Option<LinReg> {
        if let Some((_, l)) = self.distrust.iter().find(|(k, _)| *k == (a, b)) {
            return Some(*l);
        }
        if let Some(f) = self.m.fit_for(a, b) {
            return Some(*f);
        }
        self.prior(self.topo?.link_class(a, b)?)
    }

    /// Installs a distrust override the way `distrust_link` documents it:
    /// the hop's current line scaled by `factor`, compounding an existing
    /// override.
    fn distrust(&mut self, a: DeviceId, b: DeviceId, factor: f64) {
        if let Some((_, l)) = self.distrust.iter_mut().find(|(k, _)| *k == (a, b)) {
            l.slope *= factor;
            l.intercept *= factor;
            return;
        }
        let base = self.hop_line(a, b).expect("bound hops always have a line");
        self.distrust.push((
            (a, b),
            LinReg {
                slope: base.slope * factor,
                intercept: base.intercept * factor,
                n: 0,
            },
        ));
    }

    fn predict(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> Option<f64> {
        if src == dst {
            return Some(0.0);
        }
        let Some(topo) = self.topo else {
            return self.m.fit_for(src, dst).map(|f| f.predict(bytes as f64));
        };
        let Some(route) = topo.try_route(src, dst) else {
            return Some(f64::INFINITY);
        };
        let mut total = 0.0;
        for (a, b) in route {
            total += self.hop_line(a, b)?.predict(bytes as f64);
        }
        Some(total)
    }

    fn max_comm(&self, bytes: u64, devices: &[DeviceId]) -> f64 {
        let Some(topo) = self.topo else {
            let mut worst = 0.0f64;
            for &s in devices {
                for &d in devices {
                    if let Some(f) = self.m.fit_for(s, d) {
                        worst = worst.max(f.predict(bytes as f64));
                    }
                }
            }
            return worst;
        };
        // the class line: the trained fit of any link of the class, else
        // the prior (distrust overrides never enter c̄)
        let class_line = |c: LinkClass| {
            topo.device_ids()
                .flat_map(|s| topo.device_ids().map(move |d| (s, d)))
                .find(|&(s, d)| topo.link_class(s, d) == Some(c))
                .and_then(|(s, d)| self.m.fit_for(s, d).copied())
                .or_else(|| self.prior(c))
        };
        let mut worst = 0.0f64;
        for s in topo.device_ids() {
            for d in topo.device_ids() {
                let price: f64 = topo
                    .route(s, d)
                    .iter()
                    .filter_map(|&(a, b)| topo.link_class(a, b))
                    .filter_map(class_line)
                    .map(|f| f.predict(bytes as f64))
                    .sum();
                worst = worst.max(price);
            }
        }
        worst
    }
}

const SWEEP_BYTES: [u64; 8] = [0, 1, 4096, 65_537, 1 << 20, 123_456_789, 1 << 30, 1 << 36];

/// Every pair and byte size: the resolved price, `predict` and the
/// reference agree bit for bit (or all are `None`), and so do the resolved
/// `c̄` and the reference.
fn assert_comm_agrees(r: &CommReference<'_>, devices: &[DeviceId], ctx: &str) -> usize {
    let max_comm = r.m.resolve_max_comm();
    let mut infinite = 0;
    for &s in devices {
        for &d in devices {
            let pair = r.m.resolve(s, d);
            for bytes in SWEEP_BYTES {
                let want = r.predict(s, d, bytes).map(f64::to_bits);
                assert_eq!(
                    pair.price(bytes).map(f64::to_bits),
                    want,
                    "{ctx}: resolved {s}->{d} at {bytes} B"
                );
                assert_eq!(
                    r.m.predict(s, d, bytes).map(f64::to_bits),
                    want,
                    "{ctx}: predict {s}->{d} at {bytes} B"
                );
                infinite += usize::from(want == Some(f64::INFINITY.to_bits()));
            }
        }
    }
    for bytes in SWEEP_BYTES {
        let want = r.max_comm(bytes, devices).to_bits();
        assert_eq!(
            max_comm.price(bytes).to_bits(),
            want,
            "{ctx}: resolved max_comm at {bytes} B"
        );
    }
    infinite
}

/// Profiles a few hops with noisy linear transfer times (so the trimmed
/// fits are not just the specs).
fn profile(m: &mut CommCostModel, hops: &[(DeviceId, DeviceId)], rng: &mut Rng) {
    for &(a, b) in hops {
        let (lat, bw) = (rng.range(1e-6, 5e-5), rng.range(1e9, 60e9));
        for _ in 0..12 {
            let bytes = 1 + rng.below(64 << 20);
            m.observe(a, b, bytes, (lat + bytes as f64 / bw) * rng.range(0.9, 1.1));
        }
    }
    m.refit();
}

#[test]
fn resolved_comm_prices_match_reference() {
    let (g0, g1) = (DeviceId(0), DeviceId(1));
    for (servers, gpus) in [(1u16, 4u16), (2, 2), (2, 4)] {
        let mut topo = Topology::multi_server(servers, gpus);
        let devices: Vec<DeviceId> = topo.device_ids().collect();
        let h0 = topo.host_of(0).unwrap();
        let last = DeviceId(servers * gpus - 1);
        let mut rng = Rng(u64::from(servers * 16 + gpus));
        let ctx = format!("{servers}x{gpus}");

        // unbound: profiled pairs answer from their fits, the rest are None
        let mut m = CommCostModel::new();
        profile(&mut m, &[(g0, g1), (g1, g0), (last, h0)], &mut rng);
        let r = CommReference {
            m: &m,
            topo: None,
            distrust: Vec::new(),
        };
        assert_comm_agrees(&r, &devices, &format!("{ctx} unbound"));
        assert_eq!(m.predict(g1, last, 1 << 20), None);

        // bound, priors only
        let mut m = CommCostModel::new();
        m.bind_topology(&topo);
        let r = CommReference {
            m: &m,
            topo: Some(&topo),
            distrust: Vec::new(),
        };
        assert_comm_agrees(&r, &devices, &format!("{ctx} priors"));

        // bound and profiled on NVLink and PCIe hops
        profile(&mut m, &[(g0, g1), (g1, h0)], &mut rng);
        let r = CommReference {
            m: &m,
            topo: Some(&topo),
            distrust: Vec::new(),
        };
        assert_comm_agrees(&r, &devices, &format!("{ctx} profiled"));

        // GPU 0's direct and host links fail: GPU 0 → GPU 1 is partitioned
        topo.fail_link(g0, g1);
        topo.fail_link(g0, h0);
        m.bind_topology(&topo);
        let mut r = CommReference {
            m: &m,
            topo: Some(&topo),
            distrust: Vec::new(),
        };
        let infinite = assert_comm_agrees(&r, &devices, &format!("{ctx} failed"));
        assert!(infinite > 0, "{ctx}: a partitioned pair must price at +inf");
        assert_eq!(m.predict(g0, g1, 1 << 20), Some(f64::INFINITY));

        // distrusted hops, one compounded
        let mut m = m.clone();
        for (a, b, f) in [(g1, h0, 3.0), (h0, last, 8.0), (h0, last, 1.5)] {
            assert!(m.distrust_link(a, b, f));
            r.distrust(a, b, f);
        }
        r.m = &m;
        assert_comm_agrees(&r, &devices, &format!("{ctx} distrusted"));
    }
}

/// Fragments of the random names below: replica prefixes and part indices
/// together with their near misses (`rep/`, `repx/`, `.par`, `.part#`).
const NAME_PIECES: [&str; 14] = [
    "rep", "repx", "1", "07", "/", ".part", ".par", "t", "#", "x", "_", "Conv", ".", "9",
];

/// Canonicalization is idempotent, and a `repK/` prefix of any index
/// canonicalizes to the same key as the bare name. Both hold over names
/// with at most one `repK/` prefix, the only kind `replicate` emits:
/// `canonical_name` strips exactly one, so `rep1/rep2/x` becomes `rep2/x`
/// and only a second pass reaches `x`.
#[test]
fn canonical_names_are_idempotent_and_share_replica_keys() {
    let mut rng = Rng(0);
    for _ in 0..2048 {
        let body: String = (0..rng.below(9))
            .map(|_| NAME_PIECES[rng.below(NAME_PIECES.len() as u64) as usize])
            .collect();
        if strip_replica(&body) != body {
            continue; // the prefixed form would carry two prefixes
        }
        let prefixed = format!("rep{}/{body}", rng.below(1000));
        for name in [&body, &prefixed] {
            let once = canonical_name(name);
            assert_eq!(canonical_name(&once), once, "not idempotent on {name:?}");
        }
        assert_eq!(
            canonical_name(&prefixed),
            canonical_name(&body),
            "{prefixed:?}"
        );
    }
}

/// Least squares recovers any line exactly from 2–49 noiseless points at
/// random x.
#[test]
fn linreg_recovers_lines() {
    for case in 0..128u64 {
        let mut rng = Rng(case);
        let (slope, intercept) = (rng.range(-1e3, 1e3), rng.range(-1e3, 1e3));
        let pts: Vec<(f64, f64)> = (0..2 + rng.below(48))
            .map(|_| rng.range(0.0, 1e6))
            .map(|x| (x, slope * x + intercept))
            .collect();
        let f = LinReg::fit(&pts).unwrap();
        assert!(
            (f.slope - slope).abs() < 1e-6 * slope.abs().max(1.0),
            "case {case}: slope {} for {slope}",
            f.slope
        );
        assert!(
            (f.intercept - intercept).abs() < 1.0,
            "case {case}: intercept {} for {intercept}",
            f.intercept
        );
    }
}

/// Comm predictions are monotone in bytes once fitted on an increasing
/// line (physical links: more bytes never arrive sooner).
#[test]
fn comm_monotone_in_bytes() {
    let (a, b) = (DeviceId(0), DeviceId(1));
    for case in 0..128u64 {
        let mut rng = Rng(case);
        let (bw, lat) = (rng.range(1e8, 1e11), rng.range(0.0, 1e-3));
        let mut m = CommCostModel::new();
        for kb in [1u64, 8, 64, 512, 4096] {
            let bytes = kb << 10;
            m.observe(a, b, bytes, lat + bytes as f64 / bw);
        }
        m.refit();
        let mut last = -1.0f64;
        for kb in [2u64, 16, 128, 1024] {
            let p = m.predict(a, b, kb << 10).unwrap();
            assert!(p >= last, "case {case}: {p} after {last}");
            last = p;
        }
    }
}
