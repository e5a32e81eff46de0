//! Property tests for the cost models.
//!
//! `dense_model_matches_reference` runs everywhere: it drives seeded random
//! interleavings of `observe`/`seed`/`snapshot` through the dense
//! [`CompCostModel`] and through a naive `(name, device)`-keyed reference,
//! and requires every query to agree bit for bit. The `proptest` cases need
//! the external `proptest` crate, which the offline build environment cannot
//! fetch, so they compile only under `--features proptest`.

use fastt_cluster::DeviceId;
use fastt_cost::CompCostModel;
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

/// Strips one `repK/` prefix and rewrites every `.partN` to `.part#`.
fn reference_canonical(name: &str) -> String {
    let name = match name.split_once('/') {
        Some((rep, rest))
            if rep.len() > 3
                && rep.starts_with("rep")
                && rep[3..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            rest
        }
        _ => name,
    };
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

#[cfg(feature = "proptest")]
mod proptests {
    use fastt_cluster::DeviceId;
    use fastt_cost::{canonical_name, CommCostModel, CompCostModel, LinReg};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Least squares recovers any line exactly from noiseless points.
        #[test]
        fn linreg_recovers_lines(
            slope in -1e3f64..1e3,
            intercept in -1e3f64..1e3,
            xs in proptest::collection::vec(0.0f64..1e6, 2..50),
        ) {
            // need at least two distinct x values for a well-posed fit
            prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6));
            let pts: Vec<(f64, f64)> = xs.iter().map(|&x| (x, slope * x + intercept)).collect();
            let f = LinReg::fit(&pts).unwrap();
            prop_assert!((f.slope - slope).abs() < 1e-6 * slope.abs().max(1.0));
            prop_assert!((f.intercept - intercept).abs() < 1.0);
        }

        /// The running mean equals the arithmetic mean of all observations.
        #[test]
        fn comp_mean_matches_observations(ts in proptest::collection::vec(1e-6f64..10.0, 1..64)) {
            let mut m = CompCostModel::new();
            for &t in &ts {
                m.observe("op", DeviceId(0), t);
            }
            let mean = ts.iter().sum::<f64>() / ts.len() as f64;
            let got = m.get("op", DeviceId(0)).unwrap();
            prop_assert!((got - mean).abs() < 1e-9 * mean.max(1.0));
        }

        /// max_time is the max of per-device means.
        #[test]
        fn comp_max_over_devices(times in proptest::collection::vec(1e-6f64..1.0, 1..6)) {
            let mut m = CompCostModel::new();
            for (i, &t) in times.iter().enumerate() {
                m.observe("op", DeviceId(i as u16), t);
            }
            let expected = times.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!((m.max_time("op").unwrap() - expected).abs() < 1e-12);
        }

        /// Canonicalization is idempotent and never panics on arbitrary names.
        #[test]
        fn canonical_name_idempotent(name in "[a-zA-Z0-9_/.#]{0,40}") {
            let once = canonical_name(&name);
            let twice = canonical_name(&once);
            prop_assert_eq!(once, twice);
        }

        /// Replica prefixes of any index canonicalize to the same key.
        #[test]
        fn replicas_share_keys(k in 0u32..1000, name in "[a-z][a-z0-9_/]{0,20}") {
            prop_assert_eq!(
                canonical_name(&format!("rep{k}/{name}")),
                canonical_name(&name)
            );
        }

        /// Comm predictions are monotone in bytes once fitted on an increasing
        /// line (physical links: more bytes never arrive sooner).
        #[test]
        fn comm_monotone_in_bytes(bw in 1e8f64..1e11, lat in 0.0f64..1e-3) {
            let mut m = CommCostModel::new();
            for kb in [1u64, 8, 64, 512, 4096] {
                let bytes = kb << 10;
                m.observe(DeviceId(0), DeviceId(1), bytes, lat + bytes as f64 / bw);
            }
            m.refit();
            let mut last = -1.0f64;
            for kb in [2u64, 16, 128, 1024] {
                let p = m.predict(DeviceId(0), DeviceId(1), kb << 10).unwrap();
                prop_assert!(p >= last);
                last = p;
            }
        }
    }
}
