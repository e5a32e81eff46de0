//! The communication cost model: tensor transfer time, fitted by linear
//! regression over profiled transfers (Sec. 4: "we gather tensors across the
//! same source-destination device pairs into one group. For each group, we
//! use linear regression to obtain a linear model: tensor size vs. transfer
//! time").
//!
//! Unbound (no topology attached) the model keys regressions on `(src, dst)`
//! device *pairs*, exactly as the paper describes. Once
//! [`CommCostModel::bind_topology`] attaches a cluster, regressions are keyed
//! on the **hardware class** of the link instead
//! ([`fastt_cluster::LinkClass`]: nvlink/pcie/eth/rdma) and predictions for a
//! pair are composed along its physical route ([`Topology::route`]) — one
//! observation on any NVLink edge informs every NVLink edge, so 4 fits cover
//! what per-pair keying would need O(n²) profiled pairs for. Analytic priors
//! seeded from the [`Link`] specs answer for classes never profiled, so the
//! very first DPOS pass already ranks with non-zero communication costs.

use crate::linreg::LinReg;
use fastt_cluster::{DeviceId, Link, LinkClass, Topology};
use fastt_sim::RunTrace;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Pessimism factor a distrusted hop's line is scaled by when no explicit
/// factor is given (see [`CommCostModel::distrust_link`]).
pub const DEFAULT_DISTRUST_FACTOR: f64 = 8.0;

/// Maximum retained samples per regression key (new data replaces the
/// oldest, so the model adapts to changing congestion).
const MAX_SAMPLES_PER_KEY: usize = 512;

/// Fraction of the worst-residual samples discarded per refit; keeps a few
/// transfers profiled during a straggler/degraded-link window from skewing
/// the fitted line (see [`LinReg::fit_trimmed`]).
const TRIM_FRAC: f64 = 0.1;

/// Regression key: link class when the model is bound to a topology and the
/// edge is a recognizable single link, device pair otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CommKey {
    Class(LinkClass),
    Pair(DeviceId, DeviceId),
}

/// A `src → dst` pair resolved by [`CommCostModel::resolve`]: the lines
/// [`CommCostModel::predict`] sums, so pricing a tensor walks no route and
/// hashes nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedPair {
    /// Bound model: one line per hop of the health-aware route, summed in
    /// route order. Empty for colocated devices (a free transfer).
    Route(Vec<LinReg>),
    /// Unbound model: the pair's own fit.
    Pair(LinReg),
    /// Bound model, partitioned pair: every transfer prices at +∞.
    Unreachable,
    /// No line answers (unbound and never profiled, or a hop the bound
    /// topology cannot classify): no price.
    Unknown,
}

impl ResolvedPair {
    /// Predicted transfer time of `bytes`; the same value, bit for bit, as
    /// [`CommCostModel::predict`] on the model this pair was resolved from.
    pub fn price(&self, bytes: u64) -> Option<f64> {
        match self {
            ResolvedPair::Route(lines) => {
                let mut total = 0.0;
                for l in lines {
                    total += l.predict(bytes as f64);
                }
                Some(total)
            }
            ResolvedPair::Pair(f) => Some(f.predict(bytes as f64)),
            ResolvedPair::Unreachable => Some(f64::INFINITY),
            ResolvedPair::Unknown => None,
        }
    }
}

/// The lines the rank computation's `c̄` maximizes over, resolved by
/// [`CommCostModel::resolve_max_comm`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedMaxComm {
    /// Bound model: per route shape, the lines of its hop classes.
    Shapes(Vec<Vec<LinReg>>),
    /// Unbound model: every profiled pair's fit.
    Fits(Vec<LinReg>),
}

impl ResolvedMaxComm {
    /// `c̄` for a tensor of `bytes`: the worst predicted transfer time over
    /// the cluster, 0 when nothing answers.
    pub fn price(&self, bytes: u64) -> f64 {
        match self {
            ResolvedMaxComm::Shapes(shapes) => shapes
                .iter()
                .map(|lines| lines.iter().map(|f| f.predict(bytes as f64)).sum())
                .fold(0.0, f64::max),
            ResolvedMaxComm::Fits(fits) => fits
                .iter()
                .map(|f| f.predict(bytes as f64))
                .fold(0.0, f64::max),
        }
    }
}

/// Transfer-time model: per-link-class fits composed along routes when bound
/// to a topology, per-device-pair fits otherwise.
#[derive(Debug, Clone, Default)]
pub struct CommCostModel {
    samples: HashMap<CommKey, Vec<(f64, f64)>>,
    fits: HashMap<CommKey, LinReg>,
    /// Analytic per-class priors from the bound topology's [`Link`] specs
    /// (slowest spec per class). Consulted only when a class has no fit;
    /// seeding them does not advance [`CommCostModel::generation`].
    priors: HashMap<LinkClass, LinReg>,
    /// The cluster this model predicts for, once bound. Routing and link
    /// classification come from here.
    topo: Option<Topology>,
    /// Distinct route shapes (hop-class sequences) present in the bound
    /// topology — precomputed so [`CommCostModel::resolve_max_comm`] is
    /// O(shapes) instead of O(n²) per call.
    route_shapes: Vec<Vec<LinkClass>>,
    /// Monotonic counter bumped on every [`CommCostModel::refit`]; cached
    /// plans keyed on an older generation are stale once the lines move.
    generation: u64,
    /// Pessimistic per-directed-pair override lines installed by
    /// [`CommCostModel::distrust_link`] when the session marks a link
    /// degraded or failed. Consulted *before* the class fit, so one sick
    /// link prices pessimistically without poisoning the healthy same-class
    /// fit every other link answers from. BTreeMap for deterministic
    /// iteration in [`CommCostModel::distrusted_pairs`].
    distrust: BTreeMap<(DeviceId, DeviceId), LinReg>,
}

impl CommCostModel {
    /// Creates an empty, unbound model (per-pair keying).
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the model to a cluster: future observations are bucketed by
    /// link class, predictions compose class fits along physical routes, and
    /// analytic priors are seeded from the topology's [`Link`] specs
    /// (pessimistically, from the slowest spec per class). Existing per-pair
    /// samples are re-bucketed into classes; if any exist the model refits
    /// (advancing the generation), otherwise the generation is untouched —
    /// priors are seeds, not measurements.
    pub fn bind_topology(&mut self, topo: &Topology) {
        let mut priors: HashMap<LinkClass, LinReg> = HashMap::new();
        let mut shapes: HashSet<Vec<LinkClass>> = HashSet::new();
        for s in topo.device_ids() {
            for d in topo.device_ids() {
                if let (Some(l), Some(c)) = (topo.link(s, d), topo.link_class(s, d)) {
                    let prior = Self::prior_of(l);
                    priors
                        .entry(c)
                        .and_modify(|p| {
                            // slowest spec per class = pessimistic prior
                            if prior.predict(1e6) > p.predict(1e6) {
                                *p = prior;
                            }
                        })
                        .or_insert(prior);
                }
                let shape: Vec<LinkClass> = topo
                    .route(s, d)
                    .iter()
                    .filter_map(|&(a, b)| topo.link_class(a, b))
                    .collect();
                if !shape.is_empty() {
                    shapes.insert(shape);
                }
            }
        }
        self.priors = priors;
        self.route_shapes = shapes.into_iter().collect();
        self.route_shapes.sort();
        self.topo = Some(topo.clone());

        // Re-bucket any pre-bind per-pair samples under their link class.
        let pairs: Vec<(DeviceId, DeviceId)> = self
            .samples
            .keys()
            .filter_map(|k| match k {
                CommKey::Pair(s, d) => Some((*s, *d)),
                CommKey::Class(_) => None,
            })
            .collect();
        let mut moved = false;
        for (s, d) in pairs {
            if let Some(c) = self.class_key(s, d) {
                if let Some(pts) = self.samples.remove(&CommKey::Pair(s, d)) {
                    let v = self.samples.entry(CommKey::Class(c)).or_default();
                    v.extend(pts);
                    let overflow = v.len().saturating_sub(MAX_SAMPLES_PER_KEY);
                    v.drain(..overflow);
                    moved = true;
                }
            }
        }
        if moved {
            self.refit();
        }
    }

    /// Whether [`CommCostModel::bind_topology`] has been called.
    pub fn is_bound(&self) -> bool {
        self.topo.is_some()
    }

    /// The analytic prior line of a link spec: intercept = latency,
    /// slope = 1/bandwidth, zero observations behind it.
    fn prior_of(l: &Link) -> LinReg {
        LinReg {
            slope: 1.0 / l.bandwidth,
            intercept: l.latency,
            n: 0,
        }
    }

    /// The class key a `src → dst` observation lands under, when the bound
    /// topology recognizes the edge as one direct link.
    fn class_key(&self, src: DeviceId, dst: DeviceId) -> Option<LinkClass> {
        self.topo.as_ref()?.link_class(src, dst)
    }

    /// Records one observed transfer of `bytes` from `src` to `dst` taking
    /// `secs`. Bound models bucket the sample under the link's hardware
    /// class (the simulator records transfers hop-by-hop, so each
    /// observation is a single physical link); edges the topology cannot
    /// classify — and all edges of unbound models — stay per-pair.
    pub fn observe(&mut self, src: DeviceId, dst: DeviceId, bytes: u64, secs: f64) {
        let key = match self.class_key(src, dst) {
            Some(c) => CommKey::Class(c),
            None => CommKey::Pair(src, dst),
        };
        let v = self.samples.entry(key).or_default();
        if v.len() >= MAX_SAMPLES_PER_KEY {
            v.remove(0);
        }
        v.push((bytes as f64, secs));
    }

    /// Ingests every transfer record of a profiled iteration and refits
    /// all models ("in each update of the cost model, newly collected data
    /// are fed and parameters of the linear model are re-computed").
    pub fn update_from_trace(&mut self, trace: &RunTrace) {
        for t in &trace.transfers {
            self.observe(t.src_dev, t.dst_dev, t.bytes, t.duration());
        }
        self.refit();
    }

    /// Recomputes every key's regression from its current samples: a
    /// trimmed (straggler-robust) least-squares fit, falling back to the
    /// proportional prior when every retained transfer of a key has the
    /// same size (the slope is unidentifiable, so `LinReg::fit` refuses).
    pub fn refit(&mut self) {
        self.generation += 1;
        self.fits = self
            .samples
            .iter()
            .filter_map(|(k, pts)| {
                LinReg::fit_trimmed(pts, TRIM_FRAC)
                    .or_else(|| LinReg::proportional(pts))
                    .map(|f| (*k, f))
            })
            .collect();
    }

    /// The best available line for one physical hop: distrust override
    /// first, then trained class fit, else per-pair fit, else the seeded
    /// class prior.
    fn hop_line(&self, src: DeviceId, dst: DeviceId) -> Option<&LinReg> {
        if let Some(l) = self.distrust.get(&(src, dst)) {
            return Some(l);
        }
        if let Some(c) = self.class_key(src, dst) {
            if let Some(f) = self.fits.get(&CommKey::Class(c)) {
                return Some(f);
            }
            if let Some(f) = self.fits.get(&CommKey::Pair(src, dst)) {
                return Some(f);
            }
            return self.priors.get(&c);
        }
        self.fits.get(&CommKey::Pair(src, dst))
    }

    /// The best available line for a route *shape* (sequence of hop
    /// classes): fit else prior per hop, summed by the caller.
    fn class_line(&self, c: LinkClass) -> Option<&LinReg> {
        self.fits
            .get(&CommKey::Class(c))
            .or_else(|| self.priors.get(&c))
    }

    /// Predicted transfer time for `bytes` from `src` to `dst`.
    ///
    /// Returns 0 for intra-device "transfers". Bound models sum hop
    /// predictions along the *health-aware* physical route
    /// ([`Topology::try_route`]), answering from class fits and falling back
    /// to the seeded priors for classes never profiled — so a bound model
    /// always has a (non-zero) opinion about connected pairs. A pair the
    /// topology cannot route around dead links for prices as
    /// `Some(f64::INFINITY)`, so planners rank any reachable placement above
    /// one that needs a dead link. Unbound models return `None` for pairs
    /// never profiled.
    ///
    /// Shorthand for [`CommCostModel::resolve`] then
    /// [`ResolvedPair::price`]; callers pricing many tensors over one pair
    /// should resolve it once.
    pub fn predict(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> Option<f64> {
        self.resolve(src, dst).price(bytes)
    }

    /// The lines [`CommCostModel::predict`] would use for `src → dst`,
    /// looked up once: the route walked, every hop's line chosen, so each
    /// later [`ResolvedPair::price`] is a few multiply-adds. The result
    /// stays valid until the model changes (a refit, a distrust override,
    /// a rebind).
    pub fn resolve(&self, src: DeviceId, dst: DeviceId) -> ResolvedPair {
        if src == dst {
            return ResolvedPair::Route(Vec::new());
        }
        match &self.topo {
            Some(topo) => {
                let Some(route) = topo.try_route(src, dst) else {
                    return ResolvedPair::Unreachable;
                };
                let mut lines = Vec::with_capacity(route.len());
                for (a, b) in route {
                    match self.hop_line(a, b) {
                        Some(l) => lines.push(*l),
                        None => return ResolvedPair::Unknown,
                    }
                }
                ResolvedPair::Route(lines)
            }
            None => match self.fits.get(&CommKey::Pair(src, dst)) {
                Some(f) => ResolvedPair::Pair(*f),
                None => ResolvedPair::Unknown,
            },
        }
    }

    /// Predicted duration of a ring all-reduce of `bytes` (the full gradient
    /// size) over `participants`: `2(n−1)` phases, each moving `bytes/n` on
    /// every ring hop simultaneously, paced by the slowest hop — the
    /// standard `2(n−1)/n × bytes` bound, priced by the same per-class fits
    /// point-to-point predictions use.
    ///
    /// Returns 0 for fewer than two participants, `None` when some ring hop
    /// has no fit (only possible unbound).
    pub fn predict_allreduce(&self, participants: &[DeviceId], bytes: u64) -> Option<f64> {
        let n = participants.len();
        if n < 2 {
            return Some(0.0);
        }
        let chunk = bytes.div_ceil(n as u64);
        let mut slowest = 0.0f64;
        for i in 0..n {
            let (src, dst) = (participants[i], participants[(i + 1) % n]);
            slowest = slowest.max(self.predict(src, dst, chunk)?);
        }
        Some(2.0 * (n as f64 - 1.0) * slowest)
    }

    /// The lines of the pessimistic `c̄` used by the rank computation: the
    /// maximal predicted transfer time over the cluster, priced per tensor
    /// by [`ResolvedMaxComm::price`]. Bound models take the worst route
    /// shape priced by fits-else-priors (non-zero from the very first
    /// pass; classes with no line are dropped); unbound models fall back
    /// to the worst profiled pair, 0 when nothing is profiled yet. Resolve
    /// once per pass over the graph, not once per edge.
    pub fn resolve_max_comm(&self) -> ResolvedMaxComm {
        if self.topo.is_some() {
            return ResolvedMaxComm::Shapes(
                self.route_shapes
                    .iter()
                    .map(|shape| {
                        shape
                            .iter()
                            .filter_map(|&c| self.class_line(c))
                            .copied()
                            .collect()
                    })
                    .collect(),
            );
        }
        ResolvedMaxComm::Fits(self.fits.values().copied().collect())
    }

    /// Number of trained regressions (link classes once bound, device pairs
    /// before that).
    pub fn pair_count(&self) -> usize {
        self.fits.len()
    }

    /// The trained line answering for `src → dst`, if any: the pair's fit
    /// on unbound models, the direct link's class fit on bound ones.
    /// Seeded priors are not reported here — this is the *trained* model.
    pub fn fit_for(&self, src: DeviceId, dst: DeviceId) -> Option<&LinReg> {
        if let Some(c) = self.class_key(src, dst) {
            if let Some(f) = self.fits.get(&CommKey::Class(c)) {
                return Some(f);
            }
        }
        self.fits.get(&CommKey::Pair(src, dst))
    }

    /// Re-seeds a pessimistic prior for one *directed* hop after a link
    /// health change: the hop's current best line (class fit, pair fit, or
    /// prior — whatever [`CommCostModel::predict`] would have used) is
    /// snapshotted, scaled by `factor`, and installed as a per-pair override
    /// consulted before the class fit. The healthy same-class fit is
    /// untouched, so sibling links keep answering from real measurements.
    ///
    /// Distrusting an already-distrusted hop compounds (the override is
    /// scaled again), mirroring [`Topology::degrade_link`]. Advances
    /// [`CommCostModel::generation`] — cached plans priced with the
    /// trusting line are stale. Returns `false` (and changes nothing) when
    /// the model has no line at all for the hop, which only happens unbound
    /// with no profiled samples.
    pub fn distrust_link(&mut self, src: DeviceId, dst: DeviceId, factor: f64) -> bool {
        assert!(factor > 0.0, "distrust factor must be positive");
        if let Some(l) = self.distrust.get_mut(&(src, dst)) {
            l.slope *= factor;
            l.intercept *= factor;
            self.generation += 1;
            return true;
        }
        let Some(base) = self.hop_line(src, dst).copied() else {
            return false;
        };
        self.distrust.insert(
            (src, dst),
            LinReg {
                slope: base.slope * factor,
                intercept: base.intercept * factor,
                n: 0,
            },
        );
        self.generation += 1;
        true
    }

    /// Drops the distrust override for a directed hop (the link healed or
    /// fresh measurements re-earned trust); predictions fall back to the
    /// fit→prior chain. Advances the generation only when an override was
    /// actually removed.
    pub fn trust_link(&mut self, src: DeviceId, dst: DeviceId) {
        if self.distrust.remove(&(src, dst)).is_some() {
            self.generation += 1;
        }
    }

    /// Whether a directed hop currently prices from a distrust override.
    pub fn is_distrusted(&self, src: DeviceId, dst: DeviceId) -> bool {
        self.distrust.contains_key(&(src, dst))
    }

    /// Every distrusted directed hop, in deterministic id order.
    pub fn distrusted_pairs(&self) -> Vec<(DeviceId, DeviceId)> {
        self.distrust.keys().copied().collect()
    }

    /// Monotonic refit generation: bumped once per [`CommCostModel::refit`]
    /// and once per installed/compounded/removed distrust override
    /// ([`CommCostModel::distrust_link`] / [`CommCostModel::trust_link`]).
    /// Binding a topology and seeding priors do not advance it — plan-cache
    /// fingerprints only move when the model's *answers* do.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn learns_linear_link_model() {
        let mut m = CommCostModel::new();
        // latency 1ms, 1 GB/s
        for mb in [1u64, 4, 16, 64] {
            let bytes = mb << 20;
            m.observe(D0, D1, bytes, 1e-3 + bytes as f64 / 1e9);
        }
        m.refit();
        let f = m.fit_for(D0, D1).unwrap();
        assert!(
            (f.intercept - 1e-3).abs() < 1e-5,
            "intercept {}",
            f.intercept
        );
        assert!((f.slope - 1e-9).abs() < 1e-12, "slope {}", f.slope);
        let p = m.predict(D0, D1, 32 << 20).unwrap();
        assert!((p - (1e-3 + (32 << 20) as f64 / 1e9)).abs() < 1e-5);
    }

    #[test]
    fn intra_device_is_free() {
        let m = CommCostModel::new();
        assert_eq!(m.predict(D0, D0, 1 << 30), Some(0.0));
    }

    #[test]
    fn unseen_pair_is_none() {
        let m = CommCostModel::new();
        assert_eq!(m.predict(D0, D1, 1024), None);
    }

    #[test]
    fn max_comm_over_pairs() {
        let mut m = CommCostModel::new();
        m.observe(D0, D1, 1 << 20, 0.001);
        m.observe(D1, D0, 1 << 20, 0.010); // slower reverse path
        m.refit();
        let worst = m.resolve_max_comm().price(1 << 20);
        assert!((worst - 0.010).abs() < 1e-9);
    }

    #[test]
    fn sample_window_bounded() {
        let mut m = CommCostModel::new();
        for i in 0..(MAX_SAMPLES_PER_KEY + 100) {
            m.observe(D0, D1, i as u64, 1.0);
        }
        assert_eq!(m.samples[&CommKey::Pair(D0, D1)].len(), MAX_SAMPLES_PER_KEY);
    }

    #[test]
    fn bound_model_answers_everything_from_priors_without_generation_bump() {
        let mut m = CommCostModel::new();
        m.bind_topology(&Topology::multi_server(2, 2));
        assert_eq!(m.generation(), 0, "priors are seeds, not measurements");
        // never profiled, yet every connected pair has a non-zero opinion
        let intra = m.predict(D0, D1, 1 << 20).unwrap();
        let inter = m.predict(D0, DeviceId(2), 1 << 20).unwrap();
        assert!(intra > 0.0);
        assert!(
            inter > intra,
            "3-hop cross-server route must cost more than NVLink: {inter} vs {intra}"
        );
        // satellite fix: c̄ is non-zero before the first profiled iteration
        let max_comm = m.resolve_max_comm();
        assert!(max_comm.price(1 << 20) > 0.0);
        // the worst shape is the staged cross-server route
        let want =
            Link::pcie().transfer_time(1 << 20) * 2.0 + Link::rdma_100g().transfer_time(1 << 20);
        assert!((max_comm.price(1 << 20) - want).abs() < 1e-9);
    }

    #[test]
    fn class_fit_generalizes_to_unobserved_same_class_pair() {
        // The acceptance-criteria test: train ONLY on the (0,1) NVLink edge,
        // then predict the never-observed (2,3) NVLink edge. Per-pair keying
        // cannot answer this at all; class keying answers within the
        // trained line's own error band.
        let mut m = CommCostModel::new();
        m.bind_topology(&Topology::single_server(4));
        let (lat, bw) = (4e-6, 50.0e9); // "measured" NVLink: close to spec
        let truth = |bytes: u64| lat + bytes as f64 / bw;
        for mb in [1u64, 2, 8, 32, 128] {
            let b = mb << 20;
            m.observe(D0, D1, b, truth(b));
        }
        m.refit();
        let probe = 16u64 << 20; // interpolated, unobserved size
        let on_trained = m.predict(D0, D1, probe).unwrap();
        let on_unseen = m.predict(DeviceId(2), DeviceId(3), probe).unwrap();
        assert_eq!(
            on_trained, on_unseen,
            "same class ⇒ same line, observed pair or not"
        );
        let rel_err = (on_unseen - truth(probe)).abs() / truth(probe);
        assert!(rel_err < 0.05, "unseen-pair error {rel_err} out of band");
        // ...and the fit overrides the spec prior, which was 48 GB/s
        assert!((m.fit_for(DeviceId(2), DeviceId(3)).unwrap().slope - 1.0 / bw).abs() < 1e-13);
    }

    #[test]
    fn observations_do_not_leak_across_classes() {
        let mut m = CommCostModel::new();
        let topo = Topology::multi_server(2, 2);
        m.bind_topology(&topo);
        // profile only NVLink edges, 10x slower than spec
        for mb in [1u64, 4, 16] {
            let b = mb << 20;
            m.observe(D0, D1, b, 5e-6 + b as f64 / 4.8e9);
        }
        m.refit();
        assert_eq!(m.pair_count(), 1, "one class trained");
        // the RDMA hop of a cross-server route still answers from its prior
        let h0 = topo.host_of(0).unwrap();
        let h1 = topo.host_of(1).unwrap();
        let nic = m.predict(h0, h1, 1 << 20).unwrap();
        let spec = Link::rdma_100g().transfer_time(1 << 20);
        assert!((nic - spec).abs() < 1e-12);
    }

    #[test]
    fn binding_rebuckets_existing_pair_samples() {
        let mut m = CommCostModel::new();
        for mb in [1u64, 4, 16] {
            let b = mb << 20;
            m.observe(D0, D1, b, 1e-5 + b as f64 / 40.0e9);
        }
        m.refit();
        let g = m.generation();
        m.bind_topology(&Topology::single_server(4));
        assert!(m.generation() > g, "re-bucketing moves predictions");
        // the old pair samples now train the NVLink class: an unrelated
        // NVLink pair predicts from them, not from the spec prior
        let p = m.predict(DeviceId(2), DeviceId(3), 8 << 20).unwrap();
        let want = 1e-5 + (8u64 << 20) as f64 / 40.0e9;
        assert!((p - want).abs() / want < 0.05, "got {p}, want {want}");
    }

    #[test]
    fn distrust_overrides_one_pair_without_poisoning_class_fit() {
        let mut m = CommCostModel::new();
        m.bind_topology(&Topology::single_server(4));
        // train the NVLink class from the (0,1) edge
        let truth = |b: u64| 4e-6 + b as f64 / 50.0e9;
        for mb in [1u64, 4, 16, 64] {
            let b = mb << 20;
            m.observe(D0, D1, b, truth(b));
        }
        m.refit();
        let probe = 8u64 << 20;
        let healthy = m.predict(D0, D1, probe).unwrap();

        // distrust the (2,3) hop: its prediction scales, siblings don't
        let g = m.generation();
        assert!(m.distrust_link(DeviceId(2), DeviceId(3), 4.0));
        assert!(m.generation() > g, "distrust must invalidate cached plans");
        assert!(m.is_distrusted(DeviceId(2), DeviceId(3)));
        let sick = m.predict(DeviceId(2), DeviceId(3), probe).unwrap();
        assert!((sick - 4.0 * healthy).abs() / healthy < 1e-9);
        // the directed override does not leak to the reverse direction...
        let reverse = m.predict(DeviceId(3), DeviceId(2), probe).unwrap();
        assert!((reverse - healthy).abs() < 1e-12);
        // ...nor to any other same-class pair
        let sibling = m.predict(D0, D1, probe).unwrap();
        assert!((sibling - healthy).abs() < 1e-12);

        // compounding mirrors Topology::degrade_link
        m.distrust_link(DeviceId(2), DeviceId(3), 2.0);
        let worse = m.predict(DeviceId(2), DeviceId(3), probe).unwrap();
        assert!((worse - 8.0 * healthy).abs() / healthy < 1e-9);

        // trust restores the class fit and bumps the generation again
        let g = m.generation();
        m.trust_link(DeviceId(2), DeviceId(3));
        assert!(m.generation() > g);
        assert!(!m.is_distrusted(DeviceId(2), DeviceId(3)));
        let healed = m.predict(DeviceId(2), DeviceId(3), probe).unwrap();
        assert!((healed - healthy).abs() < 1e-12);
        // trusting an un-distrusted pair is generation-neutral
        let g = m.generation();
        m.trust_link(D0, D1);
        assert_eq!(m.generation(), g);
    }

    #[test]
    fn unreachable_pair_prices_as_infinite() {
        let mut m = CommCostModel::new();
        let mut topo = Topology::multi_server(2, 2);
        let g0 = DeviceId(0);
        let g2 = DeviceId(2);
        let h0 = topo.host_of(0).unwrap();
        let h1 = topo.host_of(1).unwrap();
        // sever every live path from g0 to g2, then rebind so the model
        // prices against the degraded topology
        topo.fail_link(h0, h1);
        topo.fail_link(h1, g2);
        topo.fail_link(h0, g2);
        topo.fail_link(g0, g2);
        m.bind_topology(&topo);
        assert_eq!(m.predict(g0, g2, 1 << 20), Some(f64::INFINITY));
        // pairs with surviving routes still price finitely
        let intra = m.predict(g0, DeviceId(1), 1 << 20).unwrap();
        assert!(intra.is_finite() && intra > 0.0);
        // and an infinite ring hop poisons the whole collective estimate
        // (ring ordered so one hop is the unreachable g0→g2 pair)
        assert_eq!(
            m.predict_allreduce(&[g0, g2], 1 << 20),
            Some(f64::INFINITY),
            "a ring crossing a dead pair must never look attractive"
        );
    }

    #[test]
    fn allreduce_priced_from_class_fits() {
        let mut m = CommCostModel::new();
        m.bind_topology(&Topology::single_server(4));
        let devs: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let bytes = 64u64 << 20;
        // 2(n−1) phases of bytes/n on the slowest (here: any NVLink) hop
        let phase = m.predict(D0, D1, bytes.div_ceil(4)).unwrap();
        let want = 2.0 * 3.0 * phase;
        let got = m.predict_allreduce(&devs, bytes).unwrap();
        assert!((got - want).abs() < 1e-12);
        // degenerate rings are free; unbound models have no opinion
        assert_eq!(m.predict_allreduce(&devs[..1], bytes), Some(0.0));
        assert_eq!(CommCostModel::new().predict_allreduce(&devs, bytes), None);
    }
}
