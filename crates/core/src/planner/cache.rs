//! Fingerprint-keyed plan memoization, shareable across jobs.
//!
//! A plan only depends on (a) the structure of the graph being planned,
//! (b) the *shape* of the live cluster slice, (c) — for cost-model-driven
//! planners — the state of the adaptive cost models, (d) the planning
//! context (parameter-server pinning, order enforcement), and (e) the
//! planner's own parameters. The [`Fingerprint`] captures exactly those
//! five, so fault recovery, drift re-profiling, *and other jobs* can reuse
//! still-valid candidates: re-planning after a memory-pressure spike on an
//! unchanged cluster is a cache hit, a second job arriving with the same
//! model on a same-shaped allocation is a cache hit, while a blacklisted
//! device or a cost-model refit changes the fingerprint and forces a fresh
//! computation.
//!
//! Shareability rests on two mechanisms. First, the capacity mask is
//! [`Topology::shape_hash`] — position-independent, so an allocation over
//! GPUs `{4, 5}` fingerprints identically to one over `{0, 1}` of the same
//! shape. Second, plans are *stored in canonical coordinates*
//! ([`Topology::canonical_live_devices`]): insertion maps each placement
//! device to its canonical slot, lookup maps slots back to the caller's
//! live devices — so a plan computed by job N on one slice deploys
//! correctly on job N+1's differently-numbered twin.

use super::{Planner, PlannerKind};
use crate::strategy::Plan;
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
use fastt_sim::seed::splitmix64;
use fastt_sim::Placement;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Cache key for one (planner, planning inputs) combination.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// [`Graph::structure_hash`] of the planning input: the base graph for
    /// most planners, the raw training graph for start strategies (which
    /// build their own replication).
    pub graph_hash: u64,
    /// [`Topology::shape_hash`] of the live slice: per-device capacity
    /// signatures plus the canonical link matrix with its failure and
    /// degradation marks. Any capacity change — failure, restore, hot-add,
    /// link fault — changes the mask, while two same-shaped allocations
    /// over *different* physical ids share it (that is what makes the
    /// cache shareable across jobs).
    pub capacity_mask: u64,
    /// [`CostModels::generation`] at planning time for planners that
    /// consult the cost models; 0 for those that do not, so their cached
    /// plans survive refits.
    pub cost_generation: u64,
    /// Hash of the planning context ([`FingerprintContext`]): the pinned
    /// parameter server (in canonical coordinates), order enforcement, and
    /// — once the cost models have diverged from their shared priors — the
    /// session's cache salt, so two jobs whose *fitted* models merely
    /// reached the same generation count never collide.
    pub context: u64,
    /// [`Planner::name`] — two planners never share a slot.
    pub planner: &'static str,
    /// [`Planner::fingerprint_extra`]: tuning parameters and RNG seeds.
    pub extra: u64,
    /// The order-canonical hash of a region for region *sub-plan* entries
    /// (which also use it as the graph component, see
    /// [`PlanCache::get_region`]); 0 for whole-plan entries. A whole
    /// graph's region tree is a function of `graph_hash` (custom
    /// decomposition options are in `extra`), so folding it in would add
    /// no discrimination — only a decomposition on the lookup path.
    pub region_hash: u64,
}

/// Session-side planning context folded into [`Fingerprint::context`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FingerprintContext {
    /// Pinned data-parallel parameter server, if any.
    pub dp_ps: Option<DeviceId>,
    /// Whether planners may emit an enforced execution order.
    pub enable_order: bool,
    /// Per-session salt separating *fitted* cost-model states across jobs
    /// sharing one cache. Only applied for cost-model-driven planners once
    /// `CostModels::generation() > 0`: generation-0 models are pure priors,
    /// content-identical for every fresh session, so their plans may be
    /// shared salt-free — which is exactly the "job N+1 gets an instant
    /// hit" admission path.
    pub cache_salt: u64,
}

impl Fingerprint {
    /// Computes the fingerprint `planner` would be cached under for these
    /// inputs. `raw` is the unreplicated training graph (used as the graph
    /// component for start-strategy planners); pass `None` when absent —
    /// such fingerprints hash the planning graph instead.
    pub fn compute(
        planner: &dyn Planner,
        graph: &Graph,
        raw: Option<&Graph>,
        topo: &Topology,
        cost: &CostModels,
        ctx: &FingerprintContext,
    ) -> Fingerprint {
        let graph_hash = match (planner.kind(), raw) {
            (PlannerKind::StartStrategy, Some(r)) => r.structure_hash(),
            _ => graph.structure_hash(),
        };
        let uses_cost = planner.uses_cost_models();
        let mut context = splitmix64(0xC0DE ^ ctx.enable_order as u64);
        // the PS device in canonical coordinates: slot + 1, 0 when unset
        // or dead (planners ignore a dead PS, so the plan is PS-free)
        let ps_slot = match ctx.dp_ps {
            Some(d) if !topo.is_failed(d) => topo
                .canonical_live_devices()
                .iter()
                .position(|&c| c == d)
                .map_or(0, |i| i as u64 + 1),
            _ => 0,
        };
        context ^= splitmix64(0xD9_0000 ^ ps_slot);
        if uses_cost && cost.generation() > 0 {
            context ^= splitmix64(ctx.cache_salt);
        }
        Fingerprint {
            graph_hash,
            capacity_mask: topo.shape_hash(),
            cost_generation: if uses_cost { cost.generation() } else { 0 },
            context,
            planner: planner.name(),
            extra: planner.fingerprint_extra(),
            region_hash: 0,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Fingerprint, Plan>,
    order: VecDeque<Fingerprint>,
    cap: usize,
    hits: u64,
    misses: u64,
    region_hits: u64,
    region_misses: u64,
}

/// A bounded FIFO memo of computed plans, keyed by [`Fingerprint`] and
/// stored in canonical device coordinates.
///
/// Interior-mutable (`&self` lookups and inserts behind a [`Mutex`]), so
/// one `Arc<PlanCache>` can be shared by every session in a fleet;
/// concurrent racers on the same fingerprint stay deterministic — both
/// store byte-identical plans, last write wins harmlessly. Hit/miss
/// counters survive [`PlanCache::clear`] so a session can report
/// cumulative reuse.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(64)
    }
}

impl PlanCache {
    /// Creates a cache holding at most `cap` plans (at least one).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                cap: cap.max(1),
                ..Inner::default()
            }),
        }
    }

    /// Looks up a plan, counting the hit or miss. `topo` is the caller's
    /// live slice: the stored canonical-coordinate placement is remapped
    /// onto its canonical device order, so a plan cached by a job on a
    /// twin slice deploys on this one. A stored slot outside the slice
    /// (possible only across a shape-hash collision) is counted a miss
    /// rather than served broken.
    pub fn get(&self, fp: &Fingerprint, topo: &Topology) -> Option<Plan> {
        self.lookup(fp, topo, false)
    }

    /// Looks up a *region sub-plan* (stored by a region-aware planner's
    /// within-region pass). Same canonical-coordinate remapping as
    /// [`PlanCache::get`], but counted under the separate
    /// [`PlanCache::region_hits`] / [`PlanCache::region_misses`] pair so
    /// whole-plan admission accounting (the pinned fleet-twin invariant)
    /// is unaffected by region traffic.
    pub fn get_region(&self, fp: &Fingerprint, topo: &Topology) -> Option<Plan> {
        self.lookup(fp, topo, true)
    }

    fn lookup(&self, fp: &Fingerprint, topo: &Topology, region: bool) -> Option<Plan> {
        let canon = topo.canonical_live_devices();
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        let remapped = inner.map.get(fp).and_then(|p| {
            let devs: Option<Vec<DeviceId>> = p
                .placement
                .iter()
                .map(|(_, slot)| canon.get(slot.index()).copied())
                .collect();
            devs.map(|d| {
                let mut plan = p.clone();
                plan.placement = Placement::new(d);
                plan
            })
        });
        match remapped {
            Some(p) => {
                if region {
                    inner.region_hits += 1;
                } else {
                    inner.hits += 1;
                }
                Some(p)
            }
            None => {
                if region {
                    inner.region_misses += 1;
                } else {
                    inner.misses += 1;
                }
                None
            }
        }
    }

    /// Stores a plan, evicting the oldest entry when full. The placement
    /// is translated into canonical slot coordinates first; a plan placing
    /// on a device outside `topo`'s live set cannot be canonicalized and
    /// is silently skipped (never cached) rather than stored corrupt.
    pub fn insert(&self, fp: Fingerprint, plan: &Plan, topo: &Topology) {
        self.store(fp, plan, topo);
    }

    /// Stores a region sub-plan (see [`PlanCache::get_region`]); shares
    /// the bounded FIFO store with whole plans.
    pub fn insert_region(&self, fp: Fingerprint, plan: &Plan, topo: &Topology) {
        self.store(fp, plan, topo);
    }

    fn store(&self, fp: Fingerprint, plan: &Plan, topo: &Topology) {
        let canon = topo.canonical_live_devices();
        let mut slot = vec![None; topo.device_count()];
        for (i, d) in canon.iter().enumerate() {
            slot[d.index()] = Some(DeviceId(i as u16));
        }
        let devs: Option<Vec<DeviceId>> = plan
            .placement
            .iter()
            .map(|(_, d)| slot.get(d.index()).copied().flatten())
            .collect();
        let Some(devs) = devs else { return };
        let mut canonical = plan.clone();
        canonical.placement = Placement::new(devs);
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if inner.map.insert(fp.clone(), canonical).is_none() {
            inner.order.push_back(fp);
            while inner.order.len() > inner.cap {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("plan cache poisoned").hits
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("plan cache poisoned").misses
    }

    /// Cumulative region sub-plan hits (counted separately from
    /// [`PlanCache::hits`]).
    pub fn region_hits(&self) -> u64 {
        self.inner.lock().expect("plan cache poisoned").region_hits
    }

    /// Cumulative region sub-plan misses (counted separately from
    /// [`PlanCache::misses`]).
    pub fn region_misses(&self) -> u64 {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .region_misses
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.clear();
        inner.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint {
            graph_hash: n,
            capacity_mask: 0,
            cost_generation: 0,
            context: 0,
            planner: "test",
            extra: 0,
            region_hash: 0,
        }
    }

    fn plan_on(devs: Vec<DeviceId>) -> Plan {
        Plan {
            graph: Graph::new(),
            splits: Vec::new(),
            placement: Placement::new(devs),
            order: None,
            est_finish: 1.0,
        }
    }

    fn plan() -> Plan {
        plan_on(Vec::new())
    }

    #[test]
    fn fifo_eviction_and_counters() {
        let t = Topology::single_server(2);
        let c = PlanCache::new(2);
        assert!(c.get(&fp(1), &t).is_none());
        c.insert(fp(1), &plan(), &t);
        c.insert(fp(2), &plan(), &t);
        assert!(c.get(&fp(1), &t).is_some());
        c.insert(fp(3), &plan(), &t); // evicts fp(1), the oldest
        assert_eq!(c.len(), 2);
        assert!(c.get(&fp(1), &t).is_none());
        assert!(c.get(&fp(3), &t).is_some());
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 2, "counters survive clear()");
    }

    #[test]
    fn reinsert_does_not_duplicate_eviction_slot() {
        let t = Topology::single_server(2);
        let c = PlanCache::new(2);
        c.insert(fp(1), &plan(), &t);
        c.insert(fp(1), &plan(), &t);
        c.insert(fp(2), &plan(), &t);
        assert_eq!(c.len(), 2);
        assert!(c.get(&fp(1), &t).is_some());
    }

    #[test]
    fn capacity_mask_reflects_blacklist() {
        let mut t = Topology::single_server(4);
        let m0 = t.shape_hash();
        t.fail_device(DeviceId(2));
        let m1 = t.shape_hash();
        assert_ne!(m0, m1);
        t.fail_device(DeviceId(0));
        assert_ne!(m1, t.shape_hash());
    }

    #[test]
    fn capacity_mask_invalidates_symmetrically_on_restore_and_growth() {
        // Regression: a plan cached while the cluster was shrunk must never
        // be served after capacity returns. The mask has to move in BOTH
        // directions — on failure and on restore/hot-add alike.
        let mut t = Topology::multi_server(2, 2);
        let healthy = t.shape_hash();
        t.fail_device(DeviceId(1));
        let shrunk = t.shape_hash();
        assert_ne!(healthy, shrunk);
        // restore: back to exactly the healthy fingerprint (same live shape
        // ⇒ same key ⇒ pre-failure cached plans are reusable again)...
        t.restore_device(DeviceId(1));
        assert_eq!(t.shape_hash(), healthy);
        // ...and never the shrunk one
        assert_ne!(t.shape_hash(), shrunk);
        // hot-adding a server grows the live shape: new fingerprint again
        t.add_server(2);
        let grown = t.shape_hash();
        assert_ne!(grown, healthy);
        assert_ne!(grown, shrunk);
    }

    #[test]
    fn stale_shrunk_cluster_plan_is_not_served_after_scale_up() {
        // End-to-end cache behaviour: cache a plan under the shrunk
        // fingerprint, scale back up, and check the lookup misses.
        let mut t = Topology::single_server(4);
        t.fail_device(DeviceId(3));
        let shrunk_fp = Fingerprint {
            capacity_mask: t.shape_hash(),
            ..fp(7)
        };
        let c = PlanCache::new(8);
        c.insert(shrunk_fp.clone(), &plan(), &t);
        assert!(c.get(&shrunk_fp, &t).is_some());
        t.restore_device(DeviceId(3));
        let grown_fp = Fingerprint {
            capacity_mask: t.shape_hash(),
            ..shrunk_fp
        };
        assert!(
            c.get(&grown_fp, &t).is_none(),
            "the shrunk-cluster plan must not survive scale-up"
        );
    }

    #[test]
    fn plans_remap_across_twin_slices() {
        // Cache a plan from an allocation over GPUs {0,1}; read it back
        // through the twin allocation over {2,3}. The placement must come
        // out on the *caller's* devices.
        use fastt_cluster::{Allocation, AllocationId};
        let shared = Topology::single_server(4);
        let a = Allocation::new(AllocationId(0), &shared, &[DeviceId(0), DeviceId(1)]);
        let b = Allocation::new(AllocationId(1), &shared, &[DeviceId(2), DeviceId(3)]);
        let key = Fingerprint {
            capacity_mask: a.shape_hash(),
            ..fp(9)
        };
        assert_eq!(key.capacity_mask, b.shape_hash(), "twin slices share keys");
        let c = PlanCache::new(8);
        c.insert(
            key.clone(),
            &plan_on(vec![DeviceId(0), DeviceId(1), DeviceId(0)]),
            a.topo(),
        );
        let out = c.get(&key, b.topo()).expect("twin hit");
        let devs: Vec<DeviceId> = out.placement.iter().map(|(_, d)| d).collect();
        assert_eq!(devs, vec![DeviceId(2), DeviceId(3), DeviceId(2)]);
        // and reading through the original slice returns the original ids
        let back = c.get(&key, a.topo()).expect("self hit");
        let devs: Vec<DeviceId> = back.placement.iter().map(|(_, d)| d).collect();
        assert_eq!(devs, vec![DeviceId(0), DeviceId(1), DeviceId(0)]);
    }

    #[test]
    fn unmappable_insert_is_skipped_and_bad_slot_is_a_miss() {
        let t = Topology::single_server(2);
        let c = PlanCache::new(8);
        // a plan placing on a device outside the live set cannot be
        // canonicalized — never cached
        c.insert(fp(1), &plan_on(vec![DeviceId(7)]), &t);
        assert!(c.is_empty());
        // a stored slot beyond the caller's slice (shape-collision guard)
        // reads back as a miss, not a broken plan
        let big = Topology::single_server(4);
        c.insert(fp(2), &plan_on(vec![DeviceId(3)]), &big);
        assert_eq!(c.len(), 1);
        assert!(c.get(&fp(2), &t).is_none());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn shared_cache_is_usable_through_arc_from_threads() {
        use std::sync::Arc;
        let t = Topology::single_server(2);
        let c = Arc::new(PlanCache::new(8));
        let key = fp(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let key = key.clone();
                let t = &t;
                s.spawn(move || {
                    if c.get(&key, t).is_none() {
                        c.insert(key.clone(), &plan_on(vec![DeviceId(0)]), t);
                    }
                    assert!(c.get(&key, t).is_some());
                });
            }
        });
        assert_eq!(c.len(), 1, "racers converge on one deterministic entry");
    }
}
