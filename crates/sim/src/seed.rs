//! Deterministic seed derivation, unified.
//!
//! Every seeded surface in the workspace — the fleet's arrival workload
//! (`fastt::fleet::seeded_workload`), per-job session seeds, the black-box
//! search planners, and the fuzzer's scenario generator — used to derive
//! sub-seeds with its own local LCG or splitmix-and-salt arithmetic. [`SeedStream`] is the one shared utility:
//! a root seed plus a **domain tag** yields a stream whose draws are
//! collision-free against every other domain, and the domain registry
//! ([`domains`]) documents all reserved tags in one place.
//!
//! Two draw styles are exposed, matching the two styles the codebase
//! already relies on:
//!
//! * [`SeedStream::pick`] — *stateless*, salt-indexed: the draw for salt
//!   `s` is a pure function of `(root, domain, s)`, so call order cannot
//!   perturb other draws. The fuzzer's scenario generator uses this.
//! * [`SeedStream::next`] — *sequential*: a classic 64-bit LCG (MMIX
//!   constants, top-31-bit output) whose draws depend on call order.
//!   Workload generation uses this.
//!
//! Both are cheap, dependency-free, and byte-stable across platforms, so
//! anything derived from them can be pinned in same-seed determinism
//! tests.

/// splitmix64 — the cheap deterministic hash underlying all stateless
/// derivations (the same finalizer the simulator's jitter stream uses).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The registry of reserved domain tags. A domain tag is XORed into the
/// root seed before any derivation, so two streams over the same root
/// seed but different domains never collide. Add new tags here — nowhere
/// else — so the full derivation story stays documented in one place.
pub mod domains {
    /// `fastt::fleet::seeded_workload` — the multi-tenant arrival
    /// schedule (sequential draws).
    pub const FLEET_WORKLOAD: u64 = 0x5ee3_f1ee_7c0f_fee5;
    /// `fastt-fuzz` scenario enumeration (one sub-domain per axis is
    /// derived from this root via [`SeedStream::split`](super::SeedStream::split)).
    pub const FUZZ: u64 = 0xF0_22_ED_0A;
}

/// Reserved root seeds for the black-box search planners' `Default`
/// impls. Kept as small distinct primes for historical compatibility
/// (changing them would silently re-seed every default-configured
/// searcher); what matters is that they are distinct and live here,
/// next to every other reserved seed.
pub mod planner_roots {
    /// `ReinforcePlanner::default().seed`.
    pub const REINFORCE: u64 = 11;
    /// `CemPlanner::default().seed`.
    pub const CEM: u64 = 13;
    /// `McmcPlanner::default().seed`.
    pub const MCMC: u64 = 17;
    /// `RandomPlanner::default().seed`.
    pub const RANDOM: u64 = 19;
}

/// A splittable deterministic seed stream: a `(root seed, domain tag)`
/// pair supporting stateless salt-indexed draws, sequential LCG draws,
/// and collision-free sub-stream derivation. See the [module docs](self)
/// for the two draw styles and the [`domains`] registry.
#[derive(Debug, Clone)]
pub struct SeedStream {
    /// `root ^ domain` — the base all stateless draws hash from.
    base: u64,
    /// Sequential LCG state (starts at `base`).
    state: u64,
}

impl SeedStream {
    /// A stream over `seed` with no domain separation (tag `0`).
    pub fn new(seed: u64) -> Self {
        SeedStream {
            base: seed,
            state: seed,
        }
    }

    /// A domain-separated stream: draws are disjoint from every stream
    /// over the same seed with a different tag. Use a tag from
    /// [`domains`].
    pub fn domain(seed: u64, tag: u64) -> Self {
        Self::new(seed ^ tag)
    }

    /// Stateless salt-indexed draw in `0..modulo` (`0` when `modulo` is
    /// `0`). Pure in `(base, salt)`: reordering or interleaving calls
    /// cannot change any draw.
    pub fn pick(&self, salt: u64, modulo: u64) -> u64 {
        if modulo == 0 {
            0
        } else {
            splitmix64(self.base ^ splitmix64(salt)) % modulo
        }
    }

    /// Full-width stateless sub-seed for salt `salt` — hand these to
    /// other seeded components (a `SimConfig`, a searcher) so sibling
    /// components never share a stream.
    pub fn subseed(&self, salt: u64) -> u64 {
        splitmix64(self.base ^ splitmix64(salt))
    }

    /// A child stream rooted at [`SeedStream::subseed`]`(salt)` —
    /// collision-free against the parent and against any sibling split
    /// off with a different salt.
    pub fn split(&self, salt: u64) -> SeedStream {
        Self::new(self.subseed(salt))
    }

    /// The per-index derived seed `base + index · φ64` (golden-ratio
    /// stride, wrapping) — the scheme the fleet uses for per-job session
    /// seeds, kept as a named derivation so it is documented here.
    pub fn indexed(&self, index: u64) -> u64 {
        self.base
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Sequential draw: one LCG step (MMIX multiplier/increment), top 31
    /// bits returned. Order-dependent — use for workload-style streams
    /// where draws are consumed in a fixed documented order.
    ///
    /// Deliberately named like `Iterator::next` (it is the stream's
    /// sequential draw) without implementing the trait: the stream is
    /// infinite and the stateless accessors would make an `Iterator`
    /// impl misleading.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_stateless_and_salt_sensitive() {
        let s = SeedStream::domain(21, domains::FUZZ);
        assert_eq!(s.pick(4, 100), s.pick(4, 100));
        let distinct = (0..64u64)
            .map(|salt| s.pick(salt, u64::MAX))
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(distinct.len(), 64, "salts must not collide");
    }

    #[test]
    fn domains_do_not_collide() {
        let a = SeedStream::domain(7, domains::FLEET_WORKLOAD);
        let b = SeedStream::domain(7, domains::FUZZ);
        assert_ne!(a.pick(1, u64::MAX), b.pick(1, u64::MAX));
        assert_ne!(a.subseed(1), b.subseed(1));
    }

    #[test]
    fn splits_are_collision_free() {
        let root = SeedStream::domain(3, domains::FUZZ);
        let mut seen = std::collections::HashSet::new();
        for salt in 0..32u64 {
            let child = root.split(salt);
            assert!(seen.insert(child.pick(0, u64::MAX)));
        }
        // children diverge from the parent too
        assert_ne!(root.split(0).pick(5, u64::MAX), root.pick(5, u64::MAX));
    }

    #[test]
    fn sequential_stream_is_reproducible() {
        let mut a = SeedStream::domain(9, domains::FLEET_WORKLOAD);
        let mut b = SeedStream::domain(9, domains::FLEET_WORKLOAD);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        // 31-bit output
        assert!(xs.iter().all(|&x| x < (1 << 31)));
    }

    #[test]
    fn indexed_matches_golden_stride() {
        let s = SeedStream::new(21);
        assert_eq!(s.indexed(0), 21);
        assert_eq!(
            s.indexed(3),
            21u64.wrapping_add(3u64.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        );
    }
}
