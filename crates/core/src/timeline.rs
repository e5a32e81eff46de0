//! Per-device schedule timelines with idle-slot insertion.
//!
//! The paper's `avail[j]` "is not the time when d_j completes the execution
//! of its last assigned operation: it is possible for our algorithm to insert
//! an operation into an earliest idle time slot between two already-scheduled
//! operations on a device" (Sec. 5.1). This module implements that exact
//! insertion policy.
//!
//! The search starts at the first busy interval that ends after `ready`,
//! found by binary search, instead of at time zero. That is exact: the
//! intervals are disjoint and sorted, so their ends are sorted too, and an
//! interval ending at or before `ready` can neither hold the op (it lies
//! wholly before `ready`) nor push the candidate start past `ready`.

/// The scheduled busy intervals of one device, kept sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    /// Disjoint, sorted `(start, end)` busy intervals.
    intervals: Vec<(f64, f64)>,
}

impl DeviceTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest start time `t ≥ ready` such that `[t, t + duration)` fits
    /// entirely in an idle gap (possibly between two scheduled ops, possibly
    /// after the last one).
    ///
    /// Costs `O(log n)` to skip the intervals ending at or before `ready`,
    /// plus one step per interval scanned after that until a gap fits.
    pub fn earliest_slot(&self, ready: f64, duration: f64) -> f64 {
        let first = self.intervals.partition_point(|&(_, e)| e <= ready);
        let mut t = ready;
        for &(s, e) in &self.intervals[first..] {
            if t + duration <= s {
                // fits in the gap before this interval
                return t;
            }
            if e > t {
                t = e;
            }
        }
        t
    }

    /// Reserves `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the reservation overlaps an existing
    /// interval — callers must reserve at a time returned by
    /// [`DeviceTimeline::earliest_slot`].
    pub fn reserve(&mut self, start: f64, duration: f64) {
        let end = start + duration;
        let idx = self.intervals.partition_point(|&(s, _)| s < start);
        debug_assert!(
            idx == 0 || self.intervals[idx - 1].1 <= start + 1e-12,
            "overlaps previous interval"
        );
        debug_assert!(
            idx == self.intervals.len() || end <= self.intervals[idx].0 + 1e-12,
            "overlaps next interval"
        );
        if duration > 0.0 {
            self.intervals.insert(idx, (start, end));
        }
    }

    /// Time when the last scheduled interval ends (0 if empty).
    pub fn horizon(&self) -> f64 {
        self.intervals.last().map(|&(_, e)| e).unwrap_or(0.0)
    }

    /// Total scheduled busy time.
    pub fn busy_time(&self) -> f64 {
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }

    /// Number of scheduled intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original search: scan every busy interval from time zero.
    fn earliest_slot_from_zero(t: &DeviceTimeline, ready: f64, duration: f64) -> f64 {
        let mut at = ready;
        for &(s, e) in &t.intervals {
            if at + duration <= s {
                return at;
            }
            if e > at {
                at = e;
            }
        }
        at
    }

    /// SplitMix64: a tiny seeded generator, so the test needs no crate.
    struct SplitMix64(u64);

    impl SplitMix64 {
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

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A duration: usually positive, sometimes zero, sometimes +∞ (a hop
    /// over a partitioned pair is priced at +∞).
    fn duration(rng: &mut SplitMix64) -> f64 {
        match rng.below(10) {
            0 => 0.0,
            1 => f64::INFINITY,
            2 => 0.25 * (1 + rng.below(8)) as f64,
            _ => rng.unit() * 3.0,
        }
    }

    /// A ready time before, inside, exactly on the start or end of, between
    /// or after the busy intervals.
    fn ready(rng: &mut SplitMix64, t: &DeviceTimeline) -> f64 {
        let iv = &t.intervals;
        if iv.is_empty() || rng.below(8) == 0 {
            return rng.unit() * 40.0;
        }
        let (s, e) = iv[rng.below(iv.len() as u64) as usize];
        match rng.below(6) {
            0 => s,
            1 => e,
            2 if e.is_finite() => s + (e - s) * rng.unit(),
            3 => (s - rng.unit() * 2.0).max(0.0),
            4 if e.is_finite() => e + rng.unit() * 2.0,
            _ => t.horizon(),
        }
    }

    #[test]
    fn indexed_search_matches_from_zero_scan() {
        let mut queries = 0;
        for seed in 0..96u64 {
            let mut rng = SplitMix64(seed);
            let mut t = DeviceTimeline::new();
            for _ in 0..(8 + rng.below(48)) {
                // probe a few (ready, duration) pairs, then reserve one
                for _ in 0..4 {
                    let (r, d) = (ready(&mut rng, &t), duration(&mut rng));
                    let want = earliest_slot_from_zero(&t, r, d);
                    let got = t.earliest_slot(r, d);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed}: ready {r}, duration {d} on {:?}",
                        t.intervals
                    );
                    queries += 1;
                }
                let (r, d) = (ready(&mut rng, &t), duration(&mut rng));
                let at = t.earliest_slot(r, d);
                assert_eq!(at.to_bits(), earliest_slot_from_zero(&t, r, d).to_bits());
                t.reserve(at, d);
            }
        }
        assert!(queries > 96 * 32);
    }

    #[test]
    fn ready_on_an_interval_edge() {
        let mut t = DeviceTimeline::new();
        t.reserve(2.0, 3.0); // [2, 5)
        t.reserve(6.0, 1.0); // [6, 7)
                             // ready exactly at an end: the interval is skipped, the gap fits
        assert_eq!(t.earliest_slot(5.0, 1.0), 5.0);
        assert_eq!(t.earliest_slot(5.0, 1.5), 7.0);
        // zero-length ops fit at any idle instant, including an end
        assert_eq!(t.earliest_slot(5.0, 0.0), 5.0);
        assert_eq!(t.earliest_slot(3.0, 0.0), 5.0);
        // an infinite op only fits after the last interval
        assert_eq!(t.earliest_slot(0.0, f64::INFINITY), 7.0);
        t.reserve(7.0, f64::INFINITY);
        assert_eq!(t.earliest_slot(8.0, 1.0), f64::INFINITY);
        assert_eq!(t.earliest_slot(0.0, 2.0), 0.0);
    }

    #[test]
    fn appends_after_ready_time() {
        let mut t = DeviceTimeline::new();
        assert_eq!(t.earliest_slot(5.0, 2.0), 5.0);
        t.reserve(5.0, 2.0);
        assert_eq!(t.earliest_slot(0.0, 1.0), 0.0); // gap before 5.0
        assert_eq!(t.earliest_slot(6.0, 1.0), 7.0); // mid-interval pushes out
    }

    #[test]
    fn inserts_into_sufficient_gap() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 2.0);
        t.reserve(10.0, 2.0);
        // a 3-second op fits in the [2, 10) gap
        assert_eq!(t.earliest_slot(0.0, 3.0), 2.0);
        // a 9-second op does not; it goes after everything
        assert_eq!(t.earliest_slot(0.0, 9.0), 12.0);
    }

    #[test]
    fn gap_too_short_is_skipped() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 1.0);
        t.reserve(2.0, 1.0);
        t.reserve(5.0, 1.0);
        // 1.5s doesn't fit in [1,2) but fits in [3,5)
        assert_eq!(t.earliest_slot(0.0, 1.5), 3.0);
    }

    #[test]
    fn respects_ready_time_inside_gap() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 1.0);
        t.reserve(10.0, 1.0);
        assert_eq!(t.earliest_slot(4.0, 2.0), 4.0);
        // ready late in the gap such that it no longer fits
        assert_eq!(t.earliest_slot(9.5, 2.0), 11.0);
    }

    #[test]
    fn zero_duration_ops_do_not_pollute() {
        let mut t = DeviceTimeline::new();
        t.reserve(1.0, 0.0);
        assert!(t.is_empty());
        assert_eq!(t.horizon(), 0.0);
    }

    #[test]
    fn busy_time_and_horizon() {
        let mut t = DeviceTimeline::new();
        t.reserve(0.0, 2.0);
        t.reserve(5.0, 3.0);
        assert_eq!(t.busy_time(), 5.0);
        assert_eq!(t.horizon(), 8.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reserving_returned_slots_never_overlaps() {
        let mut t = DeviceTimeline::new();
        let durations = [3.0, 1.0, 4.0, 1.5, 0.5, 2.0, 8.0];
        for (i, &d) in durations.iter().enumerate() {
            let ready = (i as f64 * 1.3) % 4.0;
            let s = t.earliest_slot(ready, d);
            t.reserve(s, d); // debug_asserts verify no overlap
        }
        assert_eq!(t.len(), durations.len());
    }
}
