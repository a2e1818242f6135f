//! Incremental grade-indexed availability accounting for [`crate::PhoneMgr`].
//!
//! The manager's task-plan hot paths — `select`, `available`,
//! `effective_profile` — used to rescan the whole `Vec<PhoneDevice>` on
//! every call, which is O(fleet) per task per grade and the wall between
//! paper-scale fleets (30 phones) and million-device scenarios. This module
//! keeps the answers *incrementally*, and at a cost that follows the phones
//! something has happened to rather than the size of the fleet:
//!
//! * per-`(grade, provenance)` **free sets** stored as id ranges
//!   ([`IdRanges`]): a freshly built fleet is one range per segment, each
//!   busy or crashed phone splits a range in two, and selection walks the
//!   ids in the exact order the old sort-based scan produced (local before
//!   MSP, ids ascending);
//! * per-`(grade, provenance)` **totals**, fixed when the fleet is built,
//!   making `count` O(1);
//! * per-grade **sums** of the profiled training/startup durations in
//!   whole microseconds, making `effective_profile` O(1) and exact — plus
//!   the contribution of each phone whose profile is *not* the grade's
//!   nominal one, so a re-profile swaps its old share for the new;
//! * a global min-heap of **availability transitions** — run completions
//!   and scheduled crash onsets — drained lazily as query time advances,
//!   so a phone whose run ends at `t` re-enters its free set the first
//!   time anyone asks about a `now >= t`.
//!
//! Phone availability is a function of virtual time (`is_busy(now)` /
//! `is_crashed(now)`), so the index carries a high-water mark
//! (`indexed_to`) and assumes availability queries arrive with
//! non-decreasing `now` — which the event-driven platform guarantees.
//! `select` additionally re-verifies every candidate against the device
//! state, so even a misuse cannot hand out a busy phone. In debug builds
//! the manager asserts after every sync that the index agrees with one
//! walk over the fleet.
//!
//! The manager is the only writer of a phone, and each of its writes
//! re-indexes the phone it changed (`touch`), so a sync has nothing to do
//! but drain the transitions that have come due.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use simdc_types::{DeviceGrade, PhoneId, SimDuration, SimInstant};

use crate::device::{PhoneDevice, Provenance};
use crate::mgr::FleetSegment;
use crate::profile::PhoneProfile;

/// Provenance slot inside the per-grade bucket arrays.
pub(crate) const fn prov_slot(prov: Provenance) -> usize {
    match prov {
        Provenance::Local => 0,
        Provenance::Msp => 1,
    }
}

/// A set of phone ids kept as disjoint, non-adjacent inclusive ranges
/// (`start → end`).
#[derive(Debug, Default)]
pub(crate) struct IdRanges {
    ranges: BTreeMap<u32, u32>,
    len: usize,
}

impl IdRanges {
    /// Ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The range holding `id`, if any.
    fn range_of(&self, id: u32) -> Option<(u32, u32)> {
        let (&start, &end) = self.ranges.range(..=id).next_back()?;
        (id <= end).then_some((start, end))
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: PhoneId) -> bool {
        self.range_of(id.0).is_some()
    }

    /// Adds every id of `start..=end`, none of which may be present,
    /// coalescing with the ranges that touch either side.
    pub fn insert_range(&mut self, mut start: u32, mut end: u32) {
        debug_assert!(
            self.ranges
                .range(..=end)
                .next_back()
                .is_none_or(|(_, &e)| e < start),
            "id range {start}..={end} overlaps the set"
        );
        self.len += (end - start) as usize + 1;
        if let Some((&s, &e)) = self.ranges.range(..start).next_back() {
            if e + 1 == start {
                start = s;
            }
        }
        if let Some(e) = end
            .checked_add(1)
            .and_then(|next| self.ranges.remove(&next))
        {
            end = e;
        }
        self.ranges.insert(start, end);
    }

    /// Adds one id; a no-op if present.
    pub fn insert(&mut self, id: PhoneId) {
        if !self.contains(id) {
            self.insert_range(id.0, id.0);
        }
    }

    /// Removes one id, splitting its range; a no-op if absent.
    pub fn remove(&mut self, id: PhoneId) {
        let Some((start, end)) = self.range_of(id.0) else {
            return;
        };
        self.len -= 1;
        if start < id.0 {
            self.ranges.insert(start, id.0 - 1);
        } else {
            self.ranges.remove(&start);
        }
        if id.0 < end {
            self.ranges.insert(id.0 + 1, end);
        }
    }

    /// The ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = PhoneId> + '_ {
        self.ranges
            .iter()
            .flat_map(|(&start, &end)| (start..=end).map(PhoneId))
    }
}

/// A profile's share of its grade's sums: `(train, startup)` microseconds.
fn contribution(profile: &PhoneProfile) -> (u64, u64) {
    (
        profile.train_duration.as_micros(),
        profile.framework_startup.as_micros(),
    )
}

/// The share of a phone that was never re-profiled.
fn nominal_contribution(grade: DeviceGrade) -> (u64, u64) {
    contribution(PhoneProfile::nominal(grade))
}

/// The incremental availability index. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct FleetIndex {
    /// Free (idle, healthy) phones per `[grade][provenance]`.
    free: [[IdRanges; 2]; DeviceGrade::COUNT],
    /// Phones per `[grade][provenance]` (busy or not), fixed at build.
    totals: [[usize; 2]; DeviceGrade::COUNT],
    /// Per-grade `(train, startup)` profile sums in microseconds. Integer,
    /// so they do not depend on the order phones were added in.
    sums: [(u128, u128); DeviceGrade::COUNT],
    /// The last-indexed contribution of each phone whose profile is not
    /// its grade's nominal one (absent = nominal) — what a profile change
    /// takes back out of the sums.
    cached_profile: BTreeMap<PhoneId, (u64, u64)>,
    /// Future instants at which a phone's availability may flip (run end,
    /// scheduled crash onset). Entries may be stale — re-indexing is
    /// idempotent, so stale pops are harmless.
    transitions: BinaryHeap<Reverse<(SimInstant, PhoneId)>>,
    /// High-water mark of drained transitions: availability answers are
    /// exact for queries at `now >= indexed_to`.
    indexed_to: SimInstant,
}

impl FleetIndex {
    /// Phones of `grade`, optionally narrowed to a provenance.
    pub fn total(&self, grade: DeviceGrade, provenance: Option<Provenance>) -> usize {
        let bucket = &self.totals[grade.index()];
        match provenance {
            Some(p) => bucket[prov_slot(p)],
            None => bucket[0] + bucket[1],
        }
    }

    /// Free phones of `grade` as of the last sync.
    pub fn free_count(&self, grade: DeviceGrade) -> usize {
        let bucket = &self.free[grade.index()];
        bucket[0].len() + bucket[1].len()
    }

    /// Free ids of `grade` in selection order: local phones first, ids
    /// ascending within each provenance — byte-identical to the order the
    /// old full-fleet sort produced.
    pub fn iter_free(&self, grade: DeviceGrade) -> impl Iterator<Item = PhoneId> + '_ {
        let bucket = &self.free[grade.index()];
        bucket[0].iter().chain(bucket[1].iter())
    }

    /// Mean profiled `(train, startup)` durations over the phones of
    /// `grade`, rounded to the microsecond; `None` for a grade with no
    /// phones.
    pub fn mean_profile(&self, grade: DeviceGrade) -> Option<(SimDuration, SimDuration)> {
        let n = self.total(grade, None) as u128;
        if n == 0 {
            return None;
        }
        // Each term is a u64, so the rounded mean is one too.
        let mean = |sum: u128| {
            SimDuration::from_micros(u64::try_from((sum + n / 2) / n).unwrap_or(u64::MAX))
        };
        let (train, startup) = self.sums[grade.index()];
        Some((mean(train), mean(startup)))
    }

    /// Accounts for a whole segment of freshly built, untouched phones:
    /// one free range and `count × nominal` in the sums.
    pub fn load_segment(&mut self, seg: &FleetSegment) {
        let (g, s) = (seg.grade.index(), prov_slot(seg.provenance));
        self.totals[g][s] += seg.count;
        // `FleetSpec::segments` emits no empty segment.
        self.free[g][s].insert_range(seg.start, seg.start + (seg.count - 1) as u32);
        let (train, startup) = nominal_contribution(seg.grade);
        self.sums[g].0 += seg.count as u128 * u128::from(train);
        self.sums[g].1 += seg.count as u128 * u128::from(startup);
    }

    /// Re-indexes one phone at the index's current high-water instant —
    /// the hook manager APIs call right after they mutate a device.
    pub fn touch(&mut self, phone: &PhoneDevice) {
        let at = self.indexed_to;
        self.reindex(phone, at);
    }

    /// Re-derives one phone's index state from the device itself, as of
    /// `at`: profile contribution, free-set membership, and any future
    /// transition instants. Idempotent.
    fn reindex(&mut self, phone: &PhoneDevice, at: SimInstant) {
        let id = phone.id();
        let g = phone.grade().index();

        // Profile sums: swap the cached contribution for the current one.
        let nominal = nominal_contribution(phone.grade());
        let new = contribution(phone.profile());
        let old = if new == nominal {
            self.cached_profile.remove(&id)
        } else {
            self.cached_profile.insert(id, new)
        }
        .unwrap_or(nominal);
        if old != new {
            let sums = &mut self.sums[g];
            sums.0 = sums.0 + u128::from(new.0) - u128::from(old.0);
            sums.1 = sums.1 + u128::from(new.1) - u128::from(old.1);
        }

        // Free-set membership as of `at`.
        let set = &mut self.free[g][prov_slot(phone.provenance())];
        if phone.is_busy(at) || phone.is_crashed(at) {
            set.remove(id);
        } else {
            set.insert(id);
        }

        // Future flips: the run's end frees the phone; a scheduled crash
        // onset removes it. Reboots have no instant of their own — they
        // arrive as explicit manager calls and re-index immediately.
        if let Some(run) = phone.run() {
            if run.end() > at {
                self.transitions.push(Reverse((run.end(), id)));
            }
        }
        if let Some(crash_at) = phone.crashed_at() {
            if crash_at > at {
                self.transitions.push(Reverse((crash_at, id)));
            }
        }
    }

    /// Brings the index up to `now` by draining the transitions due by
    /// then; phone `id` is `phones[id]`. O(k log F) in the number of due
    /// transitions — independent of fleet size on the steady-state path.
    pub fn sync(&mut self, now: SimInstant, phones: &[PhoneDevice]) {
        let at = self.indexed_to.max(now);
        self.indexed_to = at;
        while let Some(&Reverse((t, id))) = self.transitions.peek() {
            if t > at {
                break;
            }
            self.transitions.pop();
            self.reindex(&phones[id.0 as usize], at);
        }
    }

    /// Parity check (debug builds): one walk over the fleet at the index's
    /// high-water instant must find exactly the free sets, totals and
    /// profile sums the index holds. Phone ids are unique, so "every free
    /// phone is in its set" plus equal counts is set equality.
    #[cfg(debug_assertions)]
    pub fn assert_parity(&self, phones: &[PhoneDevice]) {
        let at = self.indexed_to;
        let mut free = [[0usize; 2]; DeviceGrade::COUNT];
        let mut totals = [[0usize; 2]; DeviceGrade::COUNT];
        let mut sums = [(0u128, 0u128); DeviceGrade::COUNT];
        let mut off_nominal = 0usize;
        let nominal = DeviceGrade::ALL.map(nominal_contribution);
        for p in phones {
            let g = p.grade().index();
            let s = prov_slot(p.provenance());
            totals[g][s] += 1;
            let (train, startup) = contribution(p.profile());
            sums[g].0 += u128::from(train);
            sums[g].1 += u128::from(startup);
            if (train, startup) != nominal[g] {
                off_nominal += 1;
            }
            if !p.is_busy(at) && !p.is_crashed(at) {
                free[g][s] += 1;
                assert!(
                    self.free[g][s].contains(p.id()),
                    "free phone {} is missing from the fleet index at {at}",
                    p.id()
                );
            }
        }
        for (sets, counts) in self.free.iter().zip(free) {
            for (set, count) in sets.iter().zip(counts) {
                assert_eq!(
                    (set.len(), set.iter().count()),
                    (count, count),
                    "fleet index free set holds phones a full rescan at {at} finds busy"
                );
            }
        }
        assert_eq!(self.totals, totals, "fleet index totals diverged");
        assert_eq!(self.sums, sums, "fleet index profile sums diverged");
        assert_eq!(
            self.cached_profile.len(),
            off_nominal,
            "fleet index caches a contribution for a nominal phone"
        );
    }
}

#[cfg(test)]
impl FleetIndex {
    /// Free ranges held across all `(grade, provenance)` sets.
    pub fn free_ranges(&self) -> usize {
        self.free.iter().flatten().map(|set| set.ranges.len()).sum()
    }

    /// Phones with a cached non-nominal contribution.
    pub fn cached_profiles(&self) -> usize {
        self.cached_profile.len()
    }
}
