//! Incremental grade-indexed availability accounting for [`crate::PhoneMgr`].
//!
//! The manager's task-plan hot paths — `select`, `available`,
//! `effective_profile` — used to rescan the whole `Vec<PhoneDevice>` on
//! every call, which is O(fleet) per task per grade and the wall between
//! paper-scale fleets (30 phones) and million-device scenarios. This module
//! keeps the answers *incrementally*, and at a cost that follows the phones
//! something has happened to rather than the size of the fleet:
//!
//! * per-`(grade, provenance)` **free sets** ([`FreeSet`]), one bit per
//!   phone of the segment the fleet build laid out for that pair: a phone
//!   leaving or re-entering its set is one word write, and selection walks
//!   the words in the exact order the old sort-based scan produced (local
//!   before MSP, ids ascending);
//! * per-`(grade, provenance)` **totals**, fixed when the fleet is built,
//!   making `count` O(1);
//! * per-grade **sums** of the profiled training/startup durations in
//!   whole microseconds, making `effective_profile` O(1) and exact. The
//!   manager, a phone's only writer, reads the old profile's share before
//!   a re-profile and swaps it for the new one ([`FleetIndex::reprofile`]);
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
//! Each manager write that can move availability re-indexes the phone it
//! changed (`touch`), so a sync has nothing to do but drain the
//! transitions that have come due.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The free ids of one `(grade, provenance)` segment, one bit per phone:
/// bit `i` of word `w` is phone `base + 64 w + i`. Inserting and removing
/// are one word write each, and iteration walks the words in id order.
#[derive(Debug, Default)]
pub(crate) struct FreeSet {
    base: u32,
    words: Vec<u64>,
    len: usize,
}

impl FreeSet {
    /// Every id of `base..base + count`.
    fn full(base: u32, count: usize) -> Self {
        let mut words = vec![u64::MAX; count.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            // Bits past the segment's end name phones of other segments.
            *last >>= (64 - count % 64) % 64;
        }
        FreeSet {
            base,
            words,
            len: count,
        }
    }

    /// Ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The word holding `id` and its bit there.
    fn slot(&self, id: PhoneId) -> (usize, u64) {
        let offset = (id.0 - self.base) as usize;
        (offset / 64, 1 << (offset % 64))
    }

    /// Whether `id` is in the set.
    #[cfg(debug_assertions)]
    pub fn contains(&self, id: PhoneId) -> bool {
        let (w, bit) = self.slot(id);
        self.words[w] & bit != 0
    }

    /// Puts `id` in the set if `free`, takes it out otherwise.
    pub fn set(&mut self, id: PhoneId, free: bool) {
        let (w, bit) = self.slot(id);
        let word = &mut self.words[w];
        if (*word & bit != 0) != free {
            *word ^= bit;
            if free {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
    }

    /// The ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = PhoneId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let base = self.base + 64 * w as u32;
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(PhoneId(base + bit))
            })
        })
    }
}

/// A profile's share of its grade's sums: `(train, startup)` microseconds.
pub(crate) fn contribution(profile: &PhoneProfile) -> (u64, u64) {
    (
        profile.train_duration.as_micros(),
        profile.framework_startup.as_micros(),
    )
}

/// The incremental availability index. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct FleetIndex {
    /// Free (idle, healthy) phones per `[grade][provenance]`, each a bitset
    /// over that pair's one segment.
    free: [[FreeSet; 2]; DeviceGrade::COUNT],
    /// Phones per `[grade][provenance]` (busy or not), fixed at build.
    totals: [[usize; 2]; DeviceGrade::COUNT],
    /// Per-grade `(train, startup)` profile sums in microseconds. Integer,
    /// so they do not depend on the order phones were added in.
    sums: [(u128, u128); DeviceGrade::COUNT],
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
    /// every one free and `count × nominal` in the sums.
    pub fn load_segment(&mut self, seg: &FleetSegment) {
        let (g, s) = (seg.grade.index(), prov_slot(seg.provenance));
        // `FleetSpec::segments` emits one non-empty segment per pair at most.
        debug_assert_eq!(self.totals[g][s], 0, "segment {seg:?} loaded twice");
        self.totals[g][s] = seg.count;
        self.free[g][s] = FreeSet::full(seg.start, seg.count);
        let (train, startup) = contribution(PhoneProfile::nominal(seg.grade));
        self.sums[g].0 += seg.count as u128 * u128::from(train);
        self.sums[g].1 += seg.count as u128 * u128::from(startup);
    }

    /// Swaps a re-profiled phone's `(train, startup)` share in its grade's
    /// sums. A profile change never moves availability, so nothing else is
    /// re-indexed.
    pub fn reprofile(&mut self, grade: DeviceGrade, old: (u64, u64), new: (u64, u64)) {
        let sums = &mut self.sums[grade.index()];
        sums.0 = sums.0 + u128::from(new.0) - u128::from(old.0);
        sums.1 = sums.1 + u128::from(new.1) - u128::from(old.1);
    }

    /// Re-indexes one phone at the index's current high-water instant —
    /// the hook manager APIs call right after they mutate a device's run or
    /// crash state.
    pub fn touch(&mut self, phone: &PhoneDevice) {
        let at = self.indexed_to;
        self.reindex(phone, at);
    }

    /// Re-derives one phone's free-set membership and any future
    /// transition instants from the device itself, as of `at`. Idempotent.
    fn reindex(&mut self, phone: &PhoneDevice, at: SimInstant) {
        let id = phone.id();
        self.free[phone.grade().index()][prov_slot(phone.provenance())]
            .set(id, !phone.is_busy(at) && !phone.is_crashed(at));

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
        for p in phones {
            let g = p.grade().index();
            let s = prov_slot(p.provenance());
            totals[g][s] += 1;
            let (train, startup) = contribution(p.profile());
            sums[g].0 += u128::from(train);
            sums[g].1 += u128::from(startup);
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
    }
}

#[cfg(test)]
impl FleetIndex {
    /// The words allocated to each free set, per `[grade][provenance]`.
    pub fn free_words(&self) -> [[usize; 2]; DeviceGrade::COUNT] {
        self.free
            .each_ref()
            .map(|sets| sets.each_ref().map(|set| set.words.capacity()))
    }
}
