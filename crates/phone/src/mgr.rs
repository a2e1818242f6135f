//! PhoneMgr: selection, task submission and performance measurement.
//!
//! # Grade-indexed availability
//!
//! Fleet queries on the task-plan path — [`PhoneMgr::select`],
//! [`PhoneMgr::available`], [`PhoneMgr::count`],
//! [`PhoneMgr::effective_profile`] — are answered from an incremental
//! per-`(grade, provenance)` index (the private `index` module) instead of
//! rescanning the fleet, so planning a task costs O(k log F) in the number
//! of phones it touches, not O(F) in the fleet size. The index is
//! maintained on every state transition the manager performs
//! (registration, retirement, run submission, crash, reboot, profile
//! change); raw mutations through [`PhoneMgr::phone_mut`] are tracked as
//! dirty and re-indexed on the next query. Debug builds cross-check every
//! synced query against one walk over the fleet.
//!
//! # What a fleet costs
//!
//! A phone nothing has happened to is a 24-byte [`PhoneDevice`] record in
//! one dense vector and nothing else: no map entry, no set entry, no
//! profile copy. Lookup by id follows the *slot rule* — a phone sits at
//! slot `id` unless the `displaced` map says otherwise — and
//! [`PhoneMgr::with_fleet`] loads the index with one id range per
//! segment, so building a fleet costs one vector fill.
//!
//! Availability is time-dependent (runs end, crashes strike), so index
//! queries assume a non-decreasing `now` — the discrete-event platform's
//! natural clock discipline. `select` re-verifies candidates against
//! device state regardless, so a violated assumption can under-report
//! availability but never hand out a busy phone.

#[expect(
    clippy::disallowed_types,
    reason = "reviewed interior-mutability exception to the clippy.toml ban: the lazy \
              fleet index memoises on the `&self` read path of a single-threaded \
              manager. The cell makes `PhoneMgr` `!Sync`, so rustc rejects any \
              `run_batch` worker closure that captures it — only the serial prepare \
              and merge phases can borrow the manager"
)]
use std::cell::RefCell;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simdc_simrt::TimeSeries;
use simdc_types::{DeviceGrade, PerGrade, PhoneId, Result, SimDuration, SimInstant, SimdcError};

use crate::device::{PhoneDevice, Provenance};
use crate::index::FleetIndex;
use crate::measure::{aggregate_stages, PerfReport, PerfSample};
use crate::profile::PhoneProfile;
use crate::stage::{RunPlan, Stage};

/// Fleet composition used by [`PhoneMgr::paper_default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Local phones per grade.
    pub local: PerGrade<usize>,
    /// Remote MSP phones per grade.
    pub msp: PerGrade<usize>,
}

impl FleetSpec {
    /// The paper's default cluster (§VI-A): 10 local (4 High / 6 Low) and
    /// 20 MSP (13 High / 7 Low) phones.
    #[must_use]
    pub fn paper_default() -> Self {
        FleetSpec {
            local: PerGrade::from_parts(4, 6),
            msp: PerGrade::from_parts(13, 7),
        }
    }

    /// The paper's fleet composition scaled to `total` phones (ratios
    /// 4:6:13:7 local-High : local-Low : MSP-High : MSP-Low), with any
    /// rounding remainder absorbed by the MSP-Low pool. The scale
    /// scenarios build 100k–1M-phone fleets this way.
    #[must_use]
    pub fn scaled_paper(total: usize) -> Self {
        let part = |num: usize| total * num / 30;
        let (lh, ll, mh) = (part(4), part(6), part(13));
        FleetSpec {
            local: PerGrade::from_parts(lh, ll),
            msp: PerGrade::from_parts(mh, total - lh - ll - mh),
        }
    }

    /// Total phones across grades and provenances, saturating at
    /// `usize::MAX` (counts come from spec files; a sum that wraps would
    /// pass for a small fleet).
    #[must_use]
    pub fn total(&self) -> usize {
        DeviceGrade::ALL
            .iter()
            .flat_map(|&g| [*self.local.get(g), *self.msp.get(g)])
            .fold(0, usize::saturating_add)
    }

    /// The fleet as contiguous id-range segments in registration order
    /// (every Local grade, then every MSP grade): what
    /// [`PhoneMgr::with_fleet`] fills the roster and loads the index from,
    /// one range each.
    ///
    /// # Panics
    ///
    /// Panics if the fleet exceeds `u32::MAX` phones — ids are `u32`.
    /// Scenario specs are checked against that bound when validated.
    #[must_use]
    pub fn segments(&self) -> Vec<FleetSegment> {
        assert!(
            self.total() <= u32::MAX as usize,
            "a fleet holds at most u32::MAX phones, got {}",
            self.total()
        );
        let mut out = Vec::with_capacity(2 * DeviceGrade::COUNT);
        let mut next_id = 0u32;
        let mut push = |grade: DeviceGrade, provenance: Provenance, count: usize| {
            if count > 0 {
                out.push(FleetSegment {
                    start: next_id,
                    count,
                    grade,
                    provenance,
                });
                next_id += count as u32;
            }
        };
        for grade in DeviceGrade::ALL {
            push(grade, Provenance::Local, *self.local.get(grade));
        }
        for grade in DeviceGrade::ALL {
            push(grade, Provenance::Msp, *self.msp.get(grade));
        }
        out
    }
}

/// One contiguous run of same-`(grade, provenance)` phone ids inside a
/// [`FleetSpec`]'s registration order. Produced by [`FleetSpec::segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSegment {
    /// First phone id in the segment.
    pub start: u32,
    /// Number of phones.
    pub count: usize,
    /// Grade of every phone in the segment.
    pub grade: DeviceGrade,
    /// Provenance of every phone in the segment.
    pub provenance: Provenance,
}

/// The phone-device management module (§IV-C).
///
/// PhoneMgr owns the physical device cluster, selects phones for tasks,
/// submits run plans, and — for benchmarking devices — periodically
/// samples what the paper's ADB command battery reports and aggregates it
/// into Table-I-style reports.
#[derive(Debug)]
pub struct PhoneMgr {
    phones: Vec<PhoneDevice>,
    /// The slot of every phone that is not at slot `id`: fresh
    /// registrations outside the dense range and phones `retire`'s
    /// swap-remove moved. Invariant: a phone at slot `s` with id ≠ `s` has
    /// an entry here, and no other entries exist.
    displaced: BTreeMap<PhoneId, u32>,
    poll_interval: SimDuration,
    /// Incremental availability index; interior mutability keeps the
    /// read-path API (`select`, `available`, `effective_profile`) on
    /// `&self` while the index syncs lazily.
    #[expect(
        clippy::disallowed_types,
        reason = "reviewed: see the `RefCell` import"
    )]
    index: RefCell<FleetIndex>,
}

impl PhoneMgr {
    /// Creates an empty manager polling benchmark devices every
    /// `poll_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `poll_interval` is zero.
    #[must_use]
    #[expect(
        clippy::disallowed_types,
        reason = "reviewed: see the `RefCell` import"
    )]
    pub fn new(poll_interval: SimDuration) -> Self {
        assert!(!poll_interval.is_zero(), "poll interval must be positive");
        PhoneMgr {
            phones: Vec::new(),
            displaced: BTreeMap::new(),
            poll_interval,
            index: RefCell::new(FleetIndex::default()),
        }
    }

    /// Builds the paper's default fleet with a 1 s polling interval.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        Self::with_fleet(FleetSpec::paper_default(), SimDuration::from_secs(1), seed)
    }

    /// Builds a fleet from an explicit composition in one pass: each
    /// registration-order segment (see [`FleetSpec::segments`]) is one
    /// `extend` of the roster and one id range in the index, so every
    /// phone lands at slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `poll_interval` is zero or the fleet exceeds `u32::MAX`
    /// phones.
    #[must_use]
    pub fn with_fleet(spec: FleetSpec, poll_interval: SimDuration, seed: u64) -> Self {
        let segments = spec.segments(); // checks the size before anything is reserved
        let mut mgr = PhoneMgr::new(poll_interval);
        let index = mgr.index.get_mut();
        mgr.phones.reserve_exact(spec.total());
        for seg in &segments {
            mgr.phones.extend((0..seg.count as u32).map(|i| {
                PhoneDevice::new(PhoneId(seg.start + i), seg.grade, seg.provenance, seed)
            }));
            index.load_segment(seg);
        }
        mgr
    }

    /// The slot holding phone `id`: slot `id` itself unless the phone was
    /// displaced.
    fn slot_of(&self, id: PhoneId) -> Option<usize> {
        let home = id.0 as usize;
        if self.phones.get(home).is_some_and(|p| p.id() == id) {
            return Some(home);
        }
        self.displaced.get(&id).map(|&slot| slot as usize)
    }

    /// Records that `id` now sits at `slot`, keeping `displaced` to exactly
    /// the phones that are not at home.
    fn note_slot(&mut self, id: PhoneId, slot: usize) {
        if slot == id.0 as usize {
            self.displaced.remove(&id);
        } else {
            let slot = u32::try_from(slot).expect("ids are unique u32s, so slots fit one");
            self.displaced.insert(id, slot);
        }
    }

    /// Registers a phone.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` on a duplicate id.
    pub fn register(&mut self, phone: PhoneDevice) -> Result<()> {
        if self.slot_of(phone.id()).is_some() {
            return Err(SimdcError::InvalidConfig(format!(
                "duplicate phone id {}",
                phone.id()
            )));
        }
        self.note_slot(phone.id(), self.phones.len());
        self.index.get_mut().note_registered(&phone);
        self.phones.push(phone);
        Ok(())
    }

    /// Retires a phone from the fleet (decommissioned or returned to the
    /// MSP), removing it from every availability structure. Any assigned
    /// run is abandoned with it.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn retire(&mut self, id: PhoneId) -> Result<PhoneDevice> {
        let slot = self.slot_of(id).ok_or(SimdcError::PhoneUnavailable(id))?;
        let phone = self.phones.swap_remove(slot);
        self.displaced.remove(&id);
        if let Some(moved) = self.phones.get(slot) {
            self.note_slot(moved.id(), slot);
        }
        self.index.get_mut().note_retired(&phone);
        Ok(phone)
    }

    /// The polling interval for benchmark measurement.
    #[must_use]
    pub fn poll_interval(&self) -> SimDuration {
        self.poll_interval
    }

    /// Total registered phones.
    #[must_use]
    pub fn total(&self) -> usize {
        self.phones.len()
    }

    /// All phones.
    #[must_use]
    pub fn phones(&self) -> &[PhoneDevice] {
        &self.phones
    }

    /// A phone by id.
    #[must_use]
    pub fn phone(&self, id: PhoneId) -> Option<&PhoneDevice> {
        self.slot_of(id).map(|slot| &self.phones[slot])
    }

    /// Mutable access to a phone by id.
    ///
    /// The phone is marked dirty in the availability index and re-derived
    /// on the next fleet query, so arbitrary mutations (crash injection,
    /// profile swaps, run clearing) stay visible to `select`/`available`
    /// without dedicated hooks. Prefer the explicit manager APIs
    /// ([`PhoneMgr::inject_crash`], [`PhoneMgr::reboot`],
    /// [`PhoneMgr::set_phone_profile`]) where one exists.
    pub fn phone_mut(&mut self, id: PhoneId) -> Option<&mut PhoneDevice> {
        let slot = self.slot_of(id)?;
        self.index.get_mut().mark_dirty(id);
        Some(&mut self.phones[slot])
    }

    /// Internal mutable access that does *not* dirty the index — for
    /// operations that cannot change availability (measurement RNG draws)
    /// or that re-index explicitly afterwards.
    fn device_mut(&mut self, id: PhoneId) -> Option<&mut PhoneDevice> {
        let slot = self.slot_of(id)?;
        Some(&mut self.phones[slot])
    }

    /// Re-indexes one phone after a manager-performed mutation.
    fn touch(&mut self, id: PhoneId) {
        let slot = self.slot_of(id).expect("touched phones are registered");
        let Self { phones, index, .. } = self;
        index.get_mut().touch(&phones[slot]);
    }

    /// Drains due availability transitions and dirty phones up to `now`,
    /// then (debug builds) asserts the index matches a full rescan.
    fn sync_index(&self, now: SimInstant) {
        let mut idx = self.index.borrow_mut();
        idx.sync(now, |id| self.phone(id));
        #[cfg(debug_assertions)]
        idx.assert_parity(&self.phones);
    }

    /// Takes a phone offline (ADB unreachable) from `at` on, until
    /// [`PhoneMgr::reboot`]. `at` may lie in the future; the index flips
    /// the phone to unavailable exactly when the clock reaches it.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn inject_crash(&mut self, id: PhoneId, at: SimInstant) -> Result<()> {
        self.device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?
            .inject_crash(at);
        self.touch(id);
        Ok(())
    }

    /// Reboots a crashed phone: clears the crash state and any stale run,
    /// making the device selectable again immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn reboot(&mut self, id: PhoneId) -> Result<()> {
        self.device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?
            .reboot();
        self.touch(id);
        Ok(())
    }

    /// Replaces a phone's behaviour profile, keeping the per-grade
    /// effective-profile sums exact.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids and
    /// propagates profile validation errors.
    pub fn set_phone_profile(&mut self, id: PhoneId, profile: PhoneProfile) -> Result<()> {
        self.device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?
            .set_profile(profile)?;
        self.touch(id);
        Ok(())
    }

    /// Number of phones of `grade` (optionally filtered by provenance).
    /// O(1) from the registration totals.
    #[must_use]
    pub fn count(&self, grade: DeviceGrade, provenance: Option<Provenance>) -> usize {
        self.index.borrow().total(grade, provenance)
    }

    /// The *effective* behaviour profile of a grade: the nominal grade
    /// profile with training and startup durations averaged over the
    /// actual fleet. With a uniform fleet this equals
    /// [`PhoneProfile::for_grade`]; once stragglers slow individual
    /// phones down, the effective durations stretch accordingly — which is
    /// what makes fleet perturbations visible to task execution times.
    ///
    /// Returns `None` when the fleet holds no phone of `grade` (drained by
    /// churn or never provisioned) — there is no device whose behaviour
    /// the profile could describe. O(1) from the per-grade integer sums,
    /// rounded to the microsecond.
    #[must_use]
    pub fn try_effective_profile(&self, grade: DeviceGrade) -> Option<PhoneProfile> {
        self.sync_index(SimInstant::EPOCH); // flush dirty profile changes
        let (train, startup) = self.index.borrow().mean_profile(grade)?;
        let mut profile = PhoneProfile::for_grade(grade);
        profile.train_duration = train;
        profile.framework_startup = startup;
        Some(profile)
    }

    /// [`PhoneMgr::try_effective_profile`], falling back to the nominal
    /// paper profile for a grade with no registered phones. Callers that
    /// must not plan against a phantom fleet should use the `try_` variant
    /// and surface the `None`.
    #[must_use]
    pub fn effective_profile(&self, grade: DeviceGrade) -> PhoneProfile {
        self.try_effective_profile(grade)
            .unwrap_or_else(|| PhoneProfile::for_grade(grade))
    }

    /// Phones of `grade` idle (and healthy) at `now`. O(k log F) in the
    /// transitions due since the last query, not the fleet size; assumes
    /// non-decreasing `now` across queries.
    #[must_use]
    pub fn available(&self, grade: DeviceGrade, now: SimInstant) -> usize {
        self.sync_index(now);
        self.index.borrow().free_count(grade)
    }

    /// Selects `count` idle phones of `grade` at `now`, preferring local
    /// devices over MSP rentals (ids ascending within each provenance).
    ///
    /// Selection is a pure query — phones become busy only when a run is
    /// submitted — so it borrows `self` immutably; the availability index
    /// syncs behind a `RefCell`.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] if fewer than `count` are
    /// idle.
    pub fn select(
        &self,
        grade: DeviceGrade,
        count: usize,
        now: SimInstant,
    ) -> Result<Vec<PhoneId>> {
        self.select_where(grade, count, now, None)
    }

    /// [`PhoneMgr::select`] with a reserved-phone overlay: `reserved` ids
    /// are treated as busy even though no run has been assigned yet. A
    /// scheduling pass admitting several tasks needs this — task B's
    /// selection must skip the phones task A picked an instant ago,
    /// before A's run plans have actually been submitted. Reported
    /// availability subtracts the reserved phones of the grade, so error
    /// messages count them as busy too.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] if fewer than `count`
    /// unreserved phones are idle.
    pub fn select_excluding(
        &self,
        grade: DeviceGrade,
        count: usize,
        now: SimInstant,
        reserved: &std::collections::BTreeSet<PhoneId>,
    ) -> Result<Vec<PhoneId>> {
        self.select_where(grade, count, now, Some(reserved))
    }

    /// The one selection body behind [`PhoneMgr::select`] and
    /// [`PhoneMgr::select_excluding`], so the two orders cannot drift.
    fn select_where(
        &self,
        grade: DeviceGrade,
        count: usize,
        now: SimInstant,
        reserved: Option<&std::collections::BTreeSet<PhoneId>>,
    ) -> Result<Vec<PhoneId>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.sync_index(now);
        let idx = self.index.borrow();
        let exhausted = |available: usize| SimdcError::ResourceExhausted {
            requested: format!("{count} {grade} phones"),
            available: format!("{available} {grade} phones"),
        };
        // Reserved ids currently sitting in this grade's free sets — the
        // phones a sequential run would already have marked busy.
        let reserved_free = reserved.map_or(0, |set| {
            set.iter()
                .filter(|&&id| {
                    self.phone(id).is_some_and(|p| {
                        p.grade() == grade && !p.is_busy(now) && !p.is_crashed(now)
                    })
                })
                .count()
        });
        // O(1) shortfall check so an unsatisfiable request never walks the
        // free set (the scheduler probes depleted grades repeatedly).
        let free = idx.free_count(grade).saturating_sub(reserved_free);
        if free < count {
            return Err(exhausted(free));
        }
        let mut picked = Vec::with_capacity(count);
        for id in idx.iter_free(grade) {
            if reserved.is_some_and(|set| set.contains(&id)) {
                continue;
            }
            // Defensive re-verification: free sets are exact for
            // monotonically advancing query times; this guards the
            // invariant even if a caller runs time backwards.
            let phone = self.phone(id).expect("indexed phones are registered");
            if phone.is_busy(now) || phone.is_crashed(now) {
                continue;
            }
            picked.push(id);
            if picked.len() == count {
                return Ok(picked);
            }
        }
        // Only reachable when re-verification skipped stale entries, i.e.
        // a caller violated the monotone-clock assumption.
        Err(exhausted(picked.len()))
    }

    /// Assigns a run plan to a phone.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown, busy or
    /// crashed phones.
    pub fn submit_run(&mut self, id: PhoneId, plan: RunPlan) -> Result<()> {
        let phone = self
            .device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        phone.assign_run(plan)?;
        self.touch(id);
        Ok(())
    }

    /// Measures one phone at virtual time `now`: the numbers the paper's
    /// ADB command battery reports (see [`crate::adb`]), read from the
    /// device's typed reading of itself rather than rendered and parsed.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown phones and
    /// [`SimdcError::AdbCommand`] when the device is offline or has no
    /// active run at `now` — only benchmarking devices inside a run are
    /// polled.
    pub fn poll(&mut self, id: PhoneId, now: SimInstant) -> Result<PerfSample> {
        // Measurement draws device noise (mutating the RNG stream) but
        // never changes availability, so it bypasses the dirty tracking.
        let phone = self
            .device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        take_sample(phone, now)
    }

    /// Measures a benchmarking phone across its entire active run: polls at
    /// the manager's interval, skips the waiting-for-aggregation gaps (the
    /// paper records no data there), and aggregates the Table-I stages.
    ///
    /// The one thing that ends a measurement early is the phone crashing
    /// mid-run: the report then contains everything captured before the
    /// crash instant.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown phones,
    /// `InvalidConfig` if the phone has no assigned run, and propagates any
    /// sampling error.
    pub fn measure_run(&mut self, id: PhoneId) -> Result<PerfReport> {
        let interval = self.poll_interval;
        let phone = self
            .device_mut(id)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        let run = phone
            .run()
            .ok_or_else(|| SimdcError::InvalidConfig(format!("phone {id} has no assigned run")))?;
        let (start, end, grade) = (run.start(), run.end(), phone.grade());

        let polls = end
            .duration_since(start)
            .as_micros()
            .div_ceil(interval.as_micros()) as usize;
        let mut samples = Vec::with_capacity(polls);
        let mut cpu_series = TimeSeries::with_capacity(format!("{id}/cpu_pct"), polls);
        let mut mem_series = TimeSeries::with_capacity(format!("{id}/mem_mb"), polls);
        let mut t = start;
        while t < end && !phone.is_crashed(t) {
            let sample = take_sample(phone, t)?;
            // The paper records no data while a device waits for global
            // aggregation (Fig 5's dashed gaps) — waiting samples are kept
            // only as raw stage markers so the Table-I aggregation can
            // separate adjacent rounds.
            if sample.stage != Stage::Waiting && sample.stage.apk_running() {
                cpu_series.record(t, sample.cpu_pct);
                mem_series.record(t, sample.mem_kb / 1_024.0);
            }
            samples.push(sample);
            t += interval;
        }

        let stages = aggregate_stages(&samples, interval);
        Ok(PerfReport {
            phone: id,
            grade,
            stages,
            cpu_series,
            mem_series,
            samples,
        })
    }

    /// Builds the standard run plan for a task on a phone: per-round
    /// training at the phone's profiled `β`, separated by the given
    /// aggregation gaps.
    ///
    /// # Errors
    ///
    /// Propagates [`RunPlan::new`] validation errors and
    /// [`SimdcError::PhoneUnavailable`] for unknown phones.
    pub fn plan_for(
        &self,
        id: PhoneId,
        task: simdc_types::TaskId,
        start: SimInstant,
        rounds: usize,
        waiting_gap: SimDuration,
    ) -> Result<RunPlan> {
        let phone = self.phone(id).ok_or(SimdcError::PhoneUnavailable(id))?;
        let beta = phone.profile().beta();
        let durations = vec![beta; rounds];
        let gaps = vec![waiting_gap; rounds.saturating_sub(1)];
        RunPlan::new(task, id, start, &durations, &gaps)
    }
}

/// One [`PerfSample`] from the phone's typed reading, with the unit
/// conversions the text parsers apply ([`crate::measure`]): positive µA,
/// µV → mV, whole-KB PSS, and zero CPU / memory while no process is alive.
fn take_sample(phone: &mut PhoneDevice, now: SimInstant) -> Result<PerfSample> {
    let id = phone.id();
    let reading = phone
        .reading_at(now)
        .ok_or_else(|| SimdcError::AdbCommand(format!("phone {id} has no active run at {now}")))?;
    let (cpu_pct, mem_kb) = reading
        .process
        .map_or((0.0, 0.0), |p| (p.cpu_pct, p.pss_kb as f64));
    Ok(PerfSample {
        phone: id,
        at: now,
        stage: reading.stage,
        current_ua: reading.current_ua.unsigned_abs() as f64,
        voltage_mv: reading.voltage_uv as f64 / 1_000.0,
        cpu_pct,
        mem_kb,
        net_bytes: reading.net_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::TaskId;

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn paper_default_fleet_composition() {
        let mgr = PhoneMgr::paper_default(1);
        assert_eq!(mgr.total(), 30);
        assert_eq!(mgr.count(DeviceGrade::High, Some(Provenance::Local)), 4);
        assert_eq!(mgr.count(DeviceGrade::Low, Some(Provenance::Local)), 6);
        assert_eq!(mgr.count(DeviceGrade::High, Some(Provenance::Msp)), 13);
        assert_eq!(mgr.count(DeviceGrade::Low, Some(Provenance::Msp)), 7);
        assert_eq!(mgr.count(DeviceGrade::High, None), 17);
    }

    #[test]
    fn scaled_paper_fleet_preserves_total_and_ratio() {
        for total in [30, 100, 1_000, 100_000, 999_999] {
            let spec = FleetSpec::scaled_paper(total);
            assert_eq!(spec.total(), total, "total {total}");
        }
        let spec = FleetSpec::scaled_paper(300_000);
        assert_eq!(*spec.local.get(DeviceGrade::High), 40_000);
        assert_eq!(*spec.msp.get(DeviceGrade::High), 130_000);
    }

    #[test]
    fn select_prefers_local_phones() {
        let mgr = PhoneMgr::paper_default(2);
        let picked = mgr.select(DeviceGrade::High, 5, t(0)).unwrap();
        assert_eq!(picked.len(), 5);
        let locals = picked
            .iter()
            .filter(|id| mgr.phone(**id).unwrap().provenance() == Provenance::Local)
            .count();
        assert_eq!(locals, 4, "all 4 local High phones come first");
    }

    #[test]
    fn select_is_a_pure_query_on_a_shared_reference() {
        let mgr = PhoneMgr::paper_default(12);
        let shared: &PhoneMgr = &mgr;
        let a = shared.select(DeviceGrade::High, 3, t(0)).unwrap();
        let b = shared.select(DeviceGrade::High, 3, t(0)).unwrap();
        assert_eq!(a, b, "selection must not consume availability");
    }

    #[test]
    fn select_fails_when_insufficient() {
        let mgr = PhoneMgr::paper_default(3);
        assert!(mgr.select(DeviceGrade::High, 18, t(0)).is_err());
    }

    #[test]
    fn busy_phones_are_not_selectable() {
        let mut mgr = PhoneMgr::paper_default(4);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 2, SimDuration::from_secs(10))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(5)), 16);
        let next = mgr.select(DeviceGrade::High, 17, t(5));
        assert!(next.is_err());
    }

    #[test]
    fn availability_returns_when_the_run_ends() {
        let mut mgr = PhoneMgr::paper_default(13);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        let end = plan.end();
        mgr.submit_run(id, plan).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(5)), 16);
        // The first query at/after the run's end sees the phone free again
        // without any explicit release call.
        assert_eq!(mgr.available(DeviceGrade::High, end), 17);
        let again = mgr.select(DeviceGrade::High, 17, end).unwrap();
        assert!(again.contains(&id));
    }

    #[test]
    fn crash_and_reboot_flow_through_the_index() {
        let mut mgr = PhoneMgr::paper_default(14);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        // Future crash: still available until the onset instant.
        mgr.inject_crash(id, t(50)).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(10)), 17);
        assert_eq!(mgr.available(DeviceGrade::High, t(50)), 16);
        assert!(mgr.select(DeviceGrade::High, 17, t(60)).is_err());
        mgr.reboot(id).unwrap();
        assert_eq!(mgr.available(DeviceGrade::High, t(60)), 17);
        assert!(mgr.inject_crash(PhoneId(9_999), t(0)).is_err());
    }

    #[test]
    fn retire_removes_phones_from_counts_and_selection() {
        let mut mgr = PhoneMgr::paper_default(15);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let retired = mgr.retire(id).unwrap();
        assert_eq!(retired.id(), id);
        assert_eq!(mgr.total(), 29);
        assert_eq!(mgr.count(DeviceGrade::High, None), 16);
        assert_eq!(mgr.available(DeviceGrade::High, t(0)), 16);
        assert!(mgr.phone(id).is_none());
        assert!(mgr.retire(id).is_err(), "double retire must fail");
        // Draining a grade entirely leaves no effective profile.
        let low_ids: Vec<PhoneId> = mgr
            .phones()
            .iter()
            .filter(|p| p.grade() == DeviceGrade::Low)
            .map(|p| p.id())
            .collect();
        for low in low_ids {
            mgr.retire(low).unwrap();
        }
        assert_eq!(mgr.count(DeviceGrade::Low, None), 0);
        assert!(mgr.try_effective_profile(DeviceGrade::Low).is_none());
        assert!(mgr.try_effective_profile(DeviceGrade::High).is_some());
    }

    #[test]
    fn poll_produces_clean_sample_during_training() {
        let mut mgr = PhoneMgr::paper_default(5);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let sample = mgr.poll(id, t(35)).unwrap(); // inside training
        assert_eq!(sample.stage, Stage::Training);
        assert!(sample.current_ua > 30_000.0);
        assert!((3_700.0..4_100.0).contains(&sample.voltage_mv));
        assert!(sample.cpu_pct > 2.0);
        assert!(sample.mem_kb > 10_000.0);
    }

    #[test]
    fn poll_handles_process_absent_stages() {
        let mut mgr = PhoneMgr::paper_default(6);
        let id = mgr.select(DeviceGrade::Low, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let sample = mgr.poll(id, t(2)).unwrap(); // stage 1, no APK
        assert_eq!(sample.stage, Stage::NoApk);
        assert_eq!(sample.cpu_pct, 0.0);
        assert_eq!(sample.mem_kb, 0.0);
    }

    #[test]
    fn poll_without_run_is_an_error() {
        let mut mgr = PhoneMgr::paper_default(7);
        let id = mgr.phones()[0].id();
        assert!(mgr.poll(id, t(0)).is_err());
    }

    #[test]
    fn measure_run_covers_all_five_stages() {
        let mut mgr = PhoneMgr::paper_default(8);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 3, SimDuration::from_secs(20))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let report = mgr.measure_run(id).unwrap();
        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.grade, DeviceGrade::High);
        // Waiting periods never reach the Fig-5 traces (the paper records
        // no data while devices wait for aggregation)...
        assert!(report.cpu_series.len() < report.samples.len());
        // ...but they do appear as raw stage markers separating rounds.
        assert!(report.samples.iter().any(|s| s.stage == Stage::Waiting));
        // CPU/memory traces span the run.
        assert!(report.cpu_series.len() > 30);
        assert!(report.mem_series.stats().max > 10.0);
    }

    #[test]
    fn measured_power_tracks_table1() {
        let mut mgr =
            PhoneMgr::with_fleet(FleetSpec::paper_default(), SimDuration::from_millis(250), 9);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let report = mgr.measure_run(id).unwrap();
        let training = report.stage(Stage::Training).unwrap();
        // Table I High / Training: 0.18 mAh over 0.27 min.
        assert!(
            (training.power_mah - 0.18).abs() < 0.03,
            "power {}",
            training.power_mah
        );
        assert!((training.duration_min - 0.27).abs() < 0.02);
        assert!((training.comm_kb - 33.1).abs() < 2.0);
    }

    #[test]
    fn crash_mid_run_yields_partial_report() {
        let mut mgr = PhoneMgr::paper_default(10);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 2, SimDuration::from_secs(10))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        mgr.phone_mut(id).unwrap().inject_crash(t(40));
        let report = mgr.measure_run(id).unwrap();
        assert!(report.samples.last().unwrap().at < t(40));
        assert!(report.stages.len() < 5, "post-crash stages missing");
    }

    /// The only thing that ends a measurement early is the crash instant
    /// itself: a phone is offline from `crashed_at` on (`now >= at`), so a
    /// crash at the run's start leaves an empty report and a crash on a
    /// poll instant loses that instant's sample.
    #[test]
    fn measurement_stops_exactly_at_the_crash_instant() {
        for (crash_secs, expected_samples) in [(0, 0), (40, 40)] {
            let mut mgr = PhoneMgr::paper_default(10);
            let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
            let plan = mgr
                .plan_for(id, TaskId(1), t(0), 2, SimDuration::from_secs(10))
                .unwrap();
            mgr.submit_run(id, plan).unwrap();
            mgr.inject_crash(id, t(crash_secs)).unwrap();
            let report = mgr.measure_run(id).unwrap();
            assert_eq!(report.samples.len(), expected_samples);
            assert_eq!(
                report.samples.last().map(|s| s.at),
                crash_secs.checked_sub(1).map(t),
                "the sample on the crash instant is absent"
            );
            assert!(report.samples.iter().all(|s| s.phone == id));
            assert_eq!(report.stages.is_empty(), expected_samples == 0);
            assert!(matches!(
                mgr.poll(id, t(crash_secs)),
                Err(SimdcError::AdbCommand(_))
            ));
        }
    }

    /// A noiseless profile draws nothing for current, CPU or memory — the
    /// samples are the model values — but voltage always wobbles, one draw
    /// per poll.
    #[test]
    fn noiseless_profile_still_draws_voltage() {
        let build = || {
            let mut mgr = PhoneMgr::paper_default(18);
            let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
            let mut quiet = PhoneProfile::high();
            quiet.noise_frac = 0.0;
            mgr.set_phone_profile(id, quiet).unwrap();
            let plan = mgr
                .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
                .unwrap();
            mgr.submit_run(id, plan).unwrap();
            (mgr, id)
        };
        let (mut polled, id) = build();
        let (mut drawn, _) = build();
        let mut voltages = Vec::new();
        for secs in [2, 20, 35, 50, 70] {
            let sample = polled.poll(id, t(secs)).unwrap();
            let profile = PhoneProfile::high();
            assert_eq!(
                sample.current_ua,
                (profile.stage_current(sample.stage) * 1_000.0).round()
            );
            match sample.stage {
                Stage::ApkLaunch => assert_eq!(sample.cpu_pct, 3.0),
                Stage::PostTraining => assert_eq!(sample.cpu_pct, 1.0),
                Stage::Training => {}
                _ => assert_eq!((sample.cpu_pct, sample.mem_kb), (0.0, 0.0)),
            }
            if sample.stage == Stage::ApkLaunch {
                assert_eq!(sample.mem_kb, 14.0 * 1_024.0);
            }
            // The same phone, making only the voltage draw.
            let uv = drawn.phone_mut(id).unwrap().voltage_uv_at(t(secs));
            assert_eq!(sample.voltage_mv, uv.round() / 1_000.0);
            voltages.push(sample.voltage_mv);
        }
        voltages.dedup();
        assert_eq!(voltages.len(), 5, "voltage wobbles from poll to poll");
    }

    #[test]
    fn effective_profile_tracks_fleet_composition() {
        let mut mgr = PhoneMgr::paper_default(11);
        let nominal = PhoneProfile::for_grade(DeviceGrade::High);
        // Uniform fleet: effective == nominal.
        let eff = mgr.effective_profile(DeviceGrade::High);
        assert_eq!(eff.train_duration, nominal.train_duration);
        assert_eq!(eff.framework_startup, nominal.framework_startup);
        // Slow one of the 17 High phones 2x: the mean shifts by 1/17.
        let id = mgr
            .phones()
            .iter()
            .find(|p| p.grade() == DeviceGrade::High)
            .unwrap()
            .id();
        let mut slowed = nominal.clone();
        slowed.train_duration = SimDuration::from_secs_f64(nominal.beta().as_secs_f64() * 2.0);
        mgr.set_phone_profile(id, slowed).unwrap();
        let eff = mgr.effective_profile(DeviceGrade::High);
        let expected = nominal.beta().as_secs_f64() * (16.0 + 2.0) / 17.0;
        assert!((eff.train_duration.as_secs_f64() - expected).abs() < 1e-6);
        // Unknown-grade fleets fall back to the nominal profile.
        let empty = PhoneMgr::new(SimDuration::from_secs(1));
        assert_eq!(
            empty.effective_profile(DeviceGrade::Low).train_duration,
            PhoneProfile::low().train_duration
        );
    }

    #[test]
    fn raw_phone_mut_mutations_reach_the_index() {
        let mut mgr = PhoneMgr::paper_default(16);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        // Mutate through the raw accessor (no dedicated hook): the dirty
        // tracking must fold the change into the next query.
        mgr.phone_mut(id).unwrap().inject_crash(t(0));
        assert_eq!(mgr.available(DeviceGrade::High, t(1)), 16);
        mgr.phone_mut(id).unwrap().reboot();
        assert_eq!(mgr.available(DeviceGrade::High, t(2)), 17);
        // Profile changes through the raw accessor reach the sums too.
        let mut slowed = PhoneProfile::for_grade(DeviceGrade::High);
        slowed.train_duration = slowed.train_duration * 3;
        mgr.phone_mut(id).unwrap().set_profile(slowed).unwrap();
        let eff = mgr.effective_profile(DeviceGrade::High);
        assert!(eff.train_duration > PhoneProfile::for_grade(DeviceGrade::High).train_duration);
    }

    #[test]
    fn segments_cover_the_fleet_contiguously_in_registration_order() {
        let spec = FleetSpec::paper_default();
        let segs = spec.segments();
        assert_eq!(segs.len(), 4);
        let mut next = 0u32;
        for seg in &segs {
            assert_eq!(seg.start, next, "segments must tile the id space");
            next += seg.count as u32;
        }
        assert_eq!(next as usize, spec.total());
        // Registration order: every Local grade before any MSP grade.
        let first_msp = segs
            .iter()
            .position(|s| s.provenance == Provenance::Msp)
            .unwrap();
        assert!(segs[..first_msp]
            .iter()
            .all(|s| s.provenance == Provenance::Local));
        assert!(segs[first_msp..]
            .iter()
            .all(|s| s.provenance == Provenance::Msp));
    }

    /// "Costs what it touches", as counts that repeat exactly rather than
    /// timings: an untouched fleet is the 24-byte records plus one free
    /// range per segment, and touching `k` phones adds `k` cold states and
    /// at most `k` ranges. (That lazily seeded phones draw the noise an
    /// eagerly seeded phone would is already pinned by the table1 / fig5
    /// goldens in `crates/bench/tests/golden.rs`.)
    #[test]
    fn a_fleet_costs_what_it_touches() {
        assert!(std::mem::size_of::<PhoneDevice>() <= 24);
        let mut mgr = PhoneMgr::with_fleet(
            FleetSpec::scaled_paper(100_000),
            SimDuration::from_secs(1),
            3,
        );
        // No query yet, so nothing has synced the index.
        assert_eq!(mgr.index.borrow().free_ranges(), 4, "one per segment");
        assert_eq!(mgr.index.borrow().cached_profiles(), 0);
        assert!(mgr.displaced.is_empty());
        assert!(!mgr.phones.iter().any(PhoneDevice::is_touched));

        let k = 5;
        for id in mgr.select(DeviceGrade::Low, k, t(0)).unwrap() {
            let plan = mgr
                .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
                .unwrap();
            mgr.submit_run(id, plan).unwrap();
        }
        assert!(mgr.index.borrow().free_ranges() <= 4 + k);
        let touched = mgr.phones.iter().filter(|p| p.is_touched()).count();
        assert_eq!(touched, k);
        assert_eq!(mgr.index.borrow().cached_profiles(), 0);
        assert!(mgr.displaced.is_empty());
    }

    #[test]
    fn select_excluding_replays_sequential_reservation() {
        let mut mgr = PhoneMgr::paper_default(17);
        let first = mgr.select(DeviceGrade::High, 3, t(0)).unwrap();
        let reserved: std::collections::BTreeSet<PhoneId> = first.iter().copied().collect();
        // Overlay path: before any run exists, exclude the reserved set.
        let overlay_picked = mgr
            .select_excluding(DeviceGrade::High, 3, t(0), &reserved)
            .unwrap();
        let overlay_err = mgr
            .select_excluding(DeviceGrade::High, 15, t(0), &reserved)
            .unwrap_err()
            .to_string();
        // Sequential path: actually submit runs on the first batch.
        for &id in &first {
            let plan = mgr
                .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
                .unwrap();
            mgr.submit_run(id, plan).unwrap();
        }
        assert_eq!(
            mgr.select(DeviceGrade::High, 3, t(0)).unwrap(),
            overlay_picked
        );
        assert_eq!(
            mgr.select(DeviceGrade::High, 15, t(0))
                .unwrap_err()
                .to_string(),
            overlay_err,
            "exhaustion reports must match the sequential wording"
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut mgr = PhoneMgr::new(SimDuration::from_secs(1));
        let p = PhoneDevice::new(PhoneId(0), DeviceGrade::High, Provenance::Local, 1);
        mgr.register(p.clone()).unwrap();
        assert!(mgr.register(p).is_err());
    }
}
