//! PhoneMgr: selection, task submission and performance measurement.
//!
//! # One writer
//!
//! The fleet is fixed when [`PhoneMgr::with_fleet`] builds it, and a
//! phone's state changes only through four manager operations —
//! [`PhoneMgr::submit_run`], [`PhoneMgr::inject_crash`],
//! [`PhoneMgr::reboot`] and [`PhoneMgr::set_phone_profile`] — each of
//! which re-indexes what it changed: the phone's availability for the
//! first three, its grade's profile sums for the last.
//!
//! # Grade-indexed availability
//!
//! Fleet queries on the task-plan path — [`PhoneMgr::select`],
//! [`PhoneMgr::available`], [`PhoneMgr::count`],
//! [`PhoneMgr::effective_profile`] — are answered from an incremental
//! per-`(grade, provenance)` index (the private `index` module) instead of
//! rescanning the fleet, so planning a task costs O(k log F) in the number
//! of phones it touches, not O(F) in the fleet size. `select` and
//! `available` take `&mut self`: answering advances the index to `now`.
//! Debug builds cross-check every such query against one walk over the
//! fleet.
//!
//! # What a fleet costs
//!
//! A phone nothing has happened to is a 16-byte [`PhoneDevice`] record in
//! one dense vector plus one bit in its segment's free set, and nothing
//! else: no map entry, no profile copy, no seed (the manager keeps the
//! fleet's one). Ids run contiguously from 0, so phone `id` sits at slot
//! `id`, and [`PhoneMgr::with_fleet`] loads the index with one all-free
//! bitset per segment (`ceil(count / 64)` words), so building a fleet
//! costs one vector fill. Measuring a phone only reads it. A phone that
//! crashes and reboots is back to that record alone unless it also
//! carries a custom profile or a run.
//!
//! Availability is time-dependent (runs end, crashes strike), so index
//! queries assume a non-decreasing `now` — the discrete-event platform's
//! natural clock discipline. `select` re-verifies candidates against
//! device state regardless, so a violated assumption can under-report
//! availability but never hand out a busy phone.

use serde::{Deserialize, Serialize};
use simdc_types::{DeviceGrade, PerGrade, PhoneId, Result, SimDuration, SimInstant, SimdcError};

use crate::device::{noise_key, PhoneDevice, Provenance};
use crate::index::{contribution, FleetIndex};
use crate::measure::{aggregate_stages, PerfReport, PerfSample};
use crate::profile::PhoneProfile;
use crate::stage::RunPlan;

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
    /// (every Local grade, then every MSP grade), at most one per
    /// `(grade, provenance)`: what [`PhoneMgr::with_fleet`] fills the
    /// roster and loads the index's free sets from, one bitset each.
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
    /// The fleet, phone `id` at slot `id`.
    phones: Vec<PhoneDevice>,
    poll_interval: SimDuration,
    /// The fleet seed: each phone's measurement noise derives from it.
    seed: u64,
    /// Incremental availability index: queries advance it to their `now`,
    /// and every manager write re-indexes what it changed.
    index: FleetIndex,
}

impl PhoneMgr {
    /// Builds the paper's default fleet with a 1 s polling interval.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        Self::with_fleet(FleetSpec::paper_default(), SimDuration::from_secs(1), seed)
    }

    /// Builds a fleet from an explicit composition in one pass: each
    /// registration-order segment (see [`FleetSpec::segments`]) is one
    /// `extend` of the roster and one all-free bitset in the index, so every
    /// phone lands at slot `id`. The fleet's membership is fixed from here
    /// on; an empty fleet is an all-zero [`FleetSpec`].
    ///
    /// # Panics
    ///
    /// Panics if `poll_interval` is zero or the fleet exceeds `u32::MAX`
    /// phones.
    #[must_use]
    pub fn with_fleet(spec: FleetSpec, poll_interval: SimDuration, seed: u64) -> Self {
        let segments = spec.segments(); // checks the size before anything is reserved
        assert!(!poll_interval.is_zero(), "poll interval must be positive");
        let mut phones = Vec::with_capacity(spec.total());
        let mut index = FleetIndex::default();
        for seg in &segments {
            phones.extend(
                (0..seg.count as u32)
                    .map(|i| PhoneDevice::new(PhoneId(seg.start + i), seg.grade, seg.provenance)),
            );
            index.load_segment(seg);
        }
        PhoneMgr {
            phones,
            poll_interval,
            seed,
            index,
        }
    }

    /// The polling interval for benchmark measurement.
    #[must_use]
    pub fn poll_interval(&self) -> SimDuration {
        self.poll_interval
    }

    /// Total phones.
    #[must_use]
    pub fn total(&self) -> usize {
        self.phones.len()
    }

    /// All phones, in id order.
    #[must_use]
    pub fn phones(&self) -> &[PhoneDevice] {
        &self.phones
    }

    /// A phone by id.
    #[must_use]
    pub fn phone(&self, id: PhoneId) -> Option<&PhoneDevice> {
        self.phones.get(id.0 as usize)
    }

    /// A phone to measure, with its noise key.
    fn measured(&self, id: PhoneId) -> Result<(&PhoneDevice, u64)> {
        let phone = self.phone(id).ok_or(SimdcError::PhoneUnavailable(id))?;
        Ok((phone, noise_key(self.seed, id)))
    }

    /// Applies `change` to phone `id`, then re-indexes the phone's
    /// availability: the one way a phone's run or crash state changes.
    fn write(
        &mut self,
        id: PhoneId,
        change: impl FnOnce(&mut PhoneDevice) -> Result<()>,
    ) -> Result<()> {
        let phone = self
            .phones
            .get_mut(id.0 as usize)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        change(phone)?;
        self.index.touch(phone);
        Ok(())
    }

    /// Drains due availability transitions up to `now`, then (debug
    /// builds) asserts the index matches a full rescan.
    fn sync_index(&mut self, now: SimInstant) {
        self.index.sync(now, &self.phones);
        #[cfg(debug_assertions)]
        self.index.assert_parity(&self.phones);
    }

    /// Takes a phone offline (ADB unreachable) from `at` on, until
    /// [`PhoneMgr::reboot`]. `at` may lie in the future; the index flips
    /// the phone to unavailable exactly when the clock reaches it.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn inject_crash(&mut self, id: PhoneId, at: SimInstant) -> Result<()> {
        self.write(id, |phone| {
            phone.inject_crash(at);
            Ok(())
        })
    }

    /// Reboots a crashed phone: clears the crash state and any stale run,
    /// making the device selectable again immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids.
    pub fn reboot(&mut self, id: PhoneId) -> Result<()> {
        self.write(id, |phone| {
            phone.reboot();
            Ok(())
        })
    }

    /// Replaces a phone's behaviour profile, keeping the per-grade
    /// effective-profile sums exact.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown ids, and
    /// `InvalidConfig` if the profile fails validation or its grade
    /// differs from the phone's.
    pub fn set_phone_profile(&mut self, id: PhoneId, profile: PhoneProfile) -> Result<()> {
        // A re-profile changes no availability, so nothing is re-indexed.
        let phone = self
            .phones
            .get_mut(id.0 as usize)
            .ok_or(SimdcError::PhoneUnavailable(id))?;
        let old = contribution(phone.profile());
        phone.set_profile(profile)?;
        let (grade, new) = (phone.grade(), contribution(phone.profile()));
        self.index.reprofile(grade, old, new);
        Ok(())
    }

    /// Number of phones of `grade` (optionally filtered by provenance).
    /// O(1) from the fleet totals.
    #[must_use]
    pub fn count(&self, grade: DeviceGrade, provenance: Option<Provenance>) -> usize {
        self.index.total(grade, provenance)
    }

    /// The *effective* behaviour profile of a grade: the nominal grade
    /// profile with training and startup durations averaged over the
    /// actual fleet. With a uniform fleet this equals
    /// [`PhoneProfile::for_grade`]; once stragglers slow individual
    /// phones down, the effective durations stretch accordingly — which is
    /// what makes fleet perturbations visible to task execution times.
    ///
    /// Returns `None` when the fleet holds no phone of `grade` — there is
    /// no device whose behaviour the profile could describe. O(1) from the
    /// per-grade integer sums, rounded to the microsecond.
    #[must_use]
    pub fn try_effective_profile(&self, grade: DeviceGrade) -> Option<PhoneProfile> {
        let (train, startup) = self.index.mean_profile(grade)?;
        let mut profile = PhoneProfile::for_grade(grade);
        profile.train_duration = train;
        profile.framework_startup = startup;
        Some(profile)
    }

    /// [`PhoneMgr::try_effective_profile`], falling back to the nominal
    /// paper profile for a grade with no phones. Callers that must not
    /// plan against a phantom fleet should use the `try_` variant and
    /// surface the `None`.
    #[must_use]
    pub fn effective_profile(&self, grade: DeviceGrade) -> PhoneProfile {
        self.try_effective_profile(grade)
            .unwrap_or_else(|| PhoneProfile::for_grade(grade))
    }

    /// Phones of `grade` idle (and healthy) at `now`. O(k log F) in the
    /// transitions due since the last query, not the fleet size; assumes
    /// non-decreasing `now` across queries.
    #[must_use]
    pub fn available(&mut self, grade: DeviceGrade, now: SimInstant) -> usize {
        self.sync_index(now);
        self.index.free_count(grade)
    }

    /// Selects `count` idle phones of `grade` at `now`, preferring local
    /// devices over MSP rentals (ids ascending within each provenance).
    ///
    /// Selection reserves nothing — phones become busy only when a run is
    /// submitted — so two selections at one instant pick the same phones.
    /// It takes `&mut self` because answering advances the availability
    /// index to `now`.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] if fewer than `count` are
    /// idle.
    pub fn select(
        &mut self,
        grade: DeviceGrade,
        count: usize,
        now: SimInstant,
    ) -> Result<Vec<PhoneId>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.sync_index(now);
        let exhausted = |available: usize| SimdcError::ResourceExhausted {
            requested: format!("{count} {grade} phones"),
            available: format!("{available} {grade} phones"),
        };
        // O(1) shortfall check so an unsatisfiable request never walks the
        // free set (the scheduler probes depleted grades repeatedly).
        let free = self.index.free_count(grade);
        if free < count {
            return Err(exhausted(free));
        }
        let mut picked = Vec::with_capacity(count);
        for id in self.index.iter_free(grade) {
            // Defensive re-verification: free sets are exact for
            // monotonically advancing query times; this guards the
            // invariant even if a caller runs time backwards.
            let phone = &self.phones[id.0 as usize];
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
        self.write(id, |phone| phone.assign_run(plan))
    }

    /// Measures one phone at virtual time `now`: the numbers the paper's
    /// ADB command battery reports, read from the device's typed reading
    /// of itself. A sample depends only on the fleet seed, the phone and
    /// `now`, so polling changes nothing and repeats exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] for unknown phones and
    /// [`SimdcError::NoActiveRun`] when the device is offline or has no
    /// active run at `now` — only benchmarking devices inside a run are
    /// polled.
    pub fn poll(&self, id: PhoneId, now: SimInstant) -> Result<PerfSample> {
        let (phone, key) = self.measured(id)?;
        take_sample(phone, key, now)
    }

    /// Measures a benchmarking phone across its entire active run: polls at
    /// the manager's interval and aggregates the Table-I stages. The
    /// report's [`PerfReport::trace`] leaves out the waiting-for-aggregation
    /// gaps (the paper records no data there).
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
    pub fn measure_run(&self, id: PhoneId) -> Result<PerfReport> {
        let interval = self.poll_interval;
        let (phone, key) = self.measured(id)?;
        let run = phone
            .run()
            .ok_or_else(|| SimdcError::InvalidConfig(format!("phone {id} has no assigned run")))?;
        let (start, end, grade) = (run.start(), run.end(), phone.grade());

        let polls = end
            .duration_since(start)
            .as_micros()
            .div_ceil(interval.as_micros()) as usize;
        let mut samples = Vec::with_capacity(polls);
        let mut t = start;
        while t < end && !phone.is_crashed(t) {
            samples.push(take_sample(phone, key, t)?);
            t += interval;
        }

        let stages = aggregate_stages(&samples, interval);
        Ok(PerfReport {
            phone: id,
            grade,
            stages,
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

/// One [`PerfSample`] from the phone's typed reading, in the paper's units:
/// positive µA, µV → mV, whole-KB PSS, and zero CPU / memory while no
/// process is alive.
fn take_sample(phone: &PhoneDevice, key: u64, now: SimInstant) -> Result<PerfSample> {
    let id = phone.id();
    let reading = phone
        .reading_at(key, now)
        .ok_or(SimdcError::NoActiveRun { phone: id, at: now })?;
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
    use crate::device::sample_noise;
    use crate::stage::Stage;
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
        let mut mgr = PhoneMgr::paper_default(2);
        let picked = mgr.select(DeviceGrade::High, 5, t(0)).unwrap();
        assert_eq!(picked.len(), 5);
        let locals = picked
            .iter()
            .filter(|id| mgr.phone(**id).unwrap().provenance() == Provenance::Local)
            .count();
        assert_eq!(locals, 4, "all 4 local High phones come first");
    }

    #[test]
    fn select_does_not_consume_availability() {
        let mut mgr = PhoneMgr::paper_default(12);
        let a = mgr.select(DeviceGrade::High, 3, t(0)).unwrap();
        let b = mgr.select(DeviceGrade::High, 3, t(0)).unwrap();
        assert_eq!(a, b, "selection must not consume availability");
    }

    #[test]
    fn select_fails_when_insufficient() {
        let mut mgr = PhoneMgr::paper_default(3);
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
        let mgr = PhoneMgr::paper_default(7);
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
        assert!(report.trace().all(|s| s.stage != Stage::Waiting));
        // ...but they do appear as raw stage markers separating rounds.
        assert!(report.samples.iter().any(|s| s.stage == Stage::Waiting));
        // CPU/memory traces span the run.
        assert!(report.trace().count() > 30);
        assert!(report.trace().any(|s| s.mem_mb() > 10.0));
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
        mgr.inject_crash(id, t(40)).unwrap();
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
                Err(SimdcError::NoActiveRun { phone, at }) if phone == id && at == t(crash_secs)
            ));
        }
    }

    /// A phone with one run submitted at `start`, in a paper fleet under
    /// `seed`.
    fn running(seed: u64, task: u64, start: SimInstant) -> (PhoneMgr, PhoneId) {
        let mut mgr = PhoneMgr::paper_default(seed);
        let id = mgr.select(DeviceGrade::High, 1, start).unwrap()[0];
        submit(&mut mgr, id, task, start);
        (mgr, id)
    }

    fn submit(mgr: &mut PhoneMgr, id: PhoneId, task: u64, start: SimInstant) {
        let plan = mgr
            .plan_for(id, TaskId(task), start, 2, SimDuration::from_secs(10))
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
    }

    #[test]
    fn poll_equals_the_sample_measure_run_takes() {
        let (mgr, id) = running(19, 1, t(0));
        let report = mgr.measure_run(id).unwrap();
        assert!(report.samples.len() > 100);
        for sample in &report.samples {
            assert_eq!(mgr.poll(id, sample.at).unwrap(), *sample);
        }
        assert_eq!(mgr.measure_run(id).unwrap(), report, "measuring repeats");
    }

    /// A run's report depends on the fleet seed, the phone and the run
    /// alone: not on an earlier run the phone served and was measured on,
    /// nor on polls in between.
    #[test]
    fn a_run_s_report_ignores_the_phone_s_history() {
        let second = t(1_000);
        let (fresh, id) = running(20, 2, second);
        let expected = fresh.measure_run(id).unwrap();

        let (mut served, same) = running(20, 1, t(0));
        assert_eq!(same, id);
        let first = served.measure_run(id).unwrap();
        for sample in &first.samples {
            let _ = served.poll(id, sample.at + SimDuration::from_millis(500));
        }
        submit(&mut served, id, 2, second);
        assert_eq!(served.measure_run(id).unwrap(), expected, "after a run");
        for sample in &expected.samples[..10] {
            served
                .poll(id, sample.at + SimDuration::from_millis(500))
                .unwrap();
        }
        assert_eq!(served.measure_run(id).unwrap(), expected, "after polls");
    }

    /// A noiseless profile draws nothing for current, CPU or memory — the
    /// samples are the model values — but voltage always wobbles: it is
    /// the first draw of each sample's own stream.
    #[test]
    fn noiseless_profile_still_draws_voltage() {
        let mut mgr = PhoneMgr::paper_default(18);
        let id = mgr.select(DeviceGrade::High, 1, t(0)).unwrap()[0];
        let mut quiet = PhoneProfile::high();
        quiet.noise_frac = 0.0;
        mgr.set_phone_profile(id, quiet).unwrap();
        let plan = mgr
            .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
            .unwrap();
        mgr.submit_run(id, plan).unwrap();
        let profile = PhoneProfile::high();
        let mut voltages = Vec::new();
        for secs in [2, 20, 35, 50, 70] {
            let sample = mgr.poll(id, t(secs)).unwrap();
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
            // The sample's stream, making only the voltage draw.
            let draw = sample_noise(noise_key(18, id), t(secs)).uniform_range(0.995, 1.005);
            let uv = profile.voltage_mv * 1_000.0 * draw;
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
        // A fleet with no Low phones has no Low profile to average: the
        // `try_` variant says so, and the plain one falls back to nominal.
        let no_low = PhoneMgr::with_fleet(
            FleetSpec {
                local: PerGrade::from_parts(4, 0),
                msp: PerGrade::from_parts(13, 0),
            },
            SimDuration::from_secs(1),
            11,
        );
        assert_eq!(no_low.count(DeviceGrade::Low, None), 0);
        assert!(no_low.try_effective_profile(DeviceGrade::Low).is_none());
        assert!(no_low.try_effective_profile(DeviceGrade::High).is_some());
        assert_eq!(
            no_low.effective_profile(DeviceGrade::Low).train_duration,
            PhoneProfile::low().train_duration
        );
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
    /// timings: an untouched fleet is the 16-byte records plus one free-set
    /// bitset per segment, touching `k` phones adds `k` cold states and no
    /// index allocation, measuring them adds nothing, and a
    /// crash-and-reboot leaves a nominal phone untouched again, measured or
    /// not.
    #[test]
    fn a_fleet_costs_what_it_touches() {
        assert!(std::mem::size_of::<PhoneDevice>() <= 16);
        let spec = FleetSpec::scaled_paper(100_000);
        let mut mgr = PhoneMgr::with_fleet(spec, SimDuration::from_secs(1), 3);
        let mut words = [[0; 2]; DeviceGrade::COUNT];
        for seg in spec.segments() {
            words[seg.grade.index()][crate::index::prov_slot(seg.provenance)] =
                seg.count.div_ceil(64);
        }
        assert_eq!(mgr.index.free_words(), words, "one bitset per segment");
        assert!(!mgr.phones.iter().any(PhoneDevice::is_touched));

        let k = 5;
        let runs = mgr.select(DeviceGrade::Low, k, t(0)).unwrap();
        for &id in &runs {
            let plan = mgr
                .plan_for(id, TaskId(1), t(0), 1, SimDuration::ZERO)
                .unwrap();
            mgr.submit_run(id, plan).unwrap();
        }
        assert_eq!(mgr.index.free_words(), words);
        let touched = mgr.phones.iter().filter(|p| p.is_touched()).count();
        assert_eq!(touched, k);

        // Measuring the runs leaves every phone as it was, and a measured
        // phone that crashes and reboots is untouched again.
        let before = mgr.phones.clone();
        for &id in &runs {
            assert!(!mgr.measure_run(id).unwrap().samples.is_empty());
        }
        assert!(mgr.phones == before, "measuring changes no phone");
        mgr.inject_crash(runs[0], t(1)).unwrap();
        mgr.reboot(runs[0]).unwrap();
        assert!(!mgr.phone(runs[0]).unwrap().is_touched());

        // Crash and reboot idle nominal phones, and one straggler, all High.
        let straggler = PhoneId(40_000);
        let mut slowed = PhoneProfile::high();
        slowed.train_duration = slowed.train_duration.mul_f64(2.0);
        mgr.set_phone_profile(straggler, slowed.clone()).unwrap();
        for secs in 1..=k as u64 {
            for id in [PhoneId(1_000 + secs as u32), straggler] {
                mgr.inject_crash(id, t(secs)).unwrap();
                assert_eq!(mgr.available(DeviceGrade::High, t(secs)), 56_665);
                mgr.reboot(id).unwrap();
            }
        }
        let touched = mgr.phones.iter().filter(|p| p.is_touched()).count();
        assert_eq!(touched, k, "the runs left and the straggler");
        assert_eq!(*mgr.phone(straggler).unwrap().profile(), slowed);
        assert_eq!(mgr.index.free_words(), words);
    }
}
