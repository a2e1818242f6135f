//! Sharded fleet construction: building million-phone fleets across
//! worker threads with a byte-identical result.
//!
//! A [`simdc_phone::FleetSpec`] decomposes into contiguous id-range
//! segments ([`simdc_phone::FleetSegment`]) whose devices are a pure
//! function of `(segment, seed)`. That makes fleet construction
//! embarrassingly parallel: chunk the segments, build every chunk on
//! whatever thread is free, and concatenate the results in id order.
//! [`PhoneMgr::from_prebuilt`] then assembles the manager exactly as the
//! sequential [`PhoneMgr::with_fleet`] would have — `with_fleet` is itself
//! implemented over the same segment builders, so the two paths cannot
//! drift, and `--threads N` fleets are indistinguishable from `--threads 1`
//! fleets down to each phone's rng stream.

use minipool::FixedPool;
use simdc_phone::{FleetSpec, PhoneMgr};
use simdc_types::SimDuration;

/// Minimum phones per construction chunk: below this, per-chunk overhead
/// (allocation, queue traffic) outweighs the parallelism. A fleet smaller
/// than one chunk is built inline.
const MIN_CHUNK: usize = 4_096;

/// The chunk plan for building `spec` on `threads` workers: each segment
/// split so every worker gets several chunks to load-balance over, but no
/// chunk smaller than [`MIN_CHUNK`] phones.
fn chunk_plan(spec: &FleetSpec, threads: usize) -> Vec<simdc_phone::FleetSegment> {
    let total = spec.total().max(1);
    let target = (total.div_ceil(threads.max(1) * 4)).max(MIN_CHUNK);
    spec.segments()
        .iter()
        .flat_map(|seg| seg.chunked(target))
        .collect()
}

/// Builds the fleet for `spec`, fanning device construction out over
/// `pool`'s workers. Returns the same fleet [`PhoneMgr::with_fleet`]
/// builds — same ids, models, profiles and per-phone rng streams — in a
/// fraction of the wall-clock time at scale.
///
/// # Panics
///
/// Panics if `poll_interval` is zero (as `with_fleet` does).
#[must_use]
pub fn build_fleet(
    pool: &FixedPool,
    spec: FleetSpec,
    poll_interval: SimDuration,
    seed: u64,
) -> PhoneMgr {
    // `MIN_CHUNK` only bounds how far a segment splits: a small fleet
    // still has one chunk per (grade, provenance) segment, and spawning
    // workers for those costs more than building them.
    if pool.threads() <= 1 || spec.total() < MIN_CHUNK {
        return PhoneMgr::with_fleet(spec, poll_interval, seed);
    }
    let chunks = chunk_plan(&spec, pool.threads());
    let built = pool.run_batch(chunks, |seg| seg.build(seed));
    let phones = built.into_iter().flatten().collect();
    PhoneMgr::from_prebuilt(phones, poll_interval).expect("segment ids cannot collide")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::{DeviceGrade, SimInstant};

    #[test]
    fn chunk_plan_tiles_the_id_space() {
        let spec = FleetSpec::scaled_paper(50_000);
        let chunks = chunk_plan(&spec, 8);
        assert!(chunks.len() > 4, "a 50k fleet must split across chunks");
        let mut next = 0u32;
        for c in &chunks {
            assert_eq!(c.start, next);
            assert!(c.count >= 1);
            next += c.count as u32;
        }
        assert_eq!(next as usize, spec.total());
    }

    #[test]
    fn parallel_fleet_matches_sequential_fleet() {
        let spec = FleetSpec::scaled_paper(10_000);
        let poll = SimDuration::from_secs(1);
        let seq = PhoneMgr::with_fleet(spec, poll, 9);
        let par = build_fleet(&FixedPool::new(4), spec, poll, 9);
        assert_eq!(seq.phones(), par.phones());
        let now = SimInstant::EPOCH;
        for grade in DeviceGrade::ALL {
            assert_eq!(seq.available(grade, now), par.available(grade, now));
            assert_eq!(
                seq.select(grade, 7, now).unwrap(),
                par.select(grade, 7, now).unwrap()
            );
            assert_eq!(
                seq.effective_profile(grade).beta(),
                par.effective_profile(grade).beta()
            );
        }
    }
}
