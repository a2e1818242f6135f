//! The five-stage execution lifecycle of a phone task run.

use serde::{Deserialize, Serialize};
use simdc_types::{PhoneId, Result, RoundId, SimDuration, SimInstant, SimdcError, TaskId};

/// Lifecycle stage of a phone executing a task (Table I), plus the
/// unmeasured waiting gap between training rounds (Fig 5's dashed
/// segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Stage 1 — background tasks cleared, APK not yet running.
    NoApk,
    /// Stage 2 — APK launched, training not started.
    ApkLaunch,
    /// Stage 3 — training.
    Training,
    /// Waiting for global aggregation between rounds (not part of Table I;
    /// excluded from stage reports).
    Waiting,
    /// Stage 4 — training done, APK still active.
    PostTraining,
    /// Stage 5 — APK exited, background cleared again.
    ApkClosed,
}

impl Stage {
    /// Index into Table I's five measured stages, or `None` for
    /// [`Stage::Waiting`].
    #[must_use]
    pub const fn table_index(self) -> Option<usize> {
        match self {
            Stage::NoApk => Some(0),
            Stage::ApkLaunch => Some(1),
            Stage::Training => Some(2),
            Stage::Waiting => None,
            Stage::PostTraining => Some(3),
            Stage::ApkClosed => Some(4),
        }
    }

    /// Table I row label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Stage::NoApk => "no APK initiated",
            Stage::ApkLaunch => "APK launch",
            Stage::Training => "Training",
            Stage::Waiting => "waiting for aggregation",
            Stage::PostTraining => "Post-training",
            Stage::ApkClosed => "Closure of APK",
        }
    }

    /// Whether the training APK process is alive in this stage.
    #[must_use]
    pub const fn apk_running(self) -> bool {
        matches!(
            self,
            Stage::ApkLaunch | Stage::Training | Stage::Waiting | Stage::PostTraining
        )
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One contiguous window of a stage, possibly tagged with the round it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageWindow {
    /// The stage.
    pub stage: Stage,
    /// Window start (inclusive).
    pub start: SimInstant,
    /// Window length.
    pub duration: SimDuration,
    /// Training round this window belongs to, for `Training`/`Waiting`.
    pub round: Option<RoundId>,
}

impl StageWindow {
    /// Window end (exclusive).
    #[must_use]
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }

    /// Whether `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: SimInstant) -> bool {
        t >= self.start && t < self.end()
    }
}

/// The full timed plan of one task run on one phone.
///
/// Layout: `NoApk → ApkLaunch → (Training [→ Waiting])ⁿ → PostTraining →
/// ApkClosed`. The measurement windows for stages 1/2/4/5 are fixed at
/// 0.25 min, matching Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunPlan {
    /// Task being executed.
    pub task: TaskId,
    /// Executing phone.
    pub phone: PhoneId,
    windows: Vec<StageWindow>,
}

/// Fixed measurement window for the non-training stages (0.25 min).
pub const MEASUREMENT_WINDOW: SimDuration = SimDuration::from_millis(15_000);

impl RunPlan {
    /// Builds a plan starting at `start` with one training window per
    /// round and the given waiting gap after each non-final round.
    ///
    /// `round_durations[r]` is the round-`r` training time;
    /// `waiting_gaps[r]` (length = rounds − 1) the aggregation wait that
    /// follows it.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` if `round_durations` is empty, any duration
    /// is zero, or the gap count is not `rounds − 1`.
    pub fn new(
        task: TaskId,
        phone: PhoneId,
        start: SimInstant,
        round_durations: &[SimDuration],
        waiting_gaps: &[SimDuration],
    ) -> Result<Self> {
        use SimdcError::InvalidConfig;
        if round_durations.is_empty() {
            return Err(InvalidConfig("a run needs at least one round".into()));
        }
        if round_durations.iter().any(|d| d.is_zero()) {
            return Err(InvalidConfig("round durations must be positive".into()));
        }
        if waiting_gaps.len() + 1 != round_durations.len() {
            return Err(InvalidConfig(format!(
                "expected {} waiting gaps for {} rounds, got {}",
                round_durations.len() - 1,
                round_durations.len(),
                waiting_gaps.len()
            )));
        }

        let mut windows = Vec::with_capacity(round_durations.len() * 2 + 4);
        let mut t = start;
        let push = |windows: &mut Vec<StageWindow>,
                    t: &mut SimInstant,
                    stage: Stage,
                    d: SimDuration,
                    round: Option<RoundId>| {
            windows.push(StageWindow {
                stage,
                start: *t,
                duration: d,
                round,
            });
            *t += d;
        };

        push(&mut windows, &mut t, Stage::NoApk, MEASUREMENT_WINDOW, None);
        push(
            &mut windows,
            &mut t,
            Stage::ApkLaunch,
            MEASUREMENT_WINDOW,
            None,
        );
        for (r, &d) in round_durations.iter().enumerate() {
            let round = RoundId(r as u32);
            push(&mut windows, &mut t, Stage::Training, d, Some(round));
            if r < waiting_gaps.len() && !waiting_gaps[r].is_zero() {
                push(
                    &mut windows,
                    &mut t,
                    Stage::Waiting,
                    waiting_gaps[r],
                    Some(round),
                );
            }
        }
        push(
            &mut windows,
            &mut t,
            Stage::PostTraining,
            MEASUREMENT_WINDOW,
            None,
        );
        push(
            &mut windows,
            &mut t,
            Stage::ApkClosed,
            MEASUREMENT_WINDOW,
            None,
        );

        Ok(RunPlan {
            task,
            phone,
            windows,
        })
    }

    /// The stage windows in time order.
    #[must_use]
    pub fn windows(&self) -> &[StageWindow] {
        &self.windows
    }

    /// Plan start.
    #[must_use]
    pub fn start(&self) -> SimInstant {
        self.windows[0].start
    }

    /// Plan end (exclusive).
    #[must_use]
    pub fn end(&self) -> SimInstant {
        self.windows.last().expect("plans are non-empty").end()
    }

    /// The stage active at `t`, if `t` is inside the plan.
    #[must_use]
    pub fn stage_at(&self, t: SimInstant) -> Option<Stage> {
        self.window_at(t).map(|w| w.stage)
    }

    /// The window active at `t`.
    #[must_use]
    pub fn window_at(&self, t: SimInstant) -> Option<&StageWindow> {
        self.windows.iter().find(|w| w.contains(t))
    }

    /// Number of training rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.stage == Stage::Training)
            .count()
    }

    /// Elapsed active-training time up to `t` (across completed and
    /// current training windows). Drives the memory ramp model.
    #[must_use]
    pub fn training_elapsed_at(&self, t: SimInstant) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for w in &self.windows {
            if w.stage != Stage::Training {
                continue;
            }
            if t >= w.end() {
                total += w.duration;
            } else if w.contains(t) {
                total += t.duration_since(w.start);
            }
        }
        total
    }

    /// Completed training rounds strictly before `t`, and the progress
    /// fraction of the currently running round (0 if none).
    #[must_use]
    pub fn round_progress_at(&self, t: SimInstant) -> (u32, f64) {
        let mut completed = 0u32;
        let mut progress = 0.0;
        for w in &self.windows {
            if w.stage != Stage::Training {
                continue;
            }
            if t >= w.end() {
                completed += 1;
            } else if w.contains(t) {
                progress = t.duration_since(w.start).as_secs_f64() / w.duration.as_secs_f64();
            }
        }
        (completed, progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> RunPlan {
        RunPlan::new(
            TaskId(1),
            PhoneId(0),
            SimInstant::EPOCH,
            &[
                SimDuration::from_secs(16),
                SimDuration::from_secs(16),
                SimDuration::from_secs(16),
            ],
            &[SimDuration::from_secs(30), SimDuration::from_secs(30)],
        )
        .unwrap()
    }

    #[test]
    fn layout_matches_lifecycle() {
        let p = plan();
        let stages: Vec<Stage> = p.windows().iter().map(|w| w.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::NoApk,
                Stage::ApkLaunch,
                Stage::Training,
                Stage::Waiting,
                Stage::Training,
                Stage::Waiting,
                Stage::Training,
                Stage::PostTraining,
                Stage::ApkClosed,
            ]
        );
        assert_eq!(p.rounds(), 3);
    }

    #[test]
    fn stage_at_walks_the_timeline() {
        let p = plan();
        let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
        assert_eq!(p.stage_at(t(0)), Some(Stage::NoApk));
        assert_eq!(p.stage_at(t(15)), Some(Stage::ApkLaunch));
        assert_eq!(p.stage_at(t(31)), Some(Stage::Training));
        assert_eq!(p.stage_at(t(50)), Some(Stage::Waiting));
        assert_eq!(p.stage_at(p.end()), None);
    }

    #[test]
    fn round_tagging() {
        let p = plan();
        let trainings: Vec<Option<RoundId>> = p
            .windows()
            .iter()
            .filter(|w| w.stage == Stage::Training)
            .map(|w| w.round)
            .collect();
        assert_eq!(
            trainings,
            vec![Some(RoundId(0)), Some(RoundId(1)), Some(RoundId(2))]
        );
    }

    #[test]
    fn training_elapsed_accumulates_across_gaps() {
        let p = plan();
        let mid_round2 = SimInstant::EPOCH + SimDuration::from_secs(30 + 16 + 30 + 8);
        let elapsed = p.training_elapsed_at(mid_round2);
        assert_eq!(elapsed, SimDuration::from_secs(24)); // 16 + 8
        assert_eq!(p.training_elapsed_at(p.end()), SimDuration::from_secs(48));
    }

    #[test]
    fn round_progress() {
        let p = plan();
        let mid_round2 = SimInstant::EPOCH + SimDuration::from_secs(30 + 16 + 30 + 8);
        let (completed, progress) = p.round_progress_at(mid_round2);
        assert_eq!(completed, 1);
        assert!((progress - 0.5).abs() < 1e-9);
    }

    #[test]
    fn single_round_has_no_waiting() {
        let p = RunPlan::new(
            TaskId(1),
            PhoneId(0),
            SimInstant::EPOCH,
            &[SimDuration::from_secs(20)],
            &[],
        )
        .unwrap();
        assert!(p.windows().iter().all(|w| w.stage != Stage::Waiting));
    }

    #[test]
    fn invalid_plans_rejected() {
        assert!(RunPlan::new(TaskId(1), PhoneId(0), SimInstant::EPOCH, &[], &[]).is_err());
        assert!(RunPlan::new(
            TaskId(1),
            PhoneId(0),
            SimInstant::EPOCH,
            &[SimDuration::ZERO],
            &[]
        )
        .is_err());
        assert!(RunPlan::new(
            TaskId(1),
            PhoneId(0),
            SimInstant::EPOCH,
            &[SimDuration::from_secs(1)],
            &[SimDuration::from_secs(1)]
        )
        .is_err());
    }

    #[test]
    fn apk_running_flags() {
        assert!(!Stage::NoApk.apk_running());
        assert!(Stage::Training.apk_running());
        assert!(Stage::Waiting.apk_running());
        assert!(!Stage::ApkClosed.apk_running());
    }

    #[test]
    fn table_indices_cover_five_stages() {
        let indices: Vec<Option<usize>> = [
            Stage::NoApk,
            Stage::ApkLaunch,
            Stage::Training,
            Stage::PostTraining,
            Stage::ApkClosed,
        ]
        .iter()
        .map(|s| s.table_index())
        .collect();
        assert_eq!(indices, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(Stage::Waiting.table_index(), None);
    }
}
