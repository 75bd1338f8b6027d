//! The application runtime layer: per-application state, task-id
//! namespacing, and the barrier reconfiguration policies.
//!
//! Historically the engine simulated exactly one rigid iterative
//! application — one [`AppConfig`] copied by value, one global
//! [`IterationState`], one makespan. This module pulls the application out
//! into its own object, [`AppRuntime`], so the engine can drive a *slice*
//! of them over the shared worker store:
//!
//! * **moldable** applications re-pick their task count at the iteration
//!   barrier from the current `UP` worker count ([`ReconfigPolicy::
//!   Moldable`], ReSHAPE-style — the barrier is the natural reconfiguration
//!   point);
//! * **co-scheduled** applications share one volatile platform under a
//!   [`vg_core::share::SharePolicy`] (equal split, DFRS-style weighted
//!   fractional shares, strict priority).
//!
//! ## Task-id namespacing
//!
//! Worker pipelines, the bind order and the slot scratch all carry
//! **global** [`TaskId`]s: application `a`'s local task `t` is encoded as
//! `a · 2²⁴ + t` ([`APP_TASK_SHIFT`]). Each [`IterationState`] keeps
//! operating on **local** ids; the engine translates at every boundary.
//! Application 0's base is 0, so in the single-application case global and
//! local ids are bit-for-bit the same numbers — one pillar of the
//! single-app bit-identity contract (see `docs/applications.md`).

use vg_des::Slot;
use vg_platform::AppConfig;

use crate::task::{IterationState, TaskId};

/// Bit position of the application index inside a global [`TaskId`].
pub const APP_TASK_SHIFT: u32 = 24;

/// Exclusive upper bound on `tasks_per_iteration` under the global task-id
/// encoding (local ids must fit below [`APP_TASK_SHIFT`]).
pub const MAX_APP_TASKS: usize = 1 << APP_TASK_SHIFT;

/// Maximum number of co-scheduled applications (the app index must fit in
/// the bits above [`APP_TASK_SHIFT`]).
pub const MAX_APPS: usize = 1 << (32 - APP_TASK_SHIFT);

/// Application index of a global task id.
#[inline]
#[must_use]
pub(crate) fn app_of(task: TaskId) -> usize {
    (task.0 >> APP_TASK_SHIFT) as usize
}

/// Local (per-application) id of a global task id.
#[inline]
#[must_use]
pub(crate) fn local_task(task: TaskId) -> TaskId {
    TaskId(task.0 & ((1 << APP_TASK_SHIFT) - 1))
}

/// Global id of `local` under an application's `task_base`.
#[inline]
#[must_use]
pub(crate) fn global_task(base: u32, local: TaskId) -> TaskId {
    debug_assert_eq!(base & ((1 << APP_TASK_SHIFT) - 1), 0);
    debug_assert!(local.0 < MAX_APP_TASKS as u32);
    TaskId(base | local.0)
}

/// The iteration state of `task`'s application, plus `task`'s local id —
/// the engine's one-line boundary translation.
#[inline]
pub(crate) fn iter_for(apps: &mut [AppRuntime], task: TaskId) -> (&mut IterationState, TaskId) {
    (&mut apps[app_of(task)].iter, local_task(task))
}

/// Integer parameters of the [`ReconfigPolicy::Moldable`] resize rule: at
/// each barrier the next iteration's task count becomes
/// `clamp(up_workers · num / den, min_tasks, max_tasks)`.
///
/// Integer-only on purpose: barrier decisions feed the deterministic slot
/// loop, so they must be exactly reproducible across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoldableParams {
    /// Numerator of the tasks-per-UP-worker ratio.
    pub tasks_per_up_num: u32,
    /// Denominator of the tasks-per-UP-worker ratio (≥ 1).
    pub tasks_per_up_den: u32,
    /// Lower bound on the re-picked task count (≥ 1).
    pub min_tasks: usize,
    /// Upper bound on the re-picked task count.
    pub max_tasks: usize,
}

impl Default for MoldableParams {
    /// One task per UP worker, between 1 and the encoding limit.
    fn default() -> Self {
        Self {
            tasks_per_up_num: 1,
            tasks_per_up_den: 1,
            min_tasks: 1,
            max_tasks: MAX_APP_TASKS - 1,
        }
    }
}

impl MoldableParams {
    /// The task count for the next iteration given `up` UP workers.
    #[must_use]
    pub fn pick_m(&self, up: usize) -> usize {
        let den = u64::from(self.tasks_per_up_den.max(1));
        let raw = (up as u64).saturating_mul(u64::from(self.tasks_per_up_num)) / den;
        let lo = self.min_tasks.clamp(1, MAX_APP_TASKS - 1);
        let hi = self.max_tasks.clamp(lo, MAX_APP_TASKS - 1);
        usize::try_from(raw).unwrap_or(hi).clamp(lo, hi)
    }
}

/// What an application does at its iteration barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconfigPolicy {
    /// Rigid: every iteration reruns the configured `tasks_per_iteration`
    /// — exactly the historical engine behavior.
    #[default]
    Fixed,
    /// Moldable: re-pick the task count from the current UP worker count
    /// (ReSHAPE-style). When the pick equals the current count the barrier
    /// takes the exact `Fixed` code path (`reset`, not `reinit`).
    Moldable(MoldableParams),
}

/// Caller-facing description of one application to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    /// Task/iteration/communication parameters. Under co-scheduling all
    /// applications must agree on `t_prog` and `t_data` (the worker
    /// pipeline state is application-agnostic).
    pub config: AppConfig,
    /// Share weight under [`vg_core::share::SharePolicy::Weighted`]
    /// (ignored by the other policies). Must be at least 1.
    pub weight: u32,
    /// Barrier reconfiguration policy.
    pub reconfig: ReconfigPolicy,
}

impl AppSpec {
    /// A rigid, weight-1 application — the historical default.
    #[must_use]
    pub fn rigid(config: AppConfig) -> Self {
        Self {
            config,
            weight: 1,
            reconfig: ReconfigPolicy::Fixed,
        }
    }

    /// A rigid application with an explicit share weight.
    #[must_use]
    pub fn weighted(config: AppConfig, weight: u32) -> Self {
        Self {
            config,
            weight,
            reconfig: ReconfigPolicy::Fixed,
        }
    }

    /// A weight-1 moldable application.
    #[must_use]
    pub fn moldable(config: AppConfig, params: MoldableParams) -> Self {
        Self {
            config,
            weight: 1,
            reconfig: ReconfigPolicy::Moldable(params),
        }
    }
}

/// How many barriers an application of `iterations` iterations can reach
/// in a run capped at `max_slots`: every iteration takes at least one slot,
/// so the cap bounds the completion log even for absurd iteration counts.
pub(crate) fn barrier_capacity(iterations: u64, max_slots: Slot) -> usize {
    usize::try_from(iterations.min(max_slots)).unwrap_or(usize::MAX)
}

/// Live state of one application inside the engine: its configuration, its
/// current [`IterationState`] (local task ids), its progress counters and
/// its task-id namespace base.
///
/// Fields are `pub(crate)`: the engine's slot loop reads and writes them
/// directly (no accessor indirection on the hot path); everything external
/// goes through the read-only accessors below or the per-app
/// [`crate::report::AppReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppRuntime {
    pub(crate) config: AppConfig,
    pub(crate) weight: u32,
    pub(crate) reconfig: ReconfigPolicy,
    /// Global-id base of this application's tasks (`index << APP_TASK_SHIFT`).
    pub(crate) task_base: u32,
    /// The live iteration, in **local** task ids.
    pub(crate) iter: IterationState,
    pub(crate) iterations_done: u64,
    /// Barrier slot of each finished iteration.
    pub(crate) iteration_completed_at: Vec<Slot>,
    /// Barrier slot of the final iteration, once the app has finished.
    pub(crate) completed_at: Option<Slot>,
    pub(crate) tasks_completed: u64,
}

impl AppRuntime {
    /// Fresh runtime for application `index` of a run.
    #[must_use]
    pub(crate) fn new(index: usize, spec: &AppSpec, max_extra: u8, max_slots: Slot) -> Self {
        debug_assert!(index < MAX_APPS);
        Self {
            config: spec.config,
            weight: spec.weight,
            reconfig: spec.reconfig,
            task_base: (index as u32) << APP_TASK_SHIFT,
            iter: IterationState::new(0, spec.config.tasks_per_iteration, max_extra),
            iterations_done: 0,
            // Preallocated for every barrier the run can reach so the
            // per-app completion log never grows inside the steady-state
            // slot loop (mirrors the engine's combined log).
            iteration_completed_at: Vec::with_capacity(barrier_capacity(
                spec.config.iterations,
                max_slots,
            )),
            completed_at: None,
            tasks_completed: 0,
        }
    }

    /// Reinitializes a warmed runtime in place for a new run (the arena
    /// counterpart of [`Self::new`], reusing the allocated buffers).
    pub(crate) fn reinit(&mut self, index: usize, spec: &AppSpec, max_extra: u8, max_slots: Slot) {
        debug_assert!(index < MAX_APPS);
        self.config = spec.config;
        self.weight = spec.weight;
        self.reconfig = spec.reconfig;
        self.task_base = (index as u32) << APP_TASK_SHIFT;
        self.iter
            .reinit(0, spec.config.tasks_per_iteration, max_extra);
        self.iterations_done = 0;
        self.iteration_completed_at.clear();
        self.iteration_completed_at
            .reserve(barrier_capacity(spec.config.iterations, max_slots));
        self.completed_at = None;
        self.tasks_completed = 0;
    }

    /// True once every requested iteration has completed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.iterations_done >= self.config.iterations
    }

    /// Starts the next iteration at a barrier: `Fixed` reuses the exact
    /// historical `reset` path; `Moldable` re-picks the task count from
    /// `up` (the slot's UP worker count) and resizes via `reinit` only when
    /// the pick differs. Task conservation across the resize is
    /// debug-asserted: the finished iteration must be fully complete before,
    /// and the new one must pool exactly its `m` tasks after.
    pub(crate) fn begin_next_iteration(&mut self, up: usize, max_extra: u8) {
        debug_assert!(
            self.iter.is_complete(),
            "barrier fired on an incomplete iteration"
        );
        debug_assert!(!self.finished());
        let index = self.iterations_done;
        match self.reconfig {
            ReconfigPolicy::Fixed => self.iter.reset(index),
            ReconfigPolicy::Moldable(params) => {
                let m_next = params.pick_m(up);
                if m_next == self.iter.m() {
                    // Size unchanged: take the exact Fixed path, so a
                    // Moldable app on a stable platform is bit-identical to
                    // a Fixed one.
                    self.iter.reset(index);
                } else {
                    self.iter.reinit(index, m_next, max_extra);
                }
            }
        }
        debug_assert_eq!(self.iter.n_completed(), 0, "tasks leaked across a barrier");
        debug_assert_eq!(
            self.iter.pool_len(),
            self.iter.m(),
            "barrier resize lost or duplicated pool tasks"
        );
    }

    /// Task/iteration configuration.
    #[must_use]
    pub fn config(&self) -> &AppConfig {
        &self.config
    }

    /// Share weight.
    #[must_use]
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Iterations completed so far.
    #[must_use]
    pub fn iterations_done(&self) -> u64 {
        self.iterations_done
    }

    /// Barrier slots of the finished iterations.
    #[must_use]
    pub fn iteration_completed_at(&self) -> &[Slot] {
        &self.iteration_completed_at
    }

    /// Barrier slot of the final iteration, once finished.
    #[must_use]
    pub fn completed_at(&self) -> Option<Slot> {
        self.completed_at
    }

    /// Tasks completed across all iterations.
    #[must_use]
    pub fn tasks_completed(&self) -> u64 {
        self.tasks_completed
    }

    /// Task count of the current (or final) iteration.
    #[must_use]
    pub fn current_m(&self) -> usize {
        self.iter.m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(m: usize, iters: u64) -> AppConfig {
        AppConfig {
            tasks_per_iteration: m,
            iterations: iters,
            t_prog: 5,
            t_data: 1,
        }
    }

    #[test]
    fn namespace_round_trips() {
        let base = 3u32 << APP_TASK_SHIFT;
        let g = global_task(base, TaskId(7));
        assert_eq!(app_of(g), 3);
        assert_eq!(local_task(g), TaskId(7));
        // App 0 is the identity encoding.
        assert_eq!(global_task(0, TaskId(42)), TaskId(42));
        assert_eq!(app_of(TaskId(42)), 0);
        assert_eq!(local_task(TaskId(42)), TaskId(42));
    }

    #[test]
    fn moldable_pick_clamps() {
        let p = MoldableParams {
            tasks_per_up_num: 3,
            tasks_per_up_den: 2,
            min_tasks: 2,
            max_tasks: 10,
        };
        assert_eq!(p.pick_m(0), 2);
        assert_eq!(p.pick_m(4), 6);
        assert_eq!(p.pick_m(7), 10); // 10.5 → floor 10 == cap
        assert_eq!(p.pick_m(1000), 10);
        assert_eq!(MoldableParams::default().pick_m(17), 17);
    }

    #[test]
    fn fixed_barrier_is_a_reset() {
        let spec = AppSpec::rigid(app(4, 3));
        let mut rt = AppRuntime::new(0, &spec, 2, 100);
        for t in 0..4 {
            rt.iter.mark_completed(TaskId(t));
        }
        rt.iterations_done = 1;
        rt.begin_next_iteration(9, 2);
        assert_eq!(rt.iter.m(), 4);
        assert_eq!(rt.iter.index(), 1);
        assert_eq!(rt.iter.pool_len(), 4);
    }

    #[test]
    fn moldable_barrier_resizes_with_up_count() {
        let spec = AppSpec::moldable(app(4, 3), MoldableParams::default());
        let mut rt = AppRuntime::new(1, &spec, 2, 100);
        assert_eq!(rt.task_base, 1 << APP_TASK_SHIFT);
        for t in 0..4 {
            rt.iter.mark_completed(TaskId(t));
        }
        rt.iterations_done = 1;
        rt.begin_next_iteration(7, 2);
        assert_eq!(rt.iter.m(), 7, "grew to the UP count");
        for t in 0..7 {
            rt.iter.mark_completed(TaskId(t));
        }
        rt.iterations_done = 2;
        rt.begin_next_iteration(2, 2);
        assert_eq!(rt.iter.m(), 2, "shrank to the UP count");
        assert_eq!(rt.iter.pool_len(), 2);
        assert!(!rt.finished());
    }

    #[test]
    fn reinit_matches_fresh_runtime() {
        let spec = AppSpec::weighted(app(3, 2), 5);
        let mut rt = AppRuntime::new(2, &spec, 1, 100);
        rt.iter.mark_completed(TaskId(0));
        rt.tasks_completed = 1;
        rt.iteration_completed_at.push(10);
        let other = AppSpec::moldable(app(6, 4), MoldableParams::default());
        rt.reinit(0, &other, 2, 100);
        assert_eq!(rt, AppRuntime::new(0, &other, 2, 100));
    }
}
