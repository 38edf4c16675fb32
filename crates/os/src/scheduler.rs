//! Multiprogramming PALs with legacy work — the concurrency experiment.
//!
//! §4.2: on baseline hardware "the late launch operation requires all
//! but one of the processors to be in a special idle state. As a result,
//! most of the computer's processing power and responsiveness vanish for
//! over a second during PAL execution."
//!
//! §5 (Figure 4): the proposed hardware runs "an arbitrary number of
//! mutually-untrusting PALs alongside an untrusted legacy OS", each on
//! one core, context-switched at VM-entry cost.
//!
//! [`Scheduler`] implements the proposed-hardware schedule (least-loaded
//! CPU assignment over an [`EnhancedSea`]); [`LegacyBatch`] implements
//! the baseline whole-platform-stall schedule. Both report the same
//! [`ScheduleOutcome`] so the `concurrency` bench can compare legacy
//! CPU time available under each.

use sea_core::{
    BatchPolicy, ConcurrentJob, EnhancedSea, LegacySea, PalId, PalLogic, PalStep, RetryPolicy,
    SecurePlatform, SessionEngine, SessionReport, SessionResult,
};
use sea_hw::{CpuId, FaultPlan, ResetPlan, SimDuration, SimTime};

use crate::error::OsError;

/// What a scheduling run produced and consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Wall-clock (virtual) length of the schedule.
    pub wall: SimDuration,
    /// CPU time consumed executing PALs (including their overheads).
    pub pal_busy: SimDuration,
    /// CPU time burned in the baseline's forced-idle state (zero on the
    /// proposed hardware).
    pub stalled: SimDuration,
    /// CPU time left over for legacy OS + applications within `horizon`.
    pub legacy_available: SimDuration,
    /// Outputs of the completed PALs, in job order. A killed job
    /// contributes an empty output.
    pub outputs: Vec<Vec<u8>>,
    /// Per-job cost reports, in job order.
    pub reports: Vec<SessionReport>,
    /// Session keys (job indices) torn down by the recovery layer after
    /// exhausting their retry budget. Empty without a fault plan.
    pub killed: Vec<u64>,
    /// Session keys that fell back to the legacy slow path because the
    /// sePCR bank was saturated. Empty without a fault plan.
    pub degraded: Vec<u64>,
    /// Session keys relaunched from the journal after a platform reset
    /// (last recovery epoch). Empty without a reset plan.
    pub relaunched: Vec<u64>,
    /// Platform resets survived during the schedule. Zero without a
    /// reset plan.
    pub resets: u32,
}

impl ScheduleOutcome {
    /// Fraction of total CPU time (cores × horizon) left for legacy
    /// work, in `[0, 1]`.
    pub fn legacy_utilization(&self, n_cpus: u16, horizon: SimDuration) -> f64 {
        let total = horizon.as_ns().saturating_mul(n_cpus as u64);
        if total == 0 {
            return 0.0;
        }
        self.legacy_available.as_ns() as f64 / total as f64
    }
}

struct Job {
    logic: Box<dyn PalLogic>,
    input: Vec<u8>,
    id: Option<PalId>,
    needs_resume: bool,
    output: Option<Vec<u8>>,
    /// Retries consumed from the policy's budget so far.
    retries: u32,
    /// Report for jobs that never held a [`PalId`] to query (degraded
    /// to the legacy path, or killed before launch completed).
    report_override: Option<SessionReport>,
}

/// Least-loaded-CPU scheduler over the proposed hardware.
///
/// Jobs are stepped round-robin; every SEA operation's virtual-time cost
/// is attributed to the CPU it ran on, and independent PALs on different
/// CPUs overlap — so the schedule's wall time is the *longest per-CPU
/// timeline*, not the sum.
pub struct Scheduler {
    sea: EnhancedSea,
    jobs: Vec<Job>,
    preemption_timer: Option<SimDuration>,
    retry_policy: Option<RetryPolicy>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Wraps an [`EnhancedSea`] runtime.
    pub fn new(sea: EnhancedSea) -> Self {
        Scheduler {
            sea,
            jobs: Vec::new(),
            preemption_timer: None,
            retry_policy: None,
        }
    }

    /// Sets the preemption timer the OS installs for every PAL.
    pub fn set_preemption_timer(&mut self, timer: Option<SimDuration>) {
        self.preemption_timer = timer;
    }

    /// Enables (or disables) fault recovery: with a policy installed,
    /// SEA operations go through the `*_keyed` fault-injection points,
    /// transient failures are retried within the policy's budget,
    /// sePCR-bank saturation degrades the job to the legacy slow path,
    /// and exhausted sessions are `SKILL`ed — their slot is reclaimed
    /// and the rest of the batch completes.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry_policy = policy;
    }

    /// Queues a PAL job.
    pub fn add_job(&mut self, logic: Box<dyn PalLogic>, input: &[u8]) {
        self.jobs.push(Job {
            logic,
            input: input.to_vec(),
            id: None,
            needs_resume: false,
            output: None,
            retries: 0,
            report_override: None,
        });
    }

    /// The wrapped runtime (e.g. for post-run attestation).
    pub fn sea(&self) -> &EnhancedSea {
        &self.sea
    }

    /// Mutable access to the wrapped runtime.
    pub fn sea_mut(&mut self) -> &mut EnhancedSea {
        &mut self.sea
    }

    /// Runs every queued job to completion, then accounts legacy CPU
    /// time within `horizon` (which must be at least the schedule's
    /// wall time).
    ///
    /// # Errors
    ///
    /// [`OsError::NothingToRun`] with an empty queue; SEA failures
    /// propagate as [`OsError::Sea`].
    pub fn run_all(&mut self, horizon: SimDuration) -> Result<ScheduleOutcome, OsError> {
        if self.jobs.is_empty() {
            return Err(OsError::NothingToRun);
        }
        let n_cpus = self.sea.platform().machine().platform().n_cpus;
        let mut busy = vec![SimDuration::ZERO; n_cpus as usize];
        let policy = self.retry_policy;
        let mut killed: Vec<u64> = Vec::new();
        let mut degraded: Vec<u64> = Vec::new();

        let mut remaining = self.jobs.len();
        while remaining > 0 {
            for (index, job) in self.jobs.iter_mut().enumerate() {
                if job.output.is_some() {
                    continue;
                }
                let key = index as u64;
                // Pick the least-loaded CPU.
                let cpu = CpuId(
                    busy.iter()
                        .enumerate()
                        .min_by_key(|(_, b)| **b)
                        .map(|(i, _)| i as u16)
                        .ok_or(OsError::SchedulerInternal("scheduler has no CPUs"))?,
                );
                let before = self.sea.platform().machine().now();
                let id = match job.id {
                    None => match policy {
                        None => {
                            let id = self.sea.slaunch(
                                job.logic.as_mut(),
                                &job.input,
                                cpu,
                                self.preemption_timer,
                            )?;
                            job.id = Some(id);
                            id
                        }
                        Some(pol) => {
                            let launched = loop {
                                let error = match self.sea.slaunch_keyed(
                                    job.logic.as_mut(),
                                    &job.input,
                                    cpu,
                                    self.preemption_timer,
                                    key,
                                ) {
                                    Ok(id) => break Some(id),
                                    Err(e) => e,
                                };
                                if RetryPolicy::is_saturation(&error) {
                                    // Graceful degradation: run the job on
                                    // the legacy slow path instead of
                                    // waiting for a free sePCR.
                                    let done = self.sea.run_legacy_fallback(
                                        job.logic.as_mut(),
                                        &job.input,
                                        cpu,
                                    )?;
                                    job.output = Some(done.output);
                                    job.report_override = Some(done.report);
                                    degraded.push(key);
                                    break None;
                                }
                                if pol.is_retryable(&error) && job.retries < pol.max_retries() {
                                    job.retries += 1;
                                    continue;
                                }
                                // Nothing launched (a faulted SLAUNCH
                                // already rolled its pages back), so
                                // there is nothing to SKILL.
                                job.output = Some(Vec::new());
                                job.report_override = Some(SessionReport::default());
                                killed.push(key);
                                break None;
                            };
                            match launched {
                                Some(id) => {
                                    job.id = Some(id);
                                    id
                                }
                                None => {
                                    let elapsed =
                                        self.sea.platform().machine().now().duration_since(before);
                                    busy[cpu.0 as usize] += elapsed;
                                    remaining -= 1;
                                    continue;
                                }
                            }
                        }
                    },
                    Some(id) => {
                        if job.needs_resume {
                            let resumed = match policy {
                                None => {
                                    self.sea.resume(id, cpu)?;
                                    true
                                }
                                Some(pol) => loop {
                                    match self.sea.resume_keyed(id, cpu, key) {
                                        Ok(()) => break true,
                                        Err(e)
                                            if pol.is_retryable(&e)
                                                && job.retries < pol.max_retries() =>
                                        {
                                            job.retries += 1;
                                        }
                                        Err(_) => break false,
                                    }
                                },
                            };
                            if !resumed {
                                self.sea.kill_session(id, key)?;
                                job.output = Some(Vec::new());
                                killed.push(key);
                                let elapsed =
                                    self.sea.platform().machine().now().duration_since(before);
                                busy[cpu.0 as usize] += elapsed;
                                remaining -= 1;
                                continue;
                            }
                            job.needs_resume = false;
                        }
                        id
                    }
                };
                let step = match policy {
                    None => self.sea.step(job.logic.as_mut(), id)?,
                    Some(_) => match self.sea.step_keyed(job.logic.as_mut(), id, key) {
                        Ok(step) => step,
                        Err(_) => {
                            // A failing PAL is misbehaving: SKILL it and
                            // let the rest of the schedule proceed.
                            self.sea.kill_session(id, key)?;
                            job.output = Some(Vec::new());
                            killed.push(key);
                            let elapsed =
                                self.sea.platform().machine().now().duration_since(before);
                            busy[cpu.0 as usize] += elapsed;
                            remaining -= 1;
                            continue;
                        }
                    },
                };
                let elapsed = self.sea.platform().machine().now().duration_since(before);
                busy[cpu.0 as usize] += elapsed;
                match step {
                    PalStep::Exited { output } => {
                        job.output = Some(output);
                        remaining -= 1;
                        // The OS recycles the sePCR immediately; callers
                        // wanting an attestation should quote through
                        // `sea_mut()` before the job is re-run.
                        self.sea.release_sepcr(id)?;
                    }
                    PalStep::Yielded => {
                        job.needs_resume = true;
                    }
                }
            }
        }

        let wall = busy.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let pal_busy: SimDuration = busy.iter().copied().sum();
        let horizon = horizon.max(wall);
        let legacy_available =
            SimDuration::from_ns(horizon.as_ns() * n_cpus as u64 - pal_busy.as_ns());

        let mut outputs = Vec::with_capacity(self.jobs.len());
        let mut reports = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            outputs.push(
                job.output
                    .clone()
                    .ok_or(OsError::SchedulerInternal("job finished without an output"))?,
            );
            let report = match (job.report_override, job.id) {
                (Some(report), _) => report,
                (None, Some(id)) => self.sea.report(id)?,
                (None, None) => SessionReport::default(),
            };
            reports.push(report);
        }
        Ok(ScheduleOutcome {
            wall,
            pal_busy,
            stalled: SimDuration::ZERO,
            legacy_available,
            outputs,
            reports,
            killed,
            degraded,
            relaunched: Vec::new(),
            resets: 0,
        })
    }
}

/// Collects per-session outputs, reports, and kill/degrade key lists
/// from a batch result, in job order.
fn unpack_sessions(
    sessions: &[SessionResult],
) -> (Vec<Vec<u8>>, Vec<SessionReport>, Vec<u64>, Vec<u64>) {
    let mut outputs = Vec::with_capacity(sessions.len());
    let mut reports = Vec::with_capacity(sessions.len());
    let mut killed = Vec::new();
    let mut degraded = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        match session {
            SessionResult::Quoted { result, .. } => {
                outputs.push(result.output.clone());
                reports.push(result.report);
            }
            SessionResult::Degraded { output, report, .. } => {
                outputs.push(output.clone());
                reports.push(*report);
                degraded.push(i as u64);
            }
            SessionResult::Killed { .. } => {
                outputs.push(Vec::new());
                reports.push(SessionReport::default());
                killed.push(i as u64);
            }
            // `SessionResult` is non-exhaustive; treat unknown future
            // outcomes as kills so they are visible.
            _ => {
                outputs.push(Vec::new());
                reports.push(SessionReport::default());
                killed.push(i as u64);
            }
        }
    }
    (outputs, reports, killed, degraded)
}

/// The OS feeding the multi-core concurrent session engine: queued jobs
/// are dispatched to a [`SessionEngine`]'s workers (virtual CPUs, one
/// per simulated CPU, stepped by the discrete-event executor) instead
/// of being stepped round-robin by the cooperative scheduler.
///
/// Reports the same [`ScheduleOutcome`] as [`Scheduler`], so the
/// concurrency experiments can swap drivers without changing their
/// accounting — and the two must agree: job outputs and per-job reports
/// are byte-identical between [`Scheduler`] (cooperative, serial host
/// execution) and [`ParallelScheduler`] at any worker count.
pub struct ParallelScheduler {
    pool: SessionEngine,
    n_cpus: u16,
    jobs: Vec<ConcurrentJob>,
    retry_policy: Option<RetryPolicy>,
    reset_plan: Option<ResetPlan>,
}

impl std::fmt::Debug for ParallelScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelScheduler")
            .field("workers", &self.pool.workers())
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl ParallelScheduler {
    /// Builds a pool of `workers` virtual CPUs over `platform`.
    ///
    /// # Errors
    ///
    /// As for [`SessionEngine::new`].
    pub fn new(platform: SecurePlatform, workers: usize) -> Result<Self, OsError> {
        let n_cpus = platform.machine().platform().n_cpus;
        Ok(ParallelScheduler {
            pool: SessionEngine::new(platform, workers)?,
            n_cpus,
            jobs: Vec::new(),
            retry_policy: None,
            reset_plan: None,
        })
    }

    /// Installs (or clears) a deterministic fault plan on the pool.
    /// Takes effect only together with [`Self::set_retry_policy`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.pool.set_fault_plan(plan);
    }

    /// Enables (or disables) fault recovery, as
    /// [`Scheduler::set_retry_policy`] does for the cooperative driver.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry_policy = policy;
    }

    /// Installs (or clears) a platform reset plan. With a plan set,
    /// [`Self::run_all`] drives the batch through the crash-consistent
    /// engine: every terminal session commits to the journaled NVRAM
    /// checkpoint, power losses reboot the platform mid-batch, and the
    /// scheduler rebuilds its run queue from the journal — committed
    /// sessions keep their results, torn ones are relaunched.
    pub fn set_reset_plan(&mut self, plan: Option<ResetPlan>) {
        self.reset_plan = plan;
    }

    /// Queues a PAL job. Unlike [`Scheduler::add_job`] the logic must be
    /// [`Send`]: the engine's job type requires it.
    pub fn add_job(&mut self, logic: Box<dyn PalLogic + Send>, input: &[u8]) {
        self.pool.obs().add("os.enqueued", 1);
        self.jobs.push(ConcurrentJob::new(logic, input.to_vec()));
    }

    /// Workers (virtual CPUs) in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Installs the observability handle into the pool's engine.
    /// The scheduler then emits `os.*` counters (queue depth, dispatch,
    /// relaunch, reset) alongside the engine's session spans.
    pub fn install_obs(&mut self, obs: sea_hw::Obs) {
        self.pool.install_obs(obs);
    }

    /// Runs every queued job across the pool, then accounts legacy CPU
    /// time within `horizon` exactly as [`Scheduler::run_all`] does.
    ///
    /// # Errors
    ///
    /// [`OsError::NothingToRun`] with an empty queue; SEA failures
    /// propagate as [`OsError::Sea`].
    pub fn run_all(&mut self, horizon: SimDuration) -> Result<ScheduleOutcome, OsError> {
        if self.jobs.is_empty() {
            return Err(OsError::NothingToRun);
        }
        let obs = self.pool.obs();
        obs.add("os.dispatched", self.jobs.len() as u64);
        // The scheduler's knobs compose directly into a batch policy:
        // a reset plan turns on the crash-consistent journal (retry
        // defaults on, since relaunches ride the recovery driver), a
        // retry policy alone turns on fault recovery, neither runs the
        // plain fault-free path.
        let policy = match (self.retry_policy, self.reset_plan.clone()) {
            (retry, Some(plan)) => BatchPolicy::plain()
                .with_retry(retry.unwrap_or_default())
                .with_durability(plan),
            (Some(retry), None) => BatchPolicy::plain().with_retry(retry),
            (None, None) => BatchPolicy::plain(),
        };
        let outcome = self.pool.run(std::mem::take(&mut self.jobs), &policy)?;
        let pal_busy: SimDuration = outcome.cpu_busy.iter().copied().sum();
        let horizon = horizon.max(outcome.wall);
        let legacy_available =
            SimDuration::from_ns(horizon.as_ns() * self.n_cpus as u64 - pal_busy.as_ns());
        let (outputs, reports, killed, degraded) = unpack_sessions(&outcome.sessions);
        if self.reset_plan.is_some() {
            obs.add("os.relaunched", outcome.relaunched.len() as u64);
            obs.add("os.resets", outcome.resets as u64);
        }
        Ok(ScheduleOutcome {
            wall: outcome.wall,
            pal_busy,
            stalled: SimDuration::ZERO,
            legacy_available,
            outputs,
            reports,
            killed,
            degraded,
            relaunched: outcome.relaunched,
            resets: outcome.resets,
        })
    }
}

/// The baseline schedule: PAL sessions run one at a time, and each one
/// stalls every other core for its whole duration (§4.2).
pub struct LegacyBatch {
    sea: LegacySea,
    jobs: Vec<(Box<dyn PalLogic>, Vec<u8>)>,
}

impl std::fmt::Debug for LegacyBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LegacyBatch")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl LegacyBatch {
    /// Wraps a [`LegacySea`] runtime.
    pub fn new(sea: LegacySea) -> Self {
        LegacyBatch {
            sea,
            jobs: Vec::new(),
        }
    }

    /// Queues a PAL job.
    pub fn add_job(&mut self, logic: Box<dyn PalLogic>, input: &[u8]) {
        self.jobs.push((logic, input.to_vec()));
    }

    /// The wrapped runtime.
    pub fn sea(&self) -> &LegacySea {
        &self.sea
    }

    /// Runs every queued session back-to-back and accounts the cost to
    /// the whole platform within `horizon`.
    ///
    /// # Errors
    ///
    /// [`OsError::NothingToRun`] with an empty queue; SEA failures
    /// propagate.
    pub fn run_all(&mut self, horizon: SimDuration) -> Result<ScheduleOutcome, OsError> {
        if self.jobs.is_empty() {
            return Err(OsError::NothingToRun);
        }
        let n_cpus = self.sea.platform().machine().platform().n_cpus as u64;
        let start: SimTime = self.sea.platform().machine().now();
        let mut outputs = Vec::new();
        let mut reports = Vec::new();
        for (logic, input) in &mut self.jobs {
            let result = self.sea.run_session(logic.as_mut(), input)?;
            outputs.push(result.output.unwrap_or_default());
            reports.push(result.report);
        }
        let wall = self.sea.platform().machine().now().duration_since(start);
        let horizon = horizon.max(wall);
        // During sessions, one core runs the PAL and the others idle.
        let pal_busy = wall;
        let stalled = SimDuration::from_ns(wall.as_ns() * (n_cpus - 1));
        let legacy_available =
            SimDuration::from_ns(horizon.as_ns() * n_cpus - pal_busy.as_ns() - stalled.as_ns());
        Ok(ScheduleOutcome {
            wall,
            pal_busy,
            stalled,
            legacy_available,
            outputs,
            reports,
            killed: Vec::new(),
            degraded: Vec::new(),
            relaunched: Vec::new(),
            resets: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::{FnPal, PalOutcome, SecurePlatform};
    use sea_hw::Platform;
    use sea_tpm::KeyStrength;

    fn make_pal(n: usize, work_ms: u64) -> Box<dyn PalLogic> {
        Box::new(
            FnPal::new(&format!("job-{n}"), move |ctx| {
                ctx.work(SimDuration::from_ms(work_ms));
                Ok(PalOutcome::Exit(vec![n as u8]))
            })
            .with_image_size(4096),
        )
    }

    fn enhanced(n_cpus: u16) -> EnhancedSea {
        EnhancedSea::new(SecurePlatform::new(
            Platform::recommended(n_cpus),
            KeyStrength::Demo512,
            b"sched",
        ))
        .unwrap()
    }

    #[test]
    fn empty_queue_is_an_error() {
        let mut s = Scheduler::new(enhanced(2));
        assert_eq!(
            s.run_all(SimDuration::from_secs(1)),
            Err(OsError::NothingToRun)
        );
    }

    #[test]
    fn jobs_spread_across_cpus() {
        let mut s = Scheduler::new(enhanced(4));
        for i in 0..4 {
            s.add_job(make_pal(i, 100), b"");
        }
        let out = s.run_all(SimDuration::from_secs(1)).unwrap();
        assert_eq!(out.outputs, vec![vec![0], vec![1], vec![2], vec![3]]);
        // Four ~100 ms jobs on four CPUs: wall ≈ one job, not four.
        assert!(out.wall < SimDuration::from_ms(150), "wall {}", out.wall);
        assert!(out.pal_busy > SimDuration::from_ms(380));
        assert_eq!(out.stalled, SimDuration::ZERO);
    }

    #[test]
    fn legacy_available_accounts_horizon() {
        let mut s = Scheduler::new(enhanced(2));
        s.add_job(make_pal(0, 100), b"");
        let horizon = SimDuration::from_secs(1);
        let out = s.run_all(horizon).unwrap();
        // 2 CPUs × 1 s − ~100 ms of PAL time.
        let legacy_ms = out.legacy_available.as_ms_f64();
        assert!((legacy_ms - 1895.0).abs() < 20.0, "got {legacy_ms}");
        let util = out.legacy_utilization(2, horizon);
        assert!(util > 0.93 && util < 0.96, "util {util}");
    }

    #[test]
    fn yielding_jobs_complete_over_multiple_rounds() {
        let mut s = Scheduler::new(enhanced(2));
        for i in 0..3 {
            let mut steps_left = 3u8;
            s.add_job(
                Box::new(FnPal::new(&format!("multi-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_ms(1));
                    steps_left -= 1;
                    if steps_left == 0 {
                        Ok(PalOutcome::Exit(vec![i]))
                    } else {
                        Ok(PalOutcome::Yield)
                    }
                })),
                b"",
            );
        }
        let out = s.run_all(SimDuration::from_ms(100)).unwrap();
        assert_eq!(out.outputs, vec![vec![0], vec![1], vec![2]]);
        // Each job: 2 yields + 2 resumes worth of switches in its report.
        for r in &out.reports {
            assert!(r.context_switch > SimDuration::ZERO);
            assert_eq!(r.pal_work, SimDuration::from_ms(3));
        }
    }

    #[test]
    fn legacy_batch_stalls_other_cores() {
        let platform = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"batch");
        let mut batch = LegacyBatch::new(LegacySea::new(platform).unwrap());
        for i in 0..2 {
            batch.add_job(make_pal(i, 10), b"");
        }
        let horizon = SimDuration::from_secs(2);
        let out = batch.run_all(horizon).unwrap();
        assert_eq!(out.outputs.len(), 2);
        // Each session ≈ SKINIT(4 KB ≈ 11 ms) + 10 ms work ≈ 21 ms.
        assert!(out.wall > SimDuration::from_ms(40));
        // The second core lost exactly the wall duration.
        assert_eq!(out.stalled, out.wall);
        assert!(out.legacy_available < SimDuration::from_ns(horizon.as_ns() * 2));
    }

    fn make_send_pal(n: usize, work_ms: u64) -> Box<dyn PalLogic + Send> {
        Box::new(
            FnPal::new(&format!("job-{n}"), move |ctx| {
                ctx.work(SimDuration::from_ms(work_ms));
                Ok(PalOutcome::Exit(vec![n as u8]))
            })
            .with_image_size(4096),
        )
    }

    fn secure_platform(n_cpus: u16) -> SecurePlatform {
        SecurePlatform::new(
            Platform::recommended(n_cpus),
            KeyStrength::Demo512,
            b"sched",
        )
    }

    #[test]
    fn parallel_scheduler_empty_queue_is_an_error() {
        let mut s = ParallelScheduler::new(secure_platform(2), 2).unwrap();
        assert_eq!(
            s.run_all(SimDuration::from_secs(1)),
            Err(OsError::NothingToRun)
        );
    }

    #[test]
    fn parallel_scheduler_matches_outputs_and_overlaps_work() {
        let mut s = ParallelScheduler::new(secure_platform(4), 4).unwrap();
        for i in 0..4 {
            s.add_job(make_send_pal(i, 100), b"");
        }
        let out = s.run_all(SimDuration::from_secs(1)).unwrap();
        assert_eq!(out.outputs, vec![vec![0], vec![1], vec![2], vec![3]]);
        // Four jobs (~100 ms work + ~262 ms attestation each) on four
        // workers overlap in virtual time: wall ≈ one job, the
        // aggregate is ~4×.
        assert!(out.wall < SimDuration::from_ms(400), "wall {}", out.wall);
        assert!(
            out.pal_busy > SimDuration::from_ms(400),
            "busy {}",
            out.pal_busy
        );
        assert_eq!(out.stalled, SimDuration::ZERO);
        for r in &out.reports {
            assert_eq!(r.pal_work, SimDuration::from_ms(100));
        }
    }

    #[test]
    fn parallel_scheduler_outputs_equal_cooperative_scheduler() {
        // The two proposed-hardware drivers agree byte-for-byte on what
        // the PALs produced and what each session cost.
        let mut coop = Scheduler::new(enhanced(4));
        let mut par = ParallelScheduler::new(secure_platform(4), 4).unwrap();
        for i in 0..6 {
            coop.add_job(make_pal(i, 20), b"");
            par.add_job(make_send_pal(i, 20), b"");
        }
        let horizon = SimDuration::from_secs(1);
        let c = coop.run_all(horizon).unwrap();
        let p = par.run_all(horizon).unwrap();
        assert_eq!(c.outputs, p.outputs);
        for (cr, pr) in c.reports.iter().zip(&p.reports) {
            assert_eq!(cr.pal_work, pr.pal_work);
            assert_eq!(cr.late_launch, pr.late_launch);
        }
    }

    #[test]
    fn scheduler_recovers_from_transient_faults() {
        let mut s = Scheduler::new(enhanced(2));
        s.sea_mut().set_fault_plan(Some(
            FaultPlan::new(11)
                .with_tpm_rate(5000)
                .with_mem_rate(5000)
                .with_timer_rate(5000)
                .with_fatal_ratio(0),
        ));
        s.set_retry_policy(Some(RetryPolicy::default()));
        for i in 0..6 {
            s.add_job(make_pal(i, 5), b"");
        }
        let out = s.run_all(SimDuration::from_secs(1)).unwrap();
        // Retryable-only faults within budget: everything completes.
        assert!(out.killed.is_empty(), "killed {:?}", out.killed);
        assert!(out.degraded.is_empty());
        assert_eq!(out.outputs, (0..6u8).map(|i| vec![i]).collect::<Vec<_>>());
        // The engine is clean afterwards.
        let tpm = s.sea().platform().tpm().expect("tpm");
        assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
    }

    #[test]
    fn scheduler_kills_fatal_sessions_and_batch_completes() {
        let mut s = Scheduler::new(enhanced(2));
        s.sea_mut().set_fault_plan(Some(
            FaultPlan::new(5)
                .with_tpm_rate(15_000)
                .with_fatal_ratio(sea_hw::RATE_DENOM),
        ));
        s.set_retry_policy(Some(RetryPolicy::default()));
        for i in 0..8 {
            s.add_job(make_pal(i, 5), b"");
        }
        let out = s.run_all(SimDuration::from_secs(1)).unwrap();
        assert!(!out.killed.is_empty(), "seed 5 at ~23% must kill");
        assert_eq!(out.outputs.len(), 8);
        for key in &out.killed {
            assert!(out.outputs[*key as usize].is_empty());
        }
        for i in 0..8u64 {
            if !out.killed.contains(&i) {
                assert_eq!(out.outputs[i as usize], vec![i as u8]);
            }
        }
        // Killed slots were reclaimed: every sePCR is Free again.
        let tpm = s.sea().platform().tpm().expect("tpm");
        assert_eq!(tpm.sepcrs().free_count(), tpm.sepcrs().count());
        let (_, cpus_pages, none_pages) = s.sea().platform().machine().controller().state_census();
        assert_eq!((cpus_pages, none_pages), (0, 0));
    }

    #[test]
    fn saturated_sepcr_bank_degrades_to_legacy_path() {
        // A platform with a single sePCR: job 0 holds it (yielding so it
        // stays live), job 1 must fall back to the legacy slow path.
        let mut platform = Platform::recommended(2);
        platform.sepcr_count = 1;
        let sea = EnhancedSea::new(SecurePlatform::new(
            platform,
            KeyStrength::Demo512,
            b"sched",
        ))
        .unwrap();
        let mut s = Scheduler::new(sea);
        s.sea_mut().set_fault_plan(Some(FaultPlan::fault_free()));
        s.set_retry_policy(Some(RetryPolicy::default()));
        for i in 0..2 {
            let mut steps = 2u8;
            s.add_job(
                Box::new(FnPal::new(&format!("sat-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_ms(1));
                    steps -= 1;
                    if steps == 0 {
                        Ok(PalOutcome::Exit(vec![i]))
                    } else {
                        Ok(PalOutcome::Yield)
                    }
                })),
                b"",
            );
        }
        let out = s.run_all(SimDuration::from_secs(1)).unwrap();
        assert_eq!(out.degraded, vec![1]);
        assert!(out.killed.is_empty());
        assert_eq!(out.outputs, vec![vec![0], vec![1]]);
        // The degraded job paid a full late launch of its own.
        assert!(out.reports[1].late_launch > SimDuration::ZERO);
    }

    #[test]
    fn parallel_scheduler_recovery_is_worker_count_invariant() {
        // Same fault plan, same jobs: one worker and four workers agree
        // on which sessions die and what the survivors produced.
        let plan = FaultPlan::new(5)
            .with_tpm_rate(15_000)
            .with_fatal_ratio(sea_hw::RATE_DENOM);
        let run = |workers: usize| {
            let mut par = ParallelScheduler::new(secure_platform(4), workers).unwrap();
            par.set_fault_plan(Some(plan.clone()));
            par.set_retry_policy(Some(RetryPolicy::default()));
            for i in 0..8 {
                par.add_job(make_send_pal(i, 5), b"");
            }
            par.run_all(SimDuration::from_secs(1)).unwrap()
        };
        let serial = run(1);
        let wide = run(4);
        assert!(!serial.killed.is_empty(), "seed 5 at ~23% must kill");
        assert_eq!(serial.killed, wide.killed);
        assert_eq!(serial.outputs, wide.outputs);
        assert_eq!(serial.degraded, wide.degraded);
    }

    #[test]
    fn parallel_scheduler_durable_reset_free_matches_recovered() {
        // A reset-free plan exercises the journaled path without ever
        // pulling the plug: the schedule must agree with the plain
        // recovered driver on every output and report.
        let run_recovered = || {
            let mut par = ParallelScheduler::new(secure_platform(4), 2).unwrap();
            par.set_fault_plan(Some(FaultPlan::fault_free()));
            par.set_retry_policy(Some(RetryPolicy::default()));
            for i in 0..6 {
                par.add_job(make_send_pal(i, 10), b"");
            }
            par.run_all(SimDuration::from_secs(1)).unwrap()
        };
        let plain = run_recovered();

        let mut par = ParallelScheduler::new(secure_platform(4), 2).unwrap();
        par.set_fault_plan(Some(FaultPlan::fault_free()));
        par.set_retry_policy(Some(RetryPolicy::default()));
        par.set_reset_plan(Some(ResetPlan::reset_free()));
        for i in 0..6 {
            par.add_job(make_send_pal(i, 10), b"");
        }
        let durable = par.run_all(SimDuration::from_secs(1)).unwrap();

        assert_eq!(durable.resets, 0);
        assert!(durable.relaunched.is_empty());
        assert_eq!(durable.outputs, plain.outputs);
        assert_eq!(durable.reports, plain.reports);
        assert!(durable.killed.is_empty() && durable.degraded.is_empty());
    }

    #[test]
    fn parallel_scheduler_durable_rebuilds_queue_after_power_loss() {
        // Cut power at the very first commit gate: the whole batch is
        // torn, the platform reboots, and the scheduler rebuilds its run
        // queue from the (empty) journal — every job relaunches and the
        // final outputs match a crash-free run.
        let mut par = ParallelScheduler::new(secure_platform(4), 4).unwrap();
        par.set_fault_plan(Some(FaultPlan::fault_free()));
        par.set_retry_policy(Some(RetryPolicy::default()));
        par.set_reset_plan(Some(ResetPlan::reset_free().with_cut_after_events(0)));
        for i in 0..6 {
            par.add_job(make_send_pal(i, 10), b"");
        }
        let out = par.run_all(SimDuration::from_secs(1)).unwrap();
        assert_eq!(out.resets, 1);
        assert_eq!(out.relaunched, (0..6u64).collect::<Vec<_>>());
        assert_eq!(out.outputs, (0..6u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert!(out.killed.is_empty() && out.degraded.is_empty());
        // The reboot cost is on the schedule's wall clock.
        assert!(out.wall >= sea_hw::RESET_REBOOT_COST);
    }

    #[test]
    fn enhanced_beats_baseline_on_legacy_throughput() {
        // The §4.4/§5.7 punchline as a test: same PAL workload, same
        // horizon — the proposed hardware leaves more CPU for legacy.
        let horizon = SimDuration::from_secs(2);

        let mut sched = Scheduler::new(enhanced(2));
        for i in 0..4 {
            sched.add_job(make_pal(i, 10), b"");
        }
        let e = sched.run_all(horizon).unwrap();

        let platform = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"cmp");
        let mut batch = LegacyBatch::new(LegacySea::new(platform).unwrap());
        for i in 0..4 {
            batch.add_job(make_pal(i, 10), b"");
        }
        let b = batch.run_all(horizon).unwrap();

        assert!(
            e.legacy_available > b.legacy_available,
            "enhanced {} vs baseline {}",
            e.legacy_available,
            b.legacy_available
        );
    }
}
