//! The discrete-event executor: simulated CPUs on one OS thread.
//!
//! The engine's only executor. Instead of giving each simulated CPU a
//! real OS thread — which would cap the modelled hardware at the host's
//! core count — it steps *virtual CPUs* through a deterministic event
//! queue ([`sea_hw::EventQueue`]). Each event advances one session by exactly
//! one architecture operation ([`SessionDriver::advance`]); the
//! operation's machine-clock charge (plus any CPU-local retry backoff)
//! becomes the virtual-time gap to the session's next event. Ordering
//! is structural, not lock-enforced:
//!
//! * events fire in `(time, session id)` order, FIFO at exact ties —
//!   the tie-break contract pinned by `tests/proptest_invariants.rs`;
//! * the TPM command gate is the paper's §5.4.5 hardware lock as a
//!   virtual-time arbiter ([`EventOrderedTpmLock`], whose grant order
//!   `sea-tpm` pins with a recorded golden): a quote occupies the TPM
//!   for its virtual duration, contending quotes are granted by
//!   `(request time, CPU)`, and each grant carries its request stamp
//!   so the queueing delay is charged to `tpm.gate` lock-wait;
//! * journal commit gates run at the committing session's terminal
//!   event, in event order.
//!
//! With one virtual CPU the event timeline degenerates to the serial
//! schedule, machine trace included; that run is the reference the
//! golden and worker-count differential suites compare wider runs
//! against. At higher CPU counts every session-level output (results,
//! quotes, per-job costs) stays byte-identical to it because those
//! quantities are interleaving-invariant by the engine's determinism
//! contract.

use std::collections::VecDeque;

use sea_hw::{CpuId, EventQueue, Layer, Obs, SimDuration, SimTime};
use sea_tpm::EventOrderedTpmLock;

use crate::concurrent::ConcurrentJob;
use crate::driver::{DriveStep, SessionDriver};
use crate::engine::{Architecture, Attempt, WorkerMode};
use crate::error::SeaError;

/// One scheduled cause on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Begin the named virtual CPU's next queued job.
    Start { cpu: usize },
    /// Advance the session currently on the virtual CPU by one
    /// operation.
    Op { cpu: usize },
    /// The TPM command holding the arbiter completes: release and
    /// re-arbitrate.
    Release { cpu: usize },
}

/// Per-virtual-CPU state: the jobs still queued, the session in
/// flight, and the intrinsic cost of the sessions it finished this
/// epoch.
struct VirtualCpu<A: Architecture> {
    queue: VecDeque<(usize, ConcurrentJob)>,
    current: Option<SessionDriver<A>>,
    busy: SimDuration,
}

/// Runs one epoch of the batch on `workers` virtual CPUs driven by the
/// event queue. Returns the per-job attempts (indexed by job) and each
/// virtual CPU's busy time for the epoch.
pub(crate) fn run_epoch<A: Architecture>(
    workers: usize,
    n_jobs: usize,
    pending: Vec<(usize, ConcurrentJob)>,
    rt: &mut A::Runtime,
    obs: &Obs,
    mut mode: WorkerMode<'_>,
) -> Result<(Vec<Option<Attempt>>, Vec<SimDuration>), SeaError> {
    let mut cpus: Vec<VirtualCpu<A>> = (0..workers)
        .map(|_| VirtualCpu {
            queue: VecDeque::new(),
            current: None,
            busy: SimDuration::ZERO,
        })
        .collect();
    // Jobs keep their static assignment (job i → virtual CPU
    // i % workers) in every epoch.
    for (i, job) in pending {
        cpus[i % workers].queue.push_back((i, job));
    }

    let mut attempts: Vec<Option<Attempt>> = (0..n_jobs).map(|_| None).collect();
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut tpm_gate = EventOrderedTpmLock::new();

    // The virtual timeline starts at zero each epoch; only its ordering
    // matters (busy/wall accounting uses intrinsic per-job costs).
    for (k, vcpu) in cpus.iter_mut().enumerate() {
        if let Some(&(i, _)) = vcpu.queue.front() {
            events.schedule(SimTime::ZERO, i as u64, Ev::Start { cpu: k });
        }
    }

    /// Machine-clock reading for op-duration measurement.
    fn machine_now<A: Architecture>(rt: &A::Runtime) -> SimTime {
        A::platform(rt).machine().now()
    }

    while let Some(event) = events.pop() {
        let t = event.at;
        match event.payload {
            Ev::Start { cpu } => {
                let Some((i, job)) = cpus[cpu].queue.pop_front() else {
                    continue;
                };
                if let WorkerMode::Durable(ctx) = &mut mode {
                    if ctx.crashed {
                        // The platform is already dark; this job never
                        // started (and charges no busy time).
                        attempts[i] = Some(Attempt::Torn(job));
                        if let Some(&(next, _)) = cpus[cpu].queue.front() {
                            events.schedule(t, next as u64, Ev::Start { cpu });
                        }
                        continue;
                    }
                    ctx.journal.record_intent(i as u64);
                }
                let (policy, journaled) = match &mode {
                    WorkerMode::Plain => (None, false),
                    WorkerMode::Recovered { retry } => (Some(*retry), false),
                    WorkerMode::Durable(ctx) => (Some(ctx.retry), true),
                };
                cpus[cpu].current = Some(SessionDriver::<A>::new(
                    i,
                    CpuId(cpu as u16),
                    job,
                    policy,
                    journaled,
                ));
                events.schedule(t, i as u64, Ev::Op { cpu });
            }

            Ev::Op { cpu } => {
                let cpu_id = CpuId(cpu as u16);
                let index = match &cpus[cpu].current {
                    Some(driver) => driver.index(),
                    None => continue,
                };
                let gated = cpus[cpu].current.as_ref().is_some_and(|d| d.needs_tpm());
                if gated && tpm_gate.holder() != Some(cpu_id) {
                    // Arbitrate: file the request at this event's time;
                    // if the TPM is free the best-stamped waiter wins.
                    tpm_gate.request(t, cpu_id);
                    match tpm_gate.grant() {
                        Some(winner) if winner.cpu == cpu_id => {} // proceed below
                        Some(winner) => {
                            // Another CPU's earlier request wins; run
                            // its pending command now. Ours stays
                            // queued for a later grant.
                            let w = winner.cpu.0 as usize;
                            if let Some(d) = &cpus[w].current {
                                events.schedule(t, d.index() as u64, Ev::Op { cpu: w });
                            }
                            continue;
                        }
                        None => continue, // held: wait for the release
                    }
                }

                if gated {
                    // This CPU holds the TPM gate and is about to
                    // quote; every other session parked at the quote
                    // edge will follow as the gate drains. Hand the
                    // whole cohort to the architecture so it can batch
                    // the signing work (semantically invisible — same
                    // bytes, same costs — per the trait contract).
                    let cohort: Vec<(&A::Live, [u8; 8])> = cpus
                        .iter()
                        .filter_map(|c| c.current.as_ref().and_then(|d| d.quote_request()))
                        .collect();
                    if cohort.len() > 1 {
                        A::prepare_quotes(rt, &cohort);
                    }
                }

                let journal = match &mut mode {
                    WorkerMode::Durable(ctx) => Some(&mut ctx.journal),
                    _ => None,
                };
                let before = machine_now::<A>(rt);
                let step = cpus[cpu]
                    .current
                    .as_mut()
                    .expect("op event only fires with a session in flight")
                    .advance(rt, obs, journal);
                let elapsed = machine_now::<A>(rt).duration_since(before);
                let local = match &step {
                    DriveStep::Running { local_cost } => *local_cost,
                    DriveStep::Terminal(_) => SimDuration::ZERO,
                };
                let done_at = t + elapsed + local;
                // Contention attribution, in virtual time: every op
                // holds the runtime for its machine-clock charge.
                // (Lock stats live outside the snapshot — see
                // `sea_hw::RecordingSink::lock_stats` — so this cannot
                // perturb snapshot parity across worker counts.)
                obs.lock_event("core.runtime", Layer::Core, SimDuration::ZERO, elapsed);
                if gated {
                    // The grant kept its request stamp: the gap from
                    // request to this grant is pure arbiter queueing,
                    // charged as `tpm.gate` lock-wait; the command then
                    // holds the TPM until `done_at`.
                    let requested = tpm_gate.granted().map_or(t, |g| g.requested);
                    obs.lock_event(
                        "tpm.gate",
                        Layer::Tpm,
                        t.duration_since(requested),
                        elapsed + local,
                    );
                    // The command occupied the TPM for its virtual
                    // duration; free it when that interval ends.
                    events.schedule(done_at, index as u64, Ev::Release { cpu });
                }

                match step {
                    DriveStep::Running { .. } => {
                        events.schedule(done_at, index as u64, Ev::Op { cpu });
                    }
                    DriveStep::Terminal(result) => {
                        let driver = cpus[cpu].current.take().expect("terminal session exists");
                        let i = driver.index();
                        let attempt = match &mut mode {
                            WorkerMode::Plain | WorkerMode::Recovered { .. } => {
                                if let Ok(r) = &result {
                                    cpus[cpu].busy += r.cost();
                                }
                                Attempt::Done(result)
                            }
                            WorkerMode::Durable(ctx) => {
                                let session = result?;
                                let attempt = ctx.commit_gate::<A>(
                                    rt,
                                    obs,
                                    i as u64,
                                    session,
                                    driver.into_job(),
                                )?;
                                if let Attempt::Committed(s) | Attempt::Volatile(s, _) = &attempt {
                                    cpus[cpu].busy += s.cost();
                                }
                                attempt
                            }
                        };
                        attempts[i] = Some(attempt);
                        if let Some(&(next, _)) = cpus[cpu].queue.front() {
                            events.schedule(done_at, next as u64, Ev::Start { cpu });
                        }
                    }
                }
            }

            Ev::Release { cpu } => {
                let _ = tpm_gate.release(CpuId(cpu as u16));
                if let Some(winner) = tpm_gate.grant() {
                    let w = winner.cpu.0 as usize;
                    if let Some(d) = &cpus[w].current {
                        events.schedule(t, d.index() as u64, Ev::Op { cpu: w });
                    } else {
                        // The winner's session ended between request
                        // and grant (killed at another op); hand the
                        // grant back.
                        let _ = tpm_gate.release(winner.cpu);
                    }
                }
            }
        }
    }

    let busy = cpus.iter().map(|c| c.busy).collect();
    Ok((attempts, busy))
}
