//! Worker-count differential suite for the discrete-event executor.
//!
//! `SessionEngine` steps every batch on virtual CPUs driven by a
//! deterministic event queue. With one worker that timeline is the
//! serial schedule, so the one-worker run is the reference every wider
//! run is compared against. The engine's determinism contract says
//! the worker count is pure scheduling: per-job costs are intrinsic,
//! fault rolls are a pure function of `(plan, session key, operation
//! order)`, and quotes bind sePCR values rather than slots. This suite
//! replays fault chaos, crash-point cuts and observability snapshots
//! at 1, 4 and 64 workers and asserts the outputs are
//! **byte-identical** to the serial reference:
//!
//! * the per-session results (outputs, reports, quotes, retry counts,
//!   terminal variants) for plain, fault-recovered and durable batches,
//!   with only the CPU a job ran on normalised away;
//! * recording-sink snapshots (spans, counters, histograms);
//! * the serial machine trace, which does not depend on how wide the
//!   platform under the one worker is;
//! * the acceptance scenario: a durable batch on 1024 virtual CPUs in
//!   one process, quotes byte-identical to the serial run, with the
//!   whole schedule reproducible run to run down to the trace.
//!
//! Several test names predate the single executor ("across executors");
//! each now pins the worker-count invariance its doc comment states.

use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, FnPal, PalOutcome, RetryPolicy, SecurePlatform,
    SessionEngine, SessionResult, Slaunch,
};
use sea_hw::{CpuId, FaultPlan, Obs, ObsSnapshot, Platform, ResetPlan, SimDuration, RATE_DENOM};
use sea_tpm::KeyStrength;

const JOBS: usize = 16;
const DIFF_SEED: u64 = 0xD1FF;

/// Worker counts compared against the one-worker serial reference. 64
/// exceeds most hosts' core counts; the event queue does not care.
const WIDE_WORKER_COUNTS: [usize; 2] = [4, 64];

fn engine(n_cpus: u16, workers: usize) -> SessionEngine<Slaunch> {
    let platform = SecurePlatform::new(
        Platform::recommended(n_cpus),
        KeyStrength::Demo512,
        b"exec-diff",
    );
    SessionEngine::new(platform, workers).expect("pool fits platform")
}

/// The chaos-style plan: hot transient faults plus a fatal fraction,
/// so retries, backoff, and kills are all on the differential surface.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(DIFF_SEED)
        .with_tpm_rate(9000)
        .with_mem_rate(3000)
        .with_timer_rate(3000)
        .with_fatal_ratio(RATE_DENOM / 8)
}

/// The crash-style plan: transient-only, so every session survives to
/// a commit and the cut decides its fate.
fn transient_plan() -> FaultPlan {
    FaultPlan::new(DIFF_SEED)
        .with_tpm_rate(6000)
        .with_mem_rate(6000)
        .with_timer_rate(6000)
        .with_fatal_ratio(0)
}

/// Restartable yield-twice jobs (step state in the PAL's region, so
/// relaunched sessions replay from step one).
fn batch() -> Vec<ConcurrentJob> {
    (0..JOBS)
        .map(|i| {
            ConcurrentJob::new(
                Box::new(FnPal::new(&format!("diff-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_us(40 * (1 + (i as u64 % 4))));
                    let done = ctx.state().first().copied().unwrap_or(0) + 1;
                    ctx.set_state(vec![done]);
                    if done == 3 {
                        Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                    } else {
                        Ok(PalOutcome::Yield)
                    }
                })),
                b"",
            )
        })
        .collect()
}

/// Runs one configuration and returns the outcome plus the machine
/// trace dump.
fn run(
    n_cpus: u16,
    workers: usize,
    faults: Option<FaultPlan>,
    policy: &BatchPolicy,
) -> (BatchOutcome, String) {
    let mut pool = engine(n_cpus, workers);
    pool.set_fault_plan(faults);
    let out = pool.run(batch(), policy).expect("differential batch runs");
    let sea = pool.into_inner();
    let mut trace = String::new();
    for (t, e) in sea.platform().machine().trace().iter() {
        trace.push_str(&format!("{} {e:?}\n", t.as_ns()));
    }
    (out, trace)
}

/// Clears the worker-assignment field for cross-worker-count
/// comparisons.
fn normalize(mut sessions: Vec<SessionResult>) -> Vec<SessionResult> {
    for s in &mut sessions {
        if let SessionResult::Quoted { result, .. } = s {
            result.cpu = CpuId(0);
        }
    }
    sessions
}

/// Runs `policy` at one worker and at every wide worker count on a
/// 64-CPU platform, asserting each wide run's sessions equal the
/// serial reference. Returns the reference outcome.
fn assert_worker_count_invariant(
    faults: fn() -> Option<FaultPlan>,
    policy: &BatchPolicy,
    what: &str,
) -> BatchOutcome {
    let (serial, _) = run(64, 1, faults(), policy);
    for workers in WIDE_WORKER_COUNTS {
        let (wide, _) = run(64, workers, faults(), policy);
        assert_eq!(wide.cpu_busy.len(), workers);
        assert_eq!(
            normalize(serial.sessions.clone()),
            normalize(wide.sessions),
            "{what}: sessions at {workers} workers diverged from the serial run"
        );
    }
    serial
}

/// Fault chaos: at every worker count the sessions — outputs, reports,
/// quotes, retry counts, kills — are byte-identical to the serial run.
#[test]
fn chaos_batch_agrees_across_executors_at_every_worker_count() {
    let policy = BatchPolicy::plain().with_retry(RetryPolicy::default());
    let serial = assert_worker_count_invariant(|| Some(chaos_plan()), &policy, "chaos");
    assert!(
        serial
            .sessions
            .iter()
            .any(|s| matches!(s, SessionResult::Quoted { retries, .. } if *retries > 0)),
        "chaos plan never bit"
    );
    assert!(serial.killed() > 0, "fatal fraction never killed a session");
}

/// Plain fault-free batches agree the same way.
#[test]
fn plain_batch_agrees_across_executors_at_every_worker_count() {
    let serial = assert_worker_count_invariant(|| None, &BatchPolicy::plain(), "plain");
    assert_eq!(serial.quoted(), JOBS);
}

/// The serial schedule depends on the batch alone: one worker's machine
/// trace — every TPM command, range protection, secure enter/leave,
/// with timestamps — is byte-identical on a 4-CPU and a 64-CPU
/// platform, and run to run.
#[test]
fn serial_machine_trace_is_byte_identical_across_executors() {
    let policy = BatchPolicy::plain().with_retry(RetryPolicy::default());
    let (narrow, narrow_trace) = run(4, 1, Some(chaos_plan()), &policy);
    let (wide, wide_trace) = run(64, 1, Some(chaos_plan()), &policy);
    let (_, again_trace) = run(4, 1, Some(chaos_plan()), &policy);
    assert!(!narrow_trace.is_empty(), "serial batch must leave a trace");
    assert_eq!(narrow.sessions, wide.sessions);
    assert_eq!(
        narrow_trace, wide_trace,
        "serial machine trace depends on the platform's width"
    );
    assert_eq!(narrow_trace, again_trace, "serial trace not reproducible");
}

/// Crash-point cuts: yank the cord after a fixed number of trace
/// events. Serially the recovered sessions must equal the crash-free
/// run's; at 4 and 64 workers they must equal the serial cut's, and the
/// whole ledger must reproduce run to run.
#[test]
fn crash_point_cuts_agree_across_executors() {
    // The crash-free serial run: its sessions are what every cut must
    // recover to, and its event count bounds the cut range.
    let recovering = BatchPolicy::plain().with_retry(RetryPolicy::default());
    let (reference, reference_trace) = run(4, 1, Some(transient_plan()), &recovering);
    let total = reference_trace.lines().count() as u64;
    assert!(total > 8, "reference run too quiet to cut against");

    for cut in [1, total / 3, total / 2, total - 1] {
        let durable = BatchPolicy::plain()
            .with_retry(RetryPolicy::default())
            .with_durability(ResetPlan::reset_free().with_cut_after_events(cut));
        let (serial, _) = run(4, 1, Some(transient_plan()), &durable);
        assert_eq!(serial.resets, 1, "serial cut {cut}: no reset fired");
        assert_eq!(
            serial.sessions, reference.sessions,
            "serial cut {cut}: recovery diverged from the crash-free run"
        );

        for workers in WIDE_WORKER_COUNTS {
            let (wide, _) = run(64, workers, Some(transient_plan()), &durable);
            let (again, _) = run(64, workers, Some(transient_plan()), &durable);
            assert_eq!(
                wide, again,
                "cut {cut} at {workers} workers: not reproducible"
            );
            assert_eq!(
                normalize(serial.sessions.clone()),
                normalize(wide.sessions),
                "cut {cut}: worker count leaked into session results"
            );
        }
    }
}

/// Observability snapshots — spans, counters, layer histograms — are
/// byte-identical across worker counts for the recovered chaos batch.
#[test]
fn observability_snapshots_agree_across_executors() {
    fn snapshot(workers: usize) -> ObsSnapshot {
        let mut platform =
            SecurePlatform::new(Platform::recommended(8), KeyStrength::Demo512, b"exec-diff");
        let (obs, sink) = Obs::recording();
        platform.install_obs(obs);
        let mut pool = SessionEngine::<Slaunch>::new(platform, workers).expect("pool fits");
        pool.set_fault_plan(Some(chaos_plan()));
        pool.run(
            batch(),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .expect("batch runs");
        sink.snapshot()
    }

    let reference = snapshot(1);
    assert!(
        reference.counter("core.retries") > 0,
        "chaos plan never bit"
    );
    for workers in [4, 8] {
        assert_eq!(
            reference,
            snapshot(workers),
            "snapshot diverged at {workers} workers"
        );
    }
}

/// The discrete-event schedule is reproducible run to run: at 64
/// virtual CPUs the full outcome *and* the machine trace of a faulted
/// durable batch come back byte-identical.
#[test]
fn des_schedule_is_deterministic_at_64_virtual_cpus() {
    let durable = BatchPolicy::plain()
        .with_retry(RetryPolicy::default())
        .with_durability(
            ResetPlan::new(DIFF_SEED)
                .with_reset_rate(RATE_DENOM / 4)
                .with_max_resets(2),
        );
    let (a, a_trace) = run(64, 64, Some(transient_plan()), &durable);
    let (b, b_trace) = run(64, 64, Some(transient_plan()), &durable);
    assert!(a.resets >= 1, "reset plan must pull the plug");
    assert_eq!(a, b, "discrete-event outcome not reproducible");
    assert_eq!(a_trace, b_trace, "discrete-event trace not reproducible");
}

/// Acceptance: one process models a 1024-virtual-CPU platform running
/// a durable faulted batch — far past any host's core count — and
/// every worker-count-invariant output (quotes byte for byte, outputs,
/// reports, retry counts) matches the serial run on the same platform.
/// The 1024-CPU replay itself is byte-identical run to run, ledger and
/// trace included.
#[test]
fn acceptance_durable_batch_on_1024_virtual_cpus() {
    let durable = BatchPolicy::plain()
        .with_retry(RetryPolicy::default())
        .with_durability(
            ResetPlan::new(DIFF_SEED)
                .with_reset_rate(RATE_DENOM / 4)
                .with_max_resets(2),
        );
    let (serial, _) = run(1024, 1, Some(transient_plan()), &durable);
    let (wide, wide_trace) = run(1024, 1024, Some(transient_plan()), &durable);
    assert_eq!(wide.sessions.len(), JOBS);
    assert_eq!(wide.quoted(), serial.quoted());
    assert_eq!(
        normalize(serial.sessions.clone()),
        normalize(wide.sessions.clone()),
        "1024-vCPU results diverged from the serial run"
    );
    // With 16 jobs on 1024 CPUs every session runs on its own virtual
    // CPU; the assignment stays `i % workers`.
    for (i, s) in wide.sessions.iter().enumerate() {
        if let SessionResult::Quoted { result, .. } = s {
            assert_eq!(result.cpu, CpuId(i as u16), "session {i} on wrong vCPU");
        }
    }
    let (again, again_trace) = run(1024, 1024, Some(transient_plan()), &durable);
    assert_eq!(wide, again, "1024-vCPU ledger not reproducible");
    assert_eq!(wide_trace, again_trace, "1024-vCPU trace not reproducible");
}
