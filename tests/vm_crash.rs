//! Crash-point property suite for executed-bytecode PALs.
//!
//! The durable engine's contract — yank the cord at any trace-event
//! boundary, recover to sessions byte-identical to the crash-free run —
//! was pinned by `tests/crash_recovery.rs` over cost-model `FnPal`s.
//! This suite re-proves it over *real* VM PALs, where a cut can land
//! mid-interpretation: between translated blocks, inside a yield chain,
//! or between a seal and its quote. A platform reset evaporates the
//! protected region (and with it the program counter, registers, block
//! cache, and in-region state), so recovery must re-execute the
//! bytecode from scratch — and still produce byte-identical outputs,
//! reports, and quotes, at 1 and 4 workers.

use minimal_tcb::core::{
    BatchPolicy, ConcurrentJob, RetryPolicy, SecurePlatform, SessionEngine, SessionResult, Slaunch,
};
use minimal_tcb::hw::{CpuId, FaultPlan, Platform, ResetPlan};
use minimal_tcb::pals::vm::vm_factoring;
use minimal_tcb::pals::PersistMode;
use minimal_tcb::tpm::KeyStrength;

const WORKERS: usize = 4;

/// Distinct semiprime jobs: every session interprets its own bytecode
/// image (n and the quantum live in the measured data segment), yields
/// several times mid-search, and exits with the factor pair.
const JOBS: [(u64, u64); 6] = [
    (101 * 103, 16),
    (97 * 89, 16),
    (107 * 109, 24),
    (127 * 131, 16),
    (137 * 139, 24),
    (149 * 151, 16),
];

fn engine(workers: usize) -> SessionEngine<Slaunch> {
    let platform = SecurePlatform::new(
        Platform::recommended(WORKERS as u16),
        KeyStrength::Demo512,
        b"vm-crash",
    );
    SessionEngine::new(platform, workers).expect("pool fits platform")
}

/// Transient-only faults (no kills): the sweep cuts through retries and
/// preemptions, never through sessions that legitimately die.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(11)
        .with_tpm_rate(6000)
        .with_mem_rate(6000)
        .with_timer_rate(6000)
        .with_fatal_ratio(0)
}

fn batch() -> Vec<ConcurrentJob> {
    JOBS.iter()
        .map(|&(n, quantum)| {
            ConcurrentJob::new(
                Box::new(vm_factoring(n, quantum, PersistMode::InRegion)),
                b"",
            )
        })
        .collect()
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

/// The crash-free reference: sessions plus the trace-event count that
/// bounds the cut sweep.
fn reference() -> (Vec<SessionResult>, u64) {
    let mut pool = engine(WORKERS);
    pool.set_fault_plan(Some(fault_plan()));
    let out = pool
        .run(
            batch(),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .expect("reference batch runs");
    assert_eq!(out.quoted(), JOBS.len(), "transient-only plan must quote");
    let sea = pool.into_inner();
    let total = sea.platform().machine().trace().recorded();
    assert!(total > 0, "the plan must inject something to cut against");
    (out.sessions, total)
}

/// Runs the durable batch at `workers` workers with the cord yanked
/// after `cut` trace events; sessions — outputs, reports, and quotes —
/// must be byte-identical to the crash-free run.
fn check_cut(workers: usize, cut: u64, reference: &[SessionResult]) -> (Vec<SessionResult>, u32) {
    let mut pool = engine(workers);
    pool.set_fault_plan(Some(fault_plan()));
    let d = pool
        .run(
            batch(),
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(ResetPlan::reset_free().with_cut_after_events(cut)),
        )
        .unwrap_or_else(|e| panic!("{workers}w cut {cut}: batch aborted: {e}"));
    assert_eq!(
        normalize(d.sessions.clone()),
        normalize(reference.to_vec()),
        "{workers}w cut {cut}: recovered sessions diverged"
    );
    if d.resets > 0 {
        assert_eq!(d.resets, 1, "{workers}w cut {cut}");
        assert_eq!(
            d.committed.len() + d.relaunched.len(),
            JOBS.len(),
            "{workers}w cut {cut}: recovery ledger imbalance"
        );
    }
    // Nothing leaks: every sePCR is Free and no page stays protected.
    let sea = pool.into_inner();
    let tpm = sea.platform().tpm().expect("tpm");
    assert_eq!(
        tpm.sepcrs().free_count(),
        tpm.sepcrs().count(),
        "{workers}w cut {cut}: leaked an Exclusive sePCR"
    );
    let (_, cpus_pages, none_pages) = sea.platform().machine().controller().state_census();
    assert_eq!(
        (cpus_pages, none_pages),
        (0, 0),
        "{workers}w cut {cut}: leaked protected pages"
    );
    (d.sessions, d.resets)
}

/// The tentpole property: cut at **every** trace-event boundary of the
/// reference batch (plus one past the end) and recover byte-identical
/// VM sessions every time.
#[test]
fn vm_crash_sweep_every_event_boundary_recovers() {
    let (reference, total) = reference();
    for cut in 0..=(total + 1) {
        let (_, resets) = check_cut(WORKERS, cut, &reference);
        if cut <= total {
            assert_eq!(resets, 1, "cut {cut} of {total}: no reset fired");
        } else {
            assert_eq!(resets, 0, "cut {cut} of {total}: phantom reset");
        }
    }
}

/// The same recovery is worker-count-invariant: a cut
/// mid-interpretation replays to the same bytes at four workers as on
/// the serial schedule. (The name predates the single executor.)
#[test]
fn vm_crash_recovery_is_worker_and_executor_invariant() {
    let (reference, total) = reference();
    let cuts = [0, total / 3, total / 2, 2 * total / 3, total];
    for cut in cuts {
        let (serial, serial_resets) = check_cut(1, cut, &reference);
        let (wide, wide_resets) = check_cut(WORKERS, cut, &reference);
        assert_eq!((serial_resets, wide_resets), (1, 1), "cut {cut}");
        assert_eq!(
            normalize(serial),
            normalize(wide),
            "cut {cut}: recovery diverged across worker counts"
        );
    }
}
