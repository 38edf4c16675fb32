//! The three workloads. Each drives the crates' public entry points
//! call by call, wraps every call in its layer's span, and checks every
//! output: sessions must end `Quoted`, the verifier must accept every
//! genuine wire, and each PAL's output must match what its generated
//! input implies.
//!
//! A workload runs in *passes*: a fixed schedule of rounds that starts
//! from freshly built platforms, so every pass repeats the same
//! program work and the same virtual time.

use std::sync::{Arc, Mutex};

use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, Executor, FnPal, PalCtx, PalLogic, PalOutcome,
    RetryPolicy, SeaError, SecurePlatform, SessionEngine, SessionResult, Slaunch, VmPal, VmStats,
};
use sea_crypto::{RsaPublicKey, Sha1, Sha1Digest};
use sea_fleet::{AikCert, KeyVault, TcbInfo, TcbStatus, VerifierService, FLEET_SERVICE};
use sea_hw::{FaultPlan, Platform, ResetPlan, SimDuration};
use sea_os::{DispatchPolicy, Dispatcher};
use sea_pals::vm::{vm_ca, vm_factoring, vm_rootkit, vm_ssh};
use sea_pals::{decode_factors, decode_public_key, CaRequest, PersistMode, SshRequest};
use sea_tpm::SealedBlob;

use crate::calib::Mix;
use crate::gen::Gen;
use crate::trace::{count, span, Counter, Span};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["fleet_boot", "pal_mix", "durable_journal"];

/// Every batch runs on the discrete-event executor: the load stays on
/// one OS thread and never depends on `SEA_EXECUTOR`.
const EXECUTOR: Executor = Executor::DiscreteEvent;

/// CPUs (and engine workers) per platform.
const CPUS: u16 = 2;

/// Fleet requests each platform serves per round.
const REQUESTS_PER_PLATFORM: usize = 4;

/// Factoring candidates tested per quantum: well below the ~2^16
/// candidates a product of two primes near 2^16 needs, so every
/// factoring session yields and resumes several times.
const FACTOR_QUANTUM: u64 = 8_192;

/// Per-commit-boundary power-loss rate of the durable batches (parts
/// per `sea_hw::RATE_DENOM` = 65536): one boundary in 32.
const RESET_RATE: u32 = 2_048;

/// Resets one durable batch may suffer.
const MAX_RESETS: u32 = 2;

/// Full-size runs or the self-test's tiny ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// A few rounds of a few sessions, for the self-test.
    Tiny,
}

impl Size {
    fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Operation counts and output-check failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that failed: not quoted, rejected by the verifier, or
    /// with an output that does not match the input.
    pub failed: u64,
    /// Quotes the verifier accepted.
    pub accepted: u64,
    /// Quoted results whose PAL never ran in the batch that returned
    /// them.
    pub stale: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// One workload: a fixed schedule of rounds, replayed pass after pass.
pub trait Workload {
    /// Rounds in one pass.
    fn rounds(&self) -> usize;
    /// Prepares a pass (fresh platform state).
    fn begin_pass(&mut self);
    /// Runs round `k` of the pass and checks it; returns the batch's
    /// virtual wall time.
    fn round(&mut self, k: usize, tally: &mut Tally) -> SimDuration;
    /// Tears a pass down.
    fn end_pass(&mut self);
    /// The reference computation that calibrates this workload's host
    /// clock: it mirrors the host work that dominates the rounds.
    fn reference(&self) -> Mix;
}

/// Builds workload `name` from seed `seed`: key material, generated
/// inputs and assembled PALs.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fleet_boot" => Box::new(FleetBoot::new(seed, size)),
        "pal_mix" => Box::new(PalMix::new(seed, size)),
        "durable_journal" => Box::new(DurableJournal::new(seed, size)),
        _ => return None,
    })
}

/// What the PAL wrapper reads off a PAL after each run.
trait Probe {
    fn vm_stats(&self) -> Option<VmStats> {
        None
    }
    fn take_record(&mut self) -> Option<SealedBlob> {
        None
    }
}

impl Probe for VmPal {
    fn vm_stats(&self) -> Option<VmStats> {
        Some(self.stats())
    }
    fn take_record(&mut self) -> Option<SealedBlob> {
        self.take_slot(0)
    }
}

impl<F> Probe for FnPal<F> {}

/// A sealed record handed from one round's PAL to a later round's.
type RecordCell = Arc<Mutex<Option<SealedBlob>>>;

/// The benchmark-side `PalLogic` wrapper: each `run` is a `pals.run`
/// span, VM PALs add their `VmStats` deltas to the counters, and a
/// wrapper with a record cell hands the PAL's slot-0 blob back out.
struct Traced<P> {
    pal: P,
    record_out: Option<RecordCell>,
}

impl<P> Traced<P> {
    fn boxed(pal: P) -> Box<Self> {
        Box::new(Traced {
            pal,
            record_out: None,
        })
    }
}

impl<P: PalLogic + Probe> PalLogic for Traced<P> {
    fn name(&self) -> &str {
        self.pal.name()
    }

    fn image(&self) -> Vec<u8> {
        self.pal.image()
    }

    fn run(&mut self, ctx: &mut PalCtx<'_>) -> Result<PalOutcome, SeaError> {
        let before = self.pal.vm_stats();
        let out = span(Span::PalsRun, || self.pal.run(ctx));
        if let (Some(b), Some(a)) = (before, self.pal.vm_stats()) {
            count(Counter::VmRetired, a.retired - b.retired);
            count(
                Counter::VmBlocksExecuted,
                a.blocks_executed - b.blocks_executed,
            );
            count(
                Counter::VmBlocksDecoded,
                a.blocks_decoded - b.blocks_decoded,
            );
            count(Counter::VmChainHits, a.chain_hits - b.chain_hits);
        }
        if let (Ok(PalOutcome::Exit(_)), Some(cell)) = (&out, &self.record_out) {
            *cell.lock().expect("record cell") = self.pal.take_record();
        }
        out
    }
}

/// A build the verifier trusts: service name, measured image, and the
/// inputs an honest run measures into its chain.
struct Build<'a> {
    service: &'a str,
    image: &'a [u8],
    extends: &'a [Sha1Digest],
}

/// A fresh verifier per round: engine nonces are job indices and repeat
/// across rounds, so each round needs its own challenge table.
fn provision(ca: &RsaPublicKey, cert: &AikCert, builds: &[Build<'_>]) -> VerifierService {
    span(Span::VerifierSetup, || {
        let mut verifier = VerifierService::new(ca.clone());
        let mut tcb = TcbInfo::new(1);
        for b in builds {
            verifier.trust(b.service, b.image, b.extends);
            tcb = tcb.with_status(Sha1::digest(b.image), TcbStatus::UpToDate);
        }
        verifier
            .ingest_tcb(tcb)
            .expect("a fresh verifier accepts any table");
        verifier.enroll(cert.clone());
        verifier
    })
}

/// Builds platform `index`'s engine from the vault: `KeyVault::tpm`,
/// `SecurePlatform::with_tpm`, `SessionEngine::new`.
fn boot(vault: &KeyVault, index: usize) -> SessionEngine<Slaunch> {
    let tpm = span(Span::VaultTpm, || vault.tpm(index));
    let secure = span(Span::PlatformBuild, || {
        SecurePlatform::with_tpm(Platform::recommended(CPUS), tpm)
    });
    span(Span::EngineNew, || {
        let mut engine = SessionEngine::<Slaunch>::new(secure, CPUS as usize)
            .expect("the workers fit the platform's CPUs")
            .with_executor(EXECUTOR);
        engine.set_fault_plan(Some(FaultPlan::fault_free()));
        engine
    })
}

/// Runs one batch inside `core.engine_run`; an engine error fails every
/// job of the batch.
fn run_batch(
    engine: &mut SessionEngine<Slaunch>,
    jobs: Vec<ConcurrentJob>,
    policy: &BatchPolicy,
    tally: &mut Tally,
) -> Option<BatchOutcome> {
    let n = jobs.len() as u64;
    match span(Span::EngineRun, || engine.run(jobs, policy)) {
        Ok(out) => Some(out),
        Err(e) => {
            tally.attempted += n;
            tally.failed += n.saturating_sub(1);
            tally.fail(format!("batch of {n} failed: {e}"));
            None
        }
    }
}

/// Checks a batch: every session quoted, its wire accepted by
/// `verifier` under the job's nonce, and its output accepted by
/// `check(job, output)`.
fn check_batch(
    out: &BatchOutcome,
    platform: u64,
    verifier: &mut VerifierService,
    tally: &mut Tally,
    check: impl Fn(usize, &[u8]) -> Result<(), String>,
) {
    for (job, session) in out.sessions.iter().enumerate() {
        tally.attempted += 1;
        let SessionResult::Quoted { result, quote, .. } = session else {
            tally.fail(format!("job {job}: session not quoted: {session:?}"));
            continue;
        };
        let verdict = span(Span::FleetVerify, || {
            let nonce = (job as u64).to_le_bytes();
            verifier.challenge(platform, &nonce, 0);
            verifier.verify(platform, &quote.to_bytes(), 0)
        });
        match (&verdict.result, check(job, &result.output)) {
            (Err(reason), _) => tally.fail(format!("job {job}: verifier rejected: {reason:?}")),
            (Ok(_), Err(what)) => {
                tally.accepted += 1;
                tally.fail(format!("job {job}: {what}"));
            }
            (Ok(_), Ok(())) => tally.accepted += 1,
        }
    }
    let stats = verifier.stats();
    count(Counter::Verifies, stats.requests);
    count(Counter::Rejected, stats.rejected);
    count(Counter::CertWalks, stats.cert_walks);
    count(Counter::TicketHits, stats.ticket_hits);
    let tally_of = out.tally();
    count(Counter::Sessions, out.sessions.len() as u64);
    count(Counter::Quoted, tally_of.quoted as u64);
    count(Counter::Killed, tally_of.killed as u64);
    count(Counter::Degraded, tally_of.degraded as u64);
    count(Counter::Resets, out.resets as u64);
    count(Counter::Committed, out.committed.len() as u64);
    count(Counter::Relaunched, out.relaunched.len() as u64);
    count(Counter::JournalVirtNs, out.journal_overhead.as_ns());
    count(Counter::RecoveryVirtNs, out.recovery_latency.as_ns());
}

fn expect_output(want: &[u8], got: &[u8]) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("output {got:02x?}, expected {want:02x?}"))
    }
}

/// `fleet_boot`: the `run_fleet` pipeline, one platform per round.
/// `sea_os::Dispatcher` assigns requests round-robin; each round builds
/// one vault-provisioned platform, runs its requests as one batch,
/// verifies every wire, and drops the platform.
struct FleetBoot {
    vault: &'static KeyVault,
    ca: RsaPublicKey,
    certs: Vec<AikCert>,
    requests: Vec<Vec<u64>>,
    work_us: Vec<u64>,
    image: Vec<u8>,
}

impl FleetBoot {
    fn new(seed: u64, size: Size) -> Self {
        let platforms = size.pick(128, 4);
        let vault = KeyVault::global();
        let certs = (0..platforms)
            .map(|p| span(Span::VaultTpm, || vault.certificate(p)))
            .collect();
        let ids: Vec<u64> = (0..(platforms * REQUESTS_PER_PLATFORM) as u64).collect();
        let requests = Dispatcher::new(platforms, DispatchPolicy::RoundRobin).partition(&ids);
        let mut gen = Gen::new(seed, "fleet_boot/work");
        let work_us = ids.iter().map(|_| gen.range(25, 400)).collect();
        FleetBoot {
            vault,
            ca: vault.ca_public(),
            certs,
            requests,
            work_us,
            image: sea_fleet::service_image(),
        }
    }
}

impl Workload for FleetBoot {
    fn rounds(&self) -> usize {
        self.requests.len()
    }

    fn begin_pass(&mut self) {}

    /// Rounds zero and free 64 MiB of platform memory: memset and
    /// memcpy bandwidth.
    fn reference(&self) -> Mix {
        Mix {
            hash_rounds: 0,
            multiplies: 0,
            set_bytes: 4 << 20,
            copy_bytes: 2 << 20,
            nominal_ms: 0.9,
        }
    }

    fn round(&mut self, p: usize, tally: &mut Tally) -> SimDuration {
        let mut engine = boot(self.vault, p);
        let requests = &self.requests[p];
        let jobs = requests
            .iter()
            .map(|&r| {
                let work = SimDuration::from_us(self.work_us[r as usize]);
                let pal = FnPal::new(FLEET_SERVICE, move |ctx| {
                    ctx.work(work);
                    Ok(PalOutcome::Exit(r.to_le_bytes().to_vec()))
                });
                ConcurrentJob::new(Traced::boxed(pal), b"")
            })
            .collect();
        let policy = BatchPolicy::plain().with_executor(EXECUTOR);
        let wall = match run_batch(&mut engine, jobs, &policy, tally) {
            Some(out) => {
                let build = Build {
                    service: FLEET_SERVICE,
                    image: &self.image,
                    extends: &[],
                };
                let mut verifier = provision(&self.ca, &self.certs[p], &[build]);
                check_batch(&out, p as u64, &mut verifier, tally, |job, output| {
                    expect_output(&requests[job].to_le_bytes(), output)
                });
                out.wall
            }
            None => SimDuration::ZERO,
        };
        span(Span::PlatformDrop, || drop(engine));
        wall
    }

    fn end_pass(&mut self) {}
}

/// One `pal_mix` round's generated inputs.
struct MixRound {
    ssh_request: Vec<u8>,
    ssh_expect: u8,
    n: u64,
    factoring: VmPal,
    factoring_image: Vec<u8>,
    snapshot: Vec<u8>,
    snapshot_digest: Sha1Digest,
    clean: bool,
}

/// `pal_mix`: the four VM PALs on one platform, one batch per round.
/// SSH alternates enroll and verify, carrying the sealed record between
/// rounds; CA generates a key; factoring splits a product of two primes
/// near 2^16 with yields; the rootkit detector scans a snapshot that is
/// sometimes tampered.
struct PalMix {
    vault: &'static KeyVault,
    ca: RsaPublicKey,
    cert: AikCert,
    ssh: VmPal,
    ssh_image: Vec<u8>,
    ca_pal: VmPal,
    ca_image: Vec<u8>,
    rootkit: VmPal,
    rootkit_image: Vec<u8>,
    rounds: Vec<MixRound>,
    record: RecordCell,
    engine: Option<SessionEngine<Slaunch>>,
}

impl PalMix {
    fn new(seed: u64, size: Size) -> Self {
        let vault = KeyVault::global();
        let cert = span(Span::VaultTpm, || vault.certificate(0));
        let mut gen = Gen::new(seed, "pal_mix/kernels");
        let kernels = [gen.bytes(4096), gen.bytes(4096)];
        let rootkit = vm_rootkit(&[&kernels[0], &kernels[1]]);
        let mut gen = Gen::new(seed, "pal_mix/rounds");
        let mut password = Vec::new();
        let rounds = (0..size.pick(128, 2))
            .map(|k| {
                let (ssh_request, ssh_expect) = if k.is_multiple_of(2) {
                    let len = gen.range(8, 24) as usize;
                    password = gen.bytes(len);
                    (SshRequest::Enroll(password.clone()).to_bytes(), 1)
                } else if gen.chance(1, 2) {
                    (SshRequest::Verify(password.clone()).to_bytes(), 1)
                } else {
                    let mut wrong = password.clone();
                    wrong[0] ^= 0x01;
                    (SshRequest::Verify(wrong).to_bytes(), 0)
                };
                let p = gen.prime(60_000, 65_521);
                let q = loop {
                    let q = gen.prime(60_000, 65_521);
                    if q != p {
                        break q;
                    }
                };
                let n = p * q;
                let factoring = vm_factoring(n, FACTOR_QUANTUM, PersistMode::InRegion);
                let mut snapshot = kernels[gen.range(0, 1) as usize].clone();
                let clean = !gen.chance(1, 4);
                if !clean {
                    let at = gen.range(0, snapshot.len() as u64 - 1) as usize;
                    snapshot[at] ^= 0x5A;
                }
                MixRound {
                    ssh_request,
                    ssh_expect,
                    n,
                    factoring_image: factoring.image(),
                    factoring,
                    snapshot_digest: Sha1::digest(&snapshot),
                    snapshot,
                    clean,
                }
            })
            .collect();
        let (ssh, ca_pal) = (vm_ssh(), vm_ca());
        PalMix {
            vault,
            ca: vault.ca_public(),
            cert,
            ssh_image: ssh.image(),
            ssh,
            ca_image: ca_pal.image(),
            ca_pal,
            rootkit_image: rootkit.image(),
            rootkit,
            rounds,
            record: RecordCell::default(),
            engine: None,
        }
    }
}

impl Workload for PalMix {
    fn rounds(&self) -> usize {
        self.rounds.len()
    }

    fn begin_pass(&mut self) {
        *self.record.lock().expect("record cell") = None;
        self.engine = Some(boot(self.vault, 0));
    }

    /// Rounds interpret bytecode and generate RSA keys: multiply-heavy
    /// compute, some hashing and copying.
    fn reference(&self) -> Mix {
        Mix {
            hash_rounds: 10_000,
            multiplies: 55_000,
            set_bytes: 0,
            copy_bytes: 512 << 10,
            nominal_ms: 0.67,
        }
    }

    fn round(&mut self, k: usize, tally: &mut Tally) -> SimDuration {
        let r = &self.rounds[k];
        let mut ssh = self.ssh.clone();
        let enroll = k.is_multiple_of(2);
        if !enroll {
            ssh.set_slot(0, self.record.lock().expect("record cell").take());
        }
        let ssh_job = Box::new(Traced {
            pal: ssh,
            record_out: enroll.then(|| Arc::clone(&self.record)),
        });
        let jobs = vec![
            ConcurrentJob::new(ssh_job, r.ssh_request.clone()),
            ConcurrentJob::new(
                Traced::boxed(self.ca_pal.clone()),
                CaRequest::Generate.to_bytes(),
            ),
            ConcurrentJob::new(Traced::boxed(r.factoring.clone()), b""),
            ConcurrentJob::new(Traced::boxed(self.rootkit.clone()), r.snapshot.clone()),
        ];
        let engine = self.engine.as_mut().expect("begin_pass boots the engine");
        let policy = BatchPolicy::plain().with_executor(EXECUTOR);
        let Some(out) = run_batch(engine, jobs, &policy, tally) else {
            return SimDuration::ZERO;
        };
        let builds = [
            Build {
                service: "ssh-password",
                image: &self.ssh_image,
                extends: &[],
            },
            Build {
                service: "certificate-authority",
                image: &self.ca_image,
                extends: &[],
            },
            Build {
                service: "distributed-factoring",
                image: &r.factoring_image,
                extends: &[],
            },
            Build {
                service: "rootkit-detector",
                image: &self.rootkit_image,
                extends: &[r.snapshot_digest],
            },
        ];
        let mut verifier = provision(&self.ca, &self.cert, &builds);
        check_batch(&out, 0, &mut verifier, tally, |job, output| match job {
            0 => expect_output(&[r.ssh_expect], output),
            1 => match decode_public_key(output) {
                Some(_) => Ok(()),
                None => Err("CA output is not a public key".into()),
            },
            2 => match decode_factors(output) {
                Some((a, b)) if a > 1 && b > 1 && a.checked_mul(b) == Some(r.n) => Ok(()),
                other => Err(format!("factors {other:?} do not split {}", r.n)),
            },
            _ => expect_output(&[r.clean as u8], output),
        });
        out.wall
    }

    fn end_pass(&mut self) {
        let engine = self.engine.take();
        span(Span::PlatformDrop, || drop(engine));
    }
}

/// One `durable_journal` round's generated inputs.
struct DurableRound {
    states: Vec<Arc<[u8]>>,
    plan: ResetPlan,
}

/// `durable_journal`: durable "PAL Gen" batches on one platform. Every
/// session seals its generated state; the reset plan cuts power at
/// commit boundaries, and the engine recovers from its sealed journal.
struct DurableJournal {
    vault: &'static KeyVault,
    ca: RsaPublicKey,
    cert: AikCert,
    image: Vec<u8>,
    rounds: Vec<DurableRound>,
    engine: Option<SessionEngine<Slaunch>>,
}

/// The durable PAL's service name.
const PAL_GEN: &str = "pal-gen";

impl DurableJournal {
    fn new(seed: u64, size: Size) -> Self {
        let vault = KeyVault::global();
        let cert = span(Span::VaultTpm, || vault.certificate(0));
        let sessions = size.pick(48, 8);
        let mut gen = Gen::new(seed, "durable_journal/rounds");
        let rounds = (0..size.pick(100, 2))
            .map(|_| DurableRound {
                states: (0..sessions)
                    .map(|_| {
                        let len = gen.range(32, 512) as usize;
                        gen.bytes(len).into()
                    })
                    .collect(),
                plan: ResetPlan::new(gen.range(0, u64::MAX - 1))
                    .with_reset_rate(RESET_RATE)
                    .with_max_resets(MAX_RESETS),
            })
            .collect();
        DurableJournal {
            vault,
            ca: vault.ca_public(),
            cert,
            image: FnPal::new(PAL_GEN, |_| Ok(PalOutcome::Yield)).image(),
            rounds,
            engine: None,
        }
    }
}

impl Workload for DurableJournal {
    fn rounds(&self) -> usize {
        self.rounds.len()
    }

    fn begin_pass(&mut self) {
        self.engine = Some(boot(self.vault, 0));
    }

    /// Rounds hash, seal and serialize a growing journal: hashing
    /// throughput and buffer copies.
    fn reference(&self) -> Mix {
        Mix {
            hash_rounds: 30_000,
            multiplies: 0,
            set_bytes: 0,
            copy_bytes: 2 << 20,
            nominal_ms: 0.84,
        }
    }

    fn round(&mut self, k: usize, tally: &mut Tally) -> SimDuration {
        let r = &self.rounds[k];
        let ran = Arc::new(Mutex::new(vec![false; r.states.len()]));
        let jobs = r
            .states
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let (state, ran) = (Arc::clone(state), Arc::clone(&ran));
                let pal = FnPal::new(PAL_GEN, move |ctx| {
                    span(Span::TpmSeal, || ctx.seal(&state))?;
                    ran.lock().expect("ran flags")[i] = true;
                    Ok(PalOutcome::Exit((i as u64).to_le_bytes().to_vec()))
                });
                ConcurrentJob::new(Traced::boxed(pal), b"")
            })
            .collect();
        let policy = BatchPolicy::plain()
            .with_retry(RetryPolicy::default())
            .with_durability(r.plan.clone())
            .with_group_commit(1)
            .with_executor(EXECUTOR);
        let engine = self.engine.as_mut().expect("begin_pass boots the engine");
        let Some(out) = run_batch(engine, jobs, &policy, tally) else {
            return SimDuration::ZERO;
        };
        let build = Build {
            service: PAL_GEN,
            image: &self.image,
            extends: &[],
        };
        let mut verifier = provision(&self.ca, &self.cert, &[build]);
        check_batch(&out, 0, &mut verifier, tally, |job, output| {
            expect_output(&(job as u64).to_le_bytes(), output)
        });
        let ran = ran.lock().expect("ran flags");
        let stale = out
            .sessions
            .iter()
            .zip(ran.iter())
            .filter(|(s, ran)| s.is_quoted() && !**ran)
            .count() as u64;
        tally.stale += stale;
        count(Counter::StaleRestores, stale);
        out.wall
    }

    fn end_pass(&mut self) {
        let engine = self.engine.take();
        span(Span::PlatformDrop, || drop(engine));
    }
}
