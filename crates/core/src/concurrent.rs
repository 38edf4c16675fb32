//! The batch data model: what batches are *made of* —
//! [`ConcurrentJob`], [`JobResult`], [`SessionResult`]. The executor
//! itself lives in [`crate::engine`]: one generic [`crate::SessionEngine`]
//! whose behavior is composed from a [`crate::BatchPolicy`].

use sea_hw::{CpuId, SimDuration};
use sea_tpm::Quote;

use crate::error::SeaError;
use crate::pal::PalLogic;
use crate::report::SessionReport;

/// One unit of work for a batch: a PAL plus its input.
pub struct ConcurrentJob {
    pub(crate) logic: Box<dyn PalLogic + Send>,
    pub(crate) input: Vec<u8>,
}

impl ConcurrentJob {
    /// Packages a PAL and its input for submission.
    pub fn new(logic: Box<dyn PalLogic + Send>, input: impl Into<Vec<u8>>) -> Self {
        ConcurrentJob {
            logic,
            input: input.into(),
        }
    }
}

/// Result of one job in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The PAL's output.
    pub output: Vec<u8>,
    /// The session's cost breakdown (virtual time).
    pub report: SessionReport,
    /// Virtual cost of the post-exit `TPM_Quote` + `TPM_SEPCR_Free`.
    pub quote_cost: SimDuration,
    /// The CPU (= worker) the session ran on.
    pub cpu: CpuId,
}

impl JobResult {
    /// The job's full virtual cost: session plus attestation.
    pub fn total(&self) -> SimDuration {
        self.report.total() + self.quote_cost
    }
}

/// Outcome of one job driven by the recovery layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionResult {
    /// The session completed (possibly after retries) and was quoted.
    Quoted {
        /// The session's output, report, quote cost, and CPU.
        result: JobResult,
        /// The attestation over the session's sePCR.
        quote: Quote,
        /// How many injected faults were retried along the way.
        retries: u32,
        /// Virtual time spent on fault handling and backoff.
        recovery_cost: SimDuration,
    },
    /// The sePCR bank was saturated at launch; the session ran to
    /// completion on the legacy (late-launch) slow path instead,
    /// without a sePCR-bound quote.
    Degraded {
        /// The job's index in the batch.
        job: usize,
        /// The PAL's output.
        output: Vec<u8>,
        /// The legacy session's cost breakdown.
        report: SessionReport,
    },
    /// The retry budget was exhausted (or the fault was fatal); the
    /// session was torn down via `SKILL` and its sePCR reclaimed.
    Killed {
        /// The job's index in the batch.
        job: usize,
        /// Attempts made (1 initial + retries) before giving up.
        attempts: u32,
        /// The error that ended the session.
        error: SeaError,
        /// Virtual time wasted on the failed attempts.
        wasted: SimDuration,
    },
}

impl SessionResult {
    /// The job's virtual cost as charged to its worker CPU.
    pub fn cost(&self) -> SimDuration {
        match self {
            SessionResult::Quoted {
                result,
                recovery_cost,
                ..
            } => result.total() + *recovery_cost,
            SessionResult::Degraded { report, .. } => report.total(),
            SessionResult::Killed { wasted, .. } => *wasted,
        }
    }

    /// Whether the session completed and was quoted.
    pub fn is_quoted(&self) -> bool {
        matches!(self, SessionResult::Quoted { .. })
    }

    /// Whether the session was killed.
    pub fn is_killed(&self) -> bool {
        matches!(self, SessionResult::Killed { .. })
    }
}
