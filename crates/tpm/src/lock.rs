//! Hardware TPM arbitration (§5.4.5).
//!
//! "Today's TPM-to-CPU communication architecture assumes the use of
//! software locking ... With the introduction of SLAUNCH, we require a
//! hardware mechanism to arbitrate TPM access from PALs executing on
//! multiple CPUs. A simple arbitration mechanism is hardware locking."

use sea_hw::{CpuId, SimTime};

use crate::error::TpmError;

/// One granted TPM command slot: who won, and when they asked.
///
/// The request stamp is what turns the arbiter into an observability
/// source — `grant time - requested` is exactly the virtual time the CPU
/// spent queued behind other TPM commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpmGrant {
    /// The CPU the TPM is granted to.
    pub cpu: CpuId,
    /// The virtual instant that CPU filed its request.
    pub requested: SimTime,
}

/// The hardware TPM lock as a *virtual-time* resource: CPUs file
/// requests stamped with the virtual instant they reached the TPM, and
/// the arbiter grants in deterministic `(time, cpu)` order.
///
/// A discrete-event executor has no racing threads, so the grant
/// order can be a pure function of the event timeline: earliest
/// requester wins, ties broken by the lower CPU id. This is
/// the same policy the paper's hardware arbiter could implement with a
/// fixed-priority daisy chain, and it makes TPM serialization
/// replayable.
///
/// # Example
///
/// ```
/// use sea_tpm::EventOrderedTpmLock;
/// use sea_hw::{CpuId, SimTime};
///
/// let mut arbiter = EventOrderedTpmLock::new();
/// arbiter.request(SimTime::from_ns(20), CpuId(1));
/// arbiter.request(SimTime::from_ns(10), CpuId(3));
/// arbiter.request(SimTime::from_ns(10), CpuId(2));
/// // Earliest request wins; equal times resolve to the lower CPU id.
/// let grant = arbiter.grant().unwrap();
/// assert_eq!(grant.cpu, CpuId(2));
/// assert_eq!(grant.requested, SimTime::from_ns(10));
/// assert_eq!(arbiter.grant(), None); // held until released
/// arbiter.release(CpuId(2)).unwrap();
/// assert_eq!(arbiter.grant().unwrap().cpu, CpuId(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventOrderedTpmLock {
    granted: Option<TpmGrant>,
    /// Pending requests as `(request time, cpu)`, unsorted; `grant`
    /// selects the minimum, so the queue never depends on arrival
    /// order beyond the timestamps themselves.
    pending: Vec<(SimTime, CpuId)>,
}

impl EventOrderedTpmLock {
    /// Creates an unheld arbiter with no pending requests.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CPU currently granted the TPM, if any.
    pub fn holder(&self) -> Option<CpuId> {
        self.granted.map(|g| g.cpu)
    }

    /// The current grant (holder plus its request stamp), if any.
    pub fn granted(&self) -> Option<TpmGrant> {
        self.granted
    }

    /// Number of CPUs waiting for a grant.
    pub fn waiting(&self) -> usize {
        self.pending.len()
    }

    /// Files a request from `cpu` stamped `at`. Duplicate requests from
    /// the same CPU keep the earliest stamp (hardware sees one request
    /// line per CPU).
    pub fn request(&mut self, at: SimTime, cpu: CpuId) {
        if self.holder() == Some(cpu) {
            return; // reentrant: the holder already owns the TPM
        }
        match self.pending.iter_mut().find(|(_, c)| *c == cpu) {
            Some(slot) => slot.0 = slot.0.min(at),
            None => self.pending.push((at, cpu)),
        }
    }

    /// Grants the lock to the best pending requester — earliest stamp,
    /// ties to the lowest CPU id — if the TPM is free. Returns the grant
    /// (including the winner's request stamp), or `None` if the lock is
    /// held or nobody is waiting.
    pub fn grant(&mut self) -> Option<TpmGrant> {
        if self.granted.is_some() {
            return None;
        }
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, c))| (t, c))
            .map(|(i, _)| i)?;
        let (requested, cpu) = self.pending.swap_remove(best);
        let grant = TpmGrant { cpu, requested };
        self.granted = Some(grant);
        Some(grant)
    }

    /// Releases the grant.
    ///
    /// # Errors
    ///
    /// [`TpmError::LockHeld`] if `cpu` is not the holder (releasing an
    /// unheld lock is harmless).
    pub fn release(&mut self, cpu: CpuId) -> Result<(), TpmError> {
        match self.holder() {
            Some(h) if h == cpu => {
                self.granted = None;
                Ok(())
            }
            Some(h) => Err(TpmError::LockHeld { holder: h }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_crypto::{to_hex, Sha1};

    fn cpu_of(grant: Option<TpmGrant>) -> Option<CpuId> {
        grant.map(|g| g.cpu)
    }

    #[test]
    fn event_ordered_grants_resolve_time_then_cpu() {
        let mut arb = EventOrderedTpmLock::new();
        arb.request(SimTime::from_ns(50), CpuId(0));
        arb.request(SimTime::from_ns(10), CpuId(9));
        arb.request(SimTime::from_ns(10), CpuId(4));
        assert_eq!(arb.waiting(), 3);
        // t=10 beats t=50; cpu4 beats cpu9 at equal time.
        assert_eq!(cpu_of(arb.grant()), Some(CpuId(4)));
        assert_eq!(arb.holder(), Some(CpuId(4)));
        assert_eq!(arb.grant(), None);
        arb.release(CpuId(4)).unwrap();
        assert_eq!(cpu_of(arb.grant()), Some(CpuId(9)));
        arb.release(CpuId(9)).unwrap();
        assert_eq!(cpu_of(arb.grant()), Some(CpuId(0)));
        arb.release(CpuId(0)).unwrap();
        assert_eq!(arb.grant(), None);
    }

    #[test]
    fn arbiter_reports_request_stamps_and_dedupes_lanes() {
        let mut arb = EventOrderedTpmLock::new();
        arb.request(SimTime::from_ns(30), CpuId(1));
        arb.request(SimTime::from_ns(5), CpuId(1)); // earlier stamp wins
        arb.request(SimTime::from_ns(20), CpuId(2));
        assert_eq!(arb.waiting(), 2);
        let g = arb.grant().unwrap();
        assert_eq!(
            g,
            TpmGrant {
                cpu: CpuId(1),
                requested: SimTime::from_ns(5)
            }
        );
        assert_eq!(arb.granted(), Some(g));
        // The holder re-requesting is a no-op, not a queued duplicate.
        arb.request(SimTime::from_ns(40), CpuId(1));
        assert_eq!(arb.waiting(), 1);
        assert_eq!(
            arb.release(CpuId(2)),
            Err(TpmError::LockHeld { holder: CpuId(1) })
        );
        arb.release(CpuId(1)).unwrap();
        assert!(arb.release(CpuId(1)).is_ok()); // releasing unheld is harmless
        assert_eq!(arb.grant().unwrap().requested, SimTime::from_ns(20));
    }

    #[test]
    fn grant_order_matches_the_recorded_golden() {
        // A pseudorandom request/grant/release schedule over 8 CPUs with
        // request stamps below 64 ns, checked against a recorded grant
        // stream: the digest pins every grant's CPU and request stamp,
        // in order, so any change to the arbitration policy shows.
        let mut arb = EventOrderedTpmLock::new();
        let mut grants = Vec::new();
        let mut state = 0x5EED_CAFE_u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..500 {
            match rand() % 3 {
                0 => {
                    let at = SimTime::from_ns(rand() % 64);
                    let cpu = CpuId((rand() % 8) as u16);
                    arb.request(at, cpu);
                }
                1 => grants.extend(arb.grant()),
                _ => {
                    if let Some(h) = arb.holder() {
                        arb.release(h).unwrap();
                    }
                }
            }
        }
        let head: Vec<(u16, u64)> = grants
            .iter()
            .take(5)
            .map(|g| (g.cpu.0, g.requested.as_ns()))
            .collect();
        assert_eq!(head, [(6, 37), (3, 23), (6, 4), (5, 10), (2, 15)]);
        assert_eq!(grants.len(), 88);
        let mut stream = Vec::with_capacity(grants.len() * 10);
        for g in &grants {
            stream.extend_from_slice(&g.cpu.0.to_le_bytes());
            stream.extend_from_slice(&g.requested.as_ns().to_le_bytes());
        }
        assert_eq!(
            to_hex(&Sha1::digest(&stream)),
            "96ec7f58865450c786791db0ff8e068401d0b06e"
        );
    }
}
