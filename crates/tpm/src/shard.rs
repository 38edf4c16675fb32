//! Per-CPU sharding of the TPM session resources (§5.4 scaled out).
//!
//! The paper's sePCR design is explicitly *per-session*: each PAL owns
//! one measurement chain and never touches another's (§5.4.2). Nothing in
//! that contract requires every CPU to funnel through one bank-wide lock —
//! only the handful of genuinely-global commands (quote-key operations,
//! NVRAM) need a single arbiter. This module provides the sharded halves
//! of that split:
//!
//! * [`ShardedSePcrBank`] — the sePCR bank cut into per-CPU shards, each
//!   its own serialization point. A CPU allocates from its *home* shard
//!   (`cpu % shards`) and spills to the next shard in deterministic
//!   wrap-around order only when home is exhausted, so concurrent
//!   allocations from distinct CPUs touch distinct locks and the handle
//!   assignment is independent of thread interleaving.
//! * [`ShardedTpmArbiter`] — the TPM command gate with one hardware
//!   request line per CPU. Grant order is the exact `(request time,
//!   CPU id)` policy of [`crate::EventOrderedTpmLock`] — a fixed-priority
//!   merge across the lanes — so replacing the monolithic arbiter cannot
//!   reorder a single grant; each grant also reports the original request
//!   stamp, which is what lets the executor charge *lock wait* separately
//!   from *hold* time.

use sea_crypto::Sha1Digest;
use sea_hw::{CpuId, SimTime};

use crate::error::TpmError;
use crate::pcr::PcrValue;
use crate::sepcr::{SePcrHandle, SePcrState, SharedSePcrBank};

/// Rewrites a shard-local handle inside an error back into the global
/// handle space, so callers never see shard-internal numbering.
fn globalize(err: TpmError, offset: u16) -> TpmError {
    match err {
        TpmError::NoSuchSePcr(h) => TpmError::NoSuchSePcr(SePcrHandle(h.0 + offset)),
        TpmError::SePcrWrongState(h) => TpmError::SePcrWrongState(SePcrHandle(h.0 + offset)),
        TpmError::SePcrAccessDenied { handle, requester } => TpmError::SePcrAccessDenied {
            handle: SePcrHandle(handle.0 + offset),
            requester,
        },
        other => other,
    }
}

/// A sePCR bank cut into per-CPU shards (see the module docs).
///
/// Handles remain bank-global: shard `s` owns the contiguous slot range
/// `[offsets[s], offsets[s] + counts[s])`, and every operation routes a
/// global [`SePcrHandle`] to the owning shard. With one shard this is
/// behaviorally identical to [`SharedSePcrBank`].
///
/// # Example
///
/// ```
/// use sea_tpm::ShardedSePcrBank;
/// use sea_crypto::Sha1;
/// use sea_hw::CpuId;
///
/// let bank = ShardedSePcrBank::new(4, 2);
/// // CPU 1's home shard is 1 (slots 2..4), so its first handle is slot 2.
/// let h = bank.allocate(&Sha1::digest(b"pal"), CpuId(1)).unwrap();
/// assert_eq!(h.0, 2);
/// bank.release_to_quote(h, CpuId(1)).unwrap();
/// bank.free(h).unwrap();
/// assert_eq!(bank.free_count(), 4);
/// ```
#[derive(Debug)]
pub struct ShardedSePcrBank {
    shards: Vec<SharedSePcrBank>,
    /// First global slot index of each shard.
    offsets: Vec<u16>,
    /// Slot count of each shard.
    counts: Vec<u16>,
}

impl ShardedSePcrBank {
    /// Creates a bank of `total` free sePCRs split across `shards` shards
    /// (clamped to at least one, and to at most one shard per slot when
    /// `total > 0`). Slots distribute as evenly as possible, earlier
    /// shards taking the remainder.
    pub fn new(total: u16, shards: u16) -> Self {
        let shards = shards.max(1).min(total.max(1));
        let base = total / shards;
        let extra = total % shards;
        let mut banks = Vec::with_capacity(shards as usize);
        let mut offsets = Vec::with_capacity(shards as usize);
        let mut counts = Vec::with_capacity(shards as usize);
        let mut offset = 0u16;
        for s in 0..shards {
            let count = base + u16::from(s < extra);
            banks.push(SharedSePcrBank::new(count));
            offsets.push(offset);
            counts.push(count);
            offset += count;
        }
        ShardedSePcrBank {
            shards: banks,
            offsets,
            counts,
        }
    }

    /// Number of shards the bank is cut into.
    pub fn shard_count(&self) -> u16 {
        self.shards.len() as u16
    }

    /// Total number of sePCR slots across all shards.
    pub fn count(&self) -> u16 {
        self.shards.iter().map(|s| s.count()).sum()
    }

    /// Number of Free slots across all shards.
    pub fn free_count(&self) -> u16 {
        self.shards.iter().map(|s| s.free_count()).sum()
    }

    /// The shard a CPU allocates from first.
    pub fn home_shard(&self, cpu: CpuId) -> u16 {
        cpu.0 % self.shard_count()
    }

    /// Routes a global handle to `(shard index, local handle)`.
    fn resolve(&self, handle: SePcrHandle) -> Result<(usize, SePcrHandle), TpmError> {
        for (s, (&offset, &count)) in self.offsets.iter().zip(&self.counts).enumerate() {
            if handle.0 >= offset && handle.0 < offset + count {
                return Ok((s, SePcrHandle(handle.0 - offset)));
            }
        }
        Err(TpmError::NoSuchSePcr(handle))
    }

    /// Runs `f` against the shard owning `handle`, translating any
    /// handle-carrying error back to global numbering.
    fn on_shard<T>(
        &self,
        handle: SePcrHandle,
        f: impl FnOnce(&SharedSePcrBank, SePcrHandle) -> Result<T, TpmError>,
    ) -> Result<T, TpmError> {
        let (s, local) = self.resolve(handle)?;
        f(&self.shards[s], local).map_err(|e| globalize(e, self.offsets[s]))
    }

    /// `SLAUNCH` allocation from `owner`'s home shard, spilling to the
    /// next shards in wrap-around order only when earlier ones are full.
    ///
    /// # Errors
    ///
    /// [`TpmError::NoFreeSePcr`] when every shard is exhausted.
    pub fn allocate(
        &self,
        measurement: &Sha1Digest,
        owner: CpuId,
    ) -> Result<SePcrHandle, TpmError> {
        let n = self.shards.len();
        let home = self.home_shard(owner) as usize;
        for i in 0..n {
            let s = (home + i) % n;
            match self.shards[s].allocate(measurement, owner) {
                Ok(local) => return Ok(SePcrHandle(self.offsets[s] + local.0)),
                Err(TpmError::NoFreeSePcr) => continue,
                Err(other) => return Err(globalize(other, self.offsets[s])),
            }
        }
        Err(TpmError::NoFreeSePcr)
    }

    /// Current state of a slot. See [`crate::SePcrBank::state`].
    ///
    /// # Errors
    ///
    /// [`TpmError::NoSuchSePcr`] for an invalid handle.
    pub fn state(&self, handle: SePcrHandle) -> Result<SePcrState, TpmError> {
        self.on_shard(handle, |b, h| b.state(h))
    }

    /// The CPU bound to a slot. See [`crate::SePcrBank::owner`].
    ///
    /// # Errors
    ///
    /// [`TpmError::NoSuchSePcr`] for an invalid handle.
    pub fn owner(&self, handle: SePcrHandle) -> Result<Option<CpuId>, TpmError> {
        self.on_shard(handle, |b, h| b.owner(h))
    }

    /// Owner-checked Exclusive read. See [`crate::SePcrBank::read_exclusive`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::read_exclusive`].
    pub fn read_exclusive(
        &self,
        handle: SePcrHandle,
        requester: CpuId,
    ) -> Result<PcrValue, TpmError> {
        self.on_shard(handle, |b, h| b.read_exclusive(h, requester))
    }

    /// Owner-checked extend. See [`crate::SePcrBank::extend`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::extend`].
    pub fn extend(
        &self,
        handle: SePcrHandle,
        requester: CpuId,
        measurement: &Sha1Digest,
    ) -> Result<PcrValue, TpmError> {
        self.on_shard(handle, |b, h| b.extend(h, requester, measurement))
    }

    /// Resume-path owner rebind. See [`crate::SePcrBank::rebind_owner`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::rebind_owner`].
    pub fn rebind_owner(&self, handle: SePcrHandle, owner: CpuId) -> Result<(), TpmError> {
        self.on_shard(handle, |b, h| b.rebind_owner(h, owner))
    }

    /// `SFREE`: Exclusive → Quote. See [`crate::SePcrBank::release_to_quote`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::release_to_quote`].
    pub fn release_to_quote(&self, handle: SePcrHandle, requester: CpuId) -> Result<(), TpmError> {
        self.on_shard(handle, |b, h| b.release_to_quote(h, requester))
    }

    /// Quote-state read. See [`crate::SePcrBank::read_for_quote`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::read_for_quote`].
    pub fn read_for_quote(&self, handle: SePcrHandle) -> Result<PcrValue, TpmError> {
        self.on_shard(handle, |b, h| b.read_for_quote(h))
    }

    /// `TPM_SEPCR_Free`: Quote → Free. See [`crate::SePcrBank::free`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::free`].
    pub fn free(&self, handle: SePcrHandle) -> Result<(), TpmError> {
        self.on_shard(handle, |b, h| b.free(h))
    }

    /// `SKILL`. See [`crate::SePcrBank::skill`].
    ///
    /// # Errors
    ///
    /// As for [`crate::SePcrBank::skill`].
    pub fn skill(&self, handle: SePcrHandle) -> Result<(), TpmError> {
        self.on_shard(handle, |b, h| b.skill(h))
    }

    /// Platform reset: every shard returns to all-Free.
    /// See [`crate::SePcrBank::platform_reset`].
    pub fn platform_reset(&self) {
        for shard in &self.shards {
            shard.platform_reset();
        }
    }
}

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

/// The TPM command gate with one hardware request line per CPU.
///
/// Functionally equivalent to [`crate::EventOrderedTpmLock`] — grants
/// resolve in `(request time, CPU id)` order, requests are reentrant for
/// the holder, duplicate requests keep the earliest stamp, only the
/// holder releases — but structured as per-CPU lanes the way the paper's
/// daisy-chained hardware arbiter would be, and each grant carries its
/// request stamp so callers can attribute lock-wait time.
///
/// # Example
///
/// ```
/// use sea_tpm::ShardedTpmArbiter;
/// use sea_hw::{CpuId, SimTime};
///
/// let mut arbiter = ShardedTpmArbiter::new();
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
pub struct ShardedTpmArbiter {
    /// Request lanes indexed by CPU id: `Some(stamp)` when that CPU's
    /// request line is raised. Grown on demand.
    lanes: Vec<Option<SimTime>>,
    granted: Option<TpmGrant>,
}

impl ShardedTpmArbiter {
    /// Creates an idle arbiter with no raised request lines.
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

    /// Number of CPUs with a raised request line.
    pub fn waiting(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }

    /// Raises `cpu`'s request line stamped `at`. A raised line keeps its
    /// earliest stamp (the hardware has one line per CPU); a request from
    /// the current holder is a no-op.
    pub fn request(&mut self, at: SimTime, cpu: CpuId) {
        if self.holder() == Some(cpu) {
            return; // reentrant: the holder already owns the TPM
        }
        let lane = cpu.0 as usize;
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, None);
        }
        self.lanes[lane] = Some(match self.lanes[lane] {
            Some(existing) => existing.min(at),
            None => at,
        });
    }

    /// Grants the TPM to the best raised line — earliest stamp, ties to
    /// the lowest CPU id — if it is free. Returns the grant (including
    /// the winner's request stamp), or `None` if the TPM is held or no
    /// line is raised.
    pub fn grant(&mut self) -> Option<TpmGrant> {
        if self.granted.is_some() {
            return None;
        }
        // Scanning lanes in ascending CPU order with a strict `<` makes
        // the tie-break to the lower CPU id structural.
        let mut best: Option<(SimTime, usize)> = None;
        for (lane, stamp) in self.lanes.iter().enumerate() {
            if let Some(t) = stamp {
                if best.is_none_or(|(bt, _)| *t < bt) {
                    best = Some((*t, lane));
                }
            }
        }
        let (requested, lane) = best?;
        self.lanes[lane] = None;
        let grant = TpmGrant {
            cpu: CpuId(lane as u16),
            requested,
        };
        self.granted = Some(grant);
        Some(grant)
    }

    /// Releases the grant.
    ///
    /// # Errors
    ///
    /// [`TpmError::LockHeld`] if `cpu` is not the holder (releasing an
    /// unheld arbiter is harmless).
    pub fn release(&mut self, cpu: CpuId) -> Result<(), TpmError> {
        match self.granted {
            Some(g) if g.cpu == cpu => {
                self.granted = None;
                Ok(())
            }
            Some(g) => Err(TpmError::LockHeld { holder: g.cpu }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::EventOrderedTpmLock;
    use sea_crypto::Sha1;

    fn m(label: &[u8]) -> Sha1Digest {
        Sha1::digest(label)
    }

    #[test]
    fn shards_distribute_slots_and_sum_counts() {
        let bank = ShardedSePcrBank::new(10, 4);
        assert_eq!(bank.shard_count(), 4);
        assert_eq!(bank.count(), 10);
        assert_eq!(bank.free_count(), 10);
        // 10 = 3 + 3 + 2 + 2, earlier shards take the remainder.
        assert_eq!(bank.counts, vec![3, 3, 2, 2]);
        assert_eq!(bank.offsets, vec![0, 3, 6, 8]);
        // Degenerate parameters clamp instead of panicking.
        assert_eq!(ShardedSePcrBank::new(2, 8).shard_count(), 2);
        assert_eq!(ShardedSePcrBank::new(0, 0).count(), 0);
    }

    #[test]
    fn allocation_starts_at_the_home_shard_and_spills_in_order() {
        let bank = ShardedSePcrBank::new(4, 2); // shard 0: slots 0-1, shard 1: slots 2-3
        assert_eq!(bank.allocate(&m(b"a"), CpuId(0)).unwrap(), SePcrHandle(0));
        assert_eq!(bank.allocate(&m(b"b"), CpuId(1)).unwrap(), SePcrHandle(2));
        assert_eq!(bank.allocate(&m(b"c"), CpuId(2)).unwrap(), SePcrHandle(1));
        // CPU 3's home shard 1 is full: spill wraps to shard 0... also full
        // except — shard 0 has slot 1 taken, slot 0 taken; shard 1 slot 3 free.
        assert_eq!(bank.allocate(&m(b"d"), CpuId(3)).unwrap(), SePcrHandle(3));
        assert_eq!(
            bank.allocate(&m(b"e"), CpuId(0)).err(),
            Some(TpmError::NoFreeSePcr)
        );
        assert_eq!(bank.free_count(), 0);
    }

    #[test]
    fn lifecycle_routes_through_global_handles() {
        let bank = ShardedSePcrBank::new(4, 2);
        let h = bank.allocate(&m(b"pal"), CpuId(1)).unwrap();
        assert_eq!(h, SePcrHandle(2)); // shard 1's first slot
        assert_eq!(bank.state(h).unwrap(), SePcrState::Exclusive);
        assert_eq!(bank.owner(h).unwrap(), Some(CpuId(1)));
        let v = bank.read_exclusive(h, CpuId(1)).unwrap();
        let v2 = bank.extend(h, CpuId(1), &m(b"input")).unwrap();
        assert_ne!(v, v2);
        bank.rebind_owner(h, CpuId(3)).unwrap();
        assert_eq!(bank.owner(h).unwrap(), Some(CpuId(3)));
        bank.release_to_quote(h, CpuId(3)).unwrap();
        assert_eq!(bank.read_for_quote(h).unwrap(), v2);
        bank.free(h).unwrap();
        assert_eq!(bank.state(h).unwrap(), SePcrState::Free);
    }

    #[test]
    fn errors_name_global_handles() {
        let bank = ShardedSePcrBank::new(4, 2);
        let h = bank.allocate(&m(b"pal"), CpuId(1)).unwrap(); // global slot 2
                                                              // Wrong-state error from shard 1 must carry the global handle.
        assert_eq!(
            bank.read_for_quote(h).err(),
            Some(TpmError::SePcrWrongState(h))
        );
        assert_eq!(
            bank.read_exclusive(h, CpuId(0)).err(),
            Some(TpmError::SePcrAccessDenied {
                handle: h,
                requester: CpuId(0)
            })
        );
        // Out-of-range handles are rejected at the routing layer.
        assert_eq!(
            bank.state(SePcrHandle(4)).err(),
            Some(TpmError::NoSuchSePcr(SePcrHandle(4)))
        );
    }

    #[test]
    fn skill_and_platform_reset_cover_all_shards() {
        let bank = ShardedSePcrBank::new(4, 4);
        let h0 = bank.allocate(&m(b"a"), CpuId(0)).unwrap();
        let h1 = bank.allocate(&m(b"b"), CpuId(1)).unwrap();
        bank.skill(h0).unwrap();
        assert_eq!(bank.state(h0).unwrap(), SePcrState::Free);
        bank.release_to_quote(h1, CpuId(1)).unwrap();
        bank.platform_reset();
        assert_eq!(bank.free_count(), 4);
        assert_eq!(bank.state(h1).unwrap(), SePcrState::Free);
    }

    #[test]
    fn concurrent_home_shard_allocations_are_interleaving_independent() {
        use std::sync::Arc;

        // One slot per CPU, one shard per CPU: every thread must land in
        // its own home shard no matter how the OS schedules them.
        let bank = Arc::new(ShardedSePcrBank::new(16, 16));
        let handles: Vec<_> = (0..16u16)
            .map(|cpu| {
                let bank = Arc::clone(&bank);
                std::thread::spawn(move || bank.allocate(&m(b"pal"), CpuId(cpu)).unwrap())
            })
            .collect();
        for (cpu, t) in handles.into_iter().enumerate() {
            let h = t.join().unwrap();
            assert_eq!(h, SePcrHandle(cpu as u16), "cpu {cpu} left its home shard");
        }
        assert_eq!(bank.free_count(), 0);
    }

    #[test]
    fn arbiter_grant_order_matches_the_event_ordered_lock() {
        // Drive both arbiters through the same pseudorandom schedule of
        // request/grant/release steps and demand identical grant streams.
        let mut sharded = ShardedTpmArbiter::new();
        let mut reference = EventOrderedTpmLock::new();
        let mut sharded_grants = Vec::new();
        let mut reference_grants = Vec::new();
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
                    sharded.request(at, cpu);
                    reference.request(at, cpu);
                }
                1 => {
                    let s = sharded.grant().map(|g| g.cpu);
                    let r = reference.grant();
                    assert_eq!(s, r);
                    sharded_grants.extend(s);
                    reference_grants.extend(r);
                }
                _ => {
                    if let Some(h) = sharded.holder() {
                        assert_eq!(reference.holder(), Some(h));
                        sharded.release(h).unwrap();
                        reference.release(h).unwrap();
                    }
                }
            }
            assert_eq!(sharded.holder(), reference.holder());
            assert_eq!(sharded.waiting(), reference.waiting());
        }
        assert_eq!(sharded_grants, reference_grants);
        assert!(!sharded_grants.is_empty(), "schedule exercised no grants");
    }

    #[test]
    fn arbiter_reports_request_stamps_and_dedupes_lanes() {
        let mut arb = ShardedTpmArbiter::new();
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
}
