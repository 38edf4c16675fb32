//! The durable engine's checkpoint: an append-only log of terminal
//! records in TPM NVRAM, authenticated by a small sealed head.
//!
//! A durable batch ([`crate::SessionEngine::run`] under a policy with
//! [`crate::BatchPolicy::with_durability`]) journals each terminal
//! session — **Quoted** or **Degraded**, with its complete result
//! (output, cost report, quote bytes) — as one record appended to the
//! NVRAM log at [`JOURNAL_LOG_NV_INDEX`] ("SJLG"). A running SHA-256
//! absorbs each record as it is appended, so a commit costs its own
//! record, never the length of the journal before it.
//!
//! At each seal (every commit, or every group-th under
//! [`crate::BatchPolicy::with_group_commit`]) the engine `TPM_Seal`s a
//! fixed-size **head** to the empty PCR selection (so a reboot can never
//! invalidate the blob) and stores it at [`JOURNAL_NV_INDEX`] ("SJNL").
//! The head is [`JOURNAL_HEAD_LEN`] bytes: the magic `SJHDv1`, the log length
//! it covers (u64, big-endian) and the SHA-256 of that log prefix. The
//! seal's payload is the same size at the first commit and the
//! thousandth (the Memoir pattern: seal a digest, keep the history
//! outside the seal).
//!
//! After a power loss, recovery unseals the head, checks that the log
//! still holds the prefix the head covers, hashes that prefix against
//! the sealed digest and parses its records, each of which rebuilds its
//! [`SessionResult`] byte for byte. Log bytes past the sealed length —
//! commits group commit had buffered when the power failed — are
//! dropped, and those sessions relaunch with every session that has no
//! record.
//!
//! Killed sessions are deliberately **not** journaled. A kill is a pure
//! function of the fault plan and the session key, so relaunching a
//! killed session after a reset re-derives the identical
//! [`SessionResult::Killed`] — cheaper and safer than serializing
//! arbitrary error values into NVRAM. (The crash-point property test
//! proves the equivalence.)

use std::collections::BTreeMap;

use sea_crypto::Sha256;
use sea_hw::{CpuId, SimDuration};
use sea_tpm::{Nvram, Quote, SealedBlob, Tpm};

use crate::concurrent::{JobResult, SessionResult};
use crate::error::SeaError;
use crate::report::SessionReport;

/// TPM NVRAM index of the sealed journal head ("SJNL" in ASCII). One
/// head lives here at a time: each durable batch deletes it before its
/// first job, and each seal overwrites it with a head covering the whole
/// log at [`JOURNAL_LOG_NV_INDEX`] so far.
pub const JOURNAL_NV_INDEX: u32 = 0x534a_4e4c;

/// TPM NVRAM index of the append-only journal log ("SJLG" in ASCII):
/// one encoded terminal record per journaled commit. Each durable batch
/// deletes it with the head; recovery truncates it to the length the
/// sealed head covers.
pub const JOURNAL_LOG_NV_INDEX: u32 = 0x534a_4c47;

/// Magic prefix of the sealed head.
const HEAD_MAGIC: &[u8; 6] = b"SJHDv1";

/// Size of the sealed head's plaintext: magic, covered log length and
/// the SHA-256 of that prefix.
pub const JOURNAL_HEAD_LEN: usize = HEAD_MAGIC.len() + 8 + 32;

/// Record tag of a quoted terminal.
const TAG_QUOTED: u8 = 1;
/// Record tag of a degraded terminal.
const TAG_DEGRADED: u8 = 2;

/// The terminal records of one verified checkpoint, keyed by session
/// (= batch index).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionJournal {
    entries: BTreeMap<u64, SessionResult>,
}

impl SessionJournal {
    /// An empty journal (fresh batch, or nothing recovered from NVRAM).
    pub fn new() -> Self {
        SessionJournal::default()
    }

    /// Number of sessions with a terminal record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no session has a terminal record.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The restored result for session `key`, if it has a record.
    pub fn entry(&self, key: u64) -> Option<&SessionResult> {
        self.entries.get(&key)
    }

    /// The committed [`SessionResult`]s, in key order.
    pub fn into_results(self) -> Vec<(u64, SessionResult)> {
        self.entries.into_iter().collect()
    }

    /// Parses a log prefix: whole records back to back, each session at
    /// most once.
    fn decode(bytes: &[u8]) -> Result<Self, SeaError> {
        let mut r = Reader { bytes, pos: 0 };
        let mut entries = BTreeMap::new();
        while r.pos < bytes.len() {
            let (key, result) = r.record()?;
            if entries.insert(key, result).is_some() {
                return Err(SeaError::JournalCorrupt("duplicate session key"));
            }
        }
        Ok(SessionJournal { entries })
    }
}

/// The writer's side of the NVRAM log: its length and the running
/// digest of its bytes, so sealing a commit never rereads the log.
#[derive(Debug, Clone, Default)]
pub(crate) struct JournalLog {
    hasher: Sha256,
    len: usize,
    /// Reused encoding buffer for one record.
    record: Vec<u8>,
}

impl JournalLog {
    /// The log's length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends session `key`'s terminal record to the NVRAM log and
    /// absorbs it into the running digest. A kill writes nothing (see
    /// the module docs); returns whether a record was appended.
    pub(crate) fn append(&mut self, nvram: &mut Nvram, key: u64, result: &SessionResult) -> bool {
        self.record.clear();
        if !encode_record(&mut self.record, key, result) {
            return false;
        }
        self.hasher.update_bytes(&self.record);
        nvram.append_blob(JOURNAL_LOG_NV_INDEX, &self.record);
        self.len += self.record.len();
        true
    }

    /// The head plaintext covering every record appended so far.
    pub(crate) fn head(&self) -> [u8; JOURNAL_HEAD_LEN] {
        let mut head = [0u8; JOURNAL_HEAD_LEN];
        let (magic, rest) = head.split_at_mut(HEAD_MAGIC.len());
        magic.copy_from_slice(HEAD_MAGIC);
        let (len, digest) = rest.split_at_mut(8);
        len.copy_from_slice(&(self.len as u64).to_be_bytes());
        digest.copy_from_slice(&self.hasher.clone().finalize_fixed());
        head
    }
}

/// A verified checkpoint, as recovery opens it.
pub(crate) struct Checkpoint {
    /// The records the sealed head covers.
    pub(crate) journal: SessionJournal,
    /// The writer, resumed at the end of the verified prefix.
    pub(crate) log: JournalLog,
    /// Virtual cost of the `TPM_Unseal` that opened the head.
    pub(crate) unseal_cost: SimDuration,
}

/// Opens the checkpoint in `tpm`'s NVRAM: unseals the head, checks that
/// the log holds the prefix it covers and that the prefix hashes to the
/// sealed digest, and parses its records. `None` when no head is
/// stored. Leaves NVRAM as it is.
pub(crate) fn open_checkpoint(tpm: &mut Tpm) -> Result<Option<Checkpoint>, SeaError> {
    let Some(blob) = tpm.nvram().read_blob(JOURNAL_NV_INDEX) else {
        return Ok(None);
    };
    let blob = SealedBlob::from_bytes(blob)?;
    let opened = tpm.unseal(&blob)?;
    let mut head = Reader {
        bytes: &opened.value,
        pos: 0,
    };
    if head.take(HEAD_MAGIC.len())? != HEAD_MAGIC {
        return Err(SeaError::JournalCorrupt("bad head magic"));
    }
    let sealed_len = usize::try_from(head.u64()?)
        .map_err(|_| SeaError::JournalCorrupt("sealed log length out of range"))?;
    let digest = head.take(32)?;
    if head.pos != opened.value.len() {
        return Err(SeaError::JournalCorrupt("trailing bytes after the head"));
    }
    let prefix = tpm
        .nvram()
        .read_blob(JOURNAL_LOG_NV_INDEX)
        .unwrap_or_default()
        .get(..sealed_len)
        .ok_or(SeaError::JournalCorrupt("log shorter than its sealed head"))?;
    let mut hasher = Sha256::new();
    hasher.update_bytes(prefix);
    if hasher.clone().finalize_fixed() != digest {
        return Err(SeaError::JournalCorrupt(
            "log does not match its sealed digest",
        ));
    }
    Ok(Some(Checkpoint {
        journal: SessionJournal::decode(prefix)?,
        log: JournalLog {
            hasher,
            len: sealed_len,
            record: Vec::new(),
        },
        unseal_cost: opened.elapsed,
    }))
}

/// Reads the durable engine's checkpoint from `tpm`'s NVRAM — the
/// records recovery would restore after a power loss right now, with
/// any log tail past the sealed head ignored. `None` when no head is
/// stored (no seal since the batch started). Costs one `TPM_Unseal`;
/// NVRAM is not modified.
///
/// # Errors
///
/// [`SeaError::Tpm`] when the head blob or a stored quote does not
/// parse or the head does not unseal; [`SeaError::JournalCorrupt`] when
/// the head is malformed, the log is shorter than the head covers or
/// does not match its digest, or a record is malformed.
pub fn read_checkpoint(tpm: &mut Tpm) -> Result<Option<SessionJournal>, SeaError> {
    Ok(open_checkpoint(tpm)?.map(|c| c.journal))
}

/// Encodes session `key`'s terminal record into `out`: the key, a tag,
/// then the result's fields. Returns `false`, writing nothing, for a
/// kill.
fn encode_record(out: &mut Vec<u8>, key: u64, result: &SessionResult) -> bool {
    match result {
        SessionResult::Quoted {
            result,
            quote,
            retries,
            recovery_cost,
        } => {
            out.extend_from_slice(&key.to_be_bytes());
            out.push(TAG_QUOTED);
            put_bytes(out, &result.output);
            put_report(out, &result.report);
            out.extend_from_slice(&result.quote_cost.as_ns().to_be_bytes());
            out.extend_from_slice(&result.cpu.0.to_be_bytes());
            put_bytes(out, &quote.to_bytes());
            out.extend_from_slice(&retries.to_be_bytes());
            out.extend_from_slice(&recovery_cost.as_ns().to_be_bytes());
        }
        SessionResult::Degraded { output, report, .. } => {
            out.extend_from_slice(&key.to_be_bytes());
            out.push(TAG_DEGRADED);
            put_bytes(out, output);
            put_report(out, report);
        }
        SessionResult::Killed { .. } => return false,
    }
    true
}

fn put_bytes(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_be_bytes());
    out.extend_from_slice(field);
}

fn put_report(out: &mut Vec<u8>, report: &SessionReport) {
    for d in [
        report.late_launch,
        report.seal,
        report.unseal,
        report.quote,
        report.tpm_other,
        report.context_switch,
        report.pal_work,
    ] {
        out.extend_from_slice(&d.as_ns().to_be_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SeaError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SeaError::JournalCorrupt("truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SeaError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SeaError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, SeaError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, SeaError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn duration(&mut self) -> Result<SimDuration, SeaError> {
        Ok(SimDuration::from_ns(self.u64()?))
    }

    fn field(&mut self) -> Result<&'a [u8], SeaError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn report(&mut self) -> Result<SessionReport, SeaError> {
        Ok(SessionReport {
            late_launch: self.duration()?,
            seal: self.duration()?,
            unseal: self.duration()?,
            quote: self.duration()?,
            tpm_other: self.duration()?,
            context_switch: self.duration()?,
            pal_work: self.duration()?,
        })
    }

    /// One record written by [`encode_record`].
    fn record(&mut self) -> Result<(u64, SessionResult), SeaError> {
        let key = self.u64()?;
        let result = match self.u8()? {
            TAG_QUOTED => SessionResult::Quoted {
                result: JobResult {
                    output: self.field()?.to_vec(),
                    report: self.report()?,
                    quote_cost: self.duration()?,
                    cpu: CpuId(self.u16()?),
                },
                quote: Quote::from_bytes(self.field()?)?,
                retries: self.u32()?,
                recovery_cost: self.duration()?,
            },
            TAG_DEGRADED => SessionResult::Degraded {
                job: usize::try_from(key)
                    .map_err(|_| SeaError::JournalCorrupt("session key out of range"))?,
                output: self.field()?.to_vec(),
                report: self.report()?,
            },
            _ => return Err(SeaError::JournalCorrupt("unknown record tag")),
        };
        Ok((key, result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SessionReport {
        SessionReport {
            late_launch: SimDuration::from_us(10),
            pal_work: SimDuration::from_us(40),
            ..SessionReport::default()
        }
    }

    fn tpm() -> Tpm {
        Tpm::new(
            sea_hw::TpmKind::Infineon,
            sea_tpm::KeyStrength::Demo512,
            b"journal test",
        )
    }

    fn quoted(output: &[u8]) -> SessionResult {
        // A structurally valid quote via the TPM itself.
        let wire = tpm()
            .quote(b"nonce", &[sea_tpm::PcrIndex(17)])
            .unwrap()
            .value;
        SessionResult::Quoted {
            result: JobResult {
                output: output.to_vec(),
                report: report(),
                quote_cost: SimDuration::from_us(880),
                cpu: CpuId(2),
            },
            quote: Quote::from_wire(&wire).expect("TPM emits well-formed wire"),
            retries: 1,
            recovery_cost: SimDuration::from_us(70),
        }
    }

    fn degraded(job: usize) -> SessionResult {
        SessionResult::Degraded {
            job,
            output: b"slow path".to_vec(),
            report: report(),
        }
    }

    fn seal_head(tpm: &mut Tpm, log: &JournalLog) {
        let sealed = tpm.seal(&log.head(), &[]).unwrap().value;
        tpm.nvram_mut()
            .store_blob(JOURNAL_NV_INDEX, &sealed.to_bytes());
    }

    #[test]
    fn records_roundtrip_and_kills_are_not_journaled() {
        let mut tpm = tpm();
        let mut log = JournalLog::default();
        let q = quoted(b"alpha");
        assert!(log.append(tpm.nvram_mut(), 2, &q));
        assert!(!log.append(
            tpm.nvram_mut(),
            5,
            &SessionResult::Killed {
                job: 5,
                attempts: 5,
                error: SeaError::NoTpm,
                wasted: SimDuration::from_us(1),
            },
        ));
        assert!(log.append(tpm.nvram_mut(), 7, &degraded(7)));
        assert_eq!(
            tpm.nvram().read_blob(JOURNAL_LOG_NV_INDEX).map(<[u8]>::len),
            Some(log.len())
        );
        seal_head(&mut tpm, &log);

        let opened = open_checkpoint(&mut tpm).unwrap().expect("head stored");
        assert_eq!(opened.log.len(), log.len());
        assert_eq!(opened.log.head(), log.head());
        let journal = opened.journal;
        assert_eq!(journal.len(), 2);
        assert!(journal.entry(5).is_none());
        assert_eq!(journal.into_results(), vec![(2, q), (7, degraded(7))]);
    }

    #[test]
    fn no_head_reads_as_no_checkpoint() {
        let mut tpm = tpm();
        let mut log = JournalLog::default();
        log.append(tpm.nvram_mut(), 1, &degraded(1));
        assert_eq!(read_checkpoint(&mut tpm).unwrap(), None);
    }

    #[test]
    fn corrupt_records_are_rejected_not_panicked() {
        let mut good = Vec::new();
        assert!(encode_record(&mut good, 1, &degraded(1)));
        assert_eq!(SessionJournal::decode(&good).unwrap().len(), 1);
        // Truncation mid-record.
        assert!(matches!(
            SessionJournal::decode(&good[..good.len() - 1]),
            Err(SeaError::JournalCorrupt("truncated"))
        ));
        // Unknown tag.
        let mut bad_tag = good.clone();
        bad_tag[8] = 9;
        assert!(matches!(
            SessionJournal::decode(&bad_tag),
            Err(SeaError::JournalCorrupt("unknown record tag"))
        ));
        // One session committed twice.
        let twice = [good.as_slice(), good.as_slice()].concat();
        assert!(matches!(
            SessionJournal::decode(&twice),
            Err(SeaError::JournalCorrupt("duplicate session key"))
        ));
        // The empty log is the empty journal.
        assert!(SessionJournal::decode(&[]).unwrap().is_empty());
    }
}
