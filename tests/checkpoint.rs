//! The durable engine's checkpoint — a sealed, fixed-size head over an
//! append-only NVRAM log — read back as untrusted bytes.
//!
//! * Totality: every truncation of the log, every bit flip of the log
//!   and of the serialized sealed head, and heads with a wrong magic or
//!   a wrong length make [`read_checkpoint`] return a typed error, never
//!   panic.
//! * Commits group commit left unsealed (the log tail past the head) do
//!   not restore.
//! * Each durable batch starts an empty log.
//! * Regression pin against a whole-journal seal: the head is the same
//!   size after an 8-job and a 64-job batch, and the log grows by one
//!   encoded record per journaled commit.

use sea_core::engine::read_checkpoint;
use sea_core::{
    BatchPolicy, ConcurrentJob, EnhancedSea, FnPal, PalOutcome, RetryPolicy, SeaError,
    SecurePlatform, SessionEngine, SessionJournal, SessionResult, Slaunch, JOURNAL_HEAD_LEN,
    JOURNAL_LOG_NV_INDEX, JOURNAL_NV_INDEX,
};
use sea_hw::{Platform, ResetPlan};
use sea_tpm::{KeyStrength, SealedBlob, Tpm};

fn engine() -> SessionEngine<Slaunch> {
    let platform = SecurePlatform::new(
        Platform::recommended(2),
        KeyStrength::Demo512,
        b"checkpoint",
    );
    SessionEngine::new(platform, 1).expect("one worker fits")
}

/// Runs a reset-free durable batch of `jobs` sessions on `engine`, job
/// `i` exiting with `tag` and its index, sealing every `group`-th
/// commit.
fn run_durable(engine: &mut SessionEngine<Slaunch>, jobs: usize, group: usize, tag: u8) {
    let batch = (0..jobs as u64)
        .map(|i| {
            let pal = FnPal::new("ckpt", move |_| {
                Ok(PalOutcome::Exit(
                    [[tag].as_slice(), &i.to_be_bytes()].concat(),
                ))
            });
            ConcurrentJob::new(Box::new(pal), [])
        })
        .collect();
    let out = engine
        .run(
            batch,
            &BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(ResetPlan::reset_free())
                .with_group_commit(group),
        )
        .expect("durable batch runs");
    assert_eq!(out.quoted(), jobs);
}

/// One durable batch on a fresh one-worker engine; returns the runtime
/// whose TPM holds the checkpoint.
fn durable_batch(jobs: usize, group: usize) -> EnhancedSea {
    let mut engine = engine();
    run_durable(&mut engine, jobs, group, 0);
    engine.into_inner()
}

fn tpm(sea: &mut EnhancedSea) -> &mut Tpm {
    sea.platform_mut().tpm_mut().expect("tpm")
}

fn blob(tpm: &Tpm, index: u32) -> Vec<u8> {
    tpm.nvram().read_blob(index).expect("blob stored").to_vec()
}

/// The head's plaintext, opened with the TPM's own unseal.
fn unseal_head(tpm: &mut Tpm) -> Vec<u8> {
    let sealed = SealedBlob::from_bytes(&blob(tpm, JOURNAL_NV_INDEX)).expect("head blob parses");
    tpm.unseal(&sealed).expect("head unseals").value
}

/// Seals `plaintext` as the head, as the engine would.
fn reseal_head(tpm: &mut Tpm, plaintext: &[u8]) {
    let sealed = tpm.seal(plaintext, &[]).expect("seal").value;
    tpm.nvram_mut()
        .store_blob(JOURNAL_NV_INDEX, &sealed.to_bytes());
}

/// The log length the head covers (bytes 6..14 of its plaintext).
fn sealed_len(head: &[u8]) -> usize {
    u64::from_be_bytes(head[6..14].try_into().expect("8 bytes")) as usize
}

fn assert_typed(read: Result<Option<SessionJournal>, SeaError>, case: &str) {
    match read {
        Err(SeaError::JournalCorrupt(_) | SeaError::Tpm(_)) => {}
        other => panic!("{case}: expected a typed error, got {other:?}"),
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_checkpoint_is_a_typed_error() {
    let mut sea = durable_batch(4, 1);
    let tpm = tpm(&mut sea);
    let journal = read_checkpoint(tpm).unwrap().expect("checkpoint");
    assert_eq!(journal.len(), 4);
    let log = blob(tpm, JOURNAL_LOG_NV_INDEX);
    let head_blob = blob(tpm, JOURNAL_NV_INDEX);
    let head = unseal_head(tpm);
    assert_eq!(sealed_len(&head), log.len(), "group 1 seals the whole log");

    for len in 0..log.len() {
        tpm.nvram_mut()
            .store_blob(JOURNAL_LOG_NV_INDEX, &log[..len]);
        assert_typed(read_checkpoint(tpm), &format!("log cut to {len}"));
    }
    for bit in 0..log.len() * 8 {
        let mut bad = log.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        tpm.nvram_mut().store_blob(JOURNAL_LOG_NV_INDEX, &bad);
        assert_typed(read_checkpoint(tpm), &format!("log bit {bit}"));
    }
    tpm.nvram_mut().store_blob(JOURNAL_LOG_NV_INDEX, &log);

    for bit in 0..head_blob.len() * 8 {
        let mut bad = head_blob.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        tpm.nvram_mut().store_blob(JOURNAL_NV_INDEX, &bad);
        assert_typed(read_checkpoint(tpm), &format!("sealed head bit {bit}"));
    }

    // Well-sealed heads whose plaintext lies: a wrong magic, a covered
    // length one past or one short of the log, and a plaintext one
    // byte too long or too short.
    let mut wrong_magic = head.clone();
    wrong_magic[0] ^= 0x20;
    let with_len = |len: usize| {
        let mut h = head.clone();
        h[6..14].copy_from_slice(&(len as u64).to_be_bytes());
        h
    };
    let cases = [
        ("wrong magic", wrong_magic),
        ("length past the log", with_len(log.len() + 1)),
        ("length short of the log", with_len(log.len() - 1)),
        ("length far past the log", with_len(usize::MAX)),
        ("plaintext too long", [head.as_slice(), &[0]].concat()),
        ("plaintext too short", head[..head.len() - 1].to_vec()),
    ];
    for (case, plaintext) in cases {
        reseal_head(tpm, &plaintext);
        assert!(
            matches!(read_checkpoint(tpm), Err(SeaError::JournalCorrupt(_))),
            "{case}"
        );
    }

    // Restored bytes read back as the original checkpoint.
    reseal_head(tpm, &head);
    assert_eq!(read_checkpoint(tpm).unwrap(), Some(journal));
}

#[test]
fn log_tail_past_the_sealed_head_is_not_restored() {
    // Group commit 4, six commits: the head seals the first four; the
    // fifth and sixth sit in the log unsealed when the power fails.
    let mut sea = durable_batch(6, 4);
    let tpm = tpm(&mut sea);
    tpm.reboot();
    let head = unseal_head(tpm);
    let log = blob(tpm, JOURNAL_LOG_NV_INDEX);
    assert!(sealed_len(&head) < log.len(), "the tail is in the log");
    let journal = read_checkpoint(tpm).unwrap().expect("checkpoint");
    assert_eq!(journal.len(), 4);
    for key in 0..4 {
        assert!(journal.entry(key).is_some(), "job {key} restores");
    }
}

#[test]
fn sealed_head_is_fixed_size_and_log_grows_one_record_per_commit() {
    let mut small = durable_batch(8, 1);
    let mut large = durable_batch(64, 1);
    let (small, large) = (tpm(&mut small), tpm(&mut large));
    // The seal's payload does not grow with the journal.
    assert_eq!(unseal_head(small).len(), JOURNAL_HEAD_LEN);
    assert_eq!(unseal_head(large).len(), JOURNAL_HEAD_LEN);
    // Every session's record has the same size here (same output
    // length, same quote shape), so one record per commit means the log
    // is exactly `jobs` records long, and every record decodes once.
    let (small_log, large_log) = (
        blob(small, JOURNAL_LOG_NV_INDEX).len(),
        blob(large, JOURNAL_LOG_NV_INDEX).len(),
    );
    assert_eq!(small_log % 8, 0);
    let record = small_log / 8;
    assert_eq!(large_log, 64 * record);
    assert_eq!(read_checkpoint(small).unwrap().map(|j| j.len()), Some(8));
    assert_eq!(read_checkpoint(large).unwrap().map(|j| j.len()), Some(64));
}

#[test]
fn each_durable_batch_starts_an_empty_log() {
    let mut engine = engine();
    run_durable(&mut engine, 4, 1, 1);
    run_durable(&mut engine, 3, 1, 2);
    let mut sea = engine.into_inner();
    let journal = read_checkpoint(tpm(&mut sea)).unwrap().expect("checkpoint");
    assert_eq!(journal.len(), 3);
    for (key, result) in journal.into_results() {
        let SessionResult::Quoted { result, .. } = result else {
            panic!("job {key} was not quoted");
        };
        assert_eq!(result.output[0], 2, "job {key} restores the second batch");
    }
}
