//! One-bit bytecode mutation sweep: the measured identity of a VM PAL
//! is the serialized program, so *every* single-bit flip of the image is
//! a different piece of code to the attestation machinery.
//!
//! One honest engine session runs the genuine bytecode and emits a wire
//! quote. For each of the image's bits, the flipped image must
//!
//! * hash to a different expected measurement chain,
//! * fail platform-side verification of the honest quote with
//!   [`VerifyError::MeasurementMismatch`], and
//! * be rejected by a [`VerifierService`] that trusts (only) the flipped
//!   build, with the typed [`RejectReason::MeasurementMismatch`] — the
//!   honest platform provably did not run the mutant.
//!
//! The genuine image, of course, verifies on both paths.

use minimal_tcb::core::{
    BatchPolicy, ConcurrentJob, Program, SecurePlatform, SessionEngine, SessionResult, Slaunch,
    Verifier, VerifyError,
};
use minimal_tcb::crypto::{Sha1, Sha1Digest};
use minimal_tcb::fleet::{KeyVault, RejectReason, TcbInfo, TcbStatus, VerifierService};
use minimal_tcb::hw::Platform;
use minimal_tcb::pals::vm::{rootkit_image, vm_rootkit};
use minimal_tcb::tpm::Quote;

const SERVICE: &str = "rootkit-detector";

/// Runs the genuine VM rootkit detector once through the engine on
/// vault platform 0 and returns its wire quote (nonce `0u64`, the
/// engine's job-index convention).
fn honest_wire(kernel: &[u8]) -> Vec<u8> {
    let platform = SecurePlatform::with_tpm(Platform::recommended(2), KeyVault::global().tpm(0));
    let mut engine = SessionEngine::<Slaunch>::new(platform, 1).expect("pool fits platform");
    let batch = vec![ConcurrentJob::new(
        Box::new(vm_rootkit(&[kernel])),
        kernel.to_vec(),
    )];
    let out = engine
        .run(batch, &BatchPolicy::plain())
        .expect("honest batch runs");
    match &out.sessions[0] {
        SessionResult::Quoted { result, quote, .. } => {
            assert_eq!(result.output, vec![1], "the genuine kernel is clean");
            quote.to_bytes()
        }
        other => panic!("honest session did not quote: {other:?}"),
    }
}

/// A fresh verifier trusting exactly one build of the detector.
fn service_for(image: &[u8], extends: &[Sha1Digest]) -> VerifierService {
    let vault = KeyVault::global();
    let mut v = VerifierService::new(vault.ca_public());
    v.trust(SERVICE, image, extends);
    v.ingest_tcb(TcbInfo::new(1).with_status(Sha1::digest(image), TcbStatus::UpToDate))
        .expect("fresh verifier accepts any table");
    v.enroll(vault.certificate(0));
    v
}

#[test]
fn every_single_bit_flip_changes_identity_and_is_rejected_typed() {
    let kernel = b"mutation sweep kernel".to_vec();
    let image = rootkit_image(&[&kernel]);
    let extends = [Sha1::digest(&kernel)];
    let nonce = 0u64.to_le_bytes();

    let wire = honest_wire(&kernel);
    let quote = Quote::from_bytes(&wire).expect("own wire parses");
    let verifier = Verifier::new(KeyVault::global().tpm(0).aik_public().clone());

    // The genuine build verifies on both the platform-side verifier and
    // the remote service.
    verifier
        .verify_sepcr_quote(&quote, &nonce, &image, &extends)
        .expect("honest quote matches the genuine bytecode");
    let mut genuine = service_for(&image, &extends);
    genuine.challenge(0, &nonce, 0);
    let att = genuine.verify(0, &wire, 0).result.expect("honest accepted");
    assert_eq!(att.service, SERVICE);

    // Every mutant is different code: different chain, typed rejection
    // on both verification paths.
    let genuine_chain = Verifier::expected_chain(&image, &extends);
    for byte in 0..image.len() {
        for bit in 0..8 {
            let mut flipped = image.clone();
            flipped[byte] ^= 1 << bit;

            assert_ne!(
                Verifier::expected_chain(&flipped, &extends),
                genuine_chain,
                "bit {bit} of byte {byte}: chain collision"
            );
            assert_eq!(
                verifier.verify_sepcr_quote(&quote, &nonce, &flipped, &extends),
                Err(VerifyError::MeasurementMismatch),
                "bit {bit} of byte {byte}: platform verifier accepted the mutant"
            );

            let mut v = service_for(&flipped, &extends);
            v.challenge(0, &nonce, 0);
            assert_eq!(
                v.verify(0, &wire, 0).result.unwrap_err(),
                RejectReason::MeasurementMismatch,
                "bit {bit} of byte {byte}: verifier service accepted the mutant"
            );
        }
    }
}

#[test]
fn mutants_never_alias_the_genuine_program() {
    // A flipped image either fails to parse or round-trips to exactly
    // its own (mutated) bytes — serialization is canonical, so no two
    // distinct images can decode to the same executed program.
    let image = rootkit_image(&[b"alias kernel"]);
    let mut parsed = 0u32;
    for byte in 0..image.len() {
        for bit in 0..8 {
            let mut flipped = image.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(program) = Program::parse(&flipped) {
                assert_eq!(
                    program.serialize(),
                    flipped,
                    "bit {bit} of byte {byte}: non-canonical decode"
                );
                parsed += 1;
            }
        }
    }
    assert!(parsed > 0, "some mutants should still parse");
}
