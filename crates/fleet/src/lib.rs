//! # sea-fleet
//!
//! Fleet-scale attestation for the minimal-TCB reproduction of McCune
//! et al., *"How Low Can You Go?"* (ASPLOS 2008): a sharded fleet of
//! simulated platforms behind a deterministic dispatcher, checked by a
//! standalone **remote verifier service**.
//!
//! The paper's External Verification property (§3.1) is an argument
//! about *two* parties — the platform that quotes and the remote party
//! that decides. The rest of the workspace simulates the platform side
//! in depth; this crate builds the relying-party side as a genuinely
//! separate trust domain and then scales both to a fleet:
//!
//! * [`verifier`] — the remote verifier: wire-quote parsing, AIK
//!   certificate-chain walking (with a session-ticket cache), quote
//!   signature verification, nonce freshness, measurement-chain replay,
//!   and a TCB-status policy verdict. The module imports **only
//!   `sea_crypto` and `std`** — its view of a quote is the canonical
//!   wire bytes, never a platform struct (`scripts/ci.sh` greps to keep
//!   it that way).
//! * [`cert`] — privacy-CA certificates binding an AIK to a platform.
//! * [`tcb`] — the versioned TCB-info table and composable acceptance
//!   policy (`UpToDate` / `OutOfDate` / `Revoked`).
//! * [`vault`] — process-cached deterministic key material (now with
//!   AIK *generations* for rotation) so a 1000-platform fleet does not
//!   pay RSA keygen per run.
//! * [`policy`] — the client-side request lifecycle policy
//!   ([`FleetPolicy`]: bounded attempts, per-attempt timeout,
//!   exponential backoff) and the typed terminal [`RequestFate`].
//! * [`churn`] — seeded platform churn and adversarial traffic
//!   ([`ChurnPlan`]): network faults via `sea_hw::NetPlan`, mid-sweep
//!   reboots, certificate rotation + re-enrollment, staged TCB pushes,
//!   and replay / stale-nonce / bit-flip / forged-cert wires.
//! * [`fleet`] — the fleet itself: per-request platform assignment via
//!   `sea_os::Dispatcher`, sharded execution of per-platform
//!   `SessionEngine`s, an `EventQueue` merge of completions, and the
//!   verifier as a single queueing server in virtual time driving each
//!   request's lifecycle to a typed fate. The whole pipeline is a pure
//!   function of its configuration: [`FleetOutcome`] is byte-identical
//!   across shard counts, dispatch orders and submission permutations
//!   — with or without churn.
//!
//! # Example
//!
//! ```
//! use sea_fleet::{run_fleet, FleetConfig};
//!
//! let out = run_fleet(&FleetConfig::new(2, 4));
//! assert_eq!(out.accepted, 4);
//! // One certificate walk per platform; the rest hit session tickets.
//! assert_eq!(out.cert_walks, 2);
//! assert_eq!(out.ticket_hits, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod churn;
pub mod fleet;
pub mod policy;
pub mod tcb;
pub mod vault;
pub mod verifier;

pub use cert::AikCert;
pub use churn::{AdversaryKind, ChurnPlan, TcbPush};
pub use fleet::{
    run_fleet, run_fleet_with_obs, run_fleet_with_submission, service_image, AdversaryOutcome,
    FleetConfig, FleetOutcome, RequestOutcome, FLEET_SERVICE, NETWORK_RTT_NS,
};
pub use policy::{FleetPolicy, RequestFate};
pub use tcb::{TcbInfo, TcbPolicy, TcbRollout, TcbStatus, TcbVerdict};
pub use vault::KeyVault;
pub use verifier::{
    expected_chain, parse_wire, Attestation, MissingKind, ParsedQuote, ParsedSource, RejectReason,
    Verdict, VerifierService, VerifierStats,
};
