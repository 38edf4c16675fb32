//! Host-clock spans and counters, recorded from the benchmark's side of
//! each layer boundary, and the counting allocator that charges every
//! allocated byte to the innermost open span.
//!
//! Spans are kept in memory (name, start, end, parent, round id) and
//! written out once, at exit, as a Chrome trace-event file. A span's
//! self time is its duration minus the durations of its children; the
//! workloads run on one OS thread, so children nest strictly.
//!
//! Nothing is recorded while tracing is disabled: [`span`] then only
//! runs its closure, and the allocator only reads one atomic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use sea_bench::json::Json;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `KeyVault::tpm` and `KeyVault::certificate`.
    VaultTpm,
    /// `VerifierService::new`, `trust`, `ingest_tcb` and `enroll`.
    VerifierSetup,
    /// `SecurePlatform::with_tpm`.
    PlatformBuild,
    /// The explicit drop of an engine and its platform.
    PlatformDrop,
    /// `SessionEngine::new`.
    EngineNew,
    /// `SessionEngine::run`.
    EngineRun,
    /// One `PalLogic::run` call, through the benchmark's wrapper.
    PalsRun,
    /// `PalCtx::seal` inside the benchmark's own PAL closure.
    TpmSeal,
    /// `VerifierService::challenge`, `Quote::to_bytes` and `verify`.
    FleetVerify,
}

/// Number of [`Span`] kinds.
pub const SPANS: usize = 9;

impl Span {
    /// Every span kind, in report order.
    pub const ALL: [Span; SPANS] = [
        Span::VaultTpm,
        Span::VerifierSetup,
        Span::PlatformBuild,
        Span::PlatformDrop,
        Span::EngineNew,
        Span::EngineRun,
        Span::PalsRun,
        Span::TpmSeal,
        Span::FleetVerify,
    ];

    /// The span's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Span::VaultTpm => "fleet.vault_tpm",
            Span::VerifierSetup => "fleet.verifier_setup",
            Span::PlatformBuild => "hw.platform_build",
            Span::PlatformDrop => "hw.platform_drop",
            Span::EngineNew => "core.engine_new",
            Span::EngineRun => "core.engine_run",
            Span::PalsRun => "pals.run",
            Span::TpmSeal => "tpm.seal",
            Span::FleetVerify => "fleet.verify",
        }
    }
}

/// A count taken at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// VM instructions retired (`VmStats` delta).
    VmRetired,
    /// VM translation blocks executed.
    VmBlocksExecuted,
    /// VM translation blocks decoded.
    VmBlocksDecoded,
    /// VM dispatches served by a chain edge.
    VmChainHits,
    /// Verifier certificate-chain walks.
    CertWalks,
    /// Verifier session-ticket hits.
    TicketHits,
    /// Wires the verifier checked.
    Verifies,
    /// Wires the verifier rejected.
    Rejected,
    /// Sessions the engine ran.
    Sessions,
    /// Sessions that ended `Quoted`.
    Quoted,
    /// Sessions that ended `Killed`.
    Killed,
    /// Sessions that ended `Degraded`.
    Degraded,
    /// Platform resets survived.
    Resets,
    /// Session keys restored from the journal.
    Committed,
    /// Session keys relaunched after a reset.
    Relaunched,
    /// Virtual ns spent sealing journal checkpoints.
    JournalVirtNs,
    /// Virtual ns spent on reboots and journal unsealing.
    RecoveryVirtNs,
    /// Quoted results whose PAL never ran in the batch that returned
    /// them (a journal restored from an earlier batch).
    StaleRestores,
}

/// Number of [`Counter`] kinds.
pub const COUNTERS: usize = 18;

/// Accumulated span and counter totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Self time per span kind, ns.
    pub self_ns: [u64; SPANS],
    /// Closed spans per kind.
    pub calls: [u64; SPANS],
    /// Bytes allocated while each kind was the innermost open span.
    pub alloc_bytes: [u64; SPANS],
    /// Counter values, indexed by [`Counter`].
    pub counters: [u64; COUNTERS],
}

impl Totals {
    /// Value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
struct Record {
    kind: Span,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: Option<u64>,
}

struct Open {
    id: usize,
    kind: Span,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    epoch: Option<Instant>,
    stack: Vec<Open>,
    records: Vec<Record>,
    totals: Totals,
    round: Option<u64>,
}

static TRACER: Mutex<Tracer> = Mutex::new(Tracer {
    epoch: None,
    stack: Vec::new(),
    records: Vec::new(),
    totals: Totals {
        self_ns: [0; SPANS],
        calls: [0; SPANS],
        alloc_bytes: [0; SPANS],
        counters: [0; COUNTERS],
    },
    round: None,
});

static ENABLED: AtomicBool = AtomicBool::new(false);

/// `1 + kind` of the innermost open span, or 0: where the allocator
/// charges bytes.
static CURRENT: AtomicUsize = AtomicUsize::new(0);

static ALLOC_BYTES: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];

fn tracer() -> MutexGuard<'static, Tracer> {
    TRACER
        .lock()
        .expect("tracer state stays valid: no code panics while holding it")
}

/// Turns recording on or off. Only called between rounds, with no span
/// open.
pub fn set_enabled(on: bool) {
    let mut t = tracer();
    assert!(t.stack.is_empty(), "tracing toggled inside a span");
    t.epoch.get_or_insert_with(Instant::now);
    ENABLED.store(on, Relaxed);
}

/// Tags spans opened from now on with round id `round` (`None`: setup).
pub fn set_round(round: Option<u64>) {
    tracer().round = round;
}

/// Runs `f` inside a span of kind `kind`.
pub fn span<T>(kind: Span, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Relaxed) {
        return f();
    }
    enter(kind);
    let out = f();
    exit();
    out
}

fn enter(kind: Span) {
    CURRENT.store(0, Relaxed);
    let mut t = tracer();
    let epoch = *t.epoch.get_or_insert_with(Instant::now);
    let id = t.records.len();
    let parent = t.stack.last().map(|o| o.id);
    let round = t.round;
    let start = Instant::now();
    t.records.push(Record {
        kind,
        start_ns: (start - epoch).as_nanos() as u64,
        end_ns: 0,
        parent,
        round,
    });
    t.stack.push(Open {
        id,
        kind,
        start,
        child_ns: 0,
    });
    drop(t);
    CURRENT.store(kind as usize + 1, Relaxed);
}

fn exit() {
    let end = Instant::now();
    CURRENT.store(0, Relaxed);
    let mut t = tracer();
    let open = t.stack.pop().expect("span exit matches an enter");
    let dur = (end - open.start).as_nanos() as u64;
    let k = open.kind as usize;
    t.totals.self_ns[k] += dur.saturating_sub(open.child_ns);
    t.totals.calls[k] += 1;
    let epoch = t.epoch.expect("set at enter");
    t.records[open.id].end_ns = (end - epoch).as_nanos() as u64;
    let resume = match t.stack.last_mut() {
        Some(parent) => {
            parent.child_ns += dur;
            parent.kind as usize + 1
        }
        None => 0,
    };
    drop(t);
    CURRENT.store(resume, Relaxed);
}

/// Adds `n` to counter `c` while tracing is enabled.
pub fn count(c: Counter, n: u64) {
    if ENABLED.load(Relaxed) {
        tracer().totals.counters[c as usize] += n;
    }
}

/// Returns the totals accumulated since the last call and zeroes them.
pub fn take_totals() -> Totals {
    let mut t = tracer();
    let mut totals = std::mem::take(&mut t.totals);
    for (k, bytes) in ALLOC_BYTES.iter().enumerate() {
        totals.alloc_bytes[k] = bytes.swap(0, Relaxed);
    }
    totals
}

/// Writes every recorded span as a Chrome trace-event file (`ts` and
/// `dur` in µs; `args` carry the span id, parent id and round id).
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    let t = tracer();
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
    let events = t
        .records
        .iter()
        .enumerate()
        .map(|(id, r)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.kind.name().into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), us(r.start_ns)),
                ("dur".into(), us(r.end_ns.saturating_sub(r.start_ns))),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::UInt(id as u64)),
                        ("parent".into(), opt(r.parent.map(|p| p as u64))),
                        ("round".into(), opt(r.round)),
                    ]),
                ),
            ])
        })
        .collect();
    drop(t);
    let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render())
}

/// The benchmark binary's global allocator: [`System`], plus a count of
/// the bytes each span kind allocates.
pub struct CountingAlloc;

fn charge(bytes: usize) {
    let k = CURRENT.load(Relaxed);
    if k != 0 {
        ALLOC_BYTES[k - 1].fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, since
        // every allocation of this allocator forwards to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
