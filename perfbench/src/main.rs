//! `perfbench`: the host-clock benchmark of the minimal-TCB
//! reproduction.
//!
//! ```text
//! perfbench --workload <fleet_boot|pal_mix|durable_journal> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--trace-out <file>]
//! ```
//!
//! One process sets the workload up, then replays passes of its round
//! schedule (at full size, at least 100 rounds each) until `--seconds`
//! have elapsed, checking every output. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is a separate run that prints the
//! per-layer metrics from spans and counters taken around each call
//! into the crates. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Host timings are calibrated against a reference computation (see
//! `calib`). Set-up time is the median over five set-ups: four of them
//! in child processes of this binary (`--setup-probe`), because the key
//! vault caches its keys for the life of a process.

mod calib;
mod gen;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use sea_bench::json::Json;
use sea_bench::stats::percentile_sorted;
use sea_hw::SimDuration;

use calib::Calibrator;
use trace::{Counter, Span, Totals};
use workloads::{Size, Tally, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups run in child processes for the `setup_s` median.
const SETUP_PROBES: usize = 4;

/// Rounds the set-up runs before timing starts.
const WARM_UP_ROUNDS: usize = 3;

/// Fewest rounds in a full-size pass: enough that a pass's p90 has at
/// least ten samples beyond it.
const MIN_ROUNDS: usize = 100;

const USAGE: &str = "usage: perfbench --workload <fleet_boot|pal_mix|durable_journal> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--trace-out <file>] [--setup-probe]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    trace_out: Option<PathBuf>,
    setup_probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        size: Size::Full,
        trace_out: None,
        setup_probe: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, not {value}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    if args.setup_probe {
        let (_, setup_s) = set_up(&args, start, &mut Tally::default());
        println!("{setup_s}");
        return;
    }
    let report = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args, start)
    };
    report.print(&args);
    exit(if report.correct() { 0 } else { 1 });
}

/// Builds the workload and runs the first `WARM_UP_ROUNDS` rounds of a
/// pass, whose outputs are checked like any other: everything before
/// the first timed round. Returns the workload and the set-up's seconds
/// since `start`, calibrated by the reference samples that follow the
/// warm-up rounds (they see the same cache state as timed rounds do).
fn set_up(args: &Args, start: Instant, tally: &mut Tally) -> (Box<dyn Workload>, f64) {
    let mut w = workloads::build(&args.workload, args.seed, args.size)
        .expect("parse_args admits only known workloads");
    let mut tl = Timeline::new(&*w);
    tl.time(false, || w.begin_pass());
    trace::set_round(Some(0));
    for k in 0..WARM_UP_ROUNDS.min(w.rounds()) {
        tl.time(true, || w.round(k, tally));
    }
    trace::set_round(None);
    tl.time(false, || w.end_pass());
    let raw = start.elapsed() - tl.refs.iter().sum::<Duration>();
    let mut refs: Vec<Duration> = tl
        .refs
        .iter()
        .zip(&tl.is_round)
        .filter_map(|(r, round)| round.then_some(*r))
        .collect();
    let speed = tl.cal.speed(&mut refs);
    (w, raw.as_secs_f64() * speed)
}

/// Scaled set-up times of `SETUP_PROBES` child processes, each from its
/// own start to the end of its set-up.
fn probe_setups(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let size = match args.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--size",
                    size,
                    "--setup-probe",
                ])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .expect("set-up probe starts");
            let text = String::from_utf8_lossy(&out.stdout);
            let secs = text
                .lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok());
            match (out.status.success(), secs) {
                (true, Some(secs)) => secs,
                _ => {
                    eprintln!(
                        "perfbench: set-up probe failed ({}):\n{}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr)
                    );
                    exit(1)
                }
            }
        })
        .collect()
}

/// Host time of every timed segment (pass set-up, round, pass
/// tear-down), each followed by one reference sample.
struct Timeline {
    cal: Calibrator,
    segments: Vec<Duration>,
    refs: Vec<Duration>,
    is_round: Vec<bool>,
}

impl Timeline {
    fn new(w: &dyn Workload) -> Self {
        Timeline {
            cal: Calibrator::new(w.reference()),
            segments: Vec::new(),
            refs: Vec::new(),
            is_round: Vec::new(),
        }
    }

    fn time<T>(&mut self, is_round: bool, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.segments.push(t.elapsed());
        self.refs.push(self.cal.sample());
        self.is_round.push(is_round);
        out
    }

    /// Scaled ms of every segment, and of the rounds alone (sorted).
    fn scaled(&self) -> (Vec<f64>, Vec<f64>) {
        let all = self.cal.scaled_ms(&self.segments, &self.refs);
        let mut rounds: Vec<f64> = all
            .iter()
            .zip(&self.is_round)
            .filter_map(|(ms, round)| round.then_some(*ms))
            .collect();
        rounds.sort_by(f64::total_cmp);
        (all, rounds)
    }
}

/// One pass of the round schedule, timed segment by segment into `tl`;
/// returns the pass's virtual time.
fn run_pass(
    w: &mut dyn Workload,
    tally: &mut Tally,
    next_round: &mut u64,
    tl: &mut Timeline,
) -> SimDuration {
    tl.time(false, || w.begin_pass());
    let mut virt = SimDuration::ZERO;
    for k in 0..w.rounds() {
        *next_round += 1;
        trace::set_round(Some(*next_round));
        virt += tl.time(true, || w.round(k, tally));
    }
    trace::set_round(None);
    tl.time(false, || w.end_pass());
    virt
}

/// Fails the run if a pass's virtual time differs from the first's:
/// every pass replays the same inputs on fresh platforms.
fn check_virt(first: &mut Option<SimDuration>, virt: SimDuration, tally: &mut Tally) {
    match *first {
        None => *first = Some(virt),
        Some(v) if v != virt => tally.fail(format!(
            "virtual time changed between passes: {} ns then {} ns",
            v.as_ns(),
            virt.as_ns()
        )),
        Some(_) => {}
    }
}

struct Report {
    tally: Tally,
    passes: usize,
    rounds_per_pass: usize,
    metrics: Vec<(String, f64, &'static str, &'static str)>,
    /// A line printed under the table (not part of the JSON result).
    note: String,
}

impl Report {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn print(&self, args: &Args) {
        let t = &self.tally;
        println!(
            "perfbench {} seed={} trace={} passes={} rounds/pass={} sessions={} failed={} \
             failed_ratio={} stale_restores={}",
            args.workload,
            args.seed,
            args.trace as u8,
            self.passes,
            self.rounds_per_pass,
            t.attempted,
            t.failed,
            t.failed as f64 / t.attempted.max(1) as f64,
            t.stale,
        );
        for p in &t.problems {
            println!("  FAILED: {p}");
        }
        println!("{:<32} {:>16} {:<6} clock", "metric", "value", "unit");
        for (name, value, unit, clock) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit:<6} {clock}");
        }
        println!("{}", self.note);
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                let entry = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.clone(), Json::Obj(entry))
            })
            .collect();
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(t.attempted)),
            ("failed".into(), Json::UInt(t.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        // The renderer pretty-prints; strings never span lines, so
        // trimming and joining its lines gives the same object on one.
        let line: String = doc.render().lines().map(str::trim).collect();
        println!("{line}");
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: the set-up median, then timed passes until
/// `--seconds` have elapsed. Host timings are scaled to the reference
/// speed (see `calib`); the unscaled figures are printed under the
/// table.
fn untraced_run(args: &Args, start: Instant) -> Report {
    let mut setups = probe_setups(args);
    let mut tally = Tally::default();
    let (mut w, setup_s) = set_up(args, start, &mut tally);
    setups.push(setup_s);
    assert!(
        args.size == Size::Tiny || w.rounds() >= MIN_ROUNDS,
        "a full-size pass has at least {MIN_ROUNDS} rounds"
    );

    let accepted_in_setup = tally.accepted;
    let timed = Instant::now();
    let (mut next_round, mut virt, mut passes) = (0, None, 0);
    let mut tl = Timeline::new(&*w);
    while passes == 0 || timed.elapsed().as_secs() < args.seconds {
        let v = run_pass(&mut *w, &mut tally, &mut next_round, &mut tl);
        check_virt(&mut virt, v, &mut tally);
        passes += 1;
    }
    let accepted = (tally.accepted - accepted_in_setup) as f64;
    setups.sort_by(f64::total_cmp);
    let (all, rounds) = tl.scaled();
    let mut raw: Vec<f64> = tl
        .segments
        .iter()
        .zip(&tl.is_round)
        .filter(|s| *s.1)
        .map(|s| ms(*s.0))
        .collect();
    raw.sort_by(f64::total_cmp);
    let raw_s = tl.segments.iter().sum::<Duration>().as_secs_f64();
    let scaled_s = all.iter().sum::<f64>() / 1e3;
    let attempted = tally.attempted.max(1) as f64;
    let scaled = "host, at reference speed";
    let metrics = vec![
        (
            "setup_s",
            percentile_sorted(&setups, 0.5),
            "s",
            "host, at reference speed, median of 5",
        ),
        ("attest_per_s", accepted / scaled_s, "1/s", scaled),
        (
            "round_ms.p50",
            percentile_sorted(&rounds, 0.5),
            "ms",
            scaled,
        ),
        (
            "round_ms.p90",
            percentile_sorted(&rounds, 0.9),
            "ms",
            scaled,
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB", "host"),
        (
            "ok_ratio",
            (tally.attempted - tally.failed) as f64 / attempted,
            "ratio",
            "-",
        ),
        (
            "virt_ms",
            virt.unwrap_or(SimDuration::ZERO).as_ns() as f64 / 1e6,
            "ms",
            "virtual, one pass",
        ),
    ];
    let note = format!(
        "unscaled host clock: attest_per_s {:.3}, round_ms.p50 {:.4}, round_ms.p90 {:.4}; \
         host ran at {:.3}x the reference speed over {} rounds",
        accepted / raw_s,
        percentile_sorted(&raw, 0.5),
        percentile_sorted(&raw, 0.9),
        scaled_s / raw_s,
        rounds.len(),
    );
    Report {
        rounds_per_pass: w.rounds(),
        passes,
        tally,
        metrics: metrics
            .into_iter()
            .map(|(n, v, u, c)| (n.to_string(), v, u, c))
            .collect(),
        note,
    }
}

/// The traced run: a traced set-up, then passes alternating untraced
/// and traced until `--seconds` have elapsed. Per-layer figures are the
/// set-up's plus the mean traced pass's (unscaled host time);
/// `trace.overhead` compares traced passes with untraced ones after the
/// first, both scaled to the reference speed.
fn traced_run(args: &Args) -> Report {
    let mut tally = Tally::default();
    trace::set_enabled(true);
    let (mut w, _) = set_up(args, Instant::now(), &mut tally);
    trace::set_enabled(false);
    let setup = trace::take_totals();

    let timed = Instant::now();
    let (mut next_round, mut virt) = (0, None);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for pass in 0.. {
        let traced = pass % 2 == 1;
        let mut tl = Timeline::new(&*w);
        trace::set_enabled(traced);
        let v = run_pass(&mut *w, &mut tally, &mut next_round, &mut tl);
        trace::set_enabled(false);
        check_virt(&mut virt, v, &mut tally);
        let pass_ms: f64 = tl.scaled().0.iter().sum();
        if traced {
            traced_ms.push(pass_ms);
            if timed.elapsed().as_secs() >= args.seconds {
                break;
            }
        } else {
            untraced_ms.push(pass_ms);
        }
    }
    let passes = trace::take_totals();
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_chrome_trace(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let warm = if untraced_ms.len() > 1 {
        &untraced_ms[1..]
    } else {
        &untraced_ms[..]
    };
    let overhead = mean(&traced_ms) / mean(warm) - 1.0;
    Report {
        rounds_per_pass: w.rounds(),
        passes: traced_ms.len() + untraced_ms.len(),
        tally,
        metrics: per_layer(&setup, &passes, traced_ms.len() as f64, overhead),
        note: format!(
            "per-layer figures: set-up plus the mean of {} traced passes",
            traced_ms.len()
        ),
    }
}

/// Per-layer metrics: the set-up's totals plus the mean traced pass's.
fn per_layer(
    setup: &Totals,
    passes: &Totals,
    n: f64,
    overhead: f64,
) -> Vec<(String, f64, &'static str, &'static str)> {
    let per = |s: u64, p: u64| s as f64 + p as f64 / n;
    let counter = |c: Counter| per(setup.counter(c), passes.counter(c));
    let mut out = Vec::new();
    for span in Span::ALL {
        let k = span as usize;
        let self_ms = per(setup.self_ns[k], passes.self_ns[k]) / 1e6;
        out.push((
            format!("{}.ms", span.name()),
            self_ms,
            "ms",
            "host, self time",
        ));
        let calls = per(setup.calls[k], passes.calls[k]);
        out.push((format!("{}.calls", span.name()), calls, "count", "-"));
    }
    for span in [Span::PlatformBuild, Span::EngineRun, Span::PalsRun] {
        let k = span as usize;
        let mib = per(setup.alloc_bytes[k], passes.alloc_bytes[k]) / f64::from(1 << 20);
        out.push((
            format!("{}.alloc_mb", span.name()),
            mib,
            "MiB",
            "host, self",
        ));
    }
    let counters = [
        ("pals.vm_retired", Counter::VmRetired),
        ("pals.vm_blocks_executed", Counter::VmBlocksExecuted),
        ("pals.vm_blocks_decoded", Counter::VmBlocksDecoded),
        ("pals.vm_chain_hits", Counter::VmChainHits),
        ("fleet.cert_walks", Counter::CertWalks),
        ("fleet.ticket_hits", Counter::TicketHits),
        ("fleet.rejected", Counter::Rejected),
        ("core.sessions", Counter::Sessions),
        ("core.quoted", Counter::Quoted),
        ("core.killed", Counter::Killed),
        ("core.degraded", Counter::Degraded),
        ("core.resets", Counter::Resets),
        ("core.committed", Counter::Committed),
        ("core.relaunched", Counter::Relaunched),
        ("core.stale_restores", Counter::StaleRestores),
    ];
    for (name, c) in counters {
        out.push((name.to_string(), counter(c), "count", "-"));
    }
    out.push((
        "core.journal_virt_ms".into(),
        counter(Counter::JournalVirtNs) / 1e6,
        "ms",
        "virtual",
    ));
    out.push((
        "core.recovery_virt_ms".into(),
        counter(Counter::RecoveryVirtNs) / 1e6,
        "ms",
        "virtual",
    ));
    let pals = Span::PalsRun as usize;
    let pals_s = (setup.self_ns[pals] + passes.self_ns[pals]) as f64 / 1e9;
    let retired = setup.counter(Counter::VmRetired) + passes.counter(Counter::VmRetired);
    let insns_per_s = if pals_s > 0.0 {
        retired as f64 / pals_s
    } else {
        0.0
    };
    out.push(("pals.vm_insns_per_s".into(), insns_per_s, "1/s", "host"));
    let verifies = counter(Counter::Verifies);
    let hit_ratio = if verifies > 0.0 {
        counter(Counter::TicketHits) / verifies
    } else {
        0.0
    };
    out.push(("fleet.ticket_hit_ratio".into(), hit_ratio, "ratio", "-"));
    out.push(("trace.overhead".into(), overhead, "ratio", "host"));
    out
}
