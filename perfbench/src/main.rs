//! `perfbench`: host-time benchmark of the HardSnap reproduction.
//!
//! ```text
//! perfbench --workload analyze|analyze-spill|fuzz|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (work files go under `perfbench/work/`,
//! traces under `perfbench/out/`). With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced ops and reports the per-layer breakdown. Human-readable lines
//! come first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and every metric.

use hardsnap::{Engine, EngineConfig, Searcher};
use hardsnap_bus::HwTarget;
use hardsnap_fuzz::{FuzzConfig, Fuzzer, ResetStrategy};
use hardsnap_perfbench::{
    build_soc, quantile, segments, FastSegments, Layer, Ledger, Marks, Metric, OpTally, SetupTimes,
    Split, Timed, DIGEST_DEMO5, DIGEST_DEMO7, END_TO_END, PER_LAYER,
};
use hardsnap_serve::{Client, Daemon, DaemonConfig, EventBody, JobSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload analyze|analyze-spill|fuzz|serve --seed N --seconds S --trace 0|1";

/// Ops run before measuring (excluded from every statistic, still checked).
const WARMUP_OPS: usize = 4;
/// Back-to-back set-up repetitions before the measured window (`serve`
/// repeats as many after it; batch workloads add one a second during
/// it). `setup_s` is the fastest repetition.
const SETUP_REPS: usize = 4;
/// Batch workloads report an op's host time as the sum, over the op's
/// segments between snapshot restores, of each segment's `FAST_K`-th
/// fastest time in the run (see [`FastSegments`]): the host only ever
/// adds time, and on a shared 2-vCPU host it slows for stretches of
/// milliseconds to minutes, so whole ops are rarely fast end to end.
const FAST_K: usize = 3;
/// Quantile of the daemon's job run time behind `serve`'s `work_per_s`.
const SERVE_RUN_Q: f64 = 0.1;
/// `analyze-spill` snapshot-store budget: about a fifth of the 505 KB
/// resident peak `analyze` reaches unbudgeted.
const SPILL_BUDGET: usize = 100_000;
/// Fuzz inputs per op.
const FUZZ_INPUTS: u64 = 500;
/// `serve` open-loop arrival rate, jobs per second.
const SERVE_RATE: f64 = 10.0;
/// `serve` jobs excluded as warm-up.
const SERVE_WARMUP: usize = 5;
/// Spans a traced run keeps in memory (later ones are only tallied).
const SPAN_CAP: usize = 60_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Analyze,
    AnalyzeSpill,
    Fuzz,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "analyze" => Some(Workload::Analyze),
            "analyze-spill" => Some(Workload::AnalyzeSpill),
            "fuzz" => Some(Workload::Fuzz),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Analyze => "analyze",
            Workload::AnalyzeSpill => "analyze-spill",
            Workload::Fuzz => "fuzz",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed '{value}'"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (want 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// splitmix64: derives the workload inputs from `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn elapsed_ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64 / 1e6
}

/// A quantile that must exist (the caller guarantees samples).
fn q(values: &[f64], p: f64) -> f64 {
    quantile(values, p).unwrap_or(f64::NAN)
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// (statistic, samples behind it).
    samples: Vec<(String, usize)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        println!("FAILED: {what}");
    }
}

// ---------------------------------------------------------------------------
// Set-up

/// The fastest set-up repetition so far, with its stage times. Slow
/// host stretches last seconds, so repetitions are spread over the run
/// rather than only made back to back.
#[derive(Default)]
struct SetupBest {
    ns: Option<u64>,
    stages: SetupTimes,
    /// Daemon start + warm pool ready (`serve` only).
    start_ns: u64,
    reps: usize,
}

impl SetupBest {
    fn record(&mut self, ns: u64, stages: SetupTimes, start_ns: u64) {
        self.reps += 1;
        if self.ns.is_none_or(|b| ns < b) {
            *self = SetupBest {
                ns: Some(ns),
                stages,
                start_ns,
                reps: self.reps,
            };
        }
    }

    /// One batch set-up: assemble and build the SoC prototype.
    fn rep(
        &mut self,
        firmware: &str,
    ) -> Result<(hardsnap_isa::Program, hardsnap_sim::SimTarget), String> {
        let t0 = Instant::now();
        let (program, proto, stages) = build_soc(firmware)?;
        self.record(t0.elapsed().as_nanos() as u64, stages, 0);
        Ok((program, proto))
    }

    fn seconds(&self) -> f64 {
        self.ns.unwrap_or(0) as f64 / 1e9
    }
}

fn setup_layer_metrics(r: &mut Report, best: &SetupBest) {
    r.metric("isa.assemble_ms", ms(best.stages.assemble_ns));
    r.metric("verilog.parse_ms", ms(best.stages.parse_ns));
    r.metric("rtl.elaborate_ms", ms(best.stages.elaborate_ns));
    r.metric("sim.build_ms", ms(best.stages.build_ns));
    r.metric("serve.start_ms", ms(best.start_ns));
    r.samples.push(("setup".into(), best.reps));
}

// ---------------------------------------------------------------------------
// Batch workloads (analyze, analyze-spill, fuzz)

/// One closed-loop op of a batch workload.
struct Op {
    ms: f64,
    /// Units of work the op did: symbolic instructions or fuzz execs.
    work: f64,
    traced: bool,
    tally: OpTally,
    /// Host time the program itself measured inside the op (solver).
    program_ms: f64,
    /// Host nanoseconds between the op's start, each snapshot restore
    /// and its end (see [`segments`]).
    segments: Vec<u64>,
    /// Deterministic work counters; must repeat exactly across ops.
    counters: Vec<(&'static str, u64)>,
    /// Per-layer values of the traced report (counts, ratios).
    values: Vec<(&'static str, f64)>,
    /// `Some(reason)` when the op's output was wrong.
    error: Option<String>,
}

/// The measured ops of a batch run, with the fastest segment times of
/// its untraced and its traced ops (the segments themselves are folded
/// in and dropped, so memory does not grow with the op count).
struct Ran {
    ops: Vec<Op>,
    plain: FastSegments,
    traced: FastSegments,
}

/// Runs ops back to back: [`WARMUP_OPS`] warm-up ops, then ops until
/// `seconds` have passed, calling `between` about once a second of the
/// window. In a traced run, ops alternate untraced and traced so both
/// see the same host conditions.
fn drive(
    seconds: u64,
    trace: bool,
    report: &mut Report,
    mut op: impl FnMut(bool) -> Result<Op, String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Ran, String> {
    let mut ops = Vec::new();
    let mut plain = FastSegments::new(FAST_K);
    let mut traced_fast = FastSegments::new(FAST_K);
    let mut first_counters: Option<Vec<(&'static str, u64)>> = None;
    let mut i = 0usize;
    let mut window: Option<Instant> = None;
    let mut last_between = Instant::now();
    loop {
        if i == WARMUP_OPS {
            window = Some(Instant::now());
        }
        if let Some(w) = window {
            if w.elapsed().as_secs_f64() >= seconds as f64 {
                break;
            }
            if last_between.elapsed() >= Duration::from_secs(1) {
                between()?;
                last_between = Instant::now();
            }
        }
        let traced = trace && i % 2 == 1;
        let mut o = op(traced)?;
        report.attempted += 1;
        let mut bad = o.error.clone();
        match &first_counters {
            None => first_counters = Some(o.counters.clone()),
            Some(r) if *r != o.counters => {
                bad = Some(format!(
                    "work counters {:?} differ from the first op's {r:?}",
                    o.counters
                ))
            }
            Some(_) => {}
        }
        if o.traced {
            let attributed = ms(o.tally.total_ns()) + o.program_ms;
            if attributed > o.ms {
                bad = Some(format!(
                    "layers account for {attributed:.4} ms of a {:.4} ms op",
                    o.ms
                ));
            }
        }
        // Only the first op's counters and the traced ops' values are
        // read later: keep per-op memory small, so peak RSS does not
        // grow with how many ops a fast host fits into the window.
        o.counters = Vec::new();
        if !o.traced {
            o.values = Vec::new();
        }
        let segments = std::mem::take(&mut o.segments);
        if i >= WARMUP_OPS && bad.is_none() {
            let fast = if o.traced {
                &mut traced_fast
            } else {
                &mut plain
            };
            bad = fast.add(&segments).err();
        }
        if let Some(why) = bad {
            report.fail(&format!("op {i}: {why}"));
        }
        if i >= WARMUP_OPS {
            ops.push(o);
        }
        i += 1;
    }
    if let Some(r) = first_counters {
        let line: Vec<String> = r.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("work counters per op: {}", line.join(" "));
    }
    Ok(Ran {
        ops,
        plain,
        traced: traced_fast,
    })
}

fn op_times(ops: &[Op], traced: bool) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.traced == traced)
        .map(|o| o.ms)
        .collect()
}

/// Median over traced ops of a per-op quantity.
fn traced_median(ops: &[Op], f: impl Fn(&Op) -> f64) -> f64 {
    let v: Vec<f64> = ops.iter().filter(|o| o.traced).map(f).collect();
    q(&v, 0.5)
}

fn value_of(o: &Op, name: &str) -> f64 {
    o.values
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |(_, v)| *v)
}

fn analyze_config(spill: bool) -> EngineConfig {
    // What `hardsnap-cli analyze` builds: HardSnap mode, round-robin,
    // one worker, delta snapshots off.
    EngineConfig {
        searcher: Searcher::RoundRobin,
        delta_snapshots: false,
        snapshot_mem_budget: spill.then_some(SPILL_BUDGET),
        ..Default::default()
    }
}

/// A power-on replica of `proto` whose snapshot restores are marked on
/// `marks` (cleared first).
fn split_replica(proto: &dyn HwTarget, marks: &Marks) -> Result<Box<dyn HwTarget>, String> {
    marks.lock().expect("marks lock poisoned").clear();
    let target = proto.fork_clean().map_err(|e| format!("fork_clean: {e}"))?;
    Ok(Box::new(Split::new(target, Arc::clone(marks))))
}

fn op_segments(t0: Instant, marks: &Marks, t1: Instant) -> Vec<u64> {
    segments(t0, &marks.lock().expect("marks lock poisoned"), t1)
}

fn analyze_op(
    proto: &dyn HwTarget,
    program: &hardsnap_isa::Program,
    config: &EngineConfig,
    ledger: Option<&Ledger>,
    op_id: u64,
    marks: &Marks,
) -> Result<Op, String> {
    if let Some(l) = ledger {
        l.begin_op(op_id);
    }
    let t0 = Instant::now();
    let target = split_replica(proto, marks)?;
    let mut engine = Engine::new(target, config.clone());
    engine.load_firmware(program);
    let r = engine.run();
    let solver = engine.executor.solver.stats;
    let store = engine.store.stats();
    let peak = engine.store.peak_bytes();
    drop(engine);
    let t1 = Instant::now();
    let tally = ledger.map_or_else(OpTally::default, |l| l.end_op("op.analyze", t0, t1));
    let segments = op_segments(t0, marks, t1);
    let digest = r.canonical_digest();
    let error = (digest != DIGEST_DEMO7)
        .then(|| format!("digest {digest:#018x}, want {DIGEST_DEMO7:#018x}"));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Ok(Op {
        ms: elapsed_ms(t0, t1),
        work: r.instructions as f64,
        traced: ledger.is_some(),
        tally,
        program_ms: solver.time_us as f64 / 1e3,
        segments,
        counters: vec![
            ("instructions", r.instructions),
            ("paths", r.metrics.paths_completed),
            ("context_switches", r.metrics.context_switches),
            ("quanta", r.metrics.quanta),
            ("solver_queries", solver.queries),
            ("spills", store.spills),
            ("page_ins", store.page_ins),
            ("modeled_vtime_ns", r.hw_virtual_time_ns),
        ],
        values: vec![
            ("symex.queries", solver.queries as f64),
            ("symex.sat_ratio", ratio(solver.sat, solver.queries)),
            ("core.store_hits", store.hits as f64),
            ("core.store_spills", store.spills as f64),
            ("core.store_page_ins", store.page_ins as f64),
            ("core.store_peak_bytes", peak as f64),
            ("core.context_switches", r.metrics.context_switches as f64),
            ("core.quanta", r.metrics.quanta as f64),
            ("core.instructions", r.instructions as f64),
            ("model.vtime_ms", r.hw_virtual_time_ns as f64 / 1e6),
        ],
        error,
    })
}

/// Coverage and the (fault, input) crash set of the first fuzz op.
type FuzzOutcome = (usize, Vec<String>);

fn fuzz_op(
    proto: &dyn HwTarget,
    program: &hardsnap_isa::Program,
    config: FuzzConfig,
    ledger: Option<&Ledger>,
    op_id: u64,
    marks: &Marks,
    first: &mut Option<FuzzOutcome>,
) -> Result<Op, String> {
    if let Some(l) = ledger {
        l.begin_op(op_id);
    }
    let t0 = Instant::now();
    let target = split_replica(proto, marks)?;
    let mut fuzzer = Fuzzer::new(target, program, config).map_err(|e| format!("fuzzer: {e}"))?;
    let r = fuzzer.run();
    let corpus = fuzzer.corpus_len();
    drop(fuzzer);
    let t1 = Instant::now();
    let tally = ledger.map_or_else(OpTally::default, |l| l.end_op("op.fuzz", t0, t1));
    let segments = op_segments(t0, marks, t1);
    let r = r.map_err(|e| format!("fuzz run: {e}"))?;
    let outcome: FuzzOutcome = (
        r.coverage,
        r.crashes
            .iter()
            .map(|c| format!("{:?} {:?}", c.fault, c.input))
            .collect(),
    );
    let error = if r.execs != FUZZ_INPUTS {
        Some(format!("{} execs, want {FUZZ_INPUTS}", r.execs))
    } else {
        match first {
            None => {
                *first = Some(outcome);
                None
            }
            Some(f) if *f != outcome => Some(format!(
                "coverage/crashes {outcome:?} differ from the first op's {f:?}"
            )),
            Some(_) => None,
        }
    };
    Ok(Op {
        ms: elapsed_ms(t0, t1),
        work: r.execs as f64,
        traced: ledger.is_some(),
        tally,
        program_ms: 0.0,
        segments,
        counters: vec![
            ("execs", r.execs),
            ("coverage", r.coverage as u64),
            ("corpus", corpus as u64),
            ("crashes", r.crashes.len() as u64),
            ("modeled_vtime_ns", r.hw_virtual_time_ns),
        ],
        values: vec![
            ("fuzz.coverage", r.coverage as f64),
            ("fuzz.corpus_len", corpus as f64),
            ("model.vtime_ms", r.hw_virtual_time_ns as f64 / 1e6),
        ],
        error,
    })
}

fn run_batch(args: &Args, report: &mut Report) -> Result<(), String> {
    let firmware = match args.workload {
        Workload::Fuzz => hardsnap::firmware::uart_parser_firmware(),
        _ => hardsnap::firmware::branching_firmware(7),
    };
    let mut setup = SetupBest::default();
    let (program, proto) = setup.rep(&firmware)?;
    for _ in 1..SETUP_REPS {
        setup.rep(&firmware)?;
    }
    let ledger = Ledger::new(SPAN_CAP);
    let timed: Option<Timed> = if args.trace {
        let replica = proto.fork_clean().map_err(|e| format!("fork_clean: {e}"))?;
        Some(Timed::new(replica, Arc::clone(&ledger)))
    } else {
        None
    };
    let config = analyze_config(args.workload == Workload::AnalyzeSpill);
    let fuzz_config = FuzzConfig {
        max_inputs: FUZZ_INPUTS,
        reset: ResetStrategy::Snapshot,
        tape_len: 2,
        seed: mix(args.seed),
        delta_snapshots: false,
        ..Default::default()
    };
    let mut first_fuzz = None;
    let mut op_id = 0u64;
    let marks: Marks = Arc::new(std::sync::Mutex::new(Vec::with_capacity(1024)));
    let run_op = |traced: bool| {
        op_id += 1;
        let (target, l): (&dyn HwTarget, Option<&Ledger>) = match (&timed, traced) {
            (Some(t), true) => (t, Some(&ledger)),
            _ => (&proto, None),
        };
        match args.workload {
            Workload::Fuzz => fuzz_op(
                target,
                &program,
                fuzz_config,
                l,
                op_id,
                &marks,
                &mut first_fuzz,
            ),
            _ => analyze_op(target, &program, &config, l, op_id, &marks),
        }
    };
    let ran = drive(args.seconds, args.trace, report, run_op, || {
        setup.rep(&firmware).map(drop)
    })?;
    let ops = &ran.ops;

    let plain = op_times(ops, false);
    let Some(fast) = ran.plain.estimate_ns().map(ms) else {
        return Err("no measured op".into());
    };
    let work = ops[0].work;
    let (unit, what) = match args.workload {
        Workload::Fuzz => ("execs", "execs_per_s"),
        _ => ("symbolic instructions", "instr_per_s"),
    };
    println!(
        "{}: {} measured ops of {work} {unit}; op host time p2 {:.3} ms, p10 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms",
        args.workload.name(),
        plain.len(),
        q(&plain, 0.02),
        q(&plain, 0.1),
        q(&plain, 0.5),
        q(&plain, 0.9),
    );
    println!(
        "  fast op estimate {fast:.3} ms: {} segments per op, each at its {FAST_K}th fastest of {} ops",
        ran.plain.segments(),
        ran.plain.ops()
    );
    report.samples.push(("op_ms".into(), plain.len()));
    report
        .samples
        .push(("segments".into(), ran.plain.segments()));
    if !args.trace {
        report.metric("setup_s", setup.seconds());
        report.samples.push(("setup".into(), setup.reps));
        report.metric("work_per_s", work / (fast / 1e3));
        report.metric("latency_ms", fast);
        println!(
            "  {what} = {:.1} 1/s (fast op estimate)",
            work / (fast / 1e3)
        );
        return Ok(());
    }

    let traced = op_times(ops, true);
    report.samples.push(("traced_op_ms".into(), traced.len()));
    let tfast = ran.traced.estimate_ns().map_or(f64::NAN, ms);
    setup_layer_metrics(report, &setup);
    let layer_ms = |layer: Layer| traced_median(ops, |o| ms(o.tally.get(layer).ns));
    let layer_calls = |layer: Layer| traced_median(ops, |o| o.tally.get(layer).calls as f64);
    report.metric("symex.solver_ms", traced_median(ops, |o| o.program_ms));
    report.metric("sim.fork_ms", layer_ms(Layer::Fork));
    report.metric("sim.capture_ms", layer_ms(Layer::Capture));
    report.metric("sim.captures", layer_calls(Layer::Capture));
    report.metric(
        "sim.capture_bytes",
        traced_median(ops, |o| o.tally.capture_bytes as f64),
    );
    report.metric("sim.restore_ms", layer_ms(Layer::Restore));
    report.metric("sim.restores", layer_calls(Layer::Restore));
    report.metric("sim.step_ms", layer_ms(Layer::Step));
    report.metric("sim.steps", layer_calls(Layer::Step));
    report.metric("sim.bus_ms", layer_ms(Layer::Bus));
    report.metric("sim.bus_ops", layer_calls(Layer::Bus));
    if let Some(first) = ops.iter().find(|o| o.traced) {
        for &(name, _) in &first.values {
            report.metric(name, traced_median(ops, |o| value_of(o, name)));
        }
    }
    // The residual: op host time no layer above accounts for.
    let residual = traced_median(ops, |o| o.ms - ms(o.tally.total_ns()) - o.program_ms);
    let residual_name = match args.workload {
        Workload::Fuzz => "fuzz.residual_ms",
        _ => "core.residual_ms",
    };
    report.metric(residual_name, residual);
    report.metric("trace.latency_ms", tfast);
    report.metric("trace.overhead_pct", (tfast / fast - 1.0) * 100.0);
    print_ledger(ops);
    write_trace(&ledger, args)?;
    Ok(())
}

/// Prints the median traced op's breakdown; the residual is its own line.
fn print_ledger(ops: &[Op]) {
    let traced: Vec<&Op> = ops.iter().filter(|o| o.traced).collect();
    if traced.is_empty() {
        return;
    }
    let mut sorted = traced.clone();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let o = sorted[sorted.len() / 2];
    println!("median traced op: {:.4} ms", o.ms);
    for layer in Layer::ALL {
        let t = o.tally.get(layer);
        println!(
            "  {:<14} {:>10.4} ms  {:>8} calls",
            layer.name(),
            ms(t.ns),
            t.calls
        );
    }
    if o.program_ms > 0.0 {
        println!("  {:<14} {:>10.4} ms", "symex.solver", o.program_ms);
    }
    let residual = o.ms - ms(o.tally.total_ns()) - o.program_ms;
    println!("  {:<14} {:>10.4} ms", "residual", residual);
}

fn write_trace(ledger: &Ledger, args: &Args) -> Result<(), String> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, ledger.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    let (kept, dropped) = ledger.span_counts();
    println!(
        "trace: {} ({kept} spans kept, {dropped} past the cap)",
        path.display()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// serve

/// A daemon serving its unix socket from a background thread.
struct LiveDaemon {
    daemon: Arc<Daemon>,
    socket: PathBuf,
    thread: Option<JoinHandle<Result<(), hardsnap_serve::ServeError>>>,
}

impl LiveDaemon {
    fn start(work: &Path, tag: usize) -> Result<LiveDaemon, String> {
        let state_dir = work.join(format!("serve-{tag}"));
        let socket = work.join(format!("serve-{tag}.sock"));
        let cfg = DaemonConfig {
            state_dir,
            pool_replicas: 1,
            // Deep enough that a Poisson burst is queued, never refused.
            queue_max: 256,
            warm_pool: 1,
            ..Default::default()
        };
        let daemon = Daemon::new(cfg).map_err(|e| format!("daemon: {e}"))?;
        daemon.spawn_watchdog(Duration::from_millis(50));
        let d = Arc::clone(&daemon);
        let sock = socket.clone();
        let thread = std::thread::spawn(move || d.serve_unix(&sock));
        let mut live = LiveDaemon {
            daemon,
            socket,
            thread: Some(thread),
        };
        Client::connect_retry(&live.socket, Duration::from_secs(30))
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("daemon ping: {e}"))?;
        if !live.daemon.wait_warm_ready(1, Duration::from_secs(60)) {
            live.stop();
            return Err("warm pool never became ready".into());
        }
        Ok(live)
    }

    fn stop(&mut self) {
        self.daemon.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.daemon.wait_idle(Duration::from_secs(5));
    }
}

impl Drop for LiveDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One open-loop job, timed from the client.
struct Job {
    due: Instant,
    sent: Instant,
    acked: Instant,
    /// Fresh connect + `ping` right after the submit (traced jobs).
    ping: Option<(Instant, Instant)>,
    started: Option<Instant>,
    terminal: Option<Instant>,
    error: Option<String>,
    traced: bool,
}

fn run_serve(args: &Args, report: &mut Report, work: &Path) -> Result<(), String> {
    let firmware = hardsnap::firmware::branching_firmware(5);
    // Set-up: the SoC chain plus daemon start and a ready warm pool,
    // repeated before and after the measured window (a second daemon
    // during the window would compete with the measured one); the last
    // repetition before the window serves it.
    let mut setup = SetupBest::default();
    let rep = |setup: &mut SetupBest, tag: usize| -> Result<LiveDaemon, String> {
        let t0 = Instant::now();
        let (_program, _proto, stages) = build_soc(&firmware)?;
        let t1 = Instant::now();
        let live = LiveDaemon::start(work, tag)?;
        let t2 = Instant::now();
        let ns = |a: Instant| t2.saturating_duration_since(a).as_nanos() as u64;
        setup.record(ns(t0), stages, ns(t1));
        Ok(live)
    };
    let mut live = rep(&mut setup, 0)?;
    for tag in 1..SETUP_REPS {
        drop(live);
        live = rep(&mut setup, tag)?;
    }

    // Poisson arrivals from the seed.
    let n_jobs = (SERVE_RATE * args.seconds as f64).round() as usize + SERVE_WARMUP;
    let mut rng = mix(args.seed ^ 0x5e7e_5e7e);
    let mut at = 0.0f64;
    let mut offsets = Vec::with_capacity(n_jobs);
    for _ in 0..n_jobs {
        rng = mix(rng);
        let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
        at += -(1.0 - u).ln() / SERVE_RATE;
        offsets.push(at);
    }

    let spec = JobSpec {
        name: "bench".into(),
        firmware: "demo:5".into(),
        ..Default::default()
    };
    let want_digest = hardsnap_serve::digest_hex(DIGEST_DEMO5);
    // A reader thread timestamps each event as it arrives, so the
    // generator can sleep precisely until each due time (a socket read
    // timeout is rounded up to the kernel tick, too coarse to multiplex
    // both on one thread).
    let mut stream = Client::connect(&live.socket)
        .and_then(Client::subscribe)
        .map_err(|e| format!("subscribe: {e}"))?;
    stream.set_deadline(Some(
        Instant::now() + Duration::from_secs(args.seconds + 120),
    ));
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, hardsnap_serve::Event)>();
    let reader = std::thread::spawn(move || -> Result<(), String> {
        loop {
            match stream.next_event() {
                Ok(Some(ev)) => {
                    if tx.send((Instant::now(), ev)).is_err() {
                        return Ok(());
                    }
                }
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("event stream: {e}")),
            }
        }
    });

    let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let t_start = Instant::now() + Duration::from_millis(50);
    for (i, off) in offsets.iter().enumerate() {
        let due = t_start + Duration::from_secs_f64(*off);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let id = Client::connect(&live.socket)
            .and_then(|mut c| c.submit(&spec))
            .map_err(|e| format!("submit: {e}"))?;
        let acked = Instant::now();
        let traced = args.trace && i % 2 == 1;
        let ping = if traced {
            let t = Instant::now();
            Client::connect(&live.socket)
                .and_then(|mut c| c.ping())
                .map_err(|e| format!("ping: {e}"))?;
            Some((t, Instant::now()))
        } else {
            None
        };
        let job = Job {
            due,
            sent,
            acked,
            ping,
            started: None,
            terminal: None,
            error: None,
            traced,
        };
        jobs.insert(id, job);
        order.push(id);
    }
    // Drain: collect events until every job has its terminal one.
    let mut events = Vec::new();
    let mut terminals = 0usize;
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while terminals < order.len() {
        let Some(left) = drain_deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        match rx.recv_timeout(left) {
            Ok(ev) => {
                terminals += usize::from(matches!(ev.1.body, EventBody::Terminal { .. }));
                events.push(ev);
            }
            Err(_) => break,
        }
    }
    for (at, ev) in events {
        let Some(job) = jobs.get_mut(&ev.body.job_id()) else {
            continue;
        };
        match ev.body {
            EventBody::Started { .. } => job.started = Some(at),
            EventBody::Terminal {
                verdict, digest, ..
            } => {
                job.terminal = Some(at);
                if verdict != "completed" || digest.as_deref() != Some(want_digest.as_str()) {
                    job.error = Some(format!(
                        "verdict {verdict}, digest {digest:?}, want completed {want_digest}"
                    ));
                }
            }
            _ => {}
        }
    }
    let summaries: BTreeMap<u64, hardsnap_serve::JobSummary> = Client::connect(&live.socket)
        .and_then(|mut c| c.status(None))
        .map_err(|e| format!("status: {e}"))?
        .into_iter()
        .map(|s| (s.id, s))
        .collect();
    // Shutting the daemon down closes the event stream, which ends the
    // reader.
    drop(live);
    drop(rx);
    reader
        .join()
        .map_err(|_| "event reader panicked".to_string())??;
    for tag in SETUP_REPS..2 * SETUP_REPS {
        drop(rep(&mut setup, tag)?);
    }

    // Per-job accounting.
    let mut job_ms = Vec::new();
    let mut traced_job_ms = Vec::new();
    let mut run_client_ms = Vec::new();
    let mut instructions: Option<u64> = None;
    let (mut ping, mut submit, mut qwait, mut run, mut notify, mut late) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut warm = 0usize;
    let mut counted = 0usize;
    for (i, id) in order.iter().enumerate() {
        let j = &jobs[id];
        report.attempted += 1;
        let summary = summaries.get(id);
        let mut error = j.error.clone();
        if j.started.is_none() || j.terminal.is_none() {
            error = Some("missing its started or terminal event".into());
        }
        match (summary, instructions) {
            (None, _) => error = Some("missing from status".into()),
            (Some(s), None) => instructions = Some(s.instructions),
            (Some(s), Some(n)) if s.instructions != n => {
                error = Some(format!(
                    "{} instructions, first job ran {n}",
                    s.instructions
                ))
            }
            _ => {}
        }
        if let Some(why) = error {
            report.fail(&format!("job {id}: {why}"));
            continue;
        }
        let (Some(s), Some(started), Some(terminal)) = (summary, j.started, j.terminal) else {
            continue; // counted as failed above
        };
        if i < SERVE_WARMUP {
            continue;
        }
        let (due, sent, acked) = (j.due, j.sent, j.acked);
        let total = elapsed_ms(due, terminal);
        if j.traced {
            traced_job_ms.push(total);
        } else {
            job_ms.push(total);
        }
        run_client_ms.push(elapsed_ms(started, terminal));
        counted += 1;
        warm += usize::from(s.provenance.as_deref() == Some("warm"));
        let (l, sub) = (elapsed_ms(due, sent), elapsed_ms(sent, acked));
        late.push(l);
        submit.push(sub);
        qwait.push(s.queue_wait_ms as f64);
        run.push(s.run_ms as f64);
        notify.push(total - l - sub - s.queue_wait_ms as f64 - s.run_ms as f64);
        if let Some((t0, t1)) = j.ping {
            ping.push(elapsed_ms(t0, t1));
        }
    }
    if job_ms.is_empty() {
        return Err("no measured job".into());
    }
    let instr = instructions.unwrap_or(0) as f64;
    let run_fast = q(&run_client_ms, SERVE_RUN_Q);
    let (p50, p90) = (q(&job_ms, 0.5), q(&job_ms, 0.9));
    println!(
        "serve: {} measured jobs of {instr} symbolic instructions; job ms p10 {:.3}, p50 {p50:.3}, p90 {p90:.3}; \
         daemon run (started to terminal event) p2 {:.3}, p10 {run_fast:.3}, p50 {:.3} ms",
        job_ms.len(),
        q(&job_ms, 0.1),
        q(&run_client_ms, 0.02),
        q(&run_client_ms, 0.5),
    );
    report.samples.push(("job_ms".into(), job_ms.len()));
    report.samples.push(("run_ms".into(), run_client_ms.len()));
    report.metric("serve.job_ms_p50", p50);
    report.metric("serve.job_ms_p90", p90);
    if !args.trace {
        report.metric("setup_s", setup.seconds());
        report.samples.push(("setup".into(), setup.reps));
        report.metric("work_per_s", instr / (run_fast / 1e3));
        report.metric("latency_ms", p50);
        println!(
            "  job_ms_p50 = {p50:.3} ms, job_ms_p90 = {p90:.3} ms ({} jobs)",
            job_ms.len()
        );
        return Ok(());
    }
    report
        .samples
        .push(("traced_job_ms".into(), traced_job_ms.len()));
    setup_layer_metrics(report, &setup);
    report.metric("serve.ping_ms_p50", q(&ping, 0.5));
    report.metric("serve.submit_ms_p50", q(&submit, 0.5));
    report.metric("serve.queue_wait_ms_p50", q(&qwait, 0.5));
    report.metric("serve.run_ms_p50", q(&run, 0.5));
    report.metric("serve.notify_ms_p50", q(&notify, 0.5));
    report.metric("serve.gen_late_ms_p90", q(&late, 0.9));
    report.metric("serve.warm_ratio", warm as f64 / counted.max(1) as f64);
    let traced_p50 = q(&traced_job_ms, 0.5);
    report.metric("trace.latency_ms", traced_p50);
    report.metric("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
    println!(
        "median job: late {:.3} + submit {:.3} + queue wait {:.3} + run {:.3} + notify (residual) {:.3} ms",
        q(&late, 0.5),
        q(&submit, 0.5),
        q(&qwait, 0.5),
        q(&run, 0.5),
        q(&notify, 0.5)
    );
    let ledger = Ledger::new(SPAN_CAP);
    for id in &order {
        let j = &jobs[id];
        let (Some(started), Some(terminal)) = (j.started, j.terminal) else {
            continue;
        };
        ledger.begin_op(*id);
        ledger.span("serve.gen_late", j.due, j.sent);
        ledger.span("serve.submit", j.sent, j.acked);
        if let Some((t0, t1)) = j.ping {
            ledger.span("serve.ping", t0, t1);
        }
        ledger.span("serve.run", started, terminal);
        ledger.end_op("op.job", j.due, terminal);
    }
    write_trace(&ledger, args)
}

// ---------------------------------------------------------------------------
// Run context

/// Peak resident set of this process, MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit when the tree is a git work tree, else "none".
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// FNV-1a over the sources the benchmark measures (`crates/` and
/// `perfbench/src/`), so a result names the code even outside git.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "v" || x == "toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("perfbench/Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    // Inputs come from the arguments alone: ignore any telemetry switch
    // in the environment, and keep spill and temp files in the work dir.
    std::env::remove_var("HARDSNAP_TELEMETRY");
    let work = PathBuf::from(format!(
        "perfbench/work/{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&work).unwrap_or_else(|_| work.clone()),
    );

    let mut report = Report::default();
    let result = match args.workload {
        Workload::Serve => run_serve(&args, &mut report, &work),
        _ => run_batch(&args, &mut report),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir("perfbench/work");
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    if !args.trace {
        report.metric("rss_peak_mb", rss_peak_mb());
    }
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": \"{}\", \"commit\": \"{}\", \"source_fnv\": \"{}\", \"samples\": {{{}}}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
        source_fingerprint(),
        samples.join(", ")
    );
    let metrics: Vec<String> = table
        .iter()
        .map(|&(k, u, _)| {
            let v = report.values.get(k).copied().unwrap_or(0.0);
            format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
