//! Host-time benchmark of the HardSnap reproduction.
//!
//! The binary (`src/main.rs`) runs one named workload through the
//! crates' public APIs and prints its end-to-end metrics; with
//! `--trace 1` it also times the calls into each layer. This library
//! holds the parts the benchmark's own tests exercise:
//!
//! * [`Ledger`]: per-op layer tallies plus an in-memory span buffer,
//!   written out as a Chrome trace at exit;
//! * [`Timed`]: an [`HwTarget`] decorator that times every call into the
//!   simulator layer and forwards all of the trait's methods;
//! * [`Split`] and [`FastSegments`]: the restore marks that split an
//!   untraced op into deterministic segments, and the per-segment
//!   fastest times the batch workloads' op-time estimate sums;
//! * [`build_soc`]: the timed set-up chain (assemble, Verilog parse,
//!   elaborate, compile into a `SimTarget`);
//! * [`quantile`] and the reference digests every op is checked against.

use hardsnap::Recorder;
use hardsnap_bus::{
    BusError, FaultStats, HwSnapshot, HwTarget, LazyRestore, SnapshotCapture, SnapshotFile,
    TargetCaps, TargetError,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `branching_firmware(7)` (the `analyze` workloads).
pub const DIGEST_DEMO7: u64 = 0x53b1_87ad_7b00_097f;
/// `branching_firmware(5)` / `demo:5` (the `serve` jobs).
pub const DIGEST_DEMO5: u64 = 0xd350_a3c6_4fea_6745;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, work done for the same result).
    Lower,
    /// Larger is better (throughput, useful-outcome ratios).
    Higher,
}

/// A reported metric: name, unit, better direction.
pub type Metric = (&'static str, &'static str, Better);

/// End-to-end metrics, printed with `--trace 0` (`BENCHMARK.json`
/// lists the same, in this order).
pub const END_TO_END: [Metric; 4] = [
    ("setup_s", "s", Better::Lower),
    ("work_per_s", "1/s", Better::Higher),
    ("latency_ms", "ms", Better::Lower),
    ("rss_peak_mb", "MB", Better::Lower),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [Metric; 41] = [
    ("isa.assemble_ms", "ms", Better::Lower),
    ("verilog.parse_ms", "ms", Better::Lower),
    ("rtl.elaborate_ms", "ms", Better::Lower),
    ("sim.build_ms", "ms", Better::Lower),
    ("serve.start_ms", "ms", Better::Lower),
    ("symex.solver_ms", "ms", Better::Lower),
    ("symex.queries", "count", Better::Lower),
    ("symex.sat_ratio", "ratio", Better::Higher),
    ("sim.fork_ms", "ms", Better::Lower),
    ("sim.capture_ms", "ms", Better::Lower),
    ("sim.captures", "count", Better::Lower),
    ("sim.capture_bytes", "bytes", Better::Lower),
    ("sim.restore_ms", "ms", Better::Lower),
    ("sim.restores", "count", Better::Lower),
    ("sim.step_ms", "ms", Better::Lower),
    ("sim.steps", "count", Better::Lower),
    ("sim.bus_ms", "ms", Better::Lower),
    ("sim.bus_ops", "count", Better::Lower),
    ("core.store_hits", "count", Better::Higher),
    ("core.store_spills", "count", Better::Lower),
    ("core.store_page_ins", "count", Better::Lower),
    ("core.store_peak_bytes", "bytes", Better::Lower),
    ("core.context_switches", "count", Better::Lower),
    ("core.quanta", "count", Better::Lower),
    ("core.instructions", "count", Better::Lower),
    ("core.residual_ms", "ms", Better::Lower),
    ("fuzz.coverage", "count", Better::Higher),
    ("fuzz.corpus_len", "count", Better::Higher),
    ("fuzz.residual_ms", "ms", Better::Lower),
    ("model.vtime_ms", "ms", Better::Lower),
    ("serve.ping_ms_p50", "ms", Better::Lower),
    ("serve.submit_ms_p50", "ms", Better::Lower),
    ("serve.queue_wait_ms_p50", "ms", Better::Lower),
    ("serve.run_ms_p50", "ms", Better::Lower),
    ("serve.notify_ms_p50", "ms", Better::Lower),
    ("serve.gen_late_ms_p90", "ms", Better::Lower),
    ("serve.warm_ratio", "ratio", Better::Higher),
    ("serve.job_ms_p50", "ms", Better::Lower),
    ("serve.job_ms_p90", "ms", Better::Lower),
    ("trace.latency_ms", "ms", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// A layer whose calls [`Timed`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `fork_clean`: a power-on replica of the prototype.
    Fork,
    /// `save_snapshot`, `save_snapshot_delta`.
    Capture,
    /// `restore_snapshot`, `restore_snapshot_lazy`.
    Restore,
    /// `step`, `reset`: clocking the design.
    Step,
    /// `bus_read`, `bus_write`, `irq_lines`: the AXI-Lite and IRQ pins.
    Bus,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Fork,
        Layer::Capture,
        Layer::Restore,
        Layer::Step,
        Layer::Bus,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Fork => "sim.fork",
            Layer::Capture => "sim.capture",
            Layer::Restore => "sim.restore",
            Layer::Step => "sim.step",
            Layer::Bus => "sim.bus",
        }
    }
}

/// Host time and call count of one layer within one op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Host nanoseconds spent inside the layer's calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

/// What one op spent in each [`Layer`], plus snapshot bytes captured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Indexed like [`Layer::ALL`].
    pub layers: [Tally; 5],
    /// Bytes of the snapshots captured (full image or delta).
    pub capture_bytes: u64,
}

impl OpTally {
    /// The tally of one layer.
    pub fn get(&self, layer: Layer) -> Tally {
        self.layers[layer as usize]
    }

    /// Host nanoseconds spent in all layers together.
    pub fn total_ns(&self) -> u64 {
        self.layers.iter().map(|t| t.ns).sum()
    }
}

/// One recorded span. Times are nanoseconds since the ledger's epoch;
/// ids start at 1 and `parent` 0 means a root span.
struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    op: u64,
    /// Span id of the open op (parent of layer spans).
    op_span: u64,
    next_id: u64,
    tally: OpTally,
    spans: Vec<Span>,
    dropped: u64,
}

/// Per-op layer tallies and the span buffer of a traced run. Shared by
/// every [`Timed`] replica of one prototype.
pub struct Ledger {
    epoch: Instant,
    cap: usize,
    inner: Mutex<Inner>,
}

impl Ledger {
    /// A ledger that keeps at most `span_cap` spans in memory; later
    /// spans are counted as dropped but still tallied.
    pub fn new(span_cap: usize) -> Arc<Ledger> {
        Arc::new(Ledger {
            epoch: Instant::now(),
            cap: span_cap,
            inner: Mutex::new(Inner {
                op: 0,
                op_span: 0,
                next_id: 1,
                tally: OpTally::default(),
                spans: Vec::new(),
                dropped: 0,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("ledger lock poisoned by a panicking op")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &self,
        g: &mut Inner,
        id: u64,
        parent: u64,
        name: &'static str,
        t0: Instant,
        t1: Instant,
    ) {
        if g.spans.len() < self.cap {
            let span = Span {
                id,
                parent,
                op: g.op,
                name,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
            };
            g.spans.push(span);
        } else {
            g.dropped += 1;
        }
    }

    /// Records a child span of the open op.
    fn push_child(&self, g: &mut Inner, name: &'static str, t0: Instant, t1: Instant) {
        let id = g.next_id;
        g.next_id += 1;
        let parent = g.op_span;
        self.push(g, id, parent, name, t0, t1);
    }

    /// Starts op `op`: clears the tallies and reserves the op span's id
    /// so layer spans can name it as their parent.
    pub fn begin_op(&self, op: u64) {
        let mut g = self.lock();
        g.op = op;
        g.op_span = g.next_id;
        g.next_id += 1;
        g.tally = OpTally::default();
    }

    /// Closes the op opened by [`Ledger::begin_op`] and returns its
    /// tallies.
    pub fn end_op(&self, name: &'static str, t0: Instant, t1: Instant) -> OpTally {
        let mut g = self.lock();
        let id = g.op_span;
        self.push(&mut g, id, 0, name, t0, t1);
        g.tally
    }

    /// Records one span of the current op (a stage timed outside the
    /// decorator, e.g. a protocol round trip).
    pub fn span(&self, name: &'static str, t0: Instant, t1: Instant) {
        let mut g = self.lock();
        self.push_child(&mut g, name, t0, t1);
    }

    /// Records a call into `layer` that ran from `t0` to `t1`.
    pub fn layer(&self, layer: Layer, t0: Instant, t1: Instant, bytes: u64) {
        let mut g = self.lock();
        let t = &mut g.tally.layers[layer as usize];
        t.ns += t1.saturating_duration_since(t0).as_nanos() as u64;
        t.calls += 1;
        g.tally.capture_bytes += bytes;
        self.push_child(&mut g, layer.name(), t0, t1);
    }

    /// Spans kept and spans dropped past the cap.
    pub fn span_counts(&self) -> (usize, u64) {
        let g = self.lock();
        (g.spans.len(), g.dropped)
    }

    /// The kept spans as a Chrome `trace_event` document (one track;
    /// complete `X` events in microseconds, sorted by start time, each
    /// carrying its span id, parent and op in `args`).
    pub fn chrome_trace(&self) -> String {
        let g = self.lock();
        let mut spans: Vec<&Span> = g.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut out = String::from(
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n  {\"ph\": \"M\", \"pid\": 1, \
             \"tid\": 1, \"name\": \"thread_name\", \"args\": {\"name\": \"perfbench\"}}",
        );
        for s in spans {
            out.push_str(&format!(
                ",\n  {{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"{}\", \"cat\": \"perfbench\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// An [`HwTarget`] decorator that times each call into the simulator
/// layer on a shared [`Ledger`].
///
/// It forwards every method of the trait, the defaulted ones included:
/// the engine's supervision checks read `snapshot_shape` and
/// `capture_checksum`, whose defaults return 0 and would silently turn
/// those checks off.
pub struct Timed {
    inner: Box<dyn HwTarget>,
    ledger: Arc<Ledger>,
}

impl Timed {
    /// Wraps `inner`; calls are tallied on `ledger`.
    pub fn new(inner: Box<dyn HwTarget>, ledger: Arc<Ledger>) -> Timed {
        Timed { inner, ledger }
    }

    fn time<R>(&mut self, layer: Layer, f: impl FnOnce(&mut dyn HwTarget) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        self.ledger.layer(layer, t0, Instant::now(), 0);
        r
    }
}

impl HwTarget for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn caps(&self) -> TargetCaps {
        self.inner.caps()
    }
    fn design_name(&self) -> &str {
        self.inner.design_name()
    }
    fn reset(&mut self) {
        self.time(Layer::Step, |t| t.reset());
    }
    fn step(&mut self, cycles: u64) {
        self.time(Layer::Step, |t| t.step(cycles));
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        self.time(Layer::Bus, |t| t.bus_read(addr))
    }
    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        self.time(Layer::Bus, |t| t.bus_write(addr, data))
    }
    fn irq_lines(&mut self) -> u32 {
        self.time(Layer::Bus, |t| t.irq_lines())
    }
    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        let t0 = Instant::now();
        let r = self.inner.save_snapshot();
        let bytes = r.as_ref().map_or(0, |s| s.byte_size() as u64);
        self.ledger.layer(Layer::Capture, t0, Instant::now(), bytes);
        r
    }
    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        self.time(Layer::Restore, |t| t.restore_snapshot(snap))
    }
    fn virtual_time_ns(&self) -> u64 {
        self.inner.virtual_time_ns()
    }
    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        let t0 = Instant::now();
        let r = self.inner.fork_clean();
        self.ledger.layer(Layer::Fork, t0, Instant::now(), 0);
        Ok(Box::new(Timed::new(r?, Arc::clone(&self.ledger))))
    }
    fn snapshot_shape(&self) -> u64 {
        self.inner.snapshot_shape()
    }
    fn capture_checksum(&self) -> u64 {
        self.inner.capture_checksum()
    }
    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }
    fn attach_recorder(&mut self, rec: &Recorder) {
        self.inner.attach_recorder(rec);
    }
    fn set_delta_snapshots(&mut self, on: bool) {
        self.inner.set_delta_snapshots(on);
    }
    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        let t0 = Instant::now();
        let r = self.inner.save_snapshot_delta();
        let bytes = r.as_ref().map_or(0, |c| c.byte_size() as u64);
        self.ledger.layer(Layer::Capture, t0, Instant::now(), bytes);
        r
    }
    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        self.time(Layer::Restore, |t| t.restore_snapshot_lazy(file))
    }
}

/// Host times at which an op's target began a snapshot restore, shared
/// between a [`Split`] replica and the op that reads them.
pub type Marks = Arc<Mutex<Vec<Instant>>>;

/// An [`HwTarget`] decorator that records the host time of each snapshot
/// restore and does nothing else, so an untraced op can be split into
/// the stretches between restores at the cost of one clock read each.
///
/// Like [`Timed`] it forwards every method of the trait, the defaulted
/// ones included.
pub struct Split {
    inner: Box<dyn HwTarget>,
    marks: Marks,
}

impl Split {
    /// Wraps `inner`; restore times are appended to `marks`.
    pub fn new(inner: Box<dyn HwTarget>, marks: Marks) -> Split {
        Split { inner, marks }
    }

    fn mark(&self) {
        self.marks
            .lock()
            .expect("marks lock poisoned by a panicking op")
            .push(Instant::now());
    }
}

impl HwTarget for Split {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn caps(&self) -> TargetCaps {
        self.inner.caps()
    }
    fn design_name(&self) -> &str {
        self.inner.design_name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn step(&mut self, cycles: u64) {
        self.inner.step(cycles);
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        self.inner.bus_read(addr)
    }
    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        self.inner.bus_write(addr, data)
    }
    fn irq_lines(&mut self) -> u32 {
        self.inner.irq_lines()
    }
    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        self.inner.save_snapshot()
    }
    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        self.mark();
        self.inner.restore_snapshot(snap)
    }
    fn virtual_time_ns(&self) -> u64 {
        self.inner.virtual_time_ns()
    }
    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        Ok(Box::new(Split::new(
            self.inner.fork_clean()?,
            Arc::clone(&self.marks),
        )))
    }
    fn snapshot_shape(&self) -> u64 {
        self.inner.snapshot_shape()
    }
    fn capture_checksum(&self) -> u64 {
        self.inner.capture_checksum()
    }
    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }
    fn attach_recorder(&mut self, rec: &Recorder) {
        self.inner.attach_recorder(rec);
    }
    fn set_delta_snapshots(&mut self, on: bool) {
        self.inner.set_delta_snapshots(on);
    }
    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        self.inner.save_snapshot_delta()
    }
    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        self.mark();
        self.inner.restore_snapshot_lazy(file)
    }
}

/// The op's stretches between `t0`, each restore mark and `t1`, in
/// host nanoseconds.
pub fn segments(t0: Instant, marks: &[Instant], t1: Instant) -> Vec<u64> {
    let mut out = Vec::with_capacity(marks.len() + 1);
    let mut prev = t0;
    for &m in marks.iter().chain(std::iter::once(&t1)) {
        out.push(m.saturating_duration_since(prev).as_nanos() as u64);
        prev = m;
    }
    out
}

/// The `k` fastest times of each segment of a deterministic op, over
/// every op of a run.
///
/// Host contention only ever adds time, and it comes and goes faster
/// than an op takes, so an op is rarely fast from end to end while each
/// of its segments is fast in many ops. The sum of each segment's k-th
/// fastest time estimates the op's cost on an uncontended host; memory
/// stays at `k` values per segment however long the run.
pub struct FastSegments {
    k: usize,
    ops: usize,
    /// Per segment, its fastest times so far, ascending, at most `k`.
    fastest: Vec<Vec<u64>>,
}

impl FastSegments {
    /// Keeps the `k` fastest times of each segment (`k` at least 1).
    pub fn new(k: usize) -> FastSegments {
        FastSegments {
            k: k.max(1),
            ops: 0,
            fastest: Vec::new(),
        }
    }

    /// Adds one op's segment times.
    ///
    /// # Errors
    ///
    /// The op has another number of segments than the first one added:
    /// the op is not deterministic, and its segments cannot be matched.
    pub fn add(&mut self, segments: &[u64]) -> Result<(), String> {
        if self.ops == 0 {
            self.fastest = vec![Vec::with_capacity(self.k + 1); segments.len()];
        } else if segments.len() != self.fastest.len() {
            return Err(format!(
                "{} segments, the first op had {}",
                segments.len(),
                self.fastest.len()
            ));
        }
        for (kept, &ns) in self.fastest.iter_mut().zip(segments) {
            if kept.len() < self.k || ns < kept[kept.len() - 1] {
                let at = kept.partition_point(|&v| v <= ns);
                kept.insert(at, ns);
                kept.truncate(self.k);
            }
        }
        self.ops += 1;
        Ok(())
    }

    /// Ops added.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Segments per op.
    pub fn segments(&self) -> usize {
        self.fastest.len()
    }

    /// Sum over segments of each one's k-th fastest time (its slowest
    /// kept, when fewer than `k` ops were added), in host nanoseconds;
    /// `None` before the first op.
    pub fn estimate_ns(&self) -> Option<u64> {
        (self.ops > 0).then(|| self.fastest.iter().filter_map(|v| v.last()).sum())
    }
}

/// Host time of each set-up stage, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `hardsnap_isa::assemble` of the workload's firmware.
    pub assemble_ns: u64,
    /// `hardsnap_periph::design()`: parse every shipped Verilog source.
    pub parse_ns: u64,
    /// `hardsnap_rtl::elaborate(.., "soc_top")`.
    pub elaborate_ns: u64,
    /// `SimTarget::new`: compile the flat module into the simulator.
    pub build_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Assembles `firmware` and builds the SoC prototype target, timing
/// each stage.
///
/// # Errors
///
/// A message naming the stage that failed.
pub fn build_soc(
    firmware: &str,
) -> Result<(hardsnap_isa::Program, hardsnap_sim::SimTarget, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let program = hardsnap_isa::assemble(firmware).map_err(|e| format!("assemble: {e}"))?;
    times.assemble_ns = ns_since(t);
    let t = Instant::now();
    let design = hardsnap_periph::design().map_err(|e| format!("verilog parse: {e}"))?;
    times.parse_ns = ns_since(t);
    let t = Instant::now();
    let module =
        hardsnap_rtl::elaborate(&design, "soc_top").map_err(|e| format!("elaborate: {e}"))?;
    times.elaborate_ns = ns_since(t);
    let t = Instant::now();
    let target = hardsnap_sim::SimTarget::new(module).map_err(|e| format!("sim build: {e}"))?;
    times.build_ns = ns_since(t);
    Ok((program, target, times))
}

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_segments_sum_each_segments_kth_fastest() {
        let mut f = FastSegments::new(2);
        assert_eq!(f.estimate_ns(), None);
        f.add(&[10, 50]).unwrap();
        // One op: each segment's slowest kept is its only time.
        assert_eq!(f.estimate_ns(), Some(60));
        f.add(&[30, 20]).unwrap();
        f.add(&[20, 40]).unwrap();
        f.add(&[5, 90]).unwrap();
        // Segment 0 keeps 5, 10; segment 1 keeps 20, 40.
        assert_eq!(f.estimate_ns(), Some(10 + 40));
        assert_eq!((f.ops(), f.segments()), (4, 2));
        assert!(f.add(&[1, 2, 3]).is_err());
        assert_eq!(f.ops(), 4);
    }

    #[test]
    fn segments_split_at_each_mark() {
        let t0 = Instant::now();
        let d = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        assert_eq!(
            segments(t0, &[d(1), d(4)], d(10)),
            vec![1_000_000, 3_000_000, 6_000_000]
        );
        assert_eq!(segments(t0, &[], d(2)), vec![2_000_000]);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.1), Some(1.4));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn ledger_caps_spans_but_keeps_tallying() {
        let l = Ledger::new(2);
        l.begin_op(1);
        let t = Instant::now();
        for _ in 0..3 {
            l.layer(Layer::Bus, t, t, 0);
        }
        let tally = l.end_op("op", t, t);
        assert_eq!(tally.get(Layer::Bus).calls, 3);
        assert_eq!(l.span_counts(), (2, 2));
    }
}
