//! Multi-worker Algorithm 1: parallel exploration over replicated
//! hardware targets.
//!
//! The sequential [`Engine`](crate::Engine) time-multiplexes one
//! hardware device between all symbolic states. Snapshots make that
//! sound, but the device is still a serial bottleneck: only one state
//! makes progress at a time. [`ParallelEngine`] removes the bottleneck
//! by giving each of N worker threads a **private replica** of the
//! target ([`HwTarget::fork_clean`]) while sharing one lock-sharded
//! [`SnapshotStore`]. Workers pull `(state, snapshot)` work items from
//! a shared deque, perform their own `RestoreState`/`UpdateState`
//! context switches against their replica, and publish forked
//! successors back with fresh private snapshots.
//!
//! ## Determinism by merge order
//!
//! Scheduling is racy on purpose (work-sharing deque), but the paper's
//! context-switch discipline makes each state's execution a pure
//! function of `(state, its snapshot)`: a quantum starts by restoring
//! the state's private hardware image, so no worker ever observes
//! another state's device. When exploration runs to completion the
//! *set* of bugs, completed paths and covered PCs is therefore
//! schedule-independent; the engine merges them **ordered by state id**
//! (ids are themselves deterministic, derived from the fork tree — see
//! `SymState::next_fork_id`), not by arrival order, so a given seed
//! yields an identical [`RunResult`] regardless of worker count.
//! [`RunResult::canonical_digest`] is the bit-equality check used by
//! the regression tests. Budget truncation (`max_instructions`,
//! `max_paths`, `max_states`) is the one schedule-dependent edge: which
//! states are cut off depends on timing, so determinism is guaranteed
//! for runs that finish inside their budgets.

use crate::engine::{
    budget_stop, trace_io, ConsistencyMode, EngineConfig, EngineMetrics, RunResult, StopReason,
};
use crate::snapshots::{SnapId, SnapshotStore};
use crate::supervise::{FaultSummary, Supervisor};
use hardsnap_bus::{BusError, HwSnapshot, HwTarget, SnapshotCapture, SnapshotDelta, TargetError};
use hardsnap_symex::{
    BugReport, Executor, PortableState, SolverStats, StepOutcome, SymMmio, SymState,
};
use hardsnap_telemetry::{Counter, Metric, MetricsSnapshot, Recorder};
use hardsnap_util::sync::{scope, Mutex};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Condvar;

/// A schedulable unit: one symbolic state detached from any term pool,
/// plus its private hardware snapshot (`None` = power-on hardware).
///
/// A work item is re-runnable: a quantum is a pure function of
/// `(state, snapshot)` and publishes nothing until its last fallible
/// target operation has succeeded, so an attempt that dies to a
/// transport fault can simply be replayed — on the same replica after a
/// reset, or on a replacement after a quarantine — and produces
/// bit-identical successors (fork ids derive from the state's own fork
/// nonce, never from executor instance or timing).
struct WorkItem {
    state: PortableState,
    snap: Option<SnapId>,
    /// Failed attempts carried across quarantine re-queues, so a state
    /// whose quantum keeps dying counts toward `max_item_attempts` no
    /// matter how many fresh replicas pick it up. Without this, an item
    /// poisoned by a persistent fault (e.g. an unreadable snapshot)
    /// cycles re-queue → fail → quarantine → re-queue forever once no
    /// budget is left to trip.
    strikes: u32,
}

/// Queue state guarded by one mutex: the deque, the number of items
/// currently being processed (for termination detection) and the stop
/// flag raised on budget exhaustion.
struct QueueState {
    items: VecDeque<WorkItem>,
    inflight: usize,
    stopped: bool,
    dropped: u64,
    /// Why the stop flag was raised (first budget to trip, in the
    /// canonical priority order); `None` while running or when the
    /// queue drained normally.
    why: Option<StopReason>,
}

/// Everything the workers share.
struct Shared {
    q: Mutex<QueueState>,
    cv: Condvar,
    store: SnapshotStore,
    executed: AtomicU64,
    paths: AtomicU64,
    /// Hardware virtual time consumed across all workers (per-attempt
    /// deltas, including supervised-retry backoff), for the
    /// `max_vtime_ns` budget.
    vtime: AtomicU64,
    /// Scheduling quanta started across all workers, for the
    /// `max_quanta` budget.
    quanta: AtomicU64,
    /// Spare target taken by the first worker whose replica cannot
    /// rebuild itself (`fork_clean` unsupported) after a quarantine —
    /// typically a simulator standing in for a failed FPGA board.
    failover: Mutex<Option<Box<dyn HwTarget>>>,
}

/// One worker's private results, merged deterministically after join.
#[derive(Default)]
struct WorkerOutput {
    bugs: Vec<BugReport>,
    completed: Vec<PortableState>,
    covered: HashSet<u32>,
    metrics: EngineMetrics,
    vtime_ns: u64,
    /// Recovery counters: retries/recoveries from this worker's
    /// supervisor, quarantines it performed, faults injected across
    /// every replica it drove (including replaced ones).
    faults: FaultSummary,
    /// Unrecoverable-fault records, each naming the state it killed.
    fatal: Vec<String>,
    /// This worker's solver statistics.
    solver: SolverStats,
    /// This worker's telemetry (its own trace track), `None` when
    /// telemetry is disabled.
    telemetry: Option<MetricsSnapshot>,
}

/// Per-attempt scratch: results a quantum produces before its success
/// is known. Merged into the worker's output only when the attempt
/// completes; an aborted attempt discards it (and un-counts its
/// instructions from the shared budget) so the replay cannot
/// double-report anything.
#[derive(Default)]
struct Attempt {
    bugs: Vec<BugReport>,
    completed: Vec<PortableState>,
    executed: u64,
}

/// MMIO proxy over a worker's private replica. Unlike the sequential
/// engine's proxy it keeps no I/O log: the parallel engine is
/// HardSnap-only, and replay logs exist for the reboot baseline.
///
/// Transient bus failures are retried by the supervisor; if one still
/// exhausts its retries the proxy raises `abort` so the quantum is torn
/// down and replayed, rather than letting a link fault masquerade as a
/// firmware bus bug. Deterministic `SlaveError`s pass through to the
/// executor exactly as on an honest transport.
struct ReplicaMmio<'a> {
    target: &'a mut dyn HwTarget,
    sup: &'a mut Supervisor,
    abort: Option<BusError>,
}

impl SymMmio for ReplicaMmio<'_> {
    fn mmio_read(&mut self, _state: &SymState, addr: u32) -> Result<u32, BusError> {
        let v = match self.sup.bus_read(self.target, addr) {
            Ok(v) => v,
            Err(e) => {
                if matches!(e, BusError::Timeout { .. } | BusError::NotReady) {
                    self.abort = Some(e.clone());
                }
                return Err(e);
            }
        };
        if trace_io() {
            eprintln!("par   R {addr:#010x} -> {v:#010x}");
        }
        Ok(v)
    }

    fn mmio_write(&mut self, _state: &SymState, addr: u32, data: u32) -> Result<(), BusError> {
        if let Err(e) = self.sup.bus_write(self.target, addr, data) {
            if matches!(e, BusError::Timeout { .. } | BusError::NotReady) {
                self.abort = Some(e.clone());
            }
            return Err(e);
        }
        if trace_io() {
            eprintln!("par   W {addr:#010x} <- {data:#010x}");
        }
        Ok(())
    }
}

/// The parallel HardSnap engine: N workers, N target replicas, one
/// shared snapshot store.
pub struct ParallelEngine {
    /// Merge-side executor: completed paths are imported into this pool
    /// (sorted by state id) so callers can inspect them exactly as with
    /// the sequential engine. Its solver statistics accumulate the
    /// workers' after each run.
    pub executor: Executor,
    /// The shared, lock-sharded snapshot store.
    pub store: SnapshotStore,
    config: EngineConfig,
    replicas: Vec<Box<dyn HwTarget>>,
    /// Optional spare target handed to the first quarantining worker
    /// whose replica cannot rebuild itself (see
    /// [`ParallelEngine::set_failover`]).
    failover: Option<Box<dyn HwTarget>>,
    roots: Vec<WorkItem>,
    /// Work items still queued when the last run stopped on a budget:
    /// the schedulable frontier, preserved for campaign checkpointing.
    leftover: Vec<WorkItem>,
    /// Union of covered PCs across runs (campaign checkpointing
    /// persists the set itself; `RunResult` only carries its size).
    covered: HashSet<u32>,
    /// Results carried in from a saved campaign
    /// ([`ParallelEngine::seed_prior`]): folded into the next `run()`'s
    /// budgets and result so a save → resume split reports exactly what
    /// one uninterrupted run would have.
    carry_bugs: Vec<BugReport>,
    carry_completed: Vec<PortableState>,
    carry_instructions: u64,
    carry_paths: u64,
    carry_vtime_ns: u64,
    carry_quanta: u64,
    /// Merged metrics of the last run.
    pub metrics: EngineMetrics,
    /// Hardware virtual time accumulated by each worker's replica
    /// during the last run. The replicas run concurrently on real
    /// deployments, so the campaign's modeled wall clock is the *max*
    /// of these (while [`RunResult::hw_virtual_time_ns`] stays the
    /// schedule-invariant sum).
    pub worker_vtimes_ns: Vec<u64>,
}

impl ParallelEngine {
    /// Creates an engine with `workers` replicas forked from
    /// `prototype` (clamped to ≥ 1). The prototype itself is not
    /// driven; every worker gets a clean power-on copy.
    ///
    /// # Errors
    ///
    /// [`TargetError::Unsupported`] when the configuration is not
    /// [`ConsistencyMode::HardSnap`] (the baselines intrinsically
    /// serialize on one shared device) or the target cannot replicate
    /// itself; any error from [`HwTarget::fork_clean`].
    pub fn new(
        prototype: &dyn HwTarget,
        workers: usize,
        config: EngineConfig,
    ) -> Result<Self, TargetError> {
        if config.mode != ConsistencyMode::HardSnap {
            return Err(TargetError::Unsupported(
                "parallel engine requires ConsistencyMode::HardSnap".into(),
            ));
        }
        let replicas = (0..workers.max(1))
            .map(|_| prototype.fork_clean())
            .collect::<Result<Vec<_>, _>>()?;
        let store = SnapshotStore::new();
        store.set_mem_budget(config.snapshot_mem_budget);
        Ok(ParallelEngine {
            executor: Executor::new(config.policy),
            store,
            config,
            replicas,
            failover: None,
            roots: Vec::new(),
            leftover: Vec::new(),
            covered: HashSet::new(),
            carry_bugs: Vec::new(),
            carry_completed: Vec::new(),
            carry_instructions: 0,
            carry_paths: 0,
            carry_vtime_ns: 0,
            carry_quanta: 0,
            metrics: EngineMetrics::default(),
            worker_vtimes_ns: Vec::new(),
        })
    }

    /// Number of worker threads / target replicas.
    pub fn workers(&self) -> usize {
        self.replicas.len()
    }

    /// Installs a spare target used for failover: when a quarantined
    /// replica cannot rebuild itself via [`HwTarget::fork_clean`], the
    /// first worker in that situation takes this spare instead of
    /// soldiering on with a reset of the faulty device. Snapshots are
    /// portable across targets sharing the canonical format (paper
    /// §III-B), so the spare may be a different platform — typically a
    /// simulator standing in for a failed FPGA board.
    pub fn set_failover(&mut self, target: Box<dyn HwTarget>) {
        self.failover = Some(target);
    }

    /// Enqueues the initial state of `program` (power-on hardware; each
    /// root is reset on the replica that first picks it up).
    pub fn load_firmware(&mut self, program: &hardsnap_isa::Program) {
        let s = self
            .executor
            .initial_state(program.image.clone(), program.entry);
        self.roots.push(WorkItem {
            state: PortableState::export(&self.executor.pool, &s),
            snap: None,
            strikes: 0,
        });
    }

    /// Runs the analysis to completion (or budget exhaustion) across
    /// all workers and merges the results in state-id order.
    pub fn run(&mut self) -> RunResult {
        let host_start = std::time::Instant::now();
        // A resumed campaign continues where the saved run stopped: the
        // shared budget counters start from the carried-in totals, and
        // if those already exhaust a budget the queue starts stopped so
        // the frontier survives untouched for the next checkpoint.
        let carry_instructions = std::mem::take(&mut self.carry_instructions);
        let carry_paths = std::mem::take(&mut self.carry_paths);
        let carry_vtime = std::mem::take(&mut self.carry_vtime_ns);
        let carry_quanta = std::mem::take(&mut self.carry_quanta);
        let exhausted = budget_stop(
            &self.config,
            carry_instructions,
            carry_paths,
            carry_vtime,
            carry_quanta,
        );
        let shared = Shared {
            q: Mutex::new(QueueState {
                items: self
                    .leftover
                    .drain(..)
                    .chain(self.roots.drain(..))
                    .collect(),
                inflight: 0,
                stopped: exhausted.is_some(),
                dropped: 0,
                why: exhausted,
            }),
            cv: Condvar::new(),
            store: self.store.clone(),
            executed: AtomicU64::new(carry_instructions),
            paths: AtomicU64::new(carry_paths),
            vtime: AtomicU64::new(carry_vtime),
            quanta: AtomicU64::new(carry_quanta),
            failover: Mutex::new(self.failover.take()),
        };
        let config = self.config.clone();
        let mut outputs: Vec<WorkerOutput> = {
            let shared = &shared;
            let config = &config;
            scope(|scp| {
                let handles: Vec<_> = self
                    .replicas
                    .iter_mut()
                    .enumerate()
                    .map(|(w, t)| scp.spawn(move || run_worker(shared, w, t, config)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        };
        // Unused spare survives for the next run.
        self.failover = shared.failover.lock().take();
        // Whatever the stop flag stranded in the queue is the
        // still-schedulable frontier: keep it (and its snapshots) for
        // campaign checkpointing instead of dropping it on the floor.
        self.leftover = shared.q.lock().items.drain(..).collect();

        // Deterministic merge: order by state id, never by arrival.
        // Carried-in results from a resumed campaign merge exactly like
        // another worker's output.
        let mut bugs: Vec<BugReport> = outputs.iter_mut().flat_map(|o| o.bugs.drain(..)).collect();
        bugs.append(&mut self.carry_bugs);
        bugs.sort_by(|a, b| {
            (a.state_id.0, a.pc, kind_rank(a.kind), &a.description).cmp(&(
                b.state_id.0,
                b.pc,
                kind_rank(b.kind),
                &b.description,
            ))
        });
        let mut completed_port: Vec<PortableState> = outputs
            .iter_mut()
            .flat_map(|o| o.completed.drain(..))
            .collect();
        completed_port.append(&mut self.carry_completed);
        completed_port.sort_by_key(|s| s.id.0);
        completed_port.truncate(self.config.max_paths);
        let completed: Vec<SymState> = completed_port
            .iter()
            .map(|p| p.import(&mut self.executor.pool))
            .collect();
        let mut metrics = EngineMetrics::default();
        let mut vtime: u64 = 0;
        let mut faults = FaultSummary::default();
        let mut fault_log: Vec<String> = Vec::new();
        // Telemetry merges in replica order (outputs are joined in spawn
        // order), so track ids and labels are stable across runs.
        let mut telemetry: Option<MetricsSnapshot> = None;
        self.worker_vtimes_ns.clear();
        for o in &mut outputs {
            self.covered.extend(o.covered.iter().copied());
            merge_metrics(&mut metrics, o.metrics);
            vtime += o.vtime_ns;
            self.worker_vtimes_ns.push(o.vtime_ns);
            faults.merge(&o.faults);
            fault_log.append(&mut o.fatal);
            self.executor.solver.stats.merge(&o.solver);
            if let Some(t) = o.telemetry.take() {
                match &mut telemetry {
                    Some(acc) => acc.merge(t),
                    None => telemetry = Some(t),
                }
            }
        }
        if let Some(t) = &mut telemetry {
            let st = self.store.stats();
            t.add_counter("store_hits", st.hits);
            t.add_counter("store_misses", st.misses);
            t.add_counter("store_evictions", st.evictions);
            t.add_counter("store_deferred", st.deferred);
            t.add_counter("store_spills", st.spills);
            t.add_counter("store_page_ins", st.page_ins);
            t.add_counter("store_resident_bytes_hwm", self.store.peak_bytes() as u64);
        }
        let stop = {
            let g = shared.q.lock();
            metrics.states_dropped += g.dropped;
            if g.stopped {
                g.why.unwrap_or(StopReason::Instructions)
            } else {
                StopReason::Complete
            }
        };
        metrics.paths_completed += carry_paths;
        metrics.quanta += carry_quanta;
        self.metrics = metrics;

        RunResult {
            sample_console: completed
                .first()
                .map(|s| s.console.clone())
                .unwrap_or_default(),
            bugs,
            completed,
            metrics,
            hw_virtual_time_ns: vtime + carry_vtime,
            host_time: host_start.elapsed(),
            instructions: shared.executed.load(Ordering::Relaxed),
            covered_pcs: self.covered.len(),
            faults,
            fault_log,
            telemetry,
            stop,
        }
    }

    /// The set of distinct firmware PCs covered so far (campaign
    /// checkpointing persists the set itself; `RunResult` only carries
    /// its size).
    pub fn covered_set(&self) -> &HashSet<u32> {
        &self.covered
    }

    /// Drains the schedulable frontier for campaign checkpointing:
    /// every work item stranded by a budget stop (plus any never-run
    /// roots) leaves as a portable state plus the id of its private
    /// snapshot in [`ParallelEngine::store`] (`None` for a power-on
    /// root). Sorted by state id so the checkpoint is byte-stable
    /// regardless of which worker last touched the queue.
    pub fn take_frontier(&mut self) -> Vec<(PortableState, Option<SnapId>)> {
        let mut out: Vec<(PortableState, Option<SnapId>)> = self
            .leftover
            .drain(..)
            .chain(self.roots.drain(..))
            .map(|it| (it.state, it.snap))
            .collect();
        out.sort_by_key(|(s, _)| s.id.0);
        out
    }

    /// Enqueues a frontier exported by a previous engine's
    /// `take_frontier` (with snapshot ids re-mapped to this engine's
    /// store by the campaign loader).
    pub fn resume_frontier(&mut self, frontier: Vec<(PortableState, Option<SnapId>)>) {
        for (state, snap) in frontier {
            self.roots.push(WorkItem {
                state,
                snap,
                strikes: 0,
            });
        }
    }

    /// Seeds the engine with the results of the run that produced a
    /// saved campaign, so the next [`ParallelEngine::run`] folds them
    /// into its budgets (instruction and path caps continue where the
    /// saved run stopped) and into its `RunResult` — making
    /// save → resume report exactly what one uninterrupted run would
    /// have.
    pub fn seed_prior(
        &mut self,
        instructions: u64,
        paths_completed: u64,
        vtime_ns: u64,
        quanta: u64,
        covered: impl IntoIterator<Item = u32>,
        bugs: Vec<BugReport>,
        completed: Vec<PortableState>,
    ) {
        self.carry_instructions = instructions;
        self.carry_paths = paths_completed;
        self.carry_vtime_ns = vtime_ns;
        self.carry_quanta = quanta;
        self.covered.extend(covered);
        self.carry_bugs = bugs;
        self.carry_completed = completed;
    }
}

/// Stable ordering rank for [`hardsnap_symex::BugKind`] (merge + digest
/// sort key).
pub(crate) fn kind_rank(kind: hardsnap_symex::BugKind) -> u8 {
    use hardsnap_symex::BugKind::*;
    match kind {
        AssertFailed => 0,
        FailHit => 1,
        Unmapped => 2,
        Unaligned => 3,
        IllegalInstruction => 4,
        Bus => 5,
        MmioByteAccess => 6,
    }
}

fn merge_metrics(into: &mut EngineMetrics, m: EngineMetrics) {
    into.context_switches += m.context_switches;
    into.snapshots_saved += m.snapshots_saved;
    into.snapshots_restored += m.snapshots_restored;
    into.reboots += m.reboots;
    into.replayed_ios += m.replayed_ios;
    into.paths_completed += m.paths_completed;
    into.states_dropped += m.states_dropped;
    into.irqs_delivered += m.irqs_delivered;
    into.quanta += m.quanta;
}

/// A capture resolved into its store-ready form: either a native delta
/// against a base already registered in the shared store, or a full
/// image (anchor mismatch, or delta mode off).
enum Stored {
    Native(SnapId, SnapshotDelta, Arc<HwSnapshot>),
    Full(HwSnapshot),
}

/// Resolves a target capture against the worker-local base anchor,
/// registering fresh full captures as shared bases. A delta whose base
/// `Arc` is not the anchored one (target rebased without the worker
/// seeing the full image) is materialized once and stored full.
fn resolve_capture(
    store: &SnapshotStore,
    anchor: &mut Option<(SnapId, Arc<HwSnapshot>)>,
    cap: SnapshotCapture,
) -> Result<Stored, TargetError> {
    match cap {
        SnapshotCapture::Full(arc) => {
            let bid = store.insert_base((*arc).clone());
            *anchor = Some((bid, arc.clone()));
            let empty = SnapshotDelta {
                regs: Vec::new(),
                mem_words: Vec::new(),
                cycle: arc.cycle,
            };
            Ok(Stored::Native(bid, empty, arc))
        }
        SnapshotCapture::Delta { base, delta } => match anchor {
            Some((bid, tracked)) if Arc::ptr_eq(tracked, &base) => {
                Ok(Stored::Native(*bid, delta, base))
            }
            _ => match delta.apply(&base) {
                Ok(full) => Ok(Stored::Full(full)),
                Err(e) => Err(TargetError::CorruptSnapshot(format!(
                    "native delta unusable: {e}"
                ))),
            },
        },
    }
}

/// Installs a resolved capture into the shared store, updating
/// `existing` in place when the state already owns a snapshot id.
/// Native installs are O(delta); if the anchored base vanished from the
/// store (all dependents retired), falls back to a one-time full
/// materialization rather than losing the snapshot.
///
/// # Errors
///
/// [`TargetError::CorruptSnapshot`] when the fallback materialization
/// fails — the target handed back a delta that no longer applies to
/// the base it was captured against, so the snapshot content is gone
/// and the attempt must be torn down and replayed.
fn install_stored(
    store: &SnapshotStore,
    stored: &Stored,
    existing: Option<SnapId>,
) -> Result<SnapId, TargetError> {
    let materialize = |delta: &SnapshotDelta, base: &Arc<HwSnapshot>| {
        delta.apply(base).map_err(|e| {
            TargetError::CorruptSnapshot(format!(
                "capture delta no longer applies to its base: {e}"
            ))
        })
    };
    Ok(match stored {
        Stored::Native(bid, delta, base) => match existing {
            Some(sid) => {
                if !store.update_delta_native(sid, *bid, delta.clone()) {
                    store.update(sid, materialize(delta, base)?);
                }
                sid
            }
            None => match store.insert_delta_native(*bid, delta.clone()) {
                Some(sid) => sid,
                None => store.insert(materialize(delta, base)?),
            },
        },
        Stored::Full(full) => match existing {
            Some(sid) => {
                store.update(sid, full.clone());
                sid
            }
            None => store.insert(full.clone()),
        },
    })
}

/// Raises the stop flag (recording why) when a budget has tripped.
/// Called at every quantum boundary — item hand-out and item retire —
/// so cancellation and deadlines are honoured within one quantum per
/// worker without any mid-quantum interruption.
fn check_budgets(shared: &Shared, g: &mut QueueState, config: &EngineConfig) {
    if g.stopped {
        return;
    }
    if let Some(why) = budget_stop(
        config,
        shared.executed.load(Ordering::Relaxed),
        shared.paths.load(Ordering::Relaxed),
        shared.vtime.load(Ordering::Relaxed),
        shared.quanta.load(Ordering::Relaxed),
    ) {
        g.stopped = true;
        g.why = Some(why);
    }
}

/// Blocks until a work item is available; returns `None` on
/// termination (queue drained with nothing in flight, or stop flag).
fn next_item(shared: &Shared, config: &EngineConfig) -> Option<WorkItem> {
    let mut g = shared.q.lock();
    loop {
        check_budgets(shared, &mut g, config);
        if g.stopped {
            shared.cv.notify_all();
            return None;
        }
        if let Some(it) = g.items.pop_front() {
            g.inflight += 1;
            return Some(it);
        }
        if g.inflight == 0 {
            shared.cv.notify_all();
            return None;
        }
        g = shared
            .cv
            .wait(g)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Publishes `successors` and retires the in-flight slot, raising the
/// stop flag when a budget is exhausted and dropping successors beyond
/// the fork-bomb guard.
fn finish_item(shared: &Shared, successors: Vec<WorkItem>, config: &EngineConfig) {
    let mut g = shared.q.lock();
    g.inflight -= 1;
    for s in successors {
        if g.items.len() + g.inflight >= config.max_states {
            g.dropped += 1;
            if let Some(sid) = s.snap {
                shared.store.remove(sid);
            }
            continue;
        }
        g.items.push_back(s);
    }
    check_budgets(shared, &mut g, config);
    drop(g);
    shared.cv.notify_all();
}

/// One worker: a private executor (term pool + solver) and a private
/// target replica, looping over shared work items.
///
/// Each item runs as an **attempt**: a quantum that publishes nothing
/// until every fallible target operation has succeeded. When an attempt
/// dies to a transport fault the worker un-counts its instructions,
/// resets the replica and replays the item — deterministically, since a
/// quantum is a pure function of `(state, snapshot)`. A replica that
/// burns through its fault budget is quarantined: the worker rebuilds a
/// fresh replica ([`HwTarget::fork_clean`], falling back to the shared
/// failover spare) and re-queues the item, so in-flight work survives a
/// dead board. Only after `max_item_attempts` total failures is the
/// state abandoned (and named in the fault log).
fn run_worker(
    shared: &Shared,
    widx: usize,
    replica: &mut Box<dyn HwTarget>,
    config: &EngineConfig,
) -> WorkerOutput {
    let mut ex = Executor::new(config.policy);
    let mut out = WorkerOutput::default();
    let mut sup = Supervisor::new(config.retry);
    // One trace track per worker replica; all workers share the process
    // epoch, so their tracks line up on one timeline.
    let rec = Recorder::from_config(&config.telemetry, widx as u32, format!("worker-{widx}"));
    replica.attach_recorder(&rec);
    if config.delta_snapshots {
        replica.set_delta_snapshots(true);
    }
    sup.recorder = rec.clone();
    // Virtual time accumulates across replica replacements: the base
    // resets whenever a fresh replica (with a fresh clock) is installed.
    let mut vtime_accum: u64 = 0;
    let mut vtime_base = replica.virtual_time_ns();
    // Terminal quantum failures since this replica was (re)built.
    let mut health_faults: u32 = 0;
    // Worker-local delta anchor (delta-snapshot mode): the replica's
    // live base `Arc` mapped to its shared-store id, so native deltas
    // install in O(delta). The anchor choice only affects storage
    // representation, never snapshot content, so worker-local anchors
    // do not perturb determinism.
    let mut anchor: Option<(SnapId, Arc<HwSnapshot>)> = None;
    'items: while let Some(mut item) = next_item(shared, config) {
        // Resume the strike count a quarantine re-queue carried over:
        // `max_item_attempts` bounds an item's *total* failures, not
        // failures per pickup.
        let mut attempts: u32 = item.strikes;
        loop {
            attempts += 1;
            let mut scratch = Attempt::default();
            // Per-attempt virtual-time delta, charged to the shared
            // `max_vtime_ns` budget. Aborted attempts still consumed
            // real device time, so their cost stays charged (unlike
            // their instructions, which the replay re-counts).
            let vt0 = replica.virtual_time_ns() + sup.extra_vtime_ns;
            let outcome = run_quantum(
                shared,
                &mut ex,
                replica.as_mut(),
                config,
                &item,
                &mut scratch,
                &mut out,
                &mut anchor,
                &mut sup,
                &rec,
            );
            let vt1 = replica.virtual_time_ns() + sup.extra_vtime_ns;
            shared
                .vtime
                .fetch_add(vt1.saturating_sub(vt0), Ordering::Relaxed);
            match outcome {
                Ok(successors) => {
                    rec.observe(Metric::QuantumInstructions, scratch.executed);
                    out.bugs.append(&mut scratch.bugs);
                    out.completed.append(&mut scratch.completed);
                    finish_item(shared, successors, config);
                    continue 'items;
                }
                Err(e) => {
                    // Make the aborted attempt invisible: the replay
                    // re-counts these instructions (they feed the
                    // canonical digest and the stop condition).
                    shared
                        .executed
                        .fetch_sub(scratch.executed, Ordering::Relaxed);
                    health_faults += 1;
                    if attempts >= config.retry.max_item_attempts {
                        out.fatal.push(format!(
                            "state {:?} killed after {attempts} attempts: {e}",
                            item.state.id
                        ));
                        out.metrics.states_dropped += 1;
                        if let Some(sid) = item.snap {
                            shared.store.remove(sid);
                        }
                        finish_item(shared, Vec::new(), config);
                        continue 'items;
                    }
                    if health_faults > config.retry.replica_fault_budget {
                        // Quarantine: this replica has exceeded its
                        // fault budget. Rebuild a clean replacement and
                        // re-queue the item — another (healthy) worker
                        // may pick it up first. Re-queuing cannot trip
                        // the fork-bomb drop guard: finish_item frees
                        // this item's in-flight slot before re-adding
                        // it, so the total never grows.
                        out.faults.quarantined += 1;
                        rec.count(Counter::Quarantines);
                        rec.instant("fault", "quarantine", u64::from(attempts));
                        let fresh = match replica.fork_clean() {
                            Ok(t) => Some(t),
                            Err(_) => shared.failover.lock().take(),
                        };
                        match fresh {
                            Some(t) => {
                                // Retire the old replica's books before
                                // it is dropped.
                                if let Some(stats) = replica.fault_stats() {
                                    out.faults.injected += stats.injected();
                                }
                                vtime_accum += replica.virtual_time_ns().saturating_sub(vtime_base);
                                *replica = t;
                                replica.attach_recorder(&rec);
                                if config.delta_snapshots {
                                    replica.set_delta_snapshots(true);
                                }
                                // The replacement has no live base; its
                                // first capture re-anchors.
                                anchor = None;
                                vtime_base = replica.virtual_time_ns();
                            }
                            None => {
                                // No way to rebuild: keep the device,
                                // full reset, hope for the best.
                                replica.reset();
                            }
                        }
                        health_faults = 0;
                        item.strikes = attempts;
                        finish_item(shared, vec![item], config);
                        continue 'items;
                    }
                    // Within budget: reset the wedged replica and replay
                    // the item locally.
                    replica.reset();
                }
            }
        }
    }
    out.vtime_ns =
        vtime_accum + replica.virtual_time_ns().saturating_sub(vtime_base) + sup.extra_vtime_ns;
    out.faults.retried = sup.retried;
    out.faults.recovered = sup.recovered;
    out.faults.injected += replica.fault_stats().map(|s| s.injected()).unwrap_or(0);
    out.telemetry = rec.snapshot();
    out.solver = ex.solver.stats;
    out
}

/// Runs one work item for up to one quantum on the worker's replica:
/// `RestoreState`, step/fork/halt, `UpdateState`. Returns the work
/// items to publish back.
///
/// **Abort safety:** every path through this function mutates the
/// shared store only *after* its last fallible target operation, and
/// buffers bugs/completed paths in `scratch`. An `Err` return therefore
/// leaves the store exactly as the attempt found it, and replaying the
/// same `(state, snapshot)` item reproduces the identical outcome —
/// including fork ids, which derive from the state's own fork nonce.
#[allow(clippy::too_many_arguments)]
fn run_quantum(
    shared: &Shared,
    ex: &mut Executor,
    target: &mut dyn HwTarget,
    config: &EngineConfig,
    item: &WorkItem,
    scratch: &mut Attempt,
    out: &mut WorkerOutput,
    anchor: &mut Option<(SnapId, Arc<HwSnapshot>)>,
    sup: &mut Supervisor,
    rec: &Recorder,
) -> Result<Vec<WorkItem>, TargetError> {
    let mut state = item.state.import(&mut ex.pool);
    let _qspan = rec.span("engine", "quantum");
    rec.count(Counter::Quanta);
    out.metrics.quanta += 1;
    shared.quanta.fetch_add(1, Ordering::Relaxed);
    // RestoreState: the item's private snapshot, or power-on hardware
    // for a root state.
    out.metrics.context_switches += 1;
    rec.count(Counter::ContextSwitches);
    match item.snap {
        Some(sid) => {
            let snap = shared
                .store
                .try_get(sid)
                .map_err(|e| TargetError::CorruptSnapshot(format!("state {:?}: {e}", state.id)))?;
            sup.restore_snapshot(target, &snap)?;
            out.metrics.snapshots_restored += 1;
        }
        None => target.reset(),
    }

    // UpdateState for a surviving continuation: save the live context
    // into the state's private snapshot and requeue. The store mutation
    // happens only after the supervised save has succeeded.
    let save_continuation = |ex: &Executor,
                             target: &mut dyn HwTarget,
                             out: &mut WorkerOutput,
                             anchor: &mut Option<(SnapId, Arc<HwSnapshot>)>,
                             sup: &mut Supervisor,
                             s: &SymState|
     -> Result<WorkItem, TargetError> {
        let sid = if config.delta_snapshots {
            let cap = sup.save_capture(target)?;
            out.metrics.snapshots_saved += 1;
            let stored = resolve_capture(&shared.store, anchor, cap)?;
            install_stored(&shared.store, &stored, item.snap)?
        } else {
            let snap = sup.save_snapshot(target)?;
            out.metrics.snapshots_saved += 1;
            match item.snap {
                Some(sid) => {
                    shared.store.update(sid, snap);
                    sid
                }
                None => shared.store.insert(snap),
            }
        };
        Ok(WorkItem {
            state: PortableState::export(&ex.pool, s),
            snap: Some(sid),
            strikes: 0,
        })
    };

    let mut remaining = config.quantum.max(1);
    loop {
        // ServePendingInterrupt: replica-local, so delivery depends
        // only on the restored hardware state. Supervised: a glitched
        // IRQ read is re-sampled until two consecutive reads agree, so
        // EMI on the interrupt net never changes which interrupt is
        // delivered (digest identity under `--fault-rate`).
        let lines = sup.irq_lines(&mut *target);
        if lines != 0 && ex.enter_irq(&mut state, lines).is_some() {
            out.metrics.irqs_delivered += 1;
            rec.count(Counter::IrqsDelivered);
        }

        let state_id = state.id;
        out.covered.insert(state.pc);
        let mut proxy = ReplicaMmio {
            target: &mut *target,
            sup: &mut *sup,
            abort: None,
        };
        let outcome = ex.step(state, &mut proxy);
        if let Some(e) = proxy.abort.take() {
            // A transient bus fault exhausted its retries mid-step. The
            // executor saw it as a bus error, but it is a transport
            // casualty, not a firmware bug: tear the attempt down
            // before it can publish anything.
            return Err(TargetError::Bus(e));
        }
        scratch.executed += 1;
        let now = shared.executed.fetch_add(1, Ordering::Relaxed) + 1;
        remaining -= 1;
        target.step(config.cycles_per_instruction);

        match outcome {
            StepOutcome::ContinueWith(s) => {
                if remaining == 0 || now >= config.max_instructions {
                    return Ok(vec![save_continuation(ex, target, out, anchor, sup, &s)?]);
                }
                state = s;
            }
            StepOutcome::Fork(succ) => {
                // Every forked state gets a private, non-shared
                // snapshot of the fork-point hardware. In delta mode
                // the target emits a native O(changed) capture and each
                // child becomes a copy-on-write delta entry against the
                // shared base.
                let stored = if config.delta_snapshots {
                    let cap = sup.save_capture(target)?;
                    out.metrics.snapshots_saved += 1;
                    resolve_capture(&shared.store, anchor, cap)?
                } else {
                    let snap = sup.save_snapshot(target)?;
                    out.metrics.snapshots_saved += 1;
                    Stored::Full(snap)
                };
                let mut items = Vec::with_capacity(succ.len());
                for s in succ {
                    let existing = if s.id == state_id { item.snap } else { None };
                    let sid = install_stored(&shared.store, &stored, existing)?;
                    items.push(WorkItem {
                        state: PortableState::export(&ex.pool, &s),
                        snap: Some(sid),
                        strikes: 0,
                    });
                }
                return Ok(items);
            }
            StepOutcome::Halted(s) => {
                // Success exit: no fallible op remains, so the shared
                // counters/store may be touched directly.
                shared.paths.fetch_add(1, Ordering::Relaxed);
                out.metrics.paths_completed += 1;
                scratch.completed.push(PortableState::export(&ex.pool, &s));
                if let Some(sid) = item.snap {
                    shared.store.remove(sid);
                }
                return Ok(Vec::new());
            }
            StepOutcome::Bug {
                report,
                continuation,
            } => {
                // Buffer the report: the continuation save below can
                // still fail, and the replay must not double-report.
                scratch.bugs.push(report);
                return match continuation {
                    Some(s) => Ok(vec![save_continuation(ex, target, out, anchor, sup, &s)?]),
                    None => {
                        shared.paths.fetch_add(1, Ordering::Relaxed);
                        out.metrics.paths_completed += 1;
                        if let Some(sid) = item.snap {
                            shared.store.remove(sid);
                        }
                        Ok(Vec::new())
                    }
                };
            }
        }
    }
}
