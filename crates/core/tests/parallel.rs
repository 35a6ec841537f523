//! The parallel engine's headline invariant: worker count changes the
//! wall clock, never the result. Every test compares a run against the
//! sequential engine and across worker counts via the canonical digest.

use hardsnap::firmware::{self, PlantedBug};
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, EngineMetrics, ParallelEngine, RunResult, Searcher,
};
use hardsnap_sim::SimTarget;

fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        max_instructions: 300_000,
        quantum: 4,
        ..Default::default()
    }
}

fn sequential_run(asm: &str, config: &EngineConfig) -> RunResult {
    let soc = hardsnap_periph::soc().unwrap();
    let target = Box::new(SimTarget::new(soc).unwrap());
    let mut engine = Engine::new(target, config.clone());
    let prog = hardsnap_isa::assemble(asm).unwrap();
    engine.load_firmware(&prog);
    engine.run()
}

fn parallel_run(asm: &str, config: &EngineConfig, workers: usize) -> (RunResult, EngineMetrics) {
    let soc = hardsnap_periph::soc().unwrap();
    let target = SimTarget::new(soc).unwrap();
    let mut engine = ParallelEngine::new(&target, workers, config.clone()).unwrap();
    let prog = hardsnap_isa::assemble(asm).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    assert!(
        engine.store.is_empty(),
        "all private snapshots retired with their states ({} left, {} bytes)",
        engine.store.len(),
        engine.store.total_bytes()
    );
    (result, engine.metrics)
}

#[test]
fn worker_count_does_not_change_the_result() {
    let asm = firmware::branching_firmware(4);
    let config = config();
    let seq = sequential_run(&asm, &config);
    assert_eq!(seq.metrics.paths_completed, 16);
    let seq_digest = seq.canonical_digest();

    let mut par_digests = Vec::new();
    for workers in [1, 2, 4] {
        let (r, metrics) = parallel_run(&asm, &config, workers);
        assert_eq!(metrics.paths_completed, 16, "workers={workers}");
        assert!(r.bugs.is_empty(), "workers={workers}: {:?}", r.bugs);
        assert_eq!(r.covered_pcs, seq.covered_pcs, "workers={workers}");
        assert_eq!(r.instructions, seq.instructions, "workers={workers}");
        par_digests.push((workers, r.canonical_digest(), r.hw_virtual_time_ns));
    }
    for &(workers, digest, _) in &par_digests {
        assert_eq!(
            digest, seq_digest,
            "workers={workers}: parallel result differs from sequential"
        );
    }
    // Hardware virtual time is a sum of per-state costs, so it too is
    // schedule-invariant (across worker counts; the sequential engine
    // saves/restores less because consecutive quanta can share a live
    // context).
    let t1 = par_digests[0].2;
    for &(workers, _, t) in &par_digests {
        assert_eq!(t, t1, "workers={workers}: virtual time diverged");
    }
}

#[test]
fn parallel_engine_finds_the_same_bugs() {
    let config = config();
    for bug in PlantedBug::all() {
        let asm = firmware::vulnerable_firmware(bug);
        let seq = sequential_run(&asm, &config);
        assert!(
            !seq.bugs.is_empty(),
            "{}: seed workload finds bugs",
            bug.name()
        );
        for workers in [1, 4] {
            let (r, _) = parallel_run(&asm, &config, workers);
            assert_eq!(
                r.canonical_digest(),
                seq.canonical_digest(),
                "{} workers={workers}",
                bug.name()
            );
            assert_eq!(r.bugs.len(), seq.bugs.len());
        }
    }
}

#[test]
fn fork_heavy_stress_hammers_the_shared_store() {
    // 2^7 = 128 paths with a 2-instruction quantum: every state is
    // context-switched constantly, so the sharded store sees a dense
    // mix of concurrent insert/update/remove from all 4 workers.
    let asm = firmware::branching_firmware(7);
    let config = EngineConfig {
        quantum: 2,
        ..config()
    };
    let seq_digest = sequential_run(&asm, &config).canonical_digest();
    for delta in [false, true] {
        let config = EngineConfig {
            delta_snapshots: delta,
            ..config.clone()
        };
        let (r, metrics) = parallel_run(&asm, &config, 4);
        assert_eq!(metrics.paths_completed, 128, "delta={delta}");
        assert!(r.bugs.is_empty(), "delta={delta}: {:?}", r.bugs);
        assert_eq!(
            r.canonical_digest(),
            seq_digest,
            "delta={delta}: stress run must stay deterministic"
        );
    }
}

#[test]
fn baselines_are_rejected() {
    let soc = hardsnap_periph::soc().unwrap();
    let target = SimTarget::new(soc).unwrap();
    for mode in [
        ConsistencyMode::NaiveConsistent,
        ConsistencyMode::NaiveInconsistent,
    ] {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        assert!(
            ParallelEngine::new(&target, 2, config).is_err(),
            "{mode:?} must be refused (baselines serialize on one device)"
        );
    }
}

/// The reference campaigns of `hardsnap-cli analyze demo[:K]` (one worker
/// runs the sequential engine, more run the parallel one) keep their
/// canonical digests, and every symbolic branch of `branching_firmware(k)`
/// costs exactly two feasibility queries: 2·(2^k − 1) in all.
#[test]
fn reference_digests_and_solver_work_hold_for_every_worker_count() {
    let config = EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        ..Default::default()
    };
    for (k, digest) in [
        (3, 0x5ad6_0706_5cea_53c4_u64),
        (5, 0xd350_a3c6_4fea_6745),
        (7, 0x53b1_87ad_7b00_097f),
    ] {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(k)).unwrap();
        for workers in [1, 2, 4] {
            let target = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
            let (result, queries) = if workers == 1 {
                let mut engine = Engine::new(Box::new(target), config.clone());
                engine.load_firmware(&prog);
                let r = engine.run();
                (r, engine.executor.solver.stats.queries)
            } else {
                let mut engine = ParallelEngine::new(&target, workers, config.clone()).unwrap();
                engine.load_firmware(&prog);
                let r = engine.run();
                (r, engine.executor.solver.stats.queries)
            };
            assert_eq!(result.canonical_digest(), digest, "k={k} workers={workers}");
            assert_eq!(queries, 2 * ((1 << k) - 1), "k={k} workers={workers}");
        }
    }
}
