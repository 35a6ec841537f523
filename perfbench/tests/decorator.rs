//! The timing and split decorators must not change the program they
//! measure: they forward every `HwTarget` method (the defaulted ones
//! too), so the engine's supervision checks and the campaign digests are
//! the same with and without them.

use hardsnap::{Engine, EngineConfig, FaultPlan, FaultyTarget};
use hardsnap_bus::map::soc;
use hardsnap_bus::{HwTarget, SnapshotCapture, SnapshotFile};
use hardsnap_perfbench::{
    build_soc, segments, Layer, Ledger, Marks, Split, Timed, DIGEST_DEMO5, DIGEST_DEMO7,
};
use std::sync::Arc;

fn prototype(firmware: &str) -> (hardsnap_isa::Program, hardsnap_sim::SimTarget) {
    let (program, proto, _) = build_soc(firmware).expect("built-in SoC builds");
    (program, proto)
}

#[test]
fn decorated_replica_reports_the_bare_shape_and_checksum() {
    let (_, proto) = prototype(&hardsnap::firmware::branching_firmware(3));
    let ledger = Ledger::new(1024);
    let mut bare = proto.fork_clean().unwrap();
    let timed_proto = Timed::new(proto.fork_clean().unwrap(), Arc::clone(&ledger));
    // A replica forked through the decorator is decorated itself.
    let mut timed = timed_proto.fork_clean().unwrap();
    assert_ne!(bare.snapshot_shape(), 0);
    assert_eq!(timed.snapshot_shape(), bare.snapshot_shape());
    assert_eq!(timed_proto.snapshot_shape(), bare.snapshot_shape());

    for t in [&mut bare, &mut timed] {
        t.reset();
        t.bus_write(soc::TIMER_BASE, 50).unwrap();
        t.step(7);
    }
    let (a, b) = (
        bare.save_snapshot().unwrap(),
        timed.save_snapshot().unwrap(),
    );
    assert_eq!(a.content_hash(), b.content_hash());
    assert_ne!(bare.capture_checksum(), 0);
    assert_eq!(timed.capture_checksum(), bare.capture_checksum());
    assert_eq!(timed.cycle(), bare.cycle());
    assert_eq!(timed.virtual_time_ns(), bare.virtual_time_ns());

    // Delta mode is forwarded: the default would always answer Full.
    timed.set_delta_snapshots(true);
    timed.save_snapshot_delta().unwrap();
    timed.step(3);
    let capture = timed.save_snapshot_delta().unwrap();
    assert!(matches!(capture, SnapshotCapture::Delta { .. }));

    // Lazy restore is forwarded and lands on the saved state.
    let file = SnapshotFile::from_bytes(hardsnap_bus::persist::write_full(&a)).unwrap();
    timed.restore_snapshot_lazy(&file).unwrap();
    assert_eq!(
        timed.save_snapshot().unwrap().content_hash(),
        a.content_hash()
    );
}

#[test]
fn decorator_forwards_fault_stats() {
    let (_, proto) = prototype(&hardsnap::firmware::branching_firmware(3));
    let faulty = FaultyTarget::new(proto.fork_clean().unwrap(), FaultPlan::uniform(1, 0.0));
    let timed = Timed::new(Box::new(faulty), Ledger::new(16));
    assert!(timed.fault_stats().is_some());
    let split = Split::new(Box::new(timed), Marks::default());
    assert!(split.fault_stats().is_some());
}

#[test]
fn split_replica_reports_the_bare_shape_and_checksum_and_marks_restores() {
    let (_, proto) = prototype(&hardsnap::firmware::branching_firmware(3));
    let marks = Marks::default();
    let mut bare = proto.fork_clean().unwrap();
    let split_proto = Split::new(proto.fork_clean().unwrap(), Arc::clone(&marks));
    let mut split = split_proto.fork_clean().unwrap();
    assert_ne!(bare.snapshot_shape(), 0);
    assert_eq!(split.snapshot_shape(), bare.snapshot_shape());
    for t in [&mut bare, &mut split] {
        t.reset();
        t.bus_write(soc::TIMER_BASE, 50).unwrap();
        t.step(7);
    }
    let (a, b) = (
        bare.save_snapshot().unwrap(),
        split.save_snapshot().unwrap(),
    );
    assert_eq!(a.content_hash(), b.content_hash());
    assert_ne!(bare.capture_checksum(), 0);
    assert_eq!(split.capture_checksum(), bare.capture_checksum());
    assert!(marks.lock().unwrap().is_empty());

    split.step(3);
    split.restore_snapshot(&b).unwrap();
    let file = SnapshotFile::from_bytes(hardsnap_bus::persist::write_full(&a)).unwrap();
    split.restore_snapshot_lazy(&file).unwrap();
    assert_eq!(marks.lock().unwrap().len(), 2);
    split.set_delta_snapshots(true);
    split.save_snapshot_delta().unwrap();
    split.step(3);
    let capture = split.save_snapshot_delta().unwrap();
    assert!(matches!(capture, SnapshotCapture::Delta { .. }));
}

#[test]
fn split_demo7_campaign_keeps_its_digest_with_one_segment_per_restore() {
    let (program, proto) = prototype(&hardsnap::firmware::branching_firmware(7));
    let marks = Marks::default();
    let ledger = Ledger::new(1 << 16);
    // As a traced op runs: the split replica of a timed prototype.
    let timed = Timed::new(proto.fork_clean().unwrap(), Arc::clone(&ledger));
    let split = Split::new(timed.fork_clean().unwrap(), Arc::clone(&marks));
    ledger.begin_op(1);
    let t0 = std::time::Instant::now();
    let mut engine = Engine::new(Box::new(split), EngineConfig::default());
    engine.load_firmware(&program);
    let digest = engine.run().canonical_digest();
    let t1 = std::time::Instant::now();
    let tally = ledger.end_op("op", t0, t1);
    assert_eq!(digest, DIGEST_DEMO7);
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len() as u64, tally.get(Layer::Restore).calls);
    let segs = segments(t0, &marks, t1);
    assert_eq!(segs.len(), marks.len() + 1);
    assert_eq!(segs.iter().sum::<u64>(), (t1 - t0).as_nanos() as u64);
}

fn traced_digest(k: u32) -> (u64, hardsnap_perfbench::OpTally) {
    let (program, proto) = prototype(&hardsnap::firmware::branching_firmware(k));
    let ledger = Ledger::new(1 << 16);
    let timed = Timed::new(proto.fork_clean().unwrap(), Arc::clone(&ledger));
    ledger.begin_op(1);
    let t0 = std::time::Instant::now();
    let mut engine = Engine::new(timed.fork_clean().unwrap(), EngineConfig::default());
    engine.load_firmware(&program);
    let digest = engine.run().canonical_digest();
    let tally = ledger.end_op("op", t0, std::time::Instant::now());
    (digest, tally)
}

#[test]
fn traced_demo5_campaign_keeps_its_digest() {
    let (digest, tally) = traced_digest(5);
    assert_eq!(digest, DIGEST_DEMO5);
    for layer in [
        Layer::Fork,
        Layer::Capture,
        Layer::Restore,
        Layer::Step,
        Layer::Bus,
    ] {
        assert!(tally.get(layer).calls > 0, "{} never called", layer.name());
    }
    assert!(tally.capture_bytes > 0);
}

#[test]
fn traced_demo7_campaign_keeps_its_digest() {
    assert_eq!(traced_digest(7).0, DIGEST_DEMO7);
}
