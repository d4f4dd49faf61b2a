//! Streaming trace ingestion: a trace recorded to disk and replayed through
//! the bounded-buffer file source of [`TraceReplay`] must drive a simulation to the
//! byte-identical report the whole-trace in-memory replay produces, while
//! holding only O(chunk) of the trace resident.

use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{
    Benchmark, Scale, SpecStream, TraceFileWriter, TraceRecorder, TraceReplay,
};

const SEED: u64 = 77;
const ACCESSES: u64 = 25_000;
/// Small enough that the recorded trace spans many refills.
const CHUNK_BYTES: usize = 4 * 1024;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 256 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024;
    cfg
}

fn policy() -> MemtisPolicy {
    MemtisPolicy::new(MemtisConfig {
        load_period: 4,
        store_period: 64,
        adapt_interval: 500,
        cooling_interval: 5_000,
        control_interval: 1_000,
        ..MemtisConfig::sim_scaled()
    })
}

fn driver() -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        window_events: 6_000,
        ..Default::default()
    }
}

/// Deterministic signature: everything but host time and the stream's
/// display name (the same events arrive under different stream labels).
fn report_sig(mut r: RunReport) -> String {
    r.host_elapsed_ns = 0;
    r.workload = String::new();
    format!("{r:?}")
}

#[test]
fn streamed_replay_matches_in_memory_replay_bit_exactly() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("memtis-trace-stream-{}.trace", std::process::id()));

    // Record the canonical run, streaming the trace to disk as it happens.
    let (live_sig, trace_len) = {
        let mut writer = TraceFileWriter::create(&path).expect("create trace file");
        let mut recorder = TraceRecorder::new(SpecStream::new(
            Benchmark::Silo.spec(Scale::TEST, ACCESSES),
            SEED,
        ));
        let mut sim = Simulation::new(machine(), policy(), driver());
        let report = sim.run(&mut recorder).expect("recorded run completes");
        let bytes = recorder.finish();
        // The streaming writer must emit the exact bytes the in-memory
        // recorder produced. (Header written by create; skip it here.)
        let mut replay = TraceReplay::new(bytes.clone(), "check").expect("valid trace");
        let mut n = 0u64;
        while let Some(ev) = replay.next_event() {
            writer.record(&ev).expect("record event");
            n += 1;
        }
        assert!(replay.take_error().is_none());
        writer.finish().expect("flush trace file");
        let on_disk = std::fs::read(&path).expect("read trace back");
        assert_eq!(
            on_disk.as_slice(),
            &bytes[..],
            "TraceWriter and TraceRecorder must produce identical bytes"
        );
        assert!(n > ACCESSES, "trace should include allocs too (got {n})");
        (report_sig(report), on_disk.len())
    };

    // Whole-trace in-memory replay.
    let in_memory_sig = {
        let data = std::fs::read(&path).expect("read trace");
        let mut replay =
            TraceReplay::new(memtis_repro::workloads::Bytes::from(data), "replay").unwrap();
        let mut sim = Simulation::new(machine(), policy(), driver());
        let r = sim.run(&mut replay).expect("in-memory replay completes");
        assert!(replay.take_error().is_none());
        report_sig(r)
    };

    // Bounded-buffer streamed replay: many refills, tiny resident footprint.
    let streamed_sig = {
        let mut reader =
            TraceReplay::with_chunk_bytes(&path, "replay", CHUNK_BYTES).expect("open trace file");
        assert!(
            reader.buffer_capacity() <= 2 * CHUNK_BYTES,
            "decode footprint must stay O(chunk), got {}",
            reader.buffer_capacity()
        );
        assert!(
            trace_len > 8 * reader.buffer_capacity(),
            "trace ({trace_len} B) must span many chunks to exercise refills"
        );
        let mut sim = Simulation::new(machine(), policy(), driver());
        let r = sim.run(&mut reader).expect("streamed replay completes");
        assert!(reader.take_error().is_none());
        report_sig(r)
    };

    std::fs::remove_file(&path).ok();
    assert_eq!(live_sig, in_memory_sig, "replay diverged from live run");
    assert_eq!(in_memory_sig, streamed_sig, "streamed replay diverged");
}

#[test]
fn streamed_replay_resumes_from_a_mid_trace_checkpoint() {
    let path =
        std::env::temp_dir().join(format!("memtis-trace-resume-{}.trace", std::process::id()));
    let mut writer = TraceFileWriter::create(&path).expect("create trace file");
    let mut stream = SpecStream::new(Benchmark::Silo.spec(Scale::TEST, ACCESSES), SEED);
    while let Some(ev) = stream.next_event() {
        writer.record(&ev).expect("record event");
    }
    let events = writer.events();
    writer.finish().expect("flush trace file");
    let reader = || TraceReplay::with_chunk_bytes(&path, "replay", CHUNK_BYTES).unwrap();

    let full = {
        let mut sim = Simulation::new(machine(), policy(), driver());
        report_sig(sim.run(&mut reader()).expect("straight replay completes"))
    };
    // Pauses land mid-chunk and mid-phase: a resumed reader must rebuild
    // the delta base by decoding from the start, not jump to a byte offset.
    for pause_at in [events / 7, events / 2, events - 1_000] {
        let mut sim = Simulation::new(machine(), policy(), driver());
        let paused = sim
            .run_until(&mut reader(), Some(pause_at))
            .expect("run to pause");
        assert!(paused.is_none(), "pause at {pause_at} reached the end");
        let bytes = sim.snapshot();
        let mut resumed = Simulation::new(machine(), policy(), driver());
        resumed.restore(&bytes).expect("restore succeeds");
        let mut fresh = reader();
        let report = resumed
            .run_until(&mut fresh, None)
            .expect("resumed replay completes")
            .expect("resumed replay reaches the end");
        assert!(fresh.take_error().is_none());
        assert_eq!(full, report_sig(report), "resume at {pause_at} diverged");
    }
    std::fs::remove_file(&path).ok();
}
