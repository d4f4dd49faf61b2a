//! A `SpecStream`'s producer thread lives no longer than the stream: every
//! drop joins it, however much of the stream was read.
//!
//! The producer count is process-wide, so this file holds a single test:
//! no other stream is live while it counts.

use memtis_sim::prelude::{Access, AccessStream, WorkloadEvent};
use memtis_workloads::{live_producers, Benchmark, Scale, SpecStream};

#[test]
fn dropping_a_stream_joins_its_producer() {
    let spare = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let spec = Benchmark::Silo.spec(Scale::TEST, 100_000);
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 1000];
    // One stream after another, never many at once.
    for i in 0..64u64 {
        let mut s = SpecStream::new(spec.clone(), i);
        assert_eq!(
            live_producers(),
            0,
            "stream {i}: a producer before the first pull"
        );
        match i % 4 {
            // Never pulled.
            0 => {}
            // Half-read, through either read.
            1 => {
                s.fill(&mut buf);
            }
            2 => {
                s.next_event();
            }
            // Read to the end.
            _ => while s.fill(&mut buf) > 0 {},
        }
        let running = i % 4 == 1 || i % 4 == 2;
        assert_eq!(
            live_producers(),
            usize::from(spare && running),
            "stream {i}: one producer on a spare core while it is read, none after its end"
        );
        drop(s);
        assert_eq!(
            live_producers(),
            0,
            "stream {i}: drop left its producer running"
        );
    }
}
