//! Standalone probe of the machine's batched access path.
//!
//! Replays the head of a workload through the public
//! `Machine::access_batch` with no policy and first-touch placement, and
//! times only those calls. It isolates `sim.machine`'s access path from
//! generation, sample delivery and the driver loop, which the traced rep
//! cannot separate from outside.

use crate::workloads::{policy, Prepared};
use memtis_sim::prelude::{
    Access, AccessRecord, AccessStream, BatchClock, BatchStop, Machine, MachineConfig, PageSize,
    SimError, TierId, TieringPolicy, VirtAddr, VirtPage, WorkloadEvent, DEFAULT_CHUNK,
    HUGE_PAGE_SIZE, NR_SUBPAGES,
};
use std::time::Instant;

/// Fast tier first, then capacity: where a first-touch kernel places pages.
const FIRST_TOUCH: [TierId; 2] = [TierId::FAST, TierId::CAPACITY];

/// Best-of-`reps` host nanoseconds per access over the first `events`
/// workload events of `prepared`.
pub fn access_batch_ns(prepared: &Prepared, events: u64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let thp = prepared.driver.thp_enabled;
            let mut stream = prepared.stream();
            let (accesses, ns) = replay(&prepared.machine, thp, stream.as_mut(), events);
            ns as f64 / accesses.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Replays up to `events` events of `stream` on a fresh machine, returning
/// the accesses executed and the host nanoseconds spent executing them.
fn replay(
    config: &MachineConfig,
    thp: bool,
    stream: &mut dyn AccessStream,
    events: u64,
) -> (u64, u64) {
    let mut machine = Machine::new(config.clone());
    let filter = policy().batch_record_filter();
    let mut clock = BatchClock {
        wall_ns: 0.0,
        app_access_ns: 0.0,
        threads: config.app_threads.max(1) as f64,
        stop_wall_ns: f64::INFINITY,
    };
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); DEFAULT_CHUNK];
    let mut records: Vec<AccessRecord> = Vec::with_capacity(DEFAULT_CHUNK);
    let (mut left, mut accesses, mut ns) = (events, 0u64, 0u64);
    while left > 0 {
        let want = left.min(DEFAULT_CHUNK as u64) as usize;
        let n = stream.fill(&mut buf[..want]);
        if n == 0 {
            break;
        }
        left -= n as u64;
        let mut i = 0;
        while i < n {
            match buf[i] {
                WorkloadEvent::Access(_) => {
                    records.clear();
                    let start = Instant::now();
                    let (done, stop) =
                        machine.access_batch(&buf[i..n], &mut records, &mut clock, filter);
                    ns += start.elapsed().as_nanos() as u64;
                    accesses += done as u64;
                    i += done;
                    match stop {
                        BatchStop::Clean => {}
                        // No policy arms hints; step over the executed access.
                        BatchStop::Hint(_) => {
                            accesses += 1;
                            i += 1;
                        }
                        // The access at `i` hit a hole (e.g. a non-THP
                        // region's tail): map it and retry from there.
                        BatchStop::NotMapped => {
                            if let WorkloadEvent::Access(a) = buf[i] {
                                map(&mut machine, a.vaddr.base_page());
                            }
                        }
                    }
                }
                WorkloadEvent::Alloc {
                    addr,
                    bytes,
                    thp: region_thp,
                } => {
                    alloc(&mut machine, addr, bytes, thp && region_thp);
                    i += 1;
                }
                WorkloadEvent::Free { addr, bytes } => {
                    free(&mut machine, addr, bytes);
                    i += 1;
                }
            }
        }
    }
    (accesses, ns)
}

fn map(machine: &mut Machine, vpage: VirtPage) {
    machine
        .alloc_and_map_fallback(vpage, PageSize::Base, &FIRST_TOUCH)
        .expect("the capacity tier holds twice the workload's footprint");
}

/// Maps a region the way the driver does: huge pages where aligned and
/// THP-eligible, base pages otherwise and when no huge frame is left.
fn alloc(machine: &mut Machine, addr: VirtAddr, bytes: u64, thp: bool) {
    let (mut cur, end) = (addr.0, addr.0 + bytes);
    while cur < end {
        let vpage = VirtAddr(cur).base_page();
        if thp && cur.is_multiple_of(HUGE_PAGE_SIZE) && end - cur >= HUGE_PAGE_SIZE {
            match machine.alloc_and_map_fallback(vpage, PageSize::Huge, &FIRST_TOUCH) {
                Ok(_) => {}
                Err(SimError::GlobalOutOfMemory) => {
                    for k in 0..NR_SUBPAGES {
                        map(machine, vpage.add(k));
                    }
                }
                Err(e) => panic!("mapping a fresh region failed: {e:?}"),
            }
            cur += HUGE_PAGE_SIZE;
        } else {
            map(machine, vpage);
            cur += PageSize::Base.bytes();
        }
    }
}

fn free(machine: &mut Machine, addr: VirtAddr, bytes: u64) {
    let (mut cur, end) = (addr.0, addr.0 + bytes);
    while cur < end {
        let vpage = VirtAddr(cur).base_page();
        let size = match machine.locate(vpage) {
            Some((_, PageSize::Huge)) if vpage.is_huge_aligned() => PageSize::Huge,
            Some((_, PageSize::Base)) => PageSize::Base,
            _ => {
                cur += PageSize::Base.bytes();
                continue;
            }
        };
        machine
            .unmap_and_free(vpage, size)
            .expect("a located mapping unmaps");
        cur += size.bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Script(std::vec::IntoIter<WorkloadEvent>);

    impl AccessStream for Script {
        fn next_event(&mut self) -> Option<WorkloadEvent> {
            self.0.next()
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    #[test]
    fn a_hole_after_mapped_accesses_is_mapped_where_the_batch_stopped() {
        let page = PageSize::Base.bytes();
        let events = vec![
            WorkloadEvent::Alloc {
                addr: VirtAddr(0),
                bytes: page,
                thp: false,
            },
            WorkloadEvent::Access(Access::load(0)),
            WorkloadEvent::Access(Access::load(page)),
            WorkloadEvent::Access(Access::store(page)),
        ];
        let config = MachineConfig::dram_nvm(2 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        let mut stream = Script(events.into_iter());
        let (accesses, _) = replay(&config, true, &mut stream, 4);
        assert_eq!(accesses, 3);
    }
}
