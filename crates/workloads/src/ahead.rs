//! Running a generator ahead of its reader on a spare core.
//!
//! A generated stream reads no simulator state: its events are a function
//! of its spec and seed alone. So a producer thread can run the generator
//! ahead of the simulation and hand its events over in chunks without
//! changing a single one. [`Ahead`] is that pipeline: the producer fills
//! [`DEFAULT_CHUNK`]-event buffers, at most [`DEPTH`] of them wait in a
//! bounded channel, and the reader sends each drained buffer back for
//! reuse.
//!
//! A producer only pays off on a core nothing else wants. [`spare_core`]
//! decides from what the process can observe: the host's available
//! parallelism against the cores live streams ([`Reader`]) and live
//! producers already keep busy.

use memtis_sim::prelude::{Access, AccessStream, WorkloadEvent, DEFAULT_CHUNK};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// Finished chunks that may wait for the reader.
const DEPTH: usize = 2;

/// Live streams, each holding the core its reader runs on.
static READERS: AtomicUsize = AtomicUsize::new(0);
/// Live producer threads.
static PRODUCERS: AtomicUsize = AtomicUsize::new(0);

/// Producer threads alive in this process right now.
pub fn live_producers() -> usize {
    PRODUCERS.load(SeqCst)
}

/// A live stream's claim on the core its reader runs on, from creation to
/// drop. Counting streams from creation, not from their first pull, lets a
/// runner whose workers each build a stream register all of them before
/// any of them decides whether a core is spare.
pub(crate) struct Reader(());

impl Reader {
    pub(crate) fn register() -> Reader {
        READERS.fetch_add(1, SeqCst);
        Reader(())
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        READERS.fetch_sub(1, SeqCst);
    }
}

/// Whether the host has a core that no live stream or producer holds.
pub(crate) fn spare_core() -> bool {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    READERS.load(SeqCst) + PRODUCERS.load(SeqCst) < cores
}

/// The producer's side of the pipeline while it runs.
struct Link {
    full: Receiver<Vec<WorkloadEvent>>,
    empty: Sender<Vec<WorkloadEvent>>,
    producer: JoinHandle<()>,
}

/// A stream generated ahead on a producer thread.
///
/// Reads return exactly the generator's sequence. The producer ends the
/// stream with an empty chunk; a channel that closes without one means the
/// producer panicked, and the panic is raised again in the reader on its
/// next pull, never read as the end of the stream. Dropping the stream
/// hangs up on the producer and joins it.
pub(crate) struct Ahead {
    chunk: Vec<WorkloadEvent>,
    pos: usize,
    /// `None` once the stream has ended and the producer is joined.
    link: Option<Link>,
}

impl Ahead {
    /// Moves `gen` to a new producer thread. Hands it back if the thread
    /// cannot be started.
    pub(crate) fn spawn<G: AccessStream + Send + 'static>(gen: G) -> Result<Ahead, G> {
        let (gen_tx, gen_rx) = mpsc::sync_channel::<G>(1);
        let (full_tx, full) = mpsc::sync_channel(DEPTH);
        let (empty, empty_rx) = mpsc::channel::<Vec<WorkloadEvent>>();
        let spawned = thread::Builder::new()
            .name("spec-producer".into())
            .spawn(move || {
                let Ok(mut gen) = gen_rx.recv() else { return };
                let mut buf = Vec::new();
                loop {
                    buf.resize(DEFAULT_CHUNK, WorkloadEvent::Access(Access::load(0)));
                    let n = gen.fill(&mut buf);
                    buf.truncate(n);
                    // A failed send means the reader hung up.
                    if full_tx.send(buf).is_err() || n == 0 {
                        return;
                    }
                    buf = empty_rx.try_recv().unwrap_or_default();
                }
            });
        let producer = match spawned {
            Ok(h) => h,
            Err(_) => return Err(gen),
        };
        PRODUCERS.fetch_add(1, SeqCst);
        gen_tx
            .send(gen)
            .expect("the producer waits for its generator");
        Ok(Ahead {
            chunk: Vec::new(),
            pos: 0,
            link: Some(Link {
                full,
                empty,
                producer,
            }),
        })
    }

    /// Makes `chunk[pos..]` non-empty; `false` once the stream has ended.
    #[inline]
    fn ready(&mut self) -> bool {
        while self.pos == self.chunk.len() {
            let Some(link) = &self.link else {
                return false;
            };
            match link.full.recv() {
                Ok(next) => {
                    let used = std::mem::replace(&mut self.chunk, next);
                    // The producer may already be gone after its last chunk.
                    let _ = link.empty.send(used);
                    self.pos = 0;
                    if self.chunk.is_empty() {
                        let ended = self.join();
                        debug_assert!(ended.is_ok(), "the producer returns after its last chunk");
                        return false;
                    }
                }
                Err(_) => match self.join() {
                    Err(panic) => resume_unwind(panic),
                    Ok(()) => unreachable!("the producer hung up without ending the stream"),
                },
            }
        }
        true
    }

    /// Hangs up on the producer and waits for it to return.
    fn join(&mut self) -> thread::Result<()> {
        let Some(Link {
            full,
            empty,
            producer,
        }) = self.link.take()
        else {
            return Ok(());
        };
        // A producer blocked on a full channel wakes to a failed send.
        drop((full, empty));
        let out = producer.join();
        PRODUCERS.fetch_sub(1, SeqCst);
        out
    }

    #[inline]
    pub(crate) fn next_event(&mut self) -> Option<WorkloadEvent> {
        if !self.ready() {
            return None;
        }
        self.pos += 1;
        Some(self.chunk[self.pos - 1])
    }

    pub(crate) fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        let mut n = 0;
        while n < buf.len() && self.ready() {
            let take = (buf.len() - n).min(self.chunk.len() - self.pos);
            buf[n..n + take].copy_from_slice(&self.chunk[self.pos..self.pos + take]);
            self.pos += take;
            n += take;
        }
        n
    }
}

impl Drop for Ahead {
    fn drop(&mut self) {
        // A producer panic no pull has raised is dropped with the stream:
        // raising it here could abort a reader already unwinding, and the
        // panic hook has printed it on the producer's thread.
        let _ = self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Counts up from zero, panicking at `fail_at` if set.
    struct Counter {
        next: u64,
        end: u64,
        fail_at: Option<u64>,
    }

    impl AccessStream for Counter {
        fn next_event(&mut self) -> Option<WorkloadEvent> {
            if Some(self.next) == self.fail_at {
                panic!("generator failed at {}", self.next);
            }
            (self.next < self.end).then(|| {
                self.next += 1;
                WorkloadEvent::Access(Access::load(self.next - 1))
            })
        }

        fn name(&self) -> &str {
            "counter"
        }
    }

    fn counter(end: u64, fail_at: Option<u64>) -> Ahead {
        Ahead::spawn(Counter {
            next: 0,
            end,
            fail_at,
        })
        .unwrap_or_else(|_| panic!("producer thread starts"))
    }

    fn addr(ev: WorkloadEvent) -> u64 {
        match ev {
            WorkloadEvent::Access(a) => a.vaddr.0,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reads_cross_chunk_boundaries_in_order() {
        let end = 3 * DEFAULT_CHUNK as u64 + 5;
        let mut a = counter(end, None);
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 700];
        let mut want = 0;
        loop {
            // Alternate bulk and single reads.
            let n = a.fill(&mut buf);
            for ev in &buf[..n] {
                assert_eq!(addr(*ev), want);
                want += 1;
            }
            match a.next_event() {
                Some(ev) => {
                    assert_eq!(addr(ev), want);
                    want += 1;
                }
                None => break,
            }
        }
        assert_eq!(want, end);
        assert!(a.next_event().is_none() && a.fill(&mut buf) == 0);
        assert!(a.link.is_none(), "the ended producer is joined");
    }

    #[test]
    fn producer_panic_resurfaces_in_the_reader() {
        let fail_at = 2 * DEFAULT_CHUNK as u64 + 17;
        for bulk in [false, true] {
            let mut a = counter(u64::MAX, Some(fail_at));
            let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 128];
            let mut read = 0u64;
            let caught = catch_unwind(AssertUnwindSafe(|| loop {
                let n = if bulk {
                    a.fill(&mut buf)
                } else {
                    a.next_event().map_or(0, |ev| {
                        buf[0] = ev;
                        1
                    })
                };
                if n == 0 {
                    break;
                }
                for ev in &buf[..n] {
                    assert_eq!(addr(*ev), read);
                    read += 1;
                }
            }));
            let msg = caught
                .expect_err("the panic surfaces; it is not the end of the stream")
                .downcast::<String>()
                .expect("the producer's own payload");
            assert_eq!(*msg, format!("generator failed at {fail_at}"));
            // Every chunk finished before the failure was delivered.
            assert_eq!(read, fail_at - fail_at % DEFAULT_CHUNK as u64);
            assert!(a.link.is_none(), "the failed producer is joined");
        }
    }
}
