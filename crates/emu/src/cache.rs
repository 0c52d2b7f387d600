//! Concurrent, build-once trace registry that owns no trace memory.
//!
//! [`TraceCache`] owns the synchronization story for oracle-trace sharing:
//! callers hand it a *build* closure and it guarantees that, while any
//! caller holds the trace of a `(name, len)` key, no second caller builds
//! it again — no matter how many threads race on the key. The registry lock is
//! only held to look up or insert the per-key slot — never across
//! emulation — so two threads building traces for *different* benchmarks
//! proceed fully in parallel, while a second requester of the *same*
//! benchmark blocks on that key's build lock until the first build
//! finishes and then shares its `Arc`. The cache never touches the disk:
//! a caller that decodes a stored trace hands it a *load* closure
//! instead ([`TraceCache::get_or_load`]).
//!
//! The registry keeps only [`Weak`] references: a trace's memory returns
//! to the allocator when the last holder's `Arc` drops, and the next
//! request for the key builds (or decodes) it afresh. Slots whose trace is
//! gone are pruned whenever a new key is inserted, so the registry stays
//! as small as the set of live traces and a lookup is a short scan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::trace::Trace;

/// One key's slot. `build` serializes the builders and decoders of the
/// key; `trace` points at the shared trace while any holder keeps it alive
/// and is only locked briefly, so observers never wait on a build.
#[derive(Default)]
struct Slot {
    build: Mutex<()>,
    trace: Mutex<Weak<Trace>>,
}

impl Slot {
    fn live(&self) -> Option<Arc<Trace>> {
        self.trace.lock().upgrade()
    }
}

/// `(name, len, slot)` per key.
type Slots = Vec<(String, u64, Arc<Slot>)>;

fn find<'a>(slots: &'a Slots, name: &str, len: u64) -> Option<&'a Arc<Slot>> {
    let (_, _, slot) = slots.iter().find(|(n, l, _)| n == name && *l == len)?;
    Some(slot)
}

/// A snapshot of a cache ([`TraceCache::stats`]): how its traces were
/// materialized so far, split between fresh emulation and loads from an
/// on-disk trace store, and what its holders keep alive right now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Traces produced by [`TraceCache::get_or_build`] (fresh emulation).
    pub built: u64,
    /// Traces produced by [`TraceCache::get_or_load`] (decoded from an
    /// on-disk [`crate::TraceDb`]).
    pub db_hits: u64,
    /// Traces some holder keeps alive.
    pub live: usize,
    /// In-memory bytes of the live traces: records plus static tables.
    pub bytes: usize,
}

/// A `Sync` registry from `(name, len)` to a shared dynamic trace, with
/// build-at-most-once semantics per key while the trace is held. Usable
/// as a `static`.
#[derive(Default)]
pub struct TraceCache {
    slots: Mutex<Slots>,
    built: AtomicU64,
    db_hits: AtomicU64,
}

impl TraceCache {
    /// An empty cache (const, so it can back a `static`).
    pub const fn new() -> Self {
        TraceCache {
            slots: Mutex::new(Vec::new()),
            built: AtomicU64::new(0),
            db_hits: AtomicU64::new(0),
        }
    }

    /// The slot of `(name, len)`, inserted if missing. An insert first
    /// prunes every slot whose trace is gone and that no caller is
    /// building (only the registry references it).
    fn slot(&self, name: &str, len: u64) -> Arc<Slot> {
        let mut slots = self.slots.lock();
        if let Some(slot) = find(&slots, name, len) {
            return Arc::clone(slot);
        }
        slots.retain(|(_, _, s)| Arc::strong_count(s) > 1 || s.trace.lock().strong_count() > 0);
        let slot = Arc::new(Slot::default());
        slots.push((name.to_string(), len, Arc::clone(&slot)));
        slot
    }

    /// Return the trace for `(name, len)`: a live trace is shared, and a
    /// miss runs `build` (fresh emulation). Concurrent requesters of one
    /// key wait for the in-flight build instead of duplicating it.
    pub fn get_or_build<F>(&self, name: &str, len: u64, build: F) -> Arc<Trace>
    where
        F: FnOnce() -> Trace,
    {
        self.get_or_make(name, len, &self.built, || Some(Arc::new(build())))
            .expect("a build always yields a trace")
    }

    /// [`TraceCache::get_or_build`] for a trace decoded rather than built:
    /// a miss runs `load`, which may find nothing (`None`, nothing cached).
    pub fn get_or_load<F>(&self, name: &str, len: u64, load: F) -> Option<Arc<Trace>>
    where
        F: FnOnce() -> Option<Arc<Trace>>,
    {
        self.get_or_make(name, len, &self.db_hits, load)
    }

    /// The shared path of both: under the key's build lock, a live trace
    /// or whatever `make` yields, counted in `made`.
    fn get_or_make(
        &self,
        name: &str,
        len: u64,
        made: &AtomicU64,
        make: impl FnOnce() -> Option<Arc<Trace>>,
    ) -> Option<Arc<Trace>> {
        let slot = self.slot(name, len);
        let _building = slot.build.lock();
        if let Some(live) = slot.live() {
            return Some(live);
        }
        let trace = make()?;
        made.fetch_add(1, Ordering::Relaxed);
        *slot.trace.lock() = Arc::downgrade(&trace);
        Some(trace)
    }

    /// The trace of `(name, len)` if some holder keeps it alive. Never
    /// builds or decodes, and never waits on a build in flight.
    pub fn get(&self, name: &str, len: u64) -> Option<Arc<Trace>> {
        find(&self.slots.lock(), name, len)?.live()
    }

    /// In-memory bytes of the live traces (in-flight builds count 0 until
    /// they finish).
    pub fn bytes(&self) -> usize {
        self.stats().bytes
    }

    /// Lifetime materialization counters — how many traces were built vs
    /// loaded — and the traces live right now.
    pub fn stats(&self) -> TraceCacheStats {
        let live: Vec<_> = self
            .slots
            .lock()
            .iter()
            .filter_map(|(_, _, s)| s.live())
            .collect();
        TraceCacheStats {
            built: self.built.load(Ordering::Relaxed),
            db_hits: self.db_hits.load(Ordering::Relaxed),
            live: live.len(),
            bytes: live.iter().map(|t| t.bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::trace::{StaticInsn, TraceRec};

    fn trace(n: usize) -> Trace {
        let rec = TraceRec {
            sid: 0,
            next_pc: 0,
            mem_addr: 0,
        };
        Trace {
            insns: vec![rec; n],
            statics: vec![StaticInsn {
                insn: rcmc_isa::Insn::halt(),
                pc: 0,
            }],
            halted: true,
            static_insns: 1,
        }
    }

    #[test]
    fn builds_once_and_shares_the_arc() {
        let cache = TraceCache::new();
        let builds = AtomicUsize::new(0);
        let a = cache.get_or_build("x", 10, || {
            builds.fetch_add(1, Ordering::SeqCst);
            trace(1)
        });
        let b = cache.get_or_build("x", 10, || {
            builds.fetch_add(1, Ordering::SeqCst);
            trace(1)
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().live, 1);
    }

    #[test]
    fn loads_are_counted_apart_and_a_miss_caches_nothing() {
        let cache = TraceCache::new();
        assert!(cache.get_or_load("x", 10, || None).is_none());
        let a = cache
            .get_or_load("x", 10, || Some(Arc::new(trace(2))))
            .unwrap();
        let b = cache.get_or_build("x", 10, || unreachable!("x is live"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.built, stats.db_hits, stats.live), (0, 1, 1));
    }

    #[test]
    fn keys_are_name_and_len() {
        let cache = TraceCache::new();
        let a = cache.get_or_build("x", 10, || trace(1));
        let b = cache.get_or_build("x", 20, || trace(1));
        let c = cache.get_or_build("y", 10, || trace(1));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().live, 3);
    }

    #[test]
    fn concurrent_requests_build_exactly_once() {
        static CACHE: TraceCache = TraceCache::new();
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let traces: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        CACHE.get_or_build("shared", 99, || {
                            BUILDS.fetch_add(1, Ordering::SeqCst);
                            // Give racing threads time to pile onto the slot.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            trace(1)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1, "duplicate emulation");
        assert!(traces.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        drop(traces);
        assert_eq!(CACHE.stats().live, 0);
    }

    #[test]
    fn dropped_traces_free_their_memory_and_are_rebuilt() {
        let cache = TraceCache::new();
        let a = cache.get_or_build("x", 10, || trace(3));
        // Three 16-byte records and one 16-byte static.
        assert_eq!(cache.bytes(), (3 + 1) * 16);
        assert!(cache.get("x", 10).is_some_and(|t| Arc::ptr_eq(&t, &a)));
        drop(a);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.get("x", 10).is_none());
        // The next request builds again and sees the new content, as a
        // same-length re-import of the trace would be seen.
        let b = cache.get_or_build("x", 10, || trace(5));
        assert_eq!(b.len(), 5);
        assert_eq!(cache.stats().built, 2);
        // Inserting another key prunes the dead slot of a dropped trace.
        let c = cache.get_or_build("y", 10, || trace(1));
        drop(b);
        let _d = cache.get_or_build("z", 10, || trace(1));
        assert_eq!(cache.slots.lock().len(), 2, "dead slot of x not pruned");
        drop(c);
    }
}
