//! Load/store queue with conservative disambiguation and store→load
//! forwarding.
//!
//! Model (identical for both architectures; the D-cache is centralized and
//! equidistant from all clusters, §3.3):
//!
//! * loads/stores compute their address on an integer ALU in their cluster,
//!   then spend 1 cycle in transit to the LSQ/D-cache;
//! * a load may access memory once every **older** store's address is known;
//! * if an older store has a matching (8-byte) address, the load forwards
//!   from it in 1 cycle instead of accessing the cache (a store's address and
//!   data become known together, so a matching store always has its data);
//! * stores write the cache when they drain from the committed-store buffer.
//!
//! Each entry carries its instruction's trace index, which is also its
//! program-order age (the core dispatches in trace order). Entries live in
//! a slab; three program-ordered indexes over it answer the per-cycle
//! queries without scanning the slab:
//!
//! * **live stores**, oldest first: `alloc` pushes to the back and `release`
//!   pops the front (stores commit in order), both O(1). The forwarding
//!   check for a load binary-searches its older stores and walks them
//!   youngest first, stopping at the first address match;
//! * **unknown-address stores**, oldest first: `alloc` pushes to the back and
//!   `store_ready` trims known stores off the front (amortized O(1)), so the
//!   front is the disambiguation barrier, read in O(1);
//! * **waiting loads** (address known, not started), sorted by `idx`:
//!   `load_addr_known` inserts by binary search and a load leaves when it
//!   starts.
//!
//! [`Lsq::start_loads_into`] walks the waiting loads oldest first up to the
//! barrier and [`Lsq::would_start_any`] does the same walk without the
//! arrival filter (and stops at the first startable load), so both cost
//! O(waiting loads × older stores) at worst, not O(capacity²).

use std::collections::VecDeque;

/// Slab index of an LSQ entry.
pub type LsqId = u32;

/// Sentinel for "no LSQ entry".
pub const NO_LSQ: LsqId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq)]
enum LoadPhase {
    /// Waiting for the AGU (issue) — address unknown.
    WaitAddr,
    /// Address known; in transit to / waiting at the LSQ.
    Waiting,
    /// Access or forward started; completion event scheduled.
    Started,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    live: bool,
    is_store: bool,
    /// The instruction's trace index (program order).
    idx: u64,
    addr: u64,
    /// Stores: address (and data) known.
    addr_known: bool,
    /// Loads only.
    phase: LoadPhase,
    /// Cycle at which the load request is present at the LSQ.
    arrival: u64,
}

/// What a started load will do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadKind {
    /// Forwarded from an in-flight store (no cache port used).
    Forward,
    /// Cache access (consumes a D-cache port; latency decided by the cache).
    Cache,
}

/// A load that started this cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartedLoad {
    /// LSQ slab id.
    pub id: LsqId,
    /// The load's trace index.
    pub idx: u64,
    /// Effective address.
    pub addr: u64,
    /// Forward or cache access.
    pub kind: LoadKind,
}

/// The queue.
pub struct Lsq {
    slab: Vec<Entry>,
    free: Vec<LsqId>,
    live: usize,
    capacity: usize,
    transfer: u64,
    /// Live stores, oldest first, as `(idx, id)`.
    stores: VecDeque<(u64, LsqId)>,
    /// The oldest unknown-address store and every store allocated after it,
    /// oldest first (`store_ready` trims known stores off the front).
    unknown: VecDeque<LsqId>,
    /// Loads in `Waiting` phase, sorted by `idx`.
    waiting: Vec<LsqId>,
}

impl Lsq {
    /// `capacity` entries; `transfer` = one-way cluster↔LSQ latency.
    pub fn new(capacity: usize, transfer: u64) -> Self {
        Lsq {
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
            capacity,
            transfer,
            stores: VecDeque::with_capacity(capacity),
            unknown: VecDeque::with_capacity(capacity),
            waiting: Vec::with_capacity(capacity),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Space for one more?
    pub fn has_space(&self) -> bool {
        self.live < self.capacity
    }

    /// Allocate an entry at dispatch for the instruction at trace index
    /// `idx` (program order).
    pub fn alloc(&mut self, is_store: bool, idx: u64) -> LsqId {
        assert!(self.has_space(), "LSQ overflow");
        self.live += 1;
        let e = Entry {
            live: true,
            is_store,
            idx,
            addr: 0,
            addr_known: false,
            phase: LoadPhase::WaitAddr,
            arrival: 0,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slab[id as usize] = e;
                id
            }
            None => {
                self.slab.push(e);
                (self.slab.len() - 1) as LsqId
            }
        };
        if is_store {
            debug_assert!(
                self.stores.back().is_none_or(|&(s, _)| s < idx),
                "stores allocate in program order"
            );
            self.stores.push_back((idx, id));
            self.unknown.push_back(id);
        }
        id
    }

    /// Load AGU completed at `now`: address becomes known; the request
    /// reaches the LSQ after the transfer latency.
    pub fn load_addr_known(&mut self, id: LsqId, addr: u64, now: u64) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live && !e.is_store && e.phase == LoadPhase::WaitAddr);
        e.addr = addr;
        e.phase = LoadPhase::Waiting;
        e.arrival = now + self.transfer;
        let idx = e.idx;
        let slab = &self.slab;
        let at = self
            .waiting
            .partition_point(|&w| slab[w as usize].idx < idx);
        self.waiting.insert(at, id);
    }

    /// Store issued (address + data read) at `now`.
    pub fn store_ready(&mut self, id: LsqId, addr: u64) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live && e.is_store);
        e.addr = addr;
        e.addr_known = true;
        while let Some(&front) = self.unknown.front() {
            if !self.slab[front as usize].addr_known {
                break;
            }
            self.unknown.pop_front();
        }
    }

    /// Release an entry (load completion / store commit).
    pub fn release(&mut self, id: LsqId) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live);
        debug_assert!(e.phase != LoadPhase::Waiting, "load released while waiting");
        e.live = false;
        if e.is_store {
            // Its `unknown` entry is already trimmed: that queue's front is
            // a live unknown-address store, hence younger.
            debug_assert!(e.addr_known, "stores commit once issued");
            let front = self.stores.pop_front();
            debug_assert_eq!(front.map(|f| f.1), Some(id), "stores commit in order");
        }
        self.live -= 1;
        self.free.push(id);
    }

    /// [`Lsq::start_loads_into`] into a fresh `Vec`.
    #[cfg(test)]
    fn start_loads(&mut self, now: u64, ports: u32) -> Vec<StartedLoad> {
        let mut out = Vec::new();
        self.start_loads_into(now, ports, &mut out);
        out
    }

    /// Attempt to start waiting loads at `now`, oldest first, using at most
    /// `ports` cache ports (forwards are port-free), appending them to
    /// `started`. The caller schedules their completions and decrements its
    /// port budget by the number of `Cache` kinds.
    ///
    /// Loads at or past the oldest unknown-address store are blocked all at
    /// once (the conservative rule), so the walk stops there.
    pub fn start_loads_into(&mut self, now: u64, ports: u32, started: &mut Vec<StartedLoad>) {
        if self.waiting.is_empty() {
            return;
        }
        let barrier = self.barrier();
        let mut ports_left = ports;
        let mut kept = 0;
        let mut k = 0;
        while k < self.waiting.len() {
            let id = self.waiting[k];
            let e = self.slab[id as usize];
            if e.idx >= barrier {
                break;
            }
            k += 1;
            let kind = if e.arrival > now {
                None
            } else if self.forwards(e.idx, e.addr) {
                Some(LoadKind::Forward)
            } else if ports_left > 0 {
                ports_left -= 1;
                Some(LoadKind::Cache)
            } else {
                None
            };
            match kind {
                Some(kind) => {
                    self.slab[id as usize].phase = LoadPhase::Started;
                    started.push(StartedLoad {
                        id,
                        idx: e.idx,
                        addr: e.addr,
                        kind,
                    });
                }
                None => {
                    self.waiting[kept] = id;
                    kept += 1;
                }
            }
        }
        self.waiting.drain(kept..k);
    }

    /// The oldest unknown-address store's trace index (the conservative
    /// disambiguation barrier), or `u64::MAX` when none.
    fn barrier(&self) -> u64 {
        self.unknown
            .front()
            .map_or(u64::MAX, |&id| self.slab[id as usize].idx)
    }

    /// Does a live store older than `idx` have address `addr`? Walks the
    /// older stores youngest first; every one has a known address when the
    /// load is below the barrier.
    fn forwards(&self, idx: u64, addr: u64) -> bool {
        let older = self.stores.partition_point(|&(s, _)| s < idx);
        self.stores
            .range(..older)
            .rev()
            .any(|&(_, id)| self.slab[id as usize].addr == addr)
    }

    /// Would [`Lsq::start_loads_into`]`(now, ports, ..)` start at least one
    /// load now or, with no other event in between, when the load arrives?
    /// Read-only mirror of its eligibility rules minus the arrival filter,
    /// used by the event-driven loop to decide whether the upcoming cycle is
    /// dead: an in-transit load counts as live, so the loop never needs its
    /// arrival time.
    ///
    /// Port-order detail: forwards are port-free, and if any cache-eligible
    /// unblocked load exists the oldest one gets a port whenever `ports > 0`
    /// — so existence doesn't depend on the age-ordered port hand-out.
    pub fn would_start_any(&self, ports: u32) -> bool {
        let barrier = self.barrier();
        self.waiting
            .iter()
            .map(|&id| &self.slab[id as usize])
            .take_while(|e| e.idx < barrier)
            .any(|e| ports > 0 || self.forwards(e.idx, e.addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Copy)]
    struct Slot {
        live: bool,
        is_store: bool,
        idx: u64,
        addr: u64,
        addr_known: bool,
        phase: LoadPhase,
        arrival: u64,
    }

    /// Brute-force reference: the same slab and free list as [`Lsq`], with
    /// every query answered by scanning the whole slab.
    struct SlabScan {
        slab: Vec<Slot>,
        free: Vec<LsqId>,
        transfer: u64,
    }

    impl SlabScan {
        fn new(transfer: u64) -> Self {
            SlabScan {
                slab: Vec::new(),
                free: Vec::new(),
                transfer,
            }
        }

        fn alloc(&mut self, is_store: bool, idx: u64) -> LsqId {
            let e = Slot {
                live: true,
                is_store,
                idx,
                addr: 0,
                addr_known: false,
                phase: LoadPhase::WaitAddr,
                arrival: 0,
            };
            match self.free.pop() {
                Some(id) => {
                    self.slab[id as usize] = e;
                    id
                }
                None => {
                    self.slab.push(e);
                    (self.slab.len() - 1) as LsqId
                }
            }
        }

        fn load_addr_known(&mut self, id: LsqId, addr: u64, now: u64) {
            let e = &mut self.slab[id as usize];
            e.addr = addr;
            e.addr_known = true;
            e.phase = LoadPhase::Waiting;
            e.arrival = now + self.transfer;
        }

        fn store_ready(&mut self, id: LsqId, addr: u64) {
            let e = &mut self.slab[id as usize];
            e.addr = addr;
            e.addr_known = true;
        }

        fn release(&mut self, id: LsqId) {
            self.slab[id as usize].live = false;
            self.free.push(id);
        }

        fn barrier(&self) -> u64 {
            self.slab
                .iter()
                .filter(|s| s.live && s.is_store && !s.addr_known)
                .map(|s| s.idx)
                .min()
                .unwrap_or(u64::MAX)
        }

        /// Whether some live store older than `idx` has address `addr`.
        fn forwards(&self, idx: u64, addr: u64) -> bool {
            self.slab
                .iter()
                .any(|s| s.live && s.is_store && s.idx < idx && s.addr == addr)
        }

        fn start_loads(&mut self, now: u64, ports: u32) -> Vec<StartedLoad> {
            let barrier = self.barrier();
            let mut cands: Vec<usize> = (0..self.slab.len())
                .filter(|&i| {
                    let e = &self.slab[i];
                    e.live
                        && !e.is_store
                        && e.phase == LoadPhase::Waiting
                        && e.arrival <= now
                        && e.idx < barrier
                })
                .collect();
            cands.sort_unstable_by_key(|&i| self.slab[i].idx);
            let mut ports_left = ports;
            let mut out = Vec::new();
            for i in cands {
                let (idx, addr) = (self.slab[i].idx, self.slab[i].addr);
                let kind = if self.forwards(idx, addr) {
                    LoadKind::Forward
                } else if ports_left > 0 {
                    ports_left -= 1;
                    LoadKind::Cache
                } else {
                    continue;
                };
                self.slab[i].phase = LoadPhase::Started;
                out.push(StartedLoad {
                    id: i as LsqId,
                    idx,
                    addr,
                    kind,
                });
            }
            out
        }

        fn would_start_any(&self, ports: u32) -> bool {
            let barrier = self.barrier();
            self.slab.iter().any(|e| {
                e.live
                    && !e.is_store
                    && e.phase == LoadPhase::Waiting
                    && e.idx < barrier
                    && (ports > 0 || self.forwards(e.idx, e.addr))
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Random program-order sequences as the pipeline issues them:
        /// allocation in trace-index order, loads released once started, stores
        /// released oldest first once their address is known.
        #[test]
        fn indexed_lsq_matches_full_slab_scan(
            capacity in 2usize..=256,
            transfer in 0u64..=5,
            ops in prop::collection::vec((0u8..11, 0u32..1 << 16, 0u32..=4), 1..1500),
        ) {
            let mut lsq = Lsq::new(capacity, transfer);
            let mut oracle = SlabScan::new(transfer);
            let (mut idx, mut now) = (0u64, 0u64);
            // Loads without an address; stores without an address; started
            // loads; live stores oldest first (id, address known).
            let (mut wait_addr, mut unready, mut started) = (Vec::new(), Vec::new(), Vec::new());
            let mut stores: std::collections::VecDeque<(LsqId, bool)> = Default::default();
            let mut out = Vec::new();
            for (op, pick, ports) in ops {
                let p = pick as usize;
                let addr = 8 * u64::from(pick % 12);
                match op {
                    0..=2 if lsq.has_space() => {
                        let is_store = pick % 3 == 0;
                        idx += 1 + u64::from(pick % 2);
                        let id = lsq.alloc(is_store, idx);
                        prop_assert_eq!(id, oracle.alloc(is_store, idx));
                        if is_store {
                            unready.push(id);
                            stores.push_back((id, false));
                        } else {
                            wait_addr.push(id);
                        }
                    }
                    3 | 4 if !wait_addr.is_empty() => {
                        let id = wait_addr.swap_remove(p % wait_addr.len());
                        lsq.load_addr_known(id, addr, now);
                        oracle.load_addr_known(id, addr, now);
                    }
                    5 | 6 if !unready.is_empty() => {
                        let id = unready.swap_remove(p % unready.len());
                        lsq.store_ready(id, addr);
                        oracle.store_ready(id, addr);
                        stores.iter_mut().find(|s| s.0 == id).unwrap().1 = true;
                    }
                    7 | 8 => {
                        let id = if pick % 2 == 0 && stores.front().is_some_and(|s| s.1) {
                            stores.pop_front().unwrap().0
                        } else if !started.is_empty() {
                            started.swap_remove(p % started.len())
                        } else {
                            continue;
                        };
                        lsq.release(id);
                        oracle.release(id);
                    }
                    9 | 10 => {
                        now += u64::from(pick % 3);
                        out.clear();
                        lsq.start_loads_into(now, ports, &mut out);
                        let want = oracle.start_loads(now, ports);
                        prop_assert_eq!(&out, &want, "now {}", now);
                        started.extend(out.iter().map(|s| s.id));
                    }
                    _ => {}
                }
                prop_assert_eq!(lsq.would_start_any(ports), oracle.would_start_any(ports));
                prop_assert_eq!(lsq.len(), oracle.slab.iter().filter(|e| e.live).count());
            }
        }
    }

    #[test]
    fn load_waits_for_older_store_address() {
        let mut l = Lsq::new(8, 1);
        let st = l.alloc(true, 10);
        let ld = l.alloc(false, 11);
        l.load_addr_known(ld, 0x100, 0);
        // Store address unknown: the load must not start.
        assert!(l.start_loads(5, 4).is_empty());
        l.store_ready(st, 0x200);
        // Different address: load goes to the cache.
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Cache);
    }

    #[test]
    fn forwarding_from_matching_store() {
        let mut l = Lsq::new(8, 1);
        let st = l.alloc(true, 10);
        let ld = l.alloc(false, 11);
        l.store_ready(st, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
    }

    #[test]
    fn forwards_from_youngest_matching_store() {
        let mut l = Lsq::new(8, 1);
        let st1 = l.alloc(true, 10);
        let st2 = l.alloc(true, 12);
        let ld = l.alloc(false, 13);
        l.store_ready(st1, 0x100);
        l.store_ready(st2, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        let s = l.start_loads(3, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
        let _ = (st1, st2);
    }

    #[test]
    fn younger_stores_do_not_block() {
        let mut l = Lsq::new(8, 1);
        let ld = l.alloc(false, 10);
        let _st = l.alloc(true, 11); // younger, address unknown
        l.load_addr_known(ld, 0x80, 0);
        let s = l.start_loads(4, 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn transfer_latency_delays_arrival() {
        let mut l = Lsq::new(8, 1);
        let ld = l.alloc(false, 1);
        l.load_addr_known(ld, 0x40, 10); // arrives at 11
        assert!(l.start_loads(10, 4).is_empty());
        assert_eq!(l.start_loads(11, 4).len(), 1);
    }

    #[test]
    fn port_budget_limits_cache_loads() {
        let mut l = Lsq::new(16, 0);
        for k in 0..6 {
            let id = l.alloc(false, k as u64);
            l.load_addr_known(id, 0x1000 + 8 * k as u64, 0);
        }
        let s = l.start_loads(0, 4);
        assert_eq!(s.len(), 4, "only 4 D-cache ports");
        let s2 = l.start_loads(1, 4);
        assert_eq!(s2.len(), 2, "remaining loads start next cycle");
    }

    #[test]
    fn oldest_load_wins_ports() {
        let mut l = Lsq::new(8, 0);
        let young = l.alloc(false, 20);
        let old = l.alloc(false, 5);
        l.load_addr_known(young, 0x8, 0);
        l.load_addr_known(old, 0x10, 0);
        let s = l.start_loads(0, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, old);
    }

    #[test]
    fn capacity_and_release() {
        let mut l = Lsq::new(2, 1);
        let a = l.alloc(false, 0);
        let _b = l.alloc(true, 1);
        assert!(!l.has_space());
        l.release(a);
        assert!(l.has_space());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn would_start_any_mirrors_start_loads() {
        // Every eligibility rule, probed read-only before the mutating call.
        let mut l = Lsq::new(8, 1);
        assert!(!l.would_start_any(4), "empty queue");
        let st = l.alloc(true, 10);
        let ld = l.alloc(false, 11);
        l.load_addr_known(ld, 0x100, 0); // arrives at 1
        assert!(!l.would_start_any(4), "blocked by unknown store address");
        l.store_ready(st, 0x200);
        assert!(l.would_start_any(4), "barrier lifted, cache access");
        assert!(!l.would_start_any(0), "no ports, no cache access");
        // An unblocked load still in transit starts on arrival.
        let mut transit = Lsq::new(8, 5);
        let ld_t = transit.alloc(false, 1);
        transit.load_addr_known(ld_t, 0x80, 0); // arrives at 5
        assert!(transit.would_start_any(4), "in transit, starts on arrival");
        assert!(transit.start_loads(0, 4).is_empty(), "not yet arrived");
        // A matching store makes it a port-free forward.
        let mut l2 = Lsq::new(8, 0);
        let st2 = l2.alloc(true, 1);
        let ld2 = l2.alloc(false, 2);
        l2.store_ready(st2, 0x40);
        l2.load_addr_known(ld2, 0x40, 0);
        assert!(l2.would_start_any(0), "forwards need no port");
        let mut out = Vec::new();
        l2.start_loads_into(0, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!l2.would_start_any(4), "started load must not re-report");
    }

    #[test]
    fn forward_blocked_until_store_data_ready() {
        // A store's address and data become known together, so a load is
        // never blocked on a matching store's data: it forwards at once.
        // Verify it starts exactly once (no double start).
        let mut l = Lsq::new(8, 0);
        let st = l.alloc(true, 1);
        let ld = l.alloc(false, 2);
        l.store_ready(st, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        assert_eq!(l.start_loads(0, 4).len(), 1);
        assert!(
            l.start_loads(1, 4).is_empty(),
            "started load must not restart"
        );
    }
}
