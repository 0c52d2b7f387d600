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
//! An entry is named by its instruction's trace index, which is also its
//! program-order age (the core dispatches in trace order). The queue keeps
//! a count of its entries and two program-ordered lists:
//!
//! * **live stores**, oldest first, each with its address once known:
//!   `alloc` pushes to the back and `release_store` pops the front (stores
//!   commit in order). A cursor `known` marks the first store whose address
//!   is unknown — every store before it is known, so it is the
//!   disambiguation barrier — and `store_ready` moves it on past the known
//!   stores (amortized O(1)). The forwarding check for a load
//!   binary-searches its older stores and walks them youngest first,
//!   stopping at the first address match;
//! * **waiting loads** (address known, not started), sorted by trace
//!   index: `load_addr_known` inserts by binary search and a load leaves
//!   when it starts.
//!
//! [`Lsq::start_loads_into`] walks the waiting loads oldest first up to the
//! barrier and [`Lsq::would_start_any`] does the same walk without the
//! arrival filter (and stops at the first startable load), so both cost
//! O(waiting loads × older stores) at worst, not O(capacity²).

use std::collections::VecDeque;

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
    /// The load's trace index.
    pub idx: u64,
    /// Effective address.
    pub addr: u64,
    /// Forward or cache access.
    pub kind: LoadKind,
}

/// The queue.
pub struct Lsq {
    len: usize,
    capacity: usize,
    transfer: u64,
    /// Live stores, oldest first, as `(idx, address once issued)`.
    stores: VecDeque<(u64, Option<u64>)>,
    /// Every store in `stores[..known]` has a known address; `stores[known]`
    /// (when present) is the oldest unknown-address store.
    known: usize,
    /// Waiting loads as `(idx, addr, arrival)`, sorted by `idx`; `arrival`
    /// is the cycle the request is present at the LSQ.
    waiting: Vec<(u64, u64, u64)>,
}

impl Lsq {
    /// `capacity` entries; `transfer` = one-way cluster↔LSQ latency.
    pub fn new(capacity: usize, transfer: u64) -> Self {
        Lsq {
            len: 0,
            capacity,
            transfer,
            stores: VecDeque::with_capacity(capacity),
            known: 0,
            waiting: Vec::with_capacity(capacity),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space for one more?
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Allocate an entry at dispatch for the instruction at trace index
    /// `idx` (program order).
    pub fn alloc(&mut self, is_store: bool, idx: u64) {
        assert!(self.has_space(), "LSQ overflow");
        self.len += 1;
        if is_store {
            debug_assert!(
                self.stores.back().is_none_or(|&(s, _)| s < idx),
                "stores allocate in program order"
            );
            self.stores.push_back((idx, None));
        }
    }

    /// The load at trace index `idx` finished its AGU at `now`: its
    /// address becomes known and the request reaches the LSQ after the
    /// transfer latency.
    pub fn load_addr_known(&mut self, idx: u64, addr: u64, now: u64) {
        let at = self.waiting.partition_point(|w| w.0 < idx);
        debug_assert!(
            self.waiting.get(at).is_none_or(|w| w.0 != idx),
            "a load's address becomes known once"
        );
        self.waiting.insert(at, (idx, addr, now + self.transfer));
    }

    /// The store at trace index `idx` issued (address + data read).
    pub fn store_ready(&mut self, idx: u64, addr: u64) {
        let at = self.stores.partition_point(|&(s, _)| s < idx);
        let store = &mut self.stores[at];
        debug_assert!(
            store.0 == idx && store.1.is_none(),
            "store_ready names a live store"
        );
        store.1 = Some(addr);
        while let Some((_, Some(_))) = self.stores.get(self.known) {
            self.known += 1;
        }
    }

    /// Release the load at trace index `idx` (completion).
    pub fn release_load(&mut self, idx: u64) {
        debug_assert!(
            self.waiting.binary_search_by_key(&idx, |w| w.0).is_err(),
            "load released while waiting"
        );
        self.len -= 1;
    }

    /// Release the store at trace index `idx` (commit): the oldest live
    /// store, with a known address.
    pub fn release_store(&mut self, idx: u64) {
        let front = self.stores.pop_front();
        debug_assert!(
            front.is_some_and(|(s, addr)| s == idx && addr.is_some()),
            "stores commit in order and once issued"
        );
        // The front store was known, so the cursor was past it.
        self.known -= 1;
        self.len -= 1;
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
            let (idx, addr, arrival) = self.waiting[k];
            if idx >= barrier {
                break;
            }
            k += 1;
            let kind = if arrival > now {
                None
            } else if self.forwards(idx, addr) {
                Some(LoadKind::Forward)
            } else if ports_left > 0 {
                ports_left -= 1;
                Some(LoadKind::Cache)
            } else {
                None
            };
            match kind {
                Some(kind) => started.push(StartedLoad { idx, addr, kind }),
                None => {
                    self.waiting[kept] = (idx, addr, arrival);
                    kept += 1;
                }
            }
        }
        self.waiting.drain(kept..k);
    }

    /// The oldest unknown-address store's trace index (the conservative
    /// disambiguation barrier), or `u64::MAX` when none.
    fn barrier(&self) -> u64 {
        self.stores.get(self.known).map_or(u64::MAX, |&(s, _)| s)
    }

    /// Does a live store older than `idx` have address `addr`? Walks the
    /// older stores youngest first; every one has a known address when the
    /// load is below the barrier.
    fn forwards(&self, idx: u64, addr: u64) -> bool {
        let older = self.stores.partition_point(|&(s, _)| s < idx);
        self.stores
            .range(..older)
            .rev()
            .any(|&(_, a)| a == Some(addr))
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
            .take_while(|w| w.0 < barrier)
            .any(|&(idx, addr, _)| ports > 0 || self.forwards(idx, addr))
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
        /// Known address (stores: once issued; loads: once the AGU ran).
        addr: Option<u64>,
        /// Loads: address known and not started.
        waiting: bool,
        arrival: u64,
    }

    /// Brute-force reference: every entry ever allocated in one `Vec`,
    /// found by trace index, with every query answered by scanning it.
    struct SlabScan {
        slab: Vec<Slot>,
        transfer: u64,
    }

    impl SlabScan {
        fn new(transfer: u64) -> Self {
            SlabScan {
                slab: Vec::new(),
                transfer,
            }
        }

        fn slot(&mut self, idx: u64) -> &mut Slot {
            self.slab
                .iter_mut()
                .find(|s| s.idx == idx)
                .expect("allocated")
        }

        fn alloc(&mut self, is_store: bool, idx: u64) {
            self.slab.push(Slot {
                live: true,
                is_store,
                idx,
                addr: None,
                waiting: false,
                arrival: 0,
            });
        }

        fn load_addr_known(&mut self, idx: u64, addr: u64, now: u64) {
            let arrival = now + self.transfer;
            let e = self.slot(idx);
            e.addr = Some(addr);
            e.waiting = true;
            e.arrival = arrival;
        }

        fn store_ready(&mut self, idx: u64, addr: u64) {
            self.slot(idx).addr = Some(addr);
        }

        fn release(&mut self, idx: u64) {
            self.slot(idx).live = false;
        }

        fn barrier(&self) -> u64 {
            self.slab
                .iter()
                .filter(|s| s.live && s.is_store && s.addr.is_none())
                .map(|s| s.idx)
                .min()
                .unwrap_or(u64::MAX)
        }

        /// Whether some live store older than `idx` has address `addr`.
        fn forwards(&self, idx: u64, addr: u64) -> bool {
            self.slab
                .iter()
                .any(|s| s.live && s.is_store && s.idx < idx && s.addr == Some(addr))
        }

        fn start_loads(&mut self, now: u64, ports: u32) -> Vec<StartedLoad> {
            let barrier = self.barrier();
            let mut cands: Vec<usize> = (0..self.slab.len())
                .filter(|&i| {
                    let e = &self.slab[i];
                    e.live && e.waiting && e.arrival <= now && e.idx < barrier
                })
                .collect();
            cands.sort_unstable_by_key(|&i| self.slab[i].idx);
            let mut ports_left = ports;
            let mut out = Vec::new();
            for i in cands {
                let (idx, addr) = (self.slab[i].idx, self.slab[i].addr.unwrap());
                let kind = if self.forwards(idx, addr) {
                    LoadKind::Forward
                } else if ports_left > 0 {
                    ports_left -= 1;
                    LoadKind::Cache
                } else {
                    continue;
                };
                self.slab[i].waiting = false;
                out.push(StartedLoad { idx, addr, kind });
            }
            out
        }

        fn would_start_any(&self, ports: u32) -> bool {
            let barrier = self.barrier();
            self.slab.iter().any(|e| {
                e.live
                    && e.waiting
                    && e.idx < barrier
                    && (ports > 0 || self.forwards(e.idx, e.addr.unwrap()))
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
            // loads; live stores oldest first (idx, address known).
            let (mut wait_addr, mut unready, mut started) = (Vec::new(), Vec::new(), Vec::new());
            let mut stores: std::collections::VecDeque<(u64, bool)> = Default::default();
            let mut out = Vec::new();
            for (op, pick, ports) in ops {
                let p = pick as usize;
                let addr = 8 * u64::from(pick % 12);
                match op {
                    0..=2 if lsq.has_space() => {
                        let is_store = pick % 3 == 0;
                        idx += 1 + u64::from(pick % 2);
                        lsq.alloc(is_store, idx);
                        oracle.alloc(is_store, idx);
                        if is_store {
                            unready.push(idx);
                            stores.push_back((idx, false));
                        } else {
                            wait_addr.push(idx);
                        }
                    }
                    3 | 4 if !wait_addr.is_empty() => {
                        let i = wait_addr.swap_remove(p % wait_addr.len());
                        lsq.load_addr_known(i, addr, now);
                        oracle.load_addr_known(i, addr, now);
                    }
                    5 | 6 if !unready.is_empty() => {
                        let i = unready.swap_remove(p % unready.len());
                        lsq.store_ready(i, addr);
                        oracle.store_ready(i, addr);
                        stores.iter_mut().find(|s| s.0 == i).unwrap().1 = true;
                    }
                    7 | 8 => {
                        if pick % 2 == 0 && stores.front().is_some_and(|s| s.1) {
                            let i = stores.pop_front().unwrap().0;
                            lsq.release_store(i);
                            oracle.release(i);
                        } else if !started.is_empty() {
                            let i = started.swap_remove(p % started.len());
                            lsq.release_load(i);
                            oracle.release(i);
                        }
                    }
                    9 | 10 => {
                        now += u64::from(pick % 3);
                        out.clear();
                        lsq.start_loads_into(now, ports, &mut out);
                        let want = oracle.start_loads(now, ports);
                        prop_assert_eq!(&out, &want, "now {}", now);
                        started.extend(out.iter().map(|s| s.idx));
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
        l.alloc(true, 10);
        l.alloc(false, 11);
        l.load_addr_known(11, 0x100, 0);
        // Store address unknown: the load must not start.
        assert!(l.start_loads(5, 4).is_empty());
        l.store_ready(10, 0x200);
        // Different address: load goes to the cache.
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Cache);
    }

    #[test]
    fn forwarding_from_matching_store() {
        let mut l = Lsq::new(8, 1);
        l.alloc(true, 10);
        l.alloc(false, 11);
        l.store_ready(10, 0x100);
        l.load_addr_known(11, 0x100, 0);
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
    }

    #[test]
    fn forwards_from_youngest_matching_store() {
        let mut l = Lsq::new(8, 1);
        l.alloc(true, 10);
        l.alloc(true, 12);
        l.alloc(false, 13);
        l.store_ready(10, 0x100);
        l.store_ready(12, 0x100);
        l.load_addr_known(13, 0x100, 0);
        let s = l.start_loads(3, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
    }

    #[test]
    fn younger_stores_do_not_block() {
        let mut l = Lsq::new(8, 1);
        l.alloc(false, 10);
        l.alloc(true, 11); // younger, address unknown
        l.load_addr_known(10, 0x80, 0);
        let s = l.start_loads(4, 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn transfer_latency_delays_arrival() {
        let mut l = Lsq::new(8, 1);
        l.alloc(false, 1);
        l.load_addr_known(1, 0x40, 10); // arrives at 11
        assert!(l.start_loads(10, 4).is_empty());
        assert_eq!(l.start_loads(11, 4).len(), 1);
    }

    #[test]
    fn port_budget_limits_cache_loads() {
        let mut l = Lsq::new(16, 0);
        for k in 0..6u64 {
            l.alloc(false, k);
            l.load_addr_known(k, 0x1000 + 8 * k, 0);
        }
        let s = l.start_loads(0, 4);
        assert_eq!(s.len(), 4, "only 4 D-cache ports");
        let s2 = l.start_loads(1, 4);
        assert_eq!(s2.len(), 2, "remaining loads start next cycle");
    }

    #[test]
    fn oldest_load_wins_ports() {
        let mut l = Lsq::new(8, 0);
        l.alloc(false, 5);
        l.alloc(false, 20);
        l.load_addr_known(20, 0x8, 0);
        l.load_addr_known(5, 0x10, 0);
        let s = l.start_loads(0, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].idx, 5);
    }

    #[test]
    fn capacity_and_release() {
        let mut l = Lsq::new(2, 1);
        l.alloc(false, 0);
        l.alloc(true, 1);
        assert!(!l.has_space());
        l.release_load(0);
        assert!(l.has_space());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn would_start_any_mirrors_start_loads() {
        // Every eligibility rule, probed read-only before the mutating call.
        let mut l = Lsq::new(8, 1);
        assert!(!l.would_start_any(4), "empty queue");
        l.alloc(true, 10);
        l.alloc(false, 11);
        l.load_addr_known(11, 0x100, 0); // arrives at 1
        assert!(!l.would_start_any(4), "blocked by unknown store address");
        l.store_ready(10, 0x200);
        assert!(l.would_start_any(4), "barrier lifted, cache access");
        assert!(!l.would_start_any(0), "no ports, no cache access");
        // An unblocked load still in transit starts on arrival.
        let mut transit = Lsq::new(8, 5);
        transit.alloc(false, 1);
        transit.load_addr_known(1, 0x80, 0); // arrives at 5
        assert!(transit.would_start_any(4), "in transit, starts on arrival");
        assert!(transit.start_loads(0, 4).is_empty(), "not yet arrived");
        // A matching store makes it a port-free forward.
        let mut l2 = Lsq::new(8, 0);
        l2.alloc(true, 1);
        l2.alloc(false, 2);
        l2.store_ready(1, 0x40);
        l2.load_addr_known(2, 0x40, 0);
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
        l.alloc(true, 1);
        l.alloc(false, 2);
        l.store_ready(1, 0x100);
        l.load_addr_known(2, 0x100, 0);
        assert_eq!(l.start_loads(0, 4).len(), 1);
        assert!(
            l.start_loads(1, 4).is_empty(),
            "started load must not restart"
        );
    }
}
