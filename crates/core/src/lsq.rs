//! Load/store queue with conservative disambiguation and store→load
//! forwarding.
//!
//! Model (identical for both architectures; the D-cache is centralized and
//! equidistant from all clusters, §3.3):
//!
//! * loads/stores compute their address on an integer ALU in their cluster,
//!   then spend 1 cycle in transit to the LSQ/D-cache;
//! * a load may access memory once every **older** store's address is known;
//! * if the youngest older store with a matching (8-byte) address has its
//!   data, the load forwards from it in 1 cycle instead of accessing the
//!   cache;
//! * stores write the cache when they drain from the committed-store buffer.

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
    /// Program-order sequence (dispatch order).
    seq: u64,
    rob: u32,
    addr: u64,
    addr_known: bool,
    /// Stores: data operand read (stores issue with both operands ready, so
    /// this is set together with `addr_known`).
    data_ready: bool,
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
#[derive(Clone, Copy, Debug)]
pub struct StartedLoad {
    /// LSQ slab id.
    pub id: LsqId,
    /// ROB index of the load.
    pub rob: u32,
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
    /// Loads in `Waiting` phase (early-out for the per-cycle scan).
    waiting: usize,
    scratch: Vec<usize>,
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
            waiting: 0,
            scratch: Vec::new(),
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

    /// Allocate an entry at dispatch (program order = `seq`).
    pub fn alloc(&mut self, is_store: bool, rob: u32, seq: u64) -> LsqId {
        assert!(self.has_space(), "LSQ overflow");
        self.live += 1;
        let e = Entry {
            live: true,
            is_store,
            seq,
            rob,
            addr: 0,
            addr_known: false,
            data_ready: false,
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

    /// Load AGU completed at `now`: address becomes known; the request
    /// reaches the LSQ after the transfer latency.
    pub fn load_addr_known(&mut self, id: LsqId, addr: u64, now: u64) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live && !e.is_store);
        e.addr = addr;
        e.addr_known = true;
        e.phase = LoadPhase::Waiting;
        e.arrival = now + self.transfer;
        self.waiting += 1;
    }

    /// Store issued (address + data read) at `now`.
    pub fn store_ready(&mut self, id: LsqId, addr: u64) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live && e.is_store);
        e.addr = addr;
        e.addr_known = true;
        e.data_ready = true;
    }

    /// Release an entry (load completion / store commit).
    pub fn release(&mut self, id: LsqId) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live);
        e.live = false;
        self.live -= 1;
        self.free.push(id);
    }

    /// Attempt to start waiting loads at `now`, oldest first, using at most
    /// `ports` cache ports (forwards are port-free). Returns the loads that
    /// started; the caller schedules their completions and decrements its
    /// port budget by the number of `Cache` kinds.
    pub fn start_loads(&mut self, now: u64, ports: u32) -> Vec<StartedLoad> {
        let mut out = Vec::new();
        self.start_loads_into(now, ports, &mut out);
        out
    }

    /// Allocation-free variant of [`Lsq::start_loads`]; appends to `started`.
    ///
    /// Two passes: the first finds the oldest store with an unknown address
    /// (which blocks every younger load at once — the conservative rule),
    /// the second processes only the unblocked waiting loads.
    pub fn start_loads_into(&mut self, now: u64, ports: u32, started: &mut Vec<StartedLoad>) {
        if self.waiting == 0 {
            return;
        }
        let mut ports_left = ports;
        // Pass 1: the oldest unknown-address store bounds eligibility.
        let unknown_barrier = self.unknown_barrier();
        // Pass 2: collect eligible waiting loads.
        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        cands.extend((0..self.slab.len()).filter(|&i| {
            let e = &self.slab[i];
            e.live
                && !e.is_store
                && e.phase == LoadPhase::Waiting
                && e.arrival <= now
                && e.seq < unknown_barrier
        }));
        cands.sort_unstable_by_key(|&i| self.slab[i].seq);
        for i in cands.drain(..) {
            let (seq, addr) = (self.slab[i].seq, self.slab[i].addr);
            // Youngest older store with a matching address forwards.
            let mut forward_from: Option<usize> = None;
            let mut best_seq = 0u64;
            for (j, s) in self.slab.iter().enumerate() {
                if s.live && s.is_store && s.seq < seq && s.addr == addr && s.seq >= best_seq {
                    best_seq = s.seq;
                    forward_from = Some(j);
                }
            }
            match forward_from {
                Some(j) => {
                    if self.slab[j].data_ready {
                        self.slab[i].phase = LoadPhase::Started;
                        self.waiting -= 1;
                        started.push(StartedLoad {
                            id: i as LsqId,
                            rob: self.slab[i].rob,
                            addr,
                            kind: LoadKind::Forward,
                        });
                    }
                    // else: wait for the store's data.
                }
                None => {
                    if ports_left == 0 {
                        continue;
                    }
                    ports_left -= 1;
                    self.slab[i].phase = LoadPhase::Started;
                    self.waiting -= 1;
                    started.push(StartedLoad {
                        id: i as LsqId,
                        rob: self.slab[i].rob,
                        addr,
                        kind: LoadKind::Cache,
                    });
                }
            }
        }
        self.scratch = cands;
    }

    /// The oldest unknown-address store's sequence number (the conservative
    /// disambiguation barrier), or `u64::MAX` when none.
    fn unknown_barrier(&self) -> u64 {
        let mut barrier = u64::MAX;
        for s in &self.slab {
            if s.live && s.is_store && !s.addr_known && s.seq < barrier {
                barrier = s.seq;
            }
        }
        barrier
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
    /// — so existence doesn't depend on the seq-ordered port hand-out.
    pub fn would_start_any(&self, ports: u32) -> bool {
        if self.waiting == 0 {
            return false;
        }
        let barrier = self.unknown_barrier();
        for e in &self.slab {
            if !(e.live && !e.is_store && e.phase == LoadPhase::Waiting && e.seq < barrier) {
                continue;
            }
            let mut forward_from: Option<&Entry> = None;
            let mut best_seq = 0u64;
            for s in &self.slab {
                if s.live && s.is_store && s.seq < e.seq && s.addr == e.addr && s.seq >= best_seq {
                    best_seq = s.seq;
                    forward_from = Some(s);
                }
            }
            match forward_from {
                Some(s) => {
                    if s.data_ready {
                        return true;
                    }
                    // else: forward-blocked; the store's data arrival is a
                    // StoreReady event, which wakes the core anyway.
                }
                None => {
                    if ports > 0 {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_waits_for_older_store_address() {
        let mut l = Lsq::new(8, 1);
        let st = l.alloc(true, 0, 10);
        let ld = l.alloc(false, 1, 11);
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
        let st = l.alloc(true, 0, 10);
        let ld = l.alloc(false, 1, 11);
        l.store_ready(st, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
    }

    #[test]
    fn forwards_from_youngest_matching_store() {
        let mut l = Lsq::new(8, 1);
        let st1 = l.alloc(true, 0, 10);
        let st2 = l.alloc(true, 1, 12);
        let ld = l.alloc(false, 2, 13);
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
        let ld = l.alloc(false, 0, 10);
        let _st = l.alloc(true, 1, 11); // younger, address unknown
        l.load_addr_known(ld, 0x80, 0);
        let s = l.start_loads(4, 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn transfer_latency_delays_arrival() {
        let mut l = Lsq::new(8, 1);
        let ld = l.alloc(false, 0, 1);
        l.load_addr_known(ld, 0x40, 10); // arrives at 11
        assert!(l.start_loads(10, 4).is_empty());
        assert_eq!(l.start_loads(11, 4).len(), 1);
    }

    #[test]
    fn port_budget_limits_cache_loads() {
        let mut l = Lsq::new(16, 0);
        for k in 0..6 {
            let id = l.alloc(false, k, k as u64);
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
        let young = l.alloc(false, 1, 20);
        let old = l.alloc(false, 0, 5);
        l.load_addr_known(young, 0x8, 0);
        l.load_addr_known(old, 0x10, 0);
        let s = l.start_loads(0, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, old);
    }

    #[test]
    fn capacity_and_release() {
        let mut l = Lsq::new(2, 1);
        let a = l.alloc(false, 0, 0);
        let _b = l.alloc(true, 1, 1);
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
        let st = l.alloc(true, 0, 10);
        let ld = l.alloc(false, 1, 11);
        l.load_addr_known(ld, 0x100, 0); // arrives at 1
        assert!(!l.would_start_any(4), "blocked by unknown store address");
        l.store_ready(st, 0x200);
        assert!(l.would_start_any(4), "barrier lifted, cache access");
        assert!(!l.would_start_any(0), "no ports, no cache access");
        // An unblocked load still in transit starts on arrival.
        let mut transit = Lsq::new(8, 5);
        let ld_t = transit.alloc(false, 0, 1);
        transit.load_addr_known(ld_t, 0x80, 0); // arrives at 5
        assert!(transit.would_start_any(4), "in transit, starts on arrival");
        assert!(transit.start_loads(0, 4).is_empty(), "not yet arrived");
        // A matching store makes it a port-free forward.
        let mut l2 = Lsq::new(8, 0);
        let st2 = l2.alloc(true, 0, 1);
        let ld2 = l2.alloc(false, 1, 2);
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
        // A store whose address is known via... in our model address+data
        // become known together, so an addr-matching store always forwards.
        // Verify the load starts exactly once (no double start).
        let mut l = Lsq::new(8, 0);
        let st = l.alloc(true, 0, 1);
        let ld = l.alloc(false, 1, 2);
        l.store_ready(st, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        assert_eq!(l.start_loads(0, 4).len(), 1);
        assert!(
            l.start_loads(1, 4).is_empty(),
            "started load must not restart"
        );
    }
}
