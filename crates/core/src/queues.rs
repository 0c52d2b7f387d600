//! Per-cluster issue queues and communication queues.
//!
//! Wakeup is modelled as a tag broadcast: when a value becomes ready in a
//! cluster, every queue entry in that cluster waiting on it clears the
//! matching source. Selection is oldest-first among ready entries, as in the
//! paper's baseline. An entry's age is its instruction's trace index: the
//! core dispatches in program order and never fetches a wrong path, so the
//! trace index is both the instruction's identity and its age stamp.
//!
//! An [`IssueQueue`] is a window of slots tracked by bitsets: an entry keeps
//! its slot from dispatch until it issues, occupancy and readiness are one
//! bit per slot, and each value owns a bitset of the slots waiting on it.
//! Wakeup visits only those slots, selection sorts only the ready ones, and
//! issue clears bits; no operation scans the waiting entries. A
//! [`CommQueue`] stays a plain `Vec` (see [`CommQueue::ready_into`] for why
//! its layout is part of the timing model).

use rcmc_isa::InsnClass;

use crate::value::ValueId;

/// One issue-queue entry (an in-flight, not-yet-issued instruction).
#[derive(Clone, Copy, Debug)]
pub struct IqEntry {
    /// The instruction's trace index: its identity and its age.
    pub idx: u64,
    /// Behavioural class (selects FU and latency).
    pub class: InsnClass,
    /// Source values still being waited on (`None` = slot unused/ready).
    pub waits: [Option<ValueId>; 2],
    /// Values read by this instruction (for OnLastRead reader accounting).
    pub reads: [Option<ValueId>; 2],
}

impl IqEntry {
    /// Ready to issue?
    #[inline]
    pub fn ready(&self) -> bool {
        self.waits[0].is_none() && self.waits[1].is_none()
    }
}

/// A bounded, age-ordered issue queue on bitsets of `capacity.div_ceil(64)`
/// words. `push` takes the lowest free slot and the entry keeps it until
/// `remove_many` frees it, so the indices `ready_into` hands out stay valid
/// until issue. Ready counts, in total and per functional-unit kind, are
/// kept up to date on push, wakeup and remove.
///
/// A slot is in value `v`'s waiter bitset exactly while its entry waits on
/// `v`: `push` sets the bit and the wakeup of `v` consumes the whole
/// bitset. Only ready entries are removed, so a freed slot is in no waiter
/// bitset, and a waiting entry is a registered reader of `v`, so `v`'s id
/// cannot be recycled before its wakeup.
pub struct IssueQueue {
    /// Entries by slot, meaningful while the slot's `occupied` bit is set.
    slots: Vec<IqEntry>,
    capacity: usize,
    /// Slots holding an entry.
    occupied: Box<[u64]>,
    /// Occupied slots whose entry waits on nothing.
    ready: Box<[u64]>,
    /// Occupied slots.
    len: usize,
    /// Set bits of `ready`.
    n_ready: usize,
    /// Ready entries per [`fu_index`] kind.
    ready_fu: [usize; 4],
    /// Slots waiting on each value: one bitset (as many words as
    /// `occupied`) per [`ValueId`], grown lazily to the highest id waited on.
    waiters: Vec<u64>,
}

impl IssueQueue {
    /// Queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        IssueQueue {
            slots: Vec::with_capacity(capacity),
            capacity,
            occupied: vec![0; words].into_boxed_slice(),
            ready: vec![0; words].into_boxed_slice(),
            len: 0,
            n_ready: 0,
            ready_fu: [0; 4],
            waiters: Vec::new(),
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

    /// Room for one more?
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Set `slot`'s ready bit and count it.
    #[inline]
    fn mark_ready(&mut self, slot: usize) {
        self.ready[slot / 64] |= 1 << (slot % 64);
        self.n_ready += 1;
        if let Some(kind) = self.slots[slot].class.fu() {
            self.ready_fu[fu_index(kind)] += 1;
        }
    }

    /// Insert at dispatch into the lowest free slot. Panics if full (caller
    /// checks `has_space`).
    #[inline]
    pub fn push(&mut self, e: IqEntry) {
        assert!(self.has_space(), "issue queue overflow");
        // With a free slot below `capacity`, the lowest clear bit is one.
        let (w, free) = self
            .occupied
            .iter()
            .enumerate()
            .find_map(|(w, &word)| (word != u64::MAX).then_some((w, !word)))
            .expect("a free slot below capacity");
        let slot = w * 64 + free.trailing_zeros() as usize;
        if slot == self.slots.len() {
            self.slots.push(e);
        } else {
            self.slots[slot] = e;
        }
        self.occupied[w] |= 1 << (slot % 64);
        self.len += 1;
        let words = self.occupied.len();
        for v in e.waits.into_iter().flatten() {
            let base = v as usize * words;
            if base >= self.waiters.len() {
                self.waiters.resize(base + words, 0);
            }
            self.waiters[base + w] |= 1 << (slot % 64);
        }
        if e.ready() {
            self.mark_ready(slot);
        }
    }

    /// Tag broadcast: value `v` became ready in this cluster. Touches only
    /// the slots in `v`'s waiter bitset, and empties it.
    pub fn wakeup(&mut self, v: ValueId) {
        let words = self.occupied.len();
        let base = v as usize * words;
        if base >= self.waiters.len() {
            return;
        }
        for w in 0..words {
            let mut bits = std::mem::take(&mut self.waiters[base + w]);
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = &mut self.slots[slot];
                debug_assert!(!e.ready(), "a ready entry in a waiter bitset");
                for wait in &mut e.waits {
                    if *wait == Some(v) {
                        *wait = None;
                    }
                }
                if e.ready() {
                    self.mark_ready(slot);
                }
            }
        }
    }

    /// [`IssueQueue::ready_into`] into a fresh `Vec`.
    #[cfg(test)]
    fn ready_ordered(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.ready_into(&mut idx);
        idx
    }

    /// Ready entries in age order (oldest first), written into `out`.
    ///
    /// `idx` is unique within an issue queue (one entry per dispatched
    /// instruction), so the order does not depend on slot placement.
    pub fn ready_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.n_ready == 0 {
            return;
        }
        for (w, &word) in self.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        debug_assert_eq!(out.len(), self.n_ready, "ready count out of sync");
        out.sort_unstable_by_key(|&i| self.slots[i].idx);
    }

    /// Number of ready entries (NREADY accounting / selection fast path).
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.n_ready
    }

    /// Add the ready entries per functional-unit kind to `out` (NREADY
    /// sampling). `out` is indexed by [`rcmc_isa::FuKind`] order:
    /// IntAlu, IntMulDiv, FpAlu, FpMulDiv.
    #[inline]
    pub fn ready_by_fu(&self, out: &mut [usize; 4]) {
        for (o, n) in out.iter_mut().zip(self.ready_fu) {
            *o += n;
        }
    }

    /// Access the entry in slot `i`.
    pub fn get(&self, i: usize) -> &IqEntry {
        debug_assert!(
            self.occupied[i / 64] & (1 << (i % 64)) != 0,
            "empty slot {i}"
        );
        &self.slots[i]
    }

    /// Free a set of slots (after issue). Slots must be distinct and hold
    /// ready entries (issue selects only ready ones); the buffer is drained.
    pub fn remove_many(&mut self, idx: &mut Vec<usize>) {
        for i in idx.drain(..) {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            debug_assert!(self.ready[w] & bit != 0, "removing a waiting entry");
            self.occupied[w] &= !bit;
            self.ready[w] &= !bit;
            self.len -= 1;
            self.n_ready -= 1;
            if let Some(kind) = self.slots[i].class.fu() {
                self.ready_fu[fu_index(kind)] -= 1;
            }
        }
    }
}

/// Dense index for [`rcmc_isa::FuKind`] (NREADY sampling).
#[inline]
pub fn fu_index(kind: rcmc_isa::FuKind) -> usize {
    match kind {
        rcmc_isa::FuKind::IntAlu => 0,
        rcmc_isa::FuKind::IntMulDiv => 1,
        rcmc_isa::FuKind::FpAlu => 2,
        rcmc_isa::FuKind::FpMulDiv => 3,
    }
}

/// One pending communication: copy `value` from `from` to `to`.
#[derive(Clone, Copy, Debug)]
pub struct CommOp {
    /// Age: the trace index of the consumer that required it.
    pub idx: u64,
    /// Value to transport.
    pub value: ValueId,
    /// Source cluster (where a copy lives).
    pub from: u8,
    /// Destination cluster (consumer side, copy pre-allocated).
    pub to: u8,
    /// Value is ready at `from`?
    pub ready: bool,
    /// Cycle at which it became ready (bus-contention accounting).
    pub ready_cycle: u64,
}

/// Per-cluster communication queue (a small issue queue for [`CommOp`]s).
pub struct CommQueue {
    entries: Vec<CommOp>,
    capacity: usize,
    /// Ready comms currently queued (maintained, never scanned).
    n_ready: usize,
}

impl CommQueue {
    /// Queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        CommQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            n_ready: 0,
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Room for `n` more entries?
    pub fn has_space_for(&self, n: usize) -> bool {
        self.entries.len() + n <= self.capacity
    }

    /// Insert at dispatch.
    pub fn push(&mut self, op: CommOp) {
        assert!(self.has_space_for(1), "comm queue overflow");
        self.n_ready += usize::from(op.ready);
        self.entries.push(op);
    }

    /// The value became ready in this cluster: wake matching comms.
    pub fn wakeup(&mut self, v: ValueId, cycle: u64) {
        for e in &mut self.entries {
            if e.value == v && !e.ready {
                e.ready = true;
                e.ready_cycle = cycle;
                self.n_ready += 1;
            }
        }
    }

    /// [`CommQueue::ready_into`] into a fresh `Vec`.
    #[cfg(test)]
    fn ready_ordered(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.ready_into(&mut idx);
        idx
    }

    /// Ready comms in age order, written into `out`.
    ///
    /// Ties are part of the timing model. The comms an instruction needs
    /// for its two sources share its `idx`, and the sort leaves equal keys
    /// in `Vec` position order, which `remove`'s `swap_remove` permutes.
    /// That order decides which of the two asks the interconnect first, so
    /// a layout that keeps positions stable (as [`IssueQueue`]'s slots do)
    /// moves cycle counts.
    pub fn ready_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.n_ready == 0 {
            return;
        }
        out.extend((0..self.entries.len()).filter(|&i| self.entries[i].ready));
        debug_assert_eq!(out.len(), self.n_ready, "comm ready count out of sync");
        out.sort_unstable_by_key(|&i| self.entries[i].idx);
    }

    /// Ready comms queued (selection fast path).
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.n_ready
    }

    /// Access.
    pub fn get(&self, i: usize) -> &CommOp {
        &self.entries[i]
    }

    /// Remove after bus grant.
    pub fn remove(&mut self, i: usize) -> CommOp {
        let op = self.entries.swap_remove(i);
        self.n_ready -= usize::from(op.ready);
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference issue queue: a `Vec` kept dense by `swap_remove`, a scan
    /// plus sort for selection, and per-value wait-lists of entry indices
    /// patched when `swap_remove` moves an entry.
    struct VecQueue {
        entries: Vec<IqEntry>,
        capacity: usize,
        waiters: Vec<Vec<u32>>,
    }

    impl VecQueue {
        fn new(capacity: usize) -> Self {
            VecQueue {
                entries: Vec::new(),
                capacity,
                waiters: Vec::new(),
            }
        }

        fn has_space(&self) -> bool {
            self.entries.len() < self.capacity
        }

        fn push(&mut self, e: IqEntry) {
            let idx = self.entries.len() as u32;
            for v in e.waits.into_iter().flatten() {
                if v as usize >= self.waiters.len() {
                    self.waiters.resize_with(v as usize + 1, Vec::new);
                }
                self.waiters[v as usize].push(idx);
            }
            self.entries.push(e);
        }

        fn wakeup(&mut self, v: ValueId) {
            let Some(list) = self.waiters.get_mut(v as usize) else {
                return;
            };
            for idx in std::mem::take(list) {
                for w in &mut self.entries[idx as usize].waits {
                    if *w == Some(v) {
                        *w = None;
                    }
                }
            }
        }

        fn ready_ordered(&self) -> Vec<usize> {
            let mut out: Vec<usize> = (0..self.entries.len())
                .filter(|&i| self.entries[i].ready())
                .collect();
            out.sort_unstable_by_key(|&i| self.entries[i].idx);
            out
        }

        fn ready_by_fu(&self) -> [usize; 4] {
            let mut out = [0; 4];
            for e in self.entries.iter().filter(|e| e.ready()) {
                if let Some(kind) = e.class.fu() {
                    out[fu_index(kind)] += 1;
                }
            }
            out
        }

        fn remove_many(&mut self, mut idx: Vec<usize>) {
            idx.sort_unstable_by(|a, b| b.cmp(a));
            for i in idx {
                self.entries.swap_remove(i);
                if i < self.entries.len() {
                    let old = self.entries.len() as u32;
                    for v in self.entries[i].waits.into_iter().flatten() {
                        for slot in &mut self.waiters[v as usize] {
                            if *slot == old {
                                *slot = i as u32;
                            }
                        }
                    }
                }
            }
        }
    }

    const CLASSES: [InsnClass; 8] = [
        InsnClass::IntAlu,
        InsnClass::IntMul,
        InsnClass::IntDiv,
        InsnClass::FpAlu,
        InsnClass::FpDiv,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Nop,
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Random push/wakeup/select/remove sequences: the bitset queue and
        /// the reference select the same entries in the same order and
        /// agree on every count.
        #[test]
        fn bitset_queue_matches_vec_reference(
            capacity in 1usize..=130,
            ops in prop::collection::vec((0u8..8, any::<u32>()), 1..800),
        ) {
            let mut q = IssueQueue::new(capacity);
            let mut oracle = VecQueue::new(capacity);
            let mut idx = 0u64;
            let mut got = Vec::new();
            for (op, pick) in ops {
                // Few values, so waits collide and broadcasts find waiters;
                // an occasional high id exercises the lazy growth.
                let value = |shift: u32| {
                    let v = (pick >> shift) % 24;
                    (v != 23).then_some(if v == 22 { 300 } else { v })
                };
                match op {
                    0..=3 if q.has_space() => {
                        idx += 1 + u64::from((pick >> 24) & 1);
                        let e = IqEntry {
                            idx,
                            class: CLASSES[(pick >> 16) as usize % CLASSES.len()],
                            waits: [value(0), value(8)],
                            reads: [None, None],
                        };
                        q.push(e);
                        oracle.push(e);
                    }
                    4 | 5 => {
                        let v = value(0).unwrap_or(0);
                        q.wakeup(v);
                        oracle.wakeup(v);
                    }
                    6 | 7 => {
                        // Issue some ready entries: bit k of `pick` skips the
                        // k-th oldest, as a busy functional unit would.
                        let want = oracle.ready_ordered();
                        q.ready_into(&mut got);
                        prop_assert_eq!(got.len(), want.len());
                        let mut issued = Vec::new();
                        let mut issued_ref = Vec::new();
                        for (k, (&i, &j)) in got.iter().zip(&want).enumerate() {
                            let (a, b) = (q.get(i), &oracle.entries[j]);
                            prop_assert_eq!(a.idx, b.idx);
                            prop_assert!(a.ready());
                            if pick >> (k % 32) & 1 == 0 {
                                issued.push(i);
                                issued_ref.push(j);
                            }
                        }
                        q.remove_many(&mut issued);
                        prop_assert!(issued.is_empty());
                        oracle.remove_many(issued_ref);
                    }
                    _ => {}
                }
                prop_assert_eq!(q.len(), oracle.entries.len());
                prop_assert_eq!(q.is_empty(), oracle.entries.is_empty());
                prop_assert_eq!(q.has_space(), oracle.has_space());
                let want = oracle.ready_ordered();
                prop_assert_eq!(q.ready_count(), want.len());
                q.ready_into(&mut got);
                let ages = |slots: &[usize], get: &dyn Fn(usize) -> u64| {
                    slots.iter().map(|&i| get(i)).collect::<Vec<_>>()
                };
                prop_assert_eq!(
                    ages(&got, &|i| q.get(i).idx),
                    ages(&want, &|i| oracle.entries[i].idx)
                );
                let mut counts = [0; 4];
                q.ready_by_fu(&mut counts);
                prop_assert_eq!(counts, oracle.ready_by_fu());
            }
        }
    }

    fn entry(idx: u64, waits: [Option<ValueId>; 2]) -> IqEntry {
        IqEntry {
            idx,
            class: InsnClass::IntAlu,
            waits,
            reads: [None, None],
        }
    }

    #[test]
    fn wakeup_clears_matching_sources() {
        let mut q = IssueQueue::new(4);
        q.push(entry(0, [Some(7), Some(9)]));
        q.push(entry(1, [Some(9), None]));
        q.wakeup(9);
        assert!(!q.get(0).ready());
        assert!(q.get(1).ready());
        q.wakeup(7);
        assert!(q.get(0).ready());
    }

    #[test]
    fn wakeup_clears_both_slots_same_value() {
        let mut q = IssueQueue::new(4);
        q.push(entry(0, [Some(5), Some(5)]));
        q.wakeup(5);
        assert!(q.get(0).ready());
    }

    #[test]
    fn ready_ordered_is_oldest_first() {
        let mut q = IssueQueue::new(8);
        q.push(entry(5, [None, None]));
        q.push(entry(2, [None, None]));
        q.push(entry(9, [Some(1), None]));
        let r = q.ready_ordered();
        assert_eq!(r.len(), 2);
        assert_eq!(q.get(r[0]).idx, 2);
        assert_eq!(q.get(r[1]).idx, 5);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = IssueQueue::new(2);
        q.push(entry(0, [None, None]));
        assert!(q.has_space());
        q.push(entry(1, [None, None]));
        assert!(!q.has_space());
    }

    #[test]
    fn remove_many_drains_entries() {
        let mut q = IssueQueue::new(8);
        for s in 0..5 {
            q.push(entry(s, [None, None]));
        }
        let mut idx = vec![0, 2, 4];
        q.remove_many(&mut idx);
        assert!(idx.is_empty());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn wakeup_tracks_entries_moved_by_swap_remove() {
        // Removing issued entries must leave the waiter bitsets of the
        // entries still waiting intact, and a consumed broadcast must be
        // inert.
        let mut q = IssueQueue::new(8);
        q.push(entry(0, [None, None])); // ready
        q.push(entry(1, [Some(7), None]));
        q.push(entry(2, [None, None])); // ready
        q.push(entry(3, [Some(7), Some(8)]));
        let mut idx = vec![0, 2];
        q.remove_many(&mut idx);
        assert_eq!(q.len(), 2);
        assert_eq!(q.ready_count(), 0);
        q.wakeup(7);
        assert_eq!(q.ready_count(), 1, "idx 1 ready; idx 3 still waits on 8");
        q.wakeup(7); // consumed broadcast: nothing left registered
        assert_eq!(q.ready_count(), 1);
        q.wakeup(8);
        assert_eq!(q.ready_count(), 2);
        let r = q.ready_ordered();
        assert_eq!(q.get(r[0]).idx, 1);
        assert_eq!(q.get(r[1]).idx, 3);
    }

    #[test]
    fn ready_by_fu_counts_kinds() {
        let mut q = IssueQueue::new(8);
        q.push(entry(0, [None, None])); // IntAlu
        q.push(IqEntry {
            class: InsnClass::IntMul,
            ..entry(1, [None, None])
        });
        q.push(IqEntry {
            class: InsnClass::IntMul,
            ..entry(2, [Some(9), None])
        }); // not ready
        let mut counts = [0usize; 4];
        q.ready_by_fu(&mut counts);
        assert_eq!(counts, [1, 1, 0, 0]);
    }

    #[test]
    fn comm_queue_wakeup_records_cycle() {
        let mut q = CommQueue::new(4);
        q.push(CommOp {
            idx: 0,
            value: 3,
            from: 1,
            to: 2,
            ready: false,
            ready_cycle: 0,
        });
        q.push(CommOp {
            idx: 1,
            value: 4,
            from: 1,
            to: 3,
            ready: false,
            ready_cycle: 0,
        });
        q.wakeup(3, 42);
        let r = q.ready_ordered();
        assert_eq!(r.len(), 1);
        assert_eq!(q.get(r[0]).ready_cycle, 42);
        // Waking again must not refresh the cycle.
        q.wakeup(3, 50);
        assert_eq!(q.get(r[0]).ready_cycle, 42);
    }

    #[test]
    fn issue_queue_ready_count_is_maintained() {
        let mut q = IssueQueue::new(8);
        assert_eq!(q.ready_count(), 0);
        q.push(entry(0, [Some(3), None]));
        assert_eq!(q.ready_count(), 0);
        q.push(entry(1, [None, None]));
        assert_eq!(q.ready_count(), 1);
        q.wakeup(3);
        assert_eq!(q.ready_count(), 2);
        q.wakeup(3); // idempotent: nothing newly ready
        assert_eq!(q.ready_count(), 2);
        let mut idx = vec![0];
        q.remove_many(&mut idx);
        assert_eq!(q.ready_count(), 1);
        // The maintained count always matches a fresh scan.
        assert_eq!(q.ready_count(), q.ready_ordered().len());
    }

    #[test]
    fn comm_queue_same_seq_order_follows_swap_remove() {
        let op = |idx, value| CommOp {
            idx,
            value,
            from: 0,
            to: 1,
            ready: true,
            ready_cycle: 0,
        };
        let mut q = CommQueue::new(4);
        q.push(op(1, 9));
        // Two comms of one instruction: same `idx`, pushed in source order.
        q.push(op(2, 10));
        q.push(op(2, 11));
        let values = |q: &CommQueue| {
            let mut r = Vec::new();
            q.ready_into(&mut r);
            r.iter().map(|&i| q.get(i).value).collect::<Vec<_>>()
        };
        assert_eq!(values(&q), [9, 10, 11]);
        // `swap_remove` moves the tail comm (value 11) into position 0,
        // ahead of its twin: the tie now resolves the other way.
        q.remove(0);
        assert_eq!(values(&q), [11, 10]);
    }

    #[test]
    fn ready_slots_cross_the_first_bitset_word() {
        let mut q = IssueQueue::new(130);
        for s in 0..130 {
            q.push(entry(1000 - s, [Some(s as ValueId), None]));
        }
        assert!(!q.has_space());
        for v in [129, 64, 63, 0] {
            q.wakeup(v);
        }
        let r = q.ready_ordered();
        let ages: Vec<u64> = r.iter().map(|&i| q.get(i).idx).collect();
        assert_eq!(ages, [871, 936, 937, 1000]);
        let mut idx = vec![r[1], r[3]];
        q.remove_many(&mut idx);
        assert_eq!((q.len(), q.ready_count()), (128, 2));
        // Freed slots are reused lowest first.
        q.push(entry(5, [None, None]));
        assert_eq!(q.ready_ordered()[0], 0);
    }

    #[test]
    fn comm_queue_ready_count_is_maintained() {
        let mut q = CommQueue::new(4);
        q.push(CommOp {
            idx: 0,
            value: 3,
            from: 0,
            to: 1,
            ready: true,
            ready_cycle: 0,
        });
        q.push(CommOp {
            idx: 1,
            value: 4,
            from: 0,
            to: 2,
            ready: false,
            ready_cycle: 0,
        });
        assert_eq!(q.ready_count(), 1);
        q.wakeup(4, 9);
        assert_eq!(q.ready_count(), 2);
        q.remove(0);
        assert_eq!(q.ready_count(), 1);
        assert_eq!(q.ready_count(), q.ready_ordered().len());
    }

    #[test]
    fn comm_queue_space_accounting() {
        let mut q = CommQueue::new(2);
        assert!(q.has_space_for(2));
        assert!(!q.has_space_for(3));
        q.push(CommOp {
            idx: 0,
            value: 1,
            from: 0,
            to: 1,
            ready: true,
            ready_cycle: 0,
        });
        assert!(q.has_space_for(1));
        assert!(!q.has_space_for(2));
    }
}
