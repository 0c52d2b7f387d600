//! Per-cluster issue queues and communication queues.
//!
//! Wakeup is modelled as a tag broadcast: when a value becomes ready in a
//! cluster, every queue entry in that cluster waiting on it clears the
//! matching source. Selection is oldest-first among ready entries, as in the
//! paper's baseline.

use rcmc_isa::InsnClass;

use crate::value::ValueId;

/// One issue-queue entry (an in-flight, not-yet-issued instruction).
#[derive(Clone, Copy, Debug)]
pub struct IqEntry {
    /// Global dispatch sequence number (age ordering).
    pub seq: u64,
    /// ROB index.
    pub rob: u32,
    /// Index into the dynamic trace (for execution metadata).
    pub trace_idx: u32,
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

/// A bounded, age-ordered issue queue.
///
/// The number of ready entries is maintained incrementally (updated on
/// push/wakeup/remove), so per-cycle selection can skip queues with nothing
/// ready without scanning them — the common case in a stalled cluster.
///
/// Wakeup is O(waiters), not O(entries): a per-value wait-list (direct
/// table indexed by [`ValueId`], grown lazily) records which entries wait
/// on each value, so a tag broadcast touches exactly the entries it wakes.
/// Registrations are consumed by the wakeup itself (a wait can never
/// dangle: the waited-on value keeps this entry as a reader until it turns
/// ready), and `swap_remove` relocations are patched in place.
pub struct IssueQueue {
    entries: Vec<IqEntry>,
    capacity: usize,
    /// Ready entries currently in the queue (maintained, never scanned).
    n_ready: usize,
    /// Entry indices waiting on each value (indexed by `ValueId`; one
    /// registration per waiting source slot). Cleared lists are kept to
    /// reuse their capacity — value ids recycle heavily.
    waiters: Vec<Vec<u32>>,
}

impl IssueQueue {
    /// Queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            n_ready: 0,
            waiters: Vec::new(),
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

    /// Room for one more?
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Register `idx` on `v`'s wait-list.
    #[inline]
    fn enlist(&mut self, v: ValueId, idx: u32) {
        let slot = v as usize;
        if slot >= self.waiters.len() {
            self.waiters.resize_with(slot + 1, Vec::new);
        }
        self.waiters[slot].push(idx);
    }

    /// Insert at dispatch. Panics if full (caller checks `has_space`).
    pub fn push(&mut self, e: IqEntry) {
        assert!(self.has_space(), "issue queue overflow");
        self.n_ready += usize::from(e.ready());
        let idx = self.entries.len() as u32;
        for v in e.waits.into_iter().flatten() {
            self.enlist(v, idx);
        }
        self.entries.push(e);
    }

    /// Tag broadcast: value `v` became ready in this cluster. Touches only
    /// the entries registered as waiting on `v`.
    pub fn wakeup(&mut self, v: ValueId) {
        let Some(list) = self.waiters.get_mut(v as usize) else {
            return;
        };
        if list.is_empty() {
            return;
        }
        // Detach the list so entry mutation can't alias it; hand its
        // capacity back afterwards.
        let mut list = std::mem::take(list);
        for &idx in &list {
            let e = &mut self.entries[idx as usize];
            let was_ready = e.ready();
            for w in &mut e.waits {
                if *w == Some(v) {
                    *w = None;
                }
            }
            self.n_ready += usize::from(!was_ready && e.ready());
        }
        list.clear();
        self.waiters[v as usize] = list;
    }

    /// [`IssueQueue::ready_into`] into a fresh `Vec`.
    #[cfg(test)]
    fn ready_ordered(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.ready_into(&mut idx);
        idx
    }

    /// Ready entries in age order (oldest first), written into `out`.
    pub fn ready_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.n_ready == 0 {
            return;
        }
        out.extend((0..self.entries.len()).filter(|&i| self.entries[i].ready()));
        debug_assert_eq!(out.len(), self.n_ready, "ready count out of sync");
        out.sort_unstable_by_key(|&i| self.entries[i].seq);
    }

    /// Number of ready entries (NREADY accounting / selection fast path).
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.n_ready
    }

    /// Count remaining ready entries per functional-unit kind in one pass
    /// (NREADY sampling). `out` is indexed by [`rcmc_isa::FuKind`] order:
    /// IntAlu, IntMulDiv, FpAlu, FpMulDiv.
    pub fn ready_by_fu(&self, out: &mut [usize; 4]) {
        if self.n_ready == 0 {
            return;
        }
        for e in &self.entries {
            if e.ready() {
                if let Some(kind) = e.class.fu() {
                    out[fu_index(kind)] += 1;
                }
            }
        }
    }

    /// Access an entry.
    pub fn get(&self, i: usize) -> &IqEntry {
        &self.entries[i]
    }

    /// Remove a set of entries by index (after issue). Indices must be
    /// distinct and name ready entries (issue selects only ready ones, and
    /// a ready entry holds no wait-list registrations); the buffer is
    /// drained in place (descending order).
    pub fn remove_many(&mut self, idx: &mut Vec<usize>) {
        idx.sort_unstable_by(|a, b| b.cmp(a));
        for i in idx.drain(..) {
            debug_assert!(self.entries[i].ready(), "removing a waiting entry");
            self.n_ready -= usize::from(self.entries[i].ready());
            self.entries.swap_remove(i);
            // The former tail entry (if any) moved to `i`: repoint its
            // wait-list registrations.
            if i < self.entries.len() {
                let old = self.entries.len() as u32;
                let waits = self.entries[i].waits;
                for v in waits.into_iter().flatten() {
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
    /// Age (dispatch sequence of the consumer that required it).
    pub seq: u64,
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
    pub fn ready_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.n_ready == 0 {
            return;
        }
        out.extend((0..self.entries.len()).filter(|&i| self.entries[i].ready));
        debug_assert_eq!(out.len(), self.n_ready, "comm ready count out of sync");
        out.sort_unstable_by_key(|&i| self.entries[i].seq);
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

    fn entry(seq: u64, waits: [Option<ValueId>; 2]) -> IqEntry {
        IqEntry {
            seq,
            rob: 0,
            trace_idx: 0,
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
        assert_eq!(q.get(r[0]).seq, 2);
        assert_eq!(q.get(r[1]).seq, 5);
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
        // Wait-list registrations must follow entries relocated by
        // remove_many's swap_remove, and a consumed broadcast must be inert.
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
        assert_eq!(q.ready_count(), 1, "seq 1 ready; seq 3 still waits on 8");
        q.wakeup(7); // consumed broadcast: nothing left registered
        assert_eq!(q.ready_count(), 1);
        q.wakeup(8);
        assert_eq!(q.ready_count(), 2);
        let r = q.ready_ordered();
        assert_eq!(q.get(r[0]).seq, 1);
        assert_eq!(q.get(r[1]).seq, 3);
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
            seq: 0,
            value: 3,
            from: 1,
            to: 2,
            ready: false,
            ready_cycle: 0,
        });
        q.push(CommOp {
            seq: 1,
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
    fn comm_queue_ready_count_is_maintained() {
        let mut q = CommQueue::new(4);
        q.push(CommOp {
            seq: 0,
            value: 3,
            from: 0,
            to: 1,
            ready: true,
            ready_cycle: 0,
        });
        q.push(CommOp {
            seq: 1,
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
            seq: 0,
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
