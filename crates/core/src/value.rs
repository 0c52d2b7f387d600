//! Value table: renamed values and their per-cluster register copies.
//!
//! Every register-producing instruction allocates one [`ValueId`]. A value
//! can have a **copy** in each cluster's register file: the *home* copy
//! (written by the producing instruction — in the *next* cluster for the
//! ring topology) plus consumer-side copies created by communication
//! instructions. Copy states:
//!
//! * `Absent` — no register allocated in that cluster.
//! * `Pending` — register allocated, datum not yet there (producer in flight
//!   or communication in transit).
//! * `Ready` — readable from that cluster's register file / bypass.
//!
//! Copy state is stored **sparsely**: two `u64` bitmasks per value
//! (`present` = a copy exists, `ready` ⊆ `present` = the datum arrived;
//! Pending = present ∧ ¬ready), so a value with two copies costs two set
//! bits, not a [`MAX_CLUSTERS`]-wide array — walking copies is
//! `count_ones()` bit iterations in ascending cluster order.
//!
//! Reader counts (dispatched readers of a copy that have not yet issued)
//! are one flat `u16` per (value, cluster), `n_clusters` per value slot, so
//! registering or retiring a reader is one indexed add. Both release
//! policies keep them; only `OnLastRead` acts on them.
//!
//! Release policy follows §3: all copies of a value are freed when the
//! instruction that *redefines* its architectural register commits.
//! The `OnLastRead` ablation additionally frees non-home copies once their
//! last dispatched reader has issued.

use crate::config::MAX_CLUSTERS;

/// Index into the value slab.
pub type ValueId = u32;

/// Sentinel for "no value".
pub const NO_VALUE: ValueId = u32::MAX;

/// Per-cluster copy state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyState {
    /// No register allocated in this cluster.
    Absent,
    /// Register allocated; datum in flight.
    Pending,
    /// Datum present and readable.
    Ready,
}

/// Single-bit mask for a cluster index.
#[inline]
fn bit(cluster: usize) -> u64 {
    debug_assert!(cluster < MAX_CLUSTERS);
    1u64 << cluster
}

#[derive(Clone)]
struct Value {
    /// Clusters holding a copy (Pending or Ready): one bit per cluster.
    present: u64,
    /// Clusters whose copy is Ready (always a subset of `present`).
    ready: u64,
    /// Cluster holding the home (original) copy.
    home: u8,
    /// FP bank?
    is_fp: bool,
    /// Slab occupancy.
    live: bool,
}

impl Value {
    fn empty() -> Self {
        Value {
            present: 0,
            ready: 0,
            home: 0,
            is_fp: false,
            live: false,
        }
    }

    /// Reset for reuse.
    fn reset(&mut self, home: usize, fp: bool) {
        self.present = 0;
        self.ready = 0;
        self.home = home as u8;
        self.is_fp = fp;
        self.live = true;
    }
}

/// Iterator over the cluster indices of a copy bitmask, ascending.
#[derive(Clone, Copy)]
pub struct ClusterBits(pub u64);

impl Iterator for ClusterBits {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let c = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(c)
    }
}

/// The value slab plus per-cluster free-register accounting.
pub struct ValueTable {
    slab: Vec<Value>,
    /// Outstanding readers per copy: `readers[id * n_clusters + cluster]`.
    readers: Vec<u16>,
    free_slots: Vec<ValueId>,
    n_clusters: usize,
    /// Free integer registers per cluster.
    free_int: Box<[i32]>,
    /// Free FP registers per cluster.
    free_fp: Box<[i32]>,
}

impl ValueTable {
    /// `regs_int`/`regs_fp` are the physical register-file sizes per cluster.
    pub fn new(n_clusters: usize, regs_int: usize, regs_fp: usize) -> Self {
        ValueTable {
            slab: Vec::with_capacity(1024),
            readers: Vec::with_capacity(1024 * n_clusters),
            free_slots: Vec::new(),
            n_clusters,
            free_int: vec![regs_int as i32; n_clusters].into_boxed_slice(),
            free_fp: vec![regs_fp as i32; n_clusters].into_boxed_slice(),
        }
    }

    /// Free registers of the given bank in `cluster`.
    #[inline]
    pub fn free_regs(&self, cluster: usize, fp: bool) -> i32 {
        if fp {
            self.free_fp[cluster]
        } else {
            self.free_int[cluster]
        }
    }

    /// Combined free registers in `cluster` (the steering balance metric).
    #[inline]
    pub fn free_regs_total(&self, cluster: usize) -> i32 {
        self.free_int[cluster] + self.free_fp[cluster]
    }

    fn take_reg(&mut self, cluster: usize, fp: bool) {
        let f = if fp {
            &mut self.free_fp[cluster]
        } else {
            &mut self.free_int[cluster]
        };
        debug_assert!(*f > 0, "register underflow in cluster {cluster}");
        *f -= 1;
    }

    fn give_reg(&mut self, cluster: usize, fp: bool) {
        if fp {
            self.free_fp[cluster] += 1;
        } else {
            self.free_int[cluster] += 1;
        }
    }

    /// Allocate a new value whose home copy lives (Pending) in `home`.
    /// Caller must have checked `free_regs(home, fp) > 0`.
    pub fn alloc(&mut self, home: usize, fp: bool) -> ValueId {
        debug_assert!(home < self.n_clusters, "home cluster out of range");
        self.take_reg(home, fp);
        let id = match self.free_slots.pop() {
            Some(id) => id,
            None => {
                self.slab.push(Value::empty());
                self.readers.resize(self.slab.len() * self.n_clusters, 0);
                (self.slab.len() - 1) as ValueId
            }
        };
        let row = id as usize * self.n_clusters;
        self.readers[row..row + self.n_clusters].fill(0);
        let v = &mut self.slab[id as usize];
        debug_assert!(!v.live);
        v.reset(home, fp);
        v.present = bit(home);
        id
    }

    /// Allocate a value that is already `Ready` in `home` (initial
    /// architectural state).
    pub fn alloc_ready(&mut self, home: usize, fp: bool) -> ValueId {
        let id = self.alloc(home, fp);
        self.slab[id as usize].ready = bit(home);
        id
    }

    /// Allocate a consumer-side copy (Pending) in `cluster`.
    /// Caller must have checked bank availability.
    pub fn add_copy(&mut self, id: ValueId, cluster: usize) {
        debug_assert!(cluster < self.n_clusters, "copy cluster out of range");
        let fp = self.slab[id as usize].is_fp;
        self.take_reg(cluster, fp);
        let v = &mut self.slab[id as usize];
        debug_assert!(v.live);
        debug_assert_eq!(v.present & bit(cluster), 0, "copy already exists");
        v.present |= bit(cluster);
    }

    /// Mark the copy in `cluster` ready (producer writeback or bus arrival).
    /// Returns false if the copy no longer exists (released early under
    /// `OnLastRead`) so the caller can skip wakeups.
    pub fn mark_ready(&mut self, id: ValueId, cluster: usize) -> bool {
        let v = &mut self.slab[id as usize];
        if !v.live || v.present & bit(cluster) == 0 {
            return false;
        }
        v.ready |= bit(cluster);
        true
    }

    /// Copy state of `id` in `cluster`.
    #[inline]
    pub fn state(&self, id: ValueId, cluster: usize) -> CopyState {
        let v = &self.slab[id as usize];
        if v.ready & bit(cluster) != 0 {
            CopyState::Ready
        } else if v.present & bit(cluster) != 0 {
            CopyState::Pending
        } else {
            CopyState::Absent
        }
    }

    /// True if a copy (pending or ready) exists in `cluster`.
    #[inline]
    pub fn mapped(&self, id: ValueId, cluster: usize) -> bool {
        self.slab[id as usize].present & bit(cluster) != 0
    }

    /// Bitmask of clusters holding a copy of `id` (steering candidate sets).
    #[inline]
    pub fn mapped_mask(&self, id: ValueId) -> u64 {
        self.slab[id as usize].present
    }

    /// True if the value has a Ready copy anywhere (i.e. has been produced).
    #[inline]
    pub fn produced_anywhere(&self, id: ValueId) -> bool {
        self.slab[id as usize].ready != 0
    }

    /// Home cluster of the value.
    #[inline]
    pub fn home(&self, id: ValueId) -> usize {
        self.slab[id as usize].home as usize
    }

    /// FP bank?
    #[inline]
    pub fn is_fp(&self, id: ValueId) -> bool {
        self.slab[id as usize].is_fp
    }

    /// Clusters where the value is mapped, in ascending order (steering
    /// relies on the order: SSA takes the first, tie-breaks take the
    /// lowest index).
    #[inline]
    pub fn mapped_clusters(&self, id: ValueId) -> ClusterBits {
        ClusterBits(self.slab[id as usize].present)
    }

    /// Register a dispatched reader of `id`'s copy in `cluster`.
    #[inline]
    pub fn add_reader(&mut self, id: ValueId, cluster: usize) {
        self.readers[id as usize * self.n_clusters + cluster] += 1;
    }

    /// A reader issued; under `OnLastRead`, frees a non-home copy whose
    /// reader count hits zero. Returns true if the copy was released.
    pub fn reader_done(&mut self, id: ValueId, cluster: usize, release_on_read: bool) -> bool {
        let n = &mut self.readers[id as usize * self.n_clusters + cluster];
        assert!(*n > 0, "reader_done without a registered reader");
        *n -= 1;
        let drained = *n == 0;
        let v = &mut self.slab[id as usize];
        if release_on_read && drained && cluster != v.home as usize && v.ready & bit(cluster) != 0 {
            v.present &= !bit(cluster);
            v.ready &= !bit(cluster);
            let fp = v.is_fp;
            self.give_reg(cluster, fp);
            true
        } else {
            false
        }
    }

    /// Release every copy of `id` and recycle the slot (redefiner commit).
    pub fn free(&mut self, id: ValueId) {
        let (fp, copies) = {
            let v = &mut self.slab[id as usize];
            debug_assert!(v.live, "double free of value {id}");
            let copies = v.present;
            v.present = 0;
            v.ready = 0;
            v.live = false;
            (v.is_fp, copies)
        };
        for c in ClusterBits(copies) {
            self.give_reg(c, fp);
        }
        self.free_slots.push(id);
    }

    /// Number of live values (tests / leak detection).
    pub fn live_count(&self) -> usize {
        self.slab.iter().filter(|v| v.live).count()
    }

    /// Total allocated copies across clusters (tests / conservation checks).
    pub fn copy_count(&self) -> usize {
        self.slab
            .iter()
            .filter(|v| v.live)
            .map(|v| v.present.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ValueTable {
        ValueTable::new(4, 48, 48)
    }

    #[test]
    fn alloc_takes_home_register() {
        let mut t = table();
        assert_eq!(t.free_regs(1, false), 48);
        let v = t.alloc(1, false);
        assert_eq!(t.free_regs(1, false), 47);
        assert_eq!(t.state(v, 1), CopyState::Pending);
        assert_eq!(t.home(v), 1);
        assert!(t.mapped(v, 1));
        assert!(!t.mapped(v, 0));
    }

    #[test]
    fn copies_tracked_per_bank() {
        let mut t = table();
        let v = t.alloc(0, true);
        t.add_copy(v, 2);
        assert_eq!(t.free_regs(2, true), 47);
        assert_eq!(t.free_regs(2, false), 48);
        t.free(v);
        assert_eq!(t.free_regs(0, true), 48);
        assert_eq!(t.free_regs(2, true), 48);
    }

    #[test]
    fn mark_ready_transitions() {
        let mut t = table();
        let v = t.alloc(3, false);
        assert!(!t.produced_anywhere(v));
        assert!(t.mark_ready(v, 3));
        assert_eq!(t.state(v, 3), CopyState::Ready);
        assert!(t.produced_anywhere(v));
    }

    #[test]
    fn free_recycles_slots() {
        let mut t = table();
        let a = t.alloc(0, false);
        t.free(a);
        let b = t.alloc(1, true);
        assert_eq!(a, b, "slot should be recycled");
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn mapped_clusters_iterates() {
        let mut t = table();
        let v = t.alloc(1, false);
        t.add_copy(v, 3);
        let cs: Vec<usize> = t.mapped_clusters(v).collect();
        assert_eq!(cs, vec![1, 3]);
        assert_eq!(t.mapped_mask(v), 0b1010);
    }

    #[test]
    fn highest_cluster_bit_is_representable() {
        // Cluster 63 exercises the top bit of the masks.
        let mut t = ValueTable::new(64, 48, 48);
        let v = t.alloc(63, false);
        t.add_copy(v, 0);
        assert_eq!(t.home(v), 63);
        assert_eq!(t.state(v, 63), CopyState::Pending);
        assert!(t.mark_ready(v, 63));
        assert_eq!(
            t.mapped_clusters(v).collect::<Vec<_>>(),
            vec![0, 63],
            "ascending even across the top bit"
        );
        t.free(v);
        assert_eq!(t.free_regs(63, false), 48);
        assert_eq!(t.copy_count(), 0);
    }

    #[test]
    fn release_on_read_frees_nonhome_copy() {
        let mut t = table();
        let v = t.alloc(0, false);
        t.mark_ready(v, 0);
        t.add_copy(v, 2);
        t.mark_ready(v, 2);
        t.add_reader(v, 2);
        t.add_reader(v, 2);
        assert!(!t.reader_done(v, 2, true), "first reader leaves the copy");
        assert!(t.reader_done(v, 2, true), "last reader releases it");
        assert!(!t.mapped(v, 2));
        assert_eq!(t.free_regs(2, false), 48);
        // Home copy is never read-released.
        t.add_reader(v, 0);
        assert!(!t.reader_done(v, 0, true));
        assert!(t.mapped(v, 0));
    }

    #[test]
    fn default_policy_keeps_copies() {
        let mut t = table();
        let v = t.alloc(0, false);
        t.mark_ready(v, 0);
        t.add_copy(v, 1);
        t.mark_ready(v, 1);
        t.add_reader(v, 1);
        assert!(!t.reader_done(v, 1, false));
        assert!(t.mapped(v, 1));
    }

    #[test]
    fn mark_ready_after_early_release_is_noop() {
        let mut t = table();
        let v = t.alloc(0, false);
        t.mark_ready(v, 0);
        t.add_copy(v, 2);
        t.add_reader(v, 2);
        t.mark_ready(v, 2);
        t.reader_done(v, 2, true); // releases
        assert!(
            !t.mark_ready(v, 2),
            "ready on a released copy must be ignored"
        );
    }

    #[test]
    fn reader_list_stays_sorted_and_drains() {
        let mut t = table();
        let v = t.alloc(0, false);
        for c in [3usize, 1, 2, 1] {
            t.add_reader(v, c);
        }
        // Drain in arbitrary order; counts must balance exactly.
        assert!(!t.reader_done(v, 1, false));
        assert!(!t.reader_done(v, 3, false));
        assert!(!t.reader_done(v, 2, false));
        assert!(!t.reader_done(v, 1, false));
    }

    #[test]
    #[should_panic(expected = "reader_done without a registered reader")]
    fn reader_done_past_zero_panics() {
        let mut t = table();
        let v = t.alloc(0, false);
        t.add_reader(v, 2);
        t.reader_done(v, 2, false);
        t.reader_done(v, 2, false);
    }

    #[test]
    fn recycled_slot_starts_without_readers() {
        let mut t = table();
        let a = t.alloc(0, false);
        t.add_reader(a, 1);
        t.free(a);
        let b = t.alloc(0, false);
        assert_eq!(a, b);
        t.mark_ready(b, 0);
        t.add_copy(b, 1);
        t.mark_ready(b, 1);
        t.add_reader(b, 1);
        assert!(t.reader_done(b, 1, true), "the stale reader was dropped");
    }

    #[test]
    fn copy_count_conservation() {
        let mut t = table();
        let a = t.alloc(0, false);
        let b = t.alloc(1, true);
        t.add_copy(a, 2);
        assert_eq!(t.copy_count(), 3);
        t.free(a);
        t.free(b);
        assert_eq!(t.copy_count(), 0);
        for c in 0..4 {
            assert_eq!(t.free_regs(c, false), 48);
            assert_eq!(t.free_regs(c, true), 48);
        }
    }
}
