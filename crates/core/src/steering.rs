//! Steering: *which cluster executes the next instruction*.
//!
//! Steering is the second orthogonal axis of the design space next to the
//! interconnect ([`crate::fabric`]): any [`Steering`] algorithm can drive
//! any [`crate::config::Topology`], which is exactly the cross the paper's
//! §4 ablation needs (e.g. DCOUNT-balanced steering on a crossbar, or
//! dependence steering on a mesh). The algorithms form a closed set, so
//! [`steer`] is one pure function of the algorithm, a rotating tie-break
//! `phase` and the machine state a [`SteerCtx`] shows: the configuration,
//! the value table and the per-cluster issue queues. The core owns the
//! phase and advances it after each steer that [`rotates`]; the DCOUNT
//! balance metric is read from the issue queues.
//!
//! The three algorithms:
//!
//! * [`Steering::RingDep`] — §3.1: dependence-based steering whose
//!   tie-break is the free-register count of the cluster that will
//!   *receive* the result (the next cluster in the ring), then the phase.
//!   The paper's Figure 2 example is reproduced in this module's tests.
//! * [`Steering::ConvDcount`] — §4.1: the baseline's locality steering
//!   with explicit DCOUNT workload-balance control (Parcerisa et al.,
//!   PACT'02). It never reads the phase.
//! * [`Steering::Ssa`] — §4.7: send to the home cluster of the leftmost
//!   operand; operand-less instructions go to the phase's cluster
//!   (round-robin). No balance control.
//!
//! This module also owns the algorithm-independent pieces: the
//! [`Steered`] result with its inline [`CommList`], and the nearest-copy
//! distance helpers that both the algorithms and the pipeline use.
//!
//! Steering never fails: it always picks a cluster. Resource availability in
//! the chosen cluster is checked afterwards by dispatch, which stalls when
//! "the chosen cluster is full" (§3.1) rather than re-steering.

use crate::config::{cluster_mask, CoreConfig, Steering};
use crate::fabric::DistanceLut;
use crate::queues::IssueQueue;
use crate::value::{ClusterBits, ValueId, ValueTable};

/// A required communication: bring `value` from cluster `from` to the
/// consumer's cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NeededComm {
    /// The value to move.
    pub value: ValueId,
    /// Source cluster (nearest existing copy).
    pub from: u8,
}

/// The communications one instruction needs, stored inline (no heap).
///
/// An instruction has at most two source operands, so at most two
/// communications; ring steering guarantees ≤ 1 (its candidate set always
/// contains a cluster holding an operand). Keeping this inline makes
/// [`steer`] — called once per dispatch attempt — fully
/// allocation-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommList {
    items: [NeededComm; 2],
    len: u8,
}

impl CommList {
    /// Empty list.
    pub const fn new() -> Self {
        CommList {
            items: [NeededComm { value: 0, from: 0 }; 2],
            len: 0,
        }
    }

    /// Append (panics beyond two entries — impossible with ≤ 2 operands).
    #[inline]
    pub fn push(&mut self, c: NeededComm) {
        self.items[self.len as usize] = c;
        self.len += 1;
    }

    /// The live entries.
    #[inline]
    pub fn as_slice(&self) -> &[NeededComm] {
        &self.items[..self.len as usize]
    }

    /// Number of communications.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// No communications needed?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PartialEq for CommList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CommList {}

/// Result of steering one instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Steered {
    /// Execution cluster.
    pub cluster: usize,
    /// Communications to create (0..=2; ring guarantees ≤1).
    pub comms: CommList,
}

/// Distance from the nearest copy of `v` to `to`, minimized over buses.
pub fn nearest_copy_distance(
    dist: &DistanceLut,
    values: &ValueTable,
    v: ValueId,
    to: usize,
) -> u32 {
    values
        .mapped_clusters(v)
        .map(|p| dist.min_distance(p, to))
        .min()
        .expect("live value must be mapped somewhere")
}

/// The nearest source cluster for moving `v` to `to` (ties → lowest index).
fn nearest_copy_cluster(dist: &DistanceLut, values: &ValueTable, v: ValueId, to: usize) -> usize {
    let mut best = usize::MAX;
    let mut bestd = u32::MAX;
    for p in values.mapped_clusters(v) {
        let d = dist.min_distance(p, to);
        if d < bestd {
            bestd = d;
            best = p;
        }
    }
    debug_assert!(best != usize::MAX);
    best
}

/// Communications needed to execute an instruction with `srcs` in `cluster`
/// (one per operand without a local copy, deduplicated).
pub fn needed_comms(
    dist: &DistanceLut,
    values: &ValueTable,
    srcs: &[ValueId],
    cluster: usize,
) -> CommList {
    let mut comms = CommList::new();
    for &v in srcs {
        if !values.mapped(v, cluster) && !comms.as_slice().iter().any(|c| c.value == v) {
            let from = nearest_copy_cluster(dist, values, v, cluster);
            comms.push(NeededComm {
                value: v,
                from: from as u8,
            });
        }
    }
    comms
}

/// Everything steering may consult when placing one instruction: the
/// configuration (cluster count, thresholds), the precomputed distance
/// table, the value table (where the operands live, register pressure), the
/// per-cluster INT and FP issue queues (DCOUNT occupancy) and the
/// instruction's live source values (architectural `r0` excluded;
/// in-flight copies count as mapped).
pub struct SteerCtx<'a> {
    /// Back-end configuration (cluster count, thresholds).
    pub cfg: &'a CoreConfig,
    /// All-pairs minimum communication distances, built once per config.
    pub dist: &'a DistanceLut,
    /// Value/copy state (operand homes, free registers).
    pub values: &'a ValueTable,
    /// Integer issue queue of each cluster.
    pub iq_int: &'a [IssueQueue],
    /// Floating-point issue queue of each cluster.
    pub iq_fp: &'a [IssueQueue],
    /// Live source values of the instruction being steered (0..=2).
    pub srcs: &'a [ValueId],
}

impl SteerCtx<'_> {
    /// DCOUNT of `cluster` (Canal/Parcerisa): its dispatched-but-not-yet-
    /// issued instructions, i.e. the occupancy of its INT and FP issue
    /// queues. Communications are not instructions and do not count.
    pub fn dcount(&self, cluster: usize) -> usize {
        self.iq_int[cluster].len() + self.iq_fp[cluster].len()
    }
}

/// Does a steer of `kind` for an instruction with `n_srcs` live sources
/// consume a tie-break phase? RingDep breaks every tie by rotation, Ssa
/// rotates only operand-less instructions, DCOUNT never rotates. The core
/// advances its phase by one after each steer that rotates, so a stalled
/// instruction re-steered against frozen state repeats its placements
/// with period `n_clusters` when this holds and 1 otherwise.
#[inline]
pub fn rotates(kind: Steering, n_srcs: usize) -> bool {
    match kind {
        Steering::RingDep => true,
        Steering::ConvDcount => false,
        Steering::Ssa => n_srcs == 0,
    }
}

/// Place one instruction: its execution cluster under policy `kind` and
/// the communications that choice implies. `phase` (in `0..n_clusters`)
/// is the rotating tie-break's position; the result is a pure function of
/// `kind`, `phase` and the machine state in `ctx`.
#[inline]
pub fn steer(kind: Steering, phase: usize, ctx: &SteerCtx<'_>) -> Steered {
    debug_assert!(phase < ctx.cfg.n_clusters, "phase {phase} out of range");
    let cluster = match kind {
        Steering::RingDep => ring_dep(phase, ctx),
        Steering::ConvDcount => conv_dcount(ctx),
        // §4.7: the lowest-index cluster that stores (or will store) the
        // leftmost operand; operand-less instructions go round-robin.
        Steering::Ssa => match ctx.srcs.first() {
            Some(v) => ctx
                .values
                .mapped_clusters(*v)
                .next()
                .expect("live value must be mapped somewhere"),
            None => phase,
        },
    };
    Steered {
        cluster,
        comms: needed_comms(ctx.dist, ctx.values, ctx.srcs, cluster),
    }
}

/// §3.1 dependence-based steering: candidates by operand count, then most
/// free registers in the *destination* cluster (Figure 2's example
/// requires the destination-cluster interpretation; see tests).
fn ring_dep(phase: usize, ctx: &SteerCtx<'_>) -> usize {
    let (cfg, values) = (ctx.cfg, ctx.values);
    let cand: u64 = match ctx.srcs {
        [] => cluster_mask(cfg.n_clusters),
        [v] => values.mapped_mask(*v),
        [u, v] => {
            let mu = values.mapped_mask(*u);
            let mv = values.mapped_mask(*v);
            let both = mu & mv;
            if both != 0 {
                both
            } else {
                // One communication required: among clusters holding one
                // operand (exactly one: no cluster has both), minimize
                // the missing operand's distance.
                let mut best_dist = u32::MAX;
                let mut best = 0u64;
                for c in ClusterBits(mu | mv) {
                    let missing = if mu & (1u64 << c) != 0 { *v } else { *u };
                    let d = nearest_copy_distance(ctx.dist, values, missing, c);
                    if d < best_dist {
                        best_dist = d;
                        best = 1u64 << c;
                    } else if d == best_dist {
                        best |= 1u64 << c;
                    }
                }
                best
            }
        }
        _ => unreachable!("at most two source operands"),
    };
    // Most free destination registers; ties go to the first candidate in
    // the rotated order `phase, phase+1, …, n-1, 0, …, phase-1` (the paper
    // steers the 0-source case "randomly"; rotation keeps runs
    // deterministic). Splitting the mask at `phase` and comparing strictly
    // picks the same winner as scanning all offsets.
    let mut best = usize::MAX;
    let mut best_free = i32::MIN;
    let low_mask = (1u64 << phase) - 1; // phase < n <= 64
    for part in [cand & !low_mask, cand & low_mask] {
        for c in ClusterBits(part) {
            let free = values.free_regs_total(cfg.dest_cluster(c));
            if free > best_free {
                best_free = free;
                best = c;
            }
        }
    }
    debug_assert!(best != usize::MAX, "steering found no candidate cluster");
    best
}

/// §4.1 baseline steering: locality with explicit DCOUNT balance control.
/// The balance metric is the issue-queue occupancy ([`SteerCtx::dcount`]),
/// which is self-correcting — redirecting a handful of instructions
/// immediately closes the gap — and that keeps balance mode from
/// degenerating into permanent scatter.
fn conv_dcount(ctx: &SteerCtx<'_>) -> usize {
    let (cfg, values, srcs) = (ctx.cfg, ctx.values, ctx.srcs);
    let n = cfg.n_clusters;
    // Imbalance (max − min DCOUNT) and the least-loaded cluster (lowest
    // count; ties → lowest index).
    let (mut least, mut min, mut max) = (0, usize::MAX, 0);
    let dcounts = ctx.iq_int[..n].iter().zip(&ctx.iq_fp[..n]);
    for (c, d) in dcounts.map(|(i, f)| i.len() + f.len()).enumerate() {
        if d < min {
            (least, min) = (c, d);
        }
        max = max.max(d);
    }
    if (max - min) as f64 > cfg.dcount_threshold {
        return least;
    }
    // "If any source operand is not available at dispatch time":
    // clusters where the pending operands will be produced.
    let mut cand: u64 = 0;
    for &v in srcs {
        if !values.produced_anywhere(v) {
            cand |= 1u64 << values.home(v);
        }
    }
    if cand != 0 {
        // Candidates already set above.
    } else if !srcs.is_empty() {
        // All available: minimize the longest communication distance.
        let mut best = u32::MAX;
        for c in 0..n {
            let longest = srcs
                .iter()
                .map(|v| {
                    if values.mapped(*v, c) {
                        0
                    } else {
                        nearest_copy_distance(ctx.dist, values, *v, c)
                    }
                })
                .max()
                .unwrap_or(0);
            if longest < best {
                best = longest;
                cand = 1u64 << c;
            } else if longest == best {
                cand |= 1u64 << c;
            }
        }
    } else {
        cand = cluster_mask(n);
    }
    // Least loaded among the selected clusters (ascending cluster order,
    // strict less: lowest index wins ties).
    let mut bestc = usize::MAX;
    let mut bestdc = usize::MAX;
    for c in ClusterBits(cand) {
        let d = ctx.dcount(c);
        if d < bestdc {
            bestdc = d;
            bestc = c;
        }
    }
    debug_assert!(bestc != usize::MAX);
    bestc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use crate::queues::IqEntry;
    use rcmc_isa::InsnClass;

    fn ring4() -> CoreConfig {
        CoreConfig {
            n_clusters: 4,
            topology: Topology::Ring,
            steering: Steering::RingDep,
            n_buses: 1,
            regs_int: 64,
            regs_fp: 64,
            ..CoreConfig::default()
        }
    }

    /// Per-cluster INT and FP issue queues; cluster `c` holds `int[c]`
    /// integer and `fp[c]` floating-point entries.
    fn queues(cfg: &CoreConfig, int: &[usize], fp: &[usize]) -> [Vec<IssueQueue>; 2] {
        [(int, InsnClass::IntAlu), (fp, InsnClass::FpAlu)].map(|(occ, class)| {
            (0..cfg.n_clusters)
                .map(|c| {
                    let mut q = IssueQueue::new(cfg.iq_int.max(cfg.iq_fp));
                    for idx in 0..occ.get(c).copied().unwrap_or(0) {
                        q.push(IqEntry {
                            idx: idx as u64,
                            class,
                            waits: [None; 2],
                            reads: [None; 2],
                        });
                    }
                    q
                })
                .collect()
        })
    }

    /// Steer with DCOUNT (which never reads the phase) against issue
    /// queues with the given INT/FP occupancy.
    fn place_loaded(
        cfg: &CoreConfig,
        values: &ValueTable,
        int: &[usize],
        fp: &[usize],
        srcs: &[ValueId],
    ) -> Steered {
        let dist = DistanceLut::new(cfg);
        let [iq_int, iq_fp] = queues(cfg, int, fp);
        let ctx = SteerCtx {
            cfg,
            dist: &dist,
            values,
            iq_int: &iq_int,
            iq_fp: &iq_fp,
            srcs,
        };
        steer(Steering::ConvDcount, 0, &ctx)
    }

    /// Steer with `kind` at tie-break `phase` against empty issue queues.
    fn place(
        kind: Steering,
        phase: usize,
        cfg: &CoreConfig,
        values: &ValueTable,
        srcs: &[ValueId],
    ) -> Steered {
        let dist = DistanceLut::new(cfg);
        let [iq_int, iq_fp] = queues(cfg, &[], &[]);
        let ctx = SteerCtx {
            cfg,
            dist: &dist,
            values,
            iq_int: &iq_int,
            iq_fp: &iq_fp,
            srcs,
        };
        steer(kind, phase, &ctx)
    }

    fn conv4(threshold: f64) -> CoreConfig {
        CoreConfig {
            topology: Topology::Conv,
            steering: Steering::ConvDcount,
            dcount_threshold: threshold,
            ..ring4()
        }
    }

    /// The worked example of Figure 2, instruction by instruction.
    ///
    /// ```text
    /// I1. R1 = 1        -> steered to 0 (value lands in cluster 1)
    /// I2. R2 = R1 + 1   -> steered to 1 (R1 local)    (R2 lands in 2)
    /// I3. R3 = R1 + R2  -> steered to 2 (R2 local, R1 one bus hop)
    /// I4. R4 = R1 + R3  -> steered to 3 (R3 local, R1 one hop from 2)
    /// I5. R5 = R1 x 3   -> steered to 3 (dest cluster 0 has most free regs)
    /// ```
    #[test]
    fn paper_figure2_example() {
        let cfg = ring4();
        let mut values = ValueTable::new(4, 64, 64);
        // RingDep rotates on every steer, so the core steers I1..I5 at
        // phases 0, 1, 2, 3, 0.
        let dep = Steering::RingDep;

        // I1: no sources. All dest clusters equally free; the rotating
        // tie-break starts at 0.
        let i1 = place(dep, 0, &cfg, &values, &[]);
        assert_eq!(i1.cluster, 0);
        assert!(i1.comms.is_empty());
        let r1 = values.alloc(cfg.dest_cluster(i1.cluster), false); // home = 1
        values.mark_ready(r1, 1);

        // I2: one source R1 (mapped only in 1).
        let i2 = place(dep, 1, &cfg, &values, &[r1]);
        assert_eq!(i2.cluster, 1);
        assert!(i2.comms.is_empty());
        let r2 = values.alloc(cfg.dest_cluster(i2.cluster), false); // home = 2
        values.mark_ready(r2, 2);

        // I3: R1 (in 1) + R2 (in 2). No cluster has both; executing in 2
        // needs R1 over 1 hop (1->2); executing in 1 needs R2 over 3 hops.
        let i3 = place(dep, 2, &cfg, &values, &[r1, r2]);
        assert_eq!(i3.cluster, 2);
        assert_eq!(i3.comms.as_slice(), &[NeededComm { value: r1, from: 1 }]);
        // The comm materializes a copy of R1 in 2 (as in the figure).
        values.add_copy(r1, 2);
        values.mark_ready(r1, 2);
        let r3 = values.alloc(cfg.dest_cluster(i3.cluster), false); // home = 3
        values.mark_ready(r3, 3);

        // I4: R1 (in 1,2) + R3 (in 3). Executing in 3: R1 one hop from 2.
        let i4 = place(dep, 3, &cfg, &values, &[r1, r3]);
        assert_eq!(i4.cluster, 3);
        assert_eq!(i4.comms.as_slice(), &[NeededComm { value: r1, from: 2 }]);
        values.add_copy(r1, 3);
        values.mark_ready(r1, 3);
        let r4 = values.alloc(cfg.dest_cluster(i4.cluster), false); // home = 0
        values.mark_ready(r4, 0);

        // I5: R1 (in 1,2,3). Dest clusters are 2,3,0 holding 2,2,1 registers
        // respectively -> cluster 0 is freest -> execute in 3.
        let i5 = place(dep, 0, &cfg, &values, &[r1]);
        assert_eq!(
            i5.cluster, 3,
            "Figure 2: 'Cluster 3 has more free registers'"
        );
        assert!(i5.comms.is_empty());
    }

    #[test]
    fn ring_two_sources_same_cluster_no_comm() {
        let cfg = ring4();
        let mut values = ValueTable::new(4, 64, 64);
        let a = values.alloc(2, false);
        let b = values.alloc(2, true);
        let st = place(Steering::RingDep, 0, &cfg, &values, &[a, b]);
        assert_eq!(st.cluster, 2);
        assert!(st.comms.is_empty());
    }

    #[test]
    fn ring_never_needs_two_comms() {
        // Operands in clusters 0 and 2, nothing shared: candidates are
        // exactly the clusters holding one operand -> at most one comm.
        let cfg = ring4();
        let mut values = ValueTable::new(4, 64, 64);
        let a = values.alloc(0, false);
        let b = values.alloc(2, false);
        let st = place(Steering::RingDep, 0, &cfg, &values, &[a, b]);
        assert!(st.comms.len() <= 1);
        assert!(st.cluster == 0 || st.cluster == 2);
    }

    #[test]
    fn ring_distance_uses_forward_ring() {
        // a in 3, b in 1 (4 clusters): executing at 1 needs a over (1-3)%4=2
        // hops; executing at 3 needs b over (3-1)%4=2 hops. Equal -> free
        // regs decide; make cluster 2 (dest of 1) scarcer.
        let cfg = ring4();
        let mut values = ValueTable::new(4, 64, 64);
        let a = values.alloc(3, false);
        let b = values.alloc(1, false);
        // Burn registers in cluster 2 so dest(1)=2 is less free than dest(3)=0.
        let burn: Vec<_> = (0..10).map(|_| values.alloc(2, false)).collect();
        let st = place(Steering::RingDep, 0, &cfg, &values, &[a, b]);
        assert_eq!(st.cluster, 3);
        assert_eq!(st.comms.as_slice(), &[NeededComm { value: b, from: 1 }]);
        for v in burn {
            values.free(v);
        }
    }

    #[test]
    fn conv_balance_mode_overrides_locality() {
        let cfg = conv4(4.0);
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(0, false);
        values.mark_ready(v, 0);
        // Six instructions wait in cluster 0's queue: beyond the threshold.
        let st = place_loaded(&cfg, &values, &[6], &[], &[v]);
        assert_ne!(st.cluster, 0, "balance mode must leave the loaded cluster");
        assert_eq!(st.comms.len(), 1, "which costs a communication");
    }

    #[test]
    fn dcount_balance_picks_the_least_occupied_cluster_lowest_index_first() {
        let cfg = conv4(4.0);
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(0, false);
        values.mark_ready(v, 0);
        // Occupancy 6/3/1/1: imbalance 5 > 4. Clusters 2 and 3 tie for
        // least occupied; the lower index wins.
        let st = place_loaded(&cfg, &values, &[6, 3, 1, 1], &[], &[v]);
        assert_eq!(st.cluster, 2);
        // An operand-less instruction outside balance mode goes to the
        // least-occupied cluster too, again lowest index on ties.
        let st = place_loaded(&cfg, &values, &[2, 1, 1, 2], &[], &[]);
        assert_eq!(st.cluster, 1);
    }

    #[test]
    fn dcount_threshold_comparison_is_strict() {
        let cfg = conv4(4.0);
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(0, false);
        values.mark_ready(v, 0);
        // Imbalance exactly at the threshold: locality keeps the operand's
        // cluster, no communication.
        let at = place_loaded(&cfg, &values, &[4], &[], &[v]);
        assert_eq!((at.cluster, at.comms.len()), (0, 0));
        // One more pending instruction tips it into balance mode.
        let over = place_loaded(&cfg, &values, &[5], &[], &[v]);
        assert_eq!((over.cluster, over.comms.len()), (1, 1));
    }

    #[test]
    fn dcount_counts_int_and_fp_queues() {
        let cfg = conv4(4.0);
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(0, false);
        values.mark_ready(v, 0);
        // Three INT plus three FP entries in cluster 0: DCOUNT 6, balance
        // mode. Either queue alone stays under the threshold.
        let dist = DistanceLut::new(&cfg);
        let [iq_int, iq_fp] = queues(&cfg, &[3], &[3]);
        let ctx = SteerCtx {
            cfg: &cfg,
            dist: &dist,
            values: &values,
            iq_int: &iq_int,
            iq_fp: &iq_fp,
            srcs: &[v],
        };
        assert_eq!(
            (0..4).map(|c| ctx.dcount(c)).collect::<Vec<_>>(),
            [6, 0, 0, 0]
        );
        assert_eq!(steer(Steering::ConvDcount, 0, &ctx).cluster, 1);
        for (int, fp) in [([3], [0]), ([0], [3])] {
            let st = place_loaded(&cfg, &values, &int, &fp, &[v]);
            assert_eq!(st.cluster, 0);
        }
        // Communications wait in per-cluster comm queues, which the context
        // does not carry: they are not instructions and never count.
    }

    #[test]
    fn conv_prefers_pending_producer_cluster() {
        let mut cfg = ring4();
        cfg.topology = Topology::Conv;
        cfg.steering = Steering::ConvDcount;
        let mut values = ValueTable::new(4, 64, 64);
        let pending = values.alloc(2, false); // in flight, home 2
        let st = place(Steering::ConvDcount, 0, &cfg, &values, &[pending]);
        assert_eq!(
            st.cluster, 2,
            "steer to where the pending operand is produced"
        );
        assert!(st.comms.is_empty());
    }

    #[test]
    fn conv_minimizes_longest_distance() {
        let mut cfg = ring4();
        cfg.topology = Topology::Conv;
        cfg.steering = Steering::ConvDcount;
        cfg.n_buses = 2; // bidirectional distances
        let mut values = ValueTable::new(4, 64, 64);
        let a = values.alloc(0, false);
        values.mark_ready(a, 0);
        let b = values.alloc(1, false);
        values.mark_ready(b, 1);
        let st = place(Steering::ConvDcount, 0, &cfg, &values, &[a, b]);
        // Executing at 0 or 1 leaves the other operand 1 hop away (longest=1);
        // anywhere else the longest distance is >= 1 with two comms. 0 and 1
        // tie; least-loaded tie-break picks the lowest index.
        assert!(st.cluster == 0 || st.cluster == 1);
        assert_eq!(st.comms.len(), 1);
    }

    #[test]
    fn ssa_lowest_index_home_and_round_robin() {
        let mut cfg = ring4();
        cfg.steering = Steering::Ssa;
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(2, false);
        values.add_copy(v, 1);
        let st = place(Steering::Ssa, 3, &cfg, &values, &[v]);
        assert_eq!(st.cluster, 1, "lowest-index cluster holding the operand");
        assert!(
            !rotates(Steering::Ssa, 1),
            "a sourced steer keeps the phase"
        );
        // Operand-less: each rotates, so phases 0, 1, 2, 3, 0 place
        // round robin.
        let seen: Vec<usize> = [0, 1, 2, 3, 0]
            .map(|phase| place(Steering::Ssa, phase, &cfg, &values, &[]).cluster)
            .to_vec();
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn retry_period_and_advance_replay_stalled_steers() {
        // The event-driven loop replays a stalled instruction's re-steers
        // against frozen state: the retry period is `n_clusters` for a
        // steer that rotates and 1 otherwise, a phase gives the same
        // placement however often it is asked, and advancing the phase by
        // `k` equals `k` discarded steers.
        let cfg = ring4();
        let values = ValueTable::new(4, 64, 64);
        assert!(rotates(Steering::RingDep, 0) && rotates(Steering::RingDep, 2));
        assert!(rotates(Steering::Ssa, 0));
        assert!(!rotates(Steering::Ssa, 1), "with operands Ssa is pure");
        assert!(!rotates(Steering::ConvDcount, 0));
        for kind in [Steering::RingDep, Steering::ConvDcount, Steering::Ssa] {
            let at = |phase| place(kind, phase, &cfg, &values, &[]).cluster;
            let placed: Vec<usize> = (0..4).map(at).collect();
            assert_eq!(placed, (0..4).map(at).collect::<Vec<_>>(), "{kind:?}");
            let want = if rotates(kind, 0) {
                [0, 1, 2, 3]
            } else {
                [0; 4]
            };
            assert_eq!(placed, want, "{kind:?}");
        }
    }

    #[test]
    fn factory_builds_every_policy() {
        // Smoke: each algorithm places an operand-less instruction
        // somewhere valid at every phase.
        let cfg = ring4();
        let values = ValueTable::new(4, 64, 64);
        for kind in [Steering::RingDep, Steering::ConvDcount, Steering::Ssa] {
            for phase in 0..4 {
                let st = place(kind, phase, &cfg, &values, &[]);
                assert!(st.cluster < 4, "{kind:?}");
            }
        }
    }

    #[test]
    fn needed_comms_deduplicates_same_value() {
        // An instruction reading the same value twice needs one comm.
        let dist = DistanceLut::new(&ring4());
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(0, false);
        let comms = needed_comms(&dist, &values, &[v, v], 2);
        assert_eq!(comms.len(), 1);
    }

    #[test]
    fn needed_comms_takes_the_lowest_index_nearest_copy() {
        // On a two-bus Conv (one forward, one backward bus), copies in
        // clusters 0 and 2 are both one hop from 1: the tie goes to 0.
        let cfg = CoreConfig {
            n_buses: 2,
            ..conv4(4.0)
        };
        let dist = DistanceLut::new(&cfg);
        let mut values = ValueTable::new(4, 64, 64);
        let v = values.alloc(2, false);
        values.add_copy(v, 0);
        assert_eq!((dist.min_distance(0, 1), dist.min_distance(2, 1)), (1, 1));
        let comms = needed_comms(&dist, &values, &[v], 1);
        assert_eq!(comms.as_slice(), &[NeededComm { value: v, from: 0 }]);
    }

    #[test]
    fn comm_list_holds_two_inline() {
        // The conv balance path can need both operands moved: the inline
        // list must carry both, in operand order, with no heap involved.
        let dist = DistanceLut::new(&ring4());
        let mut values = ValueTable::new(4, 64, 64);
        let a = values.alloc(0, false);
        let b = values.alloc(2, false);
        let comms = needed_comms(&dist, &values, &[a, b], 1);
        assert_eq!(comms.len(), 2);
        assert_eq!(
            comms.as_slice(),
            &[
                NeededComm { value: a, from: 0 },
                NeededComm { value: b, from: 2 }
            ]
        );
        assert!(!comms.is_empty());
    }

    #[test]
    fn comm_list_equality_ignores_dead_slots() {
        let mut x = CommList::new();
        let mut y = CommList::new();
        x.push(NeededComm { value: 7, from: 1 });
        y.push(NeededComm { value: 7, from: 1 });
        assert_eq!(x, y);
        y.push(NeededComm { value: 9, from: 2 });
        assert_ne!(x, y);
        assert_eq!(CommList::new(), CommList::default());
    }
}
