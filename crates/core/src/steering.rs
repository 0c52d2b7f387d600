//! The pluggable steering-policy layer.
//!
//! Steering — *which cluster executes the next instruction* — is the second
//! orthogonal axis of the design space next to the interconnect
//! ([`crate::interconnect`]): any [`SteeringPolicy`] can drive any
//! [`crate::config::Topology`], which is exactly the cross the paper's §4
//! ablation needs (e.g. DCOUNT-balanced steering on a crossbar, or
//! dependence steering on a mesh). A policy owns **all** of its mutable
//! state — the DCOUNT counters live inside [`ConvDcount`], not in the
//! pipeline — and learns about pipeline activity only through the two
//! feedback hooks:
//!
//! * [`SteeringPolicy::dispatched`] — an instruction was dispatched to a
//!   cluster (resources allocated, waiting to issue);
//! * [`SteeringPolicy::issued`] — an instruction left a cluster's issue
//!   queue.
//!
//! The three policies:
//!
//! * [`RingDep`] — §3.1: dependence-based steering whose tie-break is the
//!   free-register count of the cluster that will *receive* the result (the
//!   next cluster in the ring). The paper's Figure 2 example is reproduced
//!   in this module's tests.
//! * [`ConvDcount`] — §4.1: the baseline's locality steering with explicit
//!   DCOUNT workload-balance control (Parcerisa et al., PACT'02).
//! * [`Ssa`] — §4.7: send to the home cluster of the leftmost operand;
//!   round-robin for operand-less instructions. No balance control.
//!
//! Steering never fails: it always picks a cluster. Resource availability in
//! the chosen cluster is checked afterwards by dispatch, which stalls when
//! "the chosen cluster is full" (§3.1) rather than re-steering.

use crate::config::{cluster_mask, CoreConfig, DistanceLut, Steering};
use crate::steer::{nearest_copy_distance, needed_comms, Steered};
use crate::value::{ClusterBits, ValueId, ValueTable};

/// Everything a policy may consult when placing one instruction: the
/// configuration (cluster count, thresholds), the precomputed distance
/// table, the value table (where the operands live, register pressure) and
/// the instruction's live source values (architectural `r0` excluded;
/// in-flight copies count as mapped).
pub struct SteerCtx<'a> {
    /// Back-end configuration (cluster count, thresholds).
    pub cfg: &'a CoreConfig,
    /// All-pairs minimum communication distances, built once per config.
    pub dist: &'a DistanceLut,
    /// Value/copy state (operand homes, free registers).
    pub values: &'a ValueTable,
    /// Live source values of the instruction being steered (0..=2).
    pub srcs: &'a [ValueId],
}

impl SteerCtx<'_> {
    /// Package a cluster choice with the communications it implies.
    pub fn finish(&self, cluster: usize) -> Steered {
        Steered {
            cluster,
            comms: needed_comms(self.dist, self.values, self.srcs, cluster),
        }
    }
}

/// One steering algorithm plus all of its mutable state.
///
/// Contract: [`SteeringPolicy::steer`] is called once per dispatched
/// instruction (in dispatch order); [`SteeringPolicy::dispatched`] follows
/// for every instruction that actually allocated resources (a steer whose
/// dispatch stalls is *not* confirmed and may be re-attempted next cycle);
/// [`SteeringPolicy::issued`] fires when an instruction leaves its issue
/// queue. Policies must be deterministic — identical call sequences must
/// produce identical placements at any sweep worker count.
pub trait SteeringPolicy: Send {
    /// Place one instruction: pick its execution cluster and the
    /// communications that choice implies (via [`SteerCtx::finish`]).
    fn steer(&mut self, ctx: &SteerCtx<'_>) -> Steered;

    /// Feedback: an instruction was dispatched to `cluster`.
    fn dispatched(&mut self, cluster: usize) {
        let _ = cluster;
    }

    /// Feedback: an instruction issued from `cluster` (left the queue).
    fn issued(&mut self, cluster: usize) {
        let _ = cluster;
    }

    /// Retry periodicity for the event-driven loop: when the same stalled
    /// instruction is re-steered every cycle against *frozen* machine state,
    /// after how many `steer` calls does the sequence of placements repeat
    /// (and the policy's internal retry state return to its start)?
    ///
    /// Return 1 for policies whose `steer` is pure under frozen context, or
    /// `n_clusters` for a rotating tie-break that advances once per call;
    /// the period must lie in `1..=MAX_CLUSTERS`. `n_srcs` is the stalled
    /// instruction's live source-operand count (rotation often only applies
    /// to the 0-source case).
    fn retry_period(&self, n_srcs: usize, n_clusters: usize) -> usize;

    /// Replay `k` same-state `steer` calls in O(1): advance rotating retry
    /// state exactly as `k` consecutive (stalled) steers would have. Only
    /// called with `k < retry_period(..)`; pure policies need not override.
    fn retry_advance(&mut self, k: usize, n_clusters: usize) {
        let _ = (k, n_clusters);
    }
}

/// Build the steering policy the configuration asks for.
pub fn build(cfg: &CoreConfig) -> Box<dyn SteeringPolicy> {
    match cfg.steering {
        Steering::RingDep => Box::new(RingDep::new()),
        Steering::ConvDcount => Box::new(ConvDcount::new(cfg.n_clusters)),
        Steering::Ssa => Box::new(Ssa::new()),
    }
}

/// DCOUNT workload-balance state (Canal/Parcerisa): per-cluster counts of
/// **dispatched-but-not-yet-issued** instructions. The metric is
/// self-correcting — redirecting a handful of instructions immediately
/// closes the gap — which is what keeps the baseline's balance mode from
/// degenerating into permanent scatter.
pub struct Dcount {
    dc: Box<[i32]>,
}

impl Dcount {
    /// Fresh state.
    pub fn new(n_clusters: usize) -> Self {
        Dcount {
            dc: vec![0; n_clusters].into_boxed_slice(),
        }
    }

    /// Record a dispatch to `cluster`.
    #[inline]
    pub fn dispatched(&mut self, cluster: usize) {
        self.dc[cluster] += 1;
    }

    /// Record an issue from `cluster` (the instruction left the queue).
    #[inline]
    pub fn issued(&mut self, cluster: usize) {
        debug_assert!(self.dc[cluster] > 0, "DCOUNT underflow");
        self.dc[cluster] -= 1;
    }

    /// Current imbalance: max − min pending-instruction counts.
    pub fn imbalance(&self) -> f64 {
        let mut mx = i32::MIN;
        let mut mn = i32::MAX;
        for &d in self.dc.iter() {
            mx = mx.max(d);
            mn = mn.min(d);
        }
        (mx - mn) as f64
    }

    /// Least-loaded cluster (lowest counter; ties → lowest index).
    pub fn least_loaded(&self) -> usize {
        let mut best = 0;
        for c in 1..self.dc.len() {
            if self.dc[c] < self.dc[best] {
                best = c;
            }
        }
        best
    }

    /// Counter value (tests).
    pub fn count(&self, cluster: usize) -> f64 {
        self.dc[cluster] as f64
    }
}

/// §3.1 dependence-based steering (free-register balance metric).
pub struct RingDep {
    /// Rotating tie-break pointer (the paper steers the 0-source case
    /// "randomly"; rotation keeps runs deterministic).
    rr: usize,
}

impl RingDep {
    /// Fresh policy.
    pub fn new() -> Self {
        RingDep { rr: 0 }
    }

    /// Most free registers in the destination cluster among candidates;
    /// ties broken by the rotating pointer. Candidates are visited in the
    /// rotated order `rr, rr+1, …, n-1, 0, …, rr-1` (mask split at `rr`)
    /// with a strictly-greater comparison — the same winner as scanning all
    /// offsets and skipping non-candidates.
    fn pick_most_free(&mut self, cfg: &CoreConfig, values: &ValueTable, cand: u64) -> usize {
        let n = cfg.n_clusters;
        let mut best = usize::MAX;
        let mut best_free = i32::MIN;
        let low_mask = (1u64 << self.rr) - 1; // rr < n <= 64
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
        self.rr = (self.rr + 1) % n;
        best
    }
}

impl SteeringPolicy for RingDep {
    /// Candidates by operand count, then most free registers in the
    /// *destination* cluster (Figure 2's example requires the destination
    /// cluster interpretation; see tests).
    fn steer(&mut self, ctx: &SteerCtx<'_>) -> Steered {
        let (cfg, values) = (ctx.cfg, ctx.values);
        let n = cfg.n_clusters;
        let cand: u64 = match ctx.srcs {
            [] => cluster_mask(n),
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
        ctx.finish(self.pick_most_free(cfg, values, cand))
    }

    /// `pick_most_free` advances the rotating pointer on every call, so the
    /// placement sequence under frozen state has period `n_clusters`
    /// regardless of operand count.
    fn retry_period(&self, _n_srcs: usize, n_clusters: usize) -> usize {
        n_clusters
    }

    fn retry_advance(&mut self, k: usize, n_clusters: usize) {
        self.rr = (self.rr + k) % n_clusters;
    }
}

impl Default for RingDep {
    fn default() -> Self {
        Self::new()
    }
}

/// §4.1 baseline steering: locality with explicit DCOUNT balance control.
/// Owns the DCOUNT counters; the pipeline feeds them through the
/// [`SteeringPolicy::dispatched`]/[`SteeringPolicy::issued`] hooks.
pub struct ConvDcount {
    dcount: Dcount,
}

impl ConvDcount {
    /// Fresh policy for `n_clusters` clusters.
    pub fn new(n_clusters: usize) -> Self {
        ConvDcount {
            dcount: Dcount::new(n_clusters),
        }
    }

    /// The internal balance state (tests, labs).
    pub fn dcount(&self) -> &Dcount {
        &self.dcount
    }
}

impl SteeringPolicy for ConvDcount {
    fn steer(&mut self, ctx: &SteerCtx<'_>) -> Steered {
        let (cfg, values, srcs) = (ctx.cfg, ctx.values, ctx.srcs);
        let dcount = &self.dcount;
        let n = cfg.n_clusters;
        if dcount.imbalance() > cfg.dcount_threshold {
            return ctx.finish(dcount.least_loaded());
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
        // Least loaded among the selected clusters (ascending cluster
        // order, strict less: lowest index wins ties, as before).
        let mut bestc = usize::MAX;
        let mut bestdc = f64::MAX;
        for c in ClusterBits(cand) {
            if dcount.count(c) < bestdc {
                bestdc = dcount.count(c);
                bestc = c;
            }
        }
        debug_assert!(bestc != usize::MAX);
        ctx.finish(bestc)
    }

    fn dispatched(&mut self, cluster: usize) {
        self.dcount.dispatched(cluster);
    }

    fn issued(&mut self, cluster: usize) {
        self.dcount.issued(cluster);
    }

    /// `steer` reads only DCOUNT/value state, which a dead cycle freezes.
    fn retry_period(&self, _n_srcs: usize, _n_clusters: usize) -> usize {
        1
    }
}

/// §4.7 simple steering: home cluster of the leftmost operand, round-robin
/// for operand-less instructions.
pub struct Ssa {
    rr: usize,
}

impl Ssa {
    /// Fresh policy.
    pub fn new() -> Self {
        Ssa { rr: 0 }
    }
}

impl SteeringPolicy for Ssa {
    fn steer(&mut self, ctx: &SteerCtx<'_>) -> Steered {
        let cluster = if let Some(v) = ctx.srcs.first() {
            // Lowest-index cluster that stores (or will store) the leftmost
            // operand.
            ctx.values
                .mapped_clusters(*v)
                .next()
                .expect("live value must be mapped somewhere")
        } else {
            let c = self.rr % ctx.cfg.n_clusters;
            self.rr = (self.rr + 1) % ctx.cfg.n_clusters;
            c
        };
        ctx.finish(cluster)
    }

    /// Round-robin rotation only applies to operand-less instructions; with
    /// sources the placement is a pure function of the value table.
    fn retry_period(&self, n_srcs: usize, n_clusters: usize) -> usize {
        if n_srcs == 0 {
            n_clusters
        } else {
            1
        }
    }

    fn retry_advance(&mut self, k: usize, n_clusters: usize) {
        self.rr = (self.rr + k) % n_clusters;
    }
}

impl Default for Ssa {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use crate::steer::NeededComm;

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

    fn steer(
        policy: &mut dyn SteeringPolicy,
        cfg: &CoreConfig,
        values: &ValueTable,
        srcs: &[ValueId],
    ) -> Steered {
        let dist = DistanceLut::new(cfg);
        policy.steer(&SteerCtx {
            cfg,
            dist: &dist,
            values,
            srcs,
        })
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
        let mut s = RingDep::new();

        // I1: no sources. All dest clusters equally free; rotating tie-break
        // starts at 0.
        let i1 = steer(&mut s, &cfg, &values, &[]);
        assert_eq!(i1.cluster, 0);
        assert!(i1.comms.is_empty());
        let r1 = values.alloc(cfg.dest_cluster(i1.cluster), false); // home = 1
        values.mark_ready(r1, 1);

        // I2: one source R1 (mapped only in 1).
        let i2 = steer(&mut s, &cfg, &values, &[r1]);
        assert_eq!(i2.cluster, 1);
        assert!(i2.comms.is_empty());
        let r2 = values.alloc(cfg.dest_cluster(i2.cluster), false); // home = 2
        values.mark_ready(r2, 2);

        // I3: R1 (in 1) + R2 (in 2). No cluster has both; executing in 2
        // needs R1 over 1 hop (1->2); executing in 1 needs R2 over 3 hops.
        let i3 = steer(&mut s, &cfg, &values, &[r1, r2]);
        assert_eq!(i3.cluster, 2);
        assert_eq!(i3.comms.as_slice(), &[NeededComm { value: r1, from: 1 }]);
        // The comm materializes a copy of R1 in 2 (as in the figure).
        values.add_copy(r1, 2);
        values.mark_ready(r1, 2);
        let r3 = values.alloc(cfg.dest_cluster(i3.cluster), false); // home = 3
        values.mark_ready(r3, 3);

        // I4: R1 (in 1,2) + R3 (in 3). Executing in 3: R1 one hop from 2.
        let i4 = steer(&mut s, &cfg, &values, &[r1, r3]);
        assert_eq!(i4.cluster, 3);
        assert_eq!(i4.comms.as_slice(), &[NeededComm { value: r1, from: 2 }]);
        values.add_copy(r1, 3);
        values.mark_ready(r1, 3);
        let r4 = values.alloc(cfg.dest_cluster(i4.cluster), false); // home = 0
        values.mark_ready(r4, 0);

        // I5: R1 (in 1,2,3). Dest clusters are 2,3,0 holding 2,2,1 registers
        // respectively -> cluster 0 is freest -> execute in 3.
        let i5 = steer(&mut s, &cfg, &values, &[r1]);
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
        let mut s = RingDep::new();
        let a = values.alloc(2, false);
        let b = values.alloc(2, true);
        let st = steer(&mut s, &cfg, &values, &[a, b]);
        assert_eq!(st.cluster, 2);
        assert!(st.comms.is_empty());
    }

    #[test]
    fn ring_never_needs_two_comms() {
        // Operands in clusters 0 and 2, nothing shared: candidates are
        // exactly the clusters holding one operand -> at most one comm.
        let cfg = ring4();
        let mut values = ValueTable::new(4, 64, 64);
        let mut s = RingDep::new();
        let a = values.alloc(0, false);
        let b = values.alloc(2, false);
        let st = steer(&mut s, &cfg, &values, &[a, b]);
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
        let mut s = RingDep::new();
        let a = values.alloc(3, false);
        let b = values.alloc(1, false);
        // Burn registers in cluster 2 so dest(1)=2 is less free than dest(3)=0.
        let burn: Vec<_> = (0..10).map(|_| values.alloc(2, false)).collect();
        let st = steer(&mut s, &cfg, &values, &[a, b]);
        assert_eq!(st.cluster, 3);
        assert_eq!(st.comms.as_slice(), &[NeededComm { value: b, from: 1 }]);
        for v in burn {
            values.free(v);
        }
    }

    #[test]
    fn conv_balance_mode_overrides_locality() {
        let mut cfg = ring4();
        cfg.topology = Topology::Conv;
        cfg.steering = Steering::ConvDcount;
        cfg.dcount_threshold = 4.0;
        let mut values = ValueTable::new(4, 64, 64);
        let mut s = ConvDcount::new(4);
        let v = values.alloc(0, false);
        values.mark_ready(v, 0);
        // Pile dispatches onto cluster 0 beyond the threshold.
        for _ in 0..6 {
            s.dispatched(0);
        }
        let st = steer(&mut s, &cfg, &values, &[v]);
        assert_ne!(st.cluster, 0, "balance mode must leave the loaded cluster");
        assert_eq!(st.comms.len(), 1, "which costs a communication");
    }

    #[test]
    fn conv_prefers_pending_producer_cluster() {
        let mut cfg = ring4();
        cfg.topology = Topology::Conv;
        cfg.steering = Steering::ConvDcount;
        let mut values = ValueTable::new(4, 64, 64);
        let mut s = ConvDcount::new(4);
        let pending = values.alloc(2, false); // in flight, home 2
        let st = steer(&mut s, &cfg, &values, &[pending]);
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
        let mut s = ConvDcount::new(4);
        let a = values.alloc(0, false);
        values.mark_ready(a, 0);
        let b = values.alloc(1, false);
        values.mark_ready(b, 1);
        let st = steer(&mut s, &cfg, &values, &[a, b]);
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
        let mut s = Ssa::new();
        let v = values.alloc(2, false);
        values.add_copy(v, 1);
        let st = steer(&mut s, &cfg, &values, &[v]);
        assert_eq!(st.cluster, 1, "lowest-index cluster holding the operand");
        // Operand-less: round robin 0,1,2,3,0...
        let mut seen = Vec::new();
        for _ in 0..5 {
            seen.push(steer(&mut s, &cfg, &values, &[]).cluster);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn dcount_tracks_pending_instructions() {
        let mut d = Dcount::new(4);
        d.dispatched(0);
        d.dispatched(0);
        d.dispatched(1);
        assert!((d.imbalance() - 2.0).abs() < 1e-12);
        d.issued(0);
        assert!((d.count(0) - 1.0).abs() < 1e-12);
        assert!((d.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(d.least_loaded(), 2);
    }

    #[test]
    fn conv_feedback_hooks_drive_the_dcount() {
        // The pipeline's dispatched/issued notifications are the only way
        // balance state changes; the hooks must mirror Dcount exactly.
        let mut s = ConvDcount::new(4);
        s.dispatched(1);
        s.dispatched(1);
        s.dispatched(3);
        assert!((s.dcount().count(1) - 2.0).abs() < 1e-12);
        assert!((s.dcount().imbalance() - 2.0).abs() < 1e-12);
        s.issued(1);
        assert!((s.dcount().count(1) - 1.0).abs() < 1e-12);
        assert_eq!(s.dcount().least_loaded(), 0);
    }

    #[test]
    fn ringdep_and_ssa_ignore_feedback() {
        // The hooks are no-ops for stateless-balance policies: placements
        // before and after a storm of notifications must be identical.
        let cfg = ring4();
        let values = ValueTable::new(4, 64, 64);
        let mut a = RingDep::new();
        let mut b = RingDep::new();
        for c in 0..4 {
            b.dispatched(c);
            b.issued(c);
        }
        for _ in 0..6 {
            assert_eq!(
                steer(&mut a, &cfg, &values, &[]).cluster,
                steer(&mut b, &cfg, &values, &[]).cluster
            );
        }
        let mut a = Ssa::new();
        let mut b = Ssa::new();
        b.dispatched(2);
        b.issued(2);
        for _ in 0..6 {
            assert_eq!(
                steer(&mut a, &cfg, &values, &[]).cluster,
                steer(&mut b, &cfg, &values, &[]).cluster
            );
        }
    }

    #[test]
    fn retry_period_and_advance_replay_stalled_steers() {
        // Contract for the event-driven loop: `retry_period` same-state
        // steer calls return the policy to its starting phase, and
        // `retry_advance(k)` is equivalent to `k` discarded steers.
        let cfg = ring4();
        let values = ValueTable::new(4, 64, 64);

        let mut p = RingDep::new();
        assert_eq!(SteeringPolicy::retry_period(&p, 0, 4), 4);
        assert_eq!(SteeringPolicy::retry_period(&p, 2, 4), 4);
        let first = steer(&mut p, &cfg, &values, &[]).cluster;
        for _ in 0..3 {
            steer(&mut p, &cfg, &values, &[]);
        }
        assert_eq!(
            steer(&mut p, &cfg, &values, &[]).cluster,
            first,
            "a full period of steers must close the rotation"
        );

        let mut a = RingDep::new();
        let mut b = RingDep::new();
        for _ in 0..3 {
            steer(&mut a, &cfg, &values, &[]);
        }
        SteeringPolicy::retry_advance(&mut b, 3, 4);
        assert_eq!(
            steer(&mut a, &cfg, &values, &[]).cluster,
            steer(&mut b, &cfg, &values, &[]).cluster,
            "retry_advance(3) must equal three discarded steers"
        );

        let ssa = Ssa::new();
        assert_eq!(SteeringPolicy::retry_period(&ssa, 0, 4), 4);
        assert_eq!(
            SteeringPolicy::retry_period(&ssa, 1, 4),
            1,
            "with operands Ssa is pure"
        );
        let cd = ConvDcount::new(4);
        assert_eq!(SteeringPolicy::retry_period(&cd, 0, 4), 1);
    }

    #[test]
    fn factory_builds_every_policy() {
        // Smoke: each enum variant resolves to a policy that places an
        // operand-less instruction somewhere valid.
        for steering in [Steering::RingDep, Steering::ConvDcount, Steering::Ssa] {
            let cfg = CoreConfig {
                steering,
                ..ring4()
            };
            let values = ValueTable::new(4, 64, 64);
            let dist = DistanceLut::new(&cfg);
            let mut p = build(&cfg);
            let st = p.steer(&SteerCtx {
                cfg: &cfg,
                dist: &dist,
                values: &values,
                srcs: &[],
            });
            assert!(st.cluster < 4, "{steering:?}");
            p.dispatched(st.cluster);
            p.issued(st.cluster);
        }
    }
}
