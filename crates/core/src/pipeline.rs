//! The clustered out-of-order core: fetch → dispatch/steer → issue →
//! execute → commit, replaying an oracle trace.
//!
//! The core streams its trace: a [`TraceSource`] (the emulator stepping a
//! program, or a materialized trace) fills a fixed ring that holds only
//! the records a run can still touch, so no run holds its whole trace.
//!
//! Timing discipline per cycle (in processing order):
//!
//! 1. **events** — completions scheduled on the event wheel fire: a
//!    producer writes back (its value becomes ready in its home cluster,
//!    waking that cluster's queues) and completes, a communication's copy
//!    arrives, loads learn their addresses, a resolving branch un-stalls
//!    fetch;
//! 2. **commit** — up to `commit_width` done instructions leave the ROB
//!    head; committing a redefiner releases all copies of the overwritten
//!    value;
//! 3. **memory** — eligible loads start (D-cache ports permitting, with
//!    store→load forwarding), committed stores drain to the cache;
//! 4. **issue** — per cluster: ready communications arbitrate for bus
//!    segments; ready instructions issue oldest-first within the
//!    INT/FP issue widths and functional-unit availability; NREADY is
//!    sampled after selection;
//! 5. **dispatch** — up to `fetch_width` decoded instructions steer to
//!    clusters and allocate ROB/IQ/LSQ/register/communication resources,
//!    stalling (in order) on the first instruction whose *chosen* cluster is
//!    full;
//! 6. **fetch** — up to `fetch_width` instructions enter the fetch queue,
//!    stopping at a predicted-taken branch, an I-cache miss, or a
//!    misprediction (stall-on-mispredict: fetch resumes the cycle after the
//!    branch resolves).
//!
//! Fetch, dispatch and commit all move in program order, and fetch never
//! follows a wrong path, so an instruction's trace index is its only
//! identity. The ROB is the index range `commit_idx..dispatch_idx` and the
//! fetch queue is `dispatch_idx..fetch_idx`; an instruction's pipeline
//! state sits in the ring slot of its index, beside its trace record. Issue
//! queues, communication queues, the LSQ and the event wheel name an
//! instruction by that index, and it is also their age stamp.
//!
//! Because dispatch runs after issue, a dispatched instruction issues no
//! earlier than the next cycle; because events run before issue, dependent
//! instructions in adjacent ring clusters issue back-to-back (§3.2's
//! headline property).
//!
//! The run loop is event-driven: after each simulated cycle, if no stage
//! can make progress, [`Core::run`] fast-forwards straight to the next
//! scheduled event (or fetch/decode timer, or dispatch-retry success)
//! instead of ticking dead cycles one by one. The skip replicates each dead
//! cycle's counter effects, so all statistics are bit-identical to a
//! cycle-stepped run — `set_event_driven(false)` forces the stepped loop,
//! the oracle `tests/cycle_stepped.rs` compares against.
//!
//! Within a simulated cycle, per-cluster work is sparse: `u64` bitmasks
//! track which clusters hold ready instructions/communications, so issue,
//! NREADY sampling, and the idle probe visit only active clusters instead
//! of scanning `0..n_clusters` (O(active) per cycle, which is what makes
//! [`crate::config::MAX_CLUSTERS`] = 64 machines cheap to simulate when
//! most clusters idle). The sparse walks iterate in the exact order the
//! dense `0..n_clusters` scans used to, so counters stayed bit-identical
//! when the dense paths were deleted; `tests/cycle_stepped.rs` pins the
//! surviving equivalence (event-driven vs cycle-stepped).

use std::collections::VecDeque;

use rcmc_emu::{StaticInsn, Trace, TraceRec, TraceSource};
use rcmc_isa::{FuKind, Insn, InsnClass, Opcode, Reg, NUM_ARCH_REGS};
use rcmc_uarch::{FrontEndPredictor, MemConfig, MemHierarchy, PredictorConfig};

use crate::config::{CopyRelease, CoreConfig, MAX_CLUSTERS};
use crate::fabric::{DistanceLut, Fabric};
use crate::fu::FuSet;
use crate::lsq::{LoadKind, Lsq};
use crate::pipeview::PipeTracer;
use crate::queues::{CommOp, CommQueue, IqEntry, IssueQueue};
use crate::stats::Stats;
use crate::steering::{self, SteerCtx, Steered};
use crate::timeq::TimeQueue;
use crate::value::{CopyState, ValueId, ValueTable};

const WHEEL: usize = crate::config::EVENT_WHEEL;

/// A wheel event. Every variant but `CopyReady` names its instruction by
/// trace index.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A communication's copy of `value` becomes readable in `cluster`:
    /// mark + wake that cluster.
    CopyReady { value: ValueId, cluster: u8 },
    /// Instruction writes back and completes (commit-eligible); un-stalls
    /// fetch if it was the mispredicted control instruction fetch is
    /// waiting on.
    RobDone { idx: u64 },
    /// Load address generated; forwards to the LSQ.
    LoadAddr { idx: u64 },
    /// Store address + data captured; completes the store.
    StoreReady { idx: u64 },
    /// Load finished (cache or forward): releases its LSQ entry, writes
    /// back and completes.
    LoadDone { idx: u64 },
}

/// The pipeline state of one instruction between fetch and commit, held in
/// the ring slot of its trace index. `avail` is read while the instruction
/// is in the fetch queue; the other fields are set at dispatch and read
/// until commit.
#[derive(Clone, Copy)]
struct InFlight {
    /// Cycle at which decode/rename is finished and dispatch may proceed.
    avail: u64,
    /// Destination value (if the instruction writes a register).
    dest: Option<ValueId>,
    /// The value this instruction's destination *redefines*; all its copies
    /// are freed when this instruction commits (§3 release policy).
    prev: Option<ValueId>,
    /// Behavioural class.
    class: InsnClass,
    /// Completed (eligible to commit)?
    done: bool,
    /// Execution cluster.
    cluster: u8,
}

/// Dispatch stall causes, in check order (mirrors `StallBreakdown`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StallKind {
    Iq,
    Lsq,
    Regs,
    Comm,
}

/// What the dispatch stage would do next cycle, probed against frozen state
/// by the idle-skip analysis.
enum DispatchIdle {
    /// No dispatch attempt is pending (empty fetch queue, or its front
    /// instruction is still in decode — the caller bounds the skip on its
    /// `avail`).
    NoAttempt,
    /// ROB full: every skipped cycle charges `rob_full`; steering never runs.
    RobFull,
    /// The front instruction would dispatch — the next cycle is live.
    Dispatches,
    /// Stalled: skipped cycle `now + j` replays `outcomes[j % period]`
    /// (`None` entries mean dispatch succeeds on that phase).
    Stalled {
        outcomes: [Option<StallKind>; MAX_CLUSTERS],
        period: usize,
    },
}

/// The simulated core. Construct with [`Core::new`] or
/// [`Core::streaming`], drive with [`Core::run`] or
/// [`Core::run_with_warmup`].
pub struct Core<'t> {
    cfg: CoreConfig,
    /// Where the trace's records come from.
    source: TraceSource<'t>,
    /// The records a run can still touch: record `i` sits at `ring[i &
    /// (ring.len() - 1)]` until record `i + ring.len()` replaces it. Fetch
    /// reads record `fetch_idx`, and every later stage reads only records
    /// in the ROB or the fetch queue, `commit_idx..fetch_idx`. So `rob +
    /// fetch_queue + 1` slots hold every record a read can reach; the
    /// length, `rob + fetch_queue + fetch_width` rounded up to a power of
    /// two, leaves room to refill in batches.
    ring: Box<[TraceRec]>,
    /// Pipeline state of the instructions in `commit_idx..fetch_idx`, in
    /// the slots of their records (same length and indexing as `ring`).
    inflight: Box<[InFlight]>,
    /// Records pulled from `source` so far.
    pulled: u64,
    mem: MemHierarchy,
    fe: FrontEndPredictor,

    // Program order: `commit_idx <= dispatch_idx <= fetch_idx <= pulled`.
    /// The ROB head: the oldest instruction not yet committed.
    commit_idx: u64,
    /// The fetch-queue head: the oldest instruction not yet dispatched.
    dispatch_idx: u64,
    /// The next record to fetch.
    fetch_idx: u64,

    // Front end.
    fetch_resume: u64,
    /// Trace index of the mispredicted control instruction fetch waits on.
    fetch_stalled_on: Option<u64>,
    last_fetch_line: u64,

    // Rename.
    rename: [ValueId; NUM_ARCH_REGS],
    values: ValueTable,
    /// The steering tie-break's phase, in `0..n_clusters`: advanced after
    /// every steer that [`steering::rotates`], stalled or not.
    rr: usize,
    /// Pairwise cluster distances, precomputed once per configuration.
    dist: DistanceLut,

    // Per-cluster structures.
    iq_int: Vec<IssueQueue>,
    iq_fp: Vec<IssueQueue>,
    iq_comm: Vec<CommQueue>,
    fus: Vec<FuSet>,

    fabric: Fabric,
    lsq: Lsq,
    store_buf: VecDeque<u64>,

    wheel: TimeQueue<Ev>,
    now: u64,
    last_commit: u64,
    halted: bool,
    stats: Stats,
    /// Fast-forward over provably dead cycles (bit-identical counters either
    /// way; `set_event_driven(false)` forces cycle-by-cycle ticks).
    event_driven: bool,
    /// Cycles fast-forwarded rather than individually simulated.
    skipped_cycles: u64,
    /// Bit `c` set iff `iq_int[c]` or `iq_fp[c]` has a ready entry.
    /// Maintained by [`Core::refresh_cluster`] after every queue mutation.
    ready_mask: u64,
    /// Bit `c` set iff `iq_comm[c]` has a ready entry.
    comm_mask: u64,

    // Scratch buffers reused across cycles.
    scratch_ready: Vec<usize>,
    scratch_remove: Vec<usize>,
    scratch_comm: Vec<usize>,
    scratch_loads: Vec<crate::lsq::StartedLoad>,
    scratch_events: Vec<Ev>,

    tracer: Option<PipeTracer>,
}

impl<'t> Core<'t> {
    /// Build a core that replays `trace` with the given
    /// backend/memory/predictor configurations.
    pub fn new(
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        pred_cfg: PredictorConfig,
        trace: &'t Trace,
    ) -> Self {
        Core::streaming(cfg, mem_cfg, pred_cfg, TraceSource::replay(trace))
    }

    /// Build a core that reads its records from `source` as it fetches,
    /// holding only its ring: over [`TraceSource::emulate`], the same run
    /// as [`Core::new`] over the program's materialized trace.
    pub fn streaming(
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        pred_cfg: PredictorConfig,
        source: TraceSource<'t>,
    ) -> Self {
        cfg.validate().expect("invalid core configuration");
        let ring_len = (cfg.rob + cfg.fetch_queue + cfg.fetch_width).next_power_of_two();
        let n = cfg.n_clusters;
        let mut values = ValueTable::new(n, cfg.regs_int, cfg.regs_fp);
        // Initial architectural state lives in cluster 0.
        let mut rename = [0 as ValueId; NUM_ARCH_REGS];
        for (a, slot) in rename.iter_mut().enumerate() {
            *slot = values.alloc_ready(0, a >= rcmc_isa::NUM_INT_REGS);
        }
        let mut core = Core {
            fabric: Fabric::new(&cfg),
            iq_int: (0..n).map(|_| IssueQueue::new(cfg.iq_int)).collect(),
            iq_fp: (0..n).map(|_| IssueQueue::new(cfg.iq_fp)).collect(),
            iq_comm: (0..n).map(|_| CommQueue::new(cfg.iq_comm)).collect(),
            fus: (0..n).map(|_| FuSet::new(cfg.iw_int, cfg.iw_fp)).collect(),
            lsq: Lsq::new(cfg.lsq, mem_cfg.dcache_transfer as u64),
            store_buf: VecDeque::with_capacity(cfg.store_buffer),
            mem: MemHierarchy::new(mem_cfg),
            fe: FrontEndPredictor::new(&pred_cfg),
            commit_idx: 0,
            dispatch_idx: 0,
            fetch_idx: 0,
            fetch_resume: 0,
            fetch_stalled_on: None,
            last_fetch_line: u64::MAX,
            rename,
            values,
            rr: 0,
            dist: DistanceLut::new(&cfg),
            wheel: TimeQueue::new(WHEEL),
            now: 0,
            last_commit: 0,
            halted: false,
            stats: Stats::new(n),
            event_driven: true,
            skipped_cycles: 0,
            ready_mask: 0,
            comm_mask: 0,
            source,
            ring: vec![TraceRec::default(); ring_len].into_boxed_slice(),
            inflight: vec![
                InFlight {
                    avail: 0,
                    dest: None,
                    prev: None,
                    class: InsnClass::Nop,
                    done: false,
                    cluster: 0,
                };
                ring_len
            ]
            .into_boxed_slice(),
            pulled: 0,
            cfg,
            scratch_ready: Vec::new(),
            scratch_remove: Vec::new(),
            scratch_comm: Vec::new(),
            scratch_loads: Vec::new(),
            scratch_events: Vec::new(),
            tracer: None,
        };
        core.refill();
        core
    }

    /// Attach a pipeline tracer (see [`crate::pipeview::PipeTracer`]).
    pub fn attach_tracer(&mut self, tracer: PipeTracer) {
        self.tracer = Some(tracer);
    }

    /// Detach and return the tracer.
    pub fn take_tracer(&mut self) -> Option<PipeTracer> {
        self.tracer.take()
    }

    /// The ring slot of trace index `idx`, which must still be in the ring.
    #[inline]
    fn slot(&self, idx: u64) -> usize {
        debug_assert!(
            idx < self.pulled && self.pulled - idx <= self.ring.len() as u64,
            "trace record {idx} is not in the ring ({} pulled)",
            self.pulled
        );
        idx as usize & (self.ring.len() - 1)
    }

    /// Trace record `idx`.
    #[inline]
    fn rec(&self, idx: u64) -> TraceRec {
        self.ring[self.slot(idx)]
    }

    /// The static instruction of trace record `idx`.
    #[inline]
    fn static_of(&self, idx: u64) -> StaticInsn {
        self.source.statics()[self.rec(idx).sid as usize]
    }

    /// The slot of in-flight instruction `idx`: fetched and not yet
    /// committed, so a stale index (one already committed) is caught.
    #[inline]
    fn inflight_slot(&self, idx: u64) -> usize {
        debug_assert!(
            self.commit_idx <= idx && idx < self.fetch_idx,
            "instruction {idx} is not in flight ({}..{})",
            self.commit_idx,
            self.fetch_idx
        );
        self.slot(idx)
    }

    /// The pipeline state of in-flight instruction `idx`.
    #[inline]
    fn at(&self, idx: u64) -> &InFlight {
        &self.inflight[self.inflight_slot(idx)]
    }

    /// Mutable [`Core::at`].
    #[inline]
    fn at_mut(&mut self, idx: u64) -> &mut InFlight {
        let s = self.inflight_slot(idx);
        &mut self.inflight[s]
    }

    /// Room in the ROB for one more instruction?
    #[inline]
    fn rob_has_space(&self) -> bool {
        self.dispatch_idx - self.commit_idx < self.cfg.rob as u64
    }

    /// Room in the fetch queue for one more instruction?
    #[inline]
    fn fetch_queue_has_space(&self) -> bool {
        self.fetch_idx - self.dispatch_idx < self.cfg.fetch_queue as u64
    }

    /// Once fetch has read every record pulled, pull from the source as
    /// many records as fit over records no longer in flight (those before
    /// `commit_idx`). Batches run about 3% faster than one record per
    /// fetch on `stall-sweep`'s jobs: the emulator and the core take turns
    /// with their working sets.
    fn refill(&mut self) {
        let free = self.commit_idx + self.ring.len() as u64 - self.pulled;
        debug_assert!(
            free > 0,
            "record {} would overwrite a record in flight",
            self.pulled
        );
        let mask = self.ring.len() - 1;
        for rec in self.source.by_ref().take(free as usize) {
            self.ring[self.pulled as usize & mask] = rec;
            self.pulled += 1;
        }
    }

    #[inline]
    fn trace_mark(&mut self, idx: u64, f: impl FnOnce(&mut crate::pipeview::InsnRecord, u64)) {
        if let Some(t) = self.tracer.as_mut() {
            let now = self.now;
            if let Some(r) = t.rec(idx) {
                f(r, now);
            }
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Whether the trace's `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Enable or disable event-driven fast-forwarding (on by default).
    /// Counters are bit-identical either way; disabling forces the run loop
    /// to simulate every cycle individually.
    pub fn set_event_driven(&mut self, on: bool) {
        self.event_driven = on;
    }

    /// Cycles fast-forwarded (never individually simulated). Always ≤
    /// `stats().cycles`; the ratio of the two is the wheel's skip rate.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Recompute this cluster's bits in the active-cluster masks. Must run
    /// after every mutation of the cluster's issue/communication queues
    /// (event wakeups, dispatch pushes, issue removals) — the sparse scans
    /// trust the masks exactly, not conservatively.
    #[inline]
    fn refresh_cluster(&mut self, c: usize) {
        let bit = 1u64 << c;
        if self.iq_int[c].ready_count() != 0 || self.iq_fp[c].ready_count() != 0 {
            self.ready_mask |= bit;
        } else {
            self.ready_mask &= !bit;
        }
        if self.iq_comm[c].ready_count() != 0 {
            self.comm_mask |= bit;
        } else {
            self.comm_mask &= !bit;
        }
    }

    fn schedule(&mut self, delay: u64, ev: Ev) {
        self.wheel.schedule(self.now, delay, ev);
    }

    /// True when the trace is exhausted and the machine has fully drained:
    /// every record pulled has committed (fetch refills the ring whenever it
    /// has read every record pulled, so a source with records left is never
    /// fully committed).
    fn drained(&self) -> bool {
        self.commit_idx == self.pulled
    }

    /// Run until `budget` instructions have committed, the program halts, or
    /// the trace drains. Returns the stats.
    pub fn run(&mut self, budget: u64) -> &Stats {
        while !self.halted && self.stats.committed < budget {
            if self.drained() {
                break;
            }
            self.tick();
            // Fast-forward only between in-budget ticks: stopping exactly at
            // the budget/halt/drain boundary keeps cycle attribution across
            // warm-up and measurement windows identical to a stepped run.
            if self.event_driven && !self.halted && self.stats.committed < budget && !self.drained()
            {
                self.fast_forward_idle();
            }
        }
        self.sync_external_stats();
        &self.stats
    }

    /// Run `warmup` committed instructions, snapshot, then run `measure`
    /// more and return `final - snapshot` (the measurement window).
    pub fn run_with_warmup(&mut self, warmup: u64, measure: u64) -> Stats {
        self.run(warmup);
        let snap = self.stats.clone();
        self.run(warmup + measure);
        self.stats.delta(&snap)
    }

    /// Copy predictor/cache counters into the stats block.
    fn sync_external_stats(&mut self) {
        self.stats.l1d_accesses = self.mem.l1d.accesses;
        self.stats.l1d_misses = self.mem.l1d.misses;
        self.stats.l1i_misses = self.mem.l1i.misses;
        self.stats.l2_misses = self.mem.l2.misses;
    }

    /// One cycle.
    pub fn tick(&mut self) {
        self.process_events();
        self.commit();
        self.memory_stage();
        self.issue_all();
        self.dispatch();
        self.fetch();
        self.stats.cycles += 1;
        self.now += 1;
        assert!(
            self.now - self.last_commit < self.cfg.watchdog_cycles,
            "watchdog: no commit for {} cycles at cycle {} (ROB head at trace index {}, \
             rob={}, fetch queue={}, lsq={})",
            self.cfg.watchdog_cycles,
            self.now,
            self.commit_idx,
            self.dispatch_idx - self.commit_idx,
            self.fetch_idx - self.dispatch_idx,
            self.lsq.len(),
        );
    }

    // ---------------------------------------------------------- events --

    fn process_events(&mut self) {
        let mut evs = std::mem::take(&mut self.scratch_events);
        self.wheel.swap_due(self.now, &mut evs);
        for ev in &evs {
            match *ev {
                Ev::CopyReady { value, cluster } => self.copy_ready(value, cluster as usize),
                Ev::RobDone { idx } => {
                    self.complete(idx);
                    if self.fetch_stalled_on == Some(idx) {
                        self.fetch_stalled_on = None;
                        self.fetch_resume = self.now + 1;
                    }
                }
                Ev::LoadAddr { idx } => {
                    let addr = self.rec(idx).mem_addr;
                    self.lsq.load_addr_known(idx, addr, self.now);
                }
                Ev::StoreReady { idx } => {
                    let addr = self.rec(idx).mem_addr;
                    self.lsq.store_ready(idx, addr);
                    self.complete(idx);
                }
                Ev::LoadDone { idx } => {
                    self.lsq.release_load(idx);
                    self.complete(idx);
                }
            }
        }
        // Keep the drained buffer as scratch: the next swap hands it back to
        // a wheel bucket, so steady state allocates nothing.
        evs.clear();
        self.scratch_events = evs;
    }

    /// `value` becomes readable in cluster `c`: mark the copy and wake the
    /// cluster's queues.
    fn copy_ready(&mut self, value: ValueId, c: usize) {
        if self.values.mark_ready(value, c) {
            self.iq_int[c].wakeup(value);
            self.iq_fp[c].wakeup(value);
            self.iq_comm[c].wakeup(value, self.now);
            self.refresh_cluster(c);
        }
    }

    /// Instruction `idx` writes back, making its result (if any) readable
    /// in its home cluster, and then completes.
    fn complete(&mut self, idx: u64) {
        let e = *self.at(idx);
        if let Some(dest) = e.dest {
            self.copy_ready(dest, self.cfg.dest_cluster(e.cluster as usize));
        }
        self.at_mut(idx).done = true;
        self.trace_mark(idx, |r, now| r.complete = now);
    }

    // ---------------------------------------------------------- commit --

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.commit_idx == self.dispatch_idx {
                break;
            }
            let idx = self.commit_idx;
            let e = *self.at(idx);
            if !e.done {
                break;
            }
            if e.class == InsnClass::Store {
                if self.store_buf.len() >= self.cfg.store_buffer {
                    self.stats.stalls.store_buf_full += 1;
                    break;
                }
                self.store_buf.push_back(self.rec(idx).mem_addr);
                self.lsq.release_store(idx);
            }
            self.commit_idx += 1;
            self.trace_mark(idx, |r, now| r.commit = now);
            if let Some(prev) = e.prev {
                self.values.free(prev);
            }
            self.last_commit = self.now;
            match e.class {
                InsnClass::Halt => {
                    self.halted = true;
                    return;
                }
                InsnClass::Load => self.stats.committed_loads += 1,
                InsnClass::Store => self.stats.committed_stores += 1,
                InsnClass::Branch => self.stats.committed_branches += 1,
                InsnClass::FpAlu | InsnClass::FpMul | InsnClass::FpDiv => {
                    self.stats.committed_fp += 1
                }
                _ => {}
            }
            self.stats.committed += 1;
        }
    }

    // ---------------------------------------------------------- memory --

    fn memory_stage(&mut self) {
        let ports = self.mem.cfg.dcache_ports;
        let mut started = std::mem::take(&mut self.scratch_loads);
        self.lsq.start_loads_into(self.now, ports, &mut started);
        let mut cache_started = 0u32;
        for s in &started {
            let (complete, _kind) = match s.kind {
                LoadKind::Forward => {
                    self.stats.store_forwards += 1;
                    // 1 cycle forward within the LSQ + 1 cycle back transfer.
                    (1 + self.mem.cfg.dcache_transfer as u64, s.kind)
                }
                LoadKind::Cache => {
                    cache_started += 1;
                    let lat = self.mem.access_data(s.addr) as u64;
                    (lat + self.mem.cfg.dcache_transfer as u64, s.kind)
                }
            };
            self.schedule(complete, Ev::LoadDone { idx: s.idx });
        }
        started.clear();
        self.scratch_loads = started;
        // Committed stores drain with leftover ports.
        let mut ports_left = ports.saturating_sub(cache_started);
        while ports_left > 0 {
            let Some(addr) = self.store_buf.pop_front() else {
                break;
            };
            let _ = self.mem.access_data(addr);
            ports_left -= 1;
        }
    }

    // ----------------------------------------------------------- issue --

    fn issue_all(&mut self) {
        let n = self.cfg.n_clusters;
        // Communications first (rotating cluster priority for bus fairness).
        let start = (self.now as usize) % n;
        // Visit only clusters with a ready comm, in rotated order: bits
        // `start..n` ascending, then `0..start`. Snapshots are safe —
        // issuing in cluster `c` only removes from `c`'s own queues
        // (completions land on the wheel).
        let low = (1u64 << start) - 1; // start < n <= 64
        for part in [self.comm_mask & !low, self.comm_mask & low] {
            let mut m = part;
            while m != 0 {
                let c = m.trailing_zeros() as usize;
                m &= m - 1;
                self.issue_comms(c);
            }
        }
        let mut m = self.ready_mask;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            self.issue_cluster_pipe(c, /* fp: */ false);
            self.issue_cluster_pipe(c, /* fp: */ true);
        }
        self.sample_nready();
    }

    fn issue_comms(&mut self, c: usize) {
        if self.iq_comm[c].ready_count() == 0 {
            return;
        }
        let mut granted = 0usize;
        let max_grants = self.cfg.n_buses;
        // Age-ordered ready comms (scratch-buffered).
        let mut ready = std::mem::take(&mut self.scratch_comm);
        self.iq_comm[c].ready_into(&mut ready);
        let mut removed = std::mem::take(&mut self.scratch_remove);
        for &idx in &ready {
            if granted == max_grants {
                break;
            }
            let op: CommOp = *self.iq_comm[c].get(idx);
            // The fabric owns path selection and arbitration; a denial
            // leaves the comm queued to retry next cycle (Figure 9 waiting).
            if let Some(g) = self
                .fabric
                .try_send(op.from as usize, op.to as usize, self.now)
            {
                self.schedule(
                    g.delay as u64,
                    Ev::CopyReady {
                        value: op.value,
                        cluster: op.to,
                    },
                );
                self.stats.comms_issued += 1;
                self.stats.comm_distance += g.distance as u64;
                // A comm can never issue before it became ready; a violation
                // means the event wheel delivered a wakeup out of order.
                debug_assert!(
                    self.now >= op.ready_cycle,
                    "comm issued at {} before ready_cycle {}",
                    self.now,
                    op.ready_cycle
                );
                self.stats.comm_bus_wait += self.now - op.ready_cycle;
                // The comm has read its source copy.
                let release = self.cfg.copy_release == CopyRelease::OnLastRead;
                self.values.reader_done(op.value, op.from as usize, release);
                removed.push(idx);
                granted += 1;
            }
        }
        // Remove granted comms (descending index order for swap_remove).
        removed.sort_unstable_by(|a, b| b.cmp(a));
        for idx in removed.drain(..) {
            self.iq_comm[c].remove(idx);
        }
        ready.clear();
        self.scratch_comm = ready;
        self.scratch_remove = removed;
        self.refresh_cluster(c);
    }

    fn issue_cluster_pipe(&mut self, c: usize, fp: bool) {
        let width = if fp { self.cfg.iw_fp } else { self.cfg.iw_int };
        let mut budget = width;
        {
            let q = if fp { &self.iq_fp[c] } else { &self.iq_int[c] };
            // Maintained ready count: skip the scan entirely when nothing
            // can issue (the common case in a stalled cluster).
            if q.ready_count() == 0 {
                return;
            }
            let mut ready = std::mem::take(&mut self.scratch_ready);
            q.ready_into(&mut ready);
            self.scratch_ready = ready;
        }
        self.scratch_remove.clear();
        for i in 0..self.scratch_ready.len() {
            if budget == 0 {
                break;
            }
            let slot = self.scratch_ready[i];
            let entry: IqEntry = *if fp {
                self.iq_fp[c].get(slot)
            } else {
                self.iq_int[c].get(slot)
            };
            let Some(latency) = self.fus[c].try_issue(entry.class, self.now) else {
                continue; // FU busy; younger ready entries may still go.
            };
            budget -= 1;
            self.scratch_remove.push(slot);
            let idx = entry.idx;
            self.trace_mark(idx, |r, now| r.issue = now);
            if fp {
                self.stats.issued_fp += 1;
            } else {
                self.stats.issued_int += 1;
            }
            // Operand-read accounting (OnLastRead ablation).
            let release = self.cfg.copy_release == CopyRelease::OnLastRead;
            for r in entry.reads.into_iter().flatten() {
                self.values.reader_done(r, c, release);
            }
            let ev = match entry.class {
                // AGU latency, then the request travels to the LSQ.
                InsnClass::Load => Ev::LoadAddr { idx },
                InsnClass::Store => Ev::StoreReady { idx },
                _ => Ev::RobDone { idx },
            };
            self.schedule(latency as u64, ev);
        }
        let mut removals = std::mem::take(&mut self.scratch_remove);
        if fp {
            self.iq_fp[c].remove_many(&mut removals);
        } else {
            self.iq_int[c].remove_many(&mut removals);
        }
        self.scratch_remove = removals;
        self.refresh_cluster(c);
    }

    /// NREADY (§4.5): ready instructions left unissued whose work idle
    /// capacity elsewhere could absorb, summed per functional-unit kind.
    fn sample_nready(&mut self) {
        let kinds = [
            FuKind::IntAlu,
            FuKind::IntMulDiv,
            FuKind::FpAlu,
            FuKind::FpMulDiv,
        ];
        let mut leftover = [0usize; 4];
        // Leftovers can only come from clusters with ready entries.
        let mut m = self.ready_mask;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            self.iq_int[c].ready_by_fu(&mut leftover);
            self.iq_fp[c].ready_by_fu(&mut leftover);
        }
        // Each kind adds min(leftover, idle units), so its idle-unit scan
        // stops once the units found cover the leftovers (at once for none).
        for (k, kind) in kinds.into_iter().enumerate() {
            let mut idle = 0;
            for fus in &self.fus {
                if idle >= leftover[k] {
                    break;
                }
                idle += fus.idle(kind, self.now);
            }
            self.stats.nready += leftover[k].min(idle) as u64;
        }
    }

    // -------------------------------------------------------- dispatch --

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.fetch_width {
            let idx = self.dispatch_idx;
            if idx == self.fetch_idx || self.at(idx).avail > self.now {
                break;
            }
            if !self.try_dispatch_one(idx) {
                break; // in-order dispatch: first stall blocks the rest
            }
            self.dispatch_idx += 1;
        }
    }

    /// Attempt to dispatch instruction `idx`, the fetch-queue head; false =
    /// stall (nothing allocated).
    fn try_dispatch_one(&mut self, idx: u64) -> bool {
        let insn = self.static_of(idx).insn;
        let class = insn.class();

        if !self.rob_has_space() {
            self.stats.stalls.rob_full += 1;
            return false;
        }

        // Nops and halt skip steering entirely.
        if matches!(class, InsnClass::Nop | InsnClass::Halt) {
            *self.at_mut(idx) = InFlight {
                dest: None,
                prev: None,
                class,
                done: true,
                cluster: 0,
                ..*self.at(idx)
            };
            self.trace_mark(idx, |r, now| {
                r.dispatch = now;
                r.complete = now;
            });
            return true;
        }

        // Live sources are captured BEFORE the destination rename
        // overwrites the map.
        let srcs = self.live_sources(insn);
        let steered = self.steer(srcs, self.rr);
        if steering::rotates(self.cfg.steering, srcs.iter().flatten().count()) {
            self.rr = (self.rr + 1) % self.cfg.n_clusters;
        }
        let dest = insn.dest();

        // ---- resource checks (all-or-nothing) ----
        if let Some(kind) = self.dispatch_stall_reason(class, dest, &steered) {
            self.bump_stall(kind, 1);
            return false;
        }
        let c = steered.cluster;
        let comms = steered.comms.as_slice();
        let dest_cluster = self.cfg.dest_cluster(c);

        // ---- allocate ----
        // Communications: allocate the consumer-side copy + the comm op.
        for cm in comms {
            self.values.add_copy(cm.value, c);
            // The comm is a reader of the source copy.
            self.values.add_reader(cm.value, cm.from as usize);
            let ready = self.values.state(cm.value, cm.from as usize) == CopyState::Ready;
            self.iq_comm[cm.from as usize].push(CommOp {
                idx,
                value: cm.value,
                from: cm.from,
                to: c as u8,
                ready,
                ready_cycle: self.now,
            });
            self.refresh_cluster(cm.from as usize);
            self.stats.comms_created += 1;
        }

        // Destination rename.
        let (dest_v, prev_v) = match dest {
            Some(dr) => {
                let new_v = self.values.alloc(dest_cluster, dr.is_fp());
                let prev = self.rename[dr.unified()];
                self.rename[dr.unified()] = new_v;
                (Some(new_v), Some(prev))
            }
            None => (None, None),
        };

        if class.is_mem() {
            self.lsq.alloc(class == InsnClass::Store, idx);
        }
        *self.at_mut(idx) = InFlight {
            dest: dest_v,
            prev: prev_v,
            class,
            done: false,
            cluster: c as u8,
            ..*self.at(idx)
        };

        // Issue-queue entry: wait on sources without a Ready copy in c.
        let mut waits: [Option<ValueId>; 2] = [None, None];
        let mut reads: [Option<ValueId>; 2] = [None, None];
        for (slot, v) in srcs.into_iter().enumerate() {
            let Some(v) = v else { continue };
            reads[slot] = Some(v);
            self.values.add_reader(v, c);
            if self.values.state(v, c) != CopyState::Ready {
                waits[slot] = Some(v);
            }
        }
        let entry = IqEntry {
            idx,
            class,
            waits,
            reads,
        };
        if class.is_int_pipe() {
            self.iq_int[c].push(entry);
        } else {
            self.iq_fp[c].push(entry);
        }
        self.refresh_cluster(c);

        self.stats.dispatched_per_cluster[c] += 1;
        let n_comms = comms.len() as u8;
        self.trace_mark(idx, |r, now| {
            r.dispatch = now;
            r.cluster = c as u8;
            r.comms = n_comms;
        });
        true
    }

    /// The live source value of each operand slot of `insn` (architectural
    /// `r0` excluded), as the rename map has them now.
    fn live_sources(&self, insn: Insn) -> [Option<ValueId>; 2] {
        insn.sources()
            .map(|r| r.filter(|r| !r.is_zero()).map(|r| self.rename[r.unified()]))
    }

    /// Where steering would place an instruction with live sources `srcs`
    /// against the current machine state at tie-break `phase`. Inline
    /// buffers: dispatch runs up to `fetch_width` times per cycle and must
    /// not allocate.
    fn steer(&self, srcs: [Option<ValueId>; 2], phase: usize) -> Steered {
        let mut packed = [0; 2];
        let mut n = 0;
        for v in srcs.into_iter().flatten() {
            packed[n] = v;
            n += 1;
        }
        let ctx = SteerCtx {
            cfg: &self.cfg,
            dist: &self.dist,
            values: &self.values,
            iq_int: &self.iq_int,
            iq_fp: &self.iq_fp,
            srcs: &packed[..n],
        };
        steering::steer(self.cfg.steering, phase, &ctx)
    }

    /// Would dispatching `class`/`dest` into `steered` stall, and on what?
    /// Pure: the single source of truth for the dispatch resource checks,
    /// used both by `try_dispatch_one` and by the idle-skip probe (which
    /// must predict stall charges without mutating anything).
    fn dispatch_stall_reason(
        &self,
        class: InsnClass,
        dest: Option<Reg>,
        steered: &Steered,
    ) -> Option<StallKind> {
        let c = steered.cluster;
        let comms = steered.comms.as_slice();
        let dest_cluster = self.cfg.dest_cluster(c);
        let q_space = if class.is_int_pipe() {
            self.iq_int[c].has_space()
        } else {
            self.iq_fp[c].has_space()
        };
        if !q_space {
            return Some(StallKind::Iq);
        }
        if class.is_mem() && !self.lsq.has_space() {
            return Some(StallKind::Lsq);
        }
        // Register demand: destination in dest_cluster, copies in c.
        let mut need_int = [0i32; 2]; // [dest_cluster demand, c demand]
        let mut need_fp = [0i32; 2];
        if let Some(dr) = dest {
            if dr.is_fp() {
                need_fp[0] += 1;
            } else {
                need_int[0] += 1;
            }
        }
        for cm in comms {
            if self.values.is_fp(cm.value) {
                need_fp[1] += 1;
            } else {
                need_int[1] += 1;
            }
        }
        let (int_ok, fp_ok) = if dest_cluster == c {
            (
                self.values.free_regs(c, false) >= need_int[0] + need_int[1],
                self.values.free_regs(c, true) >= need_fp[0] + need_fp[1],
            )
        } else {
            (
                self.values.free_regs(dest_cluster, false) >= need_int[0]
                    && self.values.free_regs(c, false) >= need_int[1],
                self.values.free_regs(dest_cluster, true) >= need_fp[0]
                    && self.values.free_regs(c, true) >= need_fp[1],
            )
        };
        if !int_ok || !fp_ok {
            return Some(StallKind::Regs);
        }
        // Communication queue space at each source cluster (two comms may
        // share a source cluster, so count cumulatively).
        for (i, cm) in comms.iter().enumerate() {
            let needed_here = comms[..=i].iter().filter(|x| x.from == cm.from).count();
            if !self.iq_comm[cm.from as usize].has_space_for(needed_here) {
                return Some(StallKind::Comm);
            }
        }
        None
    }

    fn bump_stall(&mut self, kind: StallKind, times: u64) {
        match kind {
            StallKind::Iq => self.stats.stalls.iq_full += times,
            StallKind::Lsq => self.stats.stalls.lsq_full += times,
            StallKind::Regs => self.stats.stalls.regs_full += times,
            StallKind::Comm => self.stats.stalls.comm_full += times,
        }
    }

    // ------------------------------------------------- event-driven skip --

    /// Advance `now` directly to the next cycle with work, replicating the
    /// (empty) per-cycle effects of every skipped cycle so counters stay
    /// bit-identical to a cycle-stepped run.
    ///
    /// Skipping is purely an optimization: every cycle actually simulated is
    /// ticked exactly as before, so any bail-out here is safe, and every
    /// wake bound may be conservative (early) but never late. A cycle with
    /// no fired events, no committable head, no startable or in-transit
    /// load, no ready instruction or communication, no fetch progress, and
    /// a dispatch stage that only re-charges the same stall is dead: the
    /// only state that moves is the stall counters and the steering
    /// tie-break's phase, which moves on by the skipped cycles modulo the
    /// retry period. The fabric keeps no clock (its reservations are booked
    /// by absolute cycle), so it has nothing to replay. The wake bound is the
    /// earliest of the next wheel event, the fetch-resume or decode timer,
    /// the first dispatch-retry success, and the watchdog.
    fn fast_forward_idle(&mut self) {
        // Anything able to act on the upcoming cycle disqualifies the skip.
        // A due wheel bucket is the most common reason, so it goes first;
        // every check below is a pure read, so the order changes nothing.
        if self.wheel.due(self.now) {
            return;
        }
        if self.commit_idx < self.dispatch_idx && self.at(self.commit_idx).done {
            return;
        }
        if !self.store_buf.is_empty() {
            return;
        }
        // A waiting communication retries the fabric every cycle; skipping
        // over its denials pays too rarely to model.
        if self.ready_mask | self.comm_mask != 0 {
            return;
        }
        if self.lsq.would_start_any(self.mem.cfg.dcache_ports) {
            return;
        }
        let can_fetch = self.fetch_stalled_on.is_none()
            && self.fetch_idx < self.pulled
            && self.fetch_queue_has_space();
        if can_fetch && self.fetch_resume <= self.now {
            return;
        }

        // Quiescent. Every future state change is a wheel event, a
        // decode/fetch timer expiring, or a dispatch retry replayable against
        // frozen state. The watchdog caps the skip so it still fires on the
        // exact cycle a stepped run would panic on.
        let mut wake = self.last_commit + self.cfg.watchdog_cycles - 1;

        // The bucket due now is empty (checked first), so the offset is
        // at least one.
        if let Some(d) = self.wheel.next_due_offset(self.now) {
            wake = wake.min(self.now + d);
        }

        if can_fetch {
            // fetch_resume > now was established above.
            wake = wake.min(self.fetch_resume);
        }

        // Dispatch: if a decoded instruction waits at the queue head, probe
        // steering over one full retry period of the frozen state. Skipped
        // cycle `now + j` replays probe slot `j % period`.
        let mut probe = DispatchIdle::NoAttempt;
        if self.dispatch_idx < self.fetch_idx {
            let avail = self.at(self.dispatch_idx).avail;
            if avail > self.now {
                wake = wake.min(avail);
            } else {
                probe = self.probe_dispatch(self.dispatch_idx);
                match &probe {
                    DispatchIdle::Dispatches => return,
                    DispatchIdle::Stalled { outcomes, period } => {
                        if let Some(j) = outcomes[..*period].iter().position(|o| o.is_none()) {
                            if j == 0 {
                                return; // dispatches on the upcoming cycle
                            }
                            wake = wake.min(self.now + j as u64);
                        }
                    }
                    DispatchIdle::RobFull | DispatchIdle::NoAttempt => {}
                }
            }
        }

        if wake <= self.now {
            return;
        }
        let skipped = wake - self.now;

        // Replicate the per-cycle effects of the skipped dead cycles. In a
        // quiet region only dispatch-stall counters and the steering
        // tie-break rotation can move; everything else is frozen.
        match probe {
            DispatchIdle::RobFull => self.stats.stalls.rob_full += skipped,
            DispatchIdle::Stalled { outcomes, period } => {
                let full = skipped / period as u64;
                let rem = (skipped % period as u64) as usize;
                for (j, o) in outcomes[..period].iter().enumerate() {
                    let times = full + u64::from(j < rem);
                    if times > 0 {
                        let kind = o.expect("skip extends past a dispatch success");
                        self.bump_stall(kind, times);
                    }
                }
                self.rr = (self.rr + rem) % self.cfg.n_clusters;
            }
            _ => {}
        }
        self.stats.cycles += skipped;
        self.skipped_cycles += skipped;
        self.now = wake;
    }

    /// Probe what the dispatch stage would do with the fetch-queue head
    /// `idx` over one retry period: the steer of skipped cycle `now + j`
    /// sees phase `rr + j`, and its period is `n_clusters` when it
    /// [`steering::rotates`], else 1. Mutates nothing.
    fn probe_dispatch(&self, idx: u64) -> DispatchIdle {
        if !self.rob_has_space() {
            return DispatchIdle::RobFull;
        }
        let insn = self.static_of(idx).insn;
        let class = insn.class();
        if matches!(class, InsnClass::Nop | InsnClass::Halt) {
            return DispatchIdle::Dispatches;
        }
        let srcs = self.live_sources(insn);
        let n = self.cfg.n_clusters;
        let rotates = steering::rotates(self.cfg.steering, srcs.iter().flatten().count());
        let period = if rotates { n } else { 1 };
        let dest = insn.dest();
        let mut outcomes: [Option<StallKind>; MAX_CLUSTERS] = [None; MAX_CLUSTERS];
        for (j, slot) in outcomes.iter_mut().take(period).enumerate() {
            let steered = self.steer(srcs, (self.rr + j) % n);
            *slot = self.dispatch_stall_reason(class, dest, &steered);
        }
        DispatchIdle::Stalled { outcomes, period }
    }

    // ----------------------------------------------------------- fetch --

    fn fetch(&mut self) {
        if self.fetch_stalled_on.is_some() || self.now < self.fetch_resume {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_idx >= self.pulled {
                return;
            }
            if !self.fetch_queue_has_space() {
                return;
            }
            let ti = self.fetch_idx;
            let d = self.rec(ti).logical(self.source.statics());
            // Instruction cache: one access per new `l1i.line`-byte line
            // (a power of two, which the cache asserts).
            let addr = d.pc as u64 * rcmc_isa::INSN_BYTES;
            let line = addr >> self.mem.cfg.l1i.line.trailing_zeros();
            if line != self.last_fetch_line {
                let lat = self.mem.access_inst(addr);
                self.last_fetch_line = line;
                if lat > self.mem.cfg.l1i.latency {
                    // Miss: stall; the line is now filled, we resume later.
                    self.fetch_resume = self.now + lat as u64 - 1;
                    return;
                }
            }
            // Predict and train control flow.
            let insn = d.insn;
            let is_cond = insn.op.is_cond_branch();
            let taken = d.taken();
            let correct = self.fe.predict_and_train(d.pc, &insn, taken, d.next_pc);
            if is_cond {
                self.stats.branches_seen += 1;
            }
            if !correct {
                self.stats.branch_misses += 1;
            }
            self.fetch_idx += 1;
            self.at_mut(ti).avail = self.now + self.cfg.frontend_depth as u64 - 1;
            self.trace_mark(ti, |r, now| r.fetch = now.max(1));
            if self.fetch_idx == self.pulled {
                self.refill();
            }
            if insn.op == Opcode::Halt {
                return; // nothing beyond halt
            }
            if !correct {
                self.fetch_stalled_on = Some(ti);
                return;
            }
            // One taken control transfer per cycle.
            if insn.op.is_control() && taken {
                return;
            }
        }
    }
}
