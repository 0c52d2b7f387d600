//! Branch prediction: 2-bit bimodal, gshare, hybrid with selector, BTB, RAS.
//!
//! Table 2: "Hybrid 2K Gshare, 2K bimodal, 1K selector; BTB: 2048 entries,
//! 4-way". Because the timing model is stall-on-mispredict (no wrong path),
//! predictor state is updated with the true outcome as soon as the branch is
//! fetched; this is the standard trace-driven discipline and is identical for
//! both architectures under comparison.

use rcmc_isa::{Insn, Opcode, Reg};

/// 2-bit saturating counter helpers.
#[inline]
fn counter_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

/// Classic bimodal predictor: a table of 2-bit counters indexed by pc.
pub struct Bimodal {
    table: Vec<u8>,
    mask: usize,
}

impl Bimodal {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        Bimodal {
            table: vec![1; entries],
            mask: entries - 1,
        }
    }

    #[inline]
    fn idx(&self, pc: u32) -> usize {
        pc as usize & self.mask
    }

    /// Predicted direction for the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u32) -> bool {
        counter_taken(self.table[self.idx(pc)])
    }

    /// Train with the actual outcome.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool) {
        let i = self.idx(pc);
        self.table[i] = counter_update(self.table[i], taken);
    }
}

/// Gshare: 2-bit counters indexed by pc XOR global history.
pub struct Gshare {
    table: Vec<u8>,
    mask: usize,
    hist: u32,
    hist_mask: u32,
}

impl Gshare {
    /// `entries` must be a power of two; history length = log2(entries).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        let bits = entries.trailing_zeros();
        Gshare {
            table: vec![1; entries],
            mask: entries - 1,
            hist: 0,
            hist_mask: (1 << bits) - 1,
        }
    }

    #[inline]
    fn idx(&self, pc: u32) -> usize {
        ((pc ^ self.hist) as usize) & self.mask
    }

    /// Predicted direction for the branch at `pc` under current history.
    #[inline]
    pub fn predict(&self, pc: u32) -> bool {
        counter_taken(self.table[self.idx(pc)])
    }

    /// Train with the actual outcome and shift it into the history.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool) {
        let i = self.idx(pc);
        self.table[i] = counter_update(self.table[i], taken);
        self.hist = ((self.hist << 1) | taken as u32) & self.hist_mask;
    }

    /// Current global history (for tests).
    pub fn history(&self) -> u32 {
        self.hist
    }
}

/// Hybrid predictor: gshare + bimodal + 2-bit chooser table.
pub struct HybridPredictor {
    gshare: Gshare,
    bimodal: Bimodal,
    selector: Vec<u8>,
    sel_mask: usize,
}

/// Sizing for [`HybridPredictor`] and [`Btb`].
#[derive(Clone, Copy, Debug)]
pub struct PredictorConfig {
    /// Gshare table entries.
    pub gshare_entries: usize,
    /// Bimodal table entries.
    pub bimodal_entries: usize,
    /// Selector table entries.
    pub selector_entries: usize,
    /// BTB total entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address stack depth.
    pub ras_depth: usize,
}

impl Default for PredictorConfig {
    /// Table 2 sizing.
    fn default() -> Self {
        PredictorConfig {
            gshare_entries: 2048,
            bimodal_entries: 2048,
            selector_entries: 1024,
            btb_entries: 2048,
            btb_ways: 4,
            ras_depth: 16,
        }
    }
}

impl HybridPredictor {
    /// Build from a config (see [`PredictorConfig::default`]).
    pub fn new(cfg: &PredictorConfig) -> Self {
        assert!(cfg.selector_entries.is_power_of_two());
        HybridPredictor {
            gshare: Gshare::new(cfg.gshare_entries),
            bimodal: Bimodal::new(cfg.bimodal_entries),
            selector: vec![2; cfg.selector_entries], // weakly prefer gshare
            sel_mask: cfg.selector_entries - 1,
        }
    }

    /// Predicted direction.
    pub fn predict(&self, pc: u32) -> bool {
        let use_gshare = counter_taken(self.selector[pc as usize & self.sel_mask]);
        if use_gshare {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Train all components; the selector moves toward whichever component
    /// was right (no move if both agree).
    pub fn update(&mut self, pc: u32, taken: bool) {
        let g = self.gshare.predict(pc);
        let b = self.bimodal.predict(pc);
        let i = pc as usize & self.sel_mask;
        if g != b {
            self.selector[i] = counter_update(self.selector[i], g == taken);
        }
        self.gshare.update(pc, taken);
        self.bimodal.update(pc, taken);
    }
}

/// Branch target buffer: set-associative, LRU, tagged by pc.
pub struct Btb {
    sets: usize,
    ways: usize,
    /// tag per (set, way); `u32::MAX` = invalid.
    tags: Vec<u32>,
    targets: Vec<u32>,
    /// LRU stamps.
    stamp: Vec<u64>,
    tick: u64,
}

impl Btb {
    /// `entries` total entries across `ways` ways; `entries/ways` must be a
    /// power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        let sets = entries / ways;
        assert!(sets.is_power_of_two() && sets > 0);
        Btb {
            sets,
            ways,
            tags: vec![u32::MAX; entries],
            targets: vec![0; entries],
            stamp: vec![0; entries],
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, pc: u32) -> usize {
        (pc as usize) & (self.sets - 1)
    }

    /// Look up the predicted target for the control instruction at `pc`.
    pub fn lookup(&mut self, pc: u32) -> Option<u32> {
        let s = self.set_of(pc);
        self.tick += 1;
        for w in 0..self.ways {
            let i = s * self.ways + w;
            if self.tags[i] == pc {
                self.stamp[i] = self.tick;
                return Some(self.targets[i]);
            }
        }
        None
    }

    /// Install/refresh the target for `pc` (LRU victim selection).
    pub fn update(&mut self, pc: u32, target: u32) {
        let s = self.set_of(pc);
        self.tick += 1;
        let mut victim = s * self.ways;
        for w in 0..self.ways {
            let i = s * self.ways + w;
            if self.tags[i] == pc {
                self.targets[i] = target;
                self.stamp[i] = self.tick;
                return;
            }
            if self.stamp[i] < self.stamp[victim] {
                victim = i;
            }
        }
        self.tags[victim] = pc;
        self.targets[victim] = target;
        self.stamp[victim] = self.tick;
    }
}

/// Return address stack. Overflow wraps (oldest entry lost), underflow
/// predicts "no idea" (None).
pub struct Ras {
    stack: Vec<u32>,
    depth: usize,
}

impl Ras {
    /// Stack with the given depth.
    pub fn new(depth: usize) -> Self {
        Ras {
            stack: Vec::with_capacity(depth),
            depth,
        }
    }

    /// Push a return address (on calls).
    pub fn push(&mut self, addr: u32) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pop the predicted return address (on returns).
    pub fn pop(&mut self) -> Option<u32> {
        self.stack.pop()
    }
}

/// Complete front-end prediction: direction + target for any control
/// instruction, with the call/return convention from `rcmc-asm`
/// (`jal r31` = call, `jalr _, r31` = return).
pub struct FrontEndPredictor {
    hybrid: HybridPredictor,
    btb: Btb,
    ras: Ras,
    /// Statistics: conditional branches seen / mispredicted.
    pub cond_seen: u64,
    /// Mispredicted conditional branches.
    pub cond_miss: u64,
    /// Indirect jumps seen / mispredicted.
    pub ind_seen: u64,
    /// Mispredicted indirect jumps.
    pub ind_miss: u64,
}

impl FrontEndPredictor {
    /// Build from config.
    pub fn new(cfg: &PredictorConfig) -> Self {
        FrontEndPredictor {
            hybrid: HybridPredictor::new(cfg),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: Ras::new(cfg.ras_depth),
            cond_seen: 0,
            cond_miss: 0,
            ind_seen: 0,
            ind_miss: 0,
        }
    }

    /// Predict the control instruction at `pc`, train with the actual
    /// `(taken, next_pc)` outcome, and return whether the prediction was
    /// **correct** (direction and target).
    ///
    /// Non-control instructions always return true.
    pub fn predict_and_train(&mut self, pc: u32, insn: &Insn, taken: bool, next_pc: u32) -> bool {
        match insn.op {
            op if op.is_cond_branch() => {
                self.cond_seen += 1;
                let pred = self.hybrid.predict(pc);
                self.hybrid.update(pc, taken);
                // Direct targets are computed at decode; only direction can
                // mispredict.
                let correct = pred == taken;
                if !correct {
                    self.cond_miss += 1;
                }
                correct
            }
            Opcode::Jal => {
                // Direct target, always correct; push RAS on calls.
                if insn.rd == Some(Reg::Int(31)) {
                    self.ras.push(pc + 1);
                }
                true
            }
            Opcode::Jalr => {
                self.ind_seen += 1;
                let is_return = insn.rs1 == Some(Reg::Int(31));
                let pred = if is_return {
                    self.ras.pop()
                } else {
                    self.btb.lookup(pc)
                };
                if insn.rd == Some(Reg::Int(31)) {
                    self.ras.push(pc + 1);
                }
                self.btb.update(pc, next_pc);
                let correct = pred == Some(next_pc);
                if !correct {
                    self.ind_miss += 1;
                }
                correct
            }
            _ => true,
        }
    }

    /// Misses per 1000 control-flow predictions (for reports).
    pub fn miss_rate(&self) -> f64 {
        let seen = self.cond_seen + self.ind_seen;
        if seen == 0 {
            0.0
        } else {
            (self.cond_miss + self.ind_miss) as f64 / seen as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcmc_isa::Insn;
    use rcmc_isa::Opcode;

    /// Gshare as its definition reads: one 2-bit counter per entry, the
    /// counter of a branch at `pc` is entry `(pc XOR history) mod entries`,
    /// and the branch trains that counter, the one its prediction read,
    /// before its outcome enters the history (the newest outcome in bit
    /// 0, the history as long as log2(entries) bits).
    struct RefGshare {
        counters: Vec<u8>,
        history: u64,
    }

    impl RefGshare {
        fn entry(&self, pc: u32) -> usize {
            ((pc as u64 ^ self.history) % self.counters.len() as u64) as usize
        }

        fn predict(&self, pc: u32) -> bool {
            self.counters[self.entry(pc)] >= 2
        }

        fn update(&mut self, pc: u32, taken: bool) {
            let e = self.entry(pc);
            let c = self.counters[e];
            self.counters[e] = if taken { (c + 1).min(3) } else { c.max(1) - 1 };
            self.history = (self.history * 2 + taken as u64) % self.counters.len() as u64;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Random branch streams (a few pcs, so entries are shared and
        /// retrained, over every table size from 2 to 4096 entries): the
        /// predictor predicts every branch as the reference does and ends
        /// with the same history.
        #[test]
        fn gshare_matches_its_reference_model(
            log2_entries in 1u32..=12,
            branches in prop::collection::vec((0u32..24, any::<bool>()), 1..600),
        ) {
            let entries = 1usize << log2_entries;
            let mut g = Gshare::new(entries);
            let mut oracle = RefGshare { counters: vec![1; entries], history: 0 };
            for (k, &(pc, taken)) in branches.iter().enumerate() {
                prop_assert_eq!(g.predict(pc), oracle.predict(pc), "branch {}", k);
                g.update(pc, taken);
                oracle.update(pc, taken);
            }
            prop_assert_eq!(g.history() as u64, oracle.history);
        }
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut b = Bimodal::new(64);
        for _ in 0..4 {
            b.update(10, true);
        }
        assert!(b.predict(10));
        for _ in 0..4 {
            b.update(10, false);
        }
        assert!(!b.predict(10));
    }

    #[test]
    fn bimodal_saturates() {
        let mut b = Bimodal::new(64);
        for _ in 0..100 {
            b.update(5, true);
        }
        // two not-taken must be needed to flip after saturation
        b.update(5, false);
        assert!(b.predict(5));
        b.update(5, false);
        assert!(!b.predict(5));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // A strict T/N/T/N pattern defeats bimodal but gshare keys on history.
        let mut g = Gshare::new(256);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400u32 {
            let taken = i % 2 == 0;
            let pred = g.predict(77);
            if i >= 200 {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            g.update(77, taken);
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "gshare accuracy {correct}/{total}"
        );
    }

    #[test]
    fn bimodal_fails_alternating_pattern() {
        let mut b = Bimodal::new(256);
        let mut correct = 0;
        for i in 0..400u32 {
            let taken = i % 2 == 0;
            if b.predict(77) == taken && i >= 200 {
                correct += 1;
            }
            b.update(77, taken);
        }
        assert!(
            correct <= 110,
            "bimodal should not learn alternation: {correct}"
        );
    }

    #[test]
    fn hybrid_tracks_best_component() {
        let cfg = PredictorConfig::default();
        let mut h = HybridPredictor::new(&cfg);
        // Alternating pattern: hybrid should converge to gshare's accuracy.
        let mut correct = 0;
        let mut total = 0;
        for i in 0..600u32 {
            let taken = i % 2 == 0;
            let pred = h.predict(99);
            if i >= 300 {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            h.update(99, taken);
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "hybrid accuracy {correct}/{total}"
        );
    }

    #[test]
    fn gshare_history_shifts() {
        let mut g = Gshare::new(16);
        g.update(0, true);
        g.update(0, false);
        g.update(0, true);
        assert_eq!(g.history() & 0b111, 0b101);
    }

    #[test]
    fn btb_hits_after_install() {
        let mut btb = Btb::new(64, 4);
        assert_eq!(btb.lookup(100), None);
        btb.update(100, 7);
        assert_eq!(btb.lookup(100), Some(7));
        btb.update(100, 9);
        assert_eq!(btb.lookup(100), Some(9));
    }

    #[test]
    fn btb_lru_eviction() {
        let mut btb = Btb::new(8, 4); // 2 sets, 4 ways

        // Fill set 0 (pcs ≡ 0 mod 2) with 4 entries, then add a 5th.
        for pc in [0u32, 2, 4, 6] {
            btb.update(pc, pc + 1);
        }
        // Touch 0,2,4 so 6 is LRU.
        btb.lookup(0);
        btb.lookup(2);
        btb.lookup(4);
        btb.update(8, 99);
        assert_eq!(btb.lookup(8), Some(99));
        assert_eq!(btb.lookup(6), None, "LRU way should have been evicted");
        assert_eq!(btb.lookup(0), Some(1));
    }

    #[test]
    fn ras_predicts_nested_returns() {
        let mut ras = Ras::new(4);
        ras.push(10);
        ras.push(20);
        assert_eq!(ras.pop(), Some(20));
        assert_eq!(ras.pop(), Some(10));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = Ras::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn frontend_calls_and_returns() {
        let cfg = PredictorConfig::default();
        let mut fe = FrontEndPredictor::new(&cfg);
        let r = |n| Some(Reg::int(n));
        let call = Insn::new(Opcode::Jal, r(31), None, None, 10);
        let ret = Insn::new(Opcode::Jalr, r(0), r(31), None, 0);
        // call at pc 5 -> target 16; return from pc 16 back to 6.
        assert!(fe.predict_and_train(5, &call, true, 16));
        assert!(
            fe.predict_and_train(16, &ret, true, 6),
            "RAS should predict the return"
        );
        // A return with an empty RAS (and cold BTB) mispredicts.
        assert!(!fe.predict_and_train(30, &ret, true, 77));
        assert_eq!(fe.ind_miss, 1);
    }

    #[test]
    fn frontend_counts_cond_misses() {
        let cfg = PredictorConfig::default();
        let mut fe = FrontEndPredictor::new(&cfg);
        let r = |n| Some(Reg::int(n));
        let br = Insn::new(Opcode::Beq, None, r(1), r(2), 5);
        // Loop branch taken 50 times: predictor warms up quickly.
        let mut misses = 0;
        for _ in 0..50 {
            if !fe.predict_and_train(40, &br, true, 46) {
                misses += 1;
            }
        }
        assert!(
            misses <= 2,
            "warm loop branch should be predictable, misses={misses}"
        );
        assert_eq!(fe.cond_seen, 50);
    }
}
