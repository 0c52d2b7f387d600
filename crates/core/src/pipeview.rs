//! Per-instruction pipeline tracing and text timeline rendering.
//!
//! Attach a [`PipeTracer`] to a [`crate::Core`] with
//! [`crate::Core::attach_tracer`] to record, for a window of the dynamic
//! instruction stream, when each instruction was fetched, dispatched (and to
//! which cluster), issued, completed and committed — plus how many
//! communications its operands required. [`PipeTracer::render`] draws a
//! text timeline (one row per instruction), which makes the ring's
//! chain-marching behaviour directly visible:
//!
//! ```text
//!     pc insn                 clu  F..D..I...C...R
//!      4 addi r1, r1, 1        3   F  D I C    R
//!      5 addi r1, r1, 1        4   F  D  I C   R     <- next cluster, b2b
//! ```

use std::fmt::Write as _;

use rcmc_emu::Trace;

/// One traced instruction's lifecycle (cycle numbers; 0 = not reached).
#[derive(Clone, Copy, Debug, Default)]
pub struct InsnRecord {
    /// Cycle fetched into the fetch queue.
    pub fetch: u64,
    /// Cycle dispatched (steered + allocated).
    pub dispatch: u64,
    /// Cycle issued to a functional unit.
    pub issue: u64,
    /// Cycle completed (result ready / commit-eligible).
    pub complete: u64,
    /// Cycle committed.
    pub commit: u64,
    /// Execution cluster.
    pub cluster: u8,
    /// Communications created for this instruction's operands.
    pub comms: u8,
}

/// Records lifecycle events for dynamic instructions in `[from, to)`.
pub struct PipeTracer {
    from: u32,
    to: u32,
    records: Vec<InsnRecord>,
}

impl PipeTracer {
    /// Trace the dynamic-instruction index window `[from, to)`.
    pub fn new(from: u32, to: u32) -> Self {
        assert!(to > from, "empty trace window");
        PipeTracer {
            from,
            to,
            records: vec![InsnRecord::default(); (to - from) as usize],
        }
    }

    /// The traced window.
    pub fn window(&self) -> (u32, u32) {
        (self.from, self.to)
    }

    /// Record accessor (None outside the window).
    pub fn get(&self, trace_idx: u32) -> Option<&InsnRecord> {
        if trace_idx >= self.from && trace_idx < self.to {
            Some(&self.records[(trace_idx - self.from) as usize])
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn rec(&mut self, trace_idx: u64) -> Option<&mut InsnRecord> {
        let i = trace_idx.checked_sub(self.from.into())? as usize;
        self.records.get_mut(i)
    }

    /// Render a text timeline for the window over the given oracle trace.
    ///
    /// Stage letters: `F`etch, `D`ispatch, `I`ssue, `C`omplete, `R`etire.
    /// The time axis is clipped to `max_width` columns.
    pub fn render(&self, trace: &Trace, max_width: usize) -> String {
        let base = self
            .records
            .iter()
            .filter(|r| r.fetch > 0)
            .map(|r| r.fetch)
            .min()
            .unwrap_or(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:28} {:>3} {:>5}  timeline (cycle {base}+)",
            "idx", "instruction", "clu", "comms"
        );
        for (i, r) in self.records.iter().enumerate() {
            let idx = self.from as usize + i;
            let Some(d) = trace.get(idx) else { break };
            if r.fetch == 0 {
                continue; // never fetched (past the run's end)
            }
            let mut lane = vec![b' '; max_width];
            let mut mark = |cycle: u64, ch: u8| {
                if cycle >= base {
                    let col = (cycle - base) as usize;
                    if col < max_width {
                        // Later stages overwrite earlier marks on collisions.
                        lane[col] = ch;
                    }
                }
            };
            mark(r.fetch, b'F');
            mark(r.dispatch, b'D');
            mark(r.issue, b'I');
            mark(r.complete, b'C');
            mark(r.commit, b'R');
            let lane = String::from_utf8(lane).unwrap();
            let _ = writeln!(
                out,
                "{:>6} {:28} {:>3} {:>5}  {}",
                idx,
                d.insn.to_string(),
                r.cluster,
                r.comms,
                lane.trim_end()
            );
        }
        out
    }

    /// Summary statistics over the traced window (for tests/reports):
    /// `(mean dispatch→issue wait, mean issue→complete latency)`.
    pub fn latency_summary(&self) -> (f64, f64) {
        let mut wait = 0u64;
        let mut lat = 0u64;
        let mut n = 0u64;
        for r in &self.records {
            if r.issue > 0 && r.complete > 0 {
                wait += r.issue - r.dispatch;
                lat += r.complete - r.issue;
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (wait as f64 / n as f64, lat as f64 / n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::pipeline::Core;
    use rcmc_asm::Asm;
    use rcmc_emu::trace_program;
    use rcmc_isa::Reg;
    use rcmc_uarch::{MemConfig, PredictorConfig};

    fn chain_trace() -> Trace {
        let mut a = Asm::new();
        let r = Reg::int;
        a.movi(r(1), 0);
        a.movi(r(9), 50);
        let top = a.label_here();
        for _ in 0..8 {
            a.addi(r(1), r(1), 1);
        }
        a.addi(r(9), r(9), -1);
        a.bne(r(9), r(0), top);
        a.halt();
        trace_program(&a.assemble().unwrap(), 4096).unwrap()
    }

    #[test]
    fn records_full_lifecycle_in_order() {
        let trace = chain_trace();
        let mut core = Core::new(
            CoreConfig::default(),
            MemConfig::default(),
            PredictorConfig::default(),
            &trace,
        );
        core.attach_tracer(PipeTracer::new(100, 140));
        core.run(u64::MAX);
        let tracer = core.take_tracer().unwrap();
        let mut seen = 0;
        for idx in 100..140 {
            let r = tracer.get(idx).unwrap();
            assert!(r.fetch > 0, "idx {idx} not fetched");
            assert!(r.fetch <= r.dispatch, "fetch after dispatch at {idx}");
            assert!(
                r.dispatch < r.issue || r.issue == 0,
                "dispatch/issue order at {idx}"
            );
            if r.issue > 0 {
                assert!(r.issue < r.complete, "issue/complete order at {idx}");
            }
            assert!(r.complete <= r.commit, "complete/commit order at {idx}");
            seen += 1;
        }
        assert_eq!(seen, 40);
    }

    #[test]
    fn ring_chain_marches_clusters_in_timeline() {
        let trace = chain_trace();
        let mut core = Core::new(
            CoreConfig::default(),
            MemConfig::default(),
            PredictorConfig::default(),
            &trace,
        );
        core.attach_tracer(PipeTracer::new(200, 216));
        core.run(u64::MAX);
        let tracer = core.take_tracer().unwrap();
        // The serial addi chain advances one cluster per instruction.
        let mut clusters = Vec::new();
        for idx in 200..216 {
            let d = trace.get(idx as usize).unwrap();
            if d.insn.to_string().starts_with("addi r1") {
                clusters.push(tracer.get(idx).unwrap().cluster);
            }
        }
        for w in clusters.windows(2) {
            assert_eq!(
                (w[0] as usize + 1) % 8,
                w[1] as usize,
                "ring chain must move to the next cluster: {clusters:?}"
            );
        }
    }

    #[test]
    fn render_produces_a_row_per_instruction() {
        let trace = chain_trace();
        let mut core = Core::new(
            CoreConfig::default(),
            MemConfig::default(),
            PredictorConfig::default(),
            &trace,
        );
        core.attach_tracer(PipeTracer::new(0, 12));
        core.run(u64::MAX);
        let tracer = core.take_tracer().unwrap();
        let text = tracer.render(&trace, 80);
        assert!(text.lines().count() >= 12, "missing rows:\n{text}");
        assert!(text.contains('F') && text.contains('R'));
        let (wait, lat) = tracer.latency_summary();
        assert!(wait >= 0.0 && lat >= 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_window_rejected() {
        let _ = PipeTracer::new(5, 5);
    }
}
