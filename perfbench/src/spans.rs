//! Spans the benchmark records around its calls into each layer, kept in
//! memory and written out when the run ends, and the self-time arithmetic
//! the traced run reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Times are offsets from the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Records nested spans, or — disabled — only runs the calls, which is the
/// untraced baseline the tracing overhead is measured against.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        r
    }

    /// Record a span timed elsewhere (a request over the serve pipe);
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            parent,
            start: at(start),
            end: at(end),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line (`name`, `parent`, start and end
    /// in microseconds since the tracer started).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"start_us":{:.3},"end_us":{:.3}}}"#,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children count once, and a child's
/// time outside its parent is not subtracted).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered: Vec<(Duration, Duration)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort();
            let mut total = Duration::ZERO;
            let mut run: Option<(Duration, Duration)> = None;
            for (a, b) in covered {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        total += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                total += rb - ra;
            }
            (s.end - s.start).saturating_sub(total)
        })
        .collect()
}

/// Per span name: number of spans and their summed self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, Duration)> {
    let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span("root", None, 0, 10),
            span("a", Some(0), 1, 3),
            span("b", Some(0), 2, 5), // overlaps a: [1, 5] counts once
            span("c", Some(0), 7, 8),
            span("d", Some(3), 7, 12), // runs past its parent c
            span("e", Some(0), 9, 14), // only [9, 10] lies inside root
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        // root: 10 - ([1,5] + [7,8] + [9,10]) = 10 - 6
        assert_eq!(own, vec![4, 2, 3, 0, 5, 5]);
        let t = totals(&spans);
        assert_eq!(t["root"], (1, Duration::from_millis(4)));
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |tr| tr.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
