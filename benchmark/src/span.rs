//! In-memory spans recorded around calls into each layer.
//!
//! Spans are taken from the benchmark's own files only (the traced run
//! times the public entry points of each crate from outside); nothing
//! in the program under test is instrumented. They stay in memory while
//! anything is being timed and are written out afterwards.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it (a
/// stage's parent is its frame span); spans of one frame share `frame`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub frame: u64,
}

/// Span sink with a monotonic origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, frame: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records an already-measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        frame: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame,
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are not counted
/// twice, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total self time in ns)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    out
}

/// Writes one JSON object per span (`--trace-out`). Called only after
/// every timed phase has ended.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"frame":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.frame
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("admit", 30, 50, Some(0)),
            // Overlaps `admit` by 5 ns: the overlap is covered once.
            span("observe", 45, 80, Some(0)),
            // A grandchild reduces its parent, not the frame.
            span("search", 50, 70, Some(3)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - (20 + 20 + 30)); // cover = [10,80)
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 35 - 20);
        assert_eq!(st[4], 20);
        // Self times partition the root's duration exactly.
        assert_eq!(st.iter().sum::<u64>(), 100 + 5); // +5: the overlap ran "twice"
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("frame", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn by_name_totals_counts_and_self_time() {
        let spans = vec![
            span("frame", 0, 10, None),
            span("decode", 0, 4, Some(0)),
            span("frame", 10, 30, None),
            span("decode", 12, 20, Some(2)),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["frame"], (2, 6 + 12));
        assert_eq!(by["decode"], (2, 12));
    }
}
