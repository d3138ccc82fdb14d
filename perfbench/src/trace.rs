//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every thread that calls into the system owns a [`Tracer`]; a span records
//! its name, start, end, the span open around it on the same thread (its
//! parent) and a run-local id. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site. The spans are written out
//! when the run ends; per-layer timings are read from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the run's trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this tracer hands out, so ids stay unique
    /// across the run's threads.
    tag: u64,
    next: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, tag: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            tag: tag << 40,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self, tag: u64) -> Tracer {
        Tracer::new(self.enabled, self.epoch, tag)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        self.next += 1;
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.tag | self.next,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn close(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close in reverse order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Takes over the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes every span as CSV with its self time.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,self_ns")?;
        for (span, self_ns) in self.spans.iter().zip(own) {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                span.id, span.parent, span.name, span.start_ns, span.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let Some(kids) = children.get_mut(&span.id) else {
                return span.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(span.start_ns, span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps child 2 by 10
            span(4, 3, 25, 35),  // grandchild: not a child of 1
            span(5, 1, 90, 120), // runs past the parent's end
        ];
        let own = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 of 100.
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 30);
    }

    #[test]
    fn tracer_links_parents_on_one_thread() {
        let mut tracer = Tracer::new(true, Instant::now(), 1);
        let outer = tracer.open("outer");
        tracer.span("inner", || ());
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = self_time_by_name(spans);
        assert_eq!(totals["outer"] + totals["inner"], spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 1);
        let open = tracer.open("x");
        tracer.close(open);
        assert_eq!(tracer.span("y", || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn forked_tracers_hand_out_distinct_ids() {
        let mut a = Tracer::new(true, Instant::now(), 1);
        let mut b = a.fork(2);
        a.span("x", || ());
        b.span("x", || ());
        a.absorb(b);
        assert_ne!(a.spans()[0].id, a.spans()[1].id);
        assert_eq!(a.durations_ns("x").len(), 2);
    }
}
