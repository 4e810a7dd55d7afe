//! Spans recorded by the benchmark around its calls into each layer, kept
//! in a preallocated buffer and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// No parent: a root span.
pub const ROOT: SpanId = u32::MAX;

/// One timed call. `seq` is the stream sequence number of the event the
/// call served, shared by every span of that event.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub seq: u64,
}

/// The span buffer.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, seq: u64, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            seq,
        });
        id
    }

    #[inline]
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        seq: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, seq, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Writes every span as tab-separated `seq name start_ns end_ns parent`.
    pub fn write_tsv(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "seq\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.seq, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// Total self time per span name: each span's duration minus what its
/// children cover, after taking out the clock reads the spans themselves
/// add. A span's interval holds one clock read of its own; a child adds its
/// interval plus one more read to its parent's.
pub fn self_times(spans: &[Span], timer_ns: u64) -> BTreeMap<&'static str, u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize] += s.end_ns - s.start_ns + timer_ns;
        }
    }
    let mut totals = BTreeMap::new();
    for (s, covered) in spans.iter().zip(children) {
        let own = (s.end_ns - s.start_ns).saturating_sub(timer_ns + covered);
        *totals.entry(s.name).or_insert(0) += own;
    }
    totals
}

/// The cost of one clock read: the median gap between back-to-back reads.
pub fn calibrate_timer() -> u64 {
    let origin = Instant::now();
    let mut gaps: Vec<u64> = (0..20_001)
        .map(|_| {
            let a = origin.elapsed().as_nanos() as u64;
            let b = origin.elapsed().as_nanos() as u64;
            b - a
        })
        .collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            seq: 0,
        }
    }

    // root [0,100] > a [10,40] > leaf [15,25]; root > b [50,70]
    fn tree() -> Vec<Span> {
        vec![
            span("root", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("leaf", 15, 25, 1),
            span("b", 50, 70, 0),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let t = self_times(&tree(), 0);
        assert_eq!(t["root"], 50);
        assert_eq!(t["a"], 20);
        assert_eq!(t["leaf"], 10);
        assert_eq!(t["b"], 20);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_takes_out_clock_reads() {
        let t = self_times(&tree(), 2);
        assert_eq!(t["leaf"], 8);
        assert_eq!(t["a"], 30 - 2 - (10 + 2));
        assert_eq!(t["b"], 18);
        assert_eq!(t["root"], 100 - 2 - (30 + 2) - (20 + 2));
    }

    #[test]
    fn self_time_never_goes_negative() {
        let t = self_times(&[span("tiny", 0, 1, ROOT)], 5);
        assert_eq!(t["tiny"], 0);
    }

    #[test]
    fn the_tracer_links_children_to_parents() {
        let mut tr = Tracer::with_capacity(4);
        let root = tr.open("root", 7, ROOT);
        let child = tr.span("child", 7, root, || 3);
        assert_eq!(child, 3);
        tr.close(root);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, root);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.seq == 7 && s.end_ns >= s.start_ns));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        assert_eq!(tr.spans.capacity(), 4);
    }

    #[test]
    fn a_clock_read_costs_something_small() {
        let t = calibrate_timer();
        assert!(t < 10_000, "clock read {t} ns");
    }
}
