//! Spans recorded by the benchmark around its calls into the layers.
//!
//! A traced operation is one `op.*` span with two children: the call into
//! the map (`skiphash.*` / `durability.*`) and `oracle.check`.  What is left
//! of the parent — its *self time* — is the generator: drawing the key and
//! the op kind.  Spans go into a buffer preallocated per thread and are
//! written out as JSON lines after the run; nothing is allocated or
//! formatted while the clock runs.

use std::collections::BTreeMap;
use std::io::{self, Write};

/// "No parent": the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.  Times are nanoseconds since the run's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span sits on.
    pub name: &'static str,
    /// Start, ns since the run started.
    pub start_ns: u64,
    /// End, ns since the run started.
    pub end_ns: u64,
    /// Index (in the same thread's buffer) of the span that caused this one,
    /// or [`ROOT`].
    pub parent: u32,
    /// The operation all spans of one request share.
    pub op: u64,
}

/// A thread's preallocated span buffer.
#[derive(Debug, Default)]
pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// Room for `capacity` spans; more are counted as dropped, not stored.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Store `span` and return its index, or count it as dropped.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span in one thread's buffer: its duration minus the
/// part of its interval that its child spans cover (overlapping children are
/// counted once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&(i as u32)) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: how many, total duration, total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Fold the buffers of all threads into per-name totals.
pub fn summarize(threads: &[SpanBuf]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for buf in threads {
        let selfs = self_times(buf.spans());
        for (s, self_ns) in buf.spans().iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
    }
    out
}

/// Write every span as one JSON object per line.  Ids are `t<thread>-<index>`.
pub fn write_jsonl(threads: &[SpanBuf], out: &mut impl Write) -> io::Result<()> {
    for (t, buf) in threads.iter().enumerate() {
        for (i, s) in buf.spans().iter().enumerate() {
            write!(out, "{{\"id\":\"t{t}-{i}\",\"parent\":")?;
            if s.parent == ROOT {
                write!(out, "null")?;
            } else {
                write!(out, "\"t{t}-{}\"", s.parent)?;
            }
            writeln!(
                out,
                ",\"op\":\"t{t}-{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op.get", 100, 200, ROOT), // children cover 110..150 and 150..190
            span("skiphash.get", 110, 150, 0), // leaf
            span("oracle.check", 150, 190, 0), // leaf
            span("op.range", 300, 400, ROOT), // overlapping + overhanging children
            span("a", 310, 350, 3),
            span("b", 340, 360, 3),          // overlaps `a` by 10
            span("c", 390, 450, 3),          // clipped to 390..400
            span("grandchild", 312, 320, 4), // does not count against the root
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 100 - 80, "generator = op minus call minus check");
        assert_eq!((s[1], s[2]), (40, 40));
        assert_eq!(s[3], 100 - (50 + 10), "310..360 once, plus 390..400");
        assert_eq!(s[4], 40 - 8);
        assert_eq!((s[5], s[6], s[7]), (20, 60, 8));
    }

    #[test]
    fn summary_and_jsonl() {
        let mut buf = SpanBuf::with_capacity(3);
        let root = buf.push(span("op.get", 0, 50, ROOT));
        buf.push(span("skiphash.get", 10, 40, root));
        buf.push(span("oracle.check", 40, 45, root));
        assert_eq!(buf.push(span("op.get", 60, 70, ROOT)), ROOT);
        assert_eq!(buf.dropped(), 1);

        let bufs = [buf];
        let sum = summarize(&bufs);
        assert_eq!(
            sum["op.get"],
            NameTotals {
                count: 1,
                total_ns: 50,
                self_ns: 15
            }
        );
        assert_eq!(sum["skiphash.get"].self_ns, 30);

        let mut out = Vec::new();
        write_jsonl(&bufs, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(
            text.lines().nth(1).unwrap(),
            "{\"id\":\"t0-1\",\"parent\":\"t0-0\",\"op\":\"t0-0\",\"name\":\"skiphash.get\",\"start_ns\":10,\"end_ns\":40}"
        );
    }
}
