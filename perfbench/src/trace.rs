//! Spans recorded from the benchmark's own side of the API boundary.
//!
//! Each worker owns one preallocated [`SpanBuf`]. A traced operation
//! records one child span per call into `mcgc-core` (`alloc`,
//! `alloc_into`, `write_ref`, `safepoint`) and then its own [`Kind::Op`]
//! span; a child's parent is the op span with the same op number.
//! Nothing is formatted or allocated while recording; buffers are written
//! out and analysed once the run ends.

use std::io::Write;
use std::time::Instant;

use crate::stats::Histogram;

/// What a span times.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole operation (transaction, request or compilation unit).
    Op,
    /// `Mutator::alloc`.
    Alloc,
    /// `Mutator::alloc_into`.
    AllocInto,
    /// `Mutator::write_ref` (the card-marking barrier).
    WriteRef,
    /// `Mutator::safepoint`.
    Safepoint,
}

impl Kind {
    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Alloc => "alloc",
            Kind::AllocInto => "alloc_into",
            Kind::WriteRef => "write_ref",
            Kind::Safepoint => "safepoint",
        }
    }
}

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// The operation this span belongs to.
    pub op: u32,
    pub kind: Kind,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A worker's span buffer plus the per-op tracing switch.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    /// Worst-case spans one op records; an op starts traced only if this
    /// many slots are still free, so a traced op is never cut short.
    per_op_max: usize,
    /// Whether the current op records spans.
    active: bool,
    op: u32,
    op_begin: usize,
}

impl SpanBuf {
    /// A buffer holding `capacity` spans (allocated now, never grown).
    pub fn new(epoch: Instant, capacity: usize, per_op_max: usize) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            per_op_max,
            active: false,
            op: 0,
            op_begin: 0,
        }
    }

    /// An empty buffer for untraced runs.
    pub fn disabled(epoch: Instant) -> SpanBuf {
        SpanBuf::new(epoch, 0, usize::MAX)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts an op; it records spans if `want` and the buffer has room.
    #[inline]
    pub fn begin_op(&mut self, want: bool) {
        self.active = false;
        if !want {
            return;
        }
        if self.spans.capacity() - self.spans.len() < self.per_op_max {
            return;
        }
        self.active = true;
        self.op_begin = self.spans.len();
    }

    /// Runs `f` as a child span of the current op.
    #[inline]
    pub fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.active {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.push(Span {
            start_ns,
            end_ns,
            op: self.op,
            kind,
        });
        r
    }

    /// Closes the current op, which ran from `start` to `end`. An op that
    /// recorded more than its declared maximum is a bug in the workload.
    #[inline]
    pub fn end_op(&mut self, start: Instant, end: Instant) {
        if !self.active {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        assert!(
            self.spans.len() - self.op_begin < self.per_op_max,
            "op recorded more spans than its declared maximum"
        );
        self.push(Span {
            start_ns,
            end_ns,
            op: self.op,
            kind: Kind::Op,
        });
        self.op += 1;
        self.active = false;
    }

    #[inline]
    fn push(&mut self, s: Span) {
        debug_assert!(self.spans.len() < self.spans.capacity());
        self.spans.push(s);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Layer self times folded from span buffers.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Traced operations.
    pub ops: u64,
    /// Σ op wall time.
    pub op_wall_ns: u64,
    /// Σ op self time (wall minus children): application work between
    /// API calls.
    pub op_self_ns: u64,
    /// Σ child time per kind ([`Kind::index`]).
    pub child_ns: [u64; 5],
    /// Number of child spans per kind.
    pub child_count: [u64; 5],
    /// Duration distribution of allocation calls (`alloc` + `alloc_into`).
    pub alloc_hist: Histogram,
    /// Ops whose children were not contained in the op, overlapped each
    /// other, or did not add up to the op's wall time.
    pub violations: u64,
    /// Child spans left without a closing op span.
    pub orphans: u64,
}

impl Breakdown {
    /// Folds one worker's spans (in recording order) into the totals.
    pub fn add_buffer(&mut self, spans: &[Span]) {
        let mut begin = 0;
        for (i, s) in spans.iter().enumerate() {
            if s.kind == Kind::Op {
                self.add_op(s, &spans[begin..i]);
                begin = i + 1;
            }
        }
        self.orphans += (spans.len() - begin) as u64;
    }

    fn add_op(&mut self, op: &Span, children: &[Span]) {
        let wall = op.dur_ns();
        let mut sum = 0u64;
        let mut cursor = op.start_ns;
        let mut ok = op.end_ns >= op.start_ns;
        for c in children {
            ok &= c.op == op.op && c.start_ns >= cursor && c.end_ns >= c.start_ns;
            ok &= c.end_ns <= op.end_ns;
            cursor = cursor.max(c.end_ns);
            sum += c.dur_ns();
            self.child_ns[c.kind.index()] += c.dur_ns();
            self.child_count[c.kind.index()] += 1;
            if matches!(c.kind, Kind::Alloc | Kind::AllocInto) {
                self.alloc_hist.record(c.dur_ns());
            }
        }
        // Self time is what the op's wall leaves after its children;
        // contained, disjoint children make self + children == wall.
        let self_ns = wall.saturating_sub(sum);
        ok &= self_ns + sum == wall;
        if !ok {
            self.violations += 1;
        }
        self.ops += 1;
        self.op_wall_ns += wall;
        self.op_self_ns += self_ns;
    }

    /// Child time of `kinds` as a share of op wall time.
    pub fn share(&self, kinds: &[Kind]) -> f64 {
        let ns: u64 = kinds.iter().map(|k| self.child_ns[k.index()]).sum();
        ratio(ns as f64, self.op_wall_ns as f64)
    }

    /// Mean duration of one `kind` call, ns.
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        ratio(
            self.child_ns[kind.index()] as f64,
            self.child_count[kind.index()] as f64,
        )
    }
}

/// `num / den`, 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Writes every worker's spans as tab-separated
/// `worker op kind start_ns end_ns` lines.
pub fn write_spans(path: &std::path::Path, buffers: &[&[Span]]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "worker\top\tkind\tstart_ns\tend_ns")?;
    for (w, spans) in buffers.iter().enumerate() {
        for s in spans.iter() {
            writeln!(
                out,
                "{w}\t{}\t{}\t{}\t{}",
                s.op,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u32, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            start_ns,
            end_ns,
            op,
            kind,
        }
    }

    #[test]
    fn self_time_is_wall_minus_children() {
        let spans = [
            span(0, Kind::Alloc, 10, 20),
            span(0, Kind::WriteRef, 30, 35),
            span(0, Kind::Safepoint, 90, 100),
            span(0, Kind::Op, 0, 100),
            span(1, Kind::AllocInto, 410, 450),
            span(1, Kind::Op, 400, 500),
        ];
        let mut b = Breakdown::default();
        b.add_buffer(&spans);
        assert_eq!(b.violations, 0);
        assert_eq!(b.orphans, 0);
        assert_eq!(b.ops, 2);
        assert_eq!(b.op_wall_ns, 200);
        assert_eq!(b.op_self_ns, (100 - 25) + (100 - 40));
        assert_eq!(b.child_ns[Kind::Alloc.index()], 10);
        assert_eq!(b.child_ns[Kind::AllocInto.index()], 40);
        assert_eq!(b.alloc_hist.percentile(0.5).unwrap().samples, 2);
        assert!((b.share(&[Kind::Alloc, Kind::AllocInto]) - 0.25).abs() < 1e-12);
        assert!((b.share(&[Kind::Safepoint]) - 0.05).abs() < 1e-12);
        assert!((b.mean_ns(Kind::WriteRef) - 5.0).abs() < 1e-12);
        let parts = b.op_self_ns + b.child_ns.iter().sum::<u64>();
        assert_eq!(parts, b.op_wall_ns, "self + children reconcile to wall");
    }

    #[test]
    fn overlapping_or_escaping_children_are_violations() {
        let mut b = Breakdown::default();
        b.add_buffer(&[
            span(0, Kind::Alloc, 10, 30),
            span(0, Kind::WriteRef, 20, 40), // overlaps the alloc
            span(0, Kind::Op, 0, 100),
            span(1, Kind::Alloc, 150, 250), // ends after its op
            span(1, Kind::Op, 100, 200),
            span(2, Kind::Alloc, 300, 310), // wrong parent
            span(3, Kind::Op, 290, 400),
            span(4, Kind::Alloc, 500, 510), // never closed
        ]);
        assert_eq!(b.violations, 3);
        assert_eq!(b.orphans, 1);
    }

    #[test]
    fn buffer_records_only_traced_ops_with_room() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let mut buf = SpanBuf::new(epoch, 8, 4);
        buf.begin_op(true);
        let t0 = Instant::now();
        let v = buf.call(Kind::Alloc, || 7);
        buf.call(Kind::WriteRef, || ());
        buf.end_op(t0, Instant::now());
        assert_eq!(v, 7);
        assert_eq!(buf.spans().len(), 3);
        let op = buf.spans()[2];
        assert_eq!(op.start_ns, (t0 - epoch).as_nanos() as u64);
        assert!(op.start_ns <= buf.spans()[0].start_ns && buf.spans()[1].end_ns <= op.end_ns);
        buf.begin_op(false);
        buf.call(Kind::Alloc, || ());
        buf.end_op(at(0), at(1));
        assert_eq!(buf.spans().len(), 3, "untraced op records nothing");
        buf.begin_op(true); // 5 free >= 4: traced
        buf.end_op(at(1), at(2));
        buf.begin_op(true); // 4 free >= 4: traced
        buf.end_op(at(2), at(3));
        buf.begin_op(true); // 3 free < 4: not traced
        buf.call(Kind::Alloc, || ());
        buf.end_op(at(3), at(4));
        assert_eq!(buf.spans().len(), 5);
        let mut b = Breakdown::default();
        b.add_buffer(buf.spans());
        assert_eq!((b.ops, b.violations), (3, 0));
    }
}
