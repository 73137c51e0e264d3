//! The workloads, written against `mcgc-core`'s public API so each
//! operation and each API call inside it can be timed.
//!
//! | name | loop | collector |
//! |---|---|---|
//! | `jbb` | closed: one warehouse per thread running order-entry transactions | CGC, lazy + background sweep, 64 MB at 60% residency |
//! | `javac_stw` | closed: one thread compiling AST units over a symbol table | STW, eager sweep, 32 MB at 70% residency |
//!
//! Every worker keeps a live set whose contents it can check after the
//! window: checksums written by the operations themselves.

use mcgc_core::{CollectorMode, GcConfig, GcError, Mutator, ObjectRef, ObjectShape, SweepMode};

use crate::rng::Rng;
use crate::trace::{Kind, SpanBuf};

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 2] = ["jbb", "javac_stw"];

/// Class tags (diagnostic only).
mod class {
    pub const TREE: u8 = 2;
    pub const RING: u8 = 3;
    pub const ORDER: u8 = 4;
    pub const ORDER_LINE: u8 = 5;
    pub const AST: u8 = 6;
    pub const DATA: u8 = 8;
}

/// A workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub config: GcConfig,
    pub threads: usize,
    /// In traced slices, one op in this many records spans (odd, so the
    /// sample does not alias with ops that alternate).
    pub trace_every: u64,
    /// Span buffer capacity per thread.
    pub span_capacity: usize,
    /// Worst-case spans of one op, op span included.
    pub spans_per_op: usize,
}

/// The collector configuration shared by every workload: `stw_workers =
/// nproc` and one background thread, so the scheduler pool holds
/// `nproc - 1` threads.
fn config(heap_bytes: usize, mode: CollectorMode, sweep: SweepMode, nproc: usize) -> GcConfig {
    let mut c = GcConfig::with_heap_bytes(heap_bytes);
    c.mode = mode;
    c.sweep = sweep;
    c.bg_sweep = sweep == SweepMode::Lazy;
    c.stw_workers = nproc;
    c.background_threads = 1;
    c
}

const JBB_HEAP: usize = 64 << 20;
const JBB_RESIDENCY: f64 = 0.6;
const JBB_HISTORY: u32 = 64;
const JAVAC_HEAP: usize = 32 << 20;
const JAVAC_SYMTAB: f64 = 0.35;
/// Compiled units kept (awaiting code generation); with the symbol table
/// they make the 70% residency. Many small units rather than a few large
/// ones, so every round holds enough units for a p99.
const JAVAC_QUEUE: u32 = 32;
const JAVAC_AST_NODES: u32 = (JAVAC_HEAP as f64 * 0.35 / JAVAC_QUEUE as f64 / 64.0) as u32;

/// The spec of workload `name` on a host with `nproc` usable CPUs.
pub fn spec(name: &str, nproc: usize) -> Option<Spec> {
    let nproc = nproc.max(1);
    Some(match name {
        "jbb" => Spec {
            name: "jbb",
            config: config(JBB_HEAP, CollectorMode::Concurrent, SweepMode::Lazy, nproc),
            threads: nproc,
            trace_every: 255,
            span_capacity: 1 << 19,
            spans_per_op: 16,
        },
        "javac_stw" => Spec {
            name: "javac_stw",
            config: config(
                JAVAC_HEAP,
                CollectorMode::StopTheWorld,
                SweepMode::Eager,
                nproc,
            ),
            threads: 1,
            trace_every: 63,
            span_capacity: 1 << 19,
            spans_per_op: 2 * (JAVAC_AST_NODES as usize * 3 / 2) + 8,
        },
        _ => return None,
    })
}

/// Why an operation did not complete.
#[derive(Debug)]
pub enum OpError {
    /// The collector could not satisfy an allocation
    /// (`GcError::OutOfMemory`).
    Oom,
    /// The operation read back something other than what it wrote.
    Corrupt(String),
}

impl From<GcError> for OpError {
    fn from(_: GcError) -> OpError {
        OpError::Oom
    }
}

/// One worker's state: its live set and its input stream.
pub enum Worker {
    Jbb(Jbb),
    Javac(Javac),
}

impl Worker {
    /// Builds the live set of the worker whose inputs come from `stream`
    /// (part of set-up).
    pub fn build(spec: &Spec, m: &mut Mutator, seed: u64, stream: u64) -> Result<Worker, GcError> {
        let rng = Rng::new(seed, stream);
        Ok(match spec.name {
            "jbb" => Worker::Jbb(Jbb::build(m, rng, spec.threads)?),
            "javac_stw" => Worker::Javac(Javac::build(m, rng)?),
            other => unreachable!("unknown workload {other}"),
        })
    }

    /// Runs one operation. Roots pushed by the op are popped whatever
    /// the outcome.
    pub fn op(&mut self, m: &mut Mutator, sp: &mut SpanBuf) -> Result<(), OpError> {
        let base = m.root_len();
        let r = match self {
            Worker::Jbb(w) => w.transaction(m, sp),
            Worker::Javac(w) => w.compile_unit(m, sp),
        };
        m.root_truncate(base);
        r
    }

    /// Walks the live set and compares it with the checksums the
    /// operations stored.
    pub fn check(&self, m: &Mutator) -> Result<(), String> {
        match self {
            Worker::Jbb(w) => w.check(m),
            Worker::Javac(w) => w.check(m),
        }
    }
}

// ----------------------------------------------------------------------
// shared graph helpers (set-up only: untimed)
// ----------------------------------------------------------------------

/// Builds a breadth-first binary tree of `nodes` 72-byte nodes, rooted on
/// the shadow stack; returns its root.
fn build_tree(m: &mut Mutator, nodes: u64) -> Result<ObjectRef, GcError> {
    let shape = ObjectShape::new(2, 6, class::TREE);
    let root = m.alloc(shape)?;
    m.root_push(Some(root));
    let mut frontier = vec![root];
    let mut built = 1;
    'grow: while built < nodes {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for &parent in &frontier {
            for slot in 0..2 {
                if built >= nodes {
                    break 'grow;
                }
                next.push(m.alloc_into(parent, slot, shape)?);
                built += 1;
            }
        }
        frontier = next;
    }
    Ok(root)
}

/// Nodes reachable through reference slots `0..fanout` from `root`.
fn count_nodes(m: &Mutator, root: ObjectRef, fanout: u32, stack: &mut Vec<ObjectRef>) -> u64 {
    stack.clear();
    stack.push(root);
    let mut n = 0;
    while let Some(node) = stack.pop() {
        n += 1;
        for slot in 0..fanout {
            if let Some(c) = m.read_ref(node, slot) {
                stack.push(c);
            }
        }
    }
    n
}

/// Up to `n` nodes of a tree, preorder.
fn sample_nodes(m: &Mutator, root: ObjectRef, n: usize) -> Vec<ObjectRef> {
    let mut out = Vec::with_capacity(n);
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if out.len() >= n {
            break;
        }
        out.push(node);
        for slot in 0..2 {
            if let Some(c) = m.read_ref(node, slot) {
                stack.push(c);
            }
        }
    }
    out
}

fn header(m: &Mutator, obj: ObjectRef) -> (u32, u32) {
    let h = m.gc().heap().header(obj);
    (h.ref_count, h.size_granules - 1 - h.ref_count)
}

// ----------------------------------------------------------------------
// jbb
// ----------------------------------------------------------------------

/// A warehouse: a stock tree (the stable live set) and an order-history
/// ring whose orders die `JBB_HISTORY` transactions after they are
/// written — the `mcgc_workloads::jbb` heap shape.
pub struct Jbb {
    rng: Rng,
    stock: ObjectRef,
    stock_nodes: u64,
    samples: Vec<ObjectRef>,
    ring: ObjectRef,
    cursor: u32,
    written: u64,
}

impl Jbb {
    fn build(m: &mut Mutator, rng: Rng, threads: usize) -> Result<Jbb, GcError> {
        let live = JBB_HEAP as f64 * JBB_RESIDENCY / threads as f64;
        let stock_nodes = (live / 72.0) as u64;
        let stock = build_tree(m, stock_nodes)?;
        let ring = m.alloc(ObjectShape::new(JBB_HISTORY, 1, class::RING))?;
        m.root_push(Some(ring));
        Ok(Jbb {
            rng,
            stock,
            stock_nodes,
            samples: sample_nodes(m, stock, 64),
            ring,
            cursor: 0,
            written: 0,
        })
    }

    /// One order-entry transaction: an order with 3..9 line items linked
    /// to stock, published in the history ring (retiring the order it
    /// displaces); one in 128 also allocates a short-lived 12 KB report.
    fn transaction(&mut self, m: &mut Mutator, sp: &mut SpanBuf) -> Result<(), OpError> {
        let items = self.rng.range(3, 9);
        let order = sp.call(Kind::Alloc, || {
            m.alloc(ObjectShape::new(items + 1, 2, class::ORDER))
        })?;
        m.root_push(Some(order));
        let stock = self.samples[self.rng.range(0, self.samples.len() as u32) as usize];
        sp.call(Kind::WriteRef, || m.write_ref(order, 0, Some(stock)));
        let mut sum = 0u64;
        for i in 0..items {
            let payload = self.rng.range(4, 40);
            let line = sp.call(Kind::AllocInto, || {
                m.alloc_into(
                    order,
                    i + 1,
                    ObjectShape::new(0, payload, class::ORDER_LINE),
                )
            })?;
            m.write_data(line, 0, u64::from(payload));
            sum += u64::from(payload);
        }
        m.write_data(order, 0, u64::from(self.cursor));
        m.write_data(order, 1, u64::from(items) | sum << 8);
        sp.call(Kind::WriteRef, || {
            m.write_ref(self.ring, self.cursor, Some(order))
        });
        self.cursor = (self.cursor + 1) % JBB_HISTORY;
        self.written += 1;
        if self.rng.one_in(128) {
            let big = sp.call(Kind::Alloc, || {
                m.alloc(ObjectShape::new(0, 1500, class::DATA))
            })?;
            m.write_data(big, 0, 1);
        }
        sp.call(Kind::Safepoint, || m.safepoint());
        Ok(())
    }

    fn check(&self, m: &Mutator) -> Result<(), String> {
        let mut stack = Vec::new();
        let nodes = count_nodes(m, self.stock, 2, &mut stack);
        if nodes != self.stock_nodes {
            return Err(format!(
                "stock tree has {nodes} nodes, built {}",
                self.stock_nodes
            ));
        }
        for slot in 0..JBB_HISTORY.min(self.written as u32) {
            let order = m
                .read_ref(self.ring, slot)
                .ok_or_else(|| format!("history slot {slot} is empty"))?;
            if m.read_data(order, 0) != u64::from(slot) {
                return Err(format!(
                    "order in slot {slot} records slot {}",
                    m.read_data(order, 0)
                ));
            }
            let word = m.read_data(order, 1);
            let (items, sum) = ((word & 0xff) as u32, word >> 8);
            let (refs, _) = header(m, order);
            if refs != items + 1 {
                return Err(format!(
                    "order in slot {slot}: {refs} refs for {items} lines"
                ));
            }
            let mut seen = 0u64;
            for i in 1..=items {
                let line = m
                    .read_ref(order, i)
                    .ok_or_else(|| format!("order in slot {slot} lost line {i}"))?;
                let payload = m.read_data(line, 0);
                let (_, data) = header(m, line);
                if u64::from(data) != payload {
                    return Err(format!("line of {data} granules records {payload}"));
                }
                seen += payload;
            }
            if seen != sum {
                return Err(format!(
                    "order in slot {slot}: lines sum to {seen}, stored {sum}"
                ));
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// javac_stw
// ----------------------------------------------------------------------

/// A compiler thread: a persistent symbol table, and a queue of the last
/// `JAVAC_QUEUE` compiled ASTs (awaiting code generation).
pub struct Javac {
    rng: Rng,
    symtab: ObjectRef,
    symtab_nodes: u64,
    symbols: Vec<ObjectRef>,
    queue: ObjectRef,
    cursor: u32,
    compiled: u64,
    frontier: Vec<ObjectRef>,
    next: Vec<ObjectRef>,
    stack: Vec<ObjectRef>,
}

impl Javac {
    fn build(m: &mut Mutator, rng: Rng) -> Result<Javac, GcError> {
        let symtab_nodes = (JAVAC_HEAP as f64 * JAVAC_SYMTAB / 72.0) as u64;
        let symtab = build_tree(m, symtab_nodes)?;
        let queue = m.alloc(ObjectShape::new(JAVAC_QUEUE, 0, class::RING))?;
        m.root_push(Some(queue));
        Ok(Javac {
            rng,
            symtab,
            symtab_nodes,
            symbols: sample_nodes(m, symtab, 256),
            queue,
            cursor: 0,
            compiled: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            stack: Vec::new(),
        })
    }

    /// One compilation unit: grow a ragged AST (fan-out 1..=2, every node
    /// linked to a symbol), walk it (a folding pass that numbers the
    /// nodes), check the walk saw every node built, and queue the AST.
    fn compile_unit(&mut self, m: &mut Mutator, sp: &mut SpanBuf) -> Result<(), OpError> {
        let node = ObjectShape::new(3, 4, class::AST);
        let target = u64::from(self.rng.range(JAVAC_AST_NODES / 2, JAVAC_AST_NODES * 3 / 2));
        let root = sp.call(Kind::Alloc, || m.alloc(node))?;
        m.root_push(Some(root));
        self.frontier.clear();
        self.frontier.push(root);
        let mut built = 1u64;
        'grow: while built < target {
            self.next.clear();
            for &parent in &self.frontier {
                for slot in 0..self.rng.range(1, 3) {
                    if built >= target {
                        break 'grow;
                    }
                    let child = sp.call(Kind::AllocInto, || m.alloc_into(parent, slot, node))?;
                    let sym = self.symbols[self.rng.range(0, self.symbols.len() as u32) as usize];
                    sp.call(Kind::WriteRef, || m.write_ref(child, 2, Some(sym)));
                    self.next.push(child);
                    built += 1;
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        self.stack.clear();
        self.stack.push(root);
        let mut visited = 0u64;
        while let Some(n) = self.stack.pop() {
            visited += 1;
            m.write_data(n, 0, visited);
            for slot in 0..2 {
                if let Some(c) = m.read_ref(n, slot) {
                    self.stack.push(c);
                }
            }
        }
        if visited != built {
            return Err(OpError::Corrupt(format!(
                "unit walk visited {visited} of {built} nodes"
            )));
        }
        m.write_data(root, 1, built);
        sp.call(Kind::WriteRef, || {
            m.write_ref(self.queue, self.cursor, Some(root))
        });
        self.cursor = (self.cursor + 1) % JAVAC_QUEUE;
        self.compiled += 1;
        sp.call(Kind::Safepoint, || m.safepoint());
        Ok(())
    }

    fn check(&self, m: &Mutator) -> Result<(), String> {
        let mut stack = Vec::new();
        let nodes = count_nodes(m, self.symtab, 2, &mut stack);
        if nodes != self.symtab_nodes {
            return Err(format!(
                "symbol table has {nodes} nodes, built {}",
                self.symtab_nodes
            ));
        }
        for slot in 0..JAVAC_QUEUE.min(self.compiled as u32) {
            let root = m
                .read_ref(self.queue, slot)
                .ok_or_else(|| format!("queue slot {slot} is empty"))?;
            let built = m.read_data(root, 1);
            let visited = count_nodes(m, root, 2, &mut stack);
            if visited != built {
                return Err(format!(
                    "queued unit {slot}: visited {visited}, built {built}"
                ));
            }
        }
        Ok(())
    }
}
