//! Runs one workload: rounds of set-up and measurement, the correctness
//! gate, and the per-thread results the metrics are built from.

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use mcgc_core::{CycleStats, Gc, Mutator};
use mcgc_telemetry::trace_export::{pause_postmortems, Postmortem};

use crate::stats::{median, Histogram};
use crate::trace::SpanBuf;
use crate::window::{Snapshot, Window};
use crate::workloads::{OpError, Spec, Worker};

/// Rounds per run. Each round builds a fresh collector and live set
/// (timed as one set-up) and measures an equal share of the window; the
/// run pools the rounds' samples. On a 2-vCPU host one collector instance
/// settles into a faster or slower state than the next, so pooling
/// several independent rounds averages those states instead of
/// reporting one.
pub const ROUNDS: usize = 12;
/// Collection cycles the workload runs through before a window opens.
pub const WARM_CYCLES: usize = 3;
/// In traced runs the window alternates untraced and traced slices of
/// this length, so both see the same heap state.
pub const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

/// One thread's measurements in one round.
pub struct ThreadResult {
    /// Op latency (end minus start), ns.
    pub latency: Histogram,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Ops started and Σ service ns, in `[untraced, traced]` slices.
    pub slice_ops: [u64; 2],
    pub slice_service_ns: [u64; 2],
    pub spans: SpanBuf,
    /// Correctness problems seen by ops or by the live-set walk.
    pub errors: Vec<String>,
}

/// Everything one run measured.
pub struct RunResult {
    /// One set-up time per round.
    pub setup_secs: Vec<f64>,
    /// The rounds' windows, pooled.
    pub window: Window,
    /// Ops completed in each round's window.
    pub round_ops: Vec<u64>,
    /// Op latencies of each round, all threads merged.
    pub round_latency: Vec<Histogram>,
    /// Pause walls (ms) of each round's window cycles.
    pub round_pauses_ms: Vec<Vec<f64>>,
    /// Every round's threads.
    pub threads: Vec<ThreadResult>,
    /// Pause postmortems of window cycles still held by the flight
    /// recorder.
    pub postmortems: Vec<Postmortem>,
    /// Panic messages of failed `Gc::audit_now` calls.
    pub audit_errors: Vec<String>,
}

impl RunResult {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_secs)
    }
}

/// What the coordinating thread tells a worker, in this order.
#[derive(Clone, Copy)]
enum Go {
    /// Every live set is built: run ops until told to stop.
    Warm,
    /// Enough cycles have run: stop warming up.
    StopWarm,
    /// The window opened at this instant.
    Open(Instant),
}

/// Runs `spec` per `opts`.
pub fn run(spec: &Spec, opts: &Options) -> RunResult {
    let window = opts.window / ROUNDS as u32;
    let mut run = RunResult {
        setup_secs: Vec::with_capacity(ROUNDS),
        window: Window::default(),
        round_ops: Vec::with_capacity(ROUNDS),
        round_latency: Vec::with_capacity(ROUNDS),
        round_pauses_ms: Vec::with_capacity(ROUNDS),
        threads: Vec::new(),
        postmortems: Vec::new(),
        audit_errors: Vec::new(),
    };
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let gc = Gc::new(spec.config.clone());
        let (ready_tx, ready) = channel::<()>();
        let (measured, postmortems, threads) = std::thread::scope(|s| {
            let mut go = Vec::with_capacity(spec.threads);
            let mut handles = Vec::with_capacity(spec.threads);
            for i in 0..spec.threads {
                let (go_tx, go_rx) = channel();
                go.push(go_tx);
                let (gc, ready_tx) = (&gc, ready_tx.clone());
                let stream = (round * spec.threads + i) as u64;
                handles.push(
                    s.spawn(move || worker(spec, opts, gc, (ready_tx, go_rx), stream, window)),
                );
            }
            let all_ready = || (0..spec.threads).for_each(|_| ready.recv().expect("worker alive"));
            let tell = |msg: Go| go.iter().for_each(|tx| tx.send(msg).expect("worker alive"));
            all_ready(); // live sets built
            tell(Go::Warm);
            while gc.log().cycles.len() < WARM_CYCLES {
                std::thread::sleep(Duration::from_millis(1));
            }
            tell(Go::StopWarm);
            all_ready(); // warm-up stopped
            run.setup_secs.push(t0.elapsed().as_secs_f64());
            let open = Snapshot::take(&gc);
            tell(Go::Open(open.at));
            sleep_until(open.at + window);
            let close = Snapshot::take(&gc);
            let log = gc.log();
            let postmortems = window_postmortems(&gc, &log.cycles[open.cycles..close.cycles]);
            let threads: Vec<ThreadResult> = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect();
            (
                Window::between(&open, &close, &log.cycles),
                postmortems,
                threads,
            )
        });
        gc.shutdown();
        if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gc.audit_now())) {
            run.audit_errors.push(panic_message(&e));
        }
        run.round_pauses_ms.push(
            measured
                .cycles
                .iter()
                .map(|c| c.pause_wall.as_secs_f64() * 1e3)
                .collect(),
        );
        run.window.merge(measured);
        run.round_ops
            .push(threads.iter().map(|t| t.completed).sum());
        let mut latency = Histogram::default();
        for t in &threads {
            latency.merge(&t.latency);
        }
        run.round_latency.push(latency);
        run.threads.extend(threads);
        run.postmortems.extend(postmortems);
    }
    run
}

fn panic_message(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "audit panicked".to_string())
}

fn window_postmortems(gc: &Gc, cycles: &[CycleStats]) -> Vec<Postmortem> {
    let (Some(first), Some(last)) = (cycles.first(), cycles.last()) else {
        return Vec::new();
    };
    pause_postmortems(gc.telemetry().spans())
        .into_iter()
        .filter(|p| (first.cycle..=last.cycle).contains(&u64::from(p.cycle)))
        .collect()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Reports to the coordinating thread, then waits for its next message
/// inside a blocked region, so a collection another worker triggers
/// meanwhile does not wait for this thread.
fn report_and_wait(m: &Mutator, (ready, go): &(Sender<()>, Receiver<Go>)) -> Go {
    ready.send(()).expect("coordinator alive");
    m.blocked(|| go.recv().expect("coordinator alive"))
}

/// One worker of one round; `stream` selects its input streams.
fn worker(
    spec: &Spec,
    opts: &Options,
    gc: &std::sync::Arc<Gc>,
    link: (Sender<()>, Receiver<Go>),
    stream: u64,
    window: Duration,
) -> ThreadResult {
    let mut m = gc.register_mutator();
    let mut w = Worker::build(spec, &mut m, opts.seed, stream)
        .unwrap_or_else(|e| panic!("live-set build failed: {e}"));
    assert!(matches!(report_and_wait(&m, &link), Go::Warm));
    let mut off = SpanBuf::disabled(Instant::now());
    loop {
        match link.1.try_recv() {
            Ok(Go::StopWarm) => break,
            Err(TryRecvError::Empty) => {}
            _ => panic!("unexpected message during warm-up"),
        }
        if let Err(e) = w.op(&mut m, &mut off) {
            panic!("warm-up op failed: {e:?}");
        }
    }
    let Go::Open(open) = report_and_wait(&m, &link) else {
        panic!("expected the window to open");
    };
    let mut r = ThreadResult {
        latency: Histogram::default(),
        attempted: 0,
        completed: 0,
        failed: 0,
        slice_ops: [0; 2],
        slice_service_ns: [0; 2],
        spans: SpanBuf::disabled(open),
        errors: Vec::new(),
    };
    if opts.trace {
        r.spans = SpanBuf::new(open, spec.span_capacity, spec.spans_per_op);
    }
    closed_loop(spec, opts, &mut m, &mut w, &mut r, open, open + window);
    if let Err(e) = w.check(&m) {
        r.errors.push(format!("live-set check: {e}"));
    }
    r
}

/// Which slice an op starting at `t` falls in: 1 = traced.
fn slice_of(opts: &Options, open: Instant, t: Instant) -> usize {
    if !opts.trace {
        return 0;
    }
    let k = t.saturating_duration_since(open).as_nanos() / TRACE_SLICE.as_nanos();
    (k % 2) as usize
}

/// Runs one op, timing it and (in traced slices) its API calls.
/// Returns its start, its end and whether it succeeded.
fn timed_op(
    spec: &Spec,
    opts: &Options,
    m: &mut Mutator,
    w: &mut Worker,
    r: &mut ThreadResult,
    open: Instant,
    op_index: u64,
) -> (Instant, Instant, bool) {
    let start = Instant::now();
    let slice = slice_of(opts, open, start);
    r.spans
        .begin_op(slice == 1 && op_index.is_multiple_of(spec.trace_every));
    let outcome = w.op(m, &mut r.spans);
    let end = Instant::now();
    r.spans.end_op(start, end);
    r.slice_ops[slice] += 1;
    r.slice_service_ns[slice] += (end - start).as_nanos() as u64;
    let ok = match outcome {
        Ok(()) => true,
        Err(OpError::Oom) => false,
        Err(OpError::Corrupt(msg)) => {
            r.errors.push(msg);
            false
        }
    };
    (start, end, ok)
}

fn closed_loop(
    spec: &Spec,
    opts: &Options,
    m: &mut Mutator,
    w: &mut Worker,
    r: &mut ThreadResult,
    open: Instant,
    close: Instant,
) {
    let mut op_index = 0u64;
    while Instant::now() < close {
        let (start, end, ok) = timed_op(spec, opts, m, w, r, open, op_index);
        op_index += 1;
        if end > close {
            break; // in flight at close: outside the window
        }
        r.attempted += 1;
        if ok {
            r.completed += 1;
            r.latency.record((end - start).as_nanos() as u64);
        } else {
            r.failed += 1;
        }
    }
}
