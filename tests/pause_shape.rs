//! The paper's headline claims as executable assertions: the concurrent
//! collector's pauses are a fraction of the stop-the-world baseline's,
//! at a bounded throughput cost, with most marking moved out of the
//! pause. Absolute numbers are testbed artifacts; these tests pin the
//! *shape* with generous margins so they hold on loaded CI machines.

use std::time::Duration;

use mcgc::heap::SWEEP_CHUNK_GRANULES;
use mcgc::telemetry::{Span, SpanKind};
use mcgc::workloads::jbb::{self, run_standalone, JbbOptions};
use mcgc::workloads::RunReport;
use mcgc::{CollectorMode, CostModel, Gc, GcConfig, SweepMode, Trigger};

const HEAP: usize = 32 << 20;

fn setup(mode: CollectorMode, tweak: impl Fn(&mut GcConfig)) -> (GcConfig, JbbOptions) {
    let mut cfg = GcConfig::with_heap_bytes(HEAP);
    cfg.mode = mode;
    cfg.background_threads = 2;
    tweak(&mut cfg);
    let mut opts = JbbOptions::sized_for(HEAP, 2, 0.6);
    opts.duration = Duration::from_millis(1500);
    (cfg, opts)
}

fn run(mode: CollectorMode, tweak: impl Fn(&mut GcConfig)) -> RunReport {
    let (cfg, opts) = setup(mode, tweak);
    run_standalone(cfg, &opts)
}

/// Every kind of span that sweeps one chunk: in the pause, or lazily
/// (straggler fence and escalation, refill, background sweeper).
const CHUNK_KINDS: [SpanKind; 4] = [
    SpanKind::SweepChunk,
    SpanKind::LazySweepChunk,
    SpanKind::RefillSweepChunk,
    SpanKind::BgSweepChunk,
];

/// Runs [`run`]'s workload on a collector kept for its flight recorder.
/// Returns the report, the number of sweep-chunk spans (any track) that
/// overlap each retained `gc.pause` span, and the chunk spans retained
/// in all.
fn run_counting_chunks_in_pauses(
    mode: CollectorMode,
    tweak: impl Fn(&mut GcConfig),
) -> (RunReport, Vec<usize>, usize) {
    let (cfg, opts) = setup(mode, tweak);
    let gc = Gc::new(cfg);
    let report = jbb::run(&gc, &opts);
    gc.shutdown();
    let spans: Vec<Span> = gc
        .telemetry()
        .spans()
        .all_spans()
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let chunks: Vec<&Span> = spans
        .iter()
        .filter(|s| CHUNK_KINDS.contains(&s.kind))
        .collect();
    let per_pause = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Pause)
        .map(|p| {
            chunks
                .iter()
                .filter(|c| c.begin_ns < p.end_ns && p.begin_ns < c.end_ns)
                .count()
        })
        .collect();
    (report, per_pause, chunks.len())
}

#[test]
fn cgc_cuts_average_pause_substantially() {
    let stw = run(CollectorMode::StopTheWorld, |_| {});
    let cgc = run(CollectorMode::Concurrent, |_| {});
    assert!(stw.log.cycles.len() >= 3, "{}", stw.log.cycles.len());
    assert!(cgc.log.cycles.len() >= 3, "{}", cgc.log.cycles.len());
    let stw_avg = stw.log.avg_pause_ms();
    let cgc_avg = cgc.log.avg_pause_ms();
    // Paper Figure 1: 75% reduction. Require at least 40%.
    assert!(
        cgc_avg < stw_avg * 0.6,
        "CGC avg pause {cgc_avg:.1} ms not well below STW {stw_avg:.1} ms"
    );
}

#[test]
fn cgc_moves_marking_out_of_the_pause() {
    let stw = run(CollectorMode::StopTheWorld, |_| {});
    let cgc = run(CollectorMode::Concurrent, |_| {});
    let stw_mark = stw.log.avg_mark_ms();
    let cgc_mark = cgc.log.avg_mark_ms();
    // Paper: mark component cut 86% (235 ms -> 34 ms). Require 50%.
    assert!(
        cgc_mark < stw_mark * 0.5,
        "CGC avg mark {cgc_mark:.1} ms vs STW {stw_mark:.1} ms"
    );
    // And the concurrent phase did real tracing work.
    let conc: u64 = cgc
        .log
        .cycles
        .iter()
        .map(|c| c.concurrent_traced_bytes())
        .sum();
    let stw_traced: u64 = cgc.log.cycles.iter().map(|c| c.stw_traced_bytes).sum();
    assert!(
        conc > stw_traced,
        "most tracing should be concurrent: {conc} vs {stw_traced}"
    );
}

/// Modelled collector work per transaction, in single-worker
/// milliseconds: each pause's work model (its mark and sweep work, not
/// divided among the modelled workers, plus the fixed pause overhead),
/// and the tracing and card cleaning its concurrent phase did, at the
/// cost model's rates. It reads no clock, so two runs compare on the
/// work they did, not on how the host scheduled them.
fn modelled_work_per_transaction(report: &RunReport) -> f64 {
    let cost = CostModel::default();
    let work: f64 = report
        .log
        .cycles
        .iter()
        .map(|c| {
            let pause =
                (c.mark_ms + c.sweep_ms) * cost.workers as f64 + cost.pause_overhead_ns / 1e6;
            let concurrent = cost.trace_ms(c.concurrent_traced_bytes())
                + cost.card_ms(0, c.cards_cleaned_concurrent);
            pause + concurrent
        })
        .sum();
    work / report.transactions.max(1) as f64
}

#[test]
fn cgc_throughput_cost_is_bounded() {
    let stw = run(CollectorMode::StopTheWorld, |_| {});
    let cgc = run(CollectorMode::Concurrent, |_| {});
    // Paper: 10% SPECjbb throughput loss. Allow CGC up to 1/0.6 of the
    // baseline's collector work per transaction.
    let stw_work = modelled_work_per_transaction(&stw);
    let cgc_work = modelled_work_per_transaction(&cgc);
    assert!(stw_work > 0.0, "the baseline collected");
    assert!(
        cgc_work <= stw_work / 0.6,
        "CGC modelled work {cgc_work:.4} ms per transaction vs STW {stw_work:.4} ms \
         — too much overhead"
    );
}

#[test]
fn stw_baseline_never_runs_concurrent_phases() {
    let stw = run(CollectorMode::StopTheWorld, |_| {});
    for c in &stw.log.cycles {
        assert_eq!(c.trigger, Some(Trigger::Baseline));
        assert_eq!(c.concurrent_traced_bytes(), 0);
        assert_eq!(c.increments, 0);
    }
}

#[test]
fn floating_garbage_appears_only_in_cgc() {
    let stw = run(CollectorMode::StopTheWorld, |_| {});
    let cgc = run(CollectorMode::Concurrent, |_| {});
    // Mostly-concurrent collection retains floating garbage: occupancy
    // after CGC cycles is >= the baseline's (Table 1 row 2).
    let stw_occ = stw.log.avg_occupancy_after();
    let cgc_occ = cgc.log.avg_occupancy_after();
    assert!(
        cgc_occ >= stw_occ - 0.02,
        "CGC occupancy {cgc_occ:.3} vs STW {stw_occ:.3}"
    );
}

#[test]
fn lazy_sweep_removes_sweep_from_pause() {
    let eager = run(CollectorMode::Concurrent, |c| c.sweep = SweepMode::Eager);
    let lazy = run(CollectorMode::Concurrent, |c| c.sweep = SweepMode::Lazy);
    let eager_sweep = eager.log.avg_sweep_ms();
    let lazy_sweep = lazy.log.avg_sweep_ms();
    assert!(eager_sweep > 0.0, "eager sweep must cost pause time");
    assert_eq!(lazy_sweep, 0.0, "lazy sweep happens outside the pause");
    // And lazy must still reclaim memory (the run completes without OOM)
    // with pauses no worse than eager's (generous noise headroom: the
    // runs are independent and share the machine with the rest of the
    // suite, so per-cycle work can drift between them).
    assert!(
        lazy.log.avg_pause_ms() < eager.log.avg_pause_ms() * 1.5 + 2.0,
        "lazy {:.2} vs eager {:.2}",
        lazy.log.avg_pause_ms(),
        eager.log.avg_pause_ms()
    );
}

#[test]
fn lazy_cgc_pause_has_no_bulk_sweep_phase() {
    let (lazy, lazy_pauses, lazy_chunks) =
        run_counting_chunks_in_pauses(CollectorMode::Concurrent, |c| c.sweep = SweepMode::Lazy);
    assert!(lazy.log.cycles.len() >= 3, "{}", lazy.log.cycles.len());
    let total_chunks: u64 = (HEAP / 8) as u64 / SWEEP_CHUNK_GRANULES as u64;
    for c in &lazy.log.cycles {
        // The pause's sweep step only *publishes* the epoch (snapshot +
        // per-chunk claim states); reclamation happens off-pause via
        // sweep-on-refill and the background sweeper.
        assert_eq!(
            c.sweep_ms, 0.0,
            "cycle {}: modelled sweep in pause",
            c.cycle
        );
        // The straggler fence is bounded and counted: it can never have
        // more chunks than the heap holds, and it runs pre-pause (its
        // wall time is reported separately, not inside pause_wall).
        assert!(
            c.straggler_chunks <= total_chunks + 1,
            "cycle {}: {} straggler chunks vs ~{total_chunks} total",
            c.cycle,
            c.straggler_chunks
        );
    }
    // With the bulk sweep off the pause path, the pause is just cards +
    // roots + drain + bookkeeping: no chunk is swept, by anyone, while a
    // lazy pause runs. The flight recorder decides it, not a wall-clock
    // bound, so the check holds on a loaded or small host. Chunks were
    // swept (off-pause), so the check is not vacuous.
    assert!(
        lazy_pauses.len() >= 3,
        "{} pauses retained",
        lazy_pauses.len()
    );
    assert!(lazy_chunks > 0, "lazy sweeping recorded no chunk spans");
    assert!(
        lazy_pauses.iter().all(|&n| n == 0),
        "sweep-chunk spans inside lazy pauses: {lazy_pauses:?}"
    );
    // Positive control: the same check sees an eager run's in-pause
    // sweep.
    let (_, eager_pauses, _) =
        run_counting_chunks_in_pauses(CollectorMode::Concurrent, |c| c.sweep = SweepMode::Eager);
    assert!(
        eager_pauses.iter().any(|&n| n > 0),
        "no sweep-chunk span inside any eager pause: {eager_pauses:?}"
    );
}

#[test]
fn pause_path_issues_at_most_one_wakeup_per_worker() {
    // The scheduler's acceptance criterion: no per-phase barriers. A
    // pause opens exactly one work-bucket session, and that open is the
    // only wakeup — each of the `stw_workers - 1` helpers is notified
    // at most once per pause, no matter how many phase buckets the
    // session publishes. With eager sweep there are no straggler-fence
    // sessions, so sessions and pauses must agree exactly.
    for mode in [CollectorMode::StopTheWorld, CollectorMode::Concurrent] {
        let report = run(mode, |c| c.sweep = SweepMode::Eager);
        let pauses = report.log.cycles.len() as f64;
        let helpers = (GcConfig::with_heap_bytes(HEAP).stw_workers - 1) as f64;
        assert!(pauses >= 3.0, "want several pauses, got {pauses}");
        let sessions = report.metric("gc_sched_sessions_total");
        let wakeups = report.metric("gc_sched_wakeups_total");
        assert_eq!(
            sessions, pauses,
            "{mode:?}: eager cycles open exactly one session per pause"
        );
        assert!(
            wakeups <= pauses * helpers,
            "{mode:?}: {wakeups} wakeups for {pauses} pauses x {helpers} helpers \
             — a per-phase barrier is back on the pause path"
        );
    }
}

#[test]
fn two_card_passes_reduce_final_cleaning() {
    // §2.1 footnote 2: a second concurrent card-cleaning pass further
    // reduces the stop-the-world share of card cleaning.
    let one = run(CollectorMode::Concurrent, |c| c.card_clean_passes = 1);
    let two = run(CollectorMode::Concurrent, |c| c.card_clean_passes = 2);
    let one_final = one.log.avg_final_card_cleaning();
    let two_final = two.log.avg_final_card_cleaning();
    assert!(
        two_final <= one_final * 2.0 + 300.0,
        "second pass should not increase final cleaning much: {one_final:.0} -> {two_final:.0}"
    );
}

#[test]
fn measured_phase_walls_partition_the_pause() {
    let cgc = run(CollectorMode::Concurrent, |c| c.sweep = SweepMode::Eager);
    assert!(cgc.log.cycles.len() >= 3);
    for c in &cgc.log.cycles {
        // The five timed phases never exceed the whole pause; the
        // remainder is cache retirement, audits, and accounting.
        assert!(
            c.phase_wall_total() <= c.pause_wall,
            "cycle {}: phases {:?} > pause {:?}",
            c.cycle,
            c.phase_wall_total(),
            c.pause_wall
        );
        // Eager cycles always drain packets and sweep under the pause.
        assert!(c.drain_wall > Duration::ZERO, "cycle {}", c.cycle);
        assert!(c.sweep_wall > Duration::ZERO, "cycle {}", c.cycle);
    }
    // At least one non-fresh cycle spent wall time cleaning cards.
    assert!(
        cgc.log.cycles.iter().any(|c| c.cards_wall > Duration::ZERO),
        "no cycle recorded card-cleaning wall time"
    );
}
