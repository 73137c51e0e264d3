//! Pause scaling across scheduler worker counts *and sweep modes*: the
//! measured stop-the-world wall time at `stw_workers` ∈ {1, 2, 4, 8},
//! for the stop-the-world baseline (eager sweep — its pauses carry the
//! whole mark and sweep in-pause, the most parallelizable work) and for
//! the mostly-concurrent collector under all three sweep strategies:
//!
//! - `eager`: sweep runs in the pause as a scheduler bucket;
//! - `lazy`: the pause only publishes a sweep epoch; reclamation is
//!   paid by allocation-cache refills (sweep-on-refill) and the next
//!   cycle's straggler fence;
//! - `lazy+bg`: same, plus the background sweeper draining chunks in
//!   the idle windows between cycles.
//!
//! A fifth `scheduler` arm re-runs the baseline with `pin_workers`: the
//! pool threads take CPU affinity at spawn, so bucket slices stop
//! migrating between cores mid-pause. On a host with fewer cores than
//! workers the pinned arm degrades by design — that is the point of
//! measuring it.
//!
//! What the worker axis isolates: every pause phase — final card
//! cleaning, root rescanning, packet drain, (eager) sweep — is a
//! prioritized work bucket served by the *persistent* scheduler pool,
//! claimed from atomic cursors. `stw_workers = 1` runs
//! every bucket inline on the leader; higher counts split the same
//! cursors across the resident workers with **one condvar wakeup per
//! pause** (the session open) and no `thread::spawn` or per-phase
//! barrier on the pause path. On a multi-core host the cursor split is
//! the speedup; a single-CPU runner serializes the workers and mostly
//! measures the session protocol's overhead. (The retired per-phase
//! dispatch produced rare 100 ms+ max-pause outliers exactly here: each
//! phase's wakeup-then-spin barrier could yield-storm on an
//! oversubscribed CPU, and five phases per pause gave five chances per
//! cycle. One wakeup per pause and timed 50 µs waits between buckets
//! removed that failure mode; the outlier guard below documents any
//! recurrence with a flight-recorder postmortem.)
//!
//! What the sweep axis isolates: how much pause wall time the sweep
//! phase itself costs, and what moving it off-pause does to allocation
//! throughput (refills now pay for sweeping) and to the next cycle's
//! straggler fence. Columns are measured wall (not work-model)
//! milliseconds from the pause-phase timers in every `CycleStats`.
//!
//! Prints one row per (mode, sweep, workers) point and writes
//! machine-readable results to `BENCH_pause.json` (override with
//! `MCGC_BENCH_OUT`); CI's `bench-smoke` job gates on that file and
//! uploads it as an artifact (it is not checked in). Any run whose max
//! pause exceeds 5x the running average dumps the worst-pause
//! postmortem (per-phase wall shares, per-worker busy/idle splits) so
//! an outlier is diagnosable from the CI log alone.

use std::time::Duration;

use mcgc_core::{CollectorMode, GcLog, SweepMode};
use mcgc_workloads::jbb::run_standalone;

struct Point {
    mode: &'static str,
    sweep: &'static str,
    workers: usize,
    cycles: usize,
    avg_pause_ms: f64,
    max_pause_ms: f64,
    avg_cards_ms: f64,
    avg_roots_ms: f64,
    avg_drain_ms: f64,
    avg_sweep_ms: f64,
    avg_clear_ms: f64,
    /// Straggler fence (lazy modes): runs pre-pause under the
    /// coordinator lock, so it is *not* part of `avg_pause_ms`.
    avg_straggler_ms: f64,
    avg_straggler_chunks: f64,
    /// Workload allocation throughput, transactions/second.
    throughput: f64,
}

fn avg_ms(log: &GcLog, f: impl Fn(&mcgc_core::CycleStats) -> Duration) -> f64 {
    if log.cycles.is_empty() {
        return f64::NAN;
    }
    log.cycles
        .iter()
        .map(|c| f(c).as_secs_f64() * 1e3)
        .sum::<f64>()
        / log.cycles.len() as f64
}

/// Dumps the flight-recorder postmortem when any pause in the run blew
/// past 5x the running average up to that point — the automated outlier
/// diagnosis. Warm-up is excluded (the first pauses dominate any
/// running average trivially).
fn dump_outlier_postmortem(label: &str, report: &mcgc_workloads::RunReport) {
    let mut sum_ms = 0.0;
    let mut outlier: Option<(u64, f64, f64)> = None;
    for (n, c) in report.log.cycles.iter().enumerate() {
        let pause_ms = c.pause_wall.as_secs_f64() * 1e3;
        if n >= 3 {
            let avg = sum_ms / n as f64;
            if pause_ms > avg * 5.0 && outlier.is_none_or(|(_, p, _)| pause_ms > p) {
                outlier = Some((c.cycle, pause_ms, avg));
            }
        }
        sum_ms += pause_ms;
    }
    if let Some((cycle, pause_ms, avg_ms)) = outlier {
        println!(
            "!! outlier at {label}: cycle {cycle} paused {pause_ms:.2} ms \
             (5x bar over the {avg_ms:.2} ms running average)"
        );
        match &report.worst_pause_postmortem {
            Some(pm) => println!("--- worst-pause postmortem ---\n{pm}"),
            None => println!("(no postmortem recorded)"),
        }
    }
}

fn run(
    mode: CollectorMode,
    mode_name: &'static str,
    sweep: SweepMode,
    bg_sweep: bool,
    pin: bool,
    sweep_name: &'static str,
    workers: usize,
) -> Point {
    let heap = mcgc_bench::heap_bytes(32);
    let mut cfg = mcgc_bench::gc_config(mode, heap);
    cfg.stw_workers = workers;
    cfg.sweep = sweep;
    cfg.bg_sweep = bg_sweep;
    cfg.pin_workers = pin;
    cfg.background_threads = if mode == CollectorMode::Concurrent {
        2
    } else {
        0
    };
    let opts = mcgc_bench::jbb_opts(heap, 2, mcgc_bench::seconds(1.5));
    let report = run_standalone(cfg, &opts);
    dump_outlier_postmortem(
        &format!("{mode_name}/{sweep_name}/{workers}-workers"),
        &report,
    );
    let throughput = report.throughput();
    let log = mcgc_bench::steady(&report.log);
    let straggler_chunks = if log.cycles.is_empty() {
        f64::NAN
    } else {
        log.cycles.iter().map(|c| c.straggler_chunks).sum::<u64>() as f64 / log.cycles.len() as f64
    };
    Point {
        mode: mode_name,
        sweep: sweep_name,
        workers,
        cycles: log.cycles.len(),
        avg_pause_ms: log.avg_pause_wall_ms(),
        max_pause_ms: log.max_pause_wall_ms(),
        avg_cards_ms: avg_ms(&log, |c| c.cards_wall),
        avg_roots_ms: avg_ms(&log, |c| c.roots_wall),
        avg_drain_ms: avg_ms(&log, |c| c.drain_wall),
        avg_sweep_ms: avg_ms(&log, |c| c.sweep_wall),
        avg_clear_ms: avg_ms(&log, |c| c.clear_wall),
        avg_straggler_ms: avg_ms(&log, |c| c.straggler_wall),
        avg_straggler_chunks: straggler_chunks,
        throughput,
    }
}

fn main() {
    mcgc_bench::banner(
        "pause scaling: GC scheduler at 1/2/4/8 workers × sweep mode (+ pinned arm)",
        "fully parallel stop-the-world phase (§2.2, §6); lazy sweep off the pause path",
    );
    println!(
        "{:<6} {:<8} {:>7} {:>7}  {:>9} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8}  {:>9} {:>7}  {:>9}",
        "mode",
        "sweep",
        "workers",
        "cycles",
        "avg_ms",
        "max_ms",
        "cards",
        "roots",
        "drain",
        "sweep",
        "clear",
        "fence_ms",
        "chunks",
        "tx/s"
    );
    let worker_points = [1usize, 2, 4, 8];
    // stw stays eager (its pause is the whole collection by definition);
    // cgc runs the full sweep-mode axis. The `scheduler` arm is the
    // baseline again with the pool pinned to CPUs — the affinity knob's
    // A/B partner for the unpinned stw/eager row.
    let grid: &[(CollectorMode, &str, SweepMode, bool, bool, &str)] = &[
        (
            CollectorMode::StopTheWorld,
            "stw",
            SweepMode::Eager,
            false,
            false,
            "eager",
        ),
        (
            CollectorMode::Concurrent,
            "cgc",
            SweepMode::Eager,
            false,
            false,
            "eager",
        ),
        (
            CollectorMode::Concurrent,
            "cgc",
            SweepMode::Lazy,
            false,
            false,
            "lazy",
        ),
        (
            CollectorMode::Concurrent,
            "cgc",
            SweepMode::Lazy,
            true,
            false,
            "lazy+bg",
        ),
        (
            CollectorMode::StopTheWorld,
            "stw",
            SweepMode::Eager,
            false,
            true,
            "scheduler",
        ),
    ];
    let mut points = Vec::new();
    for &(mode, name, sweep, bg, pin, sweep_name) in grid {
        for &workers in &worker_points {
            let p = run(mode, name, sweep, bg, pin, sweep_name, workers);
            println!(
                "{:<6} {:<8} {:>7} {:>7}  {:>9.3} {:>9.3}  {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}  {:>9.3} {:>7.1}  {:>9.0}",
                p.mode,
                p.sweep,
                p.workers,
                p.cycles,
                p.avg_pause_ms,
                p.max_pause_ms,
                p.avg_cards_ms,
                p.avg_roots_ms,
                p.avg_drain_ms,
                p.avg_sweep_ms,
                p.avg_clear_ms,
                p.avg_straggler_ms,
                p.avg_straggler_chunks,
                p.throughput,
            );
            points.push(p);
        }
    }

    let point = |mode: &str, sweep: &str, workers: usize| {
        points
            .iter()
            .find(|p| p.mode == mode && p.sweep == sweep && p.workers == workers)
    };
    let pause = |mode: &str, sweep: &str, workers: usize| {
        point(mode, sweep, workers).map_or(f64::NAN, |p| p.avg_pause_ms)
    };
    let speedup_4 = pause("stw", "eager", 1) / pause("stw", "eager", 4);
    let speedup_8 = pause("stw", "eager", 1) / pause("stw", "eager", 8);
    let sched_speedup_4 = pause("stw", "scheduler", 1) / pause("stw", "scheduler", 4);
    // Sweep-mode summary at the 2-worker point:
    // how much pause the lazy epoch removes, and what it costs in
    // allocation throughput now that refills pay for sweeping.
    let summary_workers = 2;
    let eager = point("cgc", "eager", summary_workers);
    let lazy_bg = point("cgc", "lazy+bg", summary_workers);
    let pause_reduction = match (eager, lazy_bg) {
        (Some(e), Some(l)) if e.avg_pause_ms > 0.0 => 1.0 - l.avg_pause_ms / e.avg_pause_ms,
        _ => f64::NAN,
    };
    let throughput_delta = match (eager, lazy_bg) {
        (Some(e), Some(l)) if e.throughput > 0.0 => l.throughput / e.throughput - 1.0,
        _ => f64::NAN,
    };
    println!();
    println!("stw avg-pause speedup, 1 -> 4 workers: {speedup_4:.2}x");
    println!("stw avg-pause speedup, 1 -> 8 workers: {speedup_8:.2}x");
    println!("pinned (scheduler arm) speedup, 1 -> 4 workers: {sched_speedup_4:.2}x");
    println!("(>1 needs real cores: on a 1-CPU host the workers time-slice");
    println!(" and these ratios measure only the session protocol's overhead)");
    println!(
        "cgc pause reduction, eager -> lazy+bg sweep ({summary_workers} workers): {:.0}%",
        pause_reduction * 100.0
    );
    println!(
        "cgc allocation-throughput delta, eager -> lazy+bg: {:+.1}%",
        throughput_delta * 100.0
    );

    let mut json = String::from("{\n  \"bench\": \"pause_scaling\",\n");
    json.push_str(&mcgc_bench::host_meta_json("stw|cgc"));
    json.push_str(&format!(
        "  \"heap_bytes\": {},\n  \"worker_points\": [1, 2, 4, 8],\n  \
         \"sweep_modes\": [\"eager\", \"lazy\", \"lazy+bg\", \"scheduler\"],\n",
        mcgc_bench::heap_bytes(32)
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sweep\": \"{}\", \"workers\": {}, \"cycles\": {}, \
             \"avg_pause_wall_ms\": {:.4}, \"max_pause_wall_ms\": {:.4}, \
             \"avg_cards_ms\": {:.4}, \"avg_roots_ms\": {:.4}, \"avg_drain_ms\": {:.4}, \
             \"avg_sweep_ms\": {:.4}, \"avg_clear_ms\": {:.4}, \
             \"avg_straggler_ms\": {:.4}, \"avg_straggler_chunks\": {:.1}, \
             \"throughput_tx_s\": {:.0}}}{}\n",
            p.mode,
            p.sweep,
            p.workers,
            p.cycles,
            p.avg_pause_ms,
            p.max_pause_ms,
            p.avg_cards_ms,
            p.avg_roots_ms,
            p.avg_drain_ms,
            p.avg_sweep_ms,
            p.avg_clear_ms,
            p.avg_straggler_ms,
            p.avg_straggler_chunks,
            p.throughput,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_4_workers\": {speedup_4:.3},\n  \"speedup_8_workers\": {speedup_8:.3},\n  \
         \"scheduler_speedup_4_workers\": {sched_speedup_4:.3},\n  \
         \"pause_reduction_lazy_bg\": {pause_reduction:.3},\n  \
         \"throughput_delta_lazy_bg\": {throughput_delta:.3}\n}}\n"
    ));
    let out = std::env::var("MCGC_BENCH_OUT").unwrap_or_else(|_| "BENCH_pause.json".into());
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
