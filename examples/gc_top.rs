//! `gc_top` — a live, `top`-style one-line-per-second view of the
//! collector, driven entirely by the telemetry hub (histograms, gauges,
//! flight-recorder postmortem). Runs a jbb-style workload in the
//! background and prints, each second: phase, cycle, minor cycles so
//! far (sticky mark bits), pause p50/p99/max,
//! minimum mutator utilization, heap and packet-pool occupancy, bytes
//! traced by mutators/background/STW, and the pacer's §3 estimates.
//!
//! ```text
//! cargo run --release --example gc_top [seconds] [heap_mb]
//! ```
//!
//! End with a text + JSON export of the metrics registry.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use mcgc::workloads::jbb::{self, JbbOptions};
use mcgc::{Gc, GcConfig, Phase};

fn mb(v: f64) -> f64 {
    v / (1 << 20) as f64
}

/// Retired metric names the display still accepts: the scheduler's
/// `gc_sched_*` counters replaced the worker-gang's `gang_*` family,
/// and the drain wait replaced the per-phase barrier wait.
const METRIC_ALIASES: &[(&str, &str)] = &[
    ("gc_sched_workers", "gang_workers"),
    ("gc_sched_sessions_total", "gang_dispatches_total"),
    ("gc_sched_stalls_total", "gang_stalls_total"),
    (
        "gc_postmortem_drain_wait_ns",
        "gc_postmortem_barrier_wait_ns",
    ),
];

/// Reads a metric by its current (prefixed) name, falling back to the
/// pre-`gc_`/`heap_` convention alias (and the retired `gang_*` names)
/// so the display keeps working against registries serialized before
/// the renames.
fn metric(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    if let Some(v) = m.get(name) {
        return *v;
    }
    if let Some((_, old)) = METRIC_ALIASES.iter().find(|(new, _)| *new == name) {
        if let Some(v) = m.get(*old) {
            return *v;
        }
    }
    if let Some(i) = name
        .strip_prefix("gc_sched_worker")
        .and_then(|rest| rest.strip_suffix("_items_total"))
    {
        if let Some(v) = m.get(&format!("gang_worker{i}_tasks_total")) {
            return *v;
        }
    }
    for prefix in ["gc_", "heap_"] {
        if let Some(old) = name.strip_prefix(prefix) {
            if let Some(v) = m.get(old) {
                return *v;
            }
        }
    }
    0.0
}

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let heap_mb: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let heap = heap_mb << 20;

    let gc = Gc::new(GcConfig::with_heap_bytes(heap));
    let mut opts = JbbOptions::sized_for(heap, 2, 0.6);
    opts.duration = Duration::from_secs(secs);

    println!(
        "gc_top: jbb workload, {heap_mb} MB heap, {} warehouses, {secs}s",
        opts.warehouses
    );
    println!(
        "{:<4} {:>5} {:>5} {:>5}  {:>9} {:>9} {:>9}  {:>6}  {:>5} {:>5}  {:>7} {:>7} {:>7}  {:>5} {:>7} {:>7} {:>6}",
        "sec", "phase", "cycle", "minor", "p50ms", "p99ms", "maxms", "mmu1s", "heap%", "pool%",
        "mu_MB", "bg_MB", "stw_MB", "K0", "L_MB", "M_MB", "B"
    );

    let worker = {
        let gc = Arc::clone(&gc);
        std::thread::spawn(move || jbb::run(&gc, &opts))
    };

    let mut sec = 0u64;
    while !worker.is_finished() {
        std::thread::sleep(Duration::from_secs(1));
        sec += 1;
        gc.telemetry_sample();
        let tel = gc.telemetry();
        let pauses = tel.pause_histogram().snapshot();
        let mmu = tel.minimum_mutator_utilization(1_000_000_000);
        let m: BTreeMap<String, f64> = tel.registry().sample().into_iter().collect();
        let g = |name: &str| metric(&m, name);
        println!(
            "{:<4} {:>5} {:>5} {:>5}  {:>9.2} {:>9.2} {:>9.2}  {:>6.3}  {:>5.1} {:>5.2}  {:>7.1} {:>7.1} {:>7.1}  {:>5.1} {:>7.1} {:>7.1} {:>6.3}",
            sec,
            match gc.phase() {
                Phase::Concurrent => "CONC",
                Phase::Idle => "idle",
            },
            g("gc_cycle") as u64,
            g("gc_minor_cycles_total") as u64,
            pauses.p50 as f64 / 1e6,
            pauses.p99 as f64 / 1e6,
            pauses.max as f64 / 1e6,
            mmu,
            g("heap_occupancy") * 100.0,
            g("gc_pool_occupancy") * 100.0,
            mb(g("gc_traced_mutator_bytes_total")),
            mb(g("gc_traced_background_bytes_total")),
            mb(g("gc_traced_stw_bytes_total")),
            g("gc_pacer_k0"),
            mb(g("gc_pacer_l_bytes")),
            mb(g("gc_pacer_m_bytes")),
            g("gc_pacer_b"),
        );
    }
    let report = worker.join().expect("workload thread");
    gc.shutdown();
    gc.telemetry_sample();

    println!(
        "\nworkload: {:.0} tx/s over {:.1}s, {} cycles ({} minor)",
        report.throughput(),
        report.wall.as_secs_f64(),
        report.log.cycles.len(),
        report.log.cycles.iter().filter(|c| c.minor).count()
    );
    // Degraded-mode health: all zeros on a healthy run; non-zero rows
    // show the resilience machinery (escalation ladder, pause watchdog,
    // handshake timeout fallback, overflow backoff) actually engaging.
    let m: BTreeMap<String, f64> = gc.telemetry().registry().sample().into_iter().collect();
    let g = |name: &str| metric(&m, name) as u64;
    println!("\n--- degraded-mode counters ---");
    println!(
        "alloc ladder : {} retries, rungs finish/stw {}/{}, {} OOMs",
        g("gc_alloc_retry_total"),
        g("gc_alloc_rung_finish_total"),
        g("gc_alloc_rung_stw_total"),
        g("gc_alloc_oom_total"),
    );
    println!(
        "watchdog     : {} packets reclaimed from stalled tracers ({} alive)",
        g("gc_watchdog_reclaimed_packets_total"),
        g("gc_bg_tracers_alive"),
    );
    println!(
        "handshakes   : {} acked, {} timed out (cards left registered)",
        g("gc_handshake_acks_total"),
        g("gc_handshake_timeouts_total"),
    );
    println!(
        "pool         : {} overflow backoffs, {} input / {} output packet claims",
        g("gc_pool_overflow_backoffs_total"),
        g("gc_pool_input_claims_total"),
        g("gc_pool_output_claims_total"),
    );
    println!(
        "alloc shards : {} shards, {} contended locks, {} refill steals, {} wilderness refills",
        g("heap_alloc_shards"),
        g("heap_alloc_shard_lock_contention_total"),
        g("heap_alloc_refill_steals_total"),
        g("heap_alloc_wilderness_refills_total"),
    );
    // Scheduler utilization: per-worker claimed item counts show the
    // atomic-cursor load balancing; stalls come from the chaos site.
    // One session (= one wakeup round) per pause is the design point.
    let claimed: Vec<String> = (0..g("gc_sched_workers") as usize)
        .map(|i| g(&format!("gc_sched_worker{i}_items_total")).to_string())
        .collect();
    println!(
        "scheduler    : {} workers ({} pool threads), {} sessions, {} wakeups, {} stalls, claims/worker [{}]",
        g("gc_sched_workers"),
        g("gc_sched_pool_threads"),
        g("gc_sched_sessions_total"),
        g("gc_sched_wakeups_total"),
        g("gc_sched_stalls_total"),
        claimed.join(" "),
    );
    // Per-bucket runs/items: which work buckets each session opened and
    // how much was claimed out of them across all workers.
    let buckets: Vec<String> = ["cards", "roots", "drain", "sweep", "flood", "straggler"]
        .iter()
        .filter_map(|name| {
            let runs = g(&format!("gc_sched_bucket_{name}_runs_total"));
            let items = g(&format!("gc_sched_bucket_{name}_items_total"));
            (runs > 0).then(|| format!("{name} {runs}r/{items}i"))
        })
        .collect();
    println!("sched buckets: {}", buckets.join(", "));
    println!(
        "pause phases : cards {}ms roots {}ms drain {}ms sweep {}ms clear {}ms (wall, cumulative)",
        g("gc_pause_cards_ns_total") / 1_000_000,
        g("gc_pause_roots_ns_total") / 1_000_000,
        g("gc_pause_drain_ns_total") / 1_000_000,
        g("gc_pause_sweep_ns_total") / 1_000_000,
        g("gc_pause_clear_ns_total") / 1_000_000,
    );
    // Sweep-epoch split: with lazy sweep, reclamation should land almost
    // entirely off-pause (refill + background), with a small straggler
    // remainder drained just before the next cycle.
    println!(
        "sweep epochs : reclaimed {:.1}/{:.1} MiB on/off-pause; chunks refill {} bg {} straggler {} ({}ms fences)",
        metric(&m, "gc_sweep_reclaimed_on_pause_granules_total") * mcgc::heap::GRANULE_BYTES as f64
            / (1 << 20) as f64,
        metric(&m, "gc_sweep_reclaimed_off_pause_granules_total")
            * mcgc::heap::GRANULE_BYTES as f64
            / (1 << 20) as f64,
        g("gc_sweep_on_refill_chunks_total"),
        g("gc_bg_sweep_chunks_total"),
        g("gc_sweep_straggler_chunks_total"),
        g("gc_sweep_straggler_ns_total") / 1_000_000,
    );
    // Replay: minor cycles' epochs reuse the last sweep of every chunk
    // nothing was allocated in since; a replayed chunk still counts as a
    // chunk of the path that claimed it. Eager pauses' chunks are the
    // sweep bucket's items.
    let sc = gc.heap().sweep_counters();
    let claimed = sc.refill_chunks
        + sc.bg_chunks
        + sc.straggler_chunks
        + sc.escalation_chunks
        + g("gc_sched_bucket_sweep_items_total");
    let replayed = g("gc_sweep_chunks_replayed_total");
    println!(
        "sweep chunks : {} swept, {replayed} replayed from their memos",
        claimed - replayed,
    );
    println!(
        "postmortem   : worst pause {:.2}ms, {:.0}% attributed, imbalance {:.2}, drain wait {:.2}ms",
        metric(&m, "gc_postmortem_pause_wall_ns") / 1e6,
        metric(&m, "gc_postmortem_coverage") * 100.0,
        metric(&m, "gc_postmortem_worst_imbalance"),
        metric(&m, "gc_postmortem_drain_wait_ns") / 1e6,
    );
    // The flight recorder's full attribution for the worst pause —
    // per-phase wall shares and per-worker busy/idle splits.
    if let Some(pm) = mcgc::telemetry::trace_export::worst_pause_postmortem(gc.telemetry().spans())
    {
        println!("\n--- worst-pause postmortem ---\n{}", pm.render());
    }

    println!(
        "\n--- registry (text) ---\n{}",
        gc.telemetry().registry().render_text()
    );
    println!(
        "--- registry (json) ---\n{}",
        gc.telemetry().registry().render_json()
    );
}
