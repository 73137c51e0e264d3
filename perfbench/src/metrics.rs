//! Turns a run's measurements into the named metrics of `METRICS.md`.

use crate::harness::RunResult;
use crate::stats::{exact_percentile, Histogram, Percentile};
use crate::trace::{ratio, Breakdown, Kind};
use crate::window::rss_peak_mb;

const MIB: f64 = (1 << 20) as f64;

/// One named value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// For a percentile: its sample count and the samples beyond it.
    pub support: Option<Percentile>,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        support: None,
    }
}

fn pct(name: &'static str, unit: &'static str, p: Option<Percentile>, scale: f64) -> Metric {
    let p = p.unwrap_or(Percentile {
        value: 0.0,
        samples: 0,
        beyond: 0,
    });
    Metric {
        name,
        unit,
        value: p.value * scale,
        support: Some(p),
    }
}

/// Op counts and spans merged over threads.
pub struct Merged {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub slice_ops: [u64; 2],
    pub slice_service_ns: [u64; 2],
    pub spans: Breakdown,
}

pub fn merge(run: &RunResult) -> Merged {
    let mut out = Merged {
        attempted: 0,
        completed: 0,
        failed: 0,
        slice_ops: [0; 2],
        slice_service_ns: [0; 2],
        spans: Breakdown::default(),
    };
    for t in &run.threads {
        out.attempted += t.attempted;
        out.completed += t.completed;
        out.failed += t.failed;
        for i in 0..2 {
            out.slice_ops[i] += t.slice_ops[i];
            out.slice_service_ns[i] += t.slice_service_ns[i];
        }
        out.spans.add_buffer(t.spans.spans());
    }
    out
}

/// The mean over rounds of each round's percentile `q`, with the
/// smallest round's sample count and samples beyond. The host's speed
/// drifts between a faster and a slower state within a run; a percentile
/// of the pooled samples, or the median of the rounds, jumps to whichever
/// state holds the majority of the run, while the mean moves in
/// proportion to the time spent in each.
pub fn round_mean(rounds: &[Histogram], q: f64) -> Option<Percentile> {
    mean_of(rounds.iter().filter_map(|h| h.percentile(q)).collect())
}

/// [`round_mean`] for short exact sample lists (pause walls).
pub fn round_mean_exact(rounds: &[Vec<f64>], q: f64) -> Option<Percentile> {
    mean_of(
        rounds
            .iter()
            .filter_map(|v| exact_percentile(v, q))
            .collect(),
    )
}

fn mean_of(per_round: Vec<Percentile>) -> Option<Percentile> {
    if per_round.is_empty() {
        return None;
    }
    let sum: f64 = per_round.iter().map(|p| p.value).sum();
    Some(Percentile {
        value: sum / per_round.len() as f64,
        samples: per_round.iter().map(|p| p.samples).min().unwrap_or(0),
        beyond: per_round.iter().map(|p| p.beyond).min().unwrap_or(0),
    })
}

/// What users of the system see: measured untraced.
pub fn end_to_end(run: &RunResult, mg: &Merged) -> Vec<Metric> {
    let w = &run.window;
    let pauses: Vec<f64> = w
        .cycles
        .iter()
        .map(|c| c.pause_wall.as_secs_f64() * 1e3)
        .collect();
    let pause_total_s: f64 = pauses.iter().sum::<f64>() / 1e3;
    vec![
        m("setup_s", "s", run.setup_s()),
        m("throughput_ops_s", "1/s", mg.completed as f64 / w.secs),
        pct("op_p50_us", "us", round_mean(&run.round_latency, 0.5), 1e-3),
        pct(
            "op_p99_us",
            "us",
            round_mean(&run.round_latency, 0.99),
            1e-3,
        ),
        m(
            "pause_mean_ms",
            "ms",
            ratio(pauses.iter().sum(), pauses.len() as f64),
        ),
        pct("pause_p95_ms", "ms", exact_percentile(&pauses, 0.95), 1.0),
        m("pause_share", "fraction", pause_total_s / w.secs),
        m(
            "cpu_us_per_op",
            "us",
            ratio(w.cpu_s * 1e6, mg.completed as f64),
        ),
        m("rss_peak_mb", "MiB", rss_peak_mb()),
    ]
}

/// One number per layer: counters are window deltas, span figures come
/// from the traced slices.
pub fn per_layer(run: &RunResult, mg: &Merged) -> Vec<Metric> {
    let w = &run.window;
    let c = |name: &str| w.counter(name);
    let n_cycles = w.cycles.len() as f64;
    let mean = |f: &dyn Fn(&mcgc_core::CycleStats) -> f64| ratio(w.sum(f), n_cycles);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let alloc_mb = w.allocated_bytes as f64 / MIB;
    let traced_mut = c("gc_traced_mutator_bytes_total");
    let traced_bg = c("gc_traced_background_bytes_total");
    let traced_stw = c("gc_traced_stw_bytes_total");
    let traced_all = traced_mut + traced_bg + traced_stw;
    let on_pause = c("gc_sweep_reclaimed_on_pause_granules_total");
    let off_pause = c("gc_sweep_reclaimed_off_pause_granules_total");
    let sp = &mg.spans;
    let pms = &run.postmortems;
    let pm_mean = |f: &dyn Fn(&mcgc_telemetry::trace_export::Postmortem) -> f64| {
        ratio(pms.iter().map(f).sum(), pms.len() as f64)
    };
    let service_mean = |i: usize| ratio(mg.slice_service_ns[i] as f64, mg.slice_ops[i] as f64);
    vec![
        // core::mutator, from the benchmark's spans
        pct(
            "mutator.alloc_ns_p50",
            "ns",
            sp.alloc_hist.percentile(0.5),
            1.0,
        ),
        pct(
            "mutator.alloc_ns_p99",
            "ns",
            sp.alloc_hist.percentile(0.99),
            1.0,
        ),
        m(
            "mutator.alloc_share",
            "fraction",
            sp.share(&[Kind::Alloc, Kind::AllocInto]),
        ),
        m(
            "mutator.write_ref_ns_mean",
            "ns",
            sp.mean_ns(Kind::WriteRef),
        ),
        m(
            "mutator.safepoint_wait_share",
            "fraction",
            sp.share(&[Kind::Safepoint]),
        ),
        m(
            "mutator.app_self_share",
            "fraction",
            ratio(sp.op_self_ns as f64, sp.op_wall_ns as f64),
        ),
        // heap
        m("heap.alloc_mb_s", "MiB/s", alloc_mb / w.secs),
        m(
            "heap.alloc_slow_per_mb",
            "count/MiB",
            ratio(
                c("heap_alloc_slow_path_total") + c("heap_alloc_large_total"),
                alloc_mb,
            ),
        ),
        m(
            "heap.refill_steals",
            "count",
            c("heap_alloc_refill_steals_total"),
        ),
        m(
            "heap.shard_lock_contention",
            "count",
            c("heap_alloc_shard_lock_contention_total"),
        ),
        m(
            "heap.wilderness_refills",
            "count",
            c("heap_alloc_wilderness_refills_total"),
        ),
        m(
            "heap.sweep_refill_chunks",
            "count",
            c("gc_sweep_on_refill_chunks_total"),
        ),
        m(
            "heap.sweep_bg_chunks",
            "count",
            c("gc_bg_sweep_chunks_total"),
        ),
        m(
            "heap.reclaimed_off_pause_frac",
            "fraction",
            ratio(off_pause, on_pause + off_pause),
        ),
        // core::tracing + core::pacing
        m("tracing.mutator_mb", "MiB", traced_mut / MIB),
        m("tracing.background_mb", "MiB", traced_bg / MIB),
        m("tracing.stw_mb", "MiB", traced_stw / MIB),
        m(
            "pacing.concurrent_mark_frac",
            "fraction",
            ratio(traced_mut + traced_bg, traced_all),
        ),
        m(
            "pacing.increments_mutator",
            "count",
            c("gc_increments_mutator_total"),
        ),
        m(
            "pacing.increments_background",
            "count",
            c("gc_increments_background_total"),
        ),
        m(
            "pacing.tracing_factor_mean",
            "ratio",
            ratio(
                w.sum(|cy| cy.tracing_factor_sum),
                w.sum(|cy| cy.increments as f64),
            ),
        ),
        m(
            "pacing.emergency_kickoffs",
            "count",
            c("gc_emergency_kickoffs_total"),
        ),
        m(
            "pacing.cards_left_mean",
            "count",
            mean(&|cy| cy.cards_left as f64),
        ),
        // core::collector pause phases
        pct(
            "pause_p50_ms",
            "ms",
            round_mean_exact(&run.round_pauses_ms, 0.5),
            1.0,
        ),
        m("collector.cycles", "count", n_cycles),
        m(
            "collector.pause_cards_ms",
            "ms",
            mean(&|cy| ms(cy.cards_wall)),
        ),
        m(
            "collector.pause_roots_ms",
            "ms",
            mean(&|cy| ms(cy.roots_wall)),
        ),
        m(
            "collector.pause_drain_ms",
            "ms",
            mean(&|cy| ms(cy.drain_wall)),
        ),
        m(
            "collector.pause_sweep_ms",
            "ms",
            mean(&|cy| ms(cy.sweep_wall)),
        ),
        m(
            "collector.pause_clear_ms",
            "ms",
            mean(&|cy| ms(cy.clear_wall)),
        ),
        m(
            "collector.pause_straggler_ms",
            "ms",
            mean(&|cy| ms(cy.straggler_wall)),
        ),
        m(
            "collector.phase_coverage",
            "fraction",
            ratio(
                w.sum(|cy| cy.phase_wall_total().as_secs_f64()),
                w.sum(|cy| cy.pause_wall.as_secs_f64()),
            ),
        ),
        m(
            "collector.card_clean_ns_per_card",
            "ns",
            ratio(
                w.sum(|cy| cy.cards_wall.as_nanos() as f64),
                w.sum(|cy| cy.cards_cleaned_stw as f64),
            ),
        ),
        m(
            "collector.cards_stw_per_cycle",
            "count",
            mean(&|cy| cy.cards_cleaned_stw as f64),
        ),
        m(
            "collector.cards_concurrent_per_cycle",
            "count",
            mean(&|cy| cy.cards_cleaned_concurrent as f64),
        ),
        m(
            "collector.mark_mb_per_s",
            "MiB/s",
            ratio(
                w.sum(|cy| cy.stw_traced_bytes as f64) / MIB,
                w.sum(|cy| cy.drain_wall.as_secs_f64()),
            ),
        ),
        m("collector.handshakes", "count", c("gc_handshakes_total")),
        m(
            "collector.handshake_timeouts",
            "count",
            c("gc_handshake_timeouts_total"),
        ),
        // core::scheduler
        m("scheduler.sessions", "count", c("gc_sched_sessions_total")),
        m(
            "scheduler.wakeups_per_pause",
            "count",
            ratio(c("gc_sched_wakeups_total"), n_cycles),
        ),
        m("scheduler.stalls", "count", c("gc_sched_stalls_total")),
        m(
            "scheduler.drain_wait_ms",
            "ms",
            pm_mean(&|p| p.drain_wait_ns as f64 / 1e6),
        ),
        m(
            "scheduler.worst_imbalance",
            "ratio",
            pm_mean(&|p| p.worst_imbalance),
        ),
        // packets
        m(
            "packets.cas_ops_per_mb_traced",
            "count/MiB",
            ratio(c("gc_pool_cas_ops_total"), traced_all / MIB),
        ),
        m(
            "packets.input_claims",
            "count",
            c("gc_pool_input_claims_total"),
        ),
        m(
            "packets.output_claims",
            "count",
            c("gc_pool_output_claims_total"),
        ),
        m("packets.overflows", "count", c("gc_pool_overflows_total")),
        m(
            "packets.overflow_backoffs",
            "count",
            c("gc_pool_overflow_backoffs_total"),
        ),
        m(
            "packets.in_use_watermark",
            "count",
            w.cycles
                .iter()
                .map(|cy| cy.packets_in_use_watermark)
                .chain([w.pool_watermark])
                .max()
                .unwrap_or(0) as f64,
        ),
        // membar
        m(
            "membar.fences_per_mb_alloc",
            "count/MiB",
            ratio(w.fences.total() as f64, alloc_mb),
        ),
        m("membar.alloc_batch", "count", w.fences.alloc_batch as f64),
        m("membar.trace_batch", "count", w.fences.trace_batch as f64),
        m(
            "membar.packet_publish",
            "count",
            w.fences.packet_publish as f64,
        ),
        m(
            "membar.card_handshake",
            "count",
            w.fences.card_handshake as f64,
        ),
        // the benchmark itself
        m(
            "bench.trace_overhead",
            "fraction",
            ratio(service_mean(1), service_mean(0)) - 1.0,
        ),
        m("bench.traced_ops", "count", sp.ops as f64),
        m(
            "bench.ops_failed_frac",
            "fraction",
            ratio(mg.failed as f64, mg.attempted as f64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_percentiles_are_averaged() {
        let round = |base: u64, n: u64| {
            let mut h = Histogram::default();
            for v in 0..n {
                h.record(base + v);
            }
            h
        };
        // Two rounds in the host's fast state, one in its slow state: the
        // figure moves by a third of the gap, not all of it.
        let rounds = [round(1000, 1000), round(1000, 2000), round(2000, 1000)];
        let p = round_mean(&rounds, 0.5).unwrap();
        let expected = (1500.0 + 2000.0 + 2500.0) / 3.0;
        assert!((p.value - expected).abs() < 10.0, "{}", p.value);
        assert_eq!(
            (p.samples, p.beyond),
            (1000, 500),
            "smallest round's support"
        );
        assert!(round_mean(&[], 0.5).is_none());
        let pauses = [vec![1.0, 2.0, 3.0], vec![2.0, 3.0, 4.0], vec![30.0, 40.0]];
        let p = round_mean_exact(&pauses, 0.5).unwrap();
        assert_eq!(p.value, (2.0 + 3.0 + 30.0) / 3.0, "round medians 2, 3, 30");
        assert_eq!((p.samples, p.beyond), (2, 1));
    }
}
