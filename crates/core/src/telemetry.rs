//! Collector-side telemetry glue: a [`Telemetry`] hub plus pre-resolved
//! counter/gauge handles for every hot-path metric.
//!
//! Handles are registered once at collector construction; hot paths only
//! touch the `Arc<Counter>`/`Arc<Gauge>` atomics and never the registry's
//! name map. Counters that mirror per-cycle accounting are folded in once
//! per cycle (from the finished [`CycleStats`]), not per object, so the
//! always-on cost stays in the noise. Gauges are *pulled*: they refresh
//! only when [`Gc::telemetry_sample`](crate::Gc::telemetry_sample) runs
//! (e.g. once a second from `gc_top`).

use std::sync::Arc;

use mcgc_telemetry::{Counter, Gauge, Telemetry};

use crate::stats::CycleStats;
use crate::tracing::TraceRole;

/// Which rung of the allocation-failure escalation ladder ran (finish
/// concurrent phase → full stop-the-world → grow the heap → bounded
/// backpressure stall → typed OOM).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum EscalationRung {
    /// Rung 1: the concurrent phase was forced to completion.
    FinishConcurrent,
    /// Rung 2: a full stop-the-world collection from idle.
    FullStw,
    /// Rung 3: a new heap segment was committed (soft growth past the
    /// initial arena, up to the hard limit).
    Grow,
}

/// The collector's telemetry bundle (one per [`crate::Gc`]).
pub(crate) struct GcTelemetry {
    /// The embedded hub: flight recorder, histograms, registry, MMU
    /// tracker.
    pub(crate) hub: Telemetry,

    // -- counters (cumulative across cycles, updated at cycle end) --
    cycles: Arc<Counter>,
    minor_cycles: Arc<Counter>,
    pauses: Arc<Counter>,
    traced_mutator_bytes: Arc<Counter>,
    traced_background_bytes: Arc<Counter>,
    traced_stw_bytes: Arc<Counter>,
    cards_cleaned_concurrent: Arc<Counter>,
    cards_cleaned_stw: Arc<Counter>,
    handshakes: Arc<Counter>,
    cas_ops: Arc<Counter>,
    overflows: Arc<Counter>,
    deferred_objects: Arc<Counter>,
    // -- counters bumped directly on (cold) hot paths --
    increments_mutator: Arc<Counter>,
    increments_background: Arc<Counter>,
    alloc_slow: Arc<Counter>,
    alloc_large: Arc<Counter>,
    lazy_retirements: Arc<Counter>,
    // -- degraded-mode counters (escalation ladder, watchdog, handshake
    //    timeout, pool-exhaustion backoff) --
    pool_input_claims: Arc<Counter>,
    pool_output_claims: Arc<Counter>,
    alloc_retries: Arc<Counter>,
    alloc_rung_finish: Arc<Counter>,
    alloc_rung_stw: Arc<Counter>,
    alloc_rung_grow: Arc<Counter>,
    alloc_stalls: Arc<Counter>,
    emergency_kickoffs: Arc<Counter>,
    alloc_ooms: Arc<Counter>,
    watchdog_reclaimed: Arc<Counter>,
    handshake_acks: Arc<Counter>,
    handshake_timeouts: Arc<Counter>,
    overflow_backoffs: Arc<Counter>,
    // -- measured per-phase pause wall time (folded at cycle end) --
    pause_cards_ns: Arc<Counter>,
    pause_roots_ns: Arc<Counter>,
    pause_drain_ns: Arc<Counter>,
    pause_sweep_ns: Arc<Counter>,
    pause_clear_ns: Arc<Counter>,
    // -- sweep-epoch straggler fences (bumped as each fence completes) --
    sweep_straggler_chunks: Arc<Counter>,
    sweep_straggler_ns: Arc<Counter>,

    // -- gauges (refreshed by telemetry_sample) --
    phase: Arc<Gauge>,
    cycle: Arc<Gauge>,
    heap_occupancy: Arc<Gauge>,
    heap_free_bytes: Arc<Gauge>,
    pacer_k0: Arc<Gauge>,
    pacer_l: Arc<Gauge>,
    pacer_m: Arc<Gauge>,
    pacer_b: Arc<Gauge>,
    pacer_kickoff_threshold: Arc<Gauge>,
    pool_empty: Arc<Gauge>,
    pool_non_empty: Arc<Gauge>,
    pool_almost_full: Arc<Gauge>,
    pool_deferred: Arc<Gauge>,
    pool_entries: Arc<Gauge>,
    pool_occupancy: Arc<Gauge>,
    bg_tracers_alive: Arc<Gauge>,
    heap_segments_committed: Arc<Gauge>,
    heap_segments_peak: Arc<Gauge>,
    heap_segment_grows: Arc<Gauge>,
    heap_segment_shrinks: Arc<Gauge>,
    heap_committed_bytes: Arc<Gauge>,
    alloc_shards: Arc<Gauge>,
    alloc_shard_contention: Arc<Gauge>,
    alloc_refill_steals: Arc<Gauge>,
    alloc_wilderness_refills: Arc<Gauge>,
    // -- sweep-epoch accounting, mirrored from the heap's cumulative
    //    atomics (same pull style as the segment grow/shrink counters) --
    sweep_refill_chunks: Arc<Gauge>,
    sweep_bg_chunks: Arc<Gauge>,
    sweep_replayed_chunks: Arc<Gauge>,
    sweep_on_pause_granules: Arc<Gauge>,
    sweep_off_pause_granules: Arc<Gauge>,
    // -- worst-pause postmortem (refreshed by telemetry_sample from the
    //    flight recorder's span rings) --
    postmortem_coverage: Arc<Gauge>,
    postmortem_wall_ns: Arc<Gauge>,
    postmortem_imbalance: Arc<Gauge>,
    postmortem_drain_wait_ns: Arc<Gauge>,
    // -- GC scheduler (refreshed by telemetry_sample from the
    //    scheduler's stat atomics) --
    sched_workers: Arc<Gauge>,
    sched_pool_threads: Arc<Gauge>,
    sched_sessions: Arc<Gauge>,
    sched_wakeups: Arc<Gauge>,
    sched_stalls: Arc<Gauge>,
    sched_active_workers: Arc<Gauge>,
    sched_session_open: Arc<Gauge>,
    /// Per-bucket `(runs, items)` gauge pair, indexed by
    /// [`crate::scheduler::Bucket`] order
    /// (`gc_sched_bucket_{name}_{runs,items}_total`).
    sched_buckets: Vec<(Arc<Gauge>, Arc<Gauge>)>,
    /// Work items claimed per session worker, one gauge per slot
    /// (`gc_sched_worker{i}_items_total`; slot 0 = the pause leader).
    sched_claimed: Vec<Arc<Gauge>>,
}

impl GcTelemetry {
    pub(crate) fn new(stw_workers: usize) -> GcTelemetry {
        let hub = Telemetry::new();
        let r = hub.registry();
        let c = |name: &str| r.counter(name);
        let g = |name: &str| r.gauge(name);

        GcTelemetry {
            sched_claimed: (0..stw_workers.max(1))
                .map(|i| g(&format!("gc_sched_worker{i}_items_total")))
                .collect(),
            sched_buckets: (0..crate::scheduler::Bucket::COUNT)
                .map(|i| {
                    let name = crate::scheduler::Bucket::from_index(i).name();
                    (
                        g(&format!("gc_sched_bucket_{name}_runs_total")),
                        g(&format!("gc_sched_bucket_{name}_items_total")),
                    )
                })
                .collect(),
            cycles: c("gc_cycles_total"),
            minor_cycles: c("gc_minor_cycles_total"),
            pauses: c("gc_pauses_total"),
            traced_mutator_bytes: c("gc_traced_mutator_bytes_total"),
            traced_background_bytes: c("gc_traced_background_bytes_total"),
            traced_stw_bytes: c("gc_traced_stw_bytes_total"),
            cards_cleaned_concurrent: c("gc_cards_cleaned_concurrent_total"),
            cards_cleaned_stw: c("gc_cards_cleaned_stw_total"),
            handshakes: c("gc_handshakes_total"),
            cas_ops: c("gc_pool_cas_ops_total"),
            overflows: c("gc_pool_overflows_total"),
            deferred_objects: c("gc_deferred_objects_total"),
            increments_mutator: c("gc_increments_mutator_total"),
            increments_background: c("gc_increments_background_total"),
            alloc_slow: c("heap_alloc_slow_path_total"),
            alloc_large: c("heap_alloc_large_total"),
            lazy_retirements: c("gc_lazy_sweep_retirements_total"),
            pool_input_claims: c("gc_pool_input_claims_total"),
            pool_output_claims: c("gc_pool_output_claims_total"),
            alloc_retries: c("gc_alloc_retry_total"),
            alloc_rung_finish: c("gc_alloc_rung_finish_total"),
            alloc_rung_stw: c("gc_alloc_rung_stw_total"),
            alloc_rung_grow: c("gc_alloc_rung_grow_total"),
            alloc_stalls: c("gc_alloc_stalls_total"),
            emergency_kickoffs: c("gc_emergency_kickoffs_total"),
            alloc_ooms: c("gc_alloc_oom_total"),
            watchdog_reclaimed: c("gc_watchdog_reclaimed_packets_total"),
            handshake_acks: c("gc_handshake_acks_total"),
            handshake_timeouts: c("gc_handshake_timeouts_total"),
            overflow_backoffs: c("gc_pool_overflow_backoffs_total"),
            pause_cards_ns: c("gc_pause_cards_ns_total"),
            pause_roots_ns: c("gc_pause_roots_ns_total"),
            pause_drain_ns: c("gc_pause_drain_ns_total"),
            pause_sweep_ns: c("gc_pause_sweep_ns_total"),
            pause_clear_ns: c("gc_pause_clear_ns_total"),
            sweep_straggler_chunks: c("gc_sweep_straggler_chunks_total"),
            sweep_straggler_ns: c("gc_sweep_straggler_ns_total"),
            phase: g("gc_phase"),
            cycle: g("gc_cycle"),
            heap_occupancy: g("heap_occupancy"),
            heap_free_bytes: g("heap_free_bytes"),
            pacer_k0: g("gc_pacer_k0"),
            pacer_l: g("gc_pacer_l_bytes"),
            pacer_m: g("gc_pacer_m_bytes"),
            pacer_b: g("gc_pacer_b"),
            pacer_kickoff_threshold: g("gc_pacer_kickoff_threshold_bytes"),
            pool_empty: g("gc_pool_empty_packets"),
            pool_non_empty: g("gc_pool_non_empty_packets"),
            pool_almost_full: g("gc_pool_almost_full_packets"),
            pool_deferred: g("gc_pool_deferred_packets"),
            pool_entries: g("gc_pool_entries"),
            pool_occupancy: g("gc_pool_occupancy"),
            bg_tracers_alive: g("gc_bg_tracers_alive"),
            heap_segments_committed: g("heap_segments_committed"),
            heap_segments_peak: g("heap_segments_peak"),
            heap_segment_grows: g("heap_segment_grows_total"),
            heap_segment_shrinks: g("heap_segment_shrinks_total"),
            heap_committed_bytes: g("heap_committed_bytes"),
            alloc_shards: g("heap_alloc_shards"),
            alloc_shard_contention: g("heap_alloc_shard_lock_contention_total"),
            alloc_refill_steals: g("heap_alloc_refill_steals_total"),
            alloc_wilderness_refills: g("heap_alloc_wilderness_refills_total"),
            sweep_refill_chunks: g("gc_sweep_on_refill_chunks_total"),
            sweep_bg_chunks: g("gc_bg_sweep_chunks_total"),
            sweep_replayed_chunks: g("gc_sweep_chunks_replayed_total"),
            sweep_on_pause_granules: g("gc_sweep_reclaimed_on_pause_granules_total"),
            sweep_off_pause_granules: g("gc_sweep_reclaimed_off_pause_granules_total"),
            postmortem_coverage: g("gc_postmortem_coverage"),
            postmortem_wall_ns: g("gc_postmortem_pause_wall_ns"),
            postmortem_imbalance: g("gc_postmortem_worst_imbalance"),
            postmortem_drain_wait_ns: g("gc_postmortem_drain_wait_ns"),
            sched_workers: g("gc_sched_workers"),
            sched_pool_threads: g("gc_sched_pool_threads"),
            sched_sessions: g("gc_sched_sessions_total"),
            sched_wakeups: g("gc_sched_wakeups_total"),
            sched_stalls: g("gc_sched_stalls_total"),
            sched_active_workers: g("gc_sched_active_workers"),
            sched_session_open: g("gc_sched_session_open"),
            hub,
        }
    }

    // ------------------------------------------------------------------
    // phase events
    // ------------------------------------------------------------------

    /// Cycle initialization (§2.1): counters reset, and the card table
    /// cleared (full cycle) or turned into the remembered set (minor
    /// cycle). (The kickoff's free-byte headroom rides on the
    /// `pacer.kickoff` span.)
    pub(crate) fn on_cycle_begin(&self, minor: bool) {
        self.cycles.inc();
        if minor {
            self.minor_cycles.inc();
        }
    }

    /// Pause complete: feeds the pause histogram and the MMU tracker with
    /// the pause window `[start_ns, end_ns]` in recorder time.
    pub(crate) fn on_stw_end(&self, start_ns: u64, end_ns: u64) {
        self.pauses.inc();
        self.hub.record_pause_ns(start_ns, end_ns);
    }

    /// One straggler fence completed: the previous sweep epoch's last
    /// `chunks` chunks were drained in `ns` nanoseconds, off-pause, just
    /// before the next cycle began.
    pub(crate) fn on_straggler(&self, chunks: u64, ns: u64) {
        self.sweep_straggler_chunks.add(chunks);
        self.sweep_straggler_ns.add(ns);
        self.hub.record_straggler_ns(ns);
    }

    /// A completed lazy-sweep plan was retired.
    pub(crate) fn on_lazy_retired(&self) {
        self.lazy_retirements.inc();
    }

    /// One productive tracing increment finished after `ns` nanoseconds
    /// (its span's duration): counts it and feeds the increment-latency
    /// histogram.
    pub(crate) fn on_increment(&self, role: TraceRole, ns: u64) {
        match role {
            TraceRole::Mutator => self.increments_mutator.inc(),
            TraceRole::Background => self.increments_background.inc(),
        }
        self.hub.record_increment_ns(ns);
    }

    /// A tracing stint returned its [`WorkBuffer`]: fold the packets it
    /// claimed from the input/output sub-pools into the claim counters.
    ///
    /// [`WorkBuffer`]: mcgc_packets::WorkBuffer
    pub(crate) fn on_packet_claims(&self, input: u64, output: u64) {
        if input > 0 {
            self.pool_input_claims.add(input);
        }
        if output > 0 {
            self.pool_output_claims.add(output);
        }
    }

    /// An allocation took the slow path (cache refill / large object).
    pub(crate) fn on_alloc_slow(&self, large: bool) {
        if large {
            self.alloc_large.inc();
        } else {
            self.alloc_slow.inc();
        }
    }

    // ------------------------------------------------------------------
    // degraded-mode events
    // ------------------------------------------------------------------

    /// An allocation slow path looped for another attempt (any rung).
    pub(crate) fn on_alloc_retry(&self) {
        self.alloc_retries.inc();
    }

    /// One rung of the escalation ladder ran for a failing allocation.
    pub(crate) fn on_alloc_rung(&self, rung: EscalationRung) {
        match rung {
            EscalationRung::FinishConcurrent => self.alloc_rung_finish.inc(),
            EscalationRung::FullStw => self.alloc_rung_stw.inc(),
            EscalationRung::Grow => self.alloc_rung_grow.inc(),
        }
    }

    /// A mutator finished one bounded backpressure stall (deadline rung):
    /// `ns` is the time it spent waiting and helping before memory
    /// appeared or the deadline expired.
    pub(crate) fn on_alloc_stall(&self, ns: u64) {
        self.alloc_stalls.inc();
        self.hub.record_alloc_stall_ns(ns);
    }

    /// The soft limit forced a collection kickoff ahead of the pacer's
    /// own threshold (emergency cycle).
    pub(crate) fn on_emergency_kickoff(&self) {
        self.emergency_kickoffs.inc();
    }

    /// The ladder gave up: a typed OutOfMemory was surfaced.
    pub(crate) fn on_alloc_oom(&self) {
        self.alloc_ooms.inc();
    }

    /// The pause watchdog condemned `n` packets checked out by stalled
    /// or dead tracers.
    pub(crate) fn on_watchdog_reclaim(&self, n: u64) {
        self.watchdog_reclaimed.add(n);
    }

    /// Every mutator acked a §5.3 card handshake within the timeout.
    pub(crate) fn on_handshake_acked(&self) {
        self.handshake_acks.inc();
    }

    /// A card handshake timed out into the global-fence fallback.
    pub(crate) fn on_handshake_timeout(&self) {
        self.handshake_timeouts.inc();
    }

    /// A tracer yielded after sustained §4.3 overflow (pool exhaustion
    /// backoff).
    pub(crate) fn on_overflow_backoff(&self) {
        self.overflow_backoffs.inc();
    }

    /// Cycle accounting is final: fold the per-cycle stats into the
    /// cumulative counters.
    pub(crate) fn on_cycle_end(&self, stats: &CycleStats) {
        self.traced_mutator_bytes.add(stats.mutator_traced_bytes);
        self.traced_background_bytes
            .add(stats.background_traced_bytes);
        self.traced_stw_bytes.add(stats.stw_traced_bytes);
        self.cards_cleaned_concurrent
            .add(stats.cards_cleaned_concurrent);
        self.cards_cleaned_stw.add(stats.cards_cleaned_stw);
        self.handshakes.add(stats.handshakes);
        self.cas_ops.add(stats.cas_ops);
        self.overflows.add(stats.overflows);
        self.deferred_objects.add(stats.deferred_objects);
        self.pause_cards_ns.add(stats.cards_wall.as_nanos() as u64);
        self.pause_roots_ns.add(stats.roots_wall.as_nanos() as u64);
        self.pause_drain_ns.add(stats.drain_wall.as_nanos() as u64);
        self.pause_sweep_ns.add(stats.sweep_wall.as_nanos() as u64);
        self.pause_clear_ns.add(stats.clear_wall.as_nanos() as u64);
    }

    // ------------------------------------------------------------------
    // gauge refresh (pull)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refresh_gauges(
        &self,
        phase_concurrent: bool,
        cycle: u64,
        heap_occupancy: f64,
        heap_free_bytes: u64,
        pacer: crate::pacing::PacerEstimates,
        pool: &mcgc_packets::PoolStats,
        pool_occupancy: f64,
        bg_alive: u64,
        alloc: &mcgc_heap::AllocShardStats,
        segments: &mcgc_heap::SegmentStats,
        sweep: &mcgc_heap::SweepCounters,
    ) {
        self.phase.set(if phase_concurrent { 1.0 } else { 0.0 });
        self.cycle.set_u64(cycle);
        self.heap_occupancy.set(heap_occupancy);
        self.heap_free_bytes.set_u64(heap_free_bytes);
        self.pacer_k0.set(pacer.k0);
        self.pacer_l.set(pacer.l);
        self.pacer_m.set(pacer.m);
        self.pacer_b.set(pacer.b);
        self.pacer_kickoff_threshold.set(pacer.kickoff_threshold);
        self.pool_empty.set_u64(pool.empty as u64);
        self.pool_non_empty.set_u64(pool.non_empty as u64);
        self.pool_almost_full.set_u64(pool.almost_full as u64);
        self.pool_deferred.set_u64(pool.deferred as u64);
        self.pool_entries.set_u64(pool.entries as u64);
        self.pool_occupancy.set(pool_occupancy);
        self.bg_tracers_alive.set_u64(bg_alive);
        self.heap_segments_committed
            .set_u64(segments.committed as u64);
        self.heap_segments_peak.set_u64(segments.peak as u64);
        self.heap_segment_grows.set_u64(segments.grows);
        self.heap_segment_shrinks.set_u64(segments.shrinks);
        self.heap_committed_bytes
            .set_u64((segments.committed * segments.seg_bytes) as u64);
        self.alloc_shards.set_u64(alloc.shards as u64);
        self.alloc_shard_contention.set_u64(alloc.contended_locks);
        self.alloc_refill_steals.set_u64(alloc.refill_steals);
        self.alloc_wilderness_refills
            .set_u64(alloc.wilderness_refills);
        self.sweep_refill_chunks.set_u64(sweep.refill_chunks);
        self.sweep_bg_chunks.set_u64(sweep.bg_chunks);
        self.sweep_replayed_chunks.set_u64(sweep.replayed_chunks);
        self.sweep_on_pause_granules
            .set_u64(sweep.on_pause_granules);
        self.sweep_off_pause_granules
            .set_u64(sweep.off_pause_granules);
    }

    /// Refreshes the worst-pause postmortem gauges from the flight
    /// recorder. Pull-style: computing a postmortem scans the span
    /// rings, so it runs on the sampling thread, never the pause path.
    pub(crate) fn refresh_postmortem(&self) {
        if let Some(pm) = mcgc_telemetry::trace_export::worst_pause_postmortem(self.hub.spans()) {
            self.postmortem_coverage.set(pm.coverage);
            self.postmortem_wall_ns.set_u64(pm.wall_ns);
            self.postmortem_imbalance.set(pm.worst_imbalance);
            self.postmortem_drain_wait_ns.set_u64(pm.drain_wait_ns);
        }
    }

    /// Refreshes the scheduler gauges from the scheduler's stat atomics
    /// (pull-style, alongside [`GcTelemetry::refresh_gauges`]).
    pub(crate) fn refresh_sched(&self, sched: &crate::scheduler::Scheduler) {
        self.sched_workers.set_u64(sched.workers() as u64);
        self.sched_pool_threads.set_u64(sched.pool_threads() as u64);
        self.sched_sessions.set_u64(sched.sessions_total());
        self.sched_wakeups.set_u64(sched.wakeups_total());
        self.sched_stalls.set_u64(sched.stalls());
        self.sched_active_workers
            .set_u64(sched.active_workers() as u64);
        self.sched_session_open.set_u64(sched.session_open() as u64);
        for (i, (runs, items)) in self.sched_buckets.iter().enumerate() {
            let bucket = crate::scheduler::Bucket::from_index(i);
            runs.set_u64(sched.bucket_runs(bucket));
            items.set_u64(sched.bucket_items(bucket));
        }
        for (gauge, claimed) in self.sched_claimed.iter().zip(sched.claimed_per_worker()) {
            gauge.set_u64(claimed);
        }
    }
}

impl std::fmt::Debug for GcTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcTelemetry").finish_non_exhaustive()
    }
}
