//! Per-cycle collection statistics and aggregation helpers — the raw
//! material for every table and figure in the paper's §6.
//!
//! Every completed cycle is pushed to the in-memory [`GcLog`]. Its
//! measured pause walls (`*_wall`) are the durations of the pause's own
//! flight-recorder spans, so the §6 tables, the registry's
//! `gc_pause_*_ns_total` counters and a span postmortem read the same
//! clock pairs.

use std::time::Duration;

/// What started a collection cycle's stop-the-world phase.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Allocation could not be satisfied (the concurrent phase, if any,
    /// was halted early).
    AllocationFailure,
    /// The concurrent phase finished all its work (stacks scanned, cards
    /// cleaned once, no marked objects left to trace) — a "premature" GC
    /// in Table 2's terms.
    ConcurrentDone,
    /// The stop-the-world baseline collector ran (no concurrent phase).
    Baseline,
    /// An explicit `collect()` request.
    Explicit,
}

impl Trigger {
    /// Stable wire code (the `gc.pause` span's arg).
    pub fn code(self) -> u64 {
        match self {
            Trigger::AllocationFailure => 0,
            Trigger::ConcurrentDone => 1,
            Trigger::Baseline => 2,
            Trigger::Explicit => 3,
        }
    }

    /// Inverse of [`Trigger::code`].
    pub fn from_code(code: u64) -> Option<Trigger> {
        match code {
            0 => Some(Trigger::AllocationFailure),
            1 => Some(Trigger::ConcurrentDone),
            2 => Some(Trigger::Baseline),
            3 => Some(Trigger::Explicit),
            _ => None,
        }
    }
}

/// Statistics for one completed collection cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleStats {
    /// 1-based cycle number.
    pub cycle: u64,
    /// What ended the concurrent phase (or `Baseline`).
    pub trigger: Option<Trigger>,
    /// A minor cycle: it kept the previous cycle's mark bits (sticky
    /// mark bits), so it traced only objects that became reachable since
    /// the previous pause, from the roots and the remembered set. A
    /// full cycle traced from clear marks.
    pub minor: bool,

    // -- pause decomposition, work-model milliseconds --
    /// Total modelled pause.
    pub pause_ms: f64,
    /// Mark component (final card cleaning + root rescan + tracing).
    pub mark_ms: f64,
    /// Sweep component (0 under lazy sweep — it happens outside the
    /// pause).
    pub sweep_ms: f64,
    /// Card-cleaning part of the mark component.
    pub card_ms: f64,
    /// Root-scanning part of the mark component.
    pub root_ms: f64,
    /// Wall-clock pause measured on the host (noisy; for reference): the
    /// `gc.pause` span's elapsed time when these stats were built.
    pub pause_wall: Duration,

    // -- measured per-phase pause walls: each is the duration of that
    //    phase's own span (scheduler-parallel; host wall time, noisy — the
    //    `*_ms` fields above stay the host-independent work model) --
    /// Wall time of the pause's opening phase: allocation-cache
    /// retirement, lazy segment release, the scheduler session's wakeup,
    /// the watchdog, the pause-start audit and a fresh cycle's setup.
    pub retire_wall: Duration,
    /// Wall time of the final card cleaning, including the drain loop's
    /// redirty/re-clean passes.
    pub cards_wall: Duration,
    /// Wall time of stack + global root rescanning.
    pub roots_wall: Duration,
    /// Wall time of the parallel packet drain (excluding re-clean
    /// passes, which are accounted to `cards_wall`).
    pub drain_wall: Duration,
    /// Wall time of the sweep phase: planning the sweep epoch, plus, for
    /// eager sweep, draining it and settling the free list.
    pub sweep_wall: Duration,
    /// Wall time of retiring the drained sweep epoch, which clears the
    /// mark bits (eager sweep; a lazy epoch retires off-pause).
    pub clear_wall: Duration,
    /// Wall time of the previous sweep epoch's straggler fence (lazy
    /// sweep). The fence runs *before* this cycle's world-stop, so it is
    /// not part of `pause_wall`; it is reported here so the off-pause
    /// sweep cost stays visible.
    pub straggler_wall: Duration,
    /// Chunks the straggler fence had to finish (0 when refill and
    /// background sweeping drained the whole epoch off-pause).
    pub straggler_chunks: u64,

    // -- concurrent phase --
    /// Wall-clock duration of the concurrent phase.
    pub concurrent_wall: Duration,
    /// Wall-clock duration of the pre-concurrent phase (end of previous
    /// pause to kickoff).
    pub pre_concurrent_wall: Duration,
    /// Bytes traced concurrently by mutator increments.
    pub mutator_traced_bytes: u64,
    /// Bytes traced concurrently by background threads.
    pub background_traced_bytes: u64,
    /// Bytes traced during the stop-the-world phase.
    pub stw_traced_bytes: u64,
    /// Bytes allocated during the concurrent phase.
    pub alloc_concurrent_bytes: u64,
    /// Bytes allocated during the pre-concurrent phase.
    pub alloc_pre_concurrent_bytes: u64,

    // -- cards --
    /// Dirty cards cleaned during the concurrent phase.
    pub cards_cleaned_concurrent: u64,
    /// Dirty cards cleaned during the stop-the-world phase.
    pub cards_cleaned_stw: u64,
    /// Cards the concurrent cleaner had not yet reached when the phase
    /// was halted by an allocation failure (Table 2 "Cards Left").
    pub cards_left: u64,
    /// Card-cleaning handshakes performed (§5.3 batches).
    pub handshakes: u64,

    // -- heap --
    /// Free bytes when the stop-the-world phase began.
    pub free_at_stw_start: u64,
    /// Marked bytes after marking (swept heap): the live bytes, plus a
    /// concurrent cycle's floating garbage. A minor cycle's also include
    /// old garbage (objects a previous cycle marked that have died since),
    /// which only a full cycle frees.
    pub live_after_bytes: u64,
    /// Marked objects after marking, old garbage included after a minor
    /// cycle (see `live_after_bytes`).
    pub live_after_objects: u64,
    /// Free bytes after the cycle completed.
    pub free_after_bytes: u64,
    /// Heap occupancy after the cycle, in `[0, 1]`.
    pub occupancy_after: f64,

    // -- load balancing (Table 4) --
    /// Tracing increments performed by mutators.
    pub increments: u64,
    /// Sum of per-increment tracing factors (actual/assigned).
    pub tracing_factor_sum: f64,
    /// Sum of squared tracing factors (for the fairness stddev).
    pub tracing_factor_sq_sum: f64,
    /// CAS operations on packet sub-pools during this cycle.
    pub cas_ops: u64,
    /// Packet overflow events (§4.3; expected rare).
    pub overflows: u64,
    /// Objects deferred via the §5.2 allocation-bit protocol.
    pub deferred_objects: u64,

    // -- packets (§6.3) --
    /// High-water mark of packets simultaneously in use.
    pub packets_in_use_watermark: usize,
    /// High-water mark of occupied packet entries.
    pub packet_entries_watermark: usize,
}

impl CycleStats {
    /// Average tracing factor over the cycle's increments.
    pub fn tracing_factor(&self) -> f64 {
        if self.increments == 0 {
            0.0
        } else {
            self.tracing_factor_sum / self.increments as f64
        }
    }

    /// Standard deviation of tracing factors (Table 4 "fairness").
    pub fn fairness(&self) -> f64 {
        if self.increments < 2 {
            return 0.0;
        }
        let n = self.increments as f64;
        let mean = self.tracing_factor_sum / n;
        let var = (self.tracing_factor_sq_sum / n - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Total bytes traced concurrently (mutators + background).
    pub fn concurrent_traced_bytes(&self) -> u64 {
        self.mutator_traced_bytes + self.background_traced_bytes
    }

    /// Sum of the measured per-phase pause walls (retire, cards, roots,
    /// drain, sweep, clear). Always at most [`CycleStats::pause_wall`];
    /// the remainder is the drain loop's dirty-card snapshots, the
    /// `verify-gc` audits, session close and the cycle accounting.
    pub fn phase_wall_total(&self) -> Duration {
        self.retire_wall
            + self.cards_wall
            + self.roots_wall
            + self.drain_wall
            + self.sweep_wall
            + self.clear_wall
    }

    /// CAS cost normalized by live KB at cycle end (Table 4 "cost").
    pub fn normalized_cas_cost(&self) -> f64 {
        if self.live_after_bytes == 0 {
            0.0
        } else {
            self.cas_ops as f64 / (self.live_after_bytes as f64 / 1024.0)
        }
    }

    /// Card-cleaning ratio: stop-the-world cards relative to concurrent
    /// cards (Table 2 "CC Rate"; the criterion wants the stop-the-world
    /// phase left with under 20% of the concurrent volume).
    ///
    /// Returns `None` when no concurrent cleaning happened at all —
    /// baseline/STW-only cycles, and halted cycles whose cleaner never
    /// ran — because a ratio over zero concurrent cards is meaningless
    /// (it used to surface as `f64::INFINITY` and poison aggregates).
    pub fn cc_rate(&self) -> Option<f64> {
        if self.cards_cleaned_concurrent == 0 {
            None
        } else {
            Some(self.cards_cleaned_stw as f64 / self.cards_cleaned_concurrent as f64)
        }
    }

    /// The Table 2 CC-Rate failure predicate for this cycle: the
    /// stop-the-world phase cleaned more than 20% of the concurrent
    /// volume. Baseline cycles have no concurrent phase and cannot fail;
    /// a concurrent cycle that cleaned *nothing* concurrently but left
    /// cards to the pause fails outright.
    pub fn cc_rate_failed(&self) -> bool {
        if self.trigger == Some(Trigger::Baseline) {
            return false;
        }
        match self.cc_rate() {
            Some(rate) => rate > 0.20,
            None => self.cards_cleaned_stw > 0,
        }
    }
}

/// The log of all completed cycles plus run-level aggregates.
#[derive(Clone, Debug, Default)]
pub struct GcLog {
    /// Completed cycles in order.
    pub cycles: Vec<CycleStats>,
}

impl GcLog {
    /// Average of `f` over cycles, or 0 for an empty log.
    pub fn avg(&self, f: impl Fn(&CycleStats) -> f64) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.cycles.iter().map(&f).sum::<f64>() / self.cycles.len() as f64
    }

    /// Maximum of `f` over cycles, or 0 for an empty log.
    pub fn max(&self, f: impl Fn(&CycleStats) -> f64) -> f64 {
        self.cycles.iter().map(&f).fold(0.0, f64::max)
    }

    /// Average modelled pause, ms.
    pub fn avg_pause_ms(&self) -> f64 {
        self.avg(|c| c.pause_ms)
    }

    /// Maximum modelled pause, ms.
    pub fn max_pause_ms(&self) -> f64 {
        self.max(|c| c.pause_ms)
    }

    /// Average modelled mark component, ms.
    pub fn avg_mark_ms(&self) -> f64 {
        self.avg(|c| c.mark_ms)
    }

    /// Average *measured* wall pause, ms (host wall time — noisy, unlike
    /// the modelled [`GcLog::avg_pause_ms`]).
    pub fn avg_pause_wall_ms(&self) -> f64 {
        self.avg(|c| c.pause_wall.as_secs_f64() * 1e3)
    }

    /// Maximum measured wall pause, ms.
    pub fn max_pause_wall_ms(&self) -> f64 {
        self.max(|c| c.pause_wall.as_secs_f64() * 1e3)
    }

    /// Average modelled sweep component, ms.
    pub fn avg_sweep_ms(&self) -> f64 {
        self.avg(|c| c.sweep_ms)
    }

    /// Average occupancy at cycle end (floating-garbage comparisons).
    pub fn avg_occupancy_after(&self) -> f64 {
        self.avg(|c| c.occupancy_after)
    }

    /// Average cards cleaned in the stop-the-world phase (Table 1
    /// "Average Final Card Cleaning").
    pub fn avg_final_card_cleaning(&self) -> f64 {
        self.avg(|c| c.cards_cleaned_stw as f64)
    }

    /// Fraction of cycles failing the Table 2 CC-Rate criterion
    /// (stop-the-world cleaning exceeding 20% of concurrent cleaning;
    /// baseline cycles never count — see [`CycleStats::cc_rate_failed`]).
    pub fn cc_rate_failures(&self) -> f64 {
        self.fraction(|c| c.cc_rate_failed())
    }

    /// Fraction of cycles failing the free-space criterion: the
    /// concurrent phase finished with more than 5% of `heap_bytes` free.
    pub fn free_space_failures(&self, heap_bytes: usize) -> f64 {
        self.fraction(|c| {
            c.trigger == Some(Trigger::ConcurrentDone)
                && c.free_at_stw_start as f64 > heap_bytes as f64 * 0.05
        })
    }

    /// Average free space at stop-the-world start over premature
    /// (concurrent-done) cycles, as a fraction of the heap.
    pub fn avg_premature_free(&self, heap_bytes: usize) -> f64 {
        let premature: Vec<_> = self
            .cycles
            .iter()
            .filter(|c| c.trigger == Some(Trigger::ConcurrentDone))
            .collect();
        if premature.is_empty() {
            return 0.0;
        }
        premature
            .iter()
            .map(|c| c.free_at_stw_start as f64 / heap_bytes as f64)
            .sum::<f64>()
            / premature.len() as f64
    }

    /// Average cards left unreached when halted by allocation failure.
    pub fn avg_cards_left(&self) -> f64 {
        self.avg(|c| c.cards_left as f64)
    }

    /// Fraction of cycles satisfying `pred`.
    pub fn fraction(&self, pred: impl Fn(&CycleStats) -> bool) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.cycles.iter().filter(|c| pred(c)).count() as f64 / self.cycles.len() as f64
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn cycle(pause: f64, factor_samples: &[f64]) -> CycleStats {
        CycleStats {
            pause_ms: pause,
            increments: factor_samples.len() as u64,
            tracing_factor_sum: factor_samples.iter().sum(),
            tracing_factor_sq_sum: factor_samples.iter().map(|f| f * f).sum(),
            ..CycleStats::default()
        }
    }

    #[test]
    fn aggregates_over_cycles() {
        let log = GcLog {
            cycles: vec![cycle(10.0, &[]), cycle(30.0, &[]), cycle(20.0, &[])],
        };
        assert!((log.avg_pause_ms() - 20.0).abs() < 1e-9);
        assert!((log.max_pause_ms() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_zero() {
        let log = GcLog::default();
        assert_eq!(log.avg_pause_ms(), 0.0);
        assert_eq!(log.max_pause_ms(), 0.0);
        assert_eq!(log.cc_rate_failures(), 0.0);
    }

    #[test]
    fn fairness_is_stddev_of_factors() {
        let c = cycle(0.0, &[1.0, 1.0, 1.0]);
        assert!(c.fairness() < 1e-9);
        let c = cycle(0.0, &[0.0, 2.0]);
        assert!((c.tracing_factor() - 1.0).abs() < 1e-9);
        assert!((c.fairness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cc_rate_and_failures() {
        let mut good = CycleStats::default();
        good.trigger = Some(Trigger::ConcurrentDone);
        good.cards_cleaned_concurrent = 100;
        good.cards_cleaned_stw = 10;
        assert!((good.cc_rate().unwrap() - 0.1).abs() < 1e-9);
        assert!(!good.cc_rate_failed());
        let mut bad = CycleStats::default();
        bad.trigger = Some(Trigger::AllocationFailure);
        bad.cards_cleaned_concurrent = 100;
        bad.cards_cleaned_stw = 50;
        assert!(bad.cc_rate_failed());
        let log = GcLog {
            cycles: vec![good, bad],
        };
        assert!((log.cc_rate_failures() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cc_rate_without_concurrent_cleaning() {
        // A baseline (STW-only) cycle cleans no cards concurrently; the
        // ratio is undefined, not infinite, and the cycle never counts as
        // a Table 2 failure even when the pause did clean cards.
        let mut baseline = CycleStats::default();
        baseline.trigger = Some(Trigger::Baseline);
        baseline.cards_cleaned_stw = 40;
        assert_eq!(baseline.cc_rate(), None);
        assert!(!baseline.cc_rate_failed());

        // A halted concurrent cycle whose cleaner never ran DOES fail if
        // the pause had to clean cards...
        let mut halted = CycleStats::default();
        halted.trigger = Some(Trigger::AllocationFailure);
        halted.cards_cleaned_stw = 40;
        assert_eq!(halted.cc_rate(), None);
        assert!(halted.cc_rate_failed());

        // ...but not when there was nothing to clean anywhere.
        let mut clean = CycleStats::default();
        clean.trigger = Some(Trigger::ConcurrentDone);
        assert!(!clean.cc_rate_failed());

        let log = GcLog {
            cycles: vec![baseline, halted, clean],
        };
        assert!((log.cc_rate_failures() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn free_space_failures_only_count_premature_cycles() {
        let heap = 100usize << 20;
        let mut premature_fail = CycleStats::default();
        premature_fail.trigger = Some(Trigger::ConcurrentDone);
        premature_fail.free_at_stw_start = 10 << 20; // 10% > 5%
        let mut premature_ok = CycleStats::default();
        premature_ok.trigger = Some(Trigger::ConcurrentDone);
        premature_ok.free_at_stw_start = 1 << 20;
        let mut halted = CycleStats::default();
        halted.trigger = Some(Trigger::AllocationFailure);
        halted.free_at_stw_start = 50 << 20; // irrelevant
        let log = GcLog {
            cycles: vec![premature_fail, premature_ok, halted],
        };
        assert!((log.free_space_failures(heap) - 1.0 / 3.0).abs() < 1e-9);
        assert!((log.avg_premature_free(heap) - 0.055).abs() < 1e-3);
    }

    #[test]
    fn normalized_cas_cost() {
        let mut c = CycleStats::default();
        c.cas_ops = 1000;
        c.live_after_bytes = 10 << 10; // 10 KB
        assert!((c.normalized_cas_cost() - 100.0).abs() < 1e-9);
    }
}
