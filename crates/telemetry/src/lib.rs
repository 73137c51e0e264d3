//! Live GC telemetry: a span flight recorder, log-scaled latency
//! histograms, and a counter/gauge registry — dependency-free, wait-free
//! on every hot path, queryable mid-run.
//!
//! # Architecture
//!
//! [`Telemetry`] bundles three always-on pieces:
//!
//! - a [`SpanRecorder`]: per-thread seqlock rings of completed spans
//!   (pause phases, scheduler buckets and jobs, tracing increments,
//!   handshakes, kickoff decisions, sweep chunks). It is the hub's one
//!   clock: [`Telemetry::now_ns`] and the enable flag are the recorder's,
//!   and the collector's measured pause-phase walls are the durations of
//!   its timed span guards ([`SpanRecorder::timed`]).
//! - [`LogHistogram`]s (power-of-two buckets) for stop-the-world pause,
//!   tracing-increment, allocation-stall and straggler-fence latencies,
//!   with p50/p90/p99/max and mean queryable at any time, plus a
//!   [`UtilizationTracker`] answering MMU-style minimum-mutator-utilization
//!   queries over sliding windows.
//! - a [`MetricsRegistry`] of named counters (bytes traced by
//!   mutator/background/STW, cards cleaned, CAS ops, handshakes, ...) and
//!   gauges (packet sub-pool occupancy, pacer estimates K0/L/M/B, heap
//!   occupancy) with text and JSON exporters.
//!
//! Phase facts travel as span payloads: `pacer.kickoff` carries the free
//! bytes at kickoff, `gc.pause` the trigger code, `trace.handshake` the
//! ack outcome, and the increment spans the bytes traced; see
//! [`SpanKind`].
//!
//! # Exporter formats
//!
//! [`MetricsRegistry::render_text`] emits one `name value` line per
//! metric, sorted by name (counters as integers, gauges with six decimal
//! places) — Prometheus exposition style without type annotations.
//! [`MetricsRegistry::render_json`] emits a flat, name-sorted JSON object
//! `{"name": value, ...}`; non-finite gauges render as `null`.
//! [`export_chrome_trace`] renders the span rings as Perfetto-loadable
//! Chrome trace JSON.
//!
//! # Overhead
//!
//! Recording a span is one ticket `fetch_add` plus six atomic stores; a
//! histogram sample is four relaxed RMWs; a counter bump is one. The
//! whole pipeline can be disabled at runtime ([`Telemetry::set_enabled`])
//! for A/B overhead measurement — `benches/telemetry_overhead.rs` in the
//! `mcgc-bench` crate measures the enabled/disabled throughput delta on
//! the jbb workload (<2% in release builds).

pub mod histogram;
pub mod registry;
pub mod spans;
pub mod trace_export;

pub use histogram::{
    bucket_index, bucket_upper_bound, HistogramSnapshot, LogHistogram, UtilizationTracker,
};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use spans::{Span, SpanGuard, SpanKind, SpanRecorder, SpanRing, TrackId};
pub use trace_export::{
    export_chrome_trace, pause_postmortems, validate_chrome_trace, Postmortem, TraceStats,
};

use std::sync::Arc;

/// The telemetry hub a collector embeds. All methods are safe to call
/// from any thread; everything on a hot path is wait-free.
#[derive(Debug)]
pub struct Telemetry {
    pause_ns: LogHistogram,
    increment_ns: LogHistogram,
    alloc_stall_ns: LogHistogram,
    straggler_ns: LogHistogram,
    registry: MetricsRegistry,
    utilization: UtilizationTracker,
    /// The flight recorder and the hub's clock (shared so the scheduler,
    /// heap, and exporters can hold their own handle).
    spans: Arc<SpanRecorder>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry {
            pause_ns: LogHistogram::new(),
            increment_ns: LogHistogram::new(),
            alloc_stall_ns: LogHistogram::new(),
            straggler_ns: LogHistogram::new(),
            registry: MetricsRegistry::new(),
            utilization: UtilizationTracker::new(),
            spans: Arc::new(SpanRecorder::new(spans::DEFAULT_TRACK_CAPACITY)),
        }
    }

    /// Nanoseconds since the hub was created (the flight recorder's
    /// timestamp base).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.spans.now_ns()
    }

    /// Whether recording is on (it is by default). When off, every
    /// histogram `record` and span guard is a single relaxed load and a
    /// branch — this is the "disabled" arm of the overhead benchmark.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.spans.is_enabled()
    }

    /// Toggles the whole pipeline, flight recorder included (the A/B
    /// overhead benchmark's "off" arm).
    pub fn set_enabled(&self, on: bool) {
        self.spans.set_enabled(on);
    }

    /// The flight recorder: per-thread span rings on the hub's clock.
    /// Clone the `Arc` to hand subsystems (the GC scheduler, the heap's
    /// free list) their own recording handle.
    pub fn spans(&self) -> &Arc<SpanRecorder> {
        &self.spans
    }

    /// Records a stop-the-world pause `[start_ns, end_ns]`: feeds the
    /// pause histogram and the utilization tracker.
    pub fn record_pause_ns(&self, start_ns: u64, end_ns: u64) {
        if self.is_enabled() {
            self.pause_ns.record(end_ns.saturating_sub(start_ns));
            self.utilization.record_pause(start_ns, end_ns);
        }
    }

    /// Records one tracing-increment latency.
    #[inline]
    pub fn record_increment_ns(&self, ns: u64) {
        if self.is_enabled() {
            self.increment_ns.record(ns);
        }
    }

    /// Records one bounded allocation-backpressure stall (the time a
    /// mutator spent waiting — and helping — before memory appeared or
    /// its deadline expired into a typed OOM).
    #[inline]
    pub fn record_alloc_stall_ns(&self, ns: u64) {
        if self.is_enabled() {
            self.alloc_stall_ns.record(ns);
        }
    }

    /// Records one straggler fence: the time the next cycle's pause
    /// leader spent finishing chunks the previous sweep epoch left
    /// unswept (bounded — refill and background sweeping drain most of
    /// the heap off-pause).
    #[inline]
    pub fn record_straggler_ns(&self, ns: u64) {
        if self.is_enabled() {
            self.straggler_ns.record(ns);
        }
    }

    /// Mutator utilization over the trailing `window_ns` ending now.
    pub fn mutator_utilization(&self, window_ns: u64) -> f64 {
        self.utilization.utilization(self.now_ns(), window_ns)
    }

    /// Minimum mutator utilization over any `window_ns` window so far.
    pub fn minimum_mutator_utilization(&self, window_ns: u64) -> f64 {
        self.utilization
            .minimum_utilization(self.now_ns(), window_ns)
    }

    pub fn pause_histogram(&self) -> &LogHistogram {
        &self.pause_ns
    }

    pub fn increment_histogram(&self) -> &LogHistogram {
        &self.increment_ns
    }

    pub fn alloc_stall_histogram(&self) -> &LogHistogram {
        &self.alloc_stall_ns
    }

    pub fn straggler_histogram(&self) -> &LogHistogram {
        &self.straggler_ns
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn utilization_tracker(&self) -> &UtilizationTracker {
        &self.utilization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::new();
        t.set_enabled(false);
        assert!(!t.spans().is_enabled(), "one flag for the whole hub");
        t.record_pause_ns(0, 1_000_000);
        t.record_increment_ns(500);
        t.record_alloc_stall_ns(500);
        t.record_straggler_ns(500);
        drop(t.spans().span(SpanKind::Handshake, 1));
        assert!(t.spans().all_spans().is_empty());
        assert_eq!(t.pause_histogram().count(), 0);
        assert_eq!(t.increment_histogram().count(), 0);
        assert_eq!(t.alloc_stall_histogram().count(), 0);
        assert_eq!(t.straggler_histogram().count(), 0);
    }

    #[test]
    fn pause_feeds_histogram_and_utilization() {
        let t = Telemetry::new();
        // The pause below must lie in the hub's past, or the trailing
        // window sees none of it.
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.record_pause_ns(1_000, 2_000_000);
        assert_eq!(t.pause_histogram().count(), 1);
        assert!(t.pause_histogram().max() >= 1_900_000);
        // The utilization over a huge window is close to 1 but not 1.
        let u = t.mutator_utilization(u64::MAX / 2);
        assert!(u < 1.0 && u > 0.99, "{u}");
    }
}
