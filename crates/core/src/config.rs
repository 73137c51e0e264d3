//! Collector configuration and the deterministic pause cost model.

use mcgc_heap::HeapConfig;
use mcgc_packets::PoolConfig;

/// Which collector to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CollectorMode {
    /// The paper's parallel, incremental, mostly concurrent collector
    /// (CGC).
    Concurrent,
    /// The baseline parallel stop-the-world mark-sweep collector (STW) —
    /// the mature collector the paper compares against.
    StopTheWorld,
}

/// When [`crate::Gc`] sweeps.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Parallel bitwise sweep inside the pause (the paper's collector).
    Eager,
    /// Lazy sweep (§7 future work, implemented as an extension): the
    /// pause ends after marking; mutators and background threads sweep
    /// chunks on demand.
    Lazy,
}

/// Full collector configuration. Defaults mirror the paper's measurement
/// setup (§6): tracing rate 8.0, 1000 packets of 493 entries, 4 background
/// threads, one concurrent card-cleaning pass. Only what a workload,
/// benchmark or deployment varies is a field; the paper's fixed §3
/// pacing constants and the collector's batch sizes and timeouts are
/// named constants beside their one user.
#[derive(Clone, Debug)]
pub struct GcConfig {
    /// Heap geometry and allocation parameters.
    pub heap: HeapConfig,
    /// Work packet pool sizing.
    pub pool: PoolConfig,
    /// Collector selection (CGC vs STW baseline).
    pub mode: CollectorMode,
    /// Desired allocator tracing rate `K0` (§3.1; "typically 5 to 10").
    pub tracing_rate: f64,
    /// Number of low-priority background tracing threads (§3).
    pub background_threads: usize,
    /// Worker threads (including the coordinator) for the parallel
    /// stop-the-world phase. The scheduler pool holds
    /// `max(stw_workers - 1, background_threads)` persistent workers
    /// spawned once at [`Gc::new`](crate::Gc::new); during a pause the
    /// first `stw_workers - 1` of them serve the session's work buckets
    /// (card cleaning, root rescanning, packet drain, sweep, bitmap
    /// clears) with no thread creation and at most one wakeup per worker
    /// on the pause path. `1` runs every bucket inline on the coordinator
    /// — exactly the serial behaviour.
    pub stw_workers: usize,
    /// Pin scheduler pool workers to CPUs round-robin (Linux only; a
    /// no-op elsewhere). Off by default: pinning helps steady-state pause
    /// scaling on dedicated cores but hurts when the pool shares CPUs
    /// with the application.
    pub pin_workers: bool,
    /// Concurrent card-cleaning passes (§2.1; 1 in the paper, 2 as the
    /// footnote-2 ablation).
    pub card_clean_passes: usize,
    /// Eager (paper) or lazy (§7 extension) sweep.
    pub sweep: SweepMode,
    /// Whether background threads drain the sweep epoch while idle
    /// (lazy sweep only). Off, only mutator refills and the next cycle's
    /// straggler fence sweep — the A/B arm the pause bench calls `lazy`
    /// (vs `lazy+bg`).
    pub bg_sweep: bool,
    /// Objects popped per tracing batch (at least 1). Concurrently it is
    /// the §5.2 batch whose allocation bits are tested before one fence;
    /// the stop-the-world drain pops the same batch. The batch leaves its
    /// packet with one bulk pop, and each popped object's header is
    /// prefetched before the batch is scanned. The children the batch
    /// marks collect in a local grey buffer, which goes to the output
    /// packet with one bulk push before the next batch is popped.
    pub trace_batch: usize,
    /// Bytes a background thread traces per quantum between safepoint
    /// polls.
    pub background_quantum: usize,
    /// Soft memory-pressure limit in bytes of *used* (committed minus
    /// free) heap. Crossing it makes the next allocation slow path kick
    /// off an emergency collection cycle, bypassing the pacer's own
    /// threshold. `0` disables the soft limit. (The hard limit is
    /// [`HeapConfig::max_heap_bytes`]: the grow rung stops there.)
    pub soft_limit_bytes: usize,
    /// Deadline for one bounded allocation-backpressure stall: after the
    /// escalation ladder exhausts collections and growth, the mutator
    /// waits at most this long — helping trace and sweep while it waits —
    /// for memory freed by others before surfacing a typed OOM. The
    /// stall never repeats for the same allocation request, so total
    /// slow-path time stays bounded.
    pub alloc_stall_deadline: std::time::Duration,
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            heap: HeapConfig::default(),
            pool: PoolConfig::default(),
            mode: CollectorMode::Concurrent,
            tracing_rate: 8.0,
            background_threads: 4,
            stw_workers: 4,
            pin_workers: false,
            card_clean_passes: 1,
            sweep: SweepMode::Eager,
            bg_sweep: true,
            trace_batch: 64,
            background_quantum: 64 << 10,
            soft_limit_bytes: 0,
            alloc_stall_deadline: std::time::Duration::from_millis(50),
        }
    }
}

impl GcConfig {
    /// A config with the given heap size, otherwise defaults.
    pub fn with_heap_bytes(bytes: usize) -> GcConfig {
        GcConfig {
            heap: HeapConfig::with_heap_bytes(bytes),
            ..GcConfig::default()
        }
    }

    /// The stop-the-world baseline with the given heap size.
    pub fn stw_with_heap_bytes(bytes: usize) -> GcConfig {
        GcConfig {
            heap: HeapConfig::with_heap_bytes(bytes),
            mode: CollectorMode::StopTheWorld,
            ..GcConfig::default()
        }
    }
}

/// Converts observed collection *work* into deterministic pause
/// milliseconds, calibrated to the paper's 4-way 550 MHz testbed so
/// reproduced tables land in a comparable range. Wall-clock timing is
/// recorded alongside; the work model is what the benches print by
/// default because it is independent of the host's core count. The
/// collector always models with [`CostModel::default`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Tracing cost per byte scanned (ns). The paper's STW marker covers
    /// ~150 MB in ~235 ms on 4 processors ⇒ ≈ 6 ns/B per worker.
    pub trace_ns_per_byte: f64,
    /// Bitwise sweep cost per live object (ns).
    pub sweep_ns_per_live_object: f64,
    /// Bitwise sweep cost per heap chunk (bitmap scan, ns).
    pub sweep_ns_per_chunk: f64,
    /// Card-table scan cost per card examined (ns).
    pub card_scan_ns_per_card: f64,
    /// Cost per dirty card cleaned, excluding the object tracing it
    /// triggers (ns).
    pub card_clean_ns_per_card: f64,
    /// Root scanning cost per stack slot (ns).
    pub root_ns_per_slot: f64,
    /// Fixed per-pause overhead (thread stop/start, ns).
    pub pause_overhead_ns: f64,
    /// Effective parallel GC workers the model divides by (the paper's
    /// machine has 4 processors).
    pub workers: usize,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            trace_ns_per_byte: 6.0,
            sweep_ns_per_live_object: 25.0,
            sweep_ns_per_chunk: 4000.0,
            card_scan_ns_per_card: 6.0,
            card_clean_ns_per_card: 250.0,
            root_ns_per_slot: 40.0,
            pause_overhead_ns: 1_000_000.0,
            workers: 4,
        }
    }
}

impl CostModel {
    /// Milliseconds for `bytes` of tracing work on one worker.
    pub fn trace_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * self.trace_ns_per_byte / 1e6
    }

    /// Milliseconds to sweep `live_objects` over `chunks` chunks on one
    /// worker.
    pub fn sweep_ms(&self, live_objects: u64, chunks: u64) -> f64 {
        (live_objects as f64 * self.sweep_ns_per_live_object
            + chunks as f64 * self.sweep_ns_per_chunk)
            / 1e6
    }

    /// Milliseconds to scan `scanned` cards and clean `dirty` of them on
    /// one worker (tracing triggered by cleaning is costed separately).
    pub fn card_ms(&self, scanned: u64, dirty: u64) -> f64 {
        (scanned as f64 * self.card_scan_ns_per_card + dirty as f64 * self.card_clean_ns_per_card)
            / 1e6
    }

    /// Milliseconds to scan `slots` root slots on one worker.
    pub fn roots_ms(&self, slots: u64) -> f64 {
        slots as f64 * self.root_ns_per_slot / 1e6
    }

    /// Divides single-worker milliseconds across the modelled workers and
    /// adds the fixed pause overhead.
    pub fn parallelize(&self, single_worker_ms: f64) -> f64 {
        single_worker_ms / self.workers.max(1) as f64 + self.pause_overhead_ns / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = GcConfig::default();
        assert_eq!(c.tracing_rate, 8.0);
        assert_eq!(c.pool.packets, 1000);
        assert_eq!(c.pool.capacity, 493);
        assert_eq!(c.background_threads, 4);
        assert_eq!(c.card_clean_passes, 1);
    }

    #[test]
    fn cost_model_scales_linearly() {
        let m = CostModel::default();
        assert!((m.trace_ms(1_000_000) - 6.0).abs() < 1e-9);
        assert!(m.sweep_ms(100, 10) > 0.0);
        let single = m.trace_ms(150 << 20);
        let par = m.parallelize(single);
        // ~150 MB of live data: about the paper's 256 MB heap at 60%
        // residency; the model should land near the paper's 235 ms mark.
        assert!(par > 150.0 && par < 350.0, "modelled mark pause {par} ms");
    }

    #[test]
    fn stw_config_selects_baseline() {
        let c = GcConfig::stw_with_heap_bytes(1 << 20);
        assert_eq!(c.mode, CollectorMode::StopTheWorld);
        assert_eq!(c.heap.heap_bytes, 1 << 20);
    }
}
