//! `mcgc` — a parallel, incremental, mostly concurrent garbage collector
//! for servers, reproducing Ossia, Ben-Yitzhak, Goft, Kolodner,
//! Leikehman & Owshanko, *"A Parallel, Incremental and Concurrent GC for
//! Servers"*, PLDI 2002.
//!
//! This facade re-exports the whole system:
//!
//! * [`core`](mcgc_core) — the collector (CGC) and the stop-the-world
//!   baseline: kickoff/progress pacing (§3), concurrent + stop-the-world
//!   phases (§2), write barrier and card cleaning (§2.1, §5.3);
//! * [`packets`](mcgc_packets) — the work packet load-balancing
//!   mechanism (§4);
//! * [`heap`](mcgc_heap) — the heap substrate (granule arena, allocation
//!   and mark bit vectors, card table, free list, bitwise sweep);
//! * [`membar`](mcgc_membar) — counted fences and the lock shims (§5;
//!   the fences' weak-memory models live in `crates/check`);
//! * [`telemetry`](mcgc_telemetry) — live observability: the span flight
//!   recorder, pause/increment histograms, and the metrics registry;
//! * [`workloads`](mcgc_workloads) — SPECjbb/pBOB/javac-like synthetic
//!   workloads (§6).
//!
//! # Quickstart
//!
//! ```
//! use mcgc::{Gc, GcConfig, ObjectShape};
//!
//! let gc = Gc::new(GcConfig::with_heap_bytes(8 << 20));
//! let mut mutator = gc.register_mutator();
//! let pair = ObjectShape::new(2, 0, 0);
//! let a = mutator.alloc(pair)?;
//! mutator.root_push(Some(a));
//! let b = mutator.alloc(pair)?;
//! mutator.write_ref(a, 0, Some(b));
//! mutator.collect();
//! assert_eq!(mutator.read_ref(a, 0), Some(b));
//! drop(mutator);
//! gc.shutdown();
//! # Ok::<(), mcgc::GcError>(())
//! ```

pub use mcgc_core::{
    CollectorMode, CostModel, CycleStats, Gc, GcConfig, GcError, GcLog, HeapConfig, Mutator,
    ObjectRef, ObjectShape, Pacer, Phase, PoolConfig, PoolStats, SweepMode, Trigger,
};

/// The heap substrate.
pub mod heap {
    pub use mcgc_heap::*;
}

/// The work packet mechanism (§4).
pub mod packets {
    pub use mcgc_packets::*;
}

/// Fence accounting (§5) and the lock shims.
pub mod membar {
    pub use mcgc_membar::*;
}

/// Live telemetry: flight recorder, histograms, metrics registry.
pub mod telemetry {
    pub use mcgc_telemetry::*;
}

/// Synthetic workloads (§6).
pub mod workloads {
    pub use mcgc_workloads::*;
}

/// Deterministic fault injection (chaos testing). The sites only fire
/// when the `fault-inject` cargo feature is enabled AND a seeded
/// [`fault::FaultPlan`] is installed; otherwise they compile to `false`.
pub mod fault {
    pub use mcgc_fault::*;
}
