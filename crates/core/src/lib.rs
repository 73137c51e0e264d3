//! `mcgc-core` — a parallel, incremental, mostly concurrent mark-sweep
//! garbage collector, reproducing Ossia et al., *"A Parallel, Incremental
//! and Concurrent GC for Servers"* (PLDI 2002).
//!
//! The collector (CGC) divides tracing into a **concurrent phase** —
//! marking performed by allocating mutators (paced by the §3 kickoff and
//! progress formulas) and by low-priority background threads, with a
//! card-marking write barrier recording objects modified after they were
//! traced — and a parallel **stop-the-world phase** that cleans the
//! remaining dirty cards, rescans thread stacks, completes marking, and
//! sweeps. Load balancing among the dynamic set of tracers uses the §4
//! *work packet* mechanism ([`mcgc_packets`]), and the §5 fence-batching
//! protocols keep weak-ordering fences to one per allocation cache, one
//! per packet, and none in the write barrier.
//!
//! A mature parallel stop-the-world collector
//! ([`CollectorMode::StopTheWorld`]) is included as the paper's baseline.
//!
//! # Quickstart
//!
//! ```
//! use mcgc_core::{Gc, GcConfig, ObjectShape};
//!
//! let gc = Gc::new(GcConfig::with_heap_bytes(8 << 20));
//! let mut mutator = gc.register_mutator();
//!
//! // A list node: 1 reference slot, 1 data granule.
//! let shape = ObjectShape::new(1, 1, 0);
//! let head = mutator.alloc(shape)?;
//! let root = mutator.root_push(Some(head));
//! let next = mutator.alloc(shape)?;
//! mutator.write_ref(head, 0, Some(next)); // write barrier
//! assert_eq!(mutator.read_ref(head, 0), Some(next));
//!
//! mutator.collect(); // explicit full collection
//! assert_eq!(mutator.root_get(root), Some(head));
//! drop(mutator);
//! gc.shutdown();
//! # Ok::<(), mcgc_core::GcError>(())
//! ```

mod collector;
mod config;
mod mutator;
mod pacing;
mod roots;
mod scheduler;
mod stats;
mod telemetry;
mod tracing;

pub use collector::{Gc, GcError, Phase};
pub use config::{CollectorMode, CostModel, GcConfig, SweepMode};
pub use mutator::Mutator;
pub use pacing::{Pacer, PacerEstimates};
pub use stats::{CycleStats, GcLog, Trigger};

// Re-export the substrate types a user needs at the API boundary.
pub use mcgc_heap::{HeapConfig, ObjectRef, ObjectShape};
pub use mcgc_packets::{PoolConfig, PoolStats};

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GcConfig {
        let mut c = GcConfig::with_heap_bytes(4 << 20);
        c.background_threads = 1;
        c.stw_workers = 2;
        c
    }

    #[test]
    fn allocate_collect_survive() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        let shape = ObjectShape::new(2, 2, 1);
        let a = m.alloc(shape).unwrap();
        let b = m.alloc(shape).unwrap();
        m.write_ref(a, 0, Some(b));
        m.root_push(Some(a));
        m.collect();
        assert_eq!(m.read_ref(a, 0), Some(b));
        assert!(gc.heap().is_published(a));
        assert_eq!(gc.log().cycles.len(), 1);
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn garbage_is_reclaimed() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        let shape = ObjectShape::new(0, 30, 0);
        // Allocate a lot of garbage (no roots): must not OOM.
        for _ in 0..100_000 {
            m.alloc(shape).unwrap();
        }
        assert!(!gc.log().cycles.is_empty(), "GC ran");
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn live_data_survives_many_cycles() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        let node = ObjectShape::new(1, 3, 7);
        // A linked list of 1000 nodes kept live by one root.
        let head = m.alloc(node).unwrap();
        m.root_push(Some(head));
        let mut tail = head;
        for _ in 0..999 {
            let n = m.alloc(node).unwrap();
            m.write_ref(tail, 0, Some(n));
            tail = n;
        }
        // Churn garbage to force several collections.
        let junk = ObjectShape::new(0, 30, 0);
        for _ in 0..60_000 {
            m.alloc(junk).unwrap();
        }
        assert!(gc.log().cycles.len() >= 2);
        // Walk the list: all 1000 nodes intact.
        let mut count = 1;
        let mut cur = head;
        while let Some(next) = m.read_ref(cur, 0) {
            count += 1;
            cur = next;
        }
        assert_eq!(count, 1000);
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn baseline_stw_collects_too() {
        let mut c = GcConfig::stw_with_heap_bytes(4 << 20);
        c.stw_workers = 2;
        let gc = Gc::new(c);
        let mut m = gc.register_mutator();
        let keep = m.alloc(ObjectShape::new(1, 1, 0)).unwrap();
        m.root_push(Some(keep));
        for _ in 0..100_000 {
            m.alloc(ObjectShape::new(0, 30, 0)).unwrap();
        }
        let log = gc.log();
        assert!(!log.cycles.is_empty());
        assert!(log
            .cycles
            .iter()
            .all(|cy| cy.trigger == Some(Trigger::Baseline)));
        assert!(gc.heap().is_published(keep));
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn phase_observable_and_cycles_counted() {
        let gc = Gc::new(small_config());
        assert_eq!(gc.phase(), Phase::Idle);
        assert_eq!(gc.cycle(), 0);
        let mut m = gc.register_mutator();
        m.collect();
        assert_eq!(gc.phase(), Phase::Idle, "idle again after the pause");
        assert_eq!(gc.cycle(), 1);
        assert_eq!(gc.log().cycles[0].trigger, Some(Trigger::Explicit));
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn global_roots_retain_objects() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        let obj = m.alloc(ObjectShape::new(0, 5, 42)).unwrap();
        let slot = gc.global_root_push(Some(obj));
        m.collect();
        assert_eq!(gc.global_root_get(slot), Some(obj));
        assert_eq!(gc.heap().header(obj).class_id, 42);
        // Cleared global root lets the object die on the next cycle.
        gc.global_root_set(slot, None);
        m.collect();
        assert!(!gc.heap().is_published(obj), "object reclaimed");
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn large_objects_round_trip_through_gc() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        // >= large_object_bytes (8 KiB default): 1200 data granules.
        let big = ObjectShape::new(2, 1200, 7);
        assert!(gc.heap().is_large(big));
        let a = m.alloc(big).unwrap();
        m.root_push(Some(a));
        m.write_data(a, 1199, 0xFEED);
        for _ in 0..20_000 {
            m.alloc(ObjectShape::new(0, 30, 0)).unwrap();
        }
        assert_eq!(m.read_data(a, 1199), 0xFEED);
        assert!(gc.heap().is_published(a));
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn tiny_packet_pool_still_correct_via_overflow() {
        // §4.3: when packets run out, overflow falls back to
        // mark-and-dirty-card; nothing may be lost.
        let mut cfg = small_config();
        cfg.pool = PoolConfig {
            packets: 4,
            capacity: 8,
        };
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        let node = ObjectShape::new(2, 1, 0);
        let root = m.alloc(node).unwrap();
        m.root_push(Some(root));
        // A sizable tree forces overflow during tracing.
        let mut frontier = vec![root];
        for _ in 0..9 {
            let mut next = Vec::new();
            for &p in &frontier {
                for s in 0..2 {
                    next.push(m.alloc_into(p, s, node).unwrap());
                }
            }
            frontier = next;
        }
        for _ in 0..40_000 {
            m.alloc(ObjectShape::new(0, 30, 0)).unwrap();
        }
        // Count the tree: must be complete (2^10 - 1 nodes).
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            for s in 0..2 {
                if let Some(c) = m.read_ref(n, s) {
                    stack.push(c);
                }
            }
        }
        assert_eq!(count, (1 << 10) - 1);
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn cycle_stats_record_concurrent_work() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        let keep = m.alloc(ObjectShape::new(1, 50, 0)).unwrap();
        m.root_push(Some(keep));
        let junk = ObjectShape::new(0, 30, 0);
        while gc.log().cycles.len() < 3 {
            for _ in 0..5_000 {
                m.alloc(junk).unwrap();
            }
        }
        let log = gc.log();
        // At least one concurrent (non-baseline) cycle with increments.
        assert!(log
            .cycles
            .iter()
            .any(|c| c.increments > 0 && c.concurrent_traced_bytes() > 0));
        for c in &log.cycles {
            assert!(c.pause_ms > 0.0);
            assert!(c.cycle >= 1);
        }
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn handshakes_counted_when_cards_cleaned_concurrently() {
        let mut cfg = GcConfig::with_heap_bytes(8 << 20);
        cfg.background_threads = 1;
        cfg.stw_workers = 2;
        cfg.tracing_rate = 4.0;
        let gc = Gc::new(cfg);
        let mut m = gc.register_mutator();
        // A mutated live set: ring of slots overwritten constantly, so
        // cards stay dirty during concurrent phases.
        let ring = m.alloc(ObjectShape::new(100, 0, 0)).unwrap();
        m.root_push(Some(ring));
        let junk = ObjectShape::new(0, 30, 0);
        let node = ObjectShape::new(0, 4, 0);
        let mut i = 0u32;
        while gc.log().cycles.len() < 4 {
            let n = m.alloc(node).unwrap();
            m.write_ref(ring, i % 100, Some(n));
            i += 1;
            for _ in 0..50 {
                m.alloc(junk).unwrap();
            }
        }
        let log = gc.log();
        let handshakes: u64 = log.cycles.iter().map(|c| c.handshakes).sum();
        let conc_cards: u64 = log.cycles.iter().map(|c| c.cards_cleaned_concurrent).sum();
        assert!(
            conc_cards == 0 || handshakes > 0,
            "concurrent cleaning implies handshakes: cards={conc_cards} hs={handshakes}"
        );
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn oom_reported_not_hung() {
        let gc = Gc::new(small_config());
        let mut m = gc.register_mutator();
        let shape = ObjectShape::new(1, 100, 0);
        let root = m.root_push(None);
        let mut last: Option<ObjectRef> = None;
        let mut oom = false;
        // Keep everything live via a chain rooted at slot 0: must OOM.
        for _ in 0..10_000 {
            match m.alloc(shape) {
                Ok(obj) => {
                    m.write_ref(obj, 0, last);
                    m.root_set(root, Some(obj));
                    last = Some(obj);
                }
                Err(GcError::OutOfMemory { .. }) => {
                    oom = true;
                    break;
                }
            }
        }
        assert!(oom, "a fully-live heap must report OOM");
        drop(m);
        gc.shutdown();
    }
}
