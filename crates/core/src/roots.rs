//! Per-mutator state reachable from the collector, and the
//! stop-the-world rendezvous bookkeeping.
//!
//! [`MutatorShared`] holds two kinds of field. The shadow stack (the GC
//! roots) is *shared*: tracers scan it while its thread runs, so it stays
//! behind a mutex. The allocation cache is *owned* ([`OwnedCache`]): only
//! its mutator touches it while the world runs, and the pause retires it
//! only once the world is stopped, so it takes no lock.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use mcgc_heap::{AllocCache, ObjectRef};
use mcgc_membar::sync::Mutex;

/// A mutator's state as the collector reaches it.
///
/// *Shared* with tracers: the shadow stack. The JVM scans thread stacks
/// conservatively; the substrate equivalent is an explicit *shadow
/// stack* of root slots the workload maintains. It is mutex-protected so
/// the concurrent phase can scan a stack while its thread runs (§2.1
/// scans each stack once, as late as possible) and the stop-the-world
/// phase can rescan every stack. The handshake and parking flags are
/// atomics both sides read.
///
/// *Owned* by the mutator: the allocation cache. No tracer reads it; the
/// pause's retire step is its only cross-thread access (see
/// `OwnedCache::owned_mut`).
#[derive(Debug)]
pub struct MutatorShared {
    /// Dense mutator id (index into per-cycle bookkeeping).
    pub id: u64,
    /// The shadow stack. Slot value 0 encodes null.
    pub(crate) roots: Mutex<Vec<u64>>,
    /// The allocation cache: the mutator's own, retired by the pause.
    pub(crate) cache: OwnedCache,
    /// Cycle number whose concurrent phase has scanned this stack
    /// (0 = never).
    pub(crate) stack_scanned_cycle: AtomicU64,
    /// Latest §5.3 handshake epoch this mutator has fenced for (acked at
    /// safepoint polls; the collector times out on laggards).
    pub(crate) handshake_seen: AtomicU64,
    /// Nonzero while the thread is parked in a [`Mutator::blocked`] safe
    /// region (think time, I/O). A parked mutator cannot poll, but it
    /// also has no unpublished heap writes — the release store of this
    /// flag orders everything it did before parking — so the card
    /// handshake treats it as implicitly acked instead of timing out.
    pub(crate) safe_parked: AtomicU64,
}

impl MutatorShared {
    pub(crate) fn new(id: u64) -> MutatorShared {
        MutatorShared {
            id,
            roots: Mutex::new(Vec::new()),
            cache: OwnedCache(UnsafeCell::new(AllocCache::new())),
            stack_scanned_cycle: AtomicU64::new(0),
            handshake_seen: AtomicU64::new(0),
            safe_parked: AtomicU64::new(0),
        }
    }

    /// Enters a parked safe region. The release ordering publishes every
    /// heap write made before parking, which is what lets the card
    /// handshake treat a parked mutator as pre-acked.
    pub(crate) fn park_safe(&self) {
        self.safe_parked.fetch_add(1, Ordering::Release);
    }

    /// Leaves the parked safe region (call after acking any pending
    /// handshake, so the collector never sees neither flag nor ack).
    pub(crate) fn unpark_safe(&self) {
        self.safe_parked.fetch_sub(1, Ordering::Release);
    }

    /// True while the thread is parked in a safe region.
    pub(crate) fn is_safe_parked(&self) -> bool {
        self.safe_parked.load(Ordering::Acquire) != 0
    }

    /// Attempts to claim this stack's once-per-cycle concurrent scan
    /// (§2.1). Returns true if the caller must perform the scan.
    pub(crate) fn claim_stack_scan(&self, cycle: u64) -> bool {
        let prev = self.stack_scanned_cycle.load(Ordering::Relaxed);
        prev < cycle
            && self
                .stack_scanned_cycle
                .compare_exchange(prev, cycle, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// True if this stack was scanned during `cycle`'s concurrent phase.
    pub(crate) fn stack_scanned(&self, cycle: u64) -> bool {
        self.stack_scanned_cycle.load(Ordering::Relaxed) >= cycle
    }

    /// Snapshots the non-null roots and their count (slots scanned).
    pub(crate) fn snapshot_roots(&self) -> (Vec<ObjectRef>, usize) {
        let roots = self.roots.lock();
        let refs = roots
            .iter()
            .filter_map(|&raw| ObjectRef::decode(raw))
            .collect();
        (refs, roots.len())
    }
}

/// A mutator's allocation cache, read and written without a lock.
///
/// Two parties ever touch it, never at the same time: the owning
/// [`Mutator`](crate::Mutator) while its thread runs (the bump fast
/// path, the refill slow path, deregistration), and the coordinator's
/// retire step while the world is stopped. The stop-the-world
/// rendezvous orders the two, so a lock would add nothing but a lock
/// pair to every allocation.
pub(crate) struct OwnedCache(UnsafeCell<AllocCache>);

// SAFETY: `AllocCache` is plain owned data (`Send`). Sharing the cell
// between threads is sound because its only accessor, `owned_mut`, is
// `unsafe` and its contract rules out overlapping borrows.
unsafe impl Sync for OwnedCache {}

impl OwnedCache {
    /// The cache, for exclusive use while the returned borrow lives.
    ///
    /// # Safety
    /// No other borrow of this cache may be live at the same time. Two
    /// callers qualify, and `mcgc-lint`'s `owned-cache-access` rule keeps
    /// calls inside their two files:
    ///
    /// * **The owner** (`mutator.rs`: `Mutator::alloc`'s fast path, the
    ///   refill in `alloc_small_slow`, the write barrier's test of the
    ///   unpublished range in `write_ref`, and the retire in `Drop`). It
    ///   holds `&mut Mutator`, so no second owner-side borrow exists, and
    ///   its thread is *unsafe* (running), so no pause can be retiring
    ///   caches. The borrow must not be live across a call that can
    ///   enter a safe state: `poll`, `maybe_kickoff`,
    ///   `mutator_increment`, `collect_*`, or the escalation ladder.
    /// * **The pause's retire step** (`collector.rs`: `run_pause` step 1),
    ///   between `stop_world` and `resume_world`. Every owner is safe
    ///   then. An owner's last access comes before its `enter_safe`,
    ///   which unlocks the stw mutex, and that unlock happens-before
    ///   `stop_world` returns. The retire comes before `resume_world` (an
    ///   unlock), which happens-before the owner's `exit_safe` returns (a
    ///   lock). A mutator parked in `blocked()` never touches its cache.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn owned_mut(&self) -> &mut AllocCache {
        // SAFETY: exclusivity is the caller's contract, stated above.
        unsafe { &mut *self.0.get() }
    }
}

impl std::fmt::Debug for OwnedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Reading the cache here could race its owner; print no fields.
        f.debug_struct("OwnedCache").finish_non_exhaustive()
    }
}

/// Stop-the-world rendezvous state, guarded by one mutex with a condvar.
///
/// Every registered thread (mutator or background) is either *unsafe*
/// (running code that may touch the heap) or *safe* (parked at a
/// safepoint, blocked in a think-time region, or waiting for the GC
/// coordinator lock). The coordinator stops the world by setting `stop`
/// and waiting until every other registered thread is safe.
#[derive(Debug, Default)]
pub struct StwSync {
    /// Threads currently safe.
    pub safe: usize,
    /// Total registered threads (mutators + background threads).
    pub registered: usize,
    /// A coordinator wants (or holds) the world stopped.
    pub stop: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_scan_claim_is_once_per_cycle() {
        let m = MutatorShared::new(0);
        assert!(!m.stack_scanned(1));
        assert!(m.claim_stack_scan(1));
        assert!(!m.claim_stack_scan(1), "second claim fails");
        assert!(m.stack_scanned(1));
        assert!(m.claim_stack_scan(2), "new cycle, new scan");
    }

    #[test]
    fn snapshot_skips_nulls() {
        let m = MutatorShared::new(0);
        {
            let mut r = m.roots.lock();
            r.push(0);
            r.push(ObjectRef::encode(Some(ObjectRef::from_granule(5))));
            r.push(0);
        }
        let (refs, slots) = m.snapshot_roots();
        assert_eq!(slots, 3);
        assert_eq!(refs, vec![ObjectRef::from_granule(5)]);
    }
}
