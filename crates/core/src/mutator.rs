//! The mutator handle: every application thread's interface to the heap
//! and the collector.

use std::sync::Arc;

use mcgc_heap::{ObjectRef, ObjectShape};

use crate::collector::{Gc, GcError};
use crate::roots::MutatorShared;
use crate::stats::Trigger;
use crate::telemetry::EscalationRung;

/// How many write-barrier executions between safepoint polls (allocation
/// polls on every slow path anyway; this bounds pause latency for
/// mutation-heavy, allocation-free stretches).
const WRITE_POLL_PERIOD: u32 = 64;

/// A registered mutator thread's handle.
///
/// Allocation ([`Mutator::alloc`]) is the collector's pacing point: cache
/// refills trigger kickoff checks, incremental tracing duties (§3), and —
/// on allocation failure — the stop-the-world phase. Reference stores go
/// through the card-marking write barrier ([`Mutator::write_ref`], §2).
/// Roots live on an explicit shadow stack ([`Mutator::root_push`] et
/// al.), the substrate's stand-in for the JVM's conservatively-scanned
/// thread stacks.
///
/// Dropping the handle deregisters the thread.
pub struct Mutator {
    gc: Arc<Gc>,
    shared: Arc<MutatorShared>,
    writes_since_poll: u32,
}

impl Mutator {
    pub(crate) fn new(gc: Arc<Gc>, shared: Arc<MutatorShared>) -> Mutator {
        Mutator {
            gc,
            shared,
            writes_since_poll: 0,
        }
    }

    /// The collector this mutator is registered with.
    pub fn gc(&self) -> &Arc<Gc> {
        &self.gc
    }

    /// This mutator's id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Safepoint poll plus §5.3 handshake ack — every mutator polling
    /// point goes through here, so a timed-out handshake completes at
    /// this thread's next poll.
    #[inline]
    fn poll(&self) {
        self.gc.poll_safepoint();
        self.gc.poll_handshake(&self.shared);
    }

    // ------------------------------------------------------------------
    // allocation
    // ------------------------------------------------------------------

    /// Allocates an object.
    ///
    /// Small objects bump-allocate from the thread's allocation cache;
    /// refills perform the incremental tracing duty (§3.1). Large objects
    /// allocate directly from the free list with an individual
    /// publication fence (§5.2).
    ///
    /// # Errors
    /// [`GcError::OutOfMemory`] if the request cannot be satisfied even
    /// after a full collection.
    pub fn alloc(&mut self, shape: ObjectShape) -> Result<ObjectRef, GcError> {
        self.poll();
        let heap = &self.gc.heap;
        if heap.is_large(shape) {
            return self.alloc_large(shape);
        }
        // SAFETY: the owner's access (`&mut self`, thread running); the
        // borrow ends before any call that can enter a safe state.
        let cache = unsafe { self.shared.cache.owned_mut() };
        if let Some(obj) = heap.alloc_small(cache, shape) {
            return Ok(obj);
        }
        self.alloc_small_slow(shape)
    }

    /// Allocates an object and stores a reference to it into `holder`'s
    /// slot through the write barrier. Convenience for the common
    /// allocate-and-link pattern.
    ///
    /// # Errors
    /// Propagates [`GcError::OutOfMemory`] from [`Mutator::alloc`].
    pub fn alloc_into(
        &mut self,
        holder: ObjectRef,
        slot: u32,
        shape: ObjectShape,
    ) -> Result<ObjectRef, GcError> {
        let obj = self.alloc(shape)?;
        self.write_ref(holder, slot, Some(obj));
        Ok(obj)
    }

    #[cold]
    fn alloc_small_slow(&mut self, shape: ObjectShape) -> Result<ObjectRef, GcError> {
        self.gc.tel.on_alloc_slow(false);
        let refill_bytes = self.gc.config.heap.cache_bytes as u64;
        let mut ladder = Escalation::new();
        loop {
            ladder.iteration(&self.gc, shape.bytes() as u64)?;
            // Kickoff check (§3.1), then this allocation's tracing duty.
            self.gc.maybe_kickoff(&self.shared, None);
            self.gc.mutator_increment(&self.shared, refill_bytes);
            {
                // SAFETY: the owner's access (`&mut self`, thread
                // running). The borrow is scoped to this block: the
                // ladder below can stop the world and retire this cache.
                let cache = unsafe { self.shared.cache.owned_mut() };
                if self.gc.heap.refill_cache(cache, shape.granules()) {
                    if let Some(obj) = self.gc.heap.alloc_small(cache, shape) {
                        return Ok(obj);
                    }
                }
            }
            // The refill already swept the in-flight epoch dry. Rungs
            // 1-4: finish the concurrent phase, then full stop-the-world
            // collections, then heap growth, then one bounded
            // backpressure stall; give up (typed OOM) after all of those
            // prove futile.
            ladder.collect_rung(&self.gc, &self.shared, shape.bytes())?;
        }
    }

    #[cold]
    fn alloc_large(&mut self, shape: ObjectShape) -> Result<ObjectRef, GcError> {
        self.gc.tel.on_alloc_slow(true);
        let bytes = shape.bytes() as u64;
        let mut ladder = Escalation::new();
        loop {
            ladder.iteration(&self.gc, bytes)?;
            self.gc.maybe_kickoff(&self.shared, None);
            self.gc.mutator_increment(&self.shared, bytes);
            match self.gc.heap.alloc_large(shape) {
                Ok(obj) => return Ok(obj),
                Err(e) => ladder.last_error = Some(e),
            }
            ladder.collect_rung(&self.gc, &self.shared, shape.bytes())?;
        }
    }

    // ------------------------------------------------------------------
    // heap access
    // ------------------------------------------------------------------

    /// Stores `value` into reference slot `slot` of `obj` through the
    /// card-marking write barrier.
    ///
    /// The barrier follows the paper's order (§2.2 footnote 3): the new
    /// reference is already a root (the caller holds it), the referencing
    /// cell is modified, and finally the card is dirtied — with **no
    /// fence** (§5.3; the collector's snapshot handshake compensates).
    ///
    /// No card is dirtied when `obj` is this mutator's own object whose
    /// allocation bit is still pending: no tracer can have scanned it
    /// (§5.2 defers it, card cleaning keeps its card dirty, and every
    /// pause publishes the caches first), and the cache's publication
    /// fence orders this store before the bit that lets a tracer scan it.
    #[inline]
    pub fn write_ref(&mut self, obj: ObjectRef, slot: u32, value: Option<ObjectRef>) {
        self.gc.heap.store_ref_unbarriered(obj, slot, value);
        // SAFETY: the owner's access (`&mut self`, thread running); the
        // borrow ends before `poll`.
        let unpublished = unsafe { self.shared.cache.owned_mut() }.holds_unpublished(obj);
        if !unpublished {
            self.gc.heap.cards().dirty(obj.card());
        }
        self.writes_since_poll += 1;
        if self.writes_since_poll >= WRITE_POLL_PERIOD {
            self.writes_since_poll = 0;
            self.gc.count_write_barriers(WRITE_POLL_PERIOD.into());
            self.poll();
        }
    }

    /// Loads reference slot `slot` of `obj`.
    #[inline]
    pub fn read_ref(&self, obj: ObjectRef, slot: u32) -> Option<ObjectRef> {
        self.gc.heap.load_ref(obj, slot)
    }

    /// Stores a data (non-reference) granule; no barrier needed.
    #[inline]
    pub fn write_data(&self, obj: ObjectRef, idx: u32, value: u64) {
        self.gc.heap.store_data(obj, idx, value);
    }

    /// Loads a data granule.
    #[inline]
    pub fn read_data(&self, obj: ObjectRef, idx: u32) -> u64 {
        self.gc.heap.load_data(obj, idx)
    }

    // ------------------------------------------------------------------
    // shadow stack (roots)
    // ------------------------------------------------------------------

    /// Pushes a root slot; returns its index.
    pub fn root_push(&self, value: Option<ObjectRef>) -> usize {
        let mut roots = self.shared.roots.lock();
        roots.push(ObjectRef::encode(value));
        roots.len() - 1
    }

    /// Overwrites root slot `idx`.
    pub fn root_set(&self, idx: usize, value: Option<ObjectRef>) {
        self.shared.roots.lock()[idx] = ObjectRef::encode(value);
    }

    /// Reads root slot `idx`.
    pub fn root_get(&self, idx: usize) -> Option<ObjectRef> {
        ObjectRef::decode(self.shared.roots.lock()[idx])
    }

    /// Truncates the shadow stack to `len` slots (popping frames).
    pub fn root_truncate(&self, len: usize) {
        self.shared.roots.lock().truncate(len);
    }

    /// Number of root slots.
    pub fn root_len(&self) -> usize {
        self.shared.roots.lock().len()
    }

    // ------------------------------------------------------------------
    // scheduling
    // ------------------------------------------------------------------

    /// Explicit safepoint poll (for long allocation-free stretches).
    #[inline]
    pub fn safepoint(&self) {
        self.poll();
    }

    /// Runs `f` in a *blocked region*: the thread counts as stopped for
    /// the collector (like a JVM thread in native code), so GC proceeds
    /// during think times and I/O waits. `f` must not touch the heap.
    pub fn blocked<R>(&self, f: impl FnOnce() -> R) -> R {
        // The parked flag publishes every heap write made before parking,
        // so the card handshake may treat this mutator as pre-acked
        // instead of burning its timeout waiting for a poll that cannot
        // come.
        self.shared.park_safe();
        self.gc.enter_safe();
        let r = f();
        self.gc.exit_safe();
        // Ack any handshake that happened during the blocked region
        // *before* dropping the parked flag, so there is no window where
        // the collector sees neither the flag nor the ack.
        self.gc.poll_handshake(&self.shared);
        self.shared.unpark_safe();
        r
    }

    /// Sleeps cooperatively: the collector may run during the sleep
    /// (workload think time, paper §6 pBOB).
    pub fn think(&self, d: std::time::Duration) {
        self.blocked(|| std::thread::sleep(d));
    }

    /// Requests a full collection and waits for it to complete.
    pub fn collect(&mut self) {
        self.gc.collect_inner(Trigger::Explicit, &self.shared);
    }
}

/// Per-request state of the allocation-failure escalation ladder
/// (finish concurrent phase → full stop-the-world → heap growth → one
/// bounded backpressure stall → OOM), with per-rung telemetry and a hard
/// cap on total slow-path iterations as the livelock guard. There is no
/// lazy-sweep rung: `Heap::refill_cache` and `Heap::alloc_large` sweep
/// the in-flight epoch until no chunk is left to claim before they fail.
struct Escalation {
    iterations: u32,
    collections: u32,
    /// Segments committed by the grow rung for this request.
    grows: u32,
    /// Whether the bounded backpressure stall has already run; it never
    /// repeats for the same request, keeping slow-path time bounded.
    stalled: bool,
    /// Whether this request's failure has already had its chance to
    /// start a planned minor cycle (once per request, as the stall).
    kicked_off: bool,
    /// Most recent heap-level failure (large allocations), preserved so
    /// the final OOM carries the allocator's own context.
    last_error: Option<mcgc_heap::AllocError>,
}

impl Escalation {
    fn new() -> Escalation {
        Escalation {
            iterations: 0,
            collections: 0,
            grows: 0,
            stalled: false,
            kicked_off: false,
            last_error: None,
        }
    }

    /// Accounts one slow-path iteration; errors out past the hard cap
    /// (the last-resort livelock guard).
    fn iteration(&mut self, gc: &Gc, requested_bytes: u64) -> Result<(), GcError> {
        self.iterations += 1;
        if self.iterations > 1 {
            gc.tel.on_alloc_retry();
        }
        if self.iterations > gc.config.alloc_iteration_cap {
            gc.tel.on_alloc_oom();
            return Err(self.final_error(gc, requested_bytes));
        }
        Ok(())
    }

    /// Rungs 1-4: finishes the concurrent phase (if one is running) or
    /// runs a full stop-the-world collection; once the configured number
    /// of full collections has proven futile, tries to grow the heap by
    /// one segment (rung 3), then runs the one bounded backpressure
    /// stall (rung 4), and only then errors out with a typed OOM.
    fn collect_rung(
        &mut self,
        gc: &Gc,
        shared: &Arc<MutatorShared>,
        requested_bytes: usize,
    ) -> Result<(), GcError> {
        if self.collections >= gc.config.alloc_full_collections {
            // Rung 3: grow the heap by one segment. Fallible — the hard
            // limit ([`HeapConfig::max_heap_bytes`]) or an injected
            // `heap.segment_reserve` fault may refuse; then the request
            // proceeds down the ladder instead of looping on growth.
            if gc.heap.try_grow() {
                gc.tel.on_alloc_rung(EscalationRung::Grow);
                self.grows += 1;
                return Ok(());
            }
            // Rung 4: wait — boundedly, and helping while waiting — for
            // memory other threads are in the middle of freeing.
            if self.stall_rung(gc, shared, requested_bytes) {
                return Ok(());
            }
            gc.tel.on_alloc_oom();
            return Err(self.final_error(gc, requested_bytes as u64));
        }
        if !self.kicked_off && !gc.in_concurrent_phase() {
            // No cycle running: a minor one the pacer planned starts now
            // (`Gc::maybe_kickoff`), and the retry's tracing duty does its
            // work while the other mutators run, ahead of the collection
            // that finishes it.
            self.kicked_off = true;
            gc.maybe_kickoff(shared, Some(requested_bytes));
            if gc.in_concurrent_phase() {
                return Ok(());
            }
        }
        let rung = if gc.in_concurrent_phase() {
            EscalationRung::FinishConcurrent
        } else {
            EscalationRung::FullStw
        };
        gc.tel.on_alloc_rung(rung);
        gc.collect_for_alloc(Trigger::AllocationFailure, requested_bytes, shared);
        self.collections += 1;
        Ok(())
    }

    /// Rung 4: one bounded backpressure stall. The mutator waits up to
    /// [`GcConfig::alloc_stall_deadline`] for a free run large enough,
    /// helping the collector while it waits (lazy-sweep chunks, tracing
    /// increments like the §3 mutator duties, safepoint polls — a pause
    /// may be the very thing about to free memory). Returns `true` when
    /// memory appeared (caller retries the allocation), `false` when the
    /// deadline expired or the stall already ran for this request —
    /// never waits unboundedly.
    ///
    /// [`GcConfig::alloc_stall_deadline`]: crate::GcConfig::alloc_stall_deadline
    fn stall_rung(&mut self, gc: &Gc, shared: &Arc<MutatorShared>, requested_bytes: usize) -> bool {
        if self.stalled {
            return false;
        }
        self.stalled = true;
        let deadline = gc.config.alloc_stall_deadline;
        let start = std::time::Instant::now();
        let help_bytes = gc.config.heap.cache_bytes as u64;
        let satisfied = loop {
            if gc.heap.largest_free_bytes() >= requested_bytes {
                break true;
            }
            if start.elapsed() >= deadline {
                break false;
            }
            gc.poll_safepoint();
            let swept = gc.sweep_some_lazy();
            if gc.in_concurrent_phase() {
                gc.mutator_increment(shared, help_bytes);
            } else if !swept {
                // Nothing to help with: yield briefly instead of
                // spinning on the free list.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        gc.tel.on_alloc_stall(start.elapsed().as_nanos() as u64);
        satisfied
    }

    fn final_error(&self, gc: &Gc, requested_bytes: u64) -> GcError {
        let base = match self.last_error {
            Some(e) => GcError::from(e),
            None => gc.oom(requested_bytes),
        };
        // Graft this request's ladder history onto the heap snapshot.
        match base {
            GcError::OutOfMemory {
                requested_bytes,
                occupancy_permille,
                segments_committed,
                segments_max,
                segment_map,
                ..
            } => GcError::OutOfMemory {
                requested_bytes,
                occupancy_permille,
                segments_committed,
                segments_max,
                segment_map,
                ladder_iterations: self.iterations,
                full_collections: self.collections,
                grows: self.grows,
                stalled: self.stalled,
            },
        }
    }
}

impl Drop for Mutator {
    fn drop(&mut self) {
        self.gc.count_write_barriers(self.writes_since_poll.into());
        // Retire the cache while still registered and running: no pause
        // can retire it meanwhile, and none sees it once deregistered.
        // SAFETY: the owner's last access (`&mut self`, thread running).
        let cache = unsafe { self.shared.cache.owned_mut() };
        self.gc.heap.retire_cache(cache);
        self.gc.deregister_mutator(&self.shared);
    }
}

impl std::fmt::Debug for Mutator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutator")
            .field("id", &self.shared.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectorMode, GcConfig};

    /// A stop-the-world collector whose heap holds everything these tests
    /// allocate: no collection runs unless a test asks for one, so only
    /// the barrier dirties cards.
    fn quiet_gc() -> Arc<Gc> {
        let mut cfg = GcConfig::with_heap_bytes(16 << 20);
        cfg.mode = CollectorMode::StopTheWorld;
        cfg.background_threads = 0;
        cfg.stw_workers = 1;
        Gc::new(cfg)
    }

    fn small() -> ObjectShape {
        ObjectShape::new(1, 0, 0)
    }

    #[test]
    fn store_into_own_unpublished_object_dirties_no_card_until_a_refill_publishes_it() {
        let gc = quiet_gc();
        let mut m = gc.register_mutator();
        let holder = m.alloc(small()).unwrap();
        let value = m.alloc(small()).unwrap();
        m.write_ref(holder, 0, Some(value));
        assert!(!gc.heap().is_published(holder));
        assert!(!gc.heap().cards().is_dirty(holder.card()));
        assert_eq!(m.read_ref(holder, 0), Some(value));
        while !gc.heap().is_published(holder) {
            m.alloc(small()).unwrap();
        }
        m.write_ref(holder, 0, Some(value));
        assert!(gc.heap().cards().is_dirty(holder.card()));
        assert!(gc.log().cycles.is_empty(), "no pause cleaned the cards");
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn store_after_collect_dirties_the_card() {
        let gc = quiet_gc();
        let mut m = gc.register_mutator();
        let holder = m.alloc(small()).unwrap();
        m.root_push(Some(holder));
        m.collect();
        assert!(
            gc.heap().is_published(holder),
            "the pause retired the cache"
        );
        assert!(!gc.heap().cards().is_dirty(holder.card()));
        let value = m.alloc(small()).unwrap();
        m.write_ref(holder, 0, Some(value));
        assert!(gc.heap().cards().is_dirty(holder.card()));
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn store_into_a_large_or_anothers_object_dirties_its_card() {
        let gc = quiet_gc();
        let mut m = gc.register_mutator();
        let mut other = gc.register_mutator();
        let large = ObjectShape::new(1, 2047, 0);
        assert!(gc.heap().is_large(large));
        let big = m.alloc(large).unwrap();
        assert!(gc.heap().is_published(big), "large objects publish at once");
        let value = m.alloc(small()).unwrap();
        m.write_ref(big, 0, Some(value));
        assert!(gc.heap().cards().is_dirty(big.card()));
        // Unpublished, but in another mutator's cache: not this
        // mutator's own.
        let theirs = other.alloc(small()).unwrap();
        assert!(!gc.heap().is_published(theirs));
        m.write_ref(theirs, 0, Some(value));
        assert!(gc.heap().cards().is_dirty(theirs.card()));
        drop(other);
        drop(m);
        gc.shutdown();
    }
}
