//! Tracing machinery: the §5.2 allocation-bit batch protocol, concurrent
//! tracing increments, card cleaning (§2.1/§5.3), and root scanning.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mcgc_heap::ObjectRef;
use mcgc_membar::{acquire_fence, full_fence, FenceKind};
use mcgc_packets::WorkBuffer;

use mcgc_telemetry::SpanKind;

use crate::collector::Gc;
use crate::roots::MutatorShared;

/// Who is doing tracing work (for attribution of the `T` counters).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum TraceRole {
    /// A mutator's incremental duty (paced by the progress formula).
    Mutator,
    /// A low-priority background thread.
    Background,
}

/// Every `OVERFLOW_BACKOFF_PERIOD`-th §4.3 overflow yields the tracer:
/// sustained overflow means the pool is exhausted, and hammering it with
/// more push attempts only steals cycles from whoever is draining it.
const OVERFLOW_BACKOFF_PERIOD: u64 = 32;

impl Gc {
    // ------------------------------------------------------------------
    // object tracing
    // ------------------------------------------------------------------

    /// Scans `obj`'s reference slots. Each child this call marks is
    /// appended to `grey`, the caller's local grey buffer: it is marked
    /// before it is buffered, so the card flood still finds a grey child
    /// whose packet the watchdog condemns. Returns the bytes scanned.
    #[inline]
    pub(crate) fn scan_into(&self, obj: ObjectRef, grey: &mut Vec<ObjectRef>) -> u64 {
        let header = self.heap.scan_refs(obj, |child| {
            if self.heap.mark(child) {
                grey.push(child);
            }
        });
        header.size_bytes() as u64
    }

    /// Hands the grey buffer to `buf`'s output packet with one bulk push
    /// and leaves it empty. Every tracer does this before its next pop
    /// and before `finish()`, so no grey object sits outside the pool
    /// once its `WorkBuffer` is finished.
    #[inline]
    pub(crate) fn push_grey(&self, buf: &mut WorkBuffer<'_, ObjectRef>, grey: &mut Vec<ObjectRef>) {
        buf.push_many(grey, |obj| self.overflow_to_card(obj));
    }

    /// §4.3 temporary overflow: no packet took `obj`. It stays marked and
    /// its card is dirtied, so final card cleaning rescans it.
    #[cold]
    fn overflow_to_card(&self, obj: ObjectRef) {
        let n = self.counters.overflows.fetch_add(1, Ordering::Relaxed) + 1;
        self.heap.cards().dirty(obj.card());
        if n.is_multiple_of(OVERFLOW_BACKOFF_PERIOD) {
            self.tel.on_overflow_backoff();
            std::thread::yield_now();
        }
    }

    /// Pops up to `trace_batch` objects into `batch` (cleared first) with
    /// one bulk pop, then prefetches each one's header, so the scans that
    /// follow find the whole batch in flight at once: packets make the
    /// next objects to trace known in advance (§4.1). Returns the number
    /// popped; 0 means the buffer had no work.
    #[inline]
    pub(crate) fn pop_batch(
        &self,
        buf: &mut WorkBuffer<'_, ObjectRef>,
        batch: &mut Vec<ObjectRef>,
    ) -> usize {
        batch.clear();
        let n = buf.pop_many(batch, self.config.trace_batch.max(1));
        for &obj in batch.iter() {
            self.heap.prefetch(obj);
        }
        n
    }

    /// One §5.2 batch: pops up to `trace_batch` objects, tests their
    /// allocation bits, issues one acquire fence, traces the safe ones
    /// and defers the unsafe ones. Returns `(objects_processed, bytes)`;
    /// `(0, 0)` means the buffer had no work. `batch`, `safety` and
    /// `grey` are the caller's scratch buffers, reused across batches;
    /// `grey` is empty again on return.
    pub(crate) fn trace_batch_concurrent(
        &self,
        buf: &mut WorkBuffer<'_, ObjectRef>,
        batch: &mut Vec<ObjectRef>,
        safety: &mut Vec<bool>,
        deferred: &mut Vec<ObjectRef>,
        grey: &mut Vec<ObjectRef>,
    ) -> (usize, u64) {
        if self.pop_batch(buf, batch) == 0 {
            return (0, 0);
        }
        // §5.2 tracer steps 2-4: test allocation bits, fence once, trace
        // safe objects, defer unsafe ones. The prefetches `pop_batch`
        // issued read nothing into the program, so no header value is
        // taken before the fence.
        // MODEL: alloc_model (crates/check) — scanning without this bit
        // test is `AllocMutation::SkipBitTest`, caught as an uninitialised
        // scan. The acquire fence is not modelled: the store-buffer model
        // never reorders loads.
        safety.clear();
        safety.extend(batch.iter().map(|&o| self.heap.is_published(o)));
        acquire_fence(FenceKind::TraceBatch);
        let mut bytes = 0;
        for (&obj, &safe) in batch.iter().zip(safety.iter()) {
            if safe {
                bytes += self.scan_into(obj, grey);
            } else {
                deferred.push(obj);
            }
        }
        self.push_grey(buf, grey);
        (batch.len(), bytes)
    }

    /// Parks the accumulated deferred objects into the Deferred sub-pool
    /// (§5.2); falls back to dirtying their cards if no packet is
    /// available.
    pub(crate) fn park_deferred(&self, deferred: &mut Vec<ObjectRef>) {
        if deferred.is_empty() {
            return;
        }
        self.counters
            .deferred
            .fetch_add(deferred.len() as u64, Ordering::Relaxed);
        while !deferred.is_empty() {
            match self.pool.get_empty() {
                Some(mut packet) => {
                    while let Some(obj) = deferred.pop() {
                        if packet.push(obj).is_err() {
                            deferred.push(obj);
                            break;
                        }
                    }
                    packet.defer();
                }
                None => {
                    // No packets: the objects are already marked; dirty
                    // their cards so the stop-the-world phase rescans them.
                    for obj in deferred.drain(..) {
                        self.heap.cards().dirty(obj.card());
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // tracing increments (§3)
    // ------------------------------------------------------------------

    /// Performs up to `quota` bytes of concurrent collection work on
    /// behalf of `role`: packet tracing first, then card cleaning, then
    /// leftover-stack scanning and deferred recycling. Returns the bytes
    /// of work done.
    pub(crate) fn trace_increment(
        &self,
        quota: u64,
        role: TraceRole,
        requester: Option<&Arc<MutatorShared>>,
    ) -> u64 {
        if quota == 0 || !self.in_concurrent_phase() {
            return 0;
        }
        // Timed: its duration is the increment-latency sample, recorded
        // or not.
        let spans = self.tel.hub.spans();
        let mut incr_span = spans.timed(
            spans.current_track(),
            match role {
                TraceRole::Mutator => SpanKind::MutatorIncrement,
                TraceRole::Background => SpanKind::BackgroundIncrement,
            },
            0,
        );
        let mut buf = WorkBuffer::new(&self.pool);
        let mut batch = Vec::with_capacity(self.config.trace_batch);
        let mut safety = Vec::with_capacity(self.config.trace_batch);
        let mut deferred = Vec::new();
        let mut grey = Vec::new();
        let mut done = 0u64;
        let mut recycled_this_increment = false;
        while done < quota {
            // A tracing increment can run for a long time without passing
            // an allocation or write-barrier poll; ack any concurrent
            // handshake here so peers don't wait out their timeout.
            if let Some(m) = requester {
                self.poll_handshake(m);
            }
            let (n, bytes) = self.trace_batch_concurrent(
                &mut buf,
                &mut batch,
                &mut safety,
                &mut deferred,
                &mut grey,
            );
            if n > 0 {
                done += bytes;
                self.credit_tracing(role, bytes);
                continue;
            }
            // No packet work: clean cards (§2.1 — deferred as long as
            // tracing work was available).
            let cleaned = self.clean_cards_quantum(&mut buf, &mut grey, requester);
            if cleaned > 0 {
                done += cleaned;
                self.credit_tracing(role, cleaned);
                continue;
            }
            // No cards either: scan a leftover stack or recycle deferred
            // packets, then retry.
            if self.scan_one_unscanned_stack(&mut buf) {
                continue;
            }
            if !recycled_this_increment && self.pool.has_deferred() {
                self.pool.recycle_deferred();
                recycled_this_increment = true;
                continue;
            }
            break; // genuinely out of concurrent work
        }
        self.park_deferred(&mut deferred);
        self.tel
            .on_packet_claims(buf.input_claims(), buf.output_claims());
        buf.finish();
        incr_span.set_arg(done);
        let wall = incr_span.finish();
        if done > 0 {
            self.tel.on_increment(role, wall.as_nanos() as u64);
        }
        done
    }

    fn credit_tracing(&self, role: TraceRole, bytes: u64) {
        match role {
            TraceRole::Mutator => self
                .counters
                .traced_mutator
                .fetch_add(bytes, Ordering::Relaxed),
            TraceRole::Background => self
                .counters
                .traced_background
                .fetch_add(bytes, Ordering::Relaxed),
        };
    }

    /// True when the concurrent phase has no work left (§2.1 termination:
    /// all stacks scanned, cards cleaned, no marked objects to trace).
    pub(crate) fn concurrent_work_exhausted(&self) -> bool {
        if !self.in_concurrent_phase() {
            return false;
        }
        if !self.card_state.lock().done {
            return false;
        }
        if !self.all_stacks_scanned() {
            return false;
        }
        // Packets: everything is empty, deferred (deferred objects wait
        // for the stop-the-world phase when their allocation bits must be
        // published), or condemned by the watchdog (written off; their
        // lost greys are re-derived via card flooding at the pause).
        let s = self.pool.stats();
        s.empty + s.deferred + s.condemned >= self.pool.total_packets()
    }

    fn all_stacks_scanned(&self) -> bool {
        let cycle = self.cycle();
        if self.global_scanned_cycle.load(Ordering::Relaxed) < cycle {
            return false;
        }
        self.mutators.lock().iter().all(|m| m.stack_scanned(cycle))
    }

    // ------------------------------------------------------------------
    // card cleaning (§2.1, §5.3)
    // ------------------------------------------------------------------

    /// One card-cleaning quantum: refills the registry by snapshotting a
    /// slice of the card table (one handshake per batch, §5.3), then
    /// cleans a few registered cards. Returns bytes of work done (0 =
    /// no cards left this pass). `grey` is scratch, empty again on
    /// return.
    pub(crate) fn clean_cards_quantum(
        &self,
        buf: &mut WorkBuffer<'_, ObjectRef>,
        grey: &mut Vec<ObjectRef>,
        requester: Option<&Arc<MutatorShared>>,
    ) -> u64 {
        let ncards = self.heap.cards().len();
        let take: Vec<usize> = loop {
            let mut cs = self.card_state.lock();
            if cs.done {
                return 0;
            }
            if !cs.registry.is_empty() {
                let n = cs.registry.len().min(16);
                break cs.registry.drain(..n).collect();
            }
            // §5.3 step 1: register dirty cards from the next slice and
            // clear their indicators.
            let mut found = Vec::new();
            while found.is_empty() && cs.cursor < ncards {
                let end = (cs.cursor + self.config.card_clean_batch).min(ncards);
                self.heap.cards().snapshot_dirty(cs.cursor, end, &mut found);
                cs.cursor = end;
            }
            if found.is_empty() {
                // Slice scan finished with nothing found: pass done.
                if cs.pass + 1 < self.config.card_clean_passes {
                    cs.pass += 1;
                    cs.cursor = 0;
                    return 1; // report progress; next quantum rescans
                }
                cs.done = true;
                return 0;
            }
            // §5.3 step 2: force mutators to fence before the registered
            // cards are cleaned. A real rendezvous: every mutator acks
            // (with a fence) at its next safepoint poll, or the collector
            // times out into a global-fence fallback. The snapshot cards
            // are still thread-local here, so the registry lock is
            // released across the wait: a peer stuck on it could never
            // poll, which would turn every rendezvous into a timeout.
            drop(cs);
            self.card_handshake(requester);
            self.counters.handshakes.fetch_add(1, Ordering::Relaxed);
            self.card_state.lock().registry.extend(found);
            // Loop back: drain from the registry (possibly racing other
            // cleaners for these cards, which is fine — they fenced too).
        };
        let mut bytes = 0;
        for &card in &take {
            bytes += self.clean_one_card(card, grey, false);
        }
        self.push_grey(buf, grey);
        self.counters
            .cards_cleaned_conc
            .fetch_add(take.len() as u64, Ordering::Relaxed);
        self.counters
            .card_scanned_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        bytes.max(1)
    }

    /// A minor cycle's remembered set, built at its kickoff by §5.3 steps
    /// 1–2 run once over the whole card table: registers every dirty card
    /// that holds the start of a marked object (an old object, which a
    /// reference may have been stored into since the last pause), clears
    /// every card indicator, and runs one handshake, so the stores those
    /// cards cover are visible before the concurrent cleaner rescans them
    /// from the registry. A dirty card holding no marked object covers
    /// only young objects, which are traced whole when reached: it is
    /// cleared without registering, as a full kickoff drops every card.
    pub(crate) fn register_remembered_set(&self, requester: Option<&Arc<MutatorShared>>) {
        let cards = self.heap.cards();
        let marks = self.heap.mark_bits();
        let gpc = mcgc_heap::GRANULES_PER_CARD;
        let mut old = Vec::new();
        cards.snapshot_dirty(0, cards.len(), &mut old);
        // One mark-word load per dirty card at the current geometry.
        old.retain(|&card| {
            marks
                .next_set_before(card * gpc, (card + 1) * gpc)
                .is_some()
        });
        if old.is_empty() {
            return;
        }
        self.card_handshake(requester);
        self.counters.handshakes.fetch_add(1, Ordering::Relaxed);
        self.card_state.lock().registry.extend(old);
    }

    /// §5.3 step 2 as a real rendezvous: advances the handshake epoch and
    /// waits (bounded by `config.handshake_timeout`) for every registered
    /// mutator to fence and ack at its next safepoint poll. On timeout —
    /// a mutator blocked in think time, or one whose ack a fault plan
    /// swallowed — the collector falls back to a global full fence, which
    /// on the host orders the snapshot by itself; the laggard completes
    /// the protocol at its next poll. Returns true if everyone acked.
    pub(crate) fn card_handshake(&self, requester: Option<&Arc<MutatorShared>>) -> bool {
        // Span arg: 1 = every mutator acked, 0 = timed out into the
        // global-fence fallback.
        let mut hs_span = self.tel.hub.spans().span(SpanKind::Handshake, 0);
        let epoch = self.handshake_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        // The collector side of the rendezvous fences unconditionally;
        // the requesting mutator is inside this call, so ack for it.
        full_fence(FenceKind::CardHandshake);
        if let Some(m) = requester {
            m.handshake_seen.store(epoch, Ordering::Release);
        }
        let deadline = std::time::Instant::now() + self.config.handshake_timeout;
        loop {
            // A mutator parked in a safe region has no unpublished writes
            // (its `safe_parked` release store ordered them) and cannot
            // poll until it wakes — count it as implicitly acked.
            let pending =
                self.mutators.lock().iter().any(|m| {
                    m.handshake_seen.load(Ordering::Acquire) < epoch && !m.is_safe_parked()
                });
            if !pending {
                self.tel.on_handshake_acked();
                hs_span.set_arg(1);
                return true;
            }
            if std::time::Instant::now() >= deadline {
                full_fence(FenceKind::CardHandshake);
                self.tel.on_handshake_timeout();
                return false;
            }
            // Two mutators can rendezvous concurrently (the registry lock
            // is not held here); ack the peer's epoch while waiting for
            // ours or neither ever completes.
            if let Some(m) = requester {
                self.poll_handshake(m);
            }
            std::thread::yield_now();
        }
    }

    /// §5.3 step 3: cleans one registered card — rescans the marked
    /// objects starting on it so references stored after their trace are
    /// discovered, appending newly marked children to `grey`. Returns
    /// bytes scanned. Callers push `grey` and count cleaned cards once
    /// per batch, not per card.
    pub(crate) fn clean_one_card(&self, card: usize, grey: &mut Vec<ObjectRef>, stw: bool) -> u64 {
        const _: () = assert!(mcgc_heap::GRANULES_PER_CARD <= 64, "one mask word per card");
        let start = card * mcgc_heap::GRANULES_PER_CARD;
        let end = ((card + 1) * mcgc_heap::GRANULES_PER_CARD).min(self.heap.granules());
        let alloc = self.heap.alloc_bits();
        let marks = self.heap.mark_bits();
        // Walk the *mark* bitmap, not the allocation bitmap: a deferred
        // object parked onto its card by the pool-exhaustion fallback is
        // marked but not yet published, and walking allocation bits
        // would skip it while the card's dirty indicator has already
        // been consumed — silently losing its children. As in the §5.2
        // batch, every bit is tested before any object is scanned.
        let mut safe = 0u64; // bit i: a published marked object at start + i
        let mut unpublished = false;
        let mut g = start.max(1);
        while let Some(found) = marks.next_set_before(g, end) {
            if alloc.get(found) {
                safe |= 1 << (found - start);
            } else {
                // §5.2: unsafe to scan until its allocation bit batch is
                // published; keep the card as coverage instead.
                unpublished = true;
            }
            g = found + 1;
        }
        if safe != 0 && !stw {
            // The barrier dirties no card for a store into its own
            // unpublished object, so only the publication fence orders
            // that store before the bit read above: order the scans after
            // the bit tests. A pause needs none; stopping the world
            // ordered every mutator store.
            // MODEL: barrier_model (crates/check), unpublished scene —
            // argued, not checked: the store-buffer model never reorders
            // loads, so deleting this acquire fails no model.
            acquire_fence(FenceKind::TraceBatch);
        }
        let mut bytes = 0;
        while safe != 0 {
            let off = safe.trailing_zeros() as usize;
            safe &= safe - 1;
            bytes += self.scan_into(ObjectRef::from_granule((start + off) as u32), grey);
        }
        if unpublished {
            debug_assert!(!stw, "unpublished marks survive cache retirement");
            self.heap.cards().dirty(card);
        }
        bytes
    }

    // ------------------------------------------------------------------
    // root scanning
    // ------------------------------------------------------------------

    /// Marks the root references in `roots`, keeps those this call
    /// marked, and pushes them: `roots` is the grey buffer, left empty.
    pub(crate) fn push_roots(
        &self,
        buf: &mut WorkBuffer<'_, ObjectRef>,
        roots: &mut Vec<ObjectRef>,
    ) {
        roots.retain(|&r| self.heap.mark(r));
        self.push_grey(buf, roots);
    }

    /// Scans a mutator's shadow stack, marking and queueing its roots.
    pub(crate) fn scan_stack(&self, m: &Arc<MutatorShared>, buf: &mut WorkBuffer<'_, ObjectRef>) {
        let (mut refs, slots) = m.snapshot_roots();
        self.counters
            .root_slots
            .fetch_add(slots as u64, Ordering::Relaxed);
        self.push_roots(buf, &mut refs);
    }

    /// Scans the global root table.
    pub(crate) fn scan_global_roots(&self, buf: &mut WorkBuffer<'_, ObjectRef>) {
        let mut roots: Vec<ObjectRef> = {
            let g = self.global_roots.lock();
            self.counters
                .root_slots
                .fetch_add(g.len() as u64, Ordering::Relaxed);
            g.iter().filter_map(|&raw| ObjectRef::decode(raw)).collect()
        };
        self.push_roots(buf, &mut roots);
    }

    /// Concurrent once-per-cycle scan of the calling mutator's own stack
    /// (§2.1: the first allocation request per thread scans its stack).
    pub(crate) fn ensure_own_stack_scanned(
        &self,
        m: &Arc<MutatorShared>,
        buf: &mut WorkBuffer<'_, ObjectRef>,
    ) {
        let cycle = self.cycle();
        if m.claim_stack_scan(cycle) {
            self.scan_stack(m, buf);
        }
        // First tracer also picks up the global roots.
        let seen = self.global_scanned_cycle.load(Ordering::Relaxed);
        if seen < cycle
            && self
                .global_scanned_cycle
                .compare_exchange(seen, cycle, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.scan_global_roots(buf);
        }
    }

    /// §2.1: threads that never allocate have their stacks scanned when
    /// no other tracing work remains. Scans at most one; returns true if
    /// it scanned.
    pub(crate) fn scan_one_unscanned_stack(&self, buf: &mut WorkBuffer<'_, ObjectRef>) -> bool {
        let cycle = self.cycle();
        // Global roots count as a "stack" here too.
        let seen = self.global_scanned_cycle.load(Ordering::Relaxed);
        if seen < cycle
            && self
                .global_scanned_cycle
                .compare_exchange(seen, cycle, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.scan_global_roots(buf);
            return true;
        }
        let victim = {
            let mutators = self.mutators.lock();
            mutators
                .iter()
                .find(|m| !m.stack_scanned(cycle))
                .map(Arc::clone)
        };
        match victim {
            Some(m) if m.claim_stack_scan(cycle) => {
                self.scan_stack(&m, buf);
                true
            }
            Some(_) => true, // someone else claimed it; retry later
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // mutator duties (called from the allocation slow path)
    // ------------------------------------------------------------------

    /// The incremental duty attached to an allocation of
    /// `allocated_bytes` (§3.1): compute the quota from the progress
    /// formula, trace, record the tracing factor, and finish the phase if
    /// the concurrent work is exhausted.
    pub(crate) fn mutator_increment(&self, m: &Arc<MutatorShared>, allocated_bytes: u64) {
        if !self.in_concurrent_phase() {
            return;
        }
        // Fault: an artificial burst of dirty cards (write-barrier storm)
        // to stress card cleaning and the §5.3 handshake machinery.
        if mcgc_fault::point!("cards.flood") {
            self.fault_flood_cards();
        }
        // §2.1: the first allocation request per thread scans its stack.
        {
            let mut buf = WorkBuffer::new(&self.pool);
            self.ensure_own_stack_scanned(m, &mut buf);
            buf.finish();
        }
        let traced = self.counters.traced_concurrent();
        let free = self.heap.free_bytes() as u64;
        let quota = self
            .pacer
            .lock()
            .increment_quota(allocated_bytes, traced, free);
        if quota > 0 {
            let done = self.trace_increment(quota, TraceRole::Mutator, Some(m));
            let factor = done as f64 / quota as f64;
            let mut acc = self.increments.lock();
            acc.n += 1;
            acc.factor_sum += factor;
            acc.factor_sq_sum += factor * factor;
        }
        self.maybe_update_background_estimate();
        #[cfg(feature = "verify-gc")]
        self.audit_increment_boundary();
        if self.concurrent_work_exhausted() {
            self.collect_inner(crate::stats::Trigger::ConcurrentDone, m);
        }
    }

    /// Backs the `cards.flood` fault site: dirties an evenly spaced set
    /// of cards (count = the plan's payload, default 128), simulating a
    /// mutator write storm that stresses card cleaning and handshakes.
    fn fault_flood_cards(&self) {
        let ncards = self.heap.cards().len();
        if ncards == 0 {
            return;
        }
        let payload = mcgc_fault::payload("cards.flood");
        let n = if payload == 0 { 128 } else { payload as usize }.min(ncards);
        let step = (ncards / n).max(1);
        let mut card = 0;
        while card < ncards {
            self.heap.cards().dirty(card);
            card += step;
        }
    }

    /// Occasionally recomputes the background tracing ratio `B` and folds
    /// it into `Best` (§3.2).
    pub(crate) fn maybe_update_background_estimate(&self) {
        let w = self.bg_window_lock();
        let elapsed = w.0;
        if elapsed < std::time::Duration::from_millis(10) {
            return;
        }
        let bg_now = self.counters.traced_background.load(Ordering::Relaxed);
        let alloc_now = self.heap.bytes_allocated();
        let bg_delta = bg_now.saturating_sub(w.1);
        let alloc_delta = alloc_now.saturating_sub(w.2);
        if alloc_delta > 0 {
            self.pacer.lock().observe_background(bg_delta, alloc_delta);
        }
        self.bg_window_store(bg_now, alloc_now);
    }
}

// Small private helpers for the background window.
impl Gc {
    fn bg_window_lock(&self) -> (std::time::Duration, u64, u64) {
        let w = self.bg_window.lock();
        (w.at.elapsed(), w.bg_traced, w.allocated)
    }

    fn bg_window_store(&self, bg: u64, alloc: u64) {
        let mut w = self.bg_window.lock();
        w.at = std::time::Instant::now();
        w.bg_traced = bg;
        w.allocated = alloc;
    }
}
