//! The work packet pool: occupancy-classified sub-pools of fixed-capacity
//! packets with CAS-only synchronization (paper §4).
//!
//! Packets live in a fixed slab and are linked into lock-free lists by
//! index; list heads carry a unique tag incremented on every successful
//! compare-and-swap to defeat the ABA problem (paper footnote 4).
//! Sub-pool packet counters are updated *after* each get/put (§4.3), so
//! they are rough but safe for termination detection: the Empty pool
//! counter equalling the total packet count implies any packet still held
//! is empty.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use mcgc_membar::{release_fence, FenceKind};

/// Which sub-pool a packet lives in, by occupancy (§4.2). The Deferred
/// pool holds packets of objects whose allocation bits were not yet
/// published (§5.2).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Hash)]
pub enum SubPoolKind {
    /// Empty packets.
    Empty,
    /// Packets less than 50% full.
    NonEmpty,
    /// Packets at least 50% full, including totally full ones.
    AlmostFull,
    /// Packets of deferred (not-yet-safe) objects (§5.2).
    Deferred,
}

const SUBPOOLS: usize = 4;
const NIL: u32 = u32::MAX;
/// Sentinel checkout stamp marking a revoked (condemned) packet: the
/// stop-the-world watchdog writes it over the owner stamp of a packet
/// whose holder stalled or died, turning the holder's handle inert.
const CONDEMNED: u64 = u64::MAX;

/// Pool sizing parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Total number of packets (the paper uses 1000; 3000 for the 2.5 GB
    /// pBOB run).
    pub packets: usize,
    /// Entries per packet (the paper's packets hold up to 493 entries).
    pub capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            packets: 1000,
            capacity: 493,
        }
    }
}

struct Slot<T> {
    next: AtomicU32,
    body: UnsafeCell<Vec<T>>,
    /// 0 when pooled; a unique checkout stamp while held by a thread;
    /// [`CONDEMNED`] after the watchdog revoked the holder's handle.
    owner: AtomicU64,
}

struct SubPool {
    /// Packed `(index:32, tag:32)`; tag increments on every successful
    /// CAS, preventing ABA.
    head: AtomicU64,
    /// Rough packet count, updated after each list operation (§4.3).
    count: AtomicUsize,
}

impl SubPool {
    fn new() -> SubPool {
        SubPool {
            head: AtomicU64::new(pack(NIL, 0)),
            count: AtomicUsize::new(0),
        }
    }
}

#[inline]
fn pack(idx: u32, tag: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

/// Snapshot of pool instrumentation (Table 4 costs and §6.3 watermarks).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Packets currently in the Empty sub-pool (rough).
    pub empty: usize,
    /// Packets currently in the Non-empty sub-pool (rough).
    pub non_empty: usize,
    /// Packets currently in the Almost-full sub-pool (rough).
    pub almost_full: usize,
    /// Packets currently in the Deferred sub-pool (rough).
    pub deferred: usize,
    /// CAS operations attempted on sub-pool heads (get/put cost, Table 4).
    pub cas_ops: u64,
    /// High-water mark of packets simultaneously held by threads (§6.3
    /// upper limit on memory need).
    pub in_use_watermark: usize,
    /// High-water mark of occupied packet slots, sampled at packet put
    /// (§6.3 lower limit on memory need).
    pub entries_watermark: usize,
    /// Occupied entries currently accounted (exact for pooled packets).
    pub entries: usize,
    /// Packets acquired from the pool (gets) since the last reset.
    pub gets: u64,
    /// Packets returned to the pool (puts) since the last reset.
    pub puts: u64,
    /// Packets condemned by the watchdog and not yet surrendered by
    /// their (stalled) holders.
    pub condemned: usize,
}

/// The global work packet pool (paper §4).
///
/// `T` is the work item type (the collector uses object references).
pub struct PacketPool<T> {
    slots: Box<[Slot<T>]>,
    capacity: usize,
    pools: [SubPool; SUBPOOLS],
    cas_ops: AtomicU64,
    in_use: AtomicUsize,
    in_use_watermark: AtomicUsize,
    entries: AtomicUsize,
    entries_watermark: AtomicUsize,
    gets: AtomicU64,
    puts: AtomicU64,
    /// Monotonic checkout-stamp source (starts at 1; 0 means pooled).
    next_checkout: AtomicU64,
    /// Packets condemned and not yet returned; counts toward §4.3
    /// termination detection in place of their Empty-pool membership.
    condemned: AtomicUsize,
}

// SAFETY: a packet's body is only accessed by the thread that popped its
// index from a sub-pool list (exclusive ownership transfers through the
// list). `T: Send` is required to move items across threads.
unsafe impl<T: Send> Send for PacketPool<T> {}
// SAFETY: as above — shared references only ever touch the atomics;
// `UnsafeCell` bodies are reached through list-transferred ownership.
unsafe impl<T: Send> Sync for PacketPool<T> {}

impl<T> PacketPool<T> {
    /// Creates a pool with all packets empty.
    pub fn new(config: PoolConfig) -> PacketPool<T> {
        assert!(config.packets > 0 && config.packets < NIL as usize);
        assert!(config.capacity > 0);
        let pool = PacketPool {
            slots: (0..config.packets)
                .map(|_| Slot {
                    next: AtomicU32::new(NIL),
                    body: UnsafeCell::new(Vec::with_capacity(config.capacity)),
                    owner: AtomicU64::new(0),
                })
                .collect(),
            capacity: config.capacity,
            pools: [
                SubPool::new(),
                SubPool::new(),
                SubPool::new(),
                SubPool::new(),
            ],
            cas_ops: AtomicU64::new(0),
            in_use: AtomicUsize::new(0),
            in_use_watermark: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            entries_watermark: AtomicUsize::new(0),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            next_checkout: AtomicU64::new(1),
            condemned: AtomicUsize::new(0),
        };
        for i in 0..config.packets {
            pool.push_list(SubPoolKind::Empty, i as u32);
        }
        pool
    }

    /// Total number of packets.
    pub fn total_packets(&self) -> usize {
        self.slots.len()
    }

    /// Entries per packet.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn pool_index(kind: SubPoolKind) -> usize {
        match kind {
            SubPoolKind::Empty => 0,
            SubPoolKind::NonEmpty => 1,
            SubPoolKind::AlmostFull => 2,
            SubPoolKind::Deferred => 3,
        }
    }

    fn push_list(&self, kind: SubPoolKind, idx: u32) {
        let pool = &self.pools[Self::pool_index(kind)];
        loop {
            if mcgc_fault::point!("pool.cas_storm") {
                // Simulated head contention: yield between the head read
                // and the CAS so concurrent list operations interleave
                // (and genuinely fail the CAS) far more often.
                std::thread::yield_now();
            }
            let head = pool.head.load(Ordering::Acquire);
            let (hidx, tag) = unpack(head);
            // MODEL: pool_model — the link store is ordered before the
            // publishing CAS by the CAS's Release; it needs no ordering
            // of its own.
            self.slots[idx as usize].next.store(hidx, Ordering::Relaxed);
            self.cas_ops.fetch_add(1, Ordering::Relaxed);
            if pool
                .head
                .compare_exchange_weak(
                    head,
                    pack(idx, tag.wrapping_add(1)),
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                break;
            }
        }
        // §4.3: the packet counter is updated after the list operation.
        // MODEL: pool_model — CounterBeforeOp reverses this and the model
        // catches the broken termination inequality.
        pool.count.fetch_add(1, Ordering::Relaxed);
    }

    fn pop_list(&self, kind: SubPoolKind) -> Option<u32> {
        let pool = &self.pools[Self::pool_index(kind)];
        loop {
            if mcgc_fault::point!("pool.cas_storm") {
                std::thread::yield_now();
            }
            let head = pool.head.load(Ordering::Acquire);
            let (hidx, tag) = unpack(head);
            if hidx == NIL {
                return None;
            }
            // MODEL: pool_model — reading the link of a head we may not
            // own is safe only because slots are never freed and the
            // tagged CAS below rejects a recycled head (NoAbaTag).
            let next = self.slots[hidx as usize].next.load(Ordering::Relaxed);
            self.cas_ops.fetch_add(1, Ordering::Relaxed);
            if pool
                .head
                .compare_exchange_weak(
                    head,
                    pack(next, tag.wrapping_add(1)),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // MODEL: pool_model — §4.3 counter after the list op.
                pool.count.fetch_sub(1, Ordering::Relaxed);
                return Some(hidx);
            }
        }
    }

    fn classify(&self, len: usize) -> SubPoolKind {
        if len == 0 {
            SubPoolKind::Empty
        } else if len * 2 < self.capacity {
            SubPoolKind::NonEmpty
        } else {
            SubPoolKind::AlmostFull
        }
    }

    fn acquire(&self, idx: u32) -> Packet<'_, T> {
        // SAFETY: we just popped `idx` from a list, so we own the body.
        let len = unsafe { (*self.slots[idx as usize].body.get()).len() };
        let stamp = self.next_checkout.fetch_add(1, Ordering::Relaxed);
        self.slots[idx as usize]
            .owner
            .store(stamp, Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        let held = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_use_watermark.fetch_max(held, Ordering::Relaxed);
        Packet {
            pool: self,
            idx,
            acquired_len: len,
            dirty: false,
            target: None,
        }
    }

    /// Gets an *input* packet: the highest occupancy range that has
    /// packets (§4.2) — Almost-full first, then Non-empty.
    pub fn get_input(&self) -> Option<Packet<'_, T>> {
        self.pop_list(SubPoolKind::AlmostFull)
            .or_else(|| self.pop_list(SubPoolKind::NonEmpty))
            .map(|idx| self.acquire(idx))
    }

    /// Gets an *output* packet: the lowest occupancy range that has
    /// packets (§4.2) — Empty first, then Non-empty.
    pub fn get_output(&self) -> Option<Packet<'_, T>> {
        // Injected exhaustion forces the §4.3 overflow fallback. Only
        // output-side gets are injectable: failing `get_input` would
        // starve the STW drain, which retries it unconditionally.
        if mcgc_fault::point!("pool.exhausted") {
            return None;
        }
        self.pop_list(SubPoolKind::Empty)
            .or_else(|| self.pop_list(SubPoolKind::NonEmpty))
            .map(|idx| self.acquire(idx))
    }

    /// Gets an empty packet only (used for the deferred-object packet).
    pub fn get_empty(&self) -> Option<Packet<'_, T>> {
        if mcgc_fault::point!("pool.exhausted") {
            return None;
        }
        self.pop_list(SubPoolKind::Empty)
            .map(|idx| self.acquire(idx))
    }

    /// Returns `packet` to the sub-pool matching its occupancy. Equivalent
    /// to dropping it; provided for readability at call sites.
    pub fn put(&self, packet: Packet<'_, T>) {
        drop(packet);
    }

    /// Moves every Deferred packet back into the regular sub-pools so its
    /// objects get another chance to be traced (§5.2).
    ///
    /// Returns the number of packets recycled.
    pub fn recycle_deferred(&self) -> usize {
        let mut n = 0;
        while let Some(idx) = self.pop_list(SubPoolKind::Deferred) {
            // SAFETY: exclusive ownership after pop.
            let len = unsafe { (*self.slots[idx as usize].body.get()).len() };
            self.push_list(self.classify(len), idx);
            n += 1;
        }
        n
    }

    /// §4.3 termination detection: tracing is complete when the Empty
    /// pool's counter equals the total number of packets. Condemned
    /// packets count as surrendered — their entries were written off by
    /// the watchdog (and re-derived through dirty cards), so a stalled
    /// holder can no longer block termination.
    pub fn is_tracing_complete(&self) -> bool {
        self.pools[Self::pool_index(SubPoolKind::Empty)]
            .count
            .load(Ordering::Relaxed)
            + self.condemned.load(Ordering::Relaxed)
            >= self.slots.len()
    }

    /// Packets currently checked out by threads (rough).
    pub fn outstanding(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Packets condemned and not yet surrendered by their holders.
    pub fn condemned(&self) -> usize {
        self.condemned.load(Ordering::Relaxed)
    }

    /// Revokes every currently checked-out packet: overwrites its owner
    /// stamp with the condemned sentinel, so the (stalled or dead)
    /// holder's handle rejects pushes, pops nothing, and clears its body
    /// on drop, while termination detection counts the packet as
    /// surrendered. Returns the number of packets condemned.
    ///
    /// The caller must guarantee every holder is descheduled for the
    /// duration of the call — a stop-the-world pause qualifies. A holder
    /// racing its own (pre-pause) drop wins the stamp swap and is
    /// skipped; its packet returned normally.
    ///
    /// Safety note on the written-off entries: the condemning collector
    /// must re-derive the lost grey set some other way. The core
    /// watchdog does this by dirtying the card of every marked object
    /// before the pause's final card-cleaning pass.
    pub fn condemn_outstanding(&self) -> usize {
        let mut n = 0;
        for slot in self.slots.iter() {
            let owner = slot.owner.load(Ordering::Acquire);
            if owner != 0
                && owner != CONDEMNED
                && slot
                    .owner
                    .compare_exchange(owner, CONDEMNED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                self.condemned.fetch_add(1, Ordering::Release);
                n += 1;
            }
        }
        n
    }

    /// True if any deferred packets are waiting.
    pub fn has_deferred(&self) -> bool {
        self.pools[Self::pool_index(SubPoolKind::Deferred)]
            .count
            .load(Ordering::Relaxed)
            > 0
    }

    /// Snapshot of counters and watermarks.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            // MODEL: pool_model — racy snapshot reads; §4.3's inequality
            // (counts never under-report) is what makes them usable.
            empty: self.pools[0].count.load(Ordering::Relaxed),
            non_empty: self.pools[1].count.load(Ordering::Relaxed),
            almost_full: self.pools[2].count.load(Ordering::Relaxed),
            deferred: self.pools[3].count.load(Ordering::Relaxed),
            cas_ops: self.cas_ops.load(Ordering::Relaxed),
            in_use_watermark: self.in_use_watermark.load(Ordering::Relaxed),
            entries_watermark: self.entries_watermark.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            condemned: self.condemned.load(Ordering::Relaxed),
        }
    }

    /// Fraction of total entry slots currently occupied, in `[0, 1]`
    /// (rough: reads the entries counter once).
    pub fn occupancy(&self) -> f64 {
        let total = self.slots.len() * self.capacity;
        self.entries.load(Ordering::Relaxed) as f64 / total as f64
    }

    /// Copies every entry currently sitting in pooled packets, across
    /// all four sub-pools. This is the collector's *grey set*: objects
    /// marked but not yet scanned. Used by the `verify-gc` tri-color
    /// audit at safepoints.
    ///
    /// # Safety
    ///
    /// The pool must be quiescent: no thread may get, put, or mutate a
    /// packet for the duration of the call, and no packet may be held by
    /// a thread that could mutate it during the call — held packets are
    /// not on any list, so they are skipped, which is only sound if
    /// their holders are descheduled (e.g. stalled holders whose packets
    /// the watchdog condemned and re-derived via dirty cards). A
    /// stop-the-world pause with worker threads parked satisfies this.
    pub unsafe fn snapshot_entries(&self) -> Vec<T>
    where
        T: Copy,
    {
        let mut out = Vec::new();
        for pool in &self.pools {
            let (mut idx, _) = unpack(pool.head.load(Ordering::Acquire));
            while idx != NIL {
                let slot = &self.slots[idx as usize];
                // SAFETY: quiescence (the caller's contract) means no
                // thread owns or mutates this body while we read it.
                let body = unsafe { &*slot.body.get() };
                out.extend_from_slice(body);
                idx = slot.next.load(Ordering::Relaxed); // MODEL: pool_model (quiescent)
            }
        }
        out
    }

    /// Resets instrumentation (not pool contents) between measurements.
    pub fn reset_stats(&self) {
        self.cas_ops.store(0, Ordering::Relaxed);
        self.gets.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.in_use_watermark
            .store(self.in_use.load(Ordering::Relaxed), Ordering::Relaxed);
        self.entries_watermark
            .store(self.entries.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl<T> std::fmt::Debug for PacketPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("packets", &self.slots.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// An exclusively-held work packet. Returns itself to the proper sub-pool
/// on drop; if entries were pushed, the drop performs the §5.1 publication
/// fence first (one fence per packet of marked objects).
pub struct Packet<'p, T> {
    pool: &'p PacketPool<T>,
    idx: u32,
    acquired_len: usize,
    dirty: bool,
    target: Option<SubPoolKind>,
}

impl<'p, T> Packet<'p, T> {
    #[inline]
    fn body(&mut self) -> &mut Vec<T> {
        // SAFETY: exclusive ownership while the handle exists.
        unsafe { &mut *self.pool.slots[self.idx as usize].body.get() }
    }

    #[inline]
    fn body_ref(&self) -> &Vec<T> {
        // SAFETY: exclusive ownership while the handle exists.
        unsafe { &*self.pool.slots[self.idx as usize].body.get() }
    }

    /// Number of entries currently in the packet.
    pub fn len(&self) -> usize {
        self.body_ref().len()
    }

    /// True if the packet holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the packet is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.pool.capacity
    }

    /// Entries per packet.
    pub fn capacity(&self) -> usize {
        self.pool.capacity
    }

    /// True if the watchdog revoked this handle: its entries are
    /// written off and the handle must act inert.
    pub(crate) fn is_condemned(&self) -> bool {
        self.pool.slots[self.idx as usize]
            .owner
            .load(Ordering::Relaxed)
            == CONDEMNED
    }

    /// Pushes `item`; fails with the item back if the packet is full or
    /// the handle was condemned (a condemned body is cleared on drop, so
    /// accepting the item would silently lose it).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() || self.is_condemned() {
            return Err(item);
        }
        self.body().push(item);
        self.dirty = true;
        Ok(())
    }

    /// Pops an entry (LIFO within the packet). A condemned handle yields
    /// nothing: its entries belong to a marking epoch that may already
    /// be over, and the condemning pause re-derived them from cards.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_condemned() {
            return None;
        }
        self.body().pop()
    }

    /// Pushes the longest prefix of `items` that fits, with one copy, and
    /// returns its length: the same entries, in the same order, as that
    /// many [`Packet::push`] calls. A condemned handle takes nothing.
    pub(crate) fn push_slice(&mut self, items: &[T]) -> usize
    where
        T: Copy,
    {
        if self.is_condemned() {
            return 0;
        }
        let capacity = self.pool.capacity;
        let body = self.body();
        let n = items.len().min(capacity.saturating_sub(body.len()));
        body.extend_from_slice(&items[..n]);
        self.dirty |= n > 0;
        n
    }

    /// Appends up to `max` entries to `out`, in the order that many
    /// [`Packet::pop`] calls would return them, and returns how many
    /// moved. A condemned handle yields nothing.
    pub(crate) fn pop_into(&mut self, out: &mut Vec<T>, max: usize) -> usize
    where
        T: Copy,
    {
        if self.is_condemned() {
            return 0;
        }
        let body = self.body();
        let n = max.min(body.len());
        out.extend(body.drain(body.len() - n..).rev());
        n
    }

    /// Routes this packet to the Deferred sub-pool when dropped (§5.2).
    pub fn defer(mut self) {
        self.target = Some(SubPoolKind::Deferred);
    }

    /// Swaps the contents of two packets (the §4.3 input/output swap on
    /// overflow).
    pub fn swap_contents(&mut self, other: &mut Packet<'p, T>) {
        let a = self.idx as usize;
        let b = other.idx as usize;
        debug_assert!(a != b);
        // SAFETY: both handles are exclusively held.
        unsafe {
            std::ptr::swap(self.pool.slots[a].body.get(), self.pool.slots[b].body.get());
        }
        std::mem::swap(&mut self.acquired_len, &mut other.acquired_len);
        self.dirty = true;
        other.dirty = true;
    }
}

impl<T> Drop for Packet<'_, T> {
    fn drop(&mut self) {
        // Resolve the checkout stamp first: if the watchdog condemned
        // this handle while its holder was descheduled, the entries were
        // already written off (the condemning pause re-derived them from
        // dirty cards) and reference a marking epoch that may be over —
        // clear them rather than leak stale grey objects into a future
        // cycle.
        let slot_owner = &self.pool.slots[self.idx as usize].owner;
        let was_condemned = slot_owner.swap(0, Ordering::AcqRel) == CONDEMNED;
        if was_condemned {
            // SAFETY: exclusive ownership while the handle exists.
            unsafe { (*self.pool.slots[self.idx as usize].body.get()).clear() };
        }
        let len = self.len();
        if self.dirty && len > 0 {
            // §5.1: one fence before returning an output packet to a pool;
            // the consumer needs none (data dependency through the head
            // pointer).
            release_fence(FenceKind::PacketPublish);
        }
        let kind = if was_condemned {
            // Cleared above; never honor a Deferred routing request from
            // before the condemnation.
            SubPoolKind::Empty
        } else {
            self.target.unwrap_or_else(|| self.pool.classify(len))
        };
        // Usage accounting (sampled at put; §6.3 watermarks) settles
        // *before* the packet is published: once it is on a list, a
        // consumer can pop, drain and return it, and its subtraction
        // must never run ahead of this handle's addition (the counter
        // would wrap below zero).
        let pool = self.pool;
        pool.in_use.fetch_sub(1, Ordering::Relaxed);
        if len >= self.acquired_len {
            let total = pool
                .entries
                .fetch_add(len - self.acquired_len, Ordering::Relaxed)
                + (len - self.acquired_len);
            pool.entries_watermark.fetch_max(total, Ordering::Relaxed);
        } else {
            pool.entries
                .fetch_sub(self.acquired_len - len, Ordering::Relaxed);
        }
        pool.push_list(kind, self.idx);
        pool.puts.fetch_add(1, Ordering::Relaxed);
        if was_condemned {
            // Only after the packet is back on the Empty list: the §4.3
            // termination inequality stays satisfied throughout (the
            // packet is transiently counted both as condemned and as
            // empty, never as neither).
            pool.condemned.fetch_sub(1, Ordering::Release);
        }
    }
}

impl<T> std::fmt::Debug for Packet<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("idx", &self.idx)
            .field("len", &self.len())
            .field("capacity", &self.pool.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(packets: usize, capacity: usize) -> PacketPool<u64> {
        PacketPool::new(PoolConfig { packets, capacity })
    }

    #[test]
    fn starts_all_empty_and_complete() {
        let p = pool(8, 4);
        assert_eq!(p.stats().empty, 8);
        assert!(p.is_tracing_complete());
    }

    #[test]
    fn push_pop_roundtrip() {
        let p = pool(4, 4);
        let mut pk = p.get_output().expect("empty packet available");
        assert!(pk.is_empty());
        pk.push(1).unwrap();
        pk.push(2).unwrap();
        assert_eq!(pk.pop(), Some(2));
        assert_eq!(pk.len(), 1);
        p.put(pk);
        assert!(!p.is_tracing_complete());
        let mut pk = p.get_input().expect("non-empty packet available");
        assert_eq!(pk.pop(), Some(1));
        assert_eq!(pk.pop(), None);
        p.put(pk);
        assert!(p.is_tracing_complete());
    }

    #[test]
    fn slice_push_and_pop_into_match_per_entry_order() {
        let p = pool(4, 4);
        let mut pk = p.get_output().unwrap();
        pk.push(1).unwrap();
        assert_eq!(
            pk.push_slice(&[2, 3, 4, 5, 6]),
            3,
            "only the prefix that fits"
        );
        assert!(pk.is_full());
        assert_eq!(pk.push_slice(&[7]), 0);
        let mut out = vec![0];
        assert_eq!(pk.pop_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 4, 3, 2], "appended in pop order");
        assert_eq!(pk.pop_into(&mut out, 9), 1);
        assert_eq!(pk.pop_into(&mut out, 9), 0);
        pk.push(8).unwrap();
        assert_eq!(p.condemn_outstanding(), 1);
        assert_eq!(pk.push_slice(&[9]), 0, "condemned takes nothing");
        assert_eq!(pk.pop_into(&mut out, 9), 0, "condemned yields nothing");
        assert_eq!(out, vec![0, 4, 3, 2, 1]);
    }

    #[test]
    fn classification_by_occupancy() {
        let p = pool(4, 4);
        // 1 entry of 4 => <50% => NonEmpty
        let mut a = p.get_output().unwrap();
        a.push(1).unwrap();
        p.put(a);
        assert_eq!(p.stats().non_empty, 1);
        // 2 of 4 => >=50% => AlmostFull
        let mut b = p.get_output().unwrap();
        b.push(1).unwrap();
        b.push(2).unwrap();
        p.put(b);
        let s = p.stats();
        assert_eq!(s.almost_full, 1);
        assert_eq!(s.empty, 2);
    }

    #[test]
    fn input_prefers_fullest_output_prefers_emptiest() {
        let p = pool(4, 4);
        let mut a = p.get_output().unwrap();
        a.push(1).unwrap(); // NonEmpty
        let mut b = p.get_output().unwrap();
        for i in 0..4 {
            b.push(i).unwrap(); // AlmostFull (full)
        }
        p.put(a);
        p.put(b);
        let input = p.get_input().unwrap();
        assert_eq!(input.len(), 4, "input from AlmostFull first");
        let output = p.get_output().unwrap();
        assert_eq!(output.len(), 0, "output from Empty first");
    }

    #[test]
    fn full_packet_rejects_push() {
        let p = pool(2, 2);
        let mut pk = p.get_output().unwrap();
        pk.push(1).unwrap();
        pk.push(2).unwrap();
        assert_eq!(pk.push(3), Err(3));
        assert!(pk.is_full());
    }

    #[test]
    fn deferred_blocks_termination_until_recycled() {
        let p = pool(4, 4);
        let mut pk = p.get_output().unwrap();
        pk.push(9).unwrap();
        pk.defer();
        assert!(p.has_deferred());
        assert!(!p.is_tracing_complete());
        assert!(p.get_input().is_none(), "deferred packets are not input");
        assert_eq!(p.recycle_deferred(), 1);
        assert!(!p.has_deferred());
        let mut pk = p.get_input().expect("recycled packet is input again");
        assert_eq!(pk.pop(), Some(9));
    }

    #[test]
    fn swap_contents_swaps() {
        let p = pool(4, 4);
        let mut a = p.get_output().unwrap();
        let mut b = p.get_output().unwrap();
        a.push(1).unwrap();
        a.push(2).unwrap();
        b.push(7).unwrap();
        a.swap_contents(&mut b);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(a.pop(), Some(7));
    }

    #[test]
    fn exhaustion_returns_none() {
        let p = pool(2, 4);
        let _a = p.get_output().unwrap();
        let _b = p.get_output().unwrap();
        assert!(p.get_output().is_none());
        assert!(p.get_input().is_none());
        assert!(p.get_empty().is_none());
    }

    #[test]
    fn stats_track_cas_and_watermarks() {
        let p = pool(4, 4);
        let base = p.stats().cas_ops;
        let a = p.get_output().unwrap();
        let b = p.get_output().unwrap();
        assert!(p.stats().cas_ops > base);
        assert_eq!(p.stats().in_use_watermark, 2);
        drop(a);
        drop(b);
        let mut c = p.get_output().unwrap();
        for i in 0..3 {
            c.push(i).unwrap();
        }
        drop(c);
        assert_eq!(p.stats().entries, 3);
        assert_eq!(p.stats().entries_watermark, 3);
    }

    #[test]
    fn recycle_classifies_by_occupancy() {
        let p = pool(8, 4);
        // Defer one almost-full and one barely-filled packet.
        let mut a = p.get_output().unwrap();
        a.push(1).unwrap();
        a.push(2).unwrap();
        a.push(3).unwrap();
        a.defer();
        let mut b = p.get_output().unwrap();
        b.push(9).unwrap();
        b.defer();
        assert_eq!(p.stats().deferred, 2);
        assert_eq!(p.recycle_deferred(), 2);
        let s = p.stats();
        assert_eq!(s.deferred, 0);
        assert_eq!(s.almost_full, 1, "3/4 full goes to AlmostFull");
        assert_eq!(s.non_empty, 1, "1/4 full goes to NonEmpty");
    }

    #[test]
    fn recycle_empty_deferred_goes_to_empty_pool() {
        let p = pool(4, 4);
        let pk = p.get_output().unwrap();
        pk.defer(); // deferring an empty packet is legal
        assert!(
            !p.is_tracing_complete(),
            "deferred packet blocks termination"
        );
        p.recycle_deferred();
        assert!(p.is_tracing_complete());
    }

    #[test]
    fn reset_stats_keeps_watermark_floor_at_current_use() {
        let p = pool(4, 4);
        let a = p.get_output().unwrap();
        let _b = p.get_output().unwrap();
        drop(a);
        assert_eq!(p.stats().in_use_watermark, 2);
        p.reset_stats();
        assert_eq!(p.stats().in_use_watermark, 1, "one still held");
        assert_eq!(p.stats().cas_ops, 0);
    }

    #[test]
    fn concurrent_churn_loses_nothing() {
        use std::sync::Arc;
        // Under Miri every CAS is interpreted; keep the shape (4
        // producers, 2 consumers, contended lists) but shrink the churn.
        const PER_PRODUCER: u64 = if cfg!(miri) { 150 } else { 4000 };
        const PRODUCERS: usize = 4;
        let p = Arc::new(pool(64, 8));
        let producers_done = Arc::new(AtomicUsize::new(0));
        // Producers push PER_PRODUCER items each; consumers drain until
        // every producer has finished and the pool is empty. Total
        // consumed + left-in-pool must equal total produced.
        let produced = PRODUCERS as u64 * PER_PRODUCER;
        let consumed: u64 = std::thread::scope(|s| {
            for t in 0..PRODUCERS as u64 {
                let p = Arc::clone(&p);
                let producers_done = Arc::clone(&producers_done);
                s.spawn(move || {
                    let mut out = None;
                    for i in 0..PER_PRODUCER {
                        let item = t * 1_000_000 + i;
                        loop {
                            if out.is_none() {
                                out = p.get_output();
                            }
                            match out.as_mut() {
                                Some(pk) => {
                                    if pk.push(item).is_ok() {
                                        break;
                                    }
                                    out = None; // full: drop returns it
                                }
                                None => std::thread::yield_now(),
                            }
                        }
                    }
                    drop(out); // publish the last, partly filled packet
                    producers_done.fetch_add(1, Ordering::Release);
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let p = Arc::clone(&p);
                    let producers_done = Arc::clone(&producers_done);
                    s.spawn(move || {
                        let mut n = 0u64;
                        loop {
                            // Read before polling: an empty poll after
                            // every producer finished means nothing is
                            // left to arrive. (Stopping on idle polls
                            // alone could strand producers waiting for
                            // an empty packet that no consumer returns.)
                            let finished = producers_done.load(Ordering::Acquire) == PRODUCERS;
                            match p.get_input() {
                                Some(mut pk) => {
                                    while pk.pop().is_some() {
                                        n += 1;
                                    }
                                }
                                None if finished => break,
                                None => std::thread::yield_now(),
                            }
                        }
                        n
                    })
                })
                .collect();
            consumers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let left = p.stats().entries as u64;
        assert_eq!(consumed + left, produced, "no items lost or duplicated");
        if left == 0 {
            assert!(p.is_tracing_complete());
        }
        assert!(p.stats().entries_watermark <= 64 * 8, "{:?}", p.stats());
    }

    #[test]
    fn concurrent_bulk_transfer_loses_nothing() {
        // The churn above through `WorkBuffer`'s bulk calls, with runs
        // that straddle packet edges, overflow retried, and the same
        // scale-down under Miri.
        const PER_PRODUCER: u64 = if cfg!(miri) { 150 } else { 4000 };
        const PRODUCERS: usize = 4;
        let p = pool(64, 8);
        let producers_done = AtomicUsize::new(0);
        let produced = PRODUCERS as u64 * PER_PRODUCER;
        let consumed: Vec<u64> = std::thread::scope(|s| {
            for t in 0..PRODUCERS as u64 {
                let (p, producers_done) = (&p, &producers_done);
                s.spawn(move || {
                    let mut w = crate::WorkBuffer::new(p);
                    let mut items = Vec::new();
                    let mut retry = Vec::new();
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        // Runs of 1..=37 items straddle packet edges.
                        let run = (1 + (t + i) % 37).min(PER_PRODUCER - i);
                        items.extend((i..i + run).map(|i| t * 1_000_000 + i));
                        i += run;
                        w.push_many(&mut items, |item| retry.push(item));
                        while !retry.is_empty() {
                            std::thread::yield_now();
                            std::mem::swap(&mut items, &mut retry);
                            w.push_many(&mut items, |item| retry.push(item));
                        }
                    }
                    w.finish();
                    producers_done.fetch_add(1, Ordering::Release);
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let (p, producers_done) = (&p, &producers_done);
                    s.spawn(move || {
                        let mut w = crate::WorkBuffer::new(p);
                        let mut got = Vec::new();
                        loop {
                            // Read before polling, as above.
                            let finished = producers_done.load(Ordering::Acquire) == PRODUCERS;
                            if w.pop_many(&mut got, 24) == 0 {
                                if finished {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let unique: std::collections::HashSet<u64> = consumed.iter().copied().collect();
        assert_eq!(unique.len(), consumed.len(), "no item consumed twice");
        let left = p.stats().entries as u64;
        assert_eq!(consumed.len() as u64 + left, produced, "no item lost");
        if left == 0 {
            assert!(p.is_tracing_complete());
        }
    }

    #[test]
    fn condemned_handle_is_inert_and_counts_toward_termination() {
        let p = pool(4, 4);
        let mut held = p.get_output().unwrap();
        held.push(1).unwrap();
        held.push(2).unwrap();
        assert!(!p.is_tracing_complete());
        assert_eq!(p.outstanding(), 1);
        assert_eq!(p.condemn_outstanding(), 1);
        assert_eq!(p.condemned(), 1);
        assert!(p.is_tracing_complete(), "condemned counts as surrendered");
        // The stalled holder's handle is inert from here on.
        assert_eq!(held.push(3), Err(3));
        assert_eq!(held.pop(), None);
        drop(held);
        let s = p.stats();
        assert_eq!(s.condemned, 0, "surrender clears the condemnation");
        assert_eq!(s.empty, 4, "cleared body returns to Empty");
        assert_eq!(s.entries, 0, "written-off entries leave the accounting");
        // The slot is fully reusable afterwards.
        let mut pk = p.get_output().unwrap();
        pk.push(9).unwrap();
        assert_eq!(pk.pop(), Some(9));
    }

    #[test]
    fn condemn_skips_pooled_packets() {
        let p = pool(4, 4);
        let mut a = p.get_output().unwrap();
        a.push(5).unwrap();
        p.put(a); // back on a list: no longer outstanding
        assert_eq!(p.condemn_outstanding(), 0);
        let mut b = p.get_input().unwrap();
        assert_eq!(b.pop(), Some(5), "pooled packets were untouched");
    }

    #[test]
    fn condemned_deferred_request_is_ignored() {
        let p = pool(4, 4);
        let mut a = p.get_output().unwrap();
        a.push(7).unwrap();
        assert_eq!(p.condemn_outstanding(), 1);
        a.defer();
        assert!(
            !p.has_deferred(),
            "condemned packet cannot hide in Deferred"
        );
        assert!(p.is_tracing_complete());
    }

    #[test]
    fn snapshot_entries_walks_all_sub_pools() {
        let p = pool(4, 8);
        let mut a = p.get_output().unwrap();
        for v in 0..8 {
            a.push(v).unwrap(); // full → AlmostFull
        }
        drop(a);
        let mut b = p.get_empty().unwrap();
        b.push(100).unwrap(); // 1 of 8 → NonEmpty
        drop(b);
        let mut c = p.get_empty().unwrap();
        c.push(200).unwrap();
        c.defer(); // → Deferred
                   // SAFETY: single-threaded test; every packet is back on a list.
        let mut got = unsafe { p.snapshot_entries() };
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7, 100, 200]);
    }
}
