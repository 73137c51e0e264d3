//! The heap arena: slot storage, allocation caches, and large-object
//! allocation, with the §5.2 batched allocation-bit publication protocol.
//!
//! Since the memory-pressure work, the arena is a set of independently
//! reserved segments behind [`crate::segment::SegmentTable`]: the heap
//! can grow past its initial size up to [`HeapConfig::max_heap_bytes`]
//! ([`Heap::try_grow`], the escalation ladder's rung before OOM) and
//! return entirely-free segments after a trough
//! ([`Heap::release_empty_segments`], at a pause).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mcgc_membar::sync::Mutex;
use mcgc_membar::{release_fence, FenceKind};

use crate::freelist::Extent;
use crate::object::{Header, ObjectRef, GRANULE_BYTES, MAX_OBJECT_GRANULES};
use crate::segment::{BitKind, HeapBitmap, HeapCards, SegmentTable, SEGMENT_ALIGN_GRANULES};
use crate::shards::{AllocShardStats, ShardedFreeList};
use crate::sweep::{ChunkMemos, SweepEpoch, SweepSource, SweepStats};

/// Heap sizing and allocation parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HeapConfig {
    /// Initial heap size in bytes (rounded up to a segment multiple).
    pub heap_bytes: usize,
    /// Allocation-cache size in bytes (paper §2.1: each thread allocates
    /// small objects from its own cache).
    pub cache_bytes: usize,
    /// Objects at least this many bytes are allocated directly from the
    /// free list and fenced individually.
    pub large_object_bytes: usize,
    /// Number of free-list shards mutator refills spread over: `0` picks
    /// one per available core, `1` selects the single-lock baseline
    /// allocator (the pre-sharding design, kept for A/B benchmarking).
    pub alloc_shards: usize,
    /// Segment size in bytes (`0` = auto: roughly an eighth of the
    /// initial heap, clamped to [4 KiB, 8 MiB]). Must be a power-of-two
    /// multiple of 4 KiB when set explicitly.
    pub segment_bytes: usize,
    /// Hard heap limit in bytes: [`Heap::try_grow`] commits segments up
    /// to this ceiling. `0` (the default) means the heap cannot grow
    /// past `heap_bytes` — the pre-segmentation behaviour.
    pub max_heap_bytes: usize,
}

impl Default for HeapConfig {
    fn default() -> HeapConfig {
        HeapConfig {
            heap_bytes: 64 << 20,
            cache_bytes: 32 << 10,
            large_object_bytes: 8 << 10,
            alloc_shards: 0,
            segment_bytes: 0,
            max_heap_bytes: 0,
        }
    }
}

impl HeapConfig {
    /// A config with the given heap size and default allocation knobs.
    pub fn with_heap_bytes(heap_bytes: usize) -> HeapConfig {
        HeapConfig {
            heap_bytes,
            ..HeapConfig::default()
        }
    }

    /// Initial heap size in granules.
    pub fn heap_granules(&self) -> usize {
        self.heap_bytes.div_ceil(GRANULE_BYTES)
    }
}

/// The shape of an object to allocate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ObjectShape {
    /// Number of reference slots.
    pub refs: u32,
    /// Number of data granules.
    pub data: u32,
    /// Workload-defined class tag.
    pub class: u8,
}

impl ObjectShape {
    /// An object with `refs` reference slots and `data` data granules.
    pub fn new(refs: u32, data: u32, class: u8) -> ObjectShape {
        ObjectShape { refs, data, class }
    }

    /// Total size in granules including the header.
    pub fn granules(&self) -> usize {
        1 + self.refs as usize + self.data as usize
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> usize {
        self.granules() * GRANULE_BYTES
    }

    fn header(&self) -> Header {
        Header::new(self.refs, self.data, self.class)
    }
}

/// A per-mutator allocation cache (thread-local heap).
///
/// Small objects bump-allocate from the cache; their allocation bits are
/// *not* set until the cache fills (or is retired), at which point one
/// fence publishes the whole batch (§5.2).
#[derive(Debug, Default)]
pub struct AllocCache {
    /// First granule not yet published: `[start, cursor)` holds exactly
    /// the objects whose allocation bits are pending.
    start: usize,
    cursor: usize,
    end: usize,
    /// Object start granules awaiting allocation-bit publication.
    pending: Vec<u32>,
    /// Free-list shard the last refill succeeded on; tried first next
    /// time so a steadily churning mutator stays on one uncontended lock.
    home: usize,
    /// Refills since the cache was last retired at a safepoint. Sustained
    /// pressure grows the next refill request (adaptive cache sizing), so
    /// allocation-heavy mutators take the refill lock less often.
    pressure: u32,
    /// Bytes of the `pending` objects; [`Heap::publish_cache`] folds them
    /// (and `pending.len()` objects) into the heap-wide totals, so the
    /// bump path touches no shared counter.
    pending_bytes: u64,
}

impl AllocCache {
    /// Creates an empty cache (the first allocation will refill it).
    pub fn new() -> AllocCache {
        AllocCache::default()
    }

    /// Granules still available for bump allocation.
    pub fn remaining_granules(&self) -> usize {
        self.end - self.cursor
    }

    /// Number of allocations not yet published.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True if the cache currently owns no heap region.
    pub fn is_retired(&self) -> bool {
        self.end == 0
    }

    /// True if `obj` was bump-allocated from this cache since its last
    /// publication, so its allocation bit is pending and no tracer can
    /// have scanned it (§5.2). The write barrier needs no card for a
    /// store into such an object.
    #[inline]
    pub fn holds_unpublished(&self, obj: ObjectRef) -> bool {
        (self.start..self.cursor).contains(&obj.index())
    }

    /// Refills since the last retire (drives adaptive cache growth).
    pub fn refill_pressure(&self) -> u32 {
        self.pressure
    }
}

/// Consecutive refills before the adaptive cache doubles its request.
const REFILL_PRESSURE_WINDOW: u32 = 4;
/// Cap on adaptive growth: at most `base << MAX_CACHE_BOOST` granules.
const MAX_CACHE_BOOST: u32 = 3;
/// Chunks a single refill miss sweeps before re-probing its home shard
/// during a sweep epoch — bounds the latency any one refill absorbs
/// while keeping per-allocator reclamation proportional to demand.
const REFILL_SWEEP_BATCH: usize = 4;

/// Why an allocation request could not be satisfied.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The free list has no extent large enough; a GC (or more sweeping)
    /// is required.
    OutOfMemory {
        /// Bytes the failing request asked for.
        requested_bytes: u64,
        /// Heap occupancy when the request failed, in permille of
        /// committed granules (see [`Heap::occupancy`]).
        occupancy_permille: u16,
        /// Segments committed when the request failed.
        segments_committed: u16,
        /// Hard-limit segment capacity.
        segments_max: u16,
        /// Bitmask of committed segments (bit `i` = segment `i`; the
        /// first 64 — higher indices are summarized by the counts).
        segment_map: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested_bytes,
                occupancy_permille,
                segments_committed,
                segments_max,
                segment_map,
            } => write!(
                f,
                "heap exhausted: requested {requested_bytes} B with heap {}.{}% occupied \
                 ({segments_committed}/{segments_max} segments committed, map {segment_map:#x})",
                occupancy_permille / 10,
                occupancy_permille % 10
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// A point-in-time snapshot of the segment table (telemetry, OOM
/// reports, the heap inspector).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment size in bytes.
    pub seg_bytes: usize,
    /// Segments currently committed.
    pub committed: usize,
    /// Most segments ever committed at once.
    pub peak: usize,
    /// Segments committed at construction (the floor; never released).
    pub initial: usize,
    /// Hard-limit segment capacity.
    pub max: usize,
    /// Total grow (commit) events.
    pub grows: u64,
    /// Total shrink (release) events.
    pub shrinks: u64,
}

/// Cumulative sweep accounting: how many chunks each claiming path paid
/// for and where reclaimed granules came from, split by whether the
/// reclamation happened on the pause path (eager in-pause sweeps and the
/// pre-pause straggler fence) or entirely off it (refill, background,
/// escalation-ladder sweeping).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Chunks swept by allocation-cache refills (sweep-on-refill).
    pub refill_chunks: u64,
    /// Chunks drained by the background sweeper.
    pub bg_chunks: u64,
    /// Chunks the next cycle's straggler fence had to finish.
    pub straggler_chunks: u64,
    /// Chunks swept by the mutator escalation ladder (and tests).
    pub escalation_chunks: u64,
    /// Chunks replayed from their memo instead of swept, on any path
    /// (each also counts as a chunk of the path that claimed it).
    pub replayed_chunks: u64,
    /// Granules reclaimed on the pause path (eager sweeps + stragglers).
    pub on_pause_granules: u64,
    /// Granules reclaimed concurrently with the mutators.
    pub off_pause_granules: u64,
}

#[derive(Debug, Default)]
struct SweepTotals {
    refill_chunks: AtomicU64,
    bg_chunks: AtomicU64,
    straggler_chunks: AtomicU64,
    escalation_chunks: AtomicU64,
    replayed_chunks: AtomicU64,
    on_pause_granules: AtomicU64,
    off_pause_granules: AtomicU64,
}

/// The shared heap: segmented slot arena, bitmaps, card table, and the
/// sharded free-space substrate.
///
/// All slot accesses are atomic (the mutators and the concurrent tracer
/// race by design, exactly the surface the paper's protocols manage);
/// orderings are `Relaxed` except where a §5 protocol requires a fence,
/// which is routed through [`mcgc_membar`] so it is counted.
pub struct Heap {
    config: HeapConfig,
    table: Arc<SegmentTable>,
    alloc_bits: HeapBitmap,
    mark_bits: HeapBitmap,
    cards: HeapCards,
    free: ShardedFreeList,
    bytes_allocated: AtomicU64,
    objects_allocated: AtomicU64,
    /// Granules lost to sub-minimum free runs in the last retired sweep
    /// epoch.
    dark_granules: AtomicU64,
    /// The lazy sweep epoch in flight, if any: installed by the collector
    /// at pause end, drained off-pause by refills / the background
    /// sweeper / the escalation ladder, and retired once every chunk is
    /// done. (An eager pause drains its epoch itself and never installs
    /// it.)
    lazy: Mutex<Option<Arc<SweepEpoch>>>,
    /// Mirrors `lazy.is_some()` so the refill fast path pays one relaxed
    /// load (not a lock) when no epoch is in flight.
    lazy_active: AtomicBool,
    /// The last retired epoch kept its mark bits for a minor cycle, and
    /// no [`Heap::clear_marks`] has run since.
    marks_kept: AtomicBool,
    /// Cumulative sweep accounting (see [`SweepCounters`]).
    sweep_totals: SweepTotals,
    /// Per-chunk sweep memos and hand-out flags, for replay.
    memos: ChunkMemos,
}

/// Picks the segment size in granules: the explicit knob, or roughly an
/// eighth of the initial heap so small test heaps still exercise several
/// segments, clamped to [4 KiB, 8 MiB].
fn pick_segment_granules(config: &HeapConfig, total_granules: usize) -> usize {
    const MAX_SEG_GRANULES: usize = 1 << 20; // 8 MiB
    if config.segment_bytes > 0 {
        let sg = config.segment_bytes / GRANULE_BYTES;
        assert!(
            sg.is_power_of_two() && sg >= SEGMENT_ALIGN_GRANULES,
            "segment_bytes must be a power of two and at least {} bytes",
            SEGMENT_ALIGN_GRANULES * GRANULE_BYTES
        );
        return sg;
    }
    (total_granules / 8)
        .next_power_of_two()
        .clamp(SEGMENT_ALIGN_GRANULES, MAX_SEG_GRANULES)
}

impl Heap {
    /// Creates a heap of `config.heap_bytes` bytes (rounded up to a
    /// whole number of segments). Granule 0 is reserved (the null
    /// encoding), so usable space starts at granule 1.
    ///
    /// # Panics
    /// Panics if the heap is smaller than one allocation cache or larger
    /// than the 32 GiB the 32-bit granule index addresses.
    pub fn new(config: HeapConfig) -> Heap {
        let requested = config.heap_granules();
        assert!(
            requested > config.cache_bytes / GRANULE_BYTES,
            "heap smaller than one allocation cache"
        );
        let sg = pick_segment_granules(&config, requested);
        let granules = requested.next_multiple_of(sg);
        let max_granules = config
            .max_heap_bytes
            .div_ceil(GRANULE_BYTES)
            .max(granules)
            .next_multiple_of(sg);
        assert!(max_granules <= u32::MAX as usize, "heap exceeds 32 GiB");
        let table = Arc::new(SegmentTable::new(granules / sg, sg, max_granules / sg));
        let shards = match config.alloc_shards {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            n => n,
        };
        // Stripes hold many refills' worth of granules so a mutator's
        // whole retire/refill working set tends to stay inside one stripe
        // — and therefore one shard — keeping its home-shard hit rate
        // high and its lock traffic off the other shards.
        let stripe = 64 * (config.cache_bytes / GRANULE_BYTES).max(1);
        let free = ShardedFreeList::new(shards, stripe);
        free.rebuild([Extent {
            start: 1,
            len: granules - 1,
        }]);
        Heap {
            alloc_bits: HeapBitmap::new(Arc::clone(&table), BitKind::Alloc),
            mark_bits: HeapBitmap::new(Arc::clone(&table), BitKind::Mark),
            cards: HeapCards::new(Arc::clone(&table)),
            table,
            free,
            config,
            bytes_allocated: AtomicU64::new(0),
            objects_allocated: AtomicU64::new(0),
            dark_granules: AtomicU64::new(0),
            lazy: Mutex::new(None),
            lazy_active: AtomicBool::new(false),
            marks_kept: AtomicBool::new(false),
            sweep_totals: SweepTotals::default(),
            memos: ChunkMemos::new(max_granules),
        }
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Granule-space extent: one past the highest committed segment's
    /// last granule (including reserved granule 0 and any holes left by
    /// shrinking). Monotone — it never decreases, so bitmap and card
    /// walks sized off it stay in bounds across a shrink.
    pub fn granules(&self) -> usize {
        self.table.frontier_granules()
    }

    /// Committed heap size in bytes (holes excluded).
    pub fn total_bytes(&self) -> usize {
        self.table.committed_granules() * GRANULE_BYTES
    }

    /// Segment size in granules.
    pub fn segment_granules(&self) -> usize {
        self.table.seg_granules()
    }

    /// The segment table behind the arena and its side metadata.
    #[inline]
    pub(crate) fn segments(&self) -> &SegmentTable {
        &self.table
    }

    /// A snapshot of the segment table's counters.
    pub fn segment_stats(&self) -> SegmentStats {
        SegmentStats {
            seg_bytes: self.table.seg_granules() * GRANULE_BYTES,
            committed: self.table.segments_committed(),
            peak: self.table.segments_peak(),
            initial: self.table.initial_segments(),
            max: self.table.max_segments(),
            grows: self.table.grow_count(),
            shrinks: self.table.shrink_count(),
        }
    }

    /// Bitmask of committed segments (bit `i` = segment `i`).
    pub fn segment_map(&self) -> u64 {
        self.table.segment_map()
    }

    /// True if granule range `[start, start + len)` lies entirely in
    /// committed segments.
    pub fn is_range_mapped(&self, start: usize, len: usize) -> bool {
        self.table.is_range_mapped(start, len)
    }

    /// The maximal committed subranges of granule range `[start, end)`,
    /// in address order (sweep iterates these so free extents never span
    /// a hole).
    pub fn mapped_ranges(&self, start: usize, end: usize) -> Vec<(usize, usize)> {
        self.table.mapped_ranges(start, end)
    }

    /// Free bytes currently on the free list (excludes space inside live
    /// allocation caches and dark matter). Reads the substrate's relaxed
    /// atomic counter — no lock, so the pacer may poll it on every
    /// allocation slow path without contending with refills.
    pub fn free_bytes(&self) -> usize {
        self.free.free_granules() * GRANULE_BYTES
    }

    /// Number of extents on the free list (diagnostics; takes each shard
    /// lock once).
    pub fn free_extent_count(&self) -> usize {
        self.free.extent_count()
    }

    /// Largest free extent, in bytes.
    pub fn largest_free_bytes(&self) -> usize {
        self.free.largest_extent() * GRANULE_BYTES
    }

    /// Cumulative shard contention / refill-steal statistics.
    pub fn alloc_stats(&self) -> AllocShardStats {
        self.free.stats()
    }

    /// Granules lost to dark matter in the last retired sweep epoch.
    pub fn dark_bytes(&self) -> usize {
        self.dark_granules.load(Ordering::Relaxed) as usize * GRANULE_BYTES
    }

    fn set_dark_granules(&self, g: u64) {
        self.dark_granules.store(g, Ordering::Relaxed);
    }

    /// Total bytes ever allocated. Small objects count once their cache
    /// publishes ([`Heap::publish_cache`]: every refill and retire), so
    /// the total is exact at pauses and lags a running mutator by at most
    /// its current cache.
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Total objects ever allocated; published like
    /// [`Heap::bytes_allocated`].
    pub fn objects_allocated(&self) -> u64 {
        self.objects_allocated.load(Ordering::Relaxed)
    }

    /// The allocation bit vector (one bit per granule; set = object
    /// header, published per §5.2).
    pub fn alloc_bits(&self) -> &HeapBitmap {
        &self.alloc_bits
    }

    /// The mark bit vector.
    pub fn mark_bits(&self) -> &HeapBitmap {
        &self.mark_bits
    }

    /// The card table.
    pub fn cards(&self) -> &HeapCards {
        &self.cards
    }

    /// The sharded free-space substrate (sweep rebuild, lazy-sweep frees,
    /// verification, diagnostics).
    pub fn free_list(&self) -> &ShardedFreeList {
        &self.free
    }

    // ------------------------------------------------------------------
    // sweep epochs
    // ------------------------------------------------------------------

    /// Publishes `plan` as the active sweep epoch. Called by a lazy
    /// pause at its end (instead of draining the epoch in the pause);
    /// from here on, refills that miss the free list claim and sweep
    /// chunks for themselves ([`Heap::refill_cache`]).
    pub fn install_lazy_plan(&self, plan: Arc<SweepEpoch>) {
        *self.lazy.lock() = Some(plan);
        self.lazy_active.store(true, Ordering::Release);
    }

    /// The active sweep epoch, if any. One relaxed-ish flag check on the
    /// miss-free path; the lock is only taken while an epoch is live.
    pub fn lazy_plan(&self) -> Option<Arc<SweepEpoch>> {
        if !self.lazy_active.load(Ordering::Acquire) {
            return None;
        }
        self.lazy.lock().clone()
    }

    /// True while a sweep epoch is in flight.
    pub fn lazy_plan_active(&self) -> bool {
        self.lazy_active.load(Ordering::Acquire)
    }

    /// Uninstalls the active epoch if every chunk has completed,
    /// returning it for [`Heap::retire_epoch`] (so the collector retires
    /// it exactly once — the take is atomic under the slot lock).
    pub fn take_lazy_plan_if_done(&self) -> Option<Arc<SweepEpoch>> {
        let mut g = self.lazy.lock();
        if g.as_ref().is_some_and(|p| p.is_done()) {
            self.lazy_active.store(false, Ordering::Release);
            g.take()
        } else {
            None
        }
    }

    /// Cumulative sweep accounting across all epochs.
    pub fn sweep_counters(&self) -> SweepCounters {
        let t = &self.sweep_totals;
        SweepCounters {
            refill_chunks: t.refill_chunks.load(Ordering::Relaxed),
            bg_chunks: t.bg_chunks.load(Ordering::Relaxed),
            straggler_chunks: t.straggler_chunks.load(Ordering::Relaxed),
            escalation_chunks: t.escalation_chunks.load(Ordering::Relaxed),
            replayed_chunks: t.replayed_chunks.load(Ordering::Relaxed),
            on_pause_granules: t.on_pause_granules.load(Ordering::Relaxed),
            off_pause_granules: t.off_pause_granules.load(Ordering::Relaxed),
        }
    }

    /// Charges one swept chunk's reclaimed granules, and for the
    /// off-pause paths and the straggler fence the chunk itself, to the
    /// claiming path's counters.
    pub(crate) fn note_chunk(&self, source: SweepSource, freed_granules: u64) {
        let t = &self.sweep_totals;
        let (chunks, granules) = match source {
            SweepSource::Pause => (None, &t.on_pause_granules),
            SweepSource::Refill => (Some(&t.refill_chunks), &t.off_pause_granules),
            SweepSource::Background => (Some(&t.bg_chunks), &t.off_pause_granules),
            SweepSource::Straggler => (Some(&t.straggler_chunks), &t.on_pause_granules),
            SweepSource::Escalation => (Some(&t.escalation_chunks), &t.off_pause_granules),
        };
        if let Some(chunks) = chunks {
            chunks.fetch_add(1, Ordering::Relaxed);
        }
        granules.fetch_add(freed_granules, Ordering::Relaxed);
    }

    /// Counts one chunk replayed from its memo.
    pub(crate) fn note_replay(&self) {
        self.sweep_totals
            .replayed_chunks
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The per-chunk sweep memos and hand-out flags.
    pub(crate) fn chunk_memos(&self) -> &ChunkMemos {
        &self.memos
    }

    /// Retires a fully drained sweep epoch — the step every epoch ends
    /// with, whether a pause drained it or the off-pause paths did:
    /// records its dark matter as [`Heap::dark_bytes`], clears the mark
    /// bitmap unless the epoch keeps it for a minor cycle
    /// ([`SweepEpoch::keeping_marks`]), and returns the epoch's totals.
    ///
    /// No cycle may be marking: the caller has the world stopped, or
    /// holds the collector's coordinator lock, which every cycle start
    /// holds too.
    ///
    /// # Panics
    /// Panics if the epoch still has unswept chunks: its marks are
    /// load-bearing until the last chunk is swept.
    pub fn retire_epoch(&self, epoch: &SweepEpoch) -> SweepStats {
        assert!(
            epoch.is_done(),
            "retiring a sweep epoch with unswept chunks"
        );
        let totals = epoch.totals();
        self.set_dark_granules(totals.dark_granules as u64);
        if epoch.keeps_marks() {
            self.marks_kept.store(true, Ordering::Relaxed);
        } else {
            self.clear_marks();
        }
        totals
    }

    /// Clears the mark bitmap. This is the only place mark bits are
    /// cleared (a released segment's are reset with it): when an epoch
    /// retires ahead of a full cycle, and when a full cycle must start
    /// where the retired epoch kept its marks ([`Heap::marks_kept`]). So
    /// every full cycle begins with none set.
    ///
    /// No cycle may be marking, as for [`Heap::retire_epoch`].
    pub fn clear_marks(&self) {
        self.mark_bits.clear_all();
        self.marks_kept.store(false, Ordering::Relaxed);
    }

    /// True when the last retired epoch kept its mark bits for a minor
    /// cycle and they have not been cleared since.
    pub fn marks_kept(&self) -> bool {
        self.marks_kept.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // growth and shrink
    // ------------------------------------------------------------------

    /// Commits one more segment and puts its granules on the free list.
    /// This is the escalation ladder's grow rung: fallible by design —
    /// the hard limit ([`HeapConfig::max_heap_bytes`]) or an injected
    /// `heap.segment_reserve` fault (the `mmap`-failure analogue) makes
    /// it return `false`, and the caller escalates toward typed OOM.
    pub fn try_grow(&self) -> bool {
        if self.table.segments_committed() >= self.table.max_segments() {
            return false; // hard limit reached
        }
        if mcgc_fault::point!("heap.segment_reserve") {
            return false; // injected reservation failure
        }
        let Some(si) = self.table.commit_one() else {
            return false;
        };
        // The whole fresh segment is free space. (Granule 0 lives in
        // segment 0, which is initial — grown segments reserve nothing.)
        let sg = self.table.seg_granules();
        self.memos.note_handed_out(si * sg, sg);
        self.free.free(si * sg, sg);
        true
    }

    /// Settles the free list after a pause drained `epoch`
    /// ([`SweepSource::Pause`]): builds it once from the extents the
    /// drain held back, already in address order, less any non-initial
    /// segment they cover entirely (released). The rebuild coalesces
    /// the extents sweeping split at chunk edges and deals them out in
    /// address order. Returns the number of segments released.
    ///
    /// Must run under stop-the-world, with every allocation cache
    /// retired and nothing freed since the epoch was planned (planning
    /// empties the free list).
    ///
    /// # Panics
    /// Panics if the epoch still has unswept chunks: settling then would
    /// build a free list missing their extents.
    pub fn settle_drained_epoch(&self, epoch: &SweepEpoch) -> usize {
        assert!(
            epoch.is_done(),
            "settling a sweep epoch with unswept chunks"
        );
        debug_assert_eq!(self.free.free_granules(), 0, "freed since planning");
        let mut extents = epoch.take_held_extents();
        let released = self.release_covered_segments(&mut extents);
        self.free.rebuild(extents);
        released
    }

    /// Releases every non-initial segment whose granules sit entirely on
    /// the free list right now (occupancy-driven shrink) and returns how
    /// many went. A lazily drained epoch freed its extents chunk by
    /// chunk; the next pause calls this before anything else. With only
    /// the initial segments committed there is nothing to release, and
    /// the free list is not even read; otherwise it is rebuilt only when
    /// a segment went, so a pause pays for a rebuild only when it shrinks
    /// the heap.
    ///
    /// Must run under stop-the-world, after every allocation cache has
    /// been retired — the only context where "entirely free" is stable.
    pub fn release_empty_segments(&self) -> usize {
        if self.table.segments_committed() == self.table.initial_segments() {
            return 0;
        }
        let mut extents = self.free.extents_sorted();
        let released = self.release_covered_segments(&mut extents);
        if released > 0 {
            self.free.rebuild(extents);
        }
        released
    }

    /// Releases every non-initial segment entirely covered by `extents`
    /// (address-ordered; the free list about to be installed) and takes
    /// the released ranges out of `extents`. Returns how many went.
    /// The release itself is fallible (`heap.segment_release`, the
    /// `munmap`-failure analogue): a failed release keeps the segment
    /// and its free extents.
    ///
    /// Epoch-aware: a segment is only "empty" once the installed sweep
    /// epoch (if any) has swept every chunk overlapping it. Until then
    /// its dead granules are invisible to the free list, so an
    /// apparently fully-covered segment could still gain extents — and a
    /// release now would have those extents later freed into a hole.
    /// Segments outside the epoch's mapped snapshot (grown after the
    /// pause) are vacuously swept and remain releasable, so the
    /// snapshot stays consistent.
    fn release_covered_segments(&self, extents: &mut Vec<Extent>) -> usize {
        let sg = self.table.seg_granules();
        let plan = self.lazy_plan();
        let mut released = 0;
        for si in self.table.initial_segments()..self.table.frontier() {
            if self.table.seg(si).is_none() {
                continue;
            }
            let base = si * sg;
            if covered_granules(extents, base, base + sg) < sg {
                continue;
            }
            if let Some(p) = &plan {
                if !p.range_fully_swept(base, base + sg) {
                    continue; // unswept in the previous epoch: not empty yet
                }
            }
            if mcgc_fault::point!("heap.segment_release") {
                continue; // injected release failure: segment stays
            }
            subtract_range(extents, base, base + sg);
            self.memos.note_handed_out(base, sg);
            self.table.release(si);
            released += 1;
        }
        released
    }

    // ------------------------------------------------------------------
    // slot access
    // ------------------------------------------------------------------

    /// The slot holding global granule `idx`.
    ///
    /// # Panics
    /// Panics if `idx` lies in an unmapped segment (a dangling granule
    /// index — no live object can exist in a hole).
    #[inline]
    fn slot(&self, idx: usize) -> &AtomicU64 {
        let (s, off) = self
            .table
            .seg_of_granule(idx)
            .expect("slot access in unmapped segment");
        s.slot(off)
    }

    /// Reads the header of `obj`.
    #[inline]
    pub fn header(&self, obj: ObjectRef) -> Header {
        Header::decode(self.slot(obj.index()).load(Ordering::Relaxed))
    }

    /// Loads reference slot `slot` of `obj`.
    ///
    /// # Panics
    /// Debug-asserts `slot` is within the object's reference slots.
    #[inline]
    pub fn load_ref(&self, obj: ObjectRef, slot: u32) -> Option<ObjectRef> {
        debug_assert!(slot < self.header(obj).ref_count, "ref slot out of range");
        ObjectRef::decode(
            self.slot(obj.index() + 1 + slot as usize)
                .load(Ordering::Relaxed),
        )
    }

    /// Stores into reference slot `slot` of `obj` **without a write
    /// barrier**. The collector's write barrier (in `mcgc-core`) wraps
    /// this; workloads must go through the barrier during concurrent
    /// collection.
    #[inline]
    pub fn store_ref_unbarriered(&self, obj: ObjectRef, slot: u32, value: Option<ObjectRef>) {
        debug_assert!(slot < self.header(obj).ref_count, "ref slot out of range");
        self.slot(obj.index() + 1 + slot as usize)
            .store(ObjectRef::encode(value), Ordering::Relaxed);
    }

    /// Loads data granule `idx` of `obj`.
    #[inline]
    pub fn load_data(&self, obj: ObjectRef, idx: u32) -> u64 {
        let h = self.header(obj);
        debug_assert!(idx < h.data_count(), "data slot out of range");
        self.slot(obj.index() + 1 + h.ref_count as usize + idx as usize)
            .load(Ordering::Relaxed)
    }

    /// Stores data granule `idx` of `obj` (no barrier needed: data slots
    /// hold no references).
    #[inline]
    pub fn store_data(&self, obj: ObjectRef, idx: u32, value: u64) {
        let h = self.header(obj);
        debug_assert!(idx < h.data_count(), "data slot out of range");
        self.slot(obj.index() + 1 + h.ref_count as usize + idx as usize)
            .store(value, Ordering::Relaxed);
    }

    /// Calls `f` for each non-null reference in `obj`'s reference slots,
    /// returning the header it read. The segment is resolved once per
    /// object; only an object that crosses a segment end (allowed, see
    /// `format_object`) pays a lookup per slot.
    #[inline]
    pub fn scan_refs(&self, obj: ObjectRef, mut f: impl FnMut(ObjectRef)) -> Header {
        let (seg, off) = self
            .table
            .seg_of_granule(obj.index())
            .expect("slot access in unmapped segment");
        let h = Header::decode(seg.slot(off).load(Ordering::Relaxed));
        let refs = h.ref_count as usize;
        let mut visit = |slot: &AtomicU64| {
            if let Some(r) = ObjectRef::decode(slot.load(Ordering::Relaxed)) {
                f(r);
            }
        };
        match seg.slots(off + 1..off + 1 + refs) {
            Some(slots) => slots.iter().for_each(visit),
            None => {
                let first = obj.index() + 1;
                (first..first + refs).for_each(|g| visit(self.slot(g)));
            }
        }
        h
    }

    /// Hints the CPU to start loading `obj`'s header slot, so a scan
    /// issued later finds it in cache: tracers pop a batch of objects,
    /// prefetch each, then scan the batch (§4.1). A no-op off x86_64 and
    /// for a granule in a hole.
    #[inline]
    pub fn prefetch(&self, obj: ObjectRef) {
        #[cfg(target_arch = "x86_64")]
        if let Some((seg, off)) = self.table.seg_of_granule(obj.index()) {
            let p: *const AtomicU64 = seg.slot(off);
            // SAFETY: `p` points at a live slot of a committed segment,
            // and a prefetch is only a cache hint: it never faults, reads
            // nothing into the program, and writes nothing. SSE, which
            // `_mm_prefetch` needs, is part of the x86_64 baseline.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast())
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = obj;
    }

    // ------------------------------------------------------------------
    // marking
    // ------------------------------------------------------------------

    /// Atomically marks `obj`; returns `true` if this call won (the object
    /// was previously unmarked). An already-set bit costs one relaxed
    /// load and no write.
    #[inline]
    pub fn mark(&self, obj: ObjectRef) -> bool {
        self.mark_bits.set(obj.index())
    }

    /// True if `obj` is marked.
    #[inline]
    pub fn is_marked(&self, obj: ObjectRef) -> bool {
        self.mark_bits.get(obj.index())
    }

    /// True if `obj`'s allocation bit has been published (§5.2 "safe").
    #[inline]
    pub fn is_published(&self, obj: ObjectRef) -> bool {
        self.alloc_bits.get(obj.index())
    }

    // ------------------------------------------------------------------
    // allocation
    // ------------------------------------------------------------------

    /// Allocates a small object from `cache`, bump-style. Returns `None`
    /// if the cache has insufficient space (caller refills via
    /// [`Heap::refill_cache`]) — large objects must use
    /// [`Heap::alloc_large`].
    ///
    /// The new object's granules are zeroed and its header written; its
    /// allocation bit is *pending* until the batch is published.
    pub fn alloc_small(&self, cache: &mut AllocCache, shape: ObjectShape) -> Option<ObjectRef> {
        let need = shape.granules();
        debug_assert!(need <= MAX_OBJECT_GRANULES);
        if cache.end - cache.cursor < need {
            return None;
        }
        let start = cache.cursor;
        cache.cursor += need;
        self.format_object(start, shape);
        cache.pending.push(start as u32);
        cache.pending_bytes += shape.bytes() as u64;
        Some(ObjectRef::from_granule(start as u32))
    }

    /// Publishes `cache`'s pending allocations: one release fence, then
    /// the allocation bits (§5.2 mutator steps 2–3). Bump allocation
    /// keeps `pending` ascending, so the bits go out a bitmap word at a
    /// time (`HeapBitmap::set_many`): one `fetch_or` per word, not per
    /// object. A word's bits become visible together, and none before
    /// the fence, so a tracer that sees a bit set still sees the object
    /// it publishes. Also folds the batch into
    /// [`Heap::bytes_allocated`] / [`Heap::objects_allocated`]; every
    /// refill and retire publishes, so the totals are exact at every
    /// pause and once a cache is retired.
    pub fn publish_cache(&self, cache: &mut AllocCache) {
        if cache.pending.is_empty() {
            return;
        }
        self.bytes_allocated
            .fetch_add(std::mem::take(&mut cache.pending_bytes), Ordering::Relaxed);
        self.objects_allocated
            .fetch_add(cache.pending.len() as u64, Ordering::Relaxed);
        // MODEL: alloc_model (crates/check) — deleting this fence is
        // `AllocMutation::SkipPublishFence`: a bit visible before its
        // object's initialising stores, caught as an uninitialised scan.
        release_fence(FenceKind::AllocBatch);
        self.alloc_bits.set_many(&cache.pending);
        cache.pending.clear();
        cache.start = cache.cursor;
    }

    /// Publishes pending allocations, then replaces `cache`'s region with
    /// a fresh extent from the free-list substrate (home shard first,
    /// stealing round-robin, wilderness last). The unused tail of the old
    /// region is returned first. Returns `false` if no shard can supply a
    /// new cache (time to collect).
    ///
    /// `min_granules` is the size of the allocation that prompted the
    /// refill; the new cache is at least that big even if the configured
    /// cache size is unavailable. Sustained refill pressure (no retire
    /// since several refills) grows the request up to 8x the configured
    /// cache size, so allocation-heavy mutators visit the substrate less
    /// often.
    pub fn refill_cache(&self, cache: &mut AllocCache, min_granules: usize) -> bool {
        if mcgc_fault::point!("heap.refill") {
            // Injected refill failure: report the free list exhausted
            // without touching the cache, driving the caller onto the
            // allocation-failure escalation ladder.
            return false;
        }
        self.release_cache_region(cache);
        cache.pressure = cache.pressure.saturating_add(1);
        let base = (self.config.cache_bytes / GRANULE_BYTES).max(1);
        let boost = (cache.pressure / REFILL_PRESSURE_WINDOW).min(MAX_CACHE_BOOST);
        let want = (base << boost).max(min_granules);
        // During a sweep epoch the refill path self-serves: a miss claims
        // and sweeps unswept chunks (whose extents are routed back across
        // the shards by address) before raiding other shards, so
        // reclamation cost lands on the allocators that need the memory.
        // The plan is fetched once; `None` keeps the pre-epoch fast path.
        let plan = self.lazy_plan();
        // Prefer a full-size cache; fall back to halves so a fragmented
        // heap still yields a usable cache before we give up.
        let mut size = want;
        loop {
            if let Some(start) = self.free.alloc_local(size, cache.home) {
                self.memos.note_handed_out(start, size);
                cache.start = start;
                cache.cursor = start;
                cache.end = start + size;
                return true;
            }
            // Home shard empty: pay for a bounded batch of sweeping
            // before stealing, then retry the home bins (the swept
            // extents land there in proportion to the stripe layout).
            if let Some(p) = &plan {
                let mut swept = false;
                for _ in 0..REFILL_SWEEP_BATCH {
                    if p.sweep_one_from(self, SweepSource::Refill).is_none() {
                        break;
                    }
                    swept = true;
                }
                if swept {
                    continue;
                }
            }
            if let Some(start) = self.free.alloc(size, &mut cache.home) {
                self.memos.note_handed_out(start, size);
                cache.start = start;
                cache.cursor = start;
                cache.end = start + size;
                return true;
            }
            if size == min_granules {
                return false;
            }
            size = (size / 2).max(min_granules);
        }
    }

    /// Publishes pending allocations and returns the cache's unused tail
    /// to the free list, leaving the cache empty. Mutators retire their
    /// caches at safepoints so sweep sees a consistent heap; retiring also
    /// resets the adaptive-sizing pressure, so cache growth reflects
    /// refill rate *between* safepoints.
    pub fn retire_cache(&self, cache: &mut AllocCache) {
        self.release_cache_region(cache);
        cache.pressure = 0;
    }

    /// Publishes and gives back the cache's region without resetting the
    /// refill-pressure counter (refills call this; only a real safepoint
    /// retire resets pressure).
    fn release_cache_region(&self, cache: &mut AllocCache) {
        self.publish_cache(cache);
        if cache.cursor < cache.end {
            self.free.free(cache.cursor, cache.end - cache.cursor);
        }
        cache.start = 0;
        cache.cursor = 0;
        cache.end = 0;
    }

    /// Allocates a large object directly from the wilderness bin,
    /// publishing its allocation bit immediately with an individual
    /// fence. Large objects carve from the high end of the heap
    /// (wilderness preservation, per the compaction-avoidance design [12]
    /// the collector builds on) so the small-object allocation front
    /// cannot starve them through fragmentation.
    ///
    /// # Errors
    /// Returns [`AllocError::OutOfMemory`] if no extent is large enough.
    pub fn alloc_large(&self, shape: ObjectShape) -> Result<ObjectRef, AllocError> {
        let need = shape.granules();
        if mcgc_fault::point!("heap.alloc_large") {
            return Err(self.oom_error(shape.bytes() as u64));
        }
        let start = match self.free.alloc_from_end(need) {
            Some(start) => start,
            // Self-serve from an in-flight sweep epoch, exactly like
            // `refill_cache`: a large allocation that fails mid-epoch must
            // drain unswept chunks before reporting OOM, or the ladder
            // escalates to a stop-the-world cycle while most of the heap's
            // free space is still invisible in unswept chunks.
            None => loop {
                let Some(plan) = self.lazy_plan() else {
                    return Err(self.oom_error(shape.bytes() as u64));
                };
                let mut swept = false;
                for _ in 0..REFILL_SWEEP_BATCH {
                    if plan.sweep_one_from(self, SweepSource::Refill).is_none() {
                        break;
                    }
                    swept = true;
                }
                if let Some(start) = self.free.alloc_from_end(need) {
                    break start;
                }
                if !swept {
                    return Err(self.oom_error(shape.bytes() as u64));
                }
            },
        };
        self.memos.note_handed_out(start, need);
        self.format_object(start, shape);
        release_fence(FenceKind::LargeAlloc);
        self.alloc_bits.set(start);
        self.bytes_allocated
            .fetch_add(shape.bytes() as u64, Ordering::Relaxed);
        self.objects_allocated.fetch_add(1, Ordering::Relaxed);
        Ok(ObjectRef::from_granule(start as u32))
    }

    /// True if an object of `shape` takes the large-object path.
    pub fn is_large(&self, shape: ObjectShape) -> bool {
        shape.bytes() >= self.config.large_object_bytes
    }

    fn format_object(&self, start: usize, shape: ObjectShape) {
        let n = shape.granules();
        debug_assert!(start > 0 && start + n <= self.granules());
        if let Some((seg, off)) = self.table.seg_of_granule(start) {
            if off + n <= self.table.seg_granules() {
                // Fast path: the object lies inside one segment.
                seg.slot(off)
                    .store(shape.header().encode(), Ordering::Relaxed);
                for i in 1..n {
                    seg.slot(off + i).store(0, Ordering::Relaxed);
                }
                return;
            }
        }
        // The object spans adjacent committed segments (free extents can
        // cross segment boundaries, holes never sit inside one).
        self.slot(start)
            .store(shape.header().encode(), Ordering::Relaxed);
        for i in 1..n {
            self.slot(start + i).store(0, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // occupancy and failure reports
    // ------------------------------------------------------------------

    /// Approximate heap occupancy in `[0, 1]`: allocated fraction of the
    /// *committed* granules (free-list space and dark matter excluded
    /// from the numerator; holes excluded from the denominator).
    /// Lock-free: reads the substrate's relaxed free-granule counter.
    pub fn occupancy(&self) -> f64 {
        let total = self.table.committed_granules() as f64;
        let free = self.free.free_granules() as f64;
        (total - free) / total
    }

    /// Builds the contextful out-of-memory error for a failed request of
    /// `requested_bytes`, capturing current occupancy and the segment
    /// map. Reads only atomic counters: the allocator is already in a
    /// failure path, and OOM reporting must not contend on the very
    /// locks whose exhaustion it is describing.
    pub fn oom_error(&self, requested_bytes: u64) -> AllocError {
        AllocError::OutOfMemory {
            requested_bytes,
            occupancy_permille: (self.occupancy() * 1000.0).round().clamp(0.0, 1000.0) as u16,
            segments_committed: self.table.segments_committed().min(u16::MAX as usize) as u16,
            segments_max: self.table.max_segments().min(u16::MAX as usize) as u16,
            segment_map: self.table.segment_map(),
        }
    }
}

/// Granules of `[start, end)` covered by the address-ordered `extents`.
fn covered_granules(extents: &[Extent], start: usize, end: usize) -> usize {
    let mut n = 0;
    for e in extents {
        if e.start >= end {
            break;
        }
        let s = e.start.max(start);
        let t = (e.start + e.len).min(end);
        if t > s {
            n += t - s;
        }
    }
    n
}

/// Removes granule range `[start, end)` from the address-ordered
/// `extents`, splitting extents that straddle a boundary.
fn subtract_range(extents: &mut Vec<Extent>, start: usize, end: usize) {
    let mut out = Vec::with_capacity(extents.len() + 1);
    for e in extents.drain(..) {
        let e_end = e.start + e.len;
        if e_end <= start || e.start >= end {
            out.push(e);
            continue;
        }
        if e.start < start {
            out.push(Extent {
                start: e.start,
                len: start - e.start,
            });
        }
        if e_end > end {
            out.push(Extent {
                start: end,
                len: e_end - end,
            });
        }
    }
    *extents = out;
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("granules", &self.granules())
            .field("segments", &self.table.segments_committed())
            .field("free_bytes", &self.free_bytes())
            .field("bytes_allocated", &self.bytes_allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> Heap {
        Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            cache_bytes: 4 << 10,
            large_object_bytes: 1 << 10,
            alloc_shards: 4,
            segment_bytes: 0,
            max_heap_bytes: 0,
        })
    }

    fn growable_heap() -> Heap {
        Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            max_heap_bytes: 2 << 20,
            cache_bytes: 4 << 10,
            large_object_bytes: 1 << 10,
            alloc_shards: 4,
            segment_bytes: 0,
        })
    }

    #[test]
    fn alloc_small_through_cache() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        let shape = ObjectShape::new(2, 3, 9);
        assert!(heap.alloc_small(&mut cache, shape).is_none(), "empty cache");
        assert!(heap.refill_cache(&mut cache, shape.granules()));
        let obj = heap.alloc_small(&mut cache, shape).unwrap();
        let h = heap.header(obj);
        assert_eq!(h.ref_count, 2);
        assert_eq!(h.data_count(), 3);
        assert_eq!(h.class_id, 9);
        assert_eq!(heap.load_ref(obj, 0), None);
        assert_eq!(heap.load_data(obj, 2), 0);
        assert!(!heap.is_published(obj), "bit pending until publish");
        assert!(cache.holds_unpublished(obj));
        heap.publish_cache(&mut cache);
        assert!(heap.is_published(obj));
        assert!(
            !cache.holds_unpublished(obj),
            "publication empties the range"
        );
        let next = heap.alloc_small(&mut cache, shape).unwrap();
        assert!(cache.holds_unpublished(next));
    }

    #[test]
    fn cache_refill_consumes_free_list() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        let before = heap.free_bytes();
        assert!(heap.refill_cache(&mut cache, 1));
        assert_eq!(heap.free_bytes(), before - (4 << 10));
        assert_eq!(cache.remaining_granules(), (4 << 10) / GRANULE_BYTES);
    }

    #[test]
    fn retire_returns_tail() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        assert!(heap.refill_cache(&mut cache, 1));
        let shape = ObjectShape::new(0, 7, 0); // 8 granules
        let obj = heap.alloc_small(&mut cache, shape).unwrap();
        let free_before = heap.free_bytes();
        heap.retire_cache(&mut cache);
        assert_eq!(
            heap.free_bytes(),
            free_before + (4 << 10) - shape.bytes(),
            "tail returned, allocated object kept"
        );
        assert!(cache.is_retired());
        assert!(heap.is_published(obj), "retire publishes pending bits");
    }

    #[test]
    fn alloc_large_publishes_immediately() {
        let heap = small_heap();
        let shape = ObjectShape::new(1, 200, 3); // 1616 bytes >= large threshold
        assert!(heap.is_large(shape));
        let obj = heap.alloc_large(shape).unwrap();
        assert!(heap.is_published(obj));
        assert_eq!(heap.header(obj).data_count(), 200);
    }

    #[test]
    fn alloc_large_oom() {
        let heap = small_heap();
        let too_big = ObjectShape::new(0, (heap.granules() + 10) as u32, 0);
        let err = heap.alloc_large(too_big).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        let msg = err.to_string();
        assert!(msg.contains("requested"), "{msg}");
        assert!(msg.contains("segments committed"), "{msg}");
    }

    #[test]
    fn refs_store_and_load() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, 1);
        let a = heap
            .alloc_small(&mut cache, ObjectShape::new(2, 0, 0))
            .unwrap();
        let b = heap
            .alloc_small(&mut cache, ObjectShape::new(0, 1, 0))
            .unwrap();
        heap.store_ref_unbarriered(a, 0, Some(b));
        assert_eq!(heap.load_ref(a, 0), Some(b));
        assert_eq!(heap.load_ref(a, 1), None);
        let mut seen = Vec::new();
        heap.scan_refs(a, |r| seen.push(r));
        assert_eq!(seen, vec![b]);
        heap.store_ref_unbarriered(a, 0, None);
        assert_eq!(heap.load_ref(a, 0), None);
    }

    #[test]
    fn marking_is_idempotent_and_raced() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, 1);
        let a = heap
            .alloc_small(&mut cache, ObjectShape::new(0, 0, 0))
            .unwrap();
        assert!(!heap.is_marked(a));
        assert!(heap.mark(a));
        assert!(!heap.mark(a));
        assert!(heap.is_marked(a));
        // Retiring a drained sweep epoch is what clears marks.
        heap.retire_cache(&mut cache);
        crate::sweep::sweep_serial(&heap, 1 << 10);
        assert!(!heap.is_marked(a));
        assert!(heap.is_published(a), "the marked object survived");
    }

    #[test]
    fn counters_accumulate() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, 1);
        let shape = ObjectShape::new(1, 1, 0);
        for _ in 0..10 {
            heap.alloc_small(&mut cache, shape).unwrap();
        }
        heap.retire_cache(&mut cache);
        assert_eq!(heap.objects_allocated(), 10);
        assert_eq!(heap.bytes_allocated(), 10 * shape.bytes() as u64);
        // An explicit publish and a refill fold their batches as well;
        // a large object counts at once.
        let (other, large) = (ObjectShape::new(0, 5, 0), ObjectShape::new(0, 200, 0));
        heap.refill_cache(&mut cache, 1);
        heap.alloc_small(&mut cache, other).unwrap();
        heap.publish_cache(&mut cache);
        assert_eq!(heap.objects_allocated(), 11);
        heap.alloc_small(&mut cache, other).unwrap();
        heap.refill_cache(&mut cache, 1);
        assert_eq!(heap.objects_allocated(), 12);
        heap.alloc_large(large).unwrap();
        assert_eq!(heap.objects_allocated(), 13);
        let bytes = 10 * shape.bytes() + 2 * other.bytes() + large.bytes();
        assert_eq!(heap.bytes_allocated(), bytes as u64);
    }

    #[test]
    fn concurrent_marks_win_exactly_once() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, 1);
        let objs: Vec<ObjectRef> = (0..256)
            .map(|_| {
                heap.alloc_small(&mut cache, ObjectShape::new(0, 0, 0))
                    .unwrap()
            })
            .collect();
        // Four threads released together mark every object, each in its
        // own order (a stride coprime with 256); every object must be
        // won by exactly one call.
        let arrived = std::sync::atomic::AtomicUsize::new(0);
        let mut wins: Vec<usize> = std::thread::scope(|s| {
            let handles = [1, 3, 5, 7].map(|stride| {
                let (heap, objs, arrived) = (&heap, &objs, &arrived);
                s.spawn(move || {
                    arrived.fetch_add(1, Ordering::Relaxed);
                    while arrived.load(Ordering::Relaxed) < 4 {
                        std::thread::yield_now();
                    }
                    (0..objs.len())
                        .map(|k| objs[k * stride % objs.len()])
                        .filter(|&o| heap.mark(o))
                        .map(ObjectRef::index)
                        .collect::<Vec<_>>()
                })
            });
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(wins.len(), objs.len(), "one winning call per object");
        wins.sort_unstable();
        wins.dedup();
        assert_eq!(wins.len(), objs.len(), "every object won");
        assert!(objs.iter().all(|&o| heap.is_marked(o) && !heap.mark(o)));
    }

    #[test]
    fn zeroes_recycled_memory() {
        let heap = small_heap();
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, 1);
        let a = heap
            .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
            .unwrap();
        heap.store_data(a, 0, 0xDEAD);
        heap.retire_cache(&mut cache);
        // Reallocate over the same region.
        heap.free_list().rebuild([crate::freelist::Extent {
            start: 1,
            len: heap.granules() - 1,
        }]);
        heap.refill_cache(&mut cache, 1);
        let b = heap
            .alloc_small(&mut cache, ObjectShape::new(0, 4, 0))
            .unwrap();
        assert_eq!(b, a, "bump allocation reuses the region");
        assert_eq!(heap.load_data(b, 0), 0, "granules zeroed at allocation");
    }

    #[test]
    fn is_large_boundary() {
        let heap = small_heap(); // large threshold 1 KiB = 128 granules
        let small = ObjectShape::new(0, 126, 0); // 127 granules = 1016 B
        let large = ObjectShape::new(0, 127, 0); // 128 granules = 1024 B
        assert!(!heap.is_large(small));
        assert!(heap.is_large(large));
    }

    #[test]
    fn occupancy_tracks_allocation() {
        let heap = small_heap();
        let initial = heap.occupancy();
        assert!(initial < 0.01, "fresh heap nearly empty: {initial}");
        let mut cache = AllocCache::new();
        // Consume ~half the heap through caches.
        let shape = ObjectShape::new(0, 62, 0);
        let mut allocated = 0;
        while allocated < heap.total_bytes() / 2 {
            match heap.alloc_small(&mut cache, shape) {
                Some(_) => allocated += shape.bytes(),
                None => assert!(heap.refill_cache(&mut cache, shape.granules())),
            }
        }
        assert!(heap.occupancy() > 0.45, "{}", heap.occupancy());
    }

    #[test]
    fn wilderness_keeps_large_allocs_at_heap_end() {
        let heap = small_heap();
        let small = ObjectShape::new(0, 10, 0);
        let large = ObjectShape::new(0, 200, 0);
        let mut cache = AllocCache::new();
        heap.refill_cache(&mut cache, small.granules());
        let s = heap.alloc_small(&mut cache, small).unwrap();
        let l = heap.alloc_large(large).unwrap();
        assert!(
            l.index() > s.index(),
            "large object above the allocation front"
        );
        assert_eq!(
            l.index() + large.granules(),
            heap.granules(),
            "large object flush against the heap end"
        );
    }

    #[test]
    fn refill_falls_back_to_smaller_extents() {
        let heap = small_heap();
        // Fragment the free list into extents smaller than a cache.
        heap.free_list()
            .rebuild((0..16).map(|i| crate::freelist::Extent {
                start: 1 + i * 128,
                len: 64,
            }));
        let mut cache = AllocCache::new();
        assert!(
            heap.refill_cache(&mut cache, 8),
            "halving finds a 64-granule run"
        );
        assert!(cache.remaining_granules() >= 8);
    }

    #[test]
    fn fixed_heap_cannot_grow() {
        let heap = small_heap();
        let stats = heap.segment_stats();
        assert_eq!(stats.committed, stats.max, "max_heap_bytes 0 = no room");
        assert!(!heap.try_grow());
        assert_eq!(heap.segment_stats().grows, 0);
    }

    #[test]
    fn grow_commits_a_segment_and_frees_it() {
        let heap = growable_heap();
        let before = heap.segment_stats();
        let free_before = heap.free_bytes();
        let total_before = heap.total_bytes();
        assert!(heap.try_grow());
        let after = heap.segment_stats();
        assert_eq!(after.committed, before.committed + 1);
        assert_eq!(after.grows, 1);
        assert_eq!(after.peak, after.committed);
        assert_eq!(heap.total_bytes(), total_before + after.seg_bytes);
        assert_eq!(heap.free_bytes(), free_before + after.seg_bytes);
        // Growth stops at the hard limit.
        while heap.try_grow() {}
        assert_eq!(heap.segment_stats().committed, after.max);
    }

    #[test]
    fn grown_segment_is_allocatable() {
        let heap = growable_heap();
        assert!(heap.try_grow());
        let seg_granules = heap.segment_granules();
        // Drain the initial heap so the next refill must come from the
        // grown segment.
        let initial_granules = seg_granules * heap.segment_stats().initial;
        heap.free_list().rebuild([Extent {
            start: initial_granules,
            len: seg_granules,
        }]);
        let mut cache = AllocCache::new();
        assert!(heap.refill_cache(&mut cache, 1));
        let obj = heap
            .alloc_small(&mut cache, ObjectShape::new(1, 1, 0))
            .unwrap();
        assert!(obj.index() >= initial_granules, "object in grown segment");
        heap.store_data(obj, 0, 77);
        assert_eq!(heap.load_data(obj, 0), 77);
        heap.publish_cache(&mut cache);
        assert!(heap.is_published(obj));
    }

    #[test]
    fn release_returns_whole_free_segments() {
        let heap = growable_heap();
        assert!(heap.try_grow());
        assert!(heap.try_grow());
        let sg = heap.segment_granules();
        let initial = heap.segment_stats().initial;
        let committed_before = heap.segment_stats().committed;
        // A free list covering the whole heap: both grown segments are
        // entirely free and must be released; the initial ones stay.
        heap.free_list().set_extents_unchecked(vec![Extent {
            start: 1,
            len: heap.granules() - 1,
        }]);
        let released = heap.release_empty_segments();
        assert_eq!(released, 2);
        let stats = heap.segment_stats();
        assert_eq!(stats.committed, committed_before - 2);
        assert_eq!(stats.shrinks, 2);
        assert_eq!(stats.peak, committed_before, "peak remembers the burst");
        // The released ranges left the free list.
        let extents = heap.free_list().extents_sorted();
        let total: usize = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, initial * sg - 1);
        assert!(extents.iter().all(|e| e.start + e.len <= initial * sg));
        // Partially-occupied segments are kept: cover only half a segment.
        assert!(heap.try_grow());
        let base = initial * sg;
        heap.free_list().set_extents_unchecked(vec![Extent {
            start: base,
            len: sg / 2,
        }]);
        assert_eq!(heap.release_empty_segments(), 0);
    }

    #[test]
    fn oom_error_carries_segment_map() {
        let heap = growable_heap();
        heap.try_grow();
        let err = heap.oom_error(4096);
        let AllocError::OutOfMemory {
            requested_bytes,
            segments_committed,
            segments_max,
            segment_map,
            ..
        } = err;
        assert_eq!(requested_bytes, 4096);
        let stats = heap.segment_stats();
        assert_eq!(segments_committed as usize, stats.committed);
        assert_eq!(segments_max as usize, stats.max);
        assert_eq!(segment_map.count_ones() as usize, stats.committed);
    }

    #[test]
    fn explicit_segment_bytes_is_honoured() {
        let heap = Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            segment_bytes: 64 << 10,
            ..HeapConfig::default()
        });
        assert_eq!(heap.segment_granules() * GRANULE_BYTES, 64 << 10);
        assert_eq!(heap.segment_stats().initial, 16);
    }

    /// A heap of 512-granule segments (the minimum), so bitmap words and
    /// segment ends are both close at hand.
    fn small_segment_heap() -> Heap {
        Heap::new(HeapConfig {
            heap_bytes: 64 << 10,
            cache_bytes: 4 << 10,
            segment_bytes: SEGMENT_ALIGN_GRANULES * GRANULE_BYTES,
            ..HeapConfig::default()
        })
    }

    /// Bump-allocates objects of `sizes` granules from a cache over
    /// `[start, end)` and publishes it. The region is placed by hand:
    /// these tests need word and segment edges the free list would not
    /// pick on its own. Returns the object starts; asserts no bit shows
    /// before the publication.
    fn publish_region(heap: &Heap, start: usize, end: usize, sizes: &[usize]) -> Vec<usize> {
        let mut cache = AllocCache {
            start,
            cursor: start,
            end,
            ..AllocCache::default()
        };
        let starts: Vec<usize> = sizes
            .iter()
            .map(|&n| {
                let shape = ObjectShape::new(0, n as u32 - 1, 0);
                heap.alloc_small(&mut cache, shape).unwrap().index()
            })
            .collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "bump order ascends");
        assert!(starts.iter().all(|&g| !heap.alloc_bits().get(g)));
        heap.publish_cache(&mut cache);
        assert_eq!(cache.pending_count(), 0);
        starts
    }

    /// Every allocation bit in the heap, compared with `reference`.
    #[track_caller]
    fn assert_alloc_bits_exact(heap: &Heap, reference: &std::collections::BTreeSet<usize>) {
        let bits = heap.alloc_bits();
        let set: Vec<usize> = (0..bits.len()).filter(|&g| bits.get(g)).collect();
        let want: Vec<usize> = reference.iter().copied().collect();
        assert_eq!(set, want);
    }

    /// Sizes cycling through small, word-sized and word-straddling
    /// objects until `total` granules are used.
    fn mixed_sizes(total: usize) -> Vec<usize> {
        const CYCLE: [usize; 12] = [1, 2, 3, 5, 8, 13, 21, 64, 65, 1, 1, 34];
        let mut sizes = Vec::new();
        let mut used = 0;
        for &n in CYCLE.iter().cycle() {
            if used + n > total {
                break;
            }
            sizes.push(n);
            used += n;
        }
        sizes
    }

    #[test]
    fn publication_sets_exactly_the_object_starts() {
        let heap = small_segment_heap();
        assert_eq!(heap.segment_granules(), SEGMENT_ALIGN_GRANULES);
        let mut reference = std::collections::BTreeSet::new();

        // 1-granule objects: 64 to a word, starting mid-word.
        let ones = vec![1; 200];
        reference.extend(publish_region(&heap, 64 * 3 + 5, 64 * 3 + 205, &ones));
        assert_alloc_bits_exact(&heap, &reference);

        // Mixed sizes straddling word edges, some skipping whole words.
        let (lo, hi) = (64 * 10 + 60, 64 * 10 + 60 + 700);
        reference.extend(publish_region(&heap, lo, hi, &mixed_sizes(hi - lo)));
        assert_alloc_bits_exact(&heap, &reference);

        // A region crossing a segment boundary (objects may too).
        let seg_end = 4 * SEGMENT_ALIGN_GRANULES;
        let (lo, hi) = (seg_end - 97, seg_end + 300);
        let starts = publish_region(&heap, lo, hi, &mixed_sizes(hi - lo));
        assert!(starts.iter().any(|&g| g < seg_end) && starts.iter().any(|&g| g >= seg_end));
        reference.extend(starts);
        assert_alloc_bits_exact(&heap, &reference);
    }

    #[test]
    fn publication_keeps_a_neighbouring_caches_bits() {
        let heap = small_segment_heap();
        let mut reference = std::collections::BTreeSet::new();
        // Two caches split one word at granule 64*20 + 37; the lower one
        // publishes first, then the upper one ORs into the shared word.
        let split = 64 * 20 + 37;
        reference.extend(publish_region(
            &heap,
            64 * 20 + 3,
            split,
            &[1, 2, 5, 1, 3, 7, 1, 2, 5, 1],
        ));
        reference.extend(publish_region(&heap, split, split + 90, &mixed_sizes(90)));
        assert_alloc_bits_exact(&heap, &reference);
        // The other way round, across a word and a segment edge: the
        // upper cache publishes first.
        let split = 6 * SEGMENT_ALIGN_GRANULES + 11;
        reference.extend(publish_region(&heap, split, split + 150, &mixed_sizes(150)));
        reference.extend(publish_region(&heap, split - 150, split, &mixed_sizes(150)));
        assert_alloc_bits_exact(&heap, &reference);
    }
}
