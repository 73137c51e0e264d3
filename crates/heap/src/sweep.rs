//! Bitwise sweep (paper §2.2), run as *sweep epochs*.
//!
//! Sweep frees memory in time essentially proportional to the number of
//! live objects: it walks the mark bit vector, reads each marked object's
//! size from its header, and the runs of granules between live objects
//! become free extents. The walk reads the mark bitmap a word at a time
//! and takes each live header's address from its mark bit, not from the
//! previous object's size, so the header loads are independent of each
//! other and the CPU overlaps them.
//!
//! The heap is divided into fixed *sweep chunks* that can be swept
//! independently and in any order: a chunk's carry-in (a live object
//! spanning into it) is recovered by scanning the mark bitmap backwards
//! for the nearest preceding marked header ([`Bitmap::prev_set`]). A
//! [`SweepEpoch`] is one sweep of the whole heap whose chunks are
//! CAS-claimed, each exactly once, by whichever paths drain it. The
//! collector's sweep mode decides only *when* an epoch drains: an eager
//! pause drains it in its own sweep bucket, a lazy one (§7 future work,
//! implemented here as an extension) leaves it to allocation refills,
//! the background sweeper and the next cycle's straggler fence. The
//! off-pause paths free each chunk's extents as they go; the pause holds
//! them back and builds the free list once, from every chunk in address
//! order, when the drain is done ([`Heap::settle_drained_epoch`]).
//! Either way the epoch ends in [`Heap::retire_epoch`].
//!
//! **Replay.** Between minor cycles most chunks do not change: a minor
//! cycle keeps the marks (sticky mark bits), so a chunk that nothing was
//! allocated in since its last sweep holds the same marked objects, the
//! same carry-in and the same gaps, and its allocation bits already
//! equal its mark bits. An epoch that keeps its marks therefore records
//! each chunk's result in a memo ([`ChunkMemos`]), and the next epoch,
//! planned while those marks are still kept, replays the memo instead of
//! reading the chunk's headers again when three things hold: the memo
//! came from the immediately preceding epoch, it covers the same
//! plan-time mapped ranges, and no granule of the chunk has been handed
//! out since. Handing out is one per-chunk flag, set by every path that
//! takes space off the free list or commits or releases a segment, and
//! cleared by the chunk's own sweep before its extents reach the free
//! list. Planning an epoch empties the free list, so nothing in a chunk
//! can be handed out before the epoch sweeps (or replays) it. A replay
//! frees the same extents and adds the same counts as a sweep would.
//!
//! [`Bitmap::prev_set`]: crate::bitmap::Bitmap::prev_set

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mcgc_membar::sync::Mutex;
use mcgc_telemetry::{SpanKind, SpanRecorder};

use crate::freelist::Extent;
use crate::heap::Heap;
use crate::object::{Header, ObjectRef};

/// Sweep chunk size in granules (128 KiB of heap): the unit the
/// collector's sweep epochs claim, eager or lazy.
pub const SWEEP_CHUNK_GRANULES: usize = 16 << 10;

/// The result of sweeping one chunk.
#[derive(Debug, Default, PartialEq, Eq)]
struct ChunkSweep {
    /// Free extents found inside the chunk, address-ordered. Extents at
    /// the chunk edges stop at the chunk boundary; the free list coalesces
    /// them with neighbours from adjacent chunks.
    extents: Vec<Extent>,
    /// Granules occupied by live objects counted to this chunk (objects
    /// are counted where they start).
    live_granules: usize,
    /// Number of live objects starting in this chunk.
    live_objects: usize,
    /// Granules left as dark matter (runs below the configured minimum).
    dark_granules: usize,
}

/// Sweeps the given committed granule ranges (address-ordered, each
/// entirely inside one run of committed segments). Free extents are
/// emitted per range, so they never span a hole left by a released
/// segment — neither do live objects, by the allocation invariant.
///
/// Within a range the walk goes segment by segment and a mark word at a
/// time (see the module docs). A word's dead allocation bits go with one
/// atomic AND, issued only when the word holds a dead header. Every
/// word is masked to the range, so a chunk edge inside a word leaves the
/// neighbouring chunk's bits alone.
fn sweep_ranges(heap: &Heap, ranges: &[(usize, usize)]) -> ChunkSweep {
    let mut out = ChunkSweep::default();
    let min_extent = heap.config().min_free_extent_granules;
    let table = heap.segments();
    for &(rs, re) in ranges {
        // Carry-in: a live object starting before the range may span into
        // it (objects never span holes, so a carry-in found across a hole
        // boundary necessarily ends before `rs` and is ignored). `cursor`
        // is the end of the last live object: where the next gap starts.
        let mut cursor = rs;
        if let Some(prev) = heap.mark_bits().prev_set(rs) {
            let h = heap.header(ObjectRef::from_granule(prev as u32));
            cursor = cursor.max(prev + h.size_granules as usize);
        }
        let mut g = rs;
        while g < re {
            let (seg, lo) = table.seg_of_granule(g).expect("sweep range is mapped");
            let base = g - lo;
            let hi = (re - base).min(table.seg_granules());
            let (marks, alloc) = (seg.mark_bits(), seg.alloc_bits());
            let (first, last) = (lo / 64, (hi - 1) / 64);
            for w in first..=last {
                let mut in_range = !0u64;
                if w == first {
                    in_range &= !0u64 << (lo % 64);
                }
                if w == last && hi % 64 != 0 {
                    in_range &= !(!0u64 << (hi % 64));
                }
                let live = marks.load_word(w) & in_range;
                let allocated = alloc.load_word(w);
                debug_assert_eq!(
                    live & !allocated,
                    0,
                    "marked granules without an allocation bit in word at granule {}",
                    base + w * 64
                );
                // Dead headers lose their allocation bits: alloc &= marks
                // inside the range.
                let keep = live | !in_range;
                if allocated & !keep != 0 {
                    alloc.and_word(w, keep);
                }
                let mut bits = live;
                while bits != 0 {
                    let off = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let header = Header::decode(seg.slot(off).load(Ordering::Relaxed));
                    let size = header.size_granules as usize;
                    let obj = base + off;
                    debug_assert!(obj >= cursor, "mark at granule {obj} inside a live object");
                    out.note_gap(cursor, obj, min_extent);
                    out.live_objects += 1;
                    out.live_granules += size;
                    cursor = obj + size;
                }
            }
            g = base + hi;
        }
        out.note_gap(cursor, re, min_extent);
    }
    out
}

impl ChunkSweep {
    /// Records the dead run `[start, end)` (empty when `end <= start`):
    /// a free extent, or dark matter below `min_extent`.
    fn note_gap(&mut self, start: usize, end: usize, min_extent: usize) {
        if end <= start {
            return;
        }
        let len = end - start;
        if len >= min_extent {
            self.extents.push(Extent { start, len });
        } else {
            self.dark_granules += len;
        }
    }
}

/// Number of sweep chunks for `heap` at the given chunk size.
pub fn chunk_count(heap: &Heap, chunk_granules: usize) -> usize {
    heap.granules().div_ceil(chunk_granules)
}

// A memo stores extent offsets and lengths as `u16`.
const _: () = assert!(SWEEP_CHUNK_GRANULES <= u16::MAX as usize);

/// The heap's replay state (see the module docs), one entry per
/// [`SWEEP_CHUNK_GRANULES`] chunk of the heap's maximum extent. Epochs
/// of any other chunk size neither read nor write it.
#[derive(Debug)]
pub(crate) struct ChunkMemos {
    /// Set when a granule of the chunk leaves the free list, or its
    /// segment is committed or released; cleared by a recording sweep of
    /// the chunk before its extents reach the free list. Relaxed: a
    /// hand-out of the chunk's extents follows the clear through the
    /// free-list shard lock that passed them on, and every set reaches
    /// the next epoch's claimant through the stop-the-world pause that
    /// plans the epoch and the lock that publishes it.
    handed_out: Box<[AtomicBool]>,
    memos: Box<[Mutex<ChunkMemo>]>,
    /// Sequence number of the last epoch planned on the heap.
    planned: AtomicU64,
}

/// One chunk's last recorded sweep.
#[derive(Debug, Default)]
struct ChunkMemo {
    /// Sequence number of the epoch that recorded it (or replayed it and
    /// recorded again); 0 before any.
    epoch: u64,
    /// The plan-time mapped ranges the sweep covered.
    ranges: Vec<(usize, usize)>,
    /// Free extents, as offset from the chunk start and length: four
    /// bytes each.
    extents: Vec<(u16, u16)>,
    live_granules: usize,
    live_objects: usize,
    dark_granules: usize,
}

impl ChunkMemos {
    pub(crate) fn new(max_granules: usize) -> ChunkMemos {
        let chunks = max_granules.div_ceil(SWEEP_CHUNK_GRANULES);
        ChunkMemos {
            handed_out: (0..chunks).map(|_| AtomicBool::new(true)).collect(),
            memos: (0..chunks).map(|_| Mutex::default()).collect(),
            planned: AtomicU64::new(0),
        }
    }

    /// Notes that granules `[start, start + len)` were handed out: the
    /// memos of the chunks they overlap no longer describe them.
    #[inline]
    pub(crate) fn note_handed_out(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let (first, last) = (
            start / SWEEP_CHUNK_GRANULES,
            (start + len - 1) / SWEEP_CHUNK_GRANULES,
        );
        for flag in &self.handed_out[first..=last] {
            if !flag.load(Ordering::Relaxed) {
                flag.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Stores chunk `c`'s sweep result for the next epoch, recorded by
    /// epoch `seq`, and clears its hand-out flag: the caller frees the
    /// chunk's extents only afterwards.
    fn record(&self, c: usize, seq: u64, ranges: &[(usize, usize)], cs: &ChunkSweep) {
        self.handed_out[c].store(false, Ordering::Relaxed);
        let base = c * SWEEP_CHUNK_GRANULES;
        let mut memo = self.memos[c].lock();
        // Stamped last: a record cut short leaves no memo to replay.
        memo.epoch = 0;
        memo.ranges.clear();
        memo.ranges.extend_from_slice(ranges);
        memo.extents.clear();
        memo.extents.extend(
            cs.extents
                .iter()
                .map(|e| ((e.start - base) as u16, e.len as u16)),
        );
        memo.live_granules = cs.live_granules;
        memo.live_objects = cs.live_objects;
        memo.dark_granules = cs.dark_granules;
        memo.epoch = seq;
    }

    /// Chunk `c`'s result as recorded by epoch `prev`, if `ranges` are
    /// the ranges it covered and nothing in the chunk was handed out
    /// since; `restamp` re-records it as epoch `restamp`'s.
    fn replay(
        &self,
        c: usize,
        prev: u64,
        ranges: &[(usize, usize)],
        restamp: Option<u64>,
    ) -> Option<ChunkSweep> {
        if self.handed_out[c].load(Ordering::Relaxed) {
            return None;
        }
        let mut memo = self.memos[c].lock();
        if memo.epoch != prev || memo.ranges != ranges {
            return None;
        }
        if let Some(seq) = restamp {
            memo.epoch = seq;
        }
        let base = c * SWEEP_CHUNK_GRANULES;
        Some(ChunkSweep {
            extents: memo
                .extents
                .iter()
                .map(|&(off, len)| Extent {
                    start: base + off as usize,
                    len: len as usize,
                })
                .collect(),
            live_granules: memo.live_granules,
            live_objects: memo.live_objects,
            dark_granules: memo.dark_granules,
        })
    }
}

/// The `sweep-replay` audit (verify-gc): a replayed chunk's allocation
/// bits equal its mark bits — so a sweep of it clears nothing and has no
/// side effects — and sweeping it afresh finds exactly the memo.
///
/// # Panics
/// Panics, naming the chunk, on any mismatch.
#[cfg(feature = "verify-gc")]
fn audit_replay(heap: &Heap, c: usize, ranges: &[(usize, usize)], replayed: &ChunkSweep) {
    let (alloc, marks) = (heap.alloc_bits(), heap.mark_bits());
    for &(s, e) in ranges {
        for w in s / 64..e.div_ceil(64) {
            let lo = (w * 64).max(s) - w * 64;
            let hi = ((w + 1) * 64).min(e) - w * 64;
            let in_range = (!0u64 << lo) & (!0u64 >> (64 - hi));
            let stale = (alloc.load_word(w) ^ marks.load_word(w)) & in_range;
            assert!(
                stale == 0,
                "sweep-replay audit: chunk {c}: allocation and mark bits differ at granule {}",
                w * 64 + stale.trailing_zeros() as usize
            );
        }
    }
    let fresh = sweep_ranges(heap, ranges);
    assert!(
        fresh == *replayed,
        "sweep-replay audit: chunk {c}: replayed {replayed:?}, a fresh sweep finds {fresh:?}"
    );
}

/// Totals of a sweep epoch, summed over its chunk results.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Live granules (objects counted at their start chunk).
    pub live_granules: usize,
    /// Live object count.
    pub live_objects: usize,
    /// Granules returned to the free list.
    pub freed_granules: usize,
    /// Granules left dark.
    pub dark_granules: usize,
    /// Chunks swept.
    pub chunks: usize,
}

/// Sweeps the whole heap on the calling thread as an eager pause does:
/// one epoch drained in place, the free list settled
/// ([`Heap::settle_drained_epoch`]), the epoch retired. All mutator
/// caches must be retired (stop-the-world). For tests and benches.
pub fn sweep_serial(heap: &Heap, chunk_granules: usize) -> SweepStats {
    let epoch = SweepEpoch::new(heap, chunk_granules);
    epoch.drain(heap, SweepSource::Pause);
    heap.settle_drained_epoch(&epoch);
    heap.retire_epoch(&epoch)
}

/// Which path claimed a chunk of a sweep epoch. Selects the
/// flight-recorder span kind and which of the heap's cumulative sweep
/// counters the chunk and its reclaimed granules are charged to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SweepSource {
    /// An eager pause draining the whole epoch in its sweep bucket:
    /// reclaimed on-pause. Its chunks' extents are held for the pause's
    /// one settle ([`Heap::settle_drained_epoch`]), not freed chunk by
    /// chunk.
    Pause,
    /// An allocation-cache refill that found the free list unable to
    /// satisfy it (sweep-on-refill): the allocator that needs the memory
    /// pays for its reclamation.
    Refill,
    /// The background sweeper soaking idle cycles between tracing
    /// increments.
    Background,
    /// The next cycle's pre-pause straggler fence finishing whatever the
    /// refill and background paths left behind.
    Straggler,
    /// The mutator escalation ladder (or a test) helping directly.
    Escalation,
}

impl SweepSource {
    fn span_kind(self) -> SpanKind {
        match self {
            SweepSource::Pause => SpanKind::SweepChunk,
            SweepSource::Refill => SpanKind::RefillSweepChunk,
            SweepSource::Background => SpanKind::BgSweepChunk,
            SweepSource::Straggler | SweepSource::Escalation => SpanKind::LazySweepChunk,
        }
    }
}

/// The extents an eager pause's drain holds for its one settle, as runs
/// of consecutive chunks: `(first chunk, end chunk, extents)`.
type HeldRuns = Vec<(usize, usize, Vec<Extent>)>;

/// Holds chunk `chunk`'s extents. A drainer that claims the chunk after
/// its last one extends that run, so a drain by one thread holds a
/// single vector, the way a serial sweep concatenates its chunks.
fn hold(runs: &mut HeldRuns, chunk: usize, extents: Vec<Extent>) {
    match runs.last_mut() {
        Some((_, end, run)) if *end == chunk => {
            run.extend_from_slice(&extents);
            *end += 1;
        }
        _ => runs.push((chunk, chunk + 1, extents)),
    }
}

/// Per-chunk lifecycle within a sweep epoch. A chunk moves
/// `UNSWEPT → CLAIMED → SWEPT`, never backwards; the CAS from `UNSWEPT`
/// to `CLAIMED` is the claim, so each chunk is swept exactly once no
/// matter how many paths race for it.
const CHUNK_UNSWEPT: u8 = 0;
const CHUNK_CLAIMED: u8 = 1;
const CHUNK_SWEPT: u8 = 2;

/// A *sweep epoch*: a snapshot of the mapped segment ranges taken at the
/// end of marking, whose chunks are claimed and swept — inside the pause
/// by its workers (eager), or off-pause by allocation-cache refills that
/// find the free list empty, by the background sweeper, by the
/// escalation ladder, and finally by the next cycle's straggler fence
/// (lazy).
///
/// The next collection cycle must not start until the epoch
/// [`SweepEpoch::is_done`] and is retired ([`Heap::retire_epoch`]); mark
/// bits are still load-bearing for unswept chunks. The epoch also carries
/// whether the next cycle keeps its marks ([`SweepEpoch::keeping_marks`]).
#[derive(Debug)]
pub struct SweepEpoch {
    chunk_granules: usize,
    /// Scan cursor: a hint for the next unclaimed chunk. Claimers loop
    /// `fetch_add`, skipping chunks whose claim CAS loses.
    next: AtomicUsize,
    done: AtomicUsize,
    total: usize,
    /// Per-chunk `CHUNK_*` lifecycle state. Distinguishes swept from
    /// merely claimed chunks so segment release and the verifier can
    /// reason about partially swept epochs.
    state: Box<[AtomicU8]>,
    /// Committed granule ranges at plan time. A segment the grow rung
    /// commits *during* a lazy epoch has its space put straight on the
    /// free list (its bitmaps are clear — nothing to sweep); sweeping it
    /// here too would double-free it, so chunks only sweep the snapshot.
    /// The converse race cannot happen: segment release skips any segment
    /// this epoch has not fully swept ([`SweepEpoch::range_fully_swept`]),
    /// and everything else only shrinks under a stop-the-world pause.
    mapped: Vec<(usize, usize)>,
    /// Unmarked granules in the mapped snapshot — the epoch's expected
    /// total yield. Deferred: see [`SweepEpoch::expected_dead`].
    expected_dead: OnceLock<usize>,
    /// Sums over completed chunks: granules freed, live objects and
    /// granules, dark matter. Exact once the epoch is done.
    freed: AtomicUsize,
    live_objects: AtomicUsize,
    live_granules: AtomicUsize,
    dark_granules: AtomicUsize,
    /// Free extents of the chunks a pause swept ([`SweepSource::Pause`]):
    /// the settle builds the free list from them in one address-ordered
    /// pass, so the drain takes no free-list lock and no extent has to
    /// be sorted again. Each drainer hands its share over once.
    held: Mutex<HeldRuns>,
    recorder: Option<Arc<SpanRecorder>>,
    /// Retirement keeps the mark bits: the next cycle is minor.
    keep_marks: bool,
    /// This epoch's sequence number on its heap.
    seq: u64,
    /// The epoch whose chunk memos this one may replay: the preceding
    /// one, when the heap's marks were kept since it retired. `None` for
    /// chunk sizes other than [`SWEEP_CHUNK_GRANULES`].
    replay_from: Option<u64>,
}

impl SweepEpoch {
    /// Plans a sweep of the whole heap, **clearing the free list**: all
    /// free space (including extents known before the collection) is
    /// rediscovered chunk by chunk, so allocation gradually recovers as
    /// chunks are swept.
    ///
    /// Planned while the heap keeps the previous epoch's marks
    /// ([`Heap::marks_kept`]: a minor cycle's pause), the epoch replays
    /// the memos that epoch recorded (see the module docs).
    pub fn new(heap: &Heap, chunk_granules: usize) -> SweepEpoch {
        heap.free_list().rebuild(std::iter::empty());
        let total = chunk_count(heap, chunk_granules);
        let mapped = heap.mapped_ranges(1, heap.granules());
        let seq = heap.chunk_memos().planned.fetch_add(1, Ordering::Relaxed) + 1;
        let replay = chunk_granules == SWEEP_CHUNK_GRANULES && heap.marks_kept();
        SweepEpoch {
            chunk_granules,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            total,
            state: (0..total).map(|_| AtomicU8::new(CHUNK_UNSWEPT)).collect(),
            mapped,
            expected_dead: OnceLock::new(),
            freed: AtomicUsize::new(0),
            live_objects: AtomicUsize::new(0),
            live_granules: AtomicUsize::new(0),
            dark_granules: AtomicUsize::new(0),
            held: Mutex::new(Vec::new()),
            recorder: None,
            keep_marks: false,
            seq,
            replay_from: replay.then(|| seq - 1),
        }
    }

    /// The epoch's expected total yield: unmarked granules in the mapped
    /// snapshot. Computed on first use — *off the pause* (the first
    /// kickoff-headroom check on the allocation slow path), because a
    /// popcount over the whole mark bitmap costs real pause time while
    /// the install itself needs none of it. Mark bits are stable from
    /// install to retire (sweeping only reads them), so the deferred scan
    /// sees exactly the plan-time bitmap. Over actual yield because live
    /// objects mark only their head granule and dark matter (sub-minimum
    /// tail fragments) never hits the free list; `pending_granules`
    /// clamps with the per-chunk bound.
    fn expected_dead(&self, heap: &Heap) -> usize {
        *self.expected_dead.get_or_init(|| {
            self.mapped
                .iter()
                .map(|&(s, e)| (e - s) - heap.mark_bits().count_range(s, e))
                .sum()
        })
    }

    /// Attaches a flight recorder: each swept chunk is recorded on the
    /// sweeping thread's track, with the span kind naming which path paid
    /// for it (`sweep.chunk`, `sweep.lazy_chunk`, `sweep.refill_chunk`,
    /// or `sweep.bg_chunk`).
    pub fn with_recorder(mut self, rec: Arc<SpanRecorder>) -> SweepEpoch {
        self.recorder = Some(rec);
        self
    }

    /// Records whether the cycle after this epoch's is minor: if so,
    /// [`Heap::retire_epoch`] keeps the mark bits (sticky mark bits, so
    /// the survivors stay black), else it clears them. An epoch that
    /// keeps them records each chunk's result for the next epoch to
    /// replay.
    pub fn keeping_marks(mut self, keep: bool) -> SweepEpoch {
        self.keep_marks = keep;
        self
    }

    /// Whether retirement keeps the mark bits.
    pub(crate) fn keeps_marks(&self) -> bool {
        self.keep_marks
    }

    /// Claims and sweeps one chunk, freeing its extents to the heap's
    /// free list. Returns the chunk's index, or `None` if all chunks are
    /// claimed. Equivalent to [`SweepEpoch::sweep_one_from`] with
    /// [`SweepSource::Escalation`].
    pub fn sweep_one(&self, heap: &Heap) -> Option<usize> {
        self.sweep_one_from(heap, SweepSource::Escalation)
    }

    /// Claims and sweeps one chunk on behalf of `source`, freeing its
    /// extents to the heap's free list (or holding them for the settle,
    /// for [`SweepSource::Pause`]) and charging the heap's cumulative
    /// sweep counters. Returns the chunk's index, or `None` once every
    /// chunk is claimed (some may still be in flight on other threads —
    /// see [`SweepEpoch::is_done`]).
    pub fn sweep_one_from(&self, heap: &Heap, source: SweepSource) -> Option<usize> {
        let c = self.claim_next()?;
        let mut held = HeldRuns::new();
        self.sweep_claimed(heap, c, source, &mut held);
        if !held.is_empty() {
            self.held.lock().append(&mut held);
        }
        Some(c)
    }

    /// Claims and sweeps chunks on behalf of `source` until none is left
    /// unclaimed, and returns how many this call swept. The pause's
    /// sweep workers and the straggler fence drain this way; for
    /// [`SweepSource::Pause`] each drainer hands its chunks' extents to
    /// the epoch once, at the end.
    pub fn drain(&self, heap: &Heap, source: SweepSource) -> usize {
        let mut held = HeldRuns::new();
        let mut swept = 0;
        while let Some(c) = self.claim_next() {
            self.sweep_claimed(heap, c, source, &mut held);
            swept += 1;
        }
        if !held.is_empty() {
            self.held.lock().append(&mut held);
        }
        swept
    }

    /// Claims the next unclaimed chunk off the scan cursor, or `None`
    /// once the cursor has passed every chunk.
    fn claim_next(&self) -> Option<usize> {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.total {
                return None;
            }
            // The cursor is only a hint: a targeted claim may have taken
            // this chunk already, in which case the CAS loses and the
            // cursor moves on.
            if self.claim(c) {
                return Some(c);
            }
        }
    }

    /// CAS-claims chunk `c` for the caller. // MODEL: shard_model — the
    /// claim CAS is the only mutual exclusion; orderings beyond the RMW
    /// itself are not needed because the mark bits a sweeper reads were
    /// published by the pause that installed this plan.
    fn claim(&self, c: usize) -> bool {
        self.state[c]
            .compare_exchange(
                CHUNK_UNSWEPT,
                CHUNK_CLAIMED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Sweeps (or replays) an already-claimed chunk, publishes its state,
    /// frees its extents (or adds them to `held`, for
    /// [`SweepSource::Pause`]), adds its results to the epoch's sums,
    /// and counts it done.
    fn sweep_claimed(&self, heap: &Heap, c: usize, source: SweepSource, held: &mut HeldRuns) {
        let _span = self
            .recorder
            .as_deref()
            .filter(|r| r.is_enabled())
            .map(|r| r.span(source.span_kind(), c as u64));
        // Clip the chunk to the plan-time committed ranges (see `mapped`).
        let start = c * self.chunk_granules;
        let end = (c + 1) * self.chunk_granules;
        let ranges: Vec<(usize, usize)> = self
            .mapped
            .iter()
            .filter_map(|&(rs, re)| {
                let s = rs.max(start);
                let e = re.min(end);
                (s < e).then_some((s, e))
            })
            .collect();
        let memos = heap.chunk_memos();
        // An epoch that keeps its marks records (or restamps) each memo.
        let restamp =
            (self.keep_marks && self.chunk_granules == SWEEP_CHUNK_GRANULES).then_some(self.seq);
        let replayed = self
            .replay_from
            .and_then(|prev| memos.replay(c, prev, &ranges, restamp));
        let cs = match replayed {
            Some(cs) => {
                #[cfg(feature = "verify-gc")]
                audit_replay(heap, c, &ranges, &cs);
                heap.note_replay();
                cs
            }
            None => {
                let cs = sweep_ranges(heap, &ranges);
                if let Some(seq) = restamp {
                    memos.record(c, seq, &ranges, &cs);
                }
                cs
            }
        };
        // SWEPT is published *before* the extents hit the free list so a
        // concurrent free-list audit never sees an extent inside a chunk
        // it still considers unswept (the converse — swept but extents in
        // flight — only makes segment release more conservative).
        self.state[c].store(CHUNK_SWEPT, Ordering::Release);
        let freed: usize = cs.extents.iter().map(|e| e.len).sum();
        if source == SweepSource::Pause {
            hold(held, c, cs.extents);
        } else {
            for e in &cs.extents {
                heap.free_list().free(e.start, e.len);
            }
        }
        self.freed.fetch_add(freed, Ordering::Relaxed);
        self.live_objects
            .fetch_add(cs.live_objects, Ordering::Relaxed);
        self.live_granules
            .fetch_add(cs.live_granules, Ordering::Relaxed);
        self.dark_granules
            .fetch_add(cs.dark_granules, Ordering::Relaxed);
        heap.note_chunk(source, freed as u64);
        // Release so the thread that observes `is_done` and retires the
        // plan (reading the sums, clearing mark bits) is ordered after
        // every chunk's sweep.
        self.done.fetch_add(1, Ordering::Release);
    }

    /// Takes the extents a pause's drain held back, in address order:
    /// chunks ascending, each chunk's own extents already ordered. A
    /// drain by one thread held one run, which comes back as it is.
    pub(crate) fn take_held_extents(&self) -> Vec<Extent> {
        let mut runs = std::mem::take(&mut *self.held.lock());
        if let [(_, _, only)] = &mut runs[..] {
            return std::mem::take(only);
        }
        runs.sort_unstable_by_key(|r| r.0);
        let mut out = Vec::with_capacity(runs.iter().map(|r| r.2.len()).sum());
        for (_, _, extents) in runs {
            out.extend_from_slice(&extents);
        }
        out
    }

    /// True once every chunk has been swept (claimed *and* completed).
    pub fn is_done(&self) -> bool {
        // Acquire pairs with the Release `done` increment in
        // `sweep_claimed`: retiring the plan (which reads the sums and
        // clears mark bits) is ordered after the last chunk's writes.
        self.done.load(Ordering::Acquire) >= self.total
    }

    /// The epoch's totals over the chunks completed so far: exact once
    /// [`SweepEpoch::is_done`].
    pub fn totals(&self) -> SweepStats {
        SweepStats {
            live_granules: self.live_granules.load(Ordering::Relaxed),
            live_objects: self.live_objects.load(Ordering::Relaxed),
            freed_granules: self.freed.load(Ordering::Relaxed),
            dark_granules: self.dark_granules.load(Ordering::Relaxed),
            chunks: self.done.load(Ordering::Relaxed),
        }
    }

    /// Fraction of chunks completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done.load(Ordering::Relaxed) as f64 / self.total as f64
        }
    }

    /// Total chunks in the plan.
    pub fn total_chunks(&self) -> usize {
        self.total
    }

    /// Chunks not yet completed (claimed-but-in-flight chunks count as
    /// remaining).
    pub fn remaining_chunks(&self) -> usize {
        self.total.saturating_sub(self.done.load(Ordering::Relaxed))
    }

    /// Granules still locked up in unswept chunks: the epoch's expected
    /// yield (unmarked granules at plan time) minus what completed chunks
    /// already freed, clamped by the unswept-chunk capacity. The epoch
    /// cleared the free list at install, so until a chunk is swept its
    /// dead space is invisible to `free_bytes()` — kickoff pacing adds
    /// this back as pending headroom, otherwise the post-pause heap looks
    /// full and the next cycle starts (and fences the whole epoch) before
    /// refill/background sweeping can drain it. Counting only *dead*
    /// granules matters in the other direction too: treating live data in
    /// unswept chunks as headroom would delay kickoff past the point
    /// where allocation fails and forces the pause early.
    pub fn pending_granules(&self, heap: &Heap) -> usize {
        let cap = self.remaining_chunks() * self.chunk_granules;
        if cap == 0 {
            return 0;
        }
        self.expected_dead(heap)
            .saturating_sub(self.freed.load(Ordering::Relaxed))
            .min(cap)
    }

    /// True when every chunk overlapping granules `[lo, hi)` *within the
    /// plan-time mapped snapshot* has completed its sweep. Ranges outside
    /// the snapshot (segments grown after the pause, or holes at plan
    /// time) are vacuously swept — the epoch will never touch them.
    ///
    /// This is the segment-release guard: a segment is only "empty" once
    /// its chunks are swept, because until then its dead granules are
    /// invisible to the free list and the segment would be released with
    /// its extents later double-freed into a hole.
    pub fn range_fully_swept(&self, lo: usize, hi: usize) -> bool {
        if self.total == 0 || lo >= hi {
            return true;
        }
        let first = lo / self.chunk_granules;
        let last = ((hi - 1) / self.chunk_granules).min(self.total - 1);
        for c in first..=last {
            let cs = (c * self.chunk_granules).max(lo);
            let ce = ((c + 1) * self.chunk_granules).min(hi);
            let in_snapshot = self.mapped.iter().any(|&(rs, re)| rs.max(cs) < re.min(ce));
            if in_snapshot && self.state[c].load(Ordering::Acquire) != CHUNK_SWEPT {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{AllocCache, HeapConfig, ObjectShape};
    use crate::object::GRANULE_BYTES;

    fn build_heap() -> (Heap, Vec<ObjectRef>) {
        let heap = Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            cache_bytes: 8 << 10,
            large_object_bytes: 4 << 10,
            min_free_extent_granules: 2,
            alloc_shards: 4,
            ..HeapConfig::default()
        });
        let mut cache = AllocCache::new();
        let mut objs = Vec::new();
        for i in 0..2000u32 {
            let shape = ObjectShape::new(i % 4, i % 7, 1);
            let obj = loop {
                match heap.alloc_small(&mut cache, shape) {
                    Some(o) => break o,
                    None => assert!(heap.refill_cache(&mut cache, shape.granules())),
                }
            };
            objs.push(obj);
        }
        heap.retire_cache(&mut cache);
        (heap, objs)
    }

    fn free_total(heap: &Heap) -> usize {
        heap.free_bytes() / GRANULE_BYTES
    }

    #[test]
    fn sweep_none_marked_frees_everything() {
        let (heap, _) = build_heap();
        let stats = sweep_serial(&heap, 1 << 10);
        assert_eq!(stats.live_objects, 0);
        assert_eq!(
            stats.freed_granules + stats.dark_granules,
            heap.granules() - 1
        );
        assert_eq!(free_total(&heap), stats.freed_granules);
        assert_eq!(heap.alloc_bits().count(), 0, "all allocation bits cleared");
    }

    #[test]
    fn sweep_all_marked_frees_only_gaps() {
        let (heap, objs) = build_heap();
        for &o in &objs {
            heap.mark(o);
        }
        let live: usize = objs
            .iter()
            .map(|&o| heap.header(o).size_granules as usize)
            .sum();
        let stats = sweep_serial(&heap, 1 << 10);
        assert_eq!(stats.live_objects, objs.len());
        assert_eq!(stats.live_granules, live);
        for &o in &objs {
            assert!(heap.is_published(o), "live object keeps its alloc bit");
        }
    }

    #[test]
    fn sweep_partial_keeps_marked_only() {
        let (heap, objs) = build_heap();
        for (i, &o) in objs.iter().enumerate() {
            if i % 3 == 0 {
                heap.mark(o);
            }
        }
        let stats = sweep_serial(&heap, 1 << 10);
        assert_eq!(stats.live_objects, objs.len().div_ceil(3));
        for (i, &o) in objs.iter().enumerate() {
            assert_eq!(heap.is_published(o), i % 3 == 0, "object {i}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (heap_a, objs_a) = build_heap();
        let (heap_b, objs_b) = build_heap();
        assert_eq!(objs_a, objs_b, "deterministic build");
        for (i, (&a, &b)) in objs_a.iter().zip(&objs_b).enumerate() {
            if i % 5 < 2 {
                heap_a.mark(a);
                heap_b.mark(b);
            }
        }
        let sa = sweep_serial(&heap_a, 1 << 10);
        // Four threads drain one epoch, then settle and retire it as the
        // eager pause does.
        let epoch = SweepEpoch::new(&heap_b, 1 << 10);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| epoch.drain(&heap_b, SweepSource::Pause));
            }
        });
        heap_b.settle_drained_epoch(&epoch);
        let sb = heap_b.retire_epoch(&epoch);
        assert_eq!(sa.live_objects, sb.live_objects);
        assert_eq!(sa.live_granules, sb.live_granules);
        assert_eq!(sa.freed_granules, sb.freed_granules);
        assert_eq!(sa.dark_granules, sb.dark_granules);
        let ea = heap_a.free_list().extents_sorted();
        let eb = heap_b.free_list().extents_sorted();
        assert_eq!(ea, eb, "identical free lists");
    }

    #[test]
    fn object_spanning_chunks_is_preserved() {
        let heap = Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            cache_bytes: 8 << 10,
            large_object_bytes: 256,
            min_free_extent_granules: 2,
            alloc_shards: 4,
            ..HeapConfig::default()
        });
        // Large object spanning several 1 KiB-granule chunks.
        let big = heap.alloc_large(ObjectShape::new(0, 5000, 2)).unwrap();
        heap.mark(big);
        let chunk = 1 << 10;
        let stats = sweep_serial(&heap, chunk);
        assert_eq!(stats.live_objects, 1);
        assert_eq!(stats.live_granules, 5001);
        assert!(heap.is_published(big));
        // The spanned interior chunks must not be freed.
        assert_eq!(
            free_total(&heap),
            heap.granules() - 1 - 5001 - stats.dark_granules
        );
    }

    #[test]
    fn lazy_sweep_converges_to_same_free_space() {
        let (heap_a, objs_a) = build_heap();
        let (heap_b, objs_b) = build_heap();
        for (i, (&a, &b)) in objs_a.iter().zip(&objs_b).enumerate() {
            if i % 2 == 0 {
                heap_a.mark(a);
                heap_b.mark(b);
            }
        }
        let eager = sweep_serial(&heap_a, 1 << 10);
        let lazy = SweepEpoch::new(&heap_b, 1 << 10);
        assert!(!lazy.is_done());
        while lazy.sweep_one(&heap_b).is_some() {}
        assert!(lazy.is_done());
        let stats = lazy.totals();
        assert!((lazy.progress() - 1.0).abs() < f64::EPSILON);
        assert_eq!(stats.live_objects, eager.live_objects);
        assert_eq!(free_total(&heap_a), free_total(&heap_b));
    }

    #[test]
    fn mixed_source_lazy_sweep_is_bit_identical_to_eager() {
        // The differential contract behind the sweep-epoch design: no
        // matter which paths drain the epoch (sweep-on-refill, the
        // background sweeper, the straggler fence, escalation rungs),
        // the reclaimed free space is *bit-identical* to an eager
        // in-pause sweep — same totals, same granule set, same dark
        // matter. Extent *boundaries* are allowed to differ until the
        // next rebuild: incremental per-chunk frees land in shard bins
        // uncoalesced (coalescing is deferred to the STW rebuild by the
        // allocator's design), so a dead run straddling a chunk boundary
        // is two extents until then.
        let (heap_a, objs_a) = build_heap();
        let (heap_b, objs_b) = build_heap();
        assert_eq!(objs_a, objs_b, "deterministic build");
        for (i, (&a, &b)) in objs_a.iter().zip(&objs_b).enumerate() {
            if i % 7 < 3 {
                heap_a.mark(a);
                heap_b.mark(b);
            }
        }
        let eager = sweep_serial(&heap_a, 1 << 10);
        let lazy = SweepEpoch::new(&heap_b, 1 << 10);
        let sources = [
            SweepSource::Refill,
            SweepSource::Background,
            SweepSource::Straggler,
            SweepSource::Escalation,
        ];
        let mut turn = 0usize;
        while lazy
            .sweep_one_from(&heap_b, sources[turn % sources.len()])
            .is_some()
        {
            turn += 1;
        }
        assert!(lazy.is_done());
        let stats = lazy.totals();
        assert_eq!(stats.live_objects, eager.live_objects);
        assert_eq!(stats.live_granules, eager.live_granules);
        assert_eq!(stats.freed_granules, eager.freed_granules);
        assert_eq!(stats.dark_granules, eager.dark_granules);
        assert_eq!(free_total(&heap_a), free_total(&heap_b));
        // Run the coalescing rebuild the next stop-the-world performs
        // anyway; after it the extent lists must be bit-identical.
        let eb = heap_b.free_list().extents_sorted();
        heap_b.free_list().rebuild(eb);
        assert_eq!(
            heap_a.free_list().extents_sorted(),
            heap_b.free_list().extents_sorted(),
            "identical free lists regardless of sweep path"
        );
        // And every path's chunk count landed in the heap's accounting.
        let sc = heap_b.sweep_counters();
        assert!(sc.refill_chunks > 0);
        assert!(sc.bg_chunks > 0);
        assert!(sc.straggler_chunks > 0);
        assert!(sc.escalation_chunks > 0);
        assert_eq!(
            sc.on_pause_granules + sc.off_pause_granules,
            eager.freed_granules as u64,
            "on/off-pause split partitions the reclaimed granules"
        );
    }

    #[test]
    fn retired_lazy_epoch_reports_dark_bytes_like_eager() {
        // Retirement records the dark matter of every epoch, drained in
        // the pause or off it: a lazily swept heap must report the same
        // `dark_bytes` as an eager sweep of the same marks.
        let (heap_a, objs_a) = build_heap();
        let (heap_b, objs_b) = build_heap();
        for (&a, &b) in objs_a.iter().zip(&objs_b) {
            // A dead single-granule object between live neighbours is a
            // run below the two-granule minimum extent: dark matter.
            if heap_a.header(a).size_granules > 1 {
                heap_a.mark(a);
                heap_b.mark(b);
            }
        }
        let eager = sweep_serial(&heap_a, 1 << 10);
        assert!(eager.dark_granules > 0, "the marks leave dark matter");
        let plan = Arc::new(SweepEpoch::new(&heap_b, 1 << 10));
        heap_b.install_lazy_plan(Arc::clone(&plan));
        plan.drain(&heap_b, SweepSource::Refill);
        let drained = heap_b.take_lazy_plan_if_done().expect("drained epoch");
        let totals = heap_b.retire_epoch(&drained);
        assert_eq!(totals.dark_granules, eager.dark_granules);
        assert_eq!(heap_b.dark_bytes(), heap_a.dark_bytes());
        assert_eq!(heap_b.dark_bytes(), eager.dark_granules * GRANULE_BYTES);
        assert_eq!(heap_b.mark_bits().count(), 0, "retirement clears marks");
    }

    fn growable_heap() -> Heap {
        Heap::new(HeapConfig {
            heap_bytes: 1 << 20,
            max_heap_bytes: 2 << 20,
            cache_bytes: 8 << 10,
            large_object_bytes: 4 << 10,
            min_free_extent_granules: 2,
            alloc_shards: 4,
            segment_bytes: 0,
        })
    }

    #[test]
    fn sweep_releases_empty_grown_segments() {
        let heap = growable_heap();
        assert!(heap.try_grow());
        assert!(heap.try_grow());
        let sg = heap.segment_granules();
        let initial = heap.segment_stats().initial;
        // Nothing is marked, so the grown segments are entirely dead and
        // the sweep must hand them back to the segment table.
        let stats = sweep_serial(&heap, 1 << 10);
        assert_eq!(heap.segment_stats().committed, initial);
        assert_eq!(heap.segment_stats().shrinks, 2);
        // The free list holds only initial-segment space.
        assert_eq!(
            free_total(&heap) + stats.dark_granules,
            initial * sg - 1,
            "released segments left the free list"
        );
    }

    #[test]
    fn lazy_sweep_ignores_segments_grown_mid_sweep() {
        let heap = growable_heap();
        let sg = heap.segment_granules();
        let plan_granules = heap.granules();
        let lazy = SweepEpoch::new(&heap, 1 << 10);
        lazy.sweep_one(&heap).unwrap();
        // A grow rung fires mid-sweep: its space goes straight to the
        // free list and must NOT be swept (double-freed) by the plan.
        assert!(heap.try_grow());
        while lazy.sweep_one(&heap).is_some() {}
        assert!(lazy.is_done());
        assert_eq!(
            free_total(&heap),
            (plan_granules - 1) + sg,
            "plan-time space swept once, grown segment added once"
        );
    }

    #[test]
    fn release_skips_segments_unswept_in_flight_epoch() {
        let heap = growable_heap();
        assert!(heap.try_grow());
        let sg = heap.segment_granules();
        let initial = heap.segment_stats().initial;
        let plan = Arc::new(SweepEpoch::new(&heap, 1 << 10));
        heap.install_lazy_plan(Arc::clone(&plan));
        // Forge full free-list coverage of the grown (still unswept)
        // segment: without the epoch guard, release would hand the
        // segment back while its chunks still owe a sweep.
        let base = initial * sg;
        heap.free_list().set_extents_unchecked(vec![Extent {
            start: base,
            len: sg,
        }]);
        assert_eq!(
            heap.release_empty_segments(),
            0,
            "a segment is only empty once its chunks are swept"
        );
        // The forged extents are exactly what the epoch-aware free-list
        // audit exists to catch.
        let v = crate::verify::verify(&heap, false);
        assert!(
            v.iter()
                .any(|x| matches!(x, crate::verify::Violation::FreeListUnswept { .. })),
            "audit flags extents inside unswept chunks: {v:?}"
        );
        // Drain the epoch; the segment's space is now genuinely free.
        heap.free_list().rebuild(std::iter::empty());
        while plan.sweep_one(&heap).is_some() {}
        assert!(plan.is_done());
        assert!(heap.take_lazy_plan_if_done().is_some());
        assert_eq!(heap.release_empty_segments(), 1);
        assert_eq!(heap.segment_stats().committed, initial);
    }

    #[test]
    fn grow_then_release_during_in_flight_epoch() {
        let heap = growable_heap();
        let sg = heap.segment_granules();
        let initial = heap.segment_stats().initial;
        let plan_granules = heap.granules();
        let plan = Arc::new(SweepEpoch::new(&heap, 1 << 10));
        heap.install_lazy_plan(Arc::clone(&plan));
        // A grow rung fires mid-epoch: the fresh segment is outside the
        // snapshot, its space goes straight to the free list.
        assert!(heap.try_grow());
        // Mid-epoch release may take the never-snapshotted segment (it
        // is vacuously swept) without disturbing the in-flight epoch.
        assert_eq!(heap.release_empty_segments(), 1);
        assert_eq!(heap.segment_stats().committed, initial);
        // The epoch still drains to the same total as if nothing grew.
        while plan.sweep_one(&heap).is_some() {}
        assert!(plan.is_done());
        assert!(heap.take_lazy_plan_if_done().is_some());
        assert_eq!(free_total(&heap), plan_granules - 1);
        assert!(plan.range_fully_swept(1, sg * initial));
    }

    #[test]
    fn refill_self_serves_during_epoch() {
        let (heap, objs) = build_heap();
        for (i, &o) in objs.iter().enumerate() {
            if i % 2 == 0 {
                heap.mark(o);
            }
        }
        let plan = Arc::new(SweepEpoch::new(&heap, 1 << 10));
        heap.install_lazy_plan(Arc::clone(&plan));
        // The free list is empty; the only memory is inside unswept
        // chunks, and refill must claim and sweep them itself.
        let mut cache = AllocCache::new();
        assert!(
            heap.refill_cache(&mut cache, 4),
            "sweep-on-refill recovers memory from the epoch"
        );
        assert!(heap.sweep_counters().refill_chunks >= 1);
        assert!(heap.sweep_counters().off_pause_granules >= 1);
        heap.retire_cache(&mut cache);
    }

    /// Replay tests: a heap whose epochs keep their marks (`replaying`:
    /// its next epoch replays the memos) and an identical twin whose
    /// epochs clear them and mark the same survivors again (`fresh`: it
    /// sweeps every chunk). Both run the same mutations and epochs, and
    /// must end every epoch with the same free list, allocation bits,
    /// dark matter and `SweepStats`.
    struct Twins {
        replaying: Heap,
        fresh: Heap,
        objs: Vec<ObjectRef>,
    }

    const CG: usize = SWEEP_CHUNK_GRANULES;

    impl Twins {
        /// Two 1 MiB heaps (eight memo-sized chunks), filled with small
        /// objects of mixed sizes, with every object for which
        /// `live(index, granule)` holds marked; then one recording epoch.
        fn new(
            max_heap_bytes: usize,
            segment_bytes: usize,
            live: impl Fn(usize, usize) -> bool,
        ) -> Twins {
            let build = || {
                let heap = Heap::new(HeapConfig {
                    heap_bytes: 1 << 20,
                    max_heap_bytes,
                    cache_bytes: 8 << 10,
                    large_object_bytes: 4 << 10,
                    min_free_extent_granules: 2,
                    alloc_shards: 4,
                    segment_bytes,
                });
                let mut cache = AllocCache::new();
                let mut objs = Vec::new();
                for i in 0u32.. {
                    let shape = ObjectShape::new(i % 3, i % 5, 1);
                    match heap.alloc_small(&mut cache, shape) {
                        Some(o) => objs.push(o),
                        None if heap.refill_cache(&mut cache, shape.granules()) => {}
                        None => break,
                    }
                }
                heap.retire_cache(&mut cache);
                for (i, &o) in objs.iter().enumerate() {
                    if live(i, o.index()) {
                        heap.mark(o);
                    }
                }
                (heap, objs)
            };
            let ((replaying, objs), (fresh, fresh_objs)) = (build(), build());
            assert_eq!(objs, fresh_objs, "deterministic build");
            assert_eq!(chunk_count(&replaying, CG), 8);
            let twins = Twins {
                replaying,
                fresh,
                objs,
            };
            twins.epoch(SweepSource::Pause);
            twins
        }

        /// Runs `f` on both heaps.
        fn both(&self, f: impl Fn(&Heap)) {
            f(&self.replaying);
            f(&self.fresh);
        }

        /// One memo-sized epoch on each heap, drained by `source` (an
        /// eager pause settles it), then compares the heaps. Returns the
        /// chunks the replaying heap replayed.
        fn epoch(&self, source: SweepSource) -> u64 {
            self.epoch_with(source, |_| {})
        }

        /// [`Twins::epoch`], running `midway` on each heap once the
        /// epoch has swept its first chunk.
        fn epoch_with(&self, source: SweepSource, midway: impl Fn(&Heap)) -> u64 {
            let run = |heap: &Heap, keep: bool| {
                let epoch = SweepEpoch::new(heap, CG).keeping_marks(keep);
                epoch.sweep_one_from(heap, source);
                midway(heap);
                epoch.drain(heap, source);
                if source == SweepSource::Pause {
                    heap.settle_drained_epoch(&epoch);
                }
                heap.retire_epoch(&epoch)
            };
            let replayed = self.replaying.sweep_counters().replayed_chunks;
            let a = run(&self.replaying, true);
            let b = run(&self.fresh, false);
            // Mark the fresh heap's survivors again: after a sweep, the
            // allocated objects are exactly the marked ones.
            let alloc = self.fresh.alloc_bits();
            for g in (0..alloc.len()).filter(|&g| alloc.get(g)) {
                self.fresh.mark(ObjectRef::from_granule(g as u32));
            }
            assert_eq!(a, b, "SweepStats");
            assert_eq!(self.fresh.sweep_counters().replayed_chunks, 0);
            let (ra, rb) = (&self.replaying, &self.fresh);
            assert_eq!(
                ra.free_list().extents_sorted(),
                rb.free_list().extents_sorted(),
                "free lists"
            );
            for w in 0..ra.alloc_bits().word_len() {
                let (wa, wb) = (ra.alloc_bits().load_word(w), rb.alloc_bits().load_word(w));
                assert_eq!(wa, wb, "allocation bits at granule {}", w * 64);
                assert_eq!(wa, ra.mark_bits().load_word(w), "alloc = marks");
            }
            assert_eq!(ra.dark_bytes(), rb.dark_bytes());
            ra.sweep_counters().replayed_chunks - replayed
        }
    }

    /// Every third object dead: gaps of all sizes, dark matter included.
    fn dense(i: usize, _: usize) -> bool {
        !i.is_multiple_of(3)
    }

    #[test]
    fn replay_of_untouched_dense_chunks_matches_a_fresh_sweep() {
        let twins = Twins::new(0, 0, dense);
        assert!(
            twins.replaying.dark_bytes() > 0,
            "the marks leave dark matter"
        );
        assert_eq!(twins.epoch(SweepSource::Pause), 8, "every chunk replays");
        // Recorded again by the replaying epoch, so the next one replays
        // too, on the off-pause paths as well.
        assert_eq!(twins.epoch(SweepSource::Refill), 8);
        assert_eq!(twins.epoch(SweepSource::Background), 8);
    }

    #[test]
    fn partly_refilled_chunk_is_swept_and_its_young_survivor_kept() {
        let twins = Twins::new(0, 0, dense);
        for source in [SweepSource::Pause, SweepSource::Refill] {
            // Cache refills take a few extents, allocate, and return the
            // last tail; one object survives, the rest die young.
            twins.both(|heap| {
                let mut cache = AllocCache::new();
                let shape = ObjectShape::new(1, 1, 0);
                let mut objs = Vec::new();
                while objs.len() < 20 {
                    match heap.alloc_small(&mut cache, shape) {
                        Some(o) => objs.push(o),
                        None => assert!(heap.refill_cache(&mut cache, shape.granules())),
                    }
                }
                heap.retire_cache(&mut cache);
                heap.mark(objs[7]);
            });
            let replayed = twins.epoch(source);
            assert!(
                (1..8).contains(&replayed),
                "{source:?}: {replayed} replayed"
            );
        }
    }

    #[test]
    fn large_object_spanning_into_an_untouched_chunk_is_swept_there() {
        // The last two and a half chunks die, so the wilderness extent
        // starts inside chunk 5.
        let twins = Twins::new(0, 0, |i, g| dense(i, g) && g < 5 * CG + CG / 2);
        // A survivor larger than a chunk, carved from the heap end: its
        // header lies in chunk 6, its body fills chunk 7, in which
        // nothing else was handed out.
        let shape = ObjectShape::new(0, (CG + CG / 4) as u32, 2);
        twins.both(|heap| {
            let big = heap.alloc_large(shape).unwrap();
            assert_eq!(big.index() / CG, 6);
            assert_eq!((big.index() + shape.granules() - 1) / CG, 7);
            heap.mark(big);
        });
        assert_eq!(twins.epoch(SweepSource::Pause), 6, "chunks 6 and 7 swept");
        assert_eq!(twins.epoch(SweepSource::Refill), 8, "then replayed");
    }

    #[test]
    fn grown_then_released_segment_is_never_replayed() {
        let twins = Twins::new(2 << 20, 0, dense);
        assert_eq!(
            twins.replaying.segment_granules(),
            CG,
            "one chunk a segment"
        );
        twins.both(|heap| assert!(heap.try_grow()));
        // The grown segment (chunk 8) is new to the epoch's ranges; its
        // space is entirely free, so the settle releases it again.
        assert_eq!(twins.epoch(SweepSource::Pause), 8);
        twins.both(|heap| assert_eq!(heap.segment_stats().shrinks, 1));
        // Committed again, with a survivor in it: the memo recorded with
        // the segment mapped must not stand in for it.
        twins.both(|heap| {
            assert!(heap.try_grow());
            let big = heap.alloc_large(ObjectShape::new(0, 100, 2)).unwrap();
            assert_eq!(big.index() / CG, 8);
            heap.mark(big);
        });
        assert_eq!(twins.epoch(SweepSource::Refill), 8);
        assert_eq!(twins.epoch(SweepSource::Pause), 9, "then it replays");
    }

    #[test]
    fn segment_committed_while_the_recording_epoch_runs_is_not_in_the_memo() {
        // Segments of 512 granules: 32 to a chunk.
        let seg_bytes = crate::segment::SEGMENT_ALIGN_GRANULES * GRANULE_BYTES;
        let twins = Twins::new(2 << 20, seg_bytes, dense);
        let seg = twins.replaying.segment_granules();
        let hole = 8 * CG;
        twins.both(|heap| {
            assert!(heap.try_grow() && heap.try_grow());
            // A survivor keeps the second grown segment; the settle
            // releases the first, leaving a hole in chunk 8.
            let o = heap.alloc_large(ObjectShape::new(0, 100, 2)).unwrap();
            assert_eq!(o.index() / seg, hole / seg + 1);
            heap.mark(o);
        });
        assert_eq!(twins.epoch(SweepSource::Pause), 8);
        twins.both(|heap| assert_eq!(heap.segment_stats().shrinks, 1));
        // The hole is committed again while the next epoch runs, before
        // it reaches chunk 8: that epoch sweeps and records chunk 8
        // without the segment, whose space went to the free list.
        let regrow = |heap: &Heap| assert!(heap.try_grow());
        assert_eq!(twins.epoch_with(SweepSource::Refill, regrow), 8);
        // The next epoch maps the segment: chunk 8's ranges differ from
        // its memo's, so it is swept, and from then on replayed.
        assert_eq!(twins.epoch(SweepSource::Refill), 8);
        assert_eq!(twins.epoch(SweepSource::Refill), 9);
    }

    #[test]
    fn an_epoch_after_cleared_marks_never_replays() {
        let twins = Twins::new(0, 0, dense);
        let heap = &twins.replaying;
        let marked: Vec<usize> = (0..heap.mark_bits().len())
            .filter(|&g| heap.mark_bits().get(g))
            .collect();
        // A full cycle clears the kept marks before it marks again.
        heap.clear_marks();
        for &g in &marked {
            heap.mark(ObjectRef::from_granule(g as u32));
        }
        let before = heap.sweep_counters().replayed_chunks;
        let epoch = SweepEpoch::new(heap, CG).keeping_marks(true);
        epoch.drain(heap, SweepSource::Pause);
        heap.settle_drained_epoch(&epoch);
        heap.retire_epoch(&epoch);
        assert_eq!(heap.sweep_counters().replayed_chunks, before);
        assert!(twins.objs.iter().any(|&o| heap.is_published(o)));
    }

    #[test]
    fn other_chunk_sizes_never_touch_the_memos() {
        let twins = Twins::new(0, 0, dense);
        let heap = &twins.replaying;
        let epochs = || -> Vec<u64> {
            let memos = &heap.chunk_memos().memos;
            memos.iter().map(|m| m.lock().epoch).collect()
        };
        let recorded = epochs();
        assert!(recorded.iter().all(|&e| e == 1), "{recorded:?}");
        // 1 Ki-granule chunks, marks kept: 128 chunks over eight memos.
        let epoch = SweepEpoch::new(heap, 1 << 10).keeping_marks(true);
        epoch.drain(heap, SweepSource::Refill);
        heap.retire_epoch(&epoch);
        sweep_serial(heap, 1 << 12);
        assert_eq!(epochs(), recorded);
        assert_eq!(heap.sweep_counters().replayed_chunks, 0);
    }

    #[test]
    fn sweep_then_reallocate_roundtrip() {
        let (heap, objs) = build_heap();
        for (i, &o) in objs.iter().enumerate() {
            if i % 10 == 0 {
                heap.mark(o);
            }
        }
        sweep_serial(&heap, SWEEP_CHUNK_GRANULES);
        // Allocation proceeds into the recovered space.
        let mut cache = AllocCache::new();
        let mut count = 0;
        loop {
            match heap.alloc_small(&mut cache, ObjectShape::new(1, 2, 0)) {
                Some(_) => count += 1,
                None => {
                    if !heap.refill_cache(&mut cache, 4) {
                        break;
                    }
                }
            }
        }
        assert!(count > 10_000, "recovered space is allocatable: {count}");
    }
}
