//! Heap substrate for the mostly-concurrent collector: a Java-like object
//! heap with the exact geometry the paper's algorithms operate on.
//!
//! * 8-byte granules; objects are a header granule plus reference slots
//!   plus data granules ([`object`]);
//! * an allocation bit vector and a mark bit vector, one bit per granule
//!   ([`bitmap`]);
//! * a 512-byte-card table dirtied by the write barrier ([`cards`]);
//! * a sharded, size-class-binned free-extent substrate ([`shards`]) —
//!   address-interleaved shards over a next-fit wilderness list
//!   ([`freelist`]) — fed by bitwise sweep ([`sweep`]) and consumed
//!   through per-thread allocation caches ([`heap`]);
//! * a segment table ([`segment`]) behind the bitmaps and cards: the
//!   arena is a set of independently reserved segments, grown under
//!   memory pressure and shrunk after troughs;
//! * a structural verifier for tests ([`verify`]).
//!
//! The arena's slot accesses are atomic: mutators and the concurrent
//! tracer race by design, and the §5 fence protocols (routed through
//! [`mcgc_membar`]) make the races benign.
//!
//! # Example
//!
//! ```
//! use mcgc_heap::{AllocCache, Heap, HeapConfig, ObjectShape};
//!
//! let heap = Heap::new(HeapConfig::with_heap_bytes(1 << 20));
//! let mut cache = AllocCache::new();
//! assert!(heap.refill_cache(&mut cache, 4));
//! let list = heap.alloc_small(&mut cache, ObjectShape::new(1, 1, 0)).unwrap();
//! let node = heap.alloc_small(&mut cache, ObjectShape::new(1, 1, 0)).unwrap();
//! heap.store_ref_unbarriered(list, 0, Some(node));
//! assert_eq!(heap.load_ref(list, 0), Some(node));
//! ```

pub mod bitmap;
pub mod cards;
pub mod freelist;
#[allow(clippy::module_inception)]
pub mod heap;
pub mod inspect;
pub mod object;
pub mod segment;
pub mod shards;
pub mod sweep;
pub mod verify;

pub use bitmap::Bitmap;
pub use cards::CardTable;
pub use freelist::{Extent, FreeList};
pub use heap::{
    AllocCache, AllocError, Heap, HeapConfig, ObjectShape, SegmentStats, SweepCounters,
};
pub use inspect::{inspect, record_counters, HeapInspection};
pub use object::{Header, ObjectRef, CARD_BYTES, GRANULES_PER_CARD, GRANULE_BYTES};
pub use segment::{HeapBitmap, HeapCards, SegmentTable, SEGMENT_ALIGN_GRANULES};
pub use shards::{AllocShardStats, BinOccupancy, ShardedFreeList};
pub use sweep::{
    sweep_serial, SweepEpoch, SweepSource, SweepStats, MIN_FREE_EXTENT_GRANULES,
    SWEEP_CHUNK_GRANULES,
};
pub use verify::{assert_heap_valid, verify, verify_marks_clear, verify_tricolor, Violation};
