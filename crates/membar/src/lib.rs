//! Weak-ordering support: counted memory fences (paper §5).
//!
//! The paper's third contribution is keeping the number of expensive
//! multi-cycle fence instructions low on weakly-ordered hardware:
//! one fence per allocation cache of small objects (§5.2), one fence per
//! work packet of marked objects (§5.1), and **no fence in the write
//! barrier** (§5.3, replaced by a card-table snapshot plus a mutator fence
//! handshake).
//!
//! This crate provides:
//!
//! * [`fence`] — issue a real fence, attributed to a [`FenceKind`] so the
//!   benchmark harness can reproduce the paper's fence-reduction claims
//!   ([`FenceStats`] snapshots the counters);
//! * [`seqlock_write_fence`] / [`seqlock_read_fence`] — the telemetry
//!   rings' uncounted fences;
//! * [`sync`] — the std-backed lock shims the collector uses.
//!
//! That the fences are load-bearing — each §5 anomaly occurs without its
//! protocol and cannot occur with it — is shown by the store-buffer
//! models in `crates/check` (`pool_model` §5.1, `alloc_model` §5.2,
//! `barrier_model` §5.3).

pub mod sync;

use std::sync::atomic::{AtomicU64, Ordering};

/// What a heavy fence was issued for; used to attribute fence counts.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Hash)]
pub enum FenceKind {
    /// Publishing a batch of small-object allocations: one fence per
    /// allocation cache before setting allocation bits (§5.2 mutator side).
    AllocBatch,
    /// Publishing a large-object allocation (individually fenced).
    LargeAlloc,
    /// Tracer-side fence after testing the allocation bits of a packet
    /// batch (or of a card's marked objects, during concurrent card
    /// cleaning) and before tracing the "safe" objects (§5.2 tracer
    /// side).
    TraceBatch,
    /// Publishing a full output work packet to the shared pool: one fence
    /// per packet of marked objects (§5.1).
    PacketPublish,
    /// A mutator fence executed as part of the card-cleaning handshake
    /// (§5.3 step 2).
    CardHandshake,
    /// Any other attributed fence.
    Other,
}

const KINDS: usize = 6;

fn slot(kind: FenceKind) -> usize {
    match kind {
        FenceKind::AllocBatch => 0,
        FenceKind::LargeAlloc => 1,
        FenceKind::TraceBatch => 2,
        FenceKind::PacketPublish => 3,
        FenceKind::CardHandshake => 4,
        FenceKind::Other => 5,
    }
}

static COUNTS: [AtomicU64; KINDS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Issues a real fence with the given ordering, attributed to `kind`.
///
/// On the host this lowers to the corresponding hardware barrier (or
/// nothing beyond a compiler barrier on TSO for `Release`/`Acquire`); the
/// count is the datum of interest for reproducing §5's claims.
#[inline]
pub fn fence(kind: FenceKind, order: Ordering) {
    COUNTS[slot(kind)].fetch_add(1, Ordering::Relaxed);
    std::sync::atomic::fence(order);
}

/// Issues a release fence attributed to `kind` (publication side).
#[inline]
pub fn release_fence(kind: FenceKind) {
    fence(kind, Ordering::Release);
}

/// Issues an acquire fence attributed to `kind` (consumption side).
#[inline]
pub fn acquire_fence(kind: FenceKind) {
    fence(kind, Ordering::Acquire);
}

/// Issues a sequentially-consistent fence attributed to `kind`.
#[inline]
pub fn full_fence(kind: FenceKind) {
    fence(kind, Ordering::SeqCst);
}

/// The writer-side fence of the telemetry seqlock rings: orders a
/// slot's odd ("open") sequence store before the payload stores that
/// follow it, so a reader can never observe fresh payload under a stale
/// even sequence number.
///
/// Deliberately **uncounted**, unlike [`fence`]: these are
/// telemetry-internal fences on the always-on span/event recording hot
/// path, not part of the paper's §5 protocol whose fence counts the
/// benchmark harness reproduces — counting them would both pollute
/// those numbers and put a contended `fetch_add` into every record.
/// On TSO hosts this lowers to a compiler barrier only. Lives here so
/// the lint's fence-confinement rule (`std::sync::atomic::fence` only
/// inside `crates/membar`) keeps a single audit point for every fence
/// in the tree.
///
/// MODEL: seqlock_model (crates/check) — deleting this fence is
/// `SeqlockMutation::SkipBeginFence`, caught as a torn read.
#[inline]
pub fn seqlock_write_fence() {
    std::sync::atomic::fence(Ordering::Release);
}

/// The reader-side fence of the telemetry seqlock rings: orders the
/// speculative payload loads before the revalidating sequence load
/// (Boehm's seqlock recipe — the revalidating load alone only
/// synchronizes with the store it happens to read, so without this
/// fence an overwriter's payload could be visible while its odd
/// sequence store is not). Uncounted for the same reasons as
/// [`seqlock_write_fence`].
///
/// MODEL: seqlock_model (crates/check) — see `SkipSecondCheck` for the
/// validation this fence makes trustworthy.
#[inline]
pub fn seqlock_read_fence() {
    std::sync::atomic::fence(Ordering::Acquire);
}

/// A snapshot of the process-wide fence counters.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default, Hash)]
pub struct FenceStats {
    /// Fences publishing allocation-cache batches.
    pub alloc_batch: u64,
    /// Fences publishing large objects.
    pub large_alloc: u64,
    /// Tracer-side batch fences.
    pub trace_batch: u64,
    /// Fences publishing output work packets.
    pub packet_publish: u64,
    /// Mutator fences for card-cleaning handshakes.
    pub card_handshake: u64,
    /// Other fences.
    pub other: u64,
}

impl FenceStats {
    /// Reads the current counter values.
    pub fn snapshot() -> FenceStats {
        FenceStats {
            alloc_batch: COUNTS[0].load(Ordering::Relaxed),
            large_alloc: COUNTS[1].load(Ordering::Relaxed),
            trace_batch: COUNTS[2].load(Ordering::Relaxed),
            packet_publish: COUNTS[3].load(Ordering::Relaxed),
            card_handshake: COUNTS[4].load(Ordering::Relaxed),
            other: COUNTS[5].load(Ordering::Relaxed),
        }
    }

    /// Total fences across all kinds.
    pub fn total(&self) -> u64 {
        self.alloc_batch
            + self.large_alloc
            + self.trace_batch
            + self.packet_publish
            + self.card_handshake
            + self.other
    }

    /// Counter-wise difference `self - earlier` (for measuring a window).
    pub fn since(&self, earlier: &FenceStats) -> FenceStats {
        FenceStats {
            alloc_batch: self.alloc_batch - earlier.alloc_batch,
            large_alloc: self.large_alloc - earlier.large_alloc,
            trace_batch: self.trace_batch - earlier.trace_batch,
            packet_publish: self.packet_publish - earlier.packet_publish,
            card_handshake: self.card_handshake - earlier.card_handshake,
            other: self.other - earlier.other,
        }
    }
}

impl std::fmt::Display for FenceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alloc_batch={} large_alloc={} trace_batch={} packet_publish={} card_handshake={} other={}",
            self.alloc_batch,
            self.large_alloc,
            self.trace_batch,
            self.packet_publish,
            self.card_handshake,
            self.other
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_attribute_by_kind() {
        let before = FenceStats::snapshot();
        release_fence(FenceKind::AllocBatch);
        release_fence(FenceKind::AllocBatch);
        acquire_fence(FenceKind::TraceBatch);
        full_fence(FenceKind::CardHandshake);
        let delta = FenceStats::snapshot().since(&before);
        assert_eq!(delta.alloc_batch, 2);
        assert_eq!(delta.trace_batch, 1);
        assert_eq!(delta.card_handshake, 1);
        assert_eq!(delta.packet_publish, 0);
        assert_eq!(delta.total(), 4);
    }
}
