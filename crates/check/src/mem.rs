//! The weak-memory substrate shared by the protocol models.
//!
//! An operational store-buffer model, packaged as a value the model
//! states embed: each thread owns a buffer of pending *plain* stores
//! that flush to shared memory in any order preserving per-location
//! coherence. Plain loads are satisfied from the thread's own buffer
//! (store forwarding) or shared memory, in program order: loads are
//! never reordered, so a reader-side fence has nothing to order and the
//! models show the *writer-side* §5 fences load-bearing.
//!
//! This is strictly weaker than TSO (stores to *different* locations may
//! reorder, as on PowerPC/IA-64) and strong enough to exhibit every §5
//! anomaly.
//!
//! The models split locations in two classes, mirroring how the paper's
//! protocols are built:
//!
//! * **synchronization locations** (sub-pool heads, next links, packet
//!   counters, card indicators, mark bits) are accessed with
//!   [`WeakMem::shared_load`]/[`WeakMem::shared_store`]: sequentially
//!   consistent among themselves, but — crucially — *not* a barrier for
//!   plain stores. On the paper's weakly-ordered hardware a CAS orders
//!   nothing by itself; all data/publication ordering must come from the
//!   explicit §5 fences the models issue (and the mutations delete).
//! * **data locations** (packet bodies, object reference slots) are
//!   plain: buffered, weakly ordered.
//!
//! A [`WeakMem::fence`]-eligible step requires the thread's own buffer
//! to be empty (the §5.1/§5.2 producer-side fence); a
//! [`WeakMem::others_drained`]-gated step requires every *other* buffer
//! to be empty (the §5.3 handshake / a stop-the-world rendezvous).

/// Weak memory: shared array plus per-thread plain-store buffers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WeakMem {
    shared: Vec<u64>,
    buffers: Vec<Vec<(usize, u64)>>,
}

impl WeakMem {
    /// Creates a memory with `locations` zeroed cells and `threads`
    /// empty buffers.
    pub fn new(locations: usize, threads: usize) -> WeakMem {
        WeakMem {
            shared: vec![0; locations],
            buffers: vec![Vec::new(); threads],
        }
    }

    /// Buffers a plain store by `tid`.
    pub fn plain_store(&mut self, tid: usize, loc: usize, val: u64) {
        self.buffers[tid].push((loc, val));
    }

    /// Plain load by `tid`: newest own pending store wins (forwarding),
    /// else shared memory.
    pub fn plain_load(&self, tid: usize, loc: usize) -> u64 {
        self.buffers[tid]
            .iter()
            .rev()
            .find(|&&(l, _)| l == loc)
            .map(|&(_, v)| v)
            .unwrap_or(self.shared[loc])
    }

    /// Sequentially consistent load of a synchronization location.
    pub fn shared_load(&self, loc: usize) -> u64 {
        self.shared[loc]
    }

    /// Sequentially consistent store to a synchronization location.
    /// Deliberately **not** a barrier: the caller's plain-store buffer is
    /// untouched.
    pub fn shared_store(&mut self, loc: usize, val: u64) {
        self.shared[loc] = val;
    }

    /// True when `tid` may pass a fence (own buffer drained).
    pub fn fence(&self, tid: usize) -> bool {
        self.buffers[tid].is_empty()
    }

    /// True when every *other* thread's buffer is drained (handshake).
    pub fn others_drained(&self, tid: usize) -> bool {
        self.buffers
            .iter()
            .enumerate()
            .all(|(i, b)| i == tid || b.is_empty())
    }

    /// True when every buffer is drained.
    pub fn all_drained(&self) -> bool {
        self.buffers.iter().all(|b| b.is_empty())
    }

    /// Buffer indices of `tid` whose store may flush next: the oldest
    /// pending store per location (coherence order).
    pub fn flushable(&self, tid: usize) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (i, &(loc, _)) in self.buffers[tid].iter().enumerate() {
            if seen.insert(loc) {
                out.push(i);
            }
        }
        out
    }

    /// Flushes buffer entry `idx` of `tid` to shared memory.
    pub fn flush(&mut self, tid: usize, idx: usize) {
        let (loc, val) = self.buffers[tid].remove(idx);
        self.shared[loc] = val;
    }

    /// All states reachable from `self` by flushing exactly one pending
    /// store of `tid`, as `(memory, description)`-free clones. Helper for
    /// model `successors` implementations.
    pub fn flush_succs(&self, tid: usize) -> Vec<WeakMem> {
        self.flushable(tid)
            .into_iter()
            .map(|idx| {
                let mut m = self.clone();
                m.flush(tid, idx);
                m
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_and_flush() {
        let mut m = WeakMem::new(2, 2);
        m.plain_store(0, 1, 7);
        assert_eq!(m.plain_load(0, 1), 7, "own store forwarded");
        assert_eq!(m.plain_load(1, 1), 0, "other thread sees stale 0");
        assert!(!m.fence(0));
        assert!(m.fence(1));
        assert!(!m.others_drained(1));
        let succs = m.flush_succs(0);
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].plain_load(1, 1), 7);
        assert!(succs[0].all_drained());
    }

    #[test]
    fn coherence_restricts_flush_order() {
        let mut m = WeakMem::new(2, 1);
        m.plain_store(0, 0, 1);
        m.plain_store(0, 0, 2);
        m.plain_store(0, 1, 9);
        // Oldest store per location only: indices 0 (loc 0, val 1) and 2
        // (loc 1).
        assert_eq!(m.flushable(0), vec![0, 2]);
    }

    #[test]
    fn shared_store_is_not_a_barrier() {
        let mut m = WeakMem::new(2, 1);
        m.plain_store(0, 0, 1);
        m.shared_store(1, 5);
        assert_eq!(m.shared_load(1), 5, "sync store visible immediately");
        assert_eq!(m.shared_load(0), 0, "plain store still buffered");
    }
}
