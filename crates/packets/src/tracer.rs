//! The per-thread tracing discipline over the packet pool (paper §4.1,
//! §4.3): separate input and output packets, get-before-return
//! replacement, and the overflow swap. Between packet exchanges, entries
//! move in bulk ([`WorkBuffer::push_many`], [`WorkBuffer::pop_many`]).

use crate::pool::{Packet, PacketPool};

/// What happened on a [`WorkBuffer::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// The item was buffered for later tracing.
    Pushed,
    /// Both input and output packets are full and no replacement was
    /// available: temporary overflow (§4.3). The caller receives the item
    /// back and must fall back to mark-and-dirty-card.
    Overflow(T),
}

/// A thread's window onto the packet pool: one input packet (pop only)
/// and one output packet (push only), as §4.1 prescribes. Packets are
/// acquired lazily and always input-before-output (§4.3, so acquisition
/// attempts cannot mask termination).
pub struct WorkBuffer<'p, T> {
    pool: &'p PacketPool<T>,
    input: Option<Packet<'p, T>>,
    output: Option<Packet<'p, T>>,
    /// Items popped through this buffer (tracing-factor accounting).
    popped: u64,
    /// Items pushed through this buffer.
    pushed: u64,
    /// Overflow events (§4.3; expected to be rare).
    overflows: u64,
    /// Input packets claimed from the pool (get-before-return cycles).
    input_claims: u64,
    /// Output packets claimed from the pool.
    output_claims: u64,
}

impl<'p, T> WorkBuffer<'p, T> {
    /// Creates an empty buffer over `pool`; packets are acquired on first
    /// use.
    pub fn new(pool: &'p PacketPool<T>) -> WorkBuffer<'p, T> {
        WorkBuffer {
            pool,
            input: None,
            output: None,
            popped: 0,
            pushed: 0,
            overflows: 0,
            input_claims: 0,
            output_claims: 0,
        }
    }

    /// Items popped through this buffer since creation.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Items pushed through this buffer since creation.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Overflow events since creation.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Input packets claimed from the pool since creation.
    pub fn input_claims(&self) -> u64 {
        self.input_claims
    }

    /// Output packets claimed from the pool since creation.
    pub fn output_claims(&self) -> u64 {
        self.output_claims
    }

    /// Pushes a work item to the output packet, handling replacement and
    /// the §4.3 overflow swap. Every `Packet::push` result is honored:
    /// a packet may also reject the item because the watchdog condemned
    /// the handle, and silently dropping a marked-but-unscanned object
    /// would lose its children.
    pub fn push(&mut self, item: T) -> PushOutcome<T> {
        let mut item = item;
        // Fast path: room in the current (usable) output packet.
        if let Some(out) = self.output.as_mut() {
            if !out.is_full() {
                match out.push(item) {
                    Ok(()) => {
                        self.pushed += 1;
                        return PushOutcome::Pushed;
                    }
                    // Condemned handle: fall through and replace it.
                    Err(back) => item = back,
                }
            }
        }
        // Need a (new) non-full output packet. Get first, then return the
        // old one (§4.3 replacement order).
        match self.pool.get_output() {
            Some(new_out) if !new_out.is_full() => {
                self.output_claims += 1;
                if let Some(old) = self.output.replace(new_out) {
                    self.pool.put(old);
                }
                let out = self.output.as_mut().expect("just installed");
                match out.push(item) {
                    Ok(()) => {
                        self.pushed += 1;
                        PushOutcome::Pushed
                    }
                    // A freshly acquired packet is non-full and cannot
                    // already be condemned, but overflow remains the
                    // sound answer to any rejection.
                    Err(back) => {
                        self.overflows += 1;
                        PushOutcome::Overflow(back)
                    }
                }
            }
            other => {
                // A full packet is useless as output; return it.
                if let Some(p) = other {
                    self.pool.put(p);
                }
                // §4.3: failing that, try to swap input and output roles.
                // Condemned packets are excluded: swapping entries into a
                // body that is cleared on drop would lose them.
                let in_swappable = self
                    .input
                    .as_ref()
                    .map(|p| !p.is_full() && !p.is_condemned());
                let out_usable = self.output.as_ref().is_some_and(|o| !o.is_condemned());
                match (in_swappable, self.output.as_mut()) {
                    (Some(true), Some(out)) if out_usable => {
                        let inp = self.input.as_mut().expect("checked above");
                        out.swap_contents(inp);
                        match out.push(item) {
                            Ok(()) => {
                                self.pushed += 1;
                                PushOutcome::Pushed
                            }
                            Err(back) => {
                                self.overflows += 1;
                                PushOutcome::Overflow(back)
                            }
                        }
                    }
                    (None, Some(_)) => {
                        // No input packet: adopt the full output as input
                        // and retry for a fresh output lazily next push.
                        self.input = self.output.take();
                        self.push(item)
                    }
                    _ => {
                        self.overflows += 1;
                        PushOutcome::Overflow(item)
                    }
                }
            }
        }
    }

    /// Pops the next work item, replacing an exhausted input packet from
    /// the pool (get-before-return, §4.3). Returns `None` when no input
    /// work is available to this thread right now — the caller should try
    /// other concurrent tasks (card cleaning), quit (mutator), or yield
    /// and retry (background thread).
    pub fn pop(&mut self) -> Option<T> {
        loop {
            if let Some(inp) = self.input.as_mut() {
                if let Some(item) = inp.pop() {
                    self.popped += 1;
                    return Some(item);
                }
                // Input exhausted: get a new one *first*, then return the
                // empty one (§4.3).
                if let Some(new_in) = self.pool.get_input() {
                    self.input_claims += 1;
                    let old = self.input.replace(new_in).expect("had input");
                    self.pool.put(old);
                    continue;
                }
            } else {
                if let Some(p) = self.pool.get_input() {
                    self.input_claims += 1;
                    self.input = Some(p);
                    continue;
                }
            }
            // Pool has no input work. Drain our own output: return it to
            // the pool (it is non-empty, so this cannot fake termination)
            // and reacquire.
            if self.output.as_ref().is_some_and(|o| !o.is_empty()) {
                let out = self.output.take().expect("checked");
                self.pool.put(out);
                continue;
            }
            return None;
        }
    }

    /// Pushes every item of `items`, in order, and leaves it empty. Each
    /// run that fits the current output packet moves with one copy; at a
    /// packet exchange (output full, absent or condemned) one item takes
    /// the per-entry [`WorkBuffer::push`], so replacement, the §4.3 swap
    /// and the condemned-handle rule apply exactly as there. Items that
    /// overflow are passed to `overflow`, in order. The packets, counters
    /// and overflowed items end up as `items.len()` calls to `push` would
    /// leave them.
    pub fn push_many(&mut self, items: &mut Vec<T>, mut overflow: impl FnMut(T))
    where
        T: Copy,
    {
        let mut rest = &items[..];
        while let Some((&first, tail)) = rest.split_first() {
            if let Some(out) = self.output.as_mut() {
                let n = out.push_slice(rest);
                if n > 0 {
                    self.pushed += n as u64;
                    rest = &rest[n..];
                    continue;
                }
            }
            if let PushOutcome::Overflow(item) = self.push(first) {
                overflow(item);
            }
            rest = tail;
        }
        items.clear();
    }

    /// Pops up to `max` items onto the end of `out` and returns how many
    /// it popped; 0 means no input work, as `pop` returning `None`. Each
    /// run comes out of the input packet with one copy; at a packet
    /// exchange (input exhausted, absent or condemned) one item takes the
    /// per-entry [`WorkBuffer::pop`], so get-before-return replacement
    /// and the own-output drain apply exactly as there. The items, their
    /// order and the packets end up as calling `pop` until `max` items or
    /// the first `None` would leave them.
    pub fn pop_many(&mut self, out: &mut Vec<T>, max: usize) -> usize
    where
        T: Copy,
    {
        let mut popped = 0;
        while popped < max {
            if let Some(inp) = self.input.as_mut() {
                let n = inp.pop_into(out, max - popped);
                if n > 0 {
                    self.popped += n as u64;
                    popped += n;
                    continue;
                }
            }
            match self.pop() {
                Some(item) => {
                    out.push(item);
                    popped += 1;
                }
                None => break,
            }
        }
        popped
    }

    /// Returns both packets to the pool. Equivalent to drop; named for
    /// call-site clarity when an increment of tracing work ends (§4.1).
    pub fn finish(self) {}
}

impl<T> std::fmt::Debug for WorkBuffer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkBuffer")
            .field("input_len", &self.input.as_ref().map(|p| p.len()))
            .field("output_len", &self.output.as_ref().map(|p| p.len()))
            .field("popped", &self.popped)
            .field("pushed", &self.pushed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn pool(packets: usize, capacity: usize) -> PacketPool<u64> {
        PacketPool::new(PoolConfig { packets, capacity })
    }

    #[test]
    fn push_then_pop_through_pool() {
        let p = pool(8, 4);
        let mut w = WorkBuffer::new(&p);
        for i in 0..10 {
            assert_eq!(w.push(i), PushOutcome::Pushed);
        }
        w.finish();
        assert!(!p.is_tracing_complete());
        let mut r = WorkBuffer::new(&p);
        let mut got: Vec<u64> = std::iter::from_fn(|| r.pop()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(r.popped(), 10);
        r.finish();
        assert!(p.is_tracing_complete());
    }

    #[test]
    fn pop_drains_own_output() {
        let p = pool(8, 4);
        let mut w = WorkBuffer::new(&p);
        w.push(42);
        // Without putting the buffer back, pop must find its own output.
        assert_eq!(w.pop(), Some(42));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn overflow_when_pool_exhausted() {
        // 2 packets of 2 entries: buffer holds both, fills both, then
        // overflows.
        let p = pool(2, 2);
        let mut w = WorkBuffer::new(&p);
        let mut pushed = 0;
        let mut overflowed = Vec::new();
        for i in 0..6 {
            match w.push(i) {
                PushOutcome::Pushed => pushed += 1,
                PushOutcome::Overflow(item) => overflowed.push(item),
            }
        }
        assert_eq!(pushed, 4, "both packets filled via the swap");
        assert_eq!(overflowed, vec![4, 5]);
        assert_eq!(w.overflows(), 2);
        // The buffered items are still all retrievable.
        let got: Vec<u64> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn termination_not_faked_by_replacement() {
        // One thread holds the only non-empty packet; while it replaces
        // its input, termination must not be observable.
        let p = pool(4, 2);
        let mut w = WorkBuffer::new(&p);
        w.push(1);
        w.push(2); // fills packet 1 (cap 2)
        w.finish();
        let mut r = WorkBuffer::new(&p);
        assert_eq!(r.pop(), Some(2));
        assert!(
            !p.is_tracing_complete(),
            "thread holds a non-empty input; not complete"
        );
        assert_eq!(r.pop(), Some(1));
        r.finish();
        assert!(p.is_tracing_complete());
    }

    #[test]
    fn push_replaces_condemned_output_instead_of_dropping() {
        let p = pool(4, 4);
        let mut w = WorkBuffer::new(&p);
        assert_eq!(w.push(1), PushOutcome::Pushed);
        assert_eq!(p.condemn_outstanding(), 1); // w's output packet
                                                // The next push must not vanish into the condemned body: the
                                                // buffer notices the rejection, replaces its output, and the item
                                                // survives.
        assert_eq!(w.push(2), PushOutcome::Pushed);
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None, "1 was written off with the condemned packet");
        assert_eq!(p.condemned(), 0);
    }

    #[test]
    fn many_threads_process_everything_exactly_once() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let p = Arc::new(pool(32, 8));
        // Seed a "tree": each item spawns two children 2i+1, 2i+2 up to
        // TREE; every processed item recorded. Miri runs the same shape
        // at a fraction of the volume.
        const TREE: u64 = if cfg!(miri) { 400 } else { 4000 };
        {
            let mut w = WorkBuffer::new(&p);
            w.push(0);
        }
        let processed: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let p = Arc::clone(&p);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        let mut w = WorkBuffer::new(&p);
                        let mut idle = 0;
                        while idle < 500 {
                            match w.pop() {
                                Some(i) => {
                                    idle = 0;
                                    seen.push(i);
                                    for c in [2 * i + 1, 2 * i + 2] {
                                        if c < TREE {
                                            match w.push(c) {
                                                PushOutcome::Pushed => {}
                                                PushOutcome::Overflow(_) => {
                                                    panic!("pool too small for test")
                                                }
                                            }
                                        }
                                    }
                                }
                                None => {
                                    idle += 1;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let all: Vec<u64> = processed.into_iter().flatten().collect();
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(all.len(), unique.len(), "no item processed twice");
        assert_eq!(unique.len(), TREE as usize, "every item processed");
        assert!(p.is_tracing_complete());
    }

    /// One step of a scripted single-thread tracer run.
    #[derive(Copy, Clone, Debug)]
    enum Step {
        /// Push this many fresh items.
        Push(usize),
        /// Pop up to this many items.
        Pop(usize),
        /// The watchdog revokes every held packet.
        Condemn,
    }

    /// Everything a run can observe: popped and overflowed items in
    /// order, the buffer's counters and held packet lengths after each
    /// step, then the pool's counters and pooled entries once the buffer
    /// is finished.
    #[derive(Debug, PartialEq)]
    struct Transcript {
        popped: Vec<u64>,
        overflowed: Vec<u64>,
        states: Vec<[u64; 5]>,
        held: Vec<(Option<usize>, Option<usize>)>,
        stats: crate::pool::PoolStats,
        pooled: Vec<u64>,
    }

    /// Runs `steps` on a fresh `packets` × `capacity` pool, through the
    /// bulk calls or through per-entry `push`/`pop`.
    fn run_script(packets: usize, capacity: usize, steps: &[Step], bulk: bool) -> Transcript {
        let p = pool(packets, capacity);
        let mut w = WorkBuffer::new(&p);
        let (mut popped, mut overflowed) = (Vec::new(), Vec::new());
        let (mut states, mut held) = (Vec::new(), Vec::new());
        let mut next = 0u64;
        for &step in steps {
            match step {
                Step::Push(k) if bulk => {
                    let mut items: Vec<u64> = (next..next + k as u64).collect();
                    w.push_many(&mut items, |i| overflowed.push(i));
                    assert!(items.is_empty());
                }
                Step::Push(k) => {
                    for i in next..next + k as u64 {
                        if let PushOutcome::Overflow(i) = w.push(i) {
                            overflowed.push(i);
                        }
                    }
                }
                Step::Pop(k) if bulk => {
                    let before = popped.len();
                    let n = w.pop_many(&mut popped, k);
                    assert_eq!(n, popped.len() - before);
                }
                Step::Pop(k) => {
                    for _ in 0..k {
                        match w.pop() {
                            Some(i) => popped.push(i),
                            None => break,
                        }
                    }
                }
                Step::Condemn => {
                    p.condemn_outstanding();
                }
            }
            if let Step::Push(k) = step {
                next += k as u64;
            }
            states.push([
                w.pushed(),
                w.popped(),
                w.overflows(),
                w.input_claims(),
                w.output_claims(),
            ]);
            held.push((
                w.input.as_ref().map(|pk| pk.len()),
                w.output.as_ref().map(|pk| pk.len()),
            ));
        }
        w.finish();
        Transcript {
            popped,
            overflowed,
            states,
            held,
            stats: p.stats(),
            // SAFETY: single-threaded; every packet is back on a list.
            pooled: unsafe { p.snapshot_entries() },
        }
    }

    /// Runs `steps` both ways, asserts the transcripts match, and returns
    /// the per-entry one.
    fn bulk_matches_per_entry(packets: usize, capacity: usize, steps: &[Step]) -> Transcript {
        let bulk = run_script(packets, capacity, steps, true);
        let single = run_script(packets, capacity, steps, false);
        assert_eq!(bulk, single, "{packets}x{capacity} {steps:?}");
        single
    }

    #[test]
    fn bulk_transfer_matches_per_entry_at_every_exchange() {
        use Step::*;
        // A run across several full output packets, read back across
        // several input replacements.
        let t = bulk_matches_per_entry(8, 4, &[Push(10), Pop(3), Pop(20)]);
        assert_eq!(t.popped.len(), 10);
        assert!(t.states[0][4] >= 3, "10 items fill three output packets");
        // §4.3 swap, then pool exhaustion: with both packets held, item 8
        // fits only by swapping in the 3-entry input, and item 9 overflows.
        let t = bulk_matches_per_entry(2, 4, &[Push(8), Pop(1), Push(2)]);
        assert_eq!(t.overflowed, vec![9]);
        assert_eq!(t.states[2][0], 9, "the swap took item 8");
        // Condemned output: the next push replaces it and its entries are
        // written off. Condemned input: the next pop replaces it.
        let t = bulk_matches_per_entry(8, 4, &[Push(6), Pop(1), Condemn, Push(3), Pop(5)]);
        assert_eq!(t.popped, vec![3, 8, 7, 6]);
        assert!(t.pooled.is_empty());
        assert_eq!(t.stats.condemned, 0);
    }

    #[test]
    fn bulk_transfer_matches_per_entry_seeded() {
        // splitmix64: a seeded stream with no dependency.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        const SEEDS: u64 = if cfg!(miri) { 12 } else { 400 };
        let (mut overflows, mut condemned) = (0, 0);
        for seed in 0..SEEDS {
            let mut s = seed;
            let packets = 2 + (next(&mut s) % 5) as usize;
            let capacity = 1 + (next(&mut s) % 8) as usize;
            let steps: Vec<Step> = (0..1 + next(&mut s) % 24)
                .map(|_| match next(&mut s) % 16 {
                    0 => Step::Condemn,
                    r if r < 9 => Step::Push((next(&mut s) % 20) as usize),
                    _ => Step::Pop((next(&mut s) % 20) as usize),
                })
                .collect();
            let t = bulk_matches_per_entry(packets, capacity, &steps);
            overflows += t.overflowed.len();
            condemned += steps.iter().filter(|s| matches!(s, Step::Condemn)).count();
        }
        assert!(
            overflows > 0 && condemned > 0,
            "scripts reach exhaustion and condemnation"
        );
    }
}
