//! Model of §5.2 allocation publication: a tracer must never scan an
//! object whose initialising stores it cannot see yet.
//!
//! The mutator mirrors `Heap::alloc_small`, `Mutator::write_ref` and
//! `Heap::publish_cache`: it initialises a new object `O` (a plain store
//! of its contents), stores a reference to `O` into an old object's
//! slot (plain), then, once per allocation cache, issues the release
//! fence and sets `O`'s allocation bit. The bit is a synchronization
//! location (`HeapBitmap::set_many`'s `fetch_or`), so only the fence
//! orders it after the plain stores. The tracer mirrors
//! `Gc::trace_batch_concurrent`: it finds `O` through the slot, tests
//! `O`'s allocation bit, and scans `O` when the bit is set or defers it
//! when not. A deferred object is tested again when the Deferred pool is
//! recycled, and a slot read as null is read again, as a card rescan
//! would.
//!
//! The tracer's acquire fence between the bit test and the scan is not
//! modelled: [`WeakMem`] never reorders a thread's loads, so that fence
//! could change nothing here. The model shows the mutator's fence and
//! the tracer's bit test are each load-bearing.
//!
//! Checked: a scan never reads `O` uninitialised, the tracer scans `O`
//! in every execution (a deferral delays it, never loses it), and every
//! mutator store reaches memory.

use crate::mem::WeakMem;
use crate::sched::Model;

const OBJ: usize = 0;
const SLOT: usize = 1;
const BIT: usize = 2;
/// `O`'s initialised contents (0 is uninitialised memory).
const INIT: u64 = 7;
/// A reference to `O` (0 is null).
const REF: u64 = 1;

const MUTATOR: usize = 0;
const TRACER: usize = 1;

// Mutator PCs.
const M_INIT: u8 = 0;
const M_LINK: u8 = 1;
const M_FENCE: u8 = 2;
const M_PUBLISH: u8 = 3;
const M_DONE: u8 = 4;

// Tracer PCs.
const T_FIND: u8 = 0;
const T_TEST: u8 = 1;
const T_SCAN: u8 = 2;
const T_DONE: u8 = 3;

/// Protocol deletions for mutation testing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AllocMutation {
    /// The faithful protocol.
    None,
    /// Delete the release fence `Heap::publish_cache` issues before the
    /// allocation bits: the bit can be visible while `O`'s initialising
    /// store is still in the mutator's store buffer.
    SkipPublishFence,
    /// The tracer scans every object it finds without testing its
    /// allocation bit (no deferral): it can reach `O` through the slot
    /// before `O`'s contents are visible.
    SkipBitTest,
}

impl AllocMutation {
    /// Every mutation (excluding `None`), for the meta-test proving none
    /// of them is vacuous.
    pub const ALL: [AllocMutation; 2] =
        [AllocMutation::SkipPublishFence, AllocMutation::SkipBitTest];
}

/// Full system state of the allocation-publication model.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AllocState {
    mem: WeakMem,
    mut_pc: u8,
    tracer_pc: u8,
    /// Ghost: the tracer deferred `O` at least once.
    deferred: bool,
    /// Ghost: `O`'s contents as the tracer's scan read them.
    scanned: Option<u64>,
}

/// The §5.2 allocation-publication model.
#[derive(Copy, Clone, Debug)]
pub struct AllocModel {
    /// The protocol change under test.
    pub mutation: AllocMutation,
}

impl AllocModel {
    fn step_mutator(&self, s: &AllocState) -> Vec<AllocState> {
        let mut n = s.clone();
        match s.mut_pc {
            M_INIT => n.mem.plain_store(MUTATOR, OBJ, INIT),
            M_LINK => n.mem.plain_store(MUTATOR, SLOT, REF),
            M_FENCE => {
                if self.mutation != AllocMutation::SkipPublishFence && !s.mem.fence(MUTATOR) {
                    return vec![]; // wait for own flushes
                }
            }
            M_PUBLISH => n.mem.shared_store(BIT, 1),
            _ => unreachable!("mutator pc"),
        }
        n.mut_pc += 1;
        vec![n]
    }

    fn step_tracer(&self, s: &AllocState) -> Vec<AllocState> {
        let mut n = s.clone();
        match s.tracer_pc {
            T_FIND => {
                // A null slot is read again (spin: successor == state).
                if s.mem.plain_load(TRACER, SLOT) == REF {
                    n.tracer_pc = T_TEST;
                }
            }
            T_TEST => {
                if self.mutation == AllocMutation::SkipBitTest || s.mem.shared_load(BIT) == 1 {
                    n.tracer_pc = T_SCAN;
                } else {
                    n.deferred = true; // tested again once recycled
                }
            }
            T_SCAN => {
                n.scanned = Some(s.mem.plain_load(TRACER, OBJ));
                n.tracer_pc = T_DONE;
            }
            _ => unreachable!("tracer pc"),
        }
        vec![n]
    }
}

impl Model for AllocModel {
    type State = AllocState;

    fn initial(&self) -> AllocState {
        AllocState {
            mem: WeakMem::new(3, 2),
            mut_pc: M_INIT,
            tracer_pc: T_FIND,
            deferred: false,
            scanned: None,
        }
    }

    fn successors(&self, s: &AllocState) -> Vec<AllocState> {
        let mut out = Vec::new();
        for mem in s.mem.flush_succs(MUTATOR) {
            let mut n = s.clone();
            n.mem = mem;
            out.push(n);
        }
        if s.mut_pc != M_DONE {
            out.extend(self.step_mutator(s));
        }
        if s.tracer_pc != T_DONE {
            out.extend(self.step_tracer(s));
        }
        out
    }

    fn is_final(&self, s: &AllocState) -> bool {
        s.mut_pc == M_DONE && s.tracer_pc == T_DONE && s.mem.all_drained()
    }

    fn invariant(&self, s: &AllocState) -> Result<(), String> {
        match s.scanned {
            Some(v) if v != INIT => Err(format!(
                "traced an uninitialised object: the scan read {v}, not {INIT}"
            )),
            _ => Ok(()),
        }
    }

    fn finale(&self, s: &AllocState) -> Result<(), String> {
        for (loc, want) in [(OBJ, INIT), (SLOT, REF), (BIT, 1)] {
            if s.mem.shared_load(loc) != want {
                return Err(format!("mutator store to location {loc} never landed"));
            }
        }
        if s.scanned != Some(INIT) {
            return Err(format!("object never traced: scan read {:?}", s.scanned));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Outcome};

    fn model(mutation: AllocMutation) -> AllocModel {
        AllocModel { mutation }
    }

    #[test]
    fn faithful_publication_passes_exhaustively() {
        let out = Explorer::default().run(&model(AllocMutation::None));
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn every_mutation_is_caught() {
        for mutation in AllocMutation::ALL {
            match Explorer::default().run(&model(mutation)) {
                Outcome::Violation { message, .. } => {
                    assert!(message.contains("uninitialised"), "{mutation:?}: {message}")
                }
                other => panic!("mutation {mutation:?} was not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn deferral_is_reachable() {
        // The protocol works by sometimes deferring objects: a tracer
        // that finds the reference before the bit is set must defer.
        let faithful = model(AllocMutation::None);
        assert!(Explorer::default().reaches(&faithful, |s| s.deferred));
    }

    #[test]
    fn safe_trace_is_reachable() {
        // The common case, bit set and contents visible at the first
        // test, is reached; an uninitialised scan never is.
        let faithful = model(AllocMutation::None);
        let explorer = Explorer::default();
        assert!(explorer.reaches(&faithful, |s| s.scanned == Some(INIT) && !s.deferred));
        assert!(!explorer.reaches(&faithful, |s| s.scanned == Some(0)));
    }
}
