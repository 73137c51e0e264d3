//! Model of the mostly-concurrent marking protocol: the card-table write
//! barrier (§2.1), the §5.3 card-snapshot/handshake cleaning sequence,
//! and the §2.2 stop-the-world finish — checked for the tri-color
//! safety property "no reachable object is left unmarked".
//!
//! The scene is the smallest heap that can lose an object: three
//! objects `A → B → C` built concurrently by a mutator while the
//! collector traces. `A` is the only root. Reference slots are plain
//! (buffered) locations; mark bits and card indicators are
//! synchronization locations — exactly the §5.3 situation where a card
//! store becomes visible *before* the slot store it covers, so a
//! collector that snapshots the card, cleans it, and rescans without a
//! handshake reads the stale slot and never sees the new reference.
//!
//! The collector state machine mirrors `mcgc_core`: kickoff root scan,
//! packet-style worklist drain, one concurrent card-cleaning pass
//! (snapshot-to-clean → handshake → rescan marked objects), then the
//! stop-the-world rendezvous (which drains every mutator buffer), root
//! rescan, final card cleaning, and final drain. As in `mcgc_core`, a
//! root scan queues only the roots it marks itself.
//!
//! Every handshake may time out instead of waiting for the mutator's
//! fence (`Gc::card_handshake` waits a bounded time). Its cards then stay
//! registered: a later handshake's ack covers them, or the pause cleans
//! them after its rendezvous, as `Gc::stw_clean_cards` drains the
//! registry.
//!
//! The *minor* scene ([`BarrierScene::Minor`]) starts a minor cycle on
//! sticky mark bits instead: `A` is old (marked by the previous cycle),
//! and `write_ref(A, 0, B)` ran before the kickoff, its card mark visible
//! while its slot store still sits in the mutator's store buffer. The
//! kickoff registers the dirty cards holding a marked object, clears
//! every card, and handshakes once before the registered objects are
//! rescanned; the mutator then stores `C` into `B` during the cycle.
//!
//! The *unpublished* scene ([`BarrierScene::Unpublished`]) checks the
//! barrier's card elision (`Mutator::write_ref`): `B` is allocated
//! during a full cycle and its allocation bit is pending in the
//! mutator's cache, so the store of `C` into it dirties no card. A
//! cache refill may publish `B` before or after that store; publication
//! is a release fence and then the allocation bit, as in
//! [`crate::alloc_model`], and the barrier dirties the card of a holder
//! already published. The tracer tests each popped object's bit and
//! defers an unpublished one to the pause, and card cleaning re-dirties
//! a card whose marked object is unpublished (`Gc::clean_one_card`).
//! `B`'s card starts dirty from a store into a published neighbour, so
//! that re-dirty runs.

use crate::mem::WeakMem;
use crate::sched::Model;

const NOBJ: usize = 3;
const NCARDS: usize = 2;
/// Card holding each object's header (A on card 0; B and C on card 1).
const CARD_OF: [usize; NOBJ] = [0, 1, 1];
/// The single marked-object rescan candidate per card (A and B; C never
/// has references stored into it).
const OBJ_ON_CARD: [u8; NCARDS] = [0, 1];
const ROOT: u8 = 0;

const COLLECTOR: usize = 0;
const MUTATOR: usize = 1;

/// Protocol deletions for mutation testing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BarrierMutation {
    /// The faithful protocol.
    None,
    /// The write barrier stores the reference but never dirties the
    /// card: a reference stored into an already-scanned object is lost.
    SkipCardMark,
    /// Concurrent cleaning rescans registered cards without the §5.3
    /// handshake: the card indicator can be visible before the slot
    /// store it covers, so the rescan reads a stale slot.
    SkipHandshake,
    /// A minor kickoff clears the card table as a full kickoff does,
    /// registering nothing: the old object a young one was stored into
    /// before the kickoff is black and never rescanned.
    KickoffClearsCards,
    /// A minor kickoff rescans its registered cards without the §5.3
    /// handshake: the rescan can read the old object's slot before the
    /// buffered pre-kickoff store reaches it.
    KickoffSkipsHandshake,
    /// The barrier elides the card for a holder that a refill already
    /// published: a tracer may have scanned it, and nothing rescans it.
    ElidePublishedHolder,
    /// A timed-out handshake falls back to a fence on the collector's
    /// side only and rescans the registered cards anyway: that fence
    /// does not drain the mutator's store buffer, and a timeout can come
    /// before any ack, so the rescan can read a stale slot, as without
    /// the handshake.
    TimeoutRescans,
}

impl BarrierMutation {
    /// Every mutation (excluding `None`) with the scene that exposes it,
    /// for the meta-test proving none of them is vacuous.
    pub const ALL: [(BarrierScene, BarrierMutation); 7] = [
        (BarrierScene::Full, BarrierMutation::SkipCardMark),
        (BarrierScene::Full, BarrierMutation::SkipHandshake),
        (BarrierScene::Full, BarrierMutation::TimeoutRescans),
        (BarrierScene::Minor, BarrierMutation::TimeoutRescans),
        (BarrierScene::Minor, BarrierMutation::KickoffClearsCards),
        (BarrierScene::Minor, BarrierMutation::KickoffSkipsHandshake),
        (
            BarrierScene::Unpublished,
            BarrierMutation::ElidePublishedHolder,
        ),
    ];
}

/// Which cycle the scene runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BarrierScene {
    /// A full cycle: every object starts white, and the mutator builds
    /// `A → B → C` while the collector traces.
    Full,
    /// A minor cycle: `A` starts black with a buffered pre-kickoff store
    /// of `B` into it and a dirty card; the mutator stores `C` into `B`.
    Minor,
    /// A full cycle in which `B` is allocated unpublished in the
    /// mutator's cache: the store of `C` into it elides the card unless
    /// a refill published `B` first.
    Unpublished,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ColState {
    pc: u8,
    /// 0 = concurrent trace, 1 = after concurrent cleaning, 2 = STW.
    phase: u8,
    cur_obj: u8,
    reg: u64,
    cursor: u8,
    worklist: Vec<u8>,
    registry: Vec<u8>,
    /// Objects popped unpublished (§5.2), traced by the pause.
    deferred: Vec<u8>,
    done: bool,
}

/// Full system state: weak memory (slots), marks/cards/allocation bits
/// (sync), thread machines.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BarrierState {
    mem: WeakMem,
    marks: [bool; NOBJ],
    cards: [bool; NCARDS],
    /// Allocation bits: only the unpublished scene's `B` starts clear.
    published: [bool; NOBJ],
    col: ColState,
    mut_pc: u8,
    mut_done: bool,
}

/// The kickoff / write-barrier / card-snapshot model.
#[derive(Copy, Clone, Debug)]
pub struct BarrierModel {
    /// The protocol change under test.
    pub mutation: BarrierMutation,
    /// The cycle the scene runs.
    pub scene: BarrierScene,
}

// Collector PCs.
const C_ROOT: u8 = 0;
const C_DRAIN: u8 = 1;
const C_LOAD: u8 = 2;
const C_PROCESS: u8 = 3;
const C_SNAPSHOT: u8 = 4;
const C_HANDSHAKE: u8 = 5;
const C_RESCAN: u8 = 6;
const C_STW: u8 = 8;
const C_STW_ROOTS: u8 = 9;
const C_STW_CARDS: u8 = 10;
const C_DONE: u8 = 11;
const C_KICKOFF: u8 = 12;
const C_KICKOFF_HANDSHAKE: u8 = 13;

// Mutator PCs of the unpublished scene (the other scenes run 0..=3).
const M_LINK_A: u8 = 0;
const M_CARD_A: u8 = 1;
const M_REFILL_OR_STORE: u8 = 2;
const M_STORE_B: u8 = 3;
const M_CARD_B: u8 = 4;
const M_RETIRE_FENCE: u8 = 5;
const M_RETIRE_BIT: u8 = 6;
const M_REFILL_FENCE: u8 = 7;
const M_REFILL_BIT: u8 = 8;
const M_DONE: u8 = 9;
/// The unpublished scene's holder.
const HOLDER: usize = 1;

impl BarrierModel {
    fn ref_of(v: u64) -> Option<u8> {
        if v == 0 {
            None
        } else {
            Some((v - 1) as u8)
        }
    }

    /// Marks the root and queues it if this scan marked it: an already
    /// black root (traced this cycle, or old in a minor one) is not
    /// rescanned.
    fn scan_root(n: &mut BarrierState) {
        if !n.marks[ROOT as usize] {
            n.marks[ROOT as usize] = true;
            n.col.worklist.push(ROOT);
        }
    }

    fn step_collector(&self, s: &BarrierState) -> Vec<BarrierState> {
        let c = &s.col;
        let mut n = s.clone();
        match c.pc {
            C_KICKOFF => {
                // A minor kickoff's §5.3 steps 1–2, once over the whole
                // table: register each dirty card holding a marked
                // object, and clear every card.
                let cur = c.cursor as usize;
                if cur < NCARDS {
                    if s.cards[cur] {
                        n.cards[cur] = false;
                        if self.mutation != BarrierMutation::KickoffClearsCards
                            && s.marks[OBJ_ON_CARD[cur] as usize]
                        {
                            n.col.registry.push(cur as u8);
                        }
                    }
                    n.col.cursor += 1;
                } else {
                    n.col.cursor = 0;
                    n.col.pc = if c.registry.is_empty() {
                        C_ROOT
                    } else {
                        C_KICKOFF_HANDSHAKE
                    };
                }
                vec![n]
            }
            C_KICKOFF_HANDSHAKE => {
                // One handshake, then the concurrent cleaner drains the
                // registry: queue the marked objects on registered cards.
                // Or the wait times out, and the cards stay registered for
                // the cleaning pass's handshake (the registry waits for
                // the largest epoch registered into it) or the pause.
                n.col.pc = C_ROOT;
                let mut rescan = n.clone();
                for card in rescan.col.registry.drain(..) {
                    rescan.col.worklist.push(OBJ_ON_CARD[card as usize]);
                }
                match self.mutation {
                    BarrierMutation::TimeoutRescans => vec![rescan],
                    BarrierMutation::KickoffSkipsHandshake => vec![rescan, n],
                    _ if s.mem.others_drained(COLLECTOR) => vec![rescan, n],
                    _ => vec![n],
                }
            }
            C_ROOT => {
                // Kickoff: scan the root set (§2.1).
                Self::scan_root(&mut n);
                n.col.pc = C_DRAIN;
                vec![n]
            }
            C_DRAIN => {
                match n.col.worklist.pop() {
                    // §5.2: an unpublished object is deferred, untraced.
                    Some(obj) if !s.published[obj as usize] => n.col.deferred.push(obj),
                    Some(obj) => {
                        n.col.cur_obj = obj;
                        n.col.pc = C_LOAD;
                    }
                    None => {
                        n.col.pc = match c.phase {
                            0 => C_SNAPSHOT,
                            1 => C_STW,
                            _ => C_DONE,
                        };
                    }
                }
                vec![n]
            }
            C_LOAD => {
                // The racy read: the collector sees shared memory only
                // (its own buffer is always empty).
                n.col.reg = s.mem.plain_load(COLLECTOR, c.cur_obj as usize);
                n.col.pc = C_PROCESS;
                vec![n]
            }
            C_PROCESS => {
                if let Some(child) = Self::ref_of(c.reg) {
                    if !n.marks[child as usize] {
                        n.marks[child as usize] = true;
                        n.col.worklist.push(child);
                    }
                }
                n.col.pc = C_DRAIN;
                vec![n]
            }
            C_SNAPSHOT => {
                // §5.3 step 1: snapshot-to-clean one card, register it.
                let cur = c.cursor as usize;
                if cur < NCARDS {
                    if s.cards[cur] {
                        n.cards[cur] = false;
                        n.col.registry.push(cur as u8);
                    }
                    n.col.cursor += 1;
                } else if c.registry.is_empty() {
                    n.col.phase = 1;
                    n.col.pc = C_DRAIN;
                } else {
                    n.col.pc = C_HANDSHAKE;
                }
                vec![n]
            }
            C_HANDSHAKE => {
                // §5.3 step 2: every mutator fences before the rescan. Or
                // the wait times out, and the registered cards wait for
                // the pause.
                let mut rescan = n.clone();
                rescan.col.pc = C_RESCAN;
                n.col.phase = 1;
                n.col.pc = C_DRAIN;
                match self.mutation {
                    BarrierMutation::SkipHandshake | BarrierMutation::TimeoutRescans => {
                        vec![rescan]
                    }
                    _ if s.mem.others_drained(COLLECTOR) => vec![rescan, n],
                    _ => vec![n],
                }
            }
            C_RESCAN => {
                // §5.3 step 3: queue the marked objects on registered
                // cards for rescanning; a marked object still unpublished
                // keeps its card dirty instead.
                match n.col.registry.pop() {
                    Some(card) => {
                        let obj = OBJ_ON_CARD[card as usize];
                        if s.marks[obj as usize] {
                            if s.published[obj as usize] {
                                n.col.worklist.push(obj);
                            } else {
                                n.cards[card as usize] = true;
                            }
                        }
                    }
                    None => {
                        n.col.phase = 1;
                        n.col.pc = C_DRAIN;
                    }
                }
                vec![n]
            }
            C_STW => {
                // The stop-the-world rendezvous: mutators are parked at a
                // safepoint with their store buffers drained.
                if !(s.mut_done && s.mem.others_drained(COLLECTOR)) {
                    return vec![]; // waits for the mutator to finish
                }
                n.col.pc = C_STW_ROOTS;
                vec![n]
            }
            C_STW_ROOTS => {
                // §2.2: rescan all roots. The pause retired the caches,
                // so the deferred objects are published: trace them.
                // Final card cleaning starts with the cards a timed-out
                // handshake left registered: the rendezvous drained every
                // mutator buffer.
                let deferred = std::mem::take(&mut n.col.deferred);
                n.col.worklist.extend(deferred);
                for card in std::mem::take(&mut n.col.registry) {
                    let obj = OBJ_ON_CARD[card as usize];
                    if s.marks[obj as usize] {
                        n.col.worklist.push(obj);
                    }
                }
                Self::scan_root(&mut n);
                n.col.cursor = 0;
                n.col.pc = C_STW_CARDS;
                vec![n]
            }
            C_STW_CARDS => {
                // §2.2 final card cleaning.
                let cur = c.cursor as usize;
                if cur < NCARDS {
                    if s.cards[cur] {
                        n.cards[cur] = false;
                        let obj = OBJ_ON_CARD[cur];
                        if s.marks[obj as usize] {
                            n.col.worklist.push(obj);
                        }
                    }
                    n.col.cursor += 1;
                } else {
                    n.col.phase = 2;
                    n.col.pc = C_DRAIN;
                }
                vec![n]
            }
            C_DONE => {
                n.col.done = true;
                vec![n]
            }
            _ => unreachable!("collector pc"),
        }
    }

    fn step_mutator(&self, s: &BarrierState) -> Vec<BarrierState> {
        if self.scene == BarrierScene::Unpublished {
            return self.step_unpublished_mutator(s);
        }
        let mut n = s.clone();
        match s.mut_pc {
            // write_ref(A, 0, B): slot store, then barrier card mark.
            0 => {
                n.mem.plain_store(MUTATOR, 0, 2); // slot[A] = B
                n.mut_pc = 1;
                vec![n]
            }
            1 => {
                if self.mutation != BarrierMutation::SkipCardMark {
                    n.cards[CARD_OF[0]] = true;
                }
                n.mut_pc = 2;
                vec![n]
            }
            // write_ref(B, 0, C)
            2 => {
                n.mem.plain_store(MUTATOR, 1, 3); // slot[B] = C
                n.mut_pc = 3;
                vec![n]
            }
            3 => {
                if self.mutation != BarrierMutation::SkipCardMark {
                    n.cards[CARD_OF[1]] = true;
                }
                n.mut_pc = 4;
                n.mut_done = true;
                vec![n]
            }
            _ => unreachable!("mutator pc"),
        }
    }

    /// The unpublished scene's mutator: links the fresh `B` into `A`,
    /// stores `C` into `B` through the eliding barrier, and publishes
    /// `B` either at a refill before that store or at the pause's retire
    /// after it (release fence, then the allocation bit).
    fn step_unpublished_mutator(&self, s: &BarrierState) -> Vec<BarrierState> {
        let mut n = s.clone();
        n.mut_pc = match s.mut_pc {
            M_LINK_A => {
                n.mem.plain_store(MUTATOR, 0, 2); // slot[A] = B
                M_CARD_A
            }
            M_CARD_A => {
                n.cards[CARD_OF[0]] = true; // A is published
                M_REFILL_OR_STORE
            }
            M_REFILL_OR_STORE => {
                let mut refill = s.clone();
                refill.mut_pc = M_REFILL_FENCE;
                n.mut_pc = M_STORE_B;
                return vec![n, refill];
            }
            M_STORE_B => {
                n.mem.plain_store(MUTATOR, HOLDER, 3); // slot[B] = C
                M_CARD_B
            }
            M_CARD_B => {
                // The elision: no card for a holder in the caller's own
                // unpublished cache range.
                let published = s.published[HOLDER];
                if published && self.mutation != BarrierMutation::ElidePublishedHolder {
                    n.cards[CARD_OF[HOLDER]] = true;
                }
                if published {
                    M_DONE
                } else {
                    M_RETIRE_FENCE
                }
            }
            M_RETIRE_FENCE | M_REFILL_FENCE => {
                if !s.mem.fence(MUTATOR) {
                    return vec![]; // wait for own flushes
                }
                s.mut_pc + 1
            }
            M_RETIRE_BIT => {
                n.published[HOLDER] = true;
                M_DONE
            }
            M_REFILL_BIT => {
                n.published[HOLDER] = true;
                M_STORE_B
            }
            _ => unreachable!("mutator pc"),
        };
        n.mut_done = n.mut_pc == M_DONE;
        vec![n]
    }
}

impl Model for BarrierModel {
    type State = BarrierState;

    fn initial(&self) -> BarrierState {
        let mut mem = WeakMem::new(NOBJ, 2);
        let mut marks = [false; NOBJ];
        let mut cards = [false; NCARDS];
        let mut published = [true; NOBJ];
        let (pc, mut_pc) = match self.scene {
            BarrierScene::Full => (C_ROOT, 0),
            BarrierScene::Unpublished => {
                // `B` is fresh in the mutator's cache; its card is dirty
                // from a store into a published neighbour.
                published[HOLDER] = false;
                cards[CARD_OF[HOLDER]] = true;
                (C_ROOT, M_LINK_A)
            }
            BarrierScene::Minor => {
                // Before the kickoff: `A` is old, and write_ref(A, 0, B)
                // ran — its card mark is visible, its slot store is still
                // buffered. The mutator goes on with write_ref(B, 0, C).
                marks[ROOT as usize] = true;
                mem.plain_store(MUTATOR, 0, 2);
                cards[CARD_OF[0]] = true;
                (C_KICKOFF, 2)
            }
        };
        BarrierState {
            mem,
            marks,
            cards,
            published,
            col: ColState {
                pc,
                phase: 0,
                cur_obj: 0,
                reg: 0,
                cursor: 0,
                worklist: Vec::new(),
                registry: Vec::new(),
                deferred: Vec::new(),
                done: false,
            },
            mut_pc,
            mut_done: false,
        }
    }

    fn successors(&self, s: &BarrierState) -> Vec<BarrierState> {
        let mut out = Vec::new();
        for mem in s.mem.flush_succs(MUTATOR) {
            let mut n = s.clone();
            n.mem = mem;
            out.push(n);
        }
        if !s.col.done {
            out.extend(self.step_collector(s));
        }
        if !s.mut_done {
            out.extend(self.step_mutator(s));
        }
        out
    }

    fn is_final(&self, s: &BarrierState) -> bool {
        s.col.done && s.mut_done && s.mem.all_drained()
    }

    fn invariant(&self, _s: &BarrierState) -> Result<(), String> {
        Ok(())
    }

    fn finale(&self, s: &BarrierState) -> Result<(), String> {
        // Ground truth: objects reachable from the root through shared
        // memory (all buffers drained in a final state).
        let mut reachable = [false; NOBJ];
        let mut stack = vec![ROOT];
        while let Some(obj) = stack.pop() {
            if reachable[obj as usize] {
                continue;
            }
            reachable[obj as usize] = true;
            if let Some(child) = Self::ref_of(s.mem.shared_load(obj as usize)) {
                stack.push(child);
            }
        }
        for (obj, &live) in reachable.iter().enumerate() {
            if live && !s.marks[obj] {
                return Err(format!(
                    "lost object: {obj} is reachable but unmarked after the cycle"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Outcome};

    fn run(scene: BarrierScene, mutation: BarrierMutation) -> Outcome {
        Explorer::default().run(&BarrierModel { mutation, scene })
    }

    fn assert_loses_an_object(out: Outcome) {
        match out {
            Outcome::Violation { message, .. } => {
                assert!(message.contains("lost object"), "{message}")
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn faithful_marking_never_loses_an_object() {
        let out = run(BarrierScene::Full, BarrierMutation::None);
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn late_card_mark_is_benign_and_reachable() {
        // A barrier whose card mark lands after the concurrent cleaning
        // pass leaves the card dirty for the stop-the-world pass: a race
        // the faithful run above shows benign, and one that occurs.
        let model = BarrierModel {
            mutation: BarrierMutation::None,
            scene: BarrierScene::Full,
        };
        assert!(
            Explorer::default().reaches(&model, |s| s.col.phase == 1 && s.cards.contains(&true))
        );
    }

    #[test]
    fn skipping_the_card_mark_loses_an_object() {
        assert_loses_an_object(run(BarrierScene::Full, BarrierMutation::SkipCardMark));
    }

    #[test]
    fn skipping_the_handshake_loses_an_object() {
        assert_loses_an_object(run(BarrierScene::Full, BarrierMutation::SkipHandshake));
    }

    #[test]
    fn faithful_minor_cycle_never_loses_an_object() {
        let out = run(BarrierScene::Minor, BarrierMutation::None);
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn minor_kickoff_that_clears_the_cards_loses_an_object() {
        assert_loses_an_object(run(
            BarrierScene::Minor,
            BarrierMutation::KickoffClearsCards,
        ));
    }

    #[test]
    fn minor_kickoff_without_the_handshake_loses_an_object() {
        assert_loses_an_object(run(
            BarrierScene::Minor,
            BarrierMutation::KickoffSkipsHandshake,
        ));
    }

    #[test]
    fn faithful_elision_never_loses_an_object() {
        let out = run(BarrierScene::Unpublished, BarrierMutation::None);
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn elided_store_meets_deferral_and_redirty() {
        // The faithful pass is not vacuous: the tracer does meet the
        // unpublished holder. It defers `B`, and card cleaning keeps
        // `B`'s card dirty, while the elided store is in memory and
        // `B`'s bit is still clear.
        let model = BarrierModel {
            mutation: BarrierMutation::None,
            scene: BarrierScene::Unpublished,
        };
        let explorer = Explorer::default();
        let elided = |s: &BarrierState| s.mem.shared_load(HOLDER) == 3 && !s.published[HOLDER];
        assert!(explorer.reaches(&model, |s| elided(s)
            && s.col.deferred.contains(&(HOLDER as u8))));
        assert!(explorer.reaches(&model, |s| elided(s)
            && s.col.phase == 1
            && s.marks[HOLDER]
            && s.cards[CARD_OF[HOLDER]]));
    }

    #[test]
    fn timed_out_handshakes_leave_their_cards_registered() {
        // The faithful passes are not vacuous: a timed-out snapshot
        // reaches the pause with its cards still registered, and a
        // timed-out minor kickoff's cards wait for the cleaning pass.
        let explorer = Explorer::default();
        let full = BarrierModel {
            mutation: BarrierMutation::None,
            scene: BarrierScene::Full,
        };
        assert!(explorer.reaches(&full, |s| s.col.pc == C_STW && !s.col.registry.is_empty()));
        let minor = BarrierModel {
            mutation: BarrierMutation::None,
            scene: BarrierScene::Minor,
        };
        assert!(explorer.reaches(&minor, |s| s.col.pc == C_SNAPSHOT
            && s.col.registry.contains(&(CARD_OF[ROOT as usize] as u8))));
    }

    #[test]
    fn every_mutation_is_caught() {
        for (scene, mutation) in BarrierMutation::ALL {
            match run(scene, mutation) {
                Outcome::Violation { message, .. } => {
                    assert!(message.contains("lost object"), "{mutation:?}: {message}")
                }
                other => panic!("mutation {mutation:?} was not caught: {other:?}"),
            }
        }
    }
}
