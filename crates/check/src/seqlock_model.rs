//! Model of the flight-recorder seqlock slot protocol
//! (`crates/telemetry/src/spans.rs` `SpanRing::record`/`read_slot`).
//!
//! One ring slot, one writer (a `SpanRing` is single-writer by design —
//! one track per thread), one concurrent snapshot reader. The writer
//! runs two laps over the same slot (tickets 0 and 1 of a capacity-1
//! ring), so the reader's validation must distinguish a complete lap-0
//! payload from a lap-1 overwrite in flight:
//!
//! * writer, per lap `t`: claim ticket from the cursor (atomic
//!   `fetch_add`), store `seq = 2t+1` (odd: slot open), **release
//!   fence**, store the payload fields (plain), **release fence**,
//!   store `seq = 2t+2` (even: slot complete);
//! * reader, for ticket `t`: load `seq`, bail unless it equals `2t+2`,
//!   speculatively copy the payload, re-load `seq`, and accept the copy
//!   only if it still equals `2t+2`.
//!
//! The `seq` word and the payload fields are all **plain buffered
//! locations** in [`WeakMem`]: the store buffer may flush them in any
//! cross-location order, which is exactly the freedom a weakly-ordered
//! machine (or the C++ compiler) has with `Relaxed` stores. The two
//! fences are what the protocol is about:
//!
//! * without the fence after the odd store ([`SeqlockMutation::SkipBeginFence`]
//!   — **the shipped PR 6 code before this PR fixed it**), a lap-1
//!   payload store can become visible while the lap-1 odd `seq` store
//!   is still buffered, so a reader double-validates a stale lap-0
//!   `seq` around a torn payload;
//! * without ordering the even store after the payload
//!   ([`SeqlockMutation::SkipCompletePublish`]), `seq` can report the
//!   slot complete while the payload is still in the writer's buffer.
//!
//! The reader side of the store-buffer model is strict (loads are never
//! delayed), so the model proves the *writer-side* fences load-bearing.
//! The fix in `spans.rs` also adds the reader-side acquire
//! fence before revalidation, which the C++ abstract machine requires
//! for the same guarantee (Boehm's seqlock recipe: the revalidating
//! load only synchronizes with the store it reads, so payload loads
//! need an acquire fence to pull the overwriter's odd store into view);
//! an in-order-load model cannot distinguish it and we document rather
//! than model it.
//!
//! Ghost state: the reader's accepted `(payload, payload2)` copy must
//! be bit-exactly lap-0's tuple (anything else is a **torn span**); a
//! high-water mark over the shared `seq` cell checks **monotonicity**
//! at every flush; and the writer having an enabled step whenever it is
//! not done checks that **writers never block** on reader state.

use crate::mem::WeakMem;
use crate::sched::Model;

const SEQ: usize = 0;
const PAY0: usize = 1;
const PAY1: usize = 2;
const NLOCS: usize = 3;

const WRITER: usize = 0;
const READER: usize = 1;

/// Laps the writer runs over the single slot.
const LAPS: u8 = 2;
/// The ticket the reader snapshots (lap 0), and its complete seq value.
const WANT_TICKET: u64 = 0;
const WANT_SEQ: u64 = 2 * WANT_TICKET + 2;

/// Payload field values for lap `t` (distinct per lap and per field).
fn payload_of(t: u64) -> (u64, u64) {
    (10 * t + 1, 10 * t + 2)
}

/// A single protocol change for mutation testing: each deletes one
/// fence, one validation, or the ticket increment, and the checker must
/// find the resulting bug.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SeqlockMutation {
    /// The faithful protocol.
    None,
    /// Delete the release fence between the odd `seq` store and the
    /// payload stores. This is the protocol PR 6 actually shipped: on a
    /// weakly-ordered machine an overwriter's payload can become
    /// visible before its odd `seq`, so a reader double-validates a
    /// stale even `seq` around a torn payload.
    SkipBeginFence,
    /// Delete the release ordering on the completing even store: `seq`
    /// can claim the slot is complete while the payload is still in the
    /// writer's store buffer.
    SkipCompletePublish,
    /// The reader accepts its speculative copy without re-validating
    /// `seq`: it can race the overwriting lap and keep a torn copy.
    SkipSecondCheck,
    /// The writer reuses ticket 0 for every lap instead of advancing the
    /// cursor: the `seq` word runs backwards (1, 2, 1, 2), breaking
    /// monotonicity — and with it every reader's staleness reasoning.
    TicketReuse,
}

impl SeqlockMutation {
    /// Every mutation (excluding `None`), for the meta-test proving none
    /// of them is vacuous.
    pub const ALL: [SeqlockMutation; 4] = [
        SeqlockMutation::SkipBeginFence,
        SeqlockMutation::SkipCompletePublish,
        SeqlockMutation::SkipSecondCheck,
        SeqlockMutation::TicketReuse,
    ];
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SThread {
    pc: u8,
    done: bool,
}

/// Full system state of the seqlock model.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SeqlockState {
    mem: WeakMem,
    /// The ring cursor (atomic `fetch_add`, one step — never buffered).
    cursor: u64,
    /// Writer: lap in progress.
    lap: u8,
    /// Writer: ticket claimed for the current lap.
    ticket: u64,
    /// Reader: speculative payload copy.
    copy: (u64, u64),
    /// Ghost: did the reader accept its copy?
    accepted: bool,
    /// Ghost: high-water mark of the shared `seq` cell across flushes.
    seq_high: u64,
    /// Ghost: first safety violation observed while stepping.
    poison: Option<&'static str>,
    threads: [SThread; 2],
}

/// The seqlock slot protocol model.
#[derive(Clone, Debug)]
pub struct SeqlockModel {
    /// The protocol change under test.
    pub mutation: SeqlockMutation,
}

// Writer program counters (per lap).
const W_TICKET: u8 = 0;
const W_OPEN: u8 = 1; // store seq = 2t+1
const W_FENCE_OPEN: u8 = 2; // release fence
const W_PAY0: u8 = 3;
const W_PAY1: u8 = 4;
const W_FENCE_DONE: u8 = 5; // release ordering of the even store
const W_CLOSE: u8 = 6; // store seq = 2t+2

// Reader program counters.
const R_CHECK1: u8 = 0;
const R_COPY0: u8 = 1;
const R_COPY1: u8 = 2;
const R_CHECK2: u8 = 3;

impl SeqlockModel {
    fn step_writer(&self, s: &SeqlockState) -> Vec<SeqlockState> {
        let t = &s.threads[WRITER];
        let mut n = s.clone();
        match t.pc {
            W_TICKET => {
                n.ticket = s.cursor;
                if self.mutation != SeqlockMutation::TicketReuse {
                    n.cursor += 1;
                }
                n.threads[WRITER].pc = W_OPEN;
                vec![n]
            }
            W_OPEN => {
                n.mem.plain_store(WRITER, SEQ, 2 * s.ticket + 1);
                n.threads[WRITER].pc = W_FENCE_OPEN;
                vec![n]
            }
            W_FENCE_OPEN => {
                if self.mutation == SeqlockMutation::SkipBeginFence {
                    n.threads[WRITER].pc = W_PAY0;
                    return vec![n];
                }
                if !s.mem.fence(WRITER) {
                    return vec![]; // wait for own flushes (flush steps stay enabled)
                }
                n.threads[WRITER].pc = W_PAY0;
                vec![n]
            }
            W_PAY0 => {
                n.mem.plain_store(WRITER, PAY0, payload_of(s.ticket).0);
                n.threads[WRITER].pc = W_PAY1;
                vec![n]
            }
            W_PAY1 => {
                n.mem.plain_store(WRITER, PAY1, payload_of(s.ticket).1);
                n.threads[WRITER].pc = W_FENCE_DONE;
                vec![n]
            }
            W_FENCE_DONE => {
                if self.mutation == SeqlockMutation::SkipCompletePublish {
                    n.threads[WRITER].pc = W_CLOSE;
                    return vec![n];
                }
                if !s.mem.fence(WRITER) {
                    return vec![];
                }
                n.threads[WRITER].pc = W_CLOSE;
                vec![n]
            }
            W_CLOSE => {
                n.mem.plain_store(WRITER, SEQ, 2 * s.ticket + 2);
                n.lap += 1;
                if n.lap >= LAPS {
                    n.threads[WRITER].done = true;
                } else {
                    n.threads[WRITER].pc = W_TICKET;
                }
                vec![n]
            }
            _ => unreachable!("writer pc"),
        }
    }

    fn step_reader(&self, s: &SeqlockState) -> Vec<SeqlockState> {
        let t = &s.threads[READER];
        let mut n = s.clone();
        match t.pc {
            R_CHECK1 => {
                if s.mem.plain_load(READER, SEQ) == WANT_SEQ {
                    n.threads[READER].pc = R_COPY0;
                } else {
                    n.threads[READER].done = true; // slot not (or no longer) ours: bail
                }
                vec![n]
            }
            R_COPY0 => {
                n.copy.0 = s.mem.plain_load(READER, PAY0);
                n.threads[READER].pc = R_COPY1;
                vec![n]
            }
            R_COPY1 => {
                n.copy.1 = s.mem.plain_load(READER, PAY1);
                n.threads[READER].pc = R_CHECK2;
                vec![n]
            }
            R_CHECK2 => {
                let valid = self.mutation == SeqlockMutation::SkipSecondCheck
                    || s.mem.plain_load(READER, SEQ) == WANT_SEQ;
                if valid {
                    n.accepted = true;
                    if n.copy != payload_of(WANT_TICKET) {
                        n.poison = Some("torn span: reader accepted a mixed-lap payload");
                    }
                }
                n.threads[READER].done = true;
                vec![n]
            }
            _ => unreachable!("reader pc"),
        }
    }
}

impl Model for SeqlockModel {
    type State = SeqlockState;

    fn initial(&self) -> SeqlockState {
        SeqlockState {
            mem: WeakMem::new(NLOCS, 2),
            cursor: 0,
            lap: 0,
            ticket: 0,
            copy: (0, 0),
            accepted: false,
            seq_high: 0,
            poison: None,
            threads: [
                SThread { pc: 0, done: false },
                SThread { pc: 0, done: false },
            ],
        }
    }

    fn successors(&self, s: &SeqlockState) -> Vec<SeqlockState> {
        let mut out = Vec::new();
        let mut writer_enabled = false;
        for tid in [WRITER, READER] {
            for mem in s.mem.flush_succs(tid) {
                let mut n = s.clone();
                n.mem = mem;
                // Monotonicity ghost: watch the shared seq cell across
                // every flush.
                let seq_now = n.mem.shared_load(SEQ);
                if seq_now < n.seq_high {
                    n.poison = Some("seq went backwards: non-monotone sequence numbers");
                } else {
                    n.seq_high = seq_now;
                }
                writer_enabled |= tid == WRITER;
                out.push(n);
            }
            if !s.threads[tid].done {
                let steps = if tid == WRITER {
                    self.step_writer(s)
                } else {
                    self.step_reader(s)
                };
                writer_enabled |= tid == WRITER && !steps.is_empty();
                out.extend(steps);
            }
        }
        // Writers never block: a writer that is not done must always
        // have an enabled step (its fences wait only on its own buffer,
        // whose flushes are always enabled — never on the reader).
        if !s.threads[WRITER].done && !writer_enabled {
            let mut n = s.clone();
            n.poison = Some("writer blocked: no enabled writer step");
            out.push(n);
        }
        out
    }

    fn is_final(&self, s: &SeqlockState) -> bool {
        s.threads.iter().all(|t| t.done) && s.mem.all_drained()
    }

    fn invariant(&self, s: &SeqlockState) -> Result<(), String> {
        match s.poison {
            Some(msg) => Err(msg.to_string()),
            None => Ok(()),
        }
    }

    fn finale(&self, s: &SeqlockState) -> Result<(), String> {
        // Quiescent slot: the last lap's payload and even seq, in full.
        let last = (LAPS - 1) as u64;
        if s.mem.shared_load(SEQ) != 2 * last + 2 && self.mutation != SeqlockMutation::TicketReuse {
            return Err(format!(
                "slot wound down with seq {} (want {})",
                s.mem.shared_load(SEQ),
                2 * last + 2
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Outcome};

    fn run(mutation: SeqlockMutation) -> Outcome {
        Explorer::default().run(&SeqlockModel { mutation })
    }

    #[test]
    fn faithful_seqlock_passes_exhaustively() {
        let out = run(SeqlockMutation::None);
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn every_mutation_is_caught() {
        for mutation in SeqlockMutation::ALL {
            let out = run(mutation);
            assert!(
                out.violated(),
                "mutation {mutation:?} was not caught: {out:?}"
            );
        }
    }

    #[test]
    fn shipped_pr6_protocol_admits_a_torn_read() {
        // SkipBeginFence is exactly the protocol the span ring shipped
        // with in PR 6; the model is what surfaced the missing fence.
        let out = run(SeqlockMutation::SkipBeginFence);
        match out {
            Outcome::Violation { message, .. } => {
                assert!(message.contains("torn span"), "{message}")
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn ticket_reuse_breaks_monotonicity() {
        let out = run(SeqlockMutation::TicketReuse);
        match out {
            Outcome::Violation { message, .. } => assert!(
                message.contains("non-monotone") || message.contains("torn span"),
                "{message}"
            ),
            other => panic!("expected violation, got {other:?}"),
        }
    }
}
