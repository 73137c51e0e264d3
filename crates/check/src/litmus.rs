//! Litmus programs: straight-line threads of plain stores, loads,
//! fences and handshakes, run on [`WeakMem`] and explored by
//! [`Explorer`]. Each shows one §5 anomaly at its smallest next to the
//! fence or handshake that removes it; `pool_model`'s
//! `SkipPublishFence` (§5.1) and `barrier_model`'s `SkipHandshake`
//! (§5.3) check the same orderings inside the full protocols.

use crate::mem::WeakMem;
use crate::sched::{Explorer, Model};

/// One instruction of a litmus thread.
#[derive(Copy, Clone, Debug)]
pub enum Op {
    /// Buffer a plain store of `val` to `loc`.
    Store { loc: usize, val: u64 },
    /// Plain load of `loc` into this thread's register `reg`.
    Load { loc: usize, reg: usize },
    /// Wait until this thread's own store buffer is empty.
    Fence,
    /// Wait until every other thread's store buffer is empty: the §5.3
    /// handshake forcing each mutator to fence.
    DrainOthers,
}

/// Memory locations, and registers per thread, of every program; all
/// start at 0.
const LOCATIONS: usize = 2;
const REGISTERS: usize = 2;

/// A litmus program: one instruction sequence per thread.
#[derive(Clone, Debug)]
pub struct Program(pub Vec<Vec<Op>>);

/// A state of a running [`Program`]; in a final state every store
/// buffer is drained, so `mem.shared_load` is what every thread sees.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LitmusState {
    pcs: Vec<usize>,
    /// Per-thread registers.
    pub regs: Vec<Vec<u64>>,
    /// The memory and the store buffers.
    pub mem: WeakMem,
}

impl Model for Program {
    type State = LitmusState;

    fn initial(&self) -> LitmusState {
        LitmusState {
            pcs: vec![0; self.0.len()],
            regs: vec![vec![0; REGISTERS]; self.0.len()],
            mem: WeakMem::new(LOCATIONS, self.0.len()),
        }
    }

    fn successors(&self, s: &LitmusState) -> Vec<LitmusState> {
        let mut out = Vec::new();
        for (t, ops) in self.0.iter().enumerate() {
            for mem in s.mem.flush_succs(t) {
                out.push(LitmusState { mem, ..s.clone() });
            }
            let Some(&op) = ops.get(s.pcs[t]) else {
                continue;
            };
            let mut n = s.clone();
            match op {
                Op::Store { loc, val } => n.mem.plain_store(t, loc, val),
                Op::Load { loc, reg } => n.regs[t][reg] = s.mem.plain_load(t, loc),
                Op::Fence if !s.mem.fence(t) => continue,
                Op::DrainOthers if !s.mem.others_drained(t) => continue,
                Op::Fence | Op::DrainOthers => {}
            }
            n.pcs[t] += 1;
            out.push(n);
        }
        out
    }

    fn is_final(&self, s: &LitmusState) -> bool {
        s.pcs.iter().zip(&self.0).all(|(&pc, ops)| pc == ops.len()) && s.mem.all_drained()
    }

    fn invariant(&self, _s: &LitmusState) -> Result<(), String> {
        Ok(())
    }

    fn finale(&self, _s: &LitmusState) -> Result<(), String> {
        Ok(())
    }
}

/// True if some final state of `program` satisfies `pred`.
pub fn reachable(program: &Program, pred: impl Fn(&LitmusState) -> bool) -> bool {
    Explorer::default().reaches(program, |s| program.is_final(s) && pred(s))
}

mod tests {
    use super::*;

    /// §5.1: a tracer fills a packet entry (location 0) and publishes
    /// the packet through the pool head (location 1), with or without
    /// the fence before publication; a consumer loads the head, then the
    /// entry through it.
    fn packet_publish(with_fence: bool) -> Program {
        let mut producer = vec![Op::Store { loc: 0, val: 42 }];
        producer.extend(with_fence.then_some(Op::Fence));
        producer.push(Op::Store { loc: 1, val: 1 });
        let consumer = vec![Op::Load { loc: 1, reg: 0 }, Op::Load { loc: 0, reg: 1 }];
        Program(vec![producer, consumer])
    }

    /// §5.3: a mutator stores a reference (2) into a marked object's
    /// slot (location 0) and dirties its card (location 1) without a
    /// fence; the collector registers and clears the card, with or
    /// without the handshake, then rescans the slot.
    fn card_clean(with_handshake: bool) -> Program {
        let mutator = vec![Op::Store { loc: 0, val: 2 }, Op::Store { loc: 1, val: 1 }];
        let mut collector = vec![Op::Load { loc: 1, reg: 0 }, Op::Store { loc: 1, val: 0 }];
        collector.extend(with_handshake.then_some(Op::DrainOthers));
        collector.push(Op::Load { loc: 0, reg: 1 });
        Program(vec![mutator, collector])
    }

    #[test]
    fn packet_publish_anomaly_only_without_fence() {
        // The consumer got the packet but read a stale entry.
        let stale = |s: &LitmusState| s.regs[1][0] == 1 && s.regs[1][1] != 42;
        assert!(
            reachable(&packet_publish(false), stale),
            "unfenced packet publication must expose a stale entry"
        );
        assert!(
            !reachable(&packet_publish(true), stale),
            "one fence per published packet removes the anomaly"
        );
        assert!(reachable(&packet_publish(true), |s| s.regs[1][0] == 1));
    }

    #[test]
    fn card_clean_anomaly_only_without_handshake() {
        // The collector consumed the dirty card, missed the new
        // reference, and the card ended clean: nothing rescans the slot
        // this cycle. A dirty store landing after the clear leaves the
        // card dirty, which is benign.
        let lost =
            |s: &LitmusState| s.regs[1][0] == 1 && s.regs[1][1] != 2 && s.mem.shared_load(1) == 0;
        assert!(
            reachable(&card_clean(false), lost),
            "without the handshake a cleaned card can hide an update"
        );
        assert!(
            !reachable(&card_clean(true), lost),
            "the snapshot and handshake remove the anomaly"
        );
        assert!(reachable(&card_clean(true), |s| s.regs[1][0] == 1));
    }
}
