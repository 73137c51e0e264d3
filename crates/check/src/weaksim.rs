//! The store-buffer rules of [`WeakMem`](crate::mem::WeakMem), checked
//! on whole litmus programs: store forwarding, per-location coherence, a
//! fence waiting for its own buffer, the handshake as a remote fence,
//! and message passing with and without the writer's fence. `mem`'s
//! unit tests check the same rules one step at a time.

use crate::litmus::{reachable, LitmusState, Op, Program};

/// Message passing: thread 0 stores `X = 1` (location 0), then `Y = 1`
/// (location 1), with a fence between if `writer_fence`; thread 1 loads
/// `Y` into `r0`, then `X` into `r1`, with `reader_op` between.
fn message_passing(writer_fence: bool, reader_op: Option<Op>) -> Program {
    let mut writer = vec![Op::Store { loc: 0, val: 1 }];
    writer.extend(writer_fence.then_some(Op::Fence));
    writer.push(Op::Store { loc: 1, val: 1 });
    let mut reader = vec![Op::Load { loc: 1, reg: 0 }];
    reader.extend(reader_op);
    reader.push(Op::Load { loc: 0, reg: 1 });
    Program(vec![writer, reader])
}

/// The §5 anomaly: the reader sees `Y = 1` but `X = 0`.
fn flag_without_data(s: &LitmusState) -> bool {
    s.regs[1][0] == 1 && s.regs[1][1] == 0
}

mod tests {
    use super::*;

    #[test]
    fn message_passing_anomaly_without_fence() {
        assert!(reachable(&message_passing(false, None), flag_without_data));
    }

    #[test]
    fn message_passing_fixed_with_fence() {
        let p = message_passing(true, None);
        assert!(!reachable(&p, flag_without_data));
        // and the sane outcomes remain reachable
        assert!(reachable(&p, |s| s.regs[1] == [1, 1]));
        assert!(reachable(&p, |s| s.regs[1][0] == 0));
    }

    #[test]
    fn reader_fence_alone_insufficient_in_this_model() {
        // A fence waits only on its own buffer: the reader's, with
        // nothing buffered, orders nothing, and the writer's stores
        // still land out of order. Loads are never reordered here, so
        // the writer's fence is the one that matters.
        let p = message_passing(false, Some(Op::Fence));
        assert!(reachable(&p, flag_without_data));
    }

    #[test]
    fn drain_others_acts_as_remote_fence() {
        // The §5.3 handshake: once the reader has waited for every other
        // buffer to drain, the writer's unfenced `X = 1` is in memory.
        let p = message_passing(false, Some(Op::DrainOthers));
        assert!(reachable(&p, |s| s.regs[1][0] == 1));
        assert!(!reachable(&p, flag_without_data));
    }

    #[test]
    fn final_states_have_drained_buffers() {
        let p = message_passing(false, None);
        let landed = |s: &LitmusState| s.mem.shared_load(0) == 1 && s.mem.shared_load(1) == 1;
        assert!(reachable(&p, landed));
        assert!(!reachable(&p, |s| !landed(s)));
    }

    #[test]
    fn store_forwarding_sees_own_stores() {
        let p = Program(vec![vec![
            Op::Store { loc: 0, val: 7 },
            Op::Load { loc: 0, reg: 0 },
        ]]);
        let forwarded = |s: &LitmusState| s.regs[0][0] == 7 && s.mem.shared_load(0) == 7;
        assert!(reachable(&p, forwarded));
        assert!(!reachable(&p, |s| !forwarded(s)));
    }

    #[test]
    fn coherence_same_location_stores_ordered() {
        // Two stores to one location reach memory in program order, so
        // the first can never overwrite the second.
        let p = Program(vec![vec![
            Op::Store { loc: 0, val: 1 },
            Op::Store { loc: 0, val: 2 },
        ]]);
        assert!(reachable(&p, |s| s.mem.shared_load(0) == 2));
        assert!(!reachable(&p, |s| s.mem.shared_load(0) != 2));
    }

    #[test]
    fn fence_blocks_until_buffer_drains() {
        // Store buffering: each thread stores its own location, then
        // loads the other's. A fence between the two holds the load back
        // until the store is in memory, so the loads cannot both miss
        // both stores; without the fences they can.
        let program = |fence: bool| {
            let thread = |own: usize| {
                let mut ops = vec![Op::Store { loc: own, val: 1 }];
                ops.extend(fence.then_some(Op::Fence));
                ops.push(Op::Load {
                    loc: 1 - own,
                    reg: 0,
                });
                ops
            };
            Program(vec![thread(0), thread(1)])
        };
        let both_missed = |s: &LitmusState| s.regs[0][0] == 0 && s.regs[1][0] == 0;
        assert!(reachable(&program(false), both_missed));
        assert!(!reachable(&program(true), both_missed));
        assert!(reachable(&program(true), |s| s.regs[0][0] + s.regs[1][0] == 1));
    }

    #[test]
    fn three_thread_independent_writes_explore_fully() {
        // Two writers to distinct locations: a third thread can see each
        // subset of their stores.
        let p = Program(vec![
            vec![Op::Store { loc: 0, val: 1 }],
            vec![Op::Store { loc: 1, val: 1 }],
            vec![Op::Load { loc: 0, reg: 0 }, Op::Load { loc: 1, reg: 1 }],
        ]);
        for view in [[0, 0], [0, 1], [1, 0], [1, 1]] {
            assert!(
                reachable(&p, |s| s.regs[2] == view),
                "reader view {view:?} unreachable"
            );
        }
    }
}
