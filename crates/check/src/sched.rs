//! The controlled scheduler: exhaustive DFS over every interleaving of a
//! [`Model`]'s atomic steps, with visited-state hashing.
//!
//! A model is an instrumented protocol state machine: its state carries
//! thread program counters, local registers, ghost variables, and a
//! weak-memory substrate ([`crate::mem::WeakMem`]); its successor
//! function enumerates every enabled micro-step (instruction issue or
//! store-buffer flush) of every thread.
//!
//! Safety properties are checked two ways: [`Model::invariant`] runs on
//! every reachable state (e.g. "no packet is acquired twice"), and
//! [`Model::finale`] runs on every final state (e.g. "every produced
//! entry was consumed"). A reachable non-final state with no successors
//! is reported as a deadlock. [`Explorer::reaches`] asks the converse
//! question: does some execution get to a given state at all?

use std::collections::HashSet;
use std::hash::Hash;

/// A protocol state machine explorable by [`Explorer`].
pub trait Model {
    /// Full system state: thread PCs + locals, shared memory, ghosts.
    type State: Clone + Eq + Hash + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Every state reachable from `s` by one atomic micro-step of any
    /// thread (instruction issue or store-buffer flush). A spinning
    /// thread may return `s` itself; the visited set prunes it.
    fn successors(&self, s: &Self::State) -> Vec<Self::State>;

    /// True when every thread has finished and all buffers are drained.
    fn is_final(&self, s: &Self::State) -> bool;

    /// Safety check run on every reachable state.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// Check run on every reachable final state.
    fn finale(&self, s: &Self::State) -> Result<(), String>;
}

/// Result of an exhaustive exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every reachable state satisfied the invariant, every final state
    /// satisfied the finale check, and at least one final state exists.
    Pass {
        /// Distinct states visited.
        states: usize,
        /// Distinct final states reached.
        finals: usize,
    },
    /// A safety violation (invariant, finale, or deadlock) was found.
    Violation {
        /// Distinct states visited before the violation.
        states: usize,
        /// Human-readable description of the violated property.
        message: String,
    },
    /// The state budget was exhausted before the search completed. This
    /// is **not** a pass: unexplored interleavings may still violate a
    /// property. Callers (the `modelcheck` CLI, the soundness CI job)
    /// must treat it as a failure of the run, distinct from both a
    /// verified pass and a found violation.
    Inconclusive {
        /// Distinct states visited when the budget was hit.
        states: usize,
        /// The state budget that was exhausted ([`Explorer::max_states`]).
        budget: usize,
    },
}

impl Outcome {
    /// True for [`Outcome::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }

    /// True for [`Outcome::Violation`].
    pub fn violated(&self) -> bool {
        matches!(self, Outcome::Violation { .. })
    }

    /// True for [`Outcome::Inconclusive`].
    pub fn inconclusive(&self) -> bool {
        matches!(self, Outcome::Inconclusive { .. })
    }
}

/// Exhaustive DFS explorer with a state-count bound.
#[derive(Copy, Clone, Debug)]
pub struct Explorer {
    /// Maximum number of distinct states to visit before giving up.
    pub max_states: usize,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer {
            max_states: 4_000_000,
        }
    }
}

impl Explorer {
    /// Creates an explorer bounded at `max_states` distinct states.
    pub fn new(max_states: usize) -> Explorer {
        Explorer { max_states }
    }

    /// Explores every reachable state of `model`.
    pub fn run<M: Model>(&self, model: &M) -> Outcome {
        let mut visited: HashSet<M::State> = HashSet::new();
        let mut stack = vec![model.initial()];
        let mut finals = 0usize;
        while let Some(state) = stack.pop() {
            if !visited.insert(state.clone()) {
                continue;
            }
            if visited.len() > self.max_states {
                return Outcome::Inconclusive {
                    states: visited.len(),
                    budget: self.max_states,
                };
            }
            if let Err(message) = model.invariant(&state) {
                return Outcome::Violation {
                    states: visited.len(),
                    message,
                };
            }
            if model.is_final(&state) {
                if let Err(message) = model.finale(&state) {
                    return Outcome::Violation {
                        states: visited.len(),
                        message,
                    };
                }
                finals += 1;
                continue;
            }
            let succ = model.successors(&state);
            if succ.is_empty() {
                return Outcome::Violation {
                    states: visited.len(),
                    message: format!("deadlock: non-final state has no successors: {state:?}"),
                };
            }
            stack.extend(succ);
        }
        if finals == 0 {
            return Outcome::Violation {
                states: visited.len(),
                message: "no execution reaches a final state (livelock)".to_string(),
            };
        }
        Outcome::Pass {
            states: visited.len(),
            finals,
        }
    }

    /// True if some reachable state of `model` satisfies `pred`. The
    /// dual of [`Explorer::run`]'s safety checks: it shows that a
    /// protocol's benign outcomes (a deferral, a late card mark) really
    /// occur, so a pass is not a pass only because the model never gets
    /// there. `model`'s own checks are not run.
    ///
    /// # Panics
    /// If the state budget runs out first: an unfinished search answers
    /// neither way.
    pub fn reaches<M: Model>(&self, model: &M, pred: impl Fn(&M::State) -> bool) -> bool {
        let mut visited: HashSet<M::State> = HashSet::new();
        let mut stack = vec![model.initial()];
        while let Some(state) = stack.pop() {
            if !visited.insert(state.clone()) {
                continue;
            }
            assert!(
                visited.len() <= self.max_states,
                "state budget {} exhausted",
                self.max_states
            );
            if pred(&state) {
                return true;
            }
            stack.extend(model.successors(&state));
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial two-counter model: two threads each increment a shared
    /// counter once; final value must be 2 (steps are atomic here).
    struct Counter {
        buggy: bool,
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct CState {
        pcs: [u8; 2],
        value: u8,
        regs: [u8; 2],
    }

    impl Model for Counter {
        type State = CState;

        fn initial(&self) -> CState {
            CState {
                pcs: [0; 2],
                value: 0,
                regs: [0; 2],
            }
        }

        fn successors(&self, s: &CState) -> Vec<CState> {
            let mut out = Vec::new();
            for t in 0..2 {
                let mut n = s.clone();
                match s.pcs[t] {
                    0 if self.buggy => {
                        // read-modify-write split into two steps: racy
                        n.regs[t] = s.value;
                        n.pcs[t] = 1;
                        out.push(n);
                    }
                    0 => {
                        // atomic increment
                        n.value += 1;
                        n.pcs[t] = 2;
                        out.push(n);
                    }
                    1 => {
                        n.value = s.regs[t] + 1;
                        n.pcs[t] = 2;
                        out.push(n);
                    }
                    _ => {}
                }
            }
            out
        }

        fn is_final(&self, s: &CState) -> bool {
            s.pcs.iter().all(|&pc| pc == 2)
        }

        fn invariant(&self, _s: &CState) -> Result<(), String> {
            Ok(())
        }

        fn finale(&self, s: &CState) -> Result<(), String> {
            if s.value == 2 {
                Ok(())
            } else {
                Err(format!("lost update: final value {}", s.value))
            }
        }
    }

    #[test]
    fn atomic_counter_passes() {
        let out = Explorer::default().run(&Counter { buggy: false });
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn split_rmw_loses_an_update() {
        let out = Explorer::default().run(&Counter { buggy: true });
        match out {
            Outcome::Violation { message, .. } => assert!(message.contains("lost update")),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn bound_reports_inconclusive() {
        let out = Explorer::new(2).run(&Counter { buggy: false });
        match out {
            Outcome::Inconclusive { states, budget } => {
                assert_eq!(budget, 2);
                assert!(states > budget, "states {states} should exceed budget");
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
        assert!(!out.passed());
        assert!(!out.violated());
        assert!(out.inconclusive());
    }
}
