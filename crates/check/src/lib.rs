//! A schedule-exploring model checker for the collector's concurrency
//! protocols — proofs-by-exhaustion that the paper's fences and CAS
//! discipline, and every lock-free protocol the repo has grown since,
//! are all load-bearing.
//!
//! The substrate:
//!
//! * [`sched`] — a loom-style controlled scheduler: exhaustive DFS over
//!   every interleaving of a protocol state machine's micro-steps, with
//!   visited-state hashing. A bounded search that runs out of budget
//!   reports [`Outcome::Inconclusive`] — never a silent pass;
//! * [`mem`] — the weak-memory substrate (per-thread store buffers for
//!   plain data, sequentially-consistent-but-not-fencing synchronization
//!   locations, §5-style fences and handshakes);
//! * [`locks`] — blocking-primitive building blocks: condvar waiter
//!   sets with real sleeping (lost wakeups become deadlocks the
//!   explorer reports) and the collapsed-critical-section reduction the
//!   lock-based models use.
//!
//! Two test-only modules run straight-line litmus programs on the same
//! substrate: `litmus` shows the §5.1 and §5.3 anomalies at their
//! smallest, next to the fence or handshake that removes each, and
//! `weaksim` checks the store-buffer rules themselves on whole programs.
//!
//! The model inventory, one per protocol the tree ships:
//!
//! * [`pool_model`] — the §4 packet-pool transitions (tagged-CAS
//!   push/pop, §5.1 publication fence, §4.3 after-the-op counters);
//! * [`alloc_model`] — §5.2 allocation publication: one fence before an
//!   allocation cache's bits, and the tracer's bit test and deferral;
//! * [`barrier_model`] — the §2/§5.3 kickoff/write-barrier/
//!   card-snapshot protocol, and the barrier's card elision for stores
//!   into the caller's unpublished objects;
//! * [`sched_model`] — the unified GC scheduler's session/bucket
//!   protocol: one-wakeup session open, sequence-number bucket publish
//!   with no per-phase notify, claims-based drain guard, worker
//!   panic-abort, park/shutdown races, and §4.3 termination with a
//!   condemned packet (`crates/core/src/scheduler.rs`; subsumes the
//!   retired PR 5 gang model — epoch dispatch and drop-guard barriers
//!   became bucket publishes and drain guards);
//! * [`seqlock_model`] — the PR 6 flight-recorder seqlock slot
//!   (`crates/telemetry/src/spans.rs`; this model is what surfaced the
//!   missing release fence the telemetry rings shipped without);
//! * [`shard_model`] — the PR 4 sharded free-list refill protocol:
//!   home alloc, occupancy-masked steal, wilderness refill, lazy-sweep
//!   deal-in (`crates/heap/src/shards.rs`).
//!
//! Every model has a **mutation mode** ([`pool_model::PoolMutation`],
//! [`alloc_model::AllocMutation`], [`barrier_model::BarrierMutation`],
//! [`sched_model::SchedMutation`],
//! [`seqlock_model::SeqlockMutation`], [`shard_model::ShardMutation`])
//! that deletes one fence, tag check, handshake, notification, unwind
//! guard, or ordering rule; the checker must find the resulting bug,
//! proving it has teeth — and each enum's `ALL` table backs a meta-test
//! asserting no mutation is vacuous. Run the whole matrix with
//! `cargo run -p mcgc-check` (see `src/bin/modelcheck.rs`, honoring
//! `MCGC_MODELCHECK_BUDGET`), or the unit tests with
//! `cargo test -p mcgc-check`.

pub mod alloc_model;
pub mod barrier_model;
#[cfg(test)]
mod litmus;
pub mod locks;
pub mod mem;
pub mod pool_model;
pub mod sched;
pub mod sched_model;
pub mod seqlock_model;
pub mod shard_model;
#[cfg(test)]
mod weaksim;

pub use alloc_model::{AllocModel, AllocMutation};
pub use barrier_model::{BarrierModel, BarrierMutation, BarrierScene};
pub use mem::WeakMem;
pub use pool_model::{PoolModel, PoolMutation, Role};
pub use sched::{Explorer, Model, Outcome};
pub use sched_model::{SchedModel, SchedMutation};
pub use seqlock_model::{SeqlockModel, SeqlockMutation};
pub use shard_model::{ShardModel, ShardMutation, ShardRole};
