//! Work packet management (paper §4): load balancing for a *dynamic* set
//! of tracing threads.
//!
//! A work packet is a small mark stack. Threads obtain an *input* packet
//! (pop only) and an *output* packet (push only) from a global pool of
//! occupancy-classified sub-pools, so the volume of marked objects is
//! distributed fairly among however many threads are currently tracing —
//! which, for an incremental collector, can be every allocating mutator
//! at once. The mechanism differs from stealing-based load balancers on
//! three points the paper calls out:
//!
//! 1. input and output are separated and threads compete for input;
//! 2. synchronization is a single compare-and-swap per get/put on a
//!    tagged (ABA-safe) list head;
//! 3. the tracing state — overflow, underflow, termination — falls out of
//!    the sub-pool packet counters ([`PacketPool::is_tracing_complete`]).
//!
//! # Example
//!
//! ```
//! use mcgc_packets::{PacketPool, PoolConfig, PushOutcome, WorkBuffer};
//!
//! let pool: PacketPool<u64> = PacketPool::new(PoolConfig::default());
//! let mut tracer = WorkBuffer::new(&pool);
//! assert_eq!(tracer.push(7), PushOutcome::Pushed);
//! assert_eq!(tracer.pop(), Some(7));
//!
//! // Tracing loops move entries in bulk: pop a batch, gather the
//! // children it marks into a local grey buffer, push that in one call.
//! let mut grey = vec![1, 2, 3];
//! tracer.push_many(&mut grey, |_overflowed| unreachable!("pool has room"));
//! assert!(grey.is_empty());
//! let mut batch = Vec::new();
//! assert_eq!(tracer.pop_many(&mut batch, 64), 3);
//! assert_eq!(batch, [3, 2, 1]);
//! tracer.finish();
//! assert!(pool.is_tracing_complete());
//! ```

pub mod pool;
pub mod tracer;

pub use pool::{Packet, PacketPool, PoolConfig, PoolStats, SubPoolKind};
pub use tracer::{PushOutcome, WorkBuffer};
