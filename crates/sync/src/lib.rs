//! # sting-sync — synchronization structures over the STING substrate
//!
//! The paper's thesis is that one small mechanism set — first-class
//! threads, asynchronous state requests, blocking with
//! application-controlled wake-up, and thread stealing — supports *every*
//! common concurrency paradigm.  This crate is that catalogue, built purely
//! on the public substrate API:
//!
//! * [`Future`] — result (fine-grained) parallelism with stealing (§4.1).
//! * [`Stream`] — the synchronizing streams under the Figure 2 sieve.
//! * [`Mutex`] — active/passive-spin mutexes and `with-mutex` (§4.2.1).
//! * [`Semaphore`], [`IVar`], [`Channel`] — the specialized synchronizers
//!   the paper derives from tuple-spaces and dataflow.
//! * [`block_on_group`], [`wait_for_one`], [`race`], [`wait_for_all`] —
//!   speculative (OR-parallel) and barrier (AND-parallel) synchronization
//!   (§4.3, Figure 5).
//! * [`Barrier`] — a cyclic barrier for phased master/slave programs.
//!
//! Every structure blocks through the substrate's wait protocol
//! ([`sting_core::wait`]: generation-tagged wait episodes, consumed
//! exactly once, each park able to carry a deadline), re-exported here as
//! [`Waiter`], [`WaitList`], [`block_until`] and friends.  See DESIGN.md,
//! "Blocking protocol".

#![deny(missing_docs)]

mod barrier;
mod channel;
mod future;
mod group;
mod ivar;
mod mutex;
mod semaphore;
mod stream;

pub use barrier::Barrier;
pub use channel::{Channel, SendChannelError};
pub use future::Future;
pub use group::{block_on_group, block_on_group_timeout, race, wait_for_all, wait_for_one};
pub use ivar::{IVar, WriteIVarError};
pub use mutex::{Mutex, MutexGuard};
pub use semaphore::Semaphore;
pub use sting_core::wait::{
    block_until, block_until_deadline, TimedOut, WaitList, Waiter, WakeReason,
};
pub use stream::{Stream, StreamCursor};
