//! Partitioned tuple spaces over a VM fleet.
//!
//! A [`ShardedSpace`] splits one logical tuple space into `S` partitions,
//! one per shard of a [`Fleet`].  Tuples and templates route to a
//! partition by the same `(arity, field₀)` hash the [`crate::hashed`]
//! representation buckets by — the partition choice and the in-partition
//! bucket choice are two moduli of one key, so routing never disagrees
//! with matching.
//!
//! Operations run in one of three tiers:
//!
//! * **Local fast path** — the caller runs on the shard that owns the
//!   target partition (or outside any fleet shard entirely).  The op is a
//!   plain [`TupleSpace`] op on the partition: no mailbox, no extra
//!   allocation, byte-for-byte the unsharded code path.
//! * **Routed tier** — the caller runs on a shard of the fleet and every
//!   candidate partition is owned by a *different* shard (one partition
//!   in the common literal-keyed case; two when the arity-only partition
//!   where live-thread-headed tuples land differs).  Deposits ship to the
//!   owner as a fire-and-forget [`Fabric::call_durable`] (applied even by
//!   the shutdown sweep, so a routed `put` is never lost — though the
//!   putting shard's own *non-blocking* probes may miss it until the
//!   owner applies it; see [`ShardedSpace::put`]); blocking reads ship a
//!   *register-and-check* closure per owner (template + shared reply
//!   cell + the caller's wait episode) so the match scan, waiter
//!   registration, and wake all execute with owner-shard locality, and
//!   the caller parks until an owner's reply or a matching deposit wakes
//!   it across the fabric.
//! * **Wild slow path** — the template has no literal first field, so
//!   every partition (including the caller's own) is a candidate.  The op
//!   degrades to the shared-memory protocol over all partitions: correct,
//!   and documented as the tier to avoid in hot loops.
//!
//! Partition data structures are ordinary shared memory, so the routed
//! tier is a *locality* optimization, not a correctness requirement —
//! which is what lets the wild tier and off-fleet callers fall back to
//! direct access.
//!
//! ## Conservation under abandonment
//!
//! A routed `get` removes a tuple on the owner shard while the requester
//! may concurrently time out or be terminated.  The reply cell arbitrates:
//! the owner only removes while the cell is `Waiting`, and a requester
//! that gives up flips the cell to `Abandoned` first (both under the cell
//! mutex), so a removed tuple always has exactly one taker and an
//! abandoned request never strands a removal — the
//! `routed_timeout_conserves_deposits` test drives this race.

use crate::hashed::hash_key;
use crate::template::Template;
use crate::{SpaceKind, TupleSpace};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::fleet::{Fabric, Fleet};
use sting_core::tc;
use sting_sync::{Waiter, WakeReason};
use sting_value::Value;

/// Reply cell for one routed blocking attempt (see module docs on
/// conservation: `Filled` and `Abandoned` are mutually exclusive
/// outcomes decided under the mutex).
enum Reply {
    /// The requester is parked (or about to park) on this attempt.
    Waiting,
    /// The owner matched and (for `get`) removed a tuple; the bindings
    /// belong to the requester.
    Filled(Vec<Value>),
    /// The requester timed out, was cancelled, or retried; the owner
    /// must leave the partition untouched.
    Abandoned,
}

struct ShardedInner {
    /// One parentless partition per shard; index = owning shard.
    partitions: Vec<TupleSpace>,
    /// `None` for single-shard fleets: every op is the local fast path.
    fabric: Option<Arc<Fabric>>,
}

/// A tuple space partitioned across the shards of a [`Fleet`]; clones
/// share the space.
#[derive(Clone)]
pub struct ShardedSpace {
    inner: Arc<ShardedInner>,
}

impl std::fmt::Debug for ShardedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSpace")
            .field("partitions", &self.inner.partitions.len())
            .field("len", &self.len())
            .finish()
    }
}

impl ShardedSpace {
    /// A sharded space over `fleet`, one 64-bucket hashed partition per
    /// shard.  A single-shard fleet yields a space whose every operation
    /// takes the local fast path.
    pub fn new(fleet: &Fleet) -> ShardedSpace {
        ShardedSpace::with_buckets(fleet, 64)
    }

    /// Like [`ShardedSpace::new`] with an explicit per-partition bucket
    /// count.
    pub fn with_buckets(fleet: &Fleet, buckets: usize) -> ShardedSpace {
        ShardedSpace {
            inner: Arc::new(ShardedInner {
                partitions: (0..fleet.len())
                    .map(|_| TupleSpace::with_kind(SpaceKind::Hashed { buckets }))
                    .collect(),
                fabric: fleet.fabric().cloned(),
            }),
        }
    }

    /// Number of partitions (= shards of the owning fleet).
    pub fn partitions(&self) -> usize {
        self.inner.partitions.len()
    }

    /// Tuples stored across all partitions.
    pub fn len(&self) -> usize {
        self.inner.partitions.iter().map(|p| p.len()).sum()
    }

    /// Whether no partition holds a tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tuples stored in one partition (test/diagnostic visibility into
    /// where routing placed a deposit).
    pub fn partition_len(&self, index: usize) -> usize {
        self.inner.partitions[index].len()
    }

    /// Live readers blocked across all partitions (a reader registered in
    /// several partitions counts once per partition).
    pub fn blocked(&self) -> usize {
        self.inner.partitions.iter().map(|p| p.blocked()).sum()
    }

    /// The partition a tuple deposits into.  Mirrors the hashed rep's
    /// bucket rule: a live-thread first field could evaluate to anything,
    /// so such tuples route by arity alone.
    pub fn partition_of_tuple(&self, fields: &[Value]) -> usize {
        let f0 = fields
            .first()
            .filter(|v| v.as_native().is_none_or(|h| h.tag() != "thread"));
        (hash_key(fields.len(), f0) % self.partitions() as u64) as usize
    }

    /// The partitions a template must consult: its literal-keyed
    /// partition plus the arity-only partition where live-thread-headed
    /// tuples land (one entry when they coincide).  `None` means no
    /// usable key — every partition is a candidate (the wild slow path).
    pub fn partitions_of_template(&self, t: &Template) -> Option<Vec<usize>> {
        let n = self.partitions() as u64;
        match t.hash_key() {
            Some((0, v)) => {
                let lit = (hash_key(t.arity(), Some(v)) % n) as usize;
                let wild = (hash_key(t.arity(), None) % n) as usize;
                let mut out = vec![lit];
                if wild != lit {
                    out.push(wild);
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// The calling shard, iff the current thread runs on a VM that is a
    /// shard of *this* space's fleet (pointer identity, not just a shard
    /// index — a thread on some other fleet must not masquerade as local).
    fn local_shard(&self) -> Option<usize> {
        let fabric = self.inner.fabric.as_ref()?;
        let vm = tc::current_vm()?;
        let s = vm.shard_id();
        match fabric.shard_vm(s) {
            Some(shard_vm) if Arc::ptr_eq(&shard_vm, &vm) => Some(s),
            _ => None,
        }
    }

    /// Deposits a passive tuple into its partition.  Cross-shard deposits
    /// ship to the owner (fire-and-forget) so the match scan and any
    /// wake-ups run with owner-shard locality.
    ///
    /// A routed deposit is therefore *asynchronous*: until the owner
    /// applies it, the putting thread's own immediately-following
    /// [`try_get`](ShardedSpace::try_get) / [`try_rd`](ShardedSpace::try_rd)
    /// / [`len`](ShardedSpace::len) can miss the tuple — there is no
    /// cross-shard read-your-writes for non-blocking probes.  Blocking
    /// reads are unaffected (a same-thread `get` after a `put` queues its
    /// owner closure behind the deposit in the same FIFO mailbox; reads
    /// from elsewhere park until the deposit lands and wakes them).  The
    /// deposit itself is never lost: one still in flight at fleet
    /// shutdown is applied by the fabric's shutdown sweep
    /// ([`Fabric::call_durable`]).
    pub fn put(&self, fields: Vec<Value>) {
        let dest = self.partition_of_tuple(&fields);
        match (self.inner.fabric.as_ref(), self.local_shard()) {
            (Some(fabric), Some(me)) if me != dest => {
                let part = self.inner.partitions[dest].clone();
                let vm = tc::current_vm().expect("local_shard implies a current VM");
                fabric.call_durable(&vm, dest, Box::new(move |_vm| part.put(fields)));
            }
            _ => self.inner.partitions[dest].put(fields),
        }
    }

    /// Non-blocking removal across the template's candidate partitions.
    /// May miss a tuple whose routed deposit is still in flight — see
    /// [`ShardedSpace::put`].
    pub fn try_get(&self, template: &Template) -> Option<Vec<Value>> {
        self.try_parts(template, true)
    }

    /// Non-blocking read across the template's candidate partitions.
    /// May miss a tuple whose routed deposit is still in flight — see
    /// [`ShardedSpace::put`].
    pub fn try_rd(&self, template: &Template) -> Option<Vec<Value>> {
        self.try_parts(template, false)
    }

    /// Blocking removal (`in`); see the module docs for which tier runs.
    pub fn get(&self, template: &Template) -> Vec<Value> {
        self.blocking_op(template, true)
    }

    /// Blocking read (`rd`).
    pub fn rd(&self, template: &Template) -> Vec<Value> {
        self.blocking_op(template, false)
    }

    /// [`ShardedSpace::get`] with a timeout.
    pub fn get_timeout(&self, template: &Template, timeout: Duration) -> Option<Vec<Value>> {
        self.blocking_op_deadline(template, true, Some(Instant::now() + timeout))
    }

    /// [`ShardedSpace::rd`] with a timeout.
    pub fn rd_timeout(&self, template: &Template, timeout: Duration) -> Option<Vec<Value>> {
        self.blocking_op_deadline(template, false, Some(Instant::now() + timeout))
    }

    fn candidate_partitions(&self, template: &Template) -> Vec<usize> {
        self.partitions_of_template(template)
            .unwrap_or_else(|| (0..self.partitions()).collect())
    }

    fn try_parts(&self, template: &Template, remove: bool) -> Option<Vec<Value>> {
        for p in self.candidate_partitions(template) {
            let part = &self.inner.partitions[p];
            let got = if remove {
                part.try_get(template)
            } else {
                part.try_rd(template)
            };
            if got.is_some() {
                return got;
            }
        }
        None
    }

    fn blocking_op(&self, template: &Template, remove: bool) -> Vec<Value> {
        loop {
            // `None` without a deadline means the wait episode was
            // cancelled without unwinding this frame; re-arm and retry.
            if let Some(b) = self.blocking_op_deadline(template, remove, None) {
                return b;
            }
        }
    }

    fn blocking_op_deadline(
        &self,
        template: &Template,
        remove: bool,
        deadline: Option<Instant>,
    ) -> Option<Vec<Value>> {
        let parts = self.candidate_partitions(template);
        if let (Some(fabric), Some(me)) = (self.inner.fabric.as_ref(), self.local_shard()) {
            if !parts.is_empty() && parts.iter().all(|&p| p != me) {
                return self.routed_blocking(fabric.clone(), &parts, template, remove, deadline);
            }
        }
        self.direct_blocking(&parts, template, remove, deadline)
    }

    /// The local/wild tier: the [`TupleSpace::blocking_op_deadline`]
    /// protocol generalized over a set of partitions.  Register one wait
    /// episode in every candidate, re-check once to close the deposit
    /// race, then park; a wasted wake (self-served or timed out after a
    /// deposit spent its wake on us) is re-donated to every candidate.
    fn direct_blocking(
        &self,
        parts: &[usize],
        template: &Template,
        remove: bool,
        deadline: Option<Instant>,
    ) -> Option<Vec<Value>> {
        let rewake = |parts: &[usize]| {
            for &p in parts {
                self.inner.partitions[p].rewake_local();
            }
        };
        loop {
            if let Some(b) = self.try_parts(template, remove) {
                return Some(b);
            }
            let w = Waiter::current();
            for &p in parts {
                self.inner.partitions[p].register_local(template, w.clone());
            }
            if let Some(b) = self.try_parts(template, remove) {
                if w.retire() {
                    rewake(parts);
                }
                return Some(b);
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    if w.retire() {
                        rewake(parts);
                    }
                    return None;
                }
            }
            match w.park_until(&Value::sym("tuple-space"), deadline) {
                WakeReason::Woken => {}
                WakeReason::TimedOut | WakeReason::Cancelled => return None,
            }
        }
    }

    /// The routed tier: every candidate partition is owned by a remote
    /// shard, so the match scan, waiter registration, and removal run on
    /// the owners inside fabric calls while the requester parks on the
    /// shipped wait episode.  Per attempt: one direct probe (the shared
    /// memory is coherent; the hops buy locality, not safety), then one
    /// register-and-check closure per owner, all sharing a reply cell
    /// that settles who owns a removed tuple — the first owner to match
    /// fills it, later owners and an abandoning requester see the state
    /// change under the mutex (see module docs on conservation).
    fn routed_blocking(
        &self,
        fabric: Arc<Fabric>,
        parts: &[usize],
        template: &Template,
        remove: bool,
        deadline: Option<Instant>,
    ) -> Option<Vec<Value>> {
        loop {
            if let Some(b) = self.try_parts(template, remove) {
                return Some(b);
            }
            let w = Waiter::current();
            let reply = Arc::new(Mutex::new(Reply::Waiting));
            let vm = tc::current_vm().expect("routed tier implies a current VM");
            for &dest in parts {
                let part = self.inner.partitions[dest].clone();
                let template = template.clone();
                let (w, reply) = (w.clone(), reply.clone());
                fabric.call(
                    &vm,
                    dest,
                    Box::new(move |_vm| {
                        let mut cell = reply.lock();
                        if !matches!(*cell, Reply::Waiting) {
                            return; // answered by a sibling owner, or abandoned
                        }
                        // Register *before* probing (the same order
                        // `direct_blocking` uses): a deposit landing between
                        // a failed probe and a later registration would find
                        // no waiter to wake while the requester is already
                        // parked — the one tuple it will ever match would
                        // slip by.  A registration made moot by the probe
                        // below dies with the episode and is pruned lazily.
                        part.register_local(&template, w.clone());
                        let got = if remove {
                            part.try_get(&template)
                        } else {
                            part.try_rd(&template)
                        };
                        match got {
                            Some(b) => {
                                *cell = Reply::Filled(b);
                                drop(cell);
                                // Self-served: wake the parked requester.  A
                                // failed claim means a concurrent deposit (or
                                // the requester's timeout) already consumed
                                // the episode we just registered; if it was a
                                // deposit, its wake-up was spent on us, so
                                // re-donate one to the partition's remaining
                                // waiters.
                                if !w.wake() {
                                    part.rewake_local();
                                }
                            }
                            None => {
                                // Registered and no match yet: a future
                                // deposit on this owner wakes the requester
                                // across the fabric.
                                drop(cell);
                            }
                        }
                    }),
                );
            }
            let reason = w.park_until(&Value::sym("tuple-space"), deadline);
            // Whatever ended the park: a filled reply is our answer, and
            // anything else abandons this attempt so a late-running owner
            // closure cannot strand a removal.
            let filled = {
                let mut cell = reply.lock();
                match std::mem::replace(&mut *cell, Reply::Abandoned) {
                    Reply::Filled(b) => Some(b),
                    _ => None,
                }
            };
            if let Some(b) = filled {
                return Some(b);
            }
            match reason {
                WakeReason::Woken => {} // a deposit woke us: retry (the probe will see it)
                WakeReason::TimedOut | WakeReason::Cancelled => {
                    if w.retire() {
                        for &p in parts {
                            self.inner.partitions[p].rewake_local();
                        }
                    }
                    return None;
                }
            }
        }
    }

    /// Wraps the space as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("sharded-tuple-space", Arc::new(self.clone()))
    }

    /// Recovers a space from a value.
    pub fn from_value(v: &Value) -> Option<ShardedSpace> {
        v.native_as::<ShardedSpace>().map(|s| (*s).clone())
    }
}
