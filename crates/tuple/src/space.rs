//! First-class tuple spaces.
//!
//! A [`TupleSpace`] is "an abstraction of a synchronizing
//! content-addressable memory".  Unlike C.Linda's single anonymous tuple
//! space, spaces here are denotable objects: they convert to substrate
//! values, can be stored in tuples, and may form an *inheritance
//! hierarchy* — a read that misses in a space continues in its parent.
//!
//! Operations (names follow the paper/Linda):
//!
//! * [`TupleSpace::put`] (`out`) — deposit a passive tuple.
//! * [`TupleSpace::get`] (`in`/the paper's `get`) — blocking removal.
//! * [`TupleSpace::rd`] — blocking read without removal.
//! * [`TupleSpace::spawn`] — deposit an *active* tuple whose fields are
//!   live threads; matching demands (and may steal) their values.

use crate::hashed::HashedRep;
use crate::rep::{CellRep, CountRep, ListOrder, ListRep, SpaceRep, VectorRep};
use crate::template::Template;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::tc::Cx;
use sting_core::vm::Vm;
use sting_sync::{Waiter, WakeReason};
use sting_value::Value;

/// Representation choice for a tuple space (see [`crate::specialize`] for
/// choosing one from a usage pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// General associative storage with `buckets` hash bins.
    Hashed {
        /// Number of hash bins (1 = the global-lock configuration).
        buckets: usize,
    },
    /// FIFO queue.
    Queue,
    /// LIFO stack.
    Stack,
    /// Unordered collection.
    Bag,
    /// Unordered collection without duplicates.
    Set,
    /// Single mutable slot; deposits replace.
    SharedVar,
    /// Counter of empty tuples.
    Semaphore,
    /// Indexed `[index value]` storage with per-slot synchronization.
    Vector,
}

impl Default for SpaceKind {
    fn default() -> SpaceKind {
        SpaceKind::Hashed { buckets: 64 }
    }
}

struct SpaceInner {
    rep: Box<dyn SpaceRep>,
    parent: Option<TupleSpace>,
}

/// A first-class tuple space; clones share the space.
#[derive(Clone)]
pub struct TupleSpace {
    inner: Arc<SpaceInner>,
}

impl std::fmt::Debug for TupleSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleSpace")
            .field("rep", &self.inner.rep.name())
            .field("len", &self.len())
            .finish()
    }
}

impl Default for TupleSpace {
    fn default() -> TupleSpace {
        TupleSpace::new()
    }
}

impl TupleSpace {
    /// A general associative tuple space (64 hash bins).
    pub fn new() -> TupleSpace {
        TupleSpace::with_kind(SpaceKind::default())
    }

    /// A tuple space with an explicit representation.
    pub fn with_kind(kind: SpaceKind) -> TupleSpace {
        TupleSpace::build(kind, None)
    }

    /// A tuple space whose representation is chosen by analysis of its
    /// usage pattern (the paper's type-inference-driven specialization;
    /// see [`crate::specialize`] for the rules).
    pub fn specialized(ops: &[crate::specialize::OpSketch]) -> TupleSpace {
        TupleSpace::with_kind(crate::specialize::infer(ops))
    }

    /// A tuple space inheriting from `parent`: reads that miss here
    /// continue (and block on) the parent chain; deposits stay local.
    pub fn with_parent(kind: SpaceKind, parent: &TupleSpace) -> TupleSpace {
        TupleSpace::build(kind, Some(parent.clone()))
    }

    fn build(kind: SpaceKind, parent: Option<TupleSpace>) -> TupleSpace {
        let rep: Box<dyn SpaceRep> = match kind {
            SpaceKind::Hashed { buckets } => Box::new(HashedRep::new(buckets)),
            SpaceKind::Queue => Box::new(ListRep::new(ListOrder::Fifo, false)),
            SpaceKind::Stack => Box::new(ListRep::new(ListOrder::Lifo, false)),
            SpaceKind::Bag => Box::new(ListRep::new(ListOrder::Unordered, false)),
            SpaceKind::Set => Box::new(ListRep::new(ListOrder::Unordered, true)),
            SpaceKind::SharedVar => Box::new(CellRep::new()),
            SpaceKind::Semaphore => Box::new(CountRep::new(0)),
            SpaceKind::Vector => Box::new(VectorRep::new()),
        };
        TupleSpace {
            inner: Arc::new(SpaceInner { rep, parent }),
        }
    }

    /// The representation's name (e.g. `"hashed(64)"`, `"queue"`).
    pub fn rep_name(&self) -> String {
        self.inner.rep.name()
    }

    /// Tuples stored locally (excluding parents).
    pub fn len(&self) -> usize {
        self.inner.rep.len()
    }

    /// Whether the local space holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deposits a passive tuple (`out` / the paper's `put`).
    pub fn put(&self, fields: Vec<Value>) {
        self.inner.rep.deposit(Arc::new(fields));
    }

    /// Deposits an *active* tuple: each thunk is forked as a stealable
    /// thread, and the tuple's fields are those live threads (the paper's
    /// `spawn TS [E1 E2]`).  Matching against the tuple demands the
    /// threads' values — stealing claimable ones onto the matcher's TCB.
    pub fn spawn(&self, cx: &Cx, thunks: Vec<sting_core::Thunk>) {
        let fields: Vec<Value> = thunks
            .into_iter()
            .map(|thunk| cx.vm().fork_thunk(thunk).to_value())
            .collect();
        self.put(fields);
    }

    /// Like [`TupleSpace::spawn`] from outside the machine.
    pub fn spawn_on_vm(&self, vm: &Arc<Vm>, thunks: Vec<sting_core::Thunk>) {
        let fields: Vec<Value> = thunks
            .into_iter()
            .map(|thunk| vm.fork_thunk(thunk).to_value())
            .collect();
        self.put(fields);
    }

    /// Non-blocking removal: bindings of the first matching tuple, if any.
    pub fn try_get(&self, template: &Template) -> Option<Vec<Value>> {
        self.try_op(template, true)
    }

    /// Non-blocking read.
    pub fn try_rd(&self, template: &Template) -> Option<Vec<Value>> {
        self.try_op(template, false)
    }

    /// Blocking removal (`in`): waits until a matching tuple is deposited.
    pub fn get(&self, template: &Template) -> Vec<Value> {
        self.blocking_op(template, true)
    }

    /// Blocking read (`rd`): like [`TupleSpace::get`] without removal.
    pub fn rd(&self, template: &Template) -> Vec<Value> {
        self.blocking_op(template, false)
    }

    /// [`TupleSpace::get`] with a timeout: `None` if no matching tuple
    /// was deposited within `timeout`.
    pub fn get_timeout(&self, template: &Template, timeout: Duration) -> Option<Vec<Value>> {
        self.blocking_op_deadline(template, true, Some(Instant::now() + timeout))
    }

    /// [`TupleSpace::rd`] with a timeout: `None` if no matching tuple was
    /// deposited within `timeout`.
    pub fn rd_timeout(&self, template: &Template, timeout: Duration) -> Option<Vec<Value>> {
        self.blocking_op_deadline(template, false, Some(Instant::now() + timeout))
    }

    /// Number of live readers blocked on the local space (parents not
    /// counted).
    pub fn blocked(&self) -> usize {
        self.inner.rep.waiting()
    }

    /// Atomically removes a matching tuple, applies `f` to its bindings,
    /// and deposits `f`'s result — the paper's
    /// `(get TS [?x] (put TS [(+ x 1)]))` idiom packaged as a helper.
    pub fn update(&self, template: &Template, f: impl FnOnce(Vec<Value>) -> Vec<Value>) {
        let bindings = self.get(template);
        self.put(f(bindings));
    }

    fn chain(&self) -> Vec<&TupleSpace> {
        let mut out = vec![self];
        let mut cur = self;
        while let Some(p) = &cur.inner.parent {
            out.push(p);
            cur = p;
        }
        out
    }

    fn try_op(&self, template: &Template, remove: bool) -> Option<Vec<Value>> {
        for space in self.chain() {
            for cand in space.inner.rep.snapshot(template) {
                if let Some(bindings) = template.match_tuple(&cand) {
                    if !remove || space.inner.rep.remove_exact(&cand) {
                        return Some(bindings);
                    }
                    // Lost the removal race; keep scanning.
                }
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
        loop {
            if let Some(b) = self.try_op(template, remove) {
                return Some(b);
            }
            // Register one wait episode in every space of the chain, then
            // re-check once to close the deposit race, then park.
            let w = Waiter::current();
            for space in self.chain() {
                space.inner.rep.register(template, w.clone());
            }
            if let Some(b) = self.try_op(template, remove) {
                if w.retire() {
                    // A deposit spent its wake-up on this episode but we
                    // served ourselves by scanning; pass the wake-up on so
                    // one-wake-per-deposit representations lose nothing.
                    self.rewake_chain();
                }
                return Some(b);
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    if w.retire() {
                        self.rewake_chain();
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

    fn rewake_chain(&self) {
        for space in self.chain() {
            space.inner.rep.rewake_one();
        }
    }

    /// Registers a wait episode in this space only (no parent chain) —
    /// the sharded fabric registers per partition, and partitions are
    /// parentless by construction.
    pub(crate) fn register_local(&self, template: &Template, waiter: Waiter) {
        self.inner.rep.register(template, waiter);
    }

    /// Re-donates one wake-up to this space only (no parent chain).
    pub(crate) fn rewake_local(&self) {
        self.inner.rep.rewake_one();
    }

    /// Wraps the space as a substrate value (spaces are first-class).
    pub fn to_value(&self) -> Value {
        Value::native("tuple-space", Arc::new(self.clone()))
    }

    /// Recovers a space from a value.
    pub fn from_value(v: &Value) -> Option<TupleSpace> {
        v.native_as::<TupleSpace>().map(|s| (*s).clone())
    }
}
