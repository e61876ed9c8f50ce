//! Tuple-space representations.
//!
//! "Tuple-spaces can be specialized as synchronized vectors, queues, sets,
//! shared variables, semaphores, or bags; the operations permitted on
//! tuple-spaces remain invariant over their representation."  Every
//! representation implements [`SpaceRep`]; the general associative
//! representation (the paper's dual hash tables) lives in
//! [`crate::hashed`].
//!
//! ## Locking discipline
//!
//! A full template match may *block* (a tuple field can be a live thread
//! whose value the match demands), and blocking while holding an internal
//! lock would wedge the whole VP.  Representations therefore never match
//! under their locks; the space uses a match-then-remove protocol:
//!
//! 1. [`SpaceRep::snapshot`] — under the lock, collect cheaply-plausible
//!    candidates ([`Template::may_match`]) and release the lock;
//! 2. full-match each candidate outside any lock (may steal/block);
//! 3. for removals, [`SpaceRep::remove_exact`] — re-take the lock and
//!    remove the candidate *by identity*; if another getter won the race,
//!    the match loop simply continues.

use crate::template::Template;
use parking_lot::Mutex;
use std::sync::Arc;
use sting_sync::{WaitList, Waiter};
use sting_value::Value;

/// A stored tuple; identity (`Arc` pointer) is what removal races on.
pub type StoredTuple = Arc<Vec<Value>>;

/// Interface every tuple-space representation implements.
pub trait SpaceRep: Send + Sync {
    /// Representation name (diagnostics; `"queue"`, `"hashed(64)"`, …).
    fn name(&self) -> String;

    /// Number of tuples currently stored.
    fn len(&self) -> usize;

    /// Whether the representation holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deposits a tuple and wakes plausibly-matching blocked readers.
    ///
    /// # Panics
    ///
    /// Specialized representations panic when the tuple violates their
    /// shape contract (e.g. a non-`[index value]` tuple in a vector) —
    /// the specialization was chosen by analysis and a violation is a
    /// program error, as in the paper's typed tuple-spaces.
    fn deposit(&self, tuple: StoredTuple);

    /// Candidates that may match `template` (filtered by
    /// [`Template::may_match`]), in the representation's preferred order.
    fn snapshot(&self, template: &Template) -> Vec<StoredTuple>;

    /// Removes `tuple` by identity; `false` if it was already taken.
    fn remove_exact(&self, tuple: &StoredTuple) -> bool;

    /// Registers a blocked reader to be woken by matching deposits.
    fn register(&self, template: &Template, waiter: Waiter);

    /// Wakes one live blocked reader, if any: used by the space to
    /// re-donate a wake-up it claimed but did not need (it found a tuple
    /// by scanning before parking), so representations that spend exactly
    /// one wake-up per deposit (the semaphore) lose nothing.
    fn rewake_one(&self);

    /// Number of live blocked readers (cancelled and woken episodes do
    /// not count; a reader registered in more than one bin counts once).
    fn waiting(&self) -> usize;
}

/// Element order of a [`ListRep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListOrder {
    /// Oldest first (queue).
    Fifo,
    /// Newest first (stack).
    Lifo,
    /// Unspecified (bag / set).
    Unordered,
}

/// A list-shaped representation: queue, stack, bag or set.
pub struct ListRep {
    order: ListOrder,
    /// Sets reject duplicate tuples on deposit.
    dedup: bool,
    state: Mutex<(Vec<StoredTuple>, WaitList)>,
}

impl ListRep {
    /// Creates a list representation.
    pub fn new(order: ListOrder, dedup: bool) -> ListRep {
        ListRep {
            order,
            dedup,
            state: Mutex::new((Vec::new(), WaitList::new())),
        }
    }
}

impl SpaceRep for ListRep {
    fn name(&self) -> String {
        match (self.order, self.dedup) {
            (ListOrder::Fifo, _) => "queue".to_string(),
            (ListOrder::Lifo, _) => "stack".to_string(),
            (ListOrder::Unordered, true) => "set".to_string(),
            (ListOrder::Unordered, false) => "bag".to_string(),
        }
    }

    fn len(&self) -> usize {
        self.state.lock().0.len()
    }

    fn deposit(&self, tuple: StoredTuple) {
        let mut g = self.state.lock();
        if self.dedup && g.0.iter().any(|t| **t == *tuple) {
            return;
        }
        g.0.push(tuple);
        g.1.wake_all();
    }

    fn snapshot(&self, template: &Template) -> Vec<StoredTuple> {
        let g = self.state.lock();
        let mut v: Vec<StoredTuple> =
            g.0.iter()
                .filter(|t| template.may_match(t))
                .cloned()
                .collect();
        if self.order == ListOrder::Lifo {
            v.reverse();
        }
        v
    }

    fn remove_exact(&self, tuple: &StoredTuple) -> bool {
        let mut g = self.state.lock();
        match g.0.iter().position(|t| Arc::ptr_eq(t, tuple)) {
            Some(i) => {
                g.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn register(&self, _template: &Template, waiter: Waiter) {
        self.state.lock().1.push(waiter);
    }

    fn rewake_one(&self) {
        self.state.lock().1.wake_one();
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }
}

/// A shared variable: holds at most one tuple; deposits replace it.
pub struct CellRep {
    state: Mutex<(Option<StoredTuple>, WaitList)>,
}

impl CellRep {
    /// Creates an empty shared variable.
    pub fn new() -> CellRep {
        CellRep {
            state: Mutex::new((None, WaitList::new())),
        }
    }
}

impl Default for CellRep {
    fn default() -> CellRep {
        CellRep::new()
    }
}

impl SpaceRep for CellRep {
    fn name(&self) -> String {
        "shared-variable".to_string()
    }

    fn len(&self) -> usize {
        usize::from(self.state.lock().0.is_some())
    }

    fn deposit(&self, tuple: StoredTuple) {
        let mut g = self.state.lock();
        g.0 = Some(tuple);
        g.1.wake_all();
    }

    fn snapshot(&self, template: &Template) -> Vec<StoredTuple> {
        let g = self.state.lock();
        g.0.iter()
            .filter(|t| template.may_match(t))
            .cloned()
            .collect()
    }

    fn remove_exact(&self, tuple: &StoredTuple) -> bool {
        let mut g = self.state.lock();
        if g.0.as_ref().is_some_and(|t| Arc::ptr_eq(t, tuple)) {
            g.0 = None;
            true
        } else {
            false
        }
    }

    fn register(&self, _template: &Template, waiter: Waiter) {
        self.state.lock().1.push(waiter);
    }

    fn rewake_one(&self) {
        self.state.lock().1.wake_one();
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }
}

/// A semaphore: counts empty (arity-0) tuples.
pub struct CountRep {
    state: Mutex<(usize, WaitList)>,
    empty: StoredTuple,
}

impl CountRep {
    /// Creates a semaphore representation holding `initial` signals.
    pub fn new(initial: usize) -> CountRep {
        CountRep {
            state: Mutex::new((initial, WaitList::new())),
            empty: Arc::new(Vec::new()),
        }
    }
}

impl SpaceRep for CountRep {
    fn name(&self) -> String {
        "semaphore".to_string()
    }

    fn len(&self) -> usize {
        self.state.lock().0
    }

    fn deposit(&self, tuple: StoredTuple) {
        assert!(
            tuple.is_empty(),
            "semaphore tuple-space holds only empty tuples; got arity {}",
            tuple.len()
        );
        let mut g = self.state.lock();
        g.0 += 1;
        g.1.wake_one();
    }

    fn snapshot(&self, template: &Template) -> Vec<StoredTuple> {
        if template.arity() != 0 {
            return Vec::new();
        }
        let g = self.state.lock();
        if g.0 > 0 {
            vec![self.empty.clone()]
        } else {
            Vec::new()
        }
    }

    fn remove_exact(&self, _tuple: &StoredTuple) -> bool {
        let mut g = self.state.lock();
        if g.0 > 0 {
            g.0 -= 1;
            true
        } else {
            false
        }
    }

    fn register(&self, _template: &Template, waiter: Waiter) {
        self.state.lock().1.push(waiter);
    }

    fn rewake_one(&self) {
        self.state.lock().1.wake_one();
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }
}

/// A synchronized vector: tuples are `[index value]`; reads of an unset
/// index block until it is written (I-structure semantics per slot).
pub struct VectorRep {
    state: Mutex<(Vec<Option<StoredTuple>>, WaitList)>,
}

impl VectorRep {
    /// Creates an empty synchronized vector (grows on demand).
    pub fn new() -> VectorRep {
        VectorRep {
            state: Mutex::new((Vec::new(), WaitList::new())),
        }
    }

    fn index_of(tuple: &[Value]) -> usize {
        assert!(
            tuple.len() == 2,
            "vector tuple-space holds [index value] pairs; got arity {}",
            tuple.len()
        );
        let i = tuple[0]
            .as_int()
            .expect("vector tuple-space index must be an integer");
        usize::try_from(i).expect("vector tuple-space index must be non-negative")
    }
}

impl Default for VectorRep {
    fn default() -> VectorRep {
        VectorRep::new()
    }
}

impl SpaceRep for VectorRep {
    fn name(&self) -> String {
        "vector".to_string()
    }

    fn len(&self) -> usize {
        self.state.lock().0.iter().flatten().count()
    }

    fn deposit(&self, tuple: StoredTuple) {
        let i = VectorRep::index_of(&tuple);
        let mut g = self.state.lock();
        if g.0.len() <= i {
            g.0.resize(i + 1, None);
        }
        g.0[i] = Some(tuple);
        g.1.wake_all();
    }

    fn snapshot(&self, template: &Template) -> Vec<StoredTuple> {
        let g = self.state.lock();
        // Fast path: indexed lookup when the template pins the index.
        if let Some((0, v)) = template.hash_key() {
            if let Some(i) = v.as_int().and_then(|i| usize::try_from(i).ok()) {
                return g
                    .0
                    .get(i)
                    .and_then(|s| s.clone())
                    .filter(|t| template.may_match(t))
                    .into_iter()
                    .collect();
            }
        }
        g.0.iter()
            .flatten()
            .filter(|t| template.may_match(t))
            .cloned()
            .collect()
    }

    fn remove_exact(&self, tuple: &StoredTuple) -> bool {
        let i = VectorRep::index_of(tuple);
        let mut g = self.state.lock();
        if g.0
            .get(i)
            .is_some_and(|s| s.as_ref().is_some_and(|t| Arc::ptr_eq(t, tuple)))
        {
            g.0[i] = None;
            true
        } else {
            false
        }
    }

    fn register(&self, _template: &Template, waiter: Waiter) {
        self.state.lock().1.push(waiter);
    }

    fn rewake_one(&self) {
        self.state.lock().1.wake_one();
    }

    fn waiting(&self) -> usize {
        self.state.lock().1.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{formal, lit, Template};
    use sting_value::Value;

    fn tup(items: &[i64]) -> StoredTuple {
        Arc::new(items.iter().map(|&i| Value::Int(i)).collect())
    }

    #[test]
    fn list_rep_orders() {
        let fifo = ListRep::new(ListOrder::Fifo, false);
        let lifo = ListRep::new(ListOrder::Lifo, false);
        for i in 0..3 {
            fifo.deposit(tup(&[i]));
            lifo.deposit(tup(&[i]));
        }
        let t = Template::any(1);
        assert_eq!(fifo.snapshot(&t)[0][0], Value::Int(0), "fifo oldest first");
        assert_eq!(lifo.snapshot(&t)[0][0], Value::Int(2), "lifo newest first");
    }

    #[test]
    fn set_rep_dedups_but_bag_does_not() {
        let set = ListRep::new(ListOrder::Unordered, true);
        let bag = ListRep::new(ListOrder::Unordered, false);
        for _ in 0..3 {
            set.deposit(tup(&[7]));
            bag.deposit(tup(&[7]));
        }
        assert_eq!(set.len(), 1);
        assert_eq!(bag.len(), 3);
    }

    #[test]
    fn remove_exact_is_identity_based() {
        let rep = ListRep::new(ListOrder::Fifo, false);
        let a = tup(&[1]);
        let b = tup(&[1]); // equal contents, different identity
        rep.deposit(a.clone());
        assert!(!rep.remove_exact(&b), "equal-but-distinct must not remove");
        assert!(rep.remove_exact(&a));
        assert!(!rep.remove_exact(&a), "second removal fails");
    }

    #[test]
    fn cell_rep_replaces() {
        let cell = CellRep::new();
        cell.deposit(tup(&[1]));
        cell.deposit(tup(&[2]));
        assert_eq!(cell.len(), 1);
        let t = Template::any(1);
        assert_eq!(cell.snapshot(&t)[0][0], Value::Int(2));
    }

    #[test]
    fn count_rep_counts() {
        let sem = CountRep::new(1);
        assert_eq!(sem.len(), 1);
        sem.deposit(Arc::new(Vec::new()));
        assert_eq!(sem.len(), 2);
        let t = Template::any(0);
        let snap = sem.snapshot(&t);
        assert_eq!(snap.len(), 1);
        assert!(sem.remove_exact(&snap[0]));
        assert!(sem.remove_exact(&snap[0]));
        assert!(!sem.remove_exact(&snap[0]), "empty semaphore");
    }

    #[test]
    #[should_panic(expected = "semaphore tuple-space holds only empty tuples")]
    fn count_rep_rejects_nonempty() {
        CountRep::new(0).deposit(tup(&[1]));
    }

    #[test]
    fn vector_rep_indexes_and_replaces() {
        let v = VectorRep::new();
        v.deposit(tup(&[2, 20]));
        v.deposit(tup(&[0, 0]));
        v.deposit(tup(&[2, 99])); // replaces index 2
        assert_eq!(v.len(), 2);
        let t = Template::new(vec![lit(2), formal()]);
        let snap = v.snapshot(&t);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0][1], Value::Int(99));
    }

    #[test]
    #[should_panic(expected = "vector tuple-space holds [index value] pairs")]
    fn vector_rep_rejects_bad_arity() {
        VectorRep::new().deposit(tup(&[1, 2, 3]));
    }
}
