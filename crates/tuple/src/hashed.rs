//! The general associative representation: the paper's dual hash tables.
//!
//! Tuples hash on `(arity, field₀)` into one of N buckets; a bucket holds
//! both the passive tuples (the paper's H_P) and the readers blocked on
//! templates with a literal first field (H_B).  Readers whose first field
//! is a formal cannot be bucketed and live in a per-space "wild" list.
//!
//! "The implementation minimizes synchronization overhead by associating a
//! mutex with every hash bin rather than having a global mutex on the
//! entire hash table" — construct with `buckets = 1` to get the global-lock
//! strawman the shape experiment compares against.

use crate::rep::{SpaceRep, StoredTuple};
use crate::template::Template;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use sting_sync::Waiter;
use sting_value::Value;

struct Blocked {
    template: Template,
    waiter: Waiter,
}

#[derive(Default)]
struct Bucket {
    /// H_P: passive tuples in this bin.
    tuples: Vec<StoredTuple>,
    /// H_B: readers blocked on templates hashing to this bin.
    blocked: Vec<Blocked>,
}

/// The fully associative representation (see module docs).
pub struct HashedRep {
    buckets: Vec<Mutex<Bucket>>,
    /// Readers whose template has no literal first field.
    wild: Mutex<Vec<Blocked>>,
}

/// The routing hash shared by the in-rep buckets and the cross-shard
/// partition map ([`crate::sharded`]): both address by `(arity, field₀)`,
/// so a sharded space's partition choice and the partition rep's bucket
/// choice are two moduli of the same key.
pub(crate) fn hash_key(arity: usize, f0: Option<&Value>) -> u64 {
    let mut h = DefaultHasher::new();
    arity.hash(&mut h);
    if let Some(v) = f0 {
        v.hash(&mut h);
    }
    h.finish()
}

impl HashedRep {
    /// Creates a representation with `buckets` bins (minimum 1).
    pub fn new(buckets: usize) -> HashedRep {
        let n = buckets.max(1);
        HashedRep {
            buckets: (0..n).map(|_| Mutex::new(Bucket::default())).collect(),
            wild: Mutex::new(Vec::new()),
        }
    }

    fn bucket_of_tuple(&self, tuple: &[Value]) -> usize {
        // A live-thread first field could evaluate to anything, so such
        // tuples are findable only via the scan path; hash them by arity.
        let f0 = tuple
            .first()
            .filter(|v| v.as_native().is_none_or(|h| h.tag() != "thread"));
        (hash_key(tuple.len(), f0) % self.buckets.len() as u64) as usize
    }

    /// Buckets a template must consult: its literal-keyed bucket plus the
    /// arity-only bucket where tuples with a live-thread first field live.
    /// `None` means "no usable key — scan everything".
    fn buckets_of_template(&self, t: &Template) -> Option<Vec<usize>> {
        match t.hash_key() {
            Some((0, v)) => {
                let lit = (hash_key(t.arity(), Some(v)) % self.buckets.len() as u64) as usize;
                let wildcard = (hash_key(t.arity(), None) % self.buckets.len() as u64) as usize;
                let mut v = vec![lit];
                if wildcard != lit {
                    v.push(wildcard);
                }
                Some(v)
            }
            _ => None,
        }
    }
}

impl SpaceRep for HashedRep {
    fn name(&self) -> String {
        format!("hashed({})", self.buckets.len())
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().tuples.len()).sum()
    }

    fn deposit(&self, tuple: StoredTuple) {
        let idx = self.bucket_of_tuple(&tuple);
        let wake: Vec<Waiter> = {
            let mut b = self.buckets[idx].lock();
            b.tuples.push(tuple.clone());
            // Wake (and deregister) blocked readers whose template could
            // match the new tuple; they re-run their match loop.
            let mut wake = Vec::new();
            b.blocked.retain(|bl| {
                if bl.template.may_match(&tuple) {
                    wake.push(bl.waiter.clone());
                    false
                } else {
                    true
                }
            });
            wake
        };
        let wake_wild: Vec<Waiter> = {
            let mut w = self.wild.lock();
            let mut wake = Vec::new();
            w.retain(|bl| {
                if bl.template.may_match(&tuple) {
                    wake.push(bl.waiter.clone());
                    false
                } else {
                    true
                }
            });
            wake
        };
        for w in wake.into_iter().chain(wake_wild) {
            w.wake();
        }
    }

    fn snapshot(&self, template: &Template) -> Vec<StoredTuple> {
        match self.buckets_of_template(template) {
            Some(idxs) => {
                let mut out = Vec::new();
                for i in idxs {
                    let b = self.buckets[i].lock();
                    out.extend(b.tuples.iter().filter(|t| template.may_match(t)).cloned());
                }
                out
            }
            None => {
                // No usable hash key: scan every bin (one lock at a time).
                let mut out = Vec::new();
                for b in &self.buckets {
                    let g = b.lock();
                    out.extend(g.tuples.iter().filter(|t| template.may_match(t)).cloned());
                }
                out
            }
        }
    }

    fn remove_exact(&self, tuple: &StoredTuple) -> bool {
        let idx = self.bucket_of_tuple(tuple);
        let mut b = self.buckets[idx].lock();
        match b.tuples.iter().position(|t| Arc::ptr_eq(t, tuple)) {
            Some(i) => {
                b.tuples.remove(i);
                true
            }
            None => false,
        }
    }

    fn register(&self, template: &Template, waiter: Waiter) {
        let blocked = Blocked {
            template: template.clone(),
            waiter,
        };
        match self.buckets_of_template(template) {
            Some(idxs) => {
                for i in idxs {
                    self.buckets[i].lock().blocked.push(Blocked {
                        template: blocked.template.clone(),
                        waiter: blocked.waiter.clone(),
                    });
                }
            }
            None => self.wild.lock().push(blocked),
        }
    }

    fn rewake_one(&self) {
        // Scan for one claimable reader; dead entries (cancelled, timed
        // out, or the duplicate registration of an already-woken reader)
        // are pruned along the way.
        for b in &self.buckets {
            let mut g = b.lock();
            let mut woken = false;
            g.blocked.retain(|bl| {
                if woken {
                    return true;
                }
                woken = bl.waiter.wake();
                false
            });
            if woken {
                return;
            }
        }
        let mut w = self.wild.lock();
        let mut woken = false;
        w.retain(|bl| {
            if woken {
                return true;
            }
            woken = bl.waiter.wake();
            false
        });
    }

    fn waiting(&self) -> usize {
        // A literal-keyed reader is registered in both bins of
        // `buckets_of_template`, so count distinct live episodes, not
        // registrations.
        let mut live: Vec<Waiter> = Vec::new();
        let mut note = |bl: &Blocked| {
            if bl.waiter.is_live() && !live.iter().any(|w| w.same_episode(&bl.waiter)) {
                live.push(bl.waiter.clone());
            }
        };
        for b in &self.buckets {
            b.lock().blocked.iter().for_each(&mut note);
        }
        self.wild.lock().iter().for_each(&mut note);
        live.len()
    }
}
