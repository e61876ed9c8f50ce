//! Behavioural tests for first-class tuple spaces.

use std::sync::Arc;
use std::time::Duration;
use sting_core::{tc, ThreadState, VmBuilder};
use sting_tuple::{formal, lit, SpaceKind, Template, TupleSpace};
use sting_value::Value;

fn job(n: i64) -> Vec<Value> {
    vec![Value::sym("job"), Value::Int(n)]
}

#[test]
fn put_then_get_binds_formals() {
    let ts = TupleSpace::new();
    ts.put(job(5));
    let b = ts.try_get(&Template::new(vec![lit(Value::sym("job")), formal()]));
    assert_eq!(b, Some(vec![Value::Int(5)]));
    assert!(ts.is_empty(), "get removed the tuple");
}

#[test]
fn rd_does_not_remove() {
    let ts = TupleSpace::new();
    ts.put(job(5));
    let t = Template::new(vec![lit(Value::sym("job")), formal()]);
    assert!(ts.try_rd(&t).is_some());
    assert!(ts.try_rd(&t).is_some());
    assert_eq!(ts.len(), 1);
}

#[test]
fn literal_mismatch_does_not_match() {
    let ts = TupleSpace::new();
    ts.put(job(5));
    assert!(ts
        .try_get(&Template::new(vec![lit(Value::sym("ack")), formal()]))
        .is_none());
    assert!(ts
        .try_get(&Template::new(vec![lit(Value::sym("job")), lit(9)]))
        .is_none());
    assert!(ts
        .try_get(&Template::new(vec![lit(Value::sym("job")), lit(5)]))
        .is_some());
}

#[test]
fn get_blocks_until_put() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    let ts2 = ts.clone();
    let getter = vm.fork(move |_cx| {
        let b = ts2.get(&Template::new(vec![lit(Value::sym("job")), formal()]));
        b[0].clone()
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(!getter.is_determined(), "get must block on empty space");
    ts.put(job(42));
    assert_eq!(getter.join_blocking(), Ok(Value::Int(42)));
    vm.shutdown();
}

/// A `[lit k, ?x]` reader registers in two hash bins (its literal bin and
/// the arity bin), but `blocked()` counts readers, not registrations.
#[test]
fn blocked_counts_each_literal_keyed_reader_once() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    let getters: Vec<_> = (0..8i64)
        .map(|k| {
            let ts = ts.clone();
            vm.fork(move |_cx| ts.get(&Template::new(vec![lit(k), formal()]))[0].clone())
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !getters.iter().all(|t| t.state() == ThreadState::Blocked) {
        assert!(std::time::Instant::now() < deadline, "getters never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(ts.blocked(), 8, "one count per parked reader");
    for k in 0..8i64 {
        ts.put(vec![Value::Int(k), Value::Int(k * 10)]);
    }
    for (k, t) in getters.iter().enumerate() {
        assert_eq!(t.join_blocking(), Ok(Value::Int(k as i64 * 10)));
    }
    assert_eq!(ts.blocked(), 0, "woken readers still counted");
    assert!(ts.is_empty());
    vm.shutdown();
}

#[test]
fn formal_first_field_templates_scan() {
    let ts = TupleSpace::new();
    ts.put(vec![Value::Int(1), Value::sym("a")]);
    ts.put(vec![Value::Int(2), Value::sym("b")]);
    // Template [?x 'b] has a formal first field: must still find the tuple.
    let b = ts
        .try_get(&Template::new(vec![formal(), lit(Value::sym("b"))]))
        .unwrap();
    assert_eq!(b, vec![Value::Int(2)]);
}

#[test]
fn counter_update_idiom() {
    let vm = VmBuilder::new().vps(2).build();
    let ts = TupleSpace::new();
    ts.put(vec![Value::Int(0)]);
    let mut workers = Vec::new();
    for _ in 0..4 {
        let ts = ts.clone();
        workers.push(vm.fork(move |_cx| {
            for _ in 0..50 {
                // (get TS [?x] (put TS [(+ x 1)]))
                ts.update(&Template::any(1), |b| {
                    vec![Value::Int(b[0].as_int().unwrap() + 1)]
                });
            }
            0i64
        }));
    }
    for w in workers {
        w.join_blocking().unwrap();
    }
    let b = ts.try_rd(&Template::any(1)).unwrap();
    assert_eq!(b[0], Value::Int(200));
    vm.shutdown();
}

#[test]
fn spawn_creates_active_tuple_matched_by_demand() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    let ts2 = ts.clone();
    let before = vm.counters().snapshot();
    let r = vm.run(move |cx| {
        ts2.spawn(
            cx,
            vec![
                Box::new(|_cx: &sting_core::Cx| Value::Int(11)),
                Box::new(|_cx: &sting_core::Cx| Value::Int(22)),
            ],
        );
        // Matching demands the threads' values (stealing them if they have
        // not started).
        let b = ts2.get(&Template::new(vec![formal(), formal()]));
        b[0].as_int().unwrap() + b[1].as_int().unwrap()
    });
    assert_eq!(r.unwrap().as_int(), Some(33));
    let d = vm.counters().snapshot().since(&before);
    assert!(d.steals <= 2, "at most both fields stolen");
    vm.shutdown();
}

#[test]
fn spawn_literal_match_against_thread_value() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    let ts2 = ts.clone();
    let r = vm.run(move |cx| {
        ts2.spawn(cx, vec![Box::new(|_cx: &sting_core::Cx| Value::Int(7))]);
        // rd with a literal: the matcher must compute the thread's value
        // and compare.
        let hit = ts2.try_rd(&Template::new(vec![lit(7)])).is_some();
        let miss = ts2.try_rd(&Template::new(vec![lit(8)])).is_some();
        i64::from(hit && !miss)
    });
    assert_eq!(r.unwrap().as_int(), Some(1));
    vm.shutdown();
}

#[test]
fn queue_specialization_is_fifo() {
    let ts = TupleSpace::with_kind(SpaceKind::Queue);
    for i in 0..5i64 {
        ts.put(vec![Value::Int(i)]);
    }
    let order: Vec<i64> = (0..5)
        .map(|_| ts.try_get(&Template::any(1)).unwrap()[0].as_int().unwrap())
        .collect();
    assert_eq!(order, vec![0, 1, 2, 3, 4]);
    assert_eq!(ts.rep_name(), "queue");
}

#[test]
fn stack_specialization_is_lifo() {
    let ts = TupleSpace::with_kind(SpaceKind::Stack);
    for i in 0..3i64 {
        ts.put(vec![Value::Int(i)]);
    }
    let order: Vec<i64> = (0..3)
        .map(|_| ts.try_get(&Template::any(1)).unwrap()[0].as_int().unwrap())
        .collect();
    assert_eq!(order, vec![2, 1, 0]);
}

#[test]
fn set_specialization_dedups() {
    let ts = TupleSpace::with_kind(SpaceKind::Set);
    ts.put(vec![Value::Int(1)]);
    ts.put(vec![Value::Int(1)]);
    ts.put(vec![Value::Int(2)]);
    assert_eq!(ts.len(), 2);
}

#[test]
fn shared_var_replaces() {
    let ts = TupleSpace::with_kind(SpaceKind::SharedVar);
    ts.put(vec![Value::Int(1)]);
    ts.put(vec![Value::Int(2)]);
    assert_eq!(ts.len(), 1);
    assert_eq!(ts.try_rd(&Template::any(1)).unwrap()[0], Value::Int(2));
}

#[test]
fn semaphore_counts_signals() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::with_kind(SpaceKind::Semaphore);
    ts.put(vec![]);
    ts.put(vec![]);
    assert_eq!(ts.len(), 2);
    assert!(ts.try_get(&Template::any(0)).is_some());
    assert!(ts.try_get(&Template::any(0)).is_some());
    assert!(ts.try_get(&Template::any(0)).is_none());
    // Blocking P waits for a V.
    let ts2 = ts.clone();
    let p = vm.fork(move |_cx| {
        ts2.get(&Template::any(0));
        1i64
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(!p.is_determined());
    ts.put(vec![]);
    assert_eq!(p.join_blocking(), Ok(Value::Int(1)));
    vm.shutdown();
}

#[test]
fn vector_specialization_indexes() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::with_kind(SpaceKind::Vector);
    ts.put(vec![Value::Int(3), Value::sym("three")]);
    ts.put(vec![Value::Int(0), Value::sym("zero")]);
    let b = ts.try_rd(&Template::new(vec![lit(3), formal()])).unwrap();
    assert_eq!(b, vec![Value::sym("three")]);
    // Reading an unset slot blocks until written.
    let ts2 = ts.clone();
    let reader = vm.fork(move |_cx| {
        let b = ts2.rd(&Template::new(vec![lit(7), formal()]));
        b[0].clone()
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(!reader.is_determined());
    ts.put(vec![Value::Int(7), Value::sym("seven")]);
    assert_eq!(reader.join_blocking(), Ok(Value::sym("seven")));
    vm.shutdown();
}

#[test]
fn inheritance_falls_back_to_parent() {
    let vm = VmBuilder::new().vps(1).build();
    let parent = TupleSpace::new();
    let child = TupleSpace::with_parent(SpaceKind::default(), &parent);
    parent.put(job(1));
    // Child read sees the parent's tuple.
    assert!(child.try_rd(&Template::any(2)).is_some());
    // Child deposit is not visible to the parent.
    child.put(job(2));
    assert_eq!(parent.len(), 1);
    // Blocking read in the child wakes on a parent deposit.
    let child2 = child.clone();
    let reader = vm.fork(move |_cx| {
        let b = child2.get(&Template::new(vec![lit(Value::sym("late")), formal()]));
        b[0].clone()
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(!reader.is_determined());
    parent.put(vec![Value::sym("late"), Value::Int(9)]);
    assert_eq!(reader.join_blocking(), Ok(Value::Int(9)));
    vm.shutdown();
}

#[test]
fn global_lock_configuration_still_correct() {
    let vm = VmBuilder::new().vps(2).build();
    let ts = TupleSpace::with_kind(SpaceKind::Hashed { buckets: 1 });
    assert_eq!(ts.rep_name(), "hashed(1)");
    let mut workers = Vec::new();
    for w in 0..4i64 {
        let ts = ts.clone();
        workers.push(vm.fork(move |_cx| {
            for i in 0..25 {
                ts.put(vec![Value::Int(w), Value::Int(i)]);
            }
            0i64
        }));
    }
    for w in workers {
        w.join_blocking().unwrap();
    }
    assert_eq!(ts.len(), 100);
    let mut taken = 0;
    while ts
        .try_get(&Template::new(vec![formal(), formal()]))
        .is_some()
    {
        taken += 1;
    }
    assert_eq!(taken, 100);
    vm.shutdown();
}

#[test]
fn master_slave_round_trip() {
    let vm = VmBuilder::new().vps(2).build();
    let ts = TupleSpace::new();
    // Slaves: take ("job" n), publish ("ack" n n²).
    let slaves: Vec<_> = (0..3)
        .map(|_| {
            let ts = ts.clone();
            vm.fork(move |_cx| {
                loop {
                    let b = ts.get(&Template::new(vec![lit(Value::sym("job")), formal()]));
                    let n = b[0].as_int().unwrap();
                    if n < 0 {
                        return 0i64; // poison pill
                    }
                    ts.put(vec![Value::sym("ack"), Value::Int(n), Value::Int(n * n)]);
                }
            })
        })
        .collect();
    for n in 0..20i64 {
        ts.put(job(n));
    }
    let mut total = 0i64;
    for n in 0..20i64 {
        let b = ts.get(&Template::new(vec![
            lit(Value::sym("ack")),
            lit(n),
            formal(),
        ]));
        total += b[0].as_int().unwrap();
    }
    assert_eq!(total, (0..20i64).map(|n| n * n).sum::<i64>());
    for _ in &slaves {
        ts.put(job(-1));
    }
    for s in slaves {
        s.join_blocking().unwrap();
    }
    vm.shutdown();
}

#[test]
fn tuple_space_is_first_class() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    // A tuple space stored *inside* a tuple of another space.
    let registry = TupleSpace::new();
    registry.put(vec![Value::sym("space"), ts.to_value()]);
    let r = {
        let registry = registry.clone();
        vm.run(move |_cx| {
            let b = registry.rd(&Template::new(vec![lit(Value::sym("space")), formal()]));
            let inner = TupleSpace::from_value(&b[0]).unwrap();
            inner.put(vec![Value::Int(123)]);
            1i64
        })
    };
    r.unwrap();
    assert_eq!(ts.try_rd(&Template::any(1)).unwrap()[0], Value::Int(123));
    vm.shutdown();
}

#[test]
fn concurrent_producers_consumers_hashed() {
    let vm = VmBuilder::new().vps(2).processors(2).build();
    let ts = Arc::new(TupleSpace::new());
    let n_jobs = 200i64;
    let producers: Vec<_> = (0..2)
        .map(|p| {
            let ts = ts.clone();
            vm.fork(move |_cx| {
                for i in 0..n_jobs / 2 {
                    ts.put(vec![Value::sym("work"), Value::Int(p * 1000 + i)]);
                }
                0i64
            })
        })
        .collect();
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let ts = ts.clone();
            vm.fork(move |cx| {
                let mut got = 0i64;
                for _ in 0..n_jobs / 2 {
                    ts.get(&Template::new(vec![lit(Value::sym("work")), formal()]));
                    got += 1;
                    cx.checkpoint();
                }
                got
            })
        })
        .collect();
    for p in producers {
        p.join_blocking().unwrap();
    }
    let total: i64 = consumers
        .into_iter()
        .map(|c| c.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(total, n_jobs);
    assert!(ts.is_empty());
    vm.shutdown();
}

#[test]
fn exceptional_thread_field_never_matches() {
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    let ts2 = ts.clone();
    let r = vm.run(move |cx| {
        ts2.spawn(
            cx,
            vec![Box::new(|cx: &sting_core::Cx| -> Value {
                cx.raise(Value::sym("boom"))
            })],
        );
        i64::from(ts2.try_rd(&Template::any(1)).is_none())
    });
    assert_eq!(r.unwrap().as_int(), Some(1));
    vm.shutdown();
}

#[test]
fn threads_as_tuple_fields_via_tc() {
    // Depositing a raw thread value manually (not via spawn) also works.
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::new();
    let ts2 = ts.clone();
    let r = vm.run(move |cx| {
        let t = cx.delayed(|_cx| 99i64);
        ts2.put(vec![Value::sym("lazy"), t.to_value()]);
        let b = ts2.get(&Template::new(vec![lit(Value::sym("lazy")), formal()]));
        // The formal received the thread's *value*.
        b[0].as_int().unwrap()
    });
    assert_eq!(r.unwrap().as_int(), Some(99));
    assert_eq!(vm.counters().snapshot().steals, 1);
    let _ = tc::on_thread();
    vm.shutdown();
}

#[test]
fn specialized_constructor_uses_inference() {
    use sting_tuple::OpSketch;
    // All-formal gets + puts → queue.
    let ts = TupleSpace::specialized(&[
        OpSketch::Put {
            arity: 1,
            int_first: true,
        },
        OpSketch::Get {
            arity: 1,
            all_formal: true,
            int_first_lit: false,
        },
    ]);
    assert_eq!(ts.rep_name(), "queue");
    // Indexed pairs → vector.
    let ts = TupleSpace::specialized(&[
        OpSketch::Put {
            arity: 2,
            int_first: true,
        },
        OpSketch::Rd {
            arity: 2,
            all_formal: false,
            int_first_lit: true,
        },
    ]);
    assert_eq!(ts.rep_name(), "vector");
    // Associative usage → hashed.
    let ts = TupleSpace::specialized(&[OpSketch::Get {
        arity: 2,
        all_formal: false,
        int_first_lit: false,
    }]);
    assert!(ts.rep_name().starts_with("hashed"));
}
