//! `fork-join`: seeded, irregular future trees on one 2-VP VM, through the
//! Rust API only, from [`CLIENTS`] closed-loop clients.
//!
//! Each op evaluates one tree, timed from its fork to its join.  An inner node spawns all children but the
//! first with `Cx::fork`, `Future::spawn` or `Future::delay`, evaluates
//! the first inline, then joins the rest with `Cx::touch`,
//! `Future::touch` or `Future::force` — so touches find children running,
//! queued (stolen onto the toucher) or not yet started.  Leaves burn a
//! seeded amount of CPU; a seeded share of them also add into an
//! accumulator under a `sting_sync::Mutex`.

use crate::measure::{self, Meter, Rng};
use crate::trace::span;
use crate::{Outcome, SETUPS};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting::prelude::*;

/// Distinct trees generated per seed; ops cycle through them.  Enough
/// that each seed's mix of tree sizes is close to the distribution's.
const TREES: usize = 1024;
/// Leaves per tree, drawn uniformly.
const MIN_LEAVES: u64 = 8;
const MAX_LEAVES: u64 = 64;
/// Closed-loop clients, each with one tree in flight: two keep both VPs
/// busy between one tree's join and the next one's fork.
const CLIENTS: usize = 2;
/// Share of leaves that update the mutex-protected accumulator.
const LOCKED_SHARE: f64 = 0.2;

#[derive(Clone, Copy)]
enum Spawn {
    Fork,
    Eager,
    Lazy,
}

enum Node {
    Leaf { work: u64, locked: bool },
    Inner { how: Spawn, kids: Vec<Arc<Node>> },
}

/// A tree with exactly `leaves` leaves: each inner node splits its
/// budget at random among 2..=4 children.
fn gen_node(rng: &mut Rng, leaves: u64) -> Arc<Node> {
    if leaves == 1 {
        return Arc::new(Node::Leaf {
            work: rng.range(200, 4000),
            locked: rng.chance(LOCKED_SHARE),
        });
    }
    let fanout = rng.range(2, 4).min(leaves);
    // Cut points split `leaves` into `fanout` non-empty parts.
    let mut cuts: Vec<u64> = Vec::new();
    while (cuts.len() as u64) < fanout - 1 {
        let c = rng.range(1, leaves - 1);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    cuts.push(leaves);
    let mut prev = 0;
    let kids = cuts
        .into_iter()
        .map(|c| {
            let k = gen_node(rng, c - prev);
            prev = c;
            k
        })
        .collect();
    let how = match rng.range(0, 2) {
        0 => Spawn::Fork,
        1 => Spawn::Eager,
        _ => Spawn::Lazy,
    };
    Arc::new(Node::Inner { how, kids })
}

/// A leaf's CPU work: `work` rounds of an LCG, returning a 16-bit digest.
pub fn spin(work: u64) -> i64 {
    let mut x = work;
    for _ in 0..work {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x >> 48) as i64
}

/// The sequential reference: a tree's value and its locked leaves' sum.
fn reference(node: &Node) -> (i64, i64) {
    match node {
        Node::Leaf { work, locked } => {
            let v = spin(*work);
            (v, if *locked { v } else { 0 })
        }
        Node::Inner { kids, .. } => kids.iter().fold((1, 0), |(v, l), k| {
            let (kv, kl) = reference(k);
            (v + kv, l + kl)
        }),
    }
}

struct Shared {
    lock: Mutex,
    /// Updated only under `lock`, with a plain load-then-store: a mutex
    /// that failed to exclude would lose updates and fail the check.
    acc: AtomicI64,
}

fn eval(cx: &Cx, node: &Arc<Node>, sh: &Arc<Shared>, parent: u64, op: u64) -> i64 {
    match &**node {
        Node::Leaf { work, locked } => {
            let v = spin(*work);
            if *locked {
                let guard = span("sync.mutex", parent, op, |_| sh.lock.acquire());
                let cur = sh.acc.load(Ordering::Relaxed);
                sh.acc.store(cur + v, Ordering::Relaxed);
                drop(guard);
            }
            v
        }
        Node::Inner { how, kids } => {
            let mut pending = Vec::with_capacity(kids.len() - 1);
            for kid in &kids[1..] {
                let (kid, sh2) = (kid.clone(), sh.clone());
                let vm = cx.vm();
                let f = span("core.fork", parent, op, |id| {
                    let body = move |cx: &Cx| eval(cx, &kid, &sh2, id, op);
                    match how {
                        Spawn::Fork => Future::from(cx.fork(body)),
                        Spawn::Eager => Future::spawn(cx, body),
                        Spawn::Lazy => Future::delay(&vm, body),
                    }
                });
                pending.push(f);
            }
            let mut sum = 1 + eval(cx, &kids[0], sh, parent, op);
            for f in pending {
                let v = match how {
                    Spawn::Fork => span("core.touch", parent, op, |_| cx.touch(f.thread())),
                    Spawn::Eager => span("core.touch", parent, op, |_| f.touch()),
                    Spawn::Lazy => Ok(span("sync.force", parent, op, |_| f.force(cx))),
                };
                sum += v.ok().and_then(|v| v.as_int()).unwrap_or(i64::MIN / 4);
            }
            sum
        }
    }
}

/// One closed-loop client with one tree in flight: ops `first`,
/// `first + CLIENTS`, ... until `deadline`.  Returns what it measured and
/// the sum its trees' locked leaves added to the accumulator.
fn client(
    vm: &Arc<Vm>,
    sh: &Arc<Shared>,
    trees: &[(Arc<Node>, i64, i64)],
    meter: &Meter,
    first: u64,
    deadline: Instant,
) -> (Outcome, i64) {
    let mut out = Outcome::default();
    let mut acc = 0;
    let mut op = first;
    while Instant::now() < deadline {
        let (tree, want, locked) = &trees[op as usize % TREES];
        op += CLIENTS as u64;
        let (tree, sh) = (tree.clone(), sh.clone());
        let t0 = Instant::now();
        let got = span("forkjoin.tree", 0, op, |id| {
            vm.fork(move |cx| eval(cx, &tree, &sh, id, op))
                .join_blocking()
        });
        let t1 = Instant::now();
        out.attempted += 1;
        acc += locked;
        match got.ok().and_then(|v| v.as_int()) {
            Some(v) if v == *want => out.done.push((meter.at(t1), (t1 - t0).as_secs_f64() * 1e6)),
            other => {
                out.failed += 1;
                out.errors
                    .push(format!("tree op {op}: got {other:?}, want {want}"));
            }
        }
    }
    (out, acc)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut rng = Rng::new(seed, 1);
    let trees: Vec<(Arc<Node>, i64, i64)> = (0..TREES)
        .map(|_| {
            let leaves = rng.range(MIN_LEAVES, MAX_LEAVES);
            let t = gen_node(&mut rng, leaves);
            let (v, l) = reference(&t);
            (t, v, l)
        })
        .collect();

    let mut out = Outcome::default();
    crate::trace::sample_every(16);
    let mut vm = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let v = span("core.vm_build", 0, 0, |_| {
            VmBuilder::new()
                .vps(2)
                .trace(traced)
                .name("fork-join")
                .build()
        });
        out.setups_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            span("core.shutdown", 0, 0, |_| v.shutdown());
        } else {
            vm = Some(v);
        }
    }
    let vm = vm.expect("at least one setup");
    let sh = Arc::new(Shared {
        lock: Mutex::default(),
        acc: AtomicI64::new(0),
    });

    let c0 = vm.counters().snapshot();
    let meter = Meter::start(seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let runs: Vec<(Outcome, i64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (vm, sh, trees, meter) = (&vm, &sh, &trees, &meter);
                scope.spawn(move || client(vm, sh, trees, meter, c, deadline))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("fork-join client panicked"))
            .collect()
    });
    let mut expect_acc = 0i64;
    for (run, acc) in runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.done.extend(run.done);
        out.errors.extend(run.errors);
        expect_acc += acc;
    }
    out.cpu = meter.finish();
    let delta = vm.counters().snapshot().since(&c0);
    out.record_core(&delta, &vm.metrics().snapshot());
    let got_acc = sh.acc.load(Ordering::Relaxed);
    if got_acc != expect_acc {
        out.errors.push(format!(
            "mutex accumulator {got_acc}, want {expect_acc}: lost updates"
        ));
    }
    out.layers.insert(
        "reactor.wakes_per_op",
        measure::ratio(vm.io_driver().stats().wakes as f64, out.ops() as f64),
    );
    span("core.shutdown", 0, 0, |_| vm.shutdown());
    if traced {
        out.record_audit(&vm.trace_audit());
    }
    out.errors.truncate(10);
    out
}
