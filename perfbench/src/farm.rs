//! `scheme-farm`: a closed loop of master/slave rounds written in Scheme,
//! on one 2-VP VM.
//!
//! The benchmark calls `Interp::eval` once per round of [`ROUND_JOBS`]
//! seeded jobs (`farm.scm`); an op is one job, timed by the Scheme master
//! from its `ts-put` of the job to its `ts-get` of the result.  Each
//! job's value is checked against the same kernel computed in Rust.

use crate::measure::{self, Meter, Rng};
use crate::trace::span;
use crate::{Outcome, SETUPS};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use sting::areas::Val;
use sting::prelude::*;
use sting::scheme::machine::Machine;
use sting::scheme::{bytecode::Program, compile, expand, prims, reader, SchemeError};

const FARM_SRC: &str = include_str!("farm.scm");
/// Jobs per `Interp::eval` round.
const ROUND_JOBS: usize = 48;
const WORKERS: usize = 2;
/// Jobs the master keeps outstanding.
const WINDOW: usize = 4;
/// Job sizes: `fib n` for n in this range, plus a list of m elements.
const FIB_N: (u64, u64) = (8, 13);
const LIST_M: (u64, u64) = (8, 96);

static CLOCK_EPOCH: OnceLock<Instant> = OnceLock::new();

fn clock_epoch() -> Instant {
    *CLOCK_EPOCH.get_or_init(Instant::now)
}

/// `(bench-clock-us)`: microseconds since the benchmark's clock epoch.
fn prim_clock_us(_m: &mut Machine, _argc: usize) -> Result<Val, SchemeError> {
    Ok(Val::Int(clock_epoch().elapsed().as_micros() as i64))
}

fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// The Rust reference for a job's value.
fn reference(n: i64, m: i64) -> i64 {
    fib(n) + (0..m).map(|x| x * x).sum::<i64>()
}

fn ints(v: &Value) -> Vec<i64> {
    v.list_iter()
        .map(|x| x.as_int().unwrap_or(i64::MIN))
        .collect()
}

/// Sums the words allocated and minor collections in a `(gc-stats)` list.
fn gc_words_minors(stats: &Value) -> (f64, f64) {
    let s = ints(stats);
    (
        s.get(2).copied().unwrap_or(0) as f64,
        s.first().copied().unwrap_or(0) as f64,
    )
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    prims::register_extension("bench-clock-us", 0, Some(0), prim_clock_us);
    clock_epoch();
    let mut out = Outcome::default();
    let mut ready = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let vm = span("core.vm_build", 0, 0, |_| {
            VmBuilder::new()
                .vps(2)
                .trace(traced)
                .name("scheme-farm")
                .build()
        });
        let interp = span("scheme.prelude", 0, 0, |_| Interp::new(vm.clone()));
        let ts = TupleSpace::new();
        interp
            .globals()
            .set(Symbol::intern("bench-ts"), ts.to_value());
        let loaded = span("scheme.load", 0, 0, |_| interp.eval(FARM_SRC));
        out.setups_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = loaded {
            out.errors.push(format!("loading farm.scm: {e}"));
            return out;
        }
        if i + 1 < SETUPS {
            drop(interp);
            span("core.shutdown", 0, 0, |_| vm.shutdown());
        } else {
            ready = Some((vm, interp, ts));
        }
    }
    let (vm, interp, ts) = ready.expect("at least one setup");

    if traced {
        // The front end's public stages on the workload source, and the
        // static analyzer, which is off the run path.
        for _ in 0..20 {
            let forms =
                span("scheme.read", 0, 0, |_| reader::read_all(FARM_SRC)).unwrap_or_default();
            let mut program = Program::default();
            for form in &forms {
                if let Ok(core) = span("scheme.expand", 0, 0, |_| expand::expand_top(form)) {
                    let _ = span("scheme.compile", 0, 0, |_| {
                        compile::compile_top(&core, &mut program)
                    });
                }
            }
        }
        match span("analyze.run", 0, 0, |_| {
            sting::analyze::analyze_source(FARM_SRC)
        }) {
            Ok(report) => {
                out.layers
                    .insert("analyze.findings", report.diagnostics.len() as f64);
            }
            Err(e) => out.errors.push(format!("analyze: {e}")),
        }
    }

    let mut rng = Rng::new(seed, 2);
    let (mut words, mut minors) = (0.0, 0.0);
    let c0 = vm.counters().snapshot();
    let meter = Meter::start(seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        round += 1;
        let jobs: Vec<(i64, i64)> = (0..ROUND_JOBS)
            .map(|_| {
                (
                    rng.range(FIB_N.0, FIB_N.1) as i64,
                    rng.range(LIST_M.0, LIST_M.1) as i64,
                )
            })
            .collect();
        let list = Value::list(jobs.iter().enumerate().map(|(id, &(n, m))| {
            Value::list([Value::Int(id as i64), Value::Int(n), Value::Int(m)])
        }));
        interp.globals().set(Symbol::intern("bench-jobs"), list);
        out.attempted += ROUND_JOBS as u64;
        let src = format!("(run-round bench-ts bench-jobs {WORKERS} {WINDOW})");
        let got = span("scheme.eval", 0, round, |_| interp.eval(&src));
        let got = match got {
            Ok(v) => v,
            Err(e) => {
                out.failed += ROUND_JOBS as u64;
                out.errors.push(format!("round {round}: {e}"));
                continue;
            }
        };
        let parts: Vec<Value> = got.list_iter().cloned().collect();
        let mut seen = [false; ROUND_JOBS];
        for r in parts.first().into_iter().flat_map(Value::list_iter) {
            let f = ints(r);
            let &[id, value, lat_us, done_us] = f.as_slice() else {
                out.errors
                    .push(format!("round {round}: malformed result {r}"));
                continue;
            };
            let ok = usize::try_from(id)
                .ok()
                .filter(|&i| i < ROUND_JOBS && !seen[i]);
            match ok {
                Some(i) if value == reference(jobs[i].0, jobs[i].1) => {
                    seen[i] = true;
                    let done = clock_epoch() + Duration::from_micros(done_us as u64);
                    out.done.push((meter.at(done), lat_us as f64));
                }
                _ => out.errors.push(format!("round {round}: bad result {f:?}")),
            }
        }
        out.failed += seen.iter().filter(|s| !**s).count() as u64;
        if let Some(workers) = parts.get(1) {
            for w in workers.list_iter() {
                let (wd, mn) = gc_words_minors(w.cdr().unwrap_or(&Value::Nil));
                words += wd;
                minors += mn;
            }
        }
        if let Some(master) = parts.get(2) {
            let (wd, mn) = gc_words_minors(master);
            words += wd;
            minors += mn;
        }
    }
    out.cpu = meter.finish();
    let delta = vm.counters().snapshot().since(&c0);
    out.record_core(&delta, &vm.metrics().snapshot());
    let ops = out.ops() as f64;
    out.layers
        .insert("areas.words_alloc_per_op", measure::ratio(words, ops));
    out.layers
        .insert("areas.minor_gcs_per_op", measure::ratio(minors, ops));
    out.layers.insert("tuple.len_end", ts.len() as f64);
    if !ts.is_empty() {
        out.errors
            .push(format!("{} tuples left in the farm's space", ts.len()));
    }
    out.layers.insert(
        "reactor.wakes_per_op",
        measure::ratio(vm.io_driver().stats().wakes as f64, ops),
    );
    drop(interp);
    span("core.shutdown", 0, 0, |_| vm.shutdown());
    if traced {
        out.record_audit(&vm.trace_audit());
    }
    out.errors.truncate(10);
    out
}
