//! `sharded-tuples`: a closed loop of job cycles over a `ShardedSpace` on
//! a 2-shard × 1-VP `Fleet`.
//!
//! Each shard runs a master and [`WORKERS_PER_SHARD`] workers.  A master
//! keeps [`WINDOW`] jobs outstanding, each deposited under a seeded
//! partition's job key, so about half its deposits are routed to the
//! other shard.  On each shard one worker takes jobs from the local
//! partition and one from the remote partition (a routed `get`), so
//! every partition always has a taker; workers `rd` a shared read-only
//! table tuple for a seeded share of jobs and put the result under their
//! master's result key.  An op is one job cycle,
//! timed by the master from its `put` of the job to its `get` of the
//! result, and checked against the value computed in Rust.

use crate::forkjoin::spin;
use crate::measure::{self, Meter, Rng};
use crate::trace::span;
use crate::{add_counters, Outcome, SETUPS};
use std::collections::HashMap;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};
use sting::core::fleet::FleetBuilder;
use sting::core::metrics::MetricsSnapshot;
use sting::prelude::*;

const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 2;
/// Jobs each master keeps outstanding.
const WINDOW: usize = 4;
/// Read-only table tuples `(tabK value)`, spread over both partitions.
const TABLE: usize = 16;
/// Share of jobs that `rd` a table tuple.
const READ_SHARE: f64 = 0.3;

/// Job tuple: `(key master id payload table parent-span)`; `table` is -1
/// for a job that reads no table tuple.
const JOB_ARITY: usize = 6;

/// A symbol whose tuples of `arity` fields land in partition `p`.
fn key_for(space: &ShardedSpace, prefix: &str, arity: usize, p: usize) -> Value {
    (0..)
        .map(|k| Value::sym(&format!("{prefix}{k}")))
        .find(|sym| {
            let mut fields = vec![sym.clone()];
            fields.resize(arity, Value::Int(0));
            space.partition_of_tuple(&fields) == p
        })
        .expect("some key hashes to every partition")
}

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(i64::MIN)
}

/// The work a job asks for, shared by workers and the Rust reference.
fn job_value(payload: i64, table_value: i64) -> i64 {
    spin(payload as u64) + table_value
}

struct Keys {
    jobs: Vec<Value>,
    results: Vec<Value>,
    table: Vec<Value>,
}

/// One master's record of its completed jobs.
#[derive(Default)]
struct MasterLog {
    done: Vec<(Instant, f64)>,
    attempted: u64,
    errors: Vec<String>,
}

/// Serves partition `p` until it takes a poison job.
fn worker(space: &ShardedSpace, keys: &Keys, p: usize) -> i64 {
    let mut tmpl = vec![lit(keys.jobs[p].clone())];
    tmpl.resize_with(JOB_ARITY, formal);
    let tmpl = Template::new(tmpl);
    let mut done = 0;
    loop {
        // The job is unknown until taken: the span's op is this worker's
        // own count, so the recorder samples these gets like the others.
        let taker = 1 << 62 | (p as u64) << 40 | done as u64;
        let job = span("tuple.get", 0, taker, |_| space.get(&tmpl));
        let (master, id, payload, table, parent) = (
            int(&job[0]),
            int(&job[1]),
            int(&job[2]),
            int(&job[3]),
            int(&job[4]) as u64,
        );
        if id < 0 {
            return done;
        }
        let op = (master as u64) << 40 | id as u64;
        let table_value = if table >= 0 {
            let t = Template::new(vec![lit(keys.table[table as usize].clone()), formal()]);
            int(&span("tuple.rd", parent, op, |_| space.rd(&t))[0])
        } else {
            0
        };
        let result = vec![
            keys.results[master as usize].clone(),
            Value::Int(id),
            Value::Int(job_value(payload, table_value)),
        ];
        span("tuple.put", parent, op, |_| space.put(result));
        done += 1;
    }
}

fn master(
    me: usize,
    space: &ShardedSpace,
    keys: &Keys,
    table_values: &[i64],
    mut rng: Rng,
    deadline: Instant,
) -> MasterLog {
    let mut log = MasterLog::default();
    let mut outstanding: HashMap<i64, (Instant, i64)> = HashMap::new();
    let result_tmpl = Template::new(vec![lit(keys.results[me].clone()), formal(), formal()]);
    let mut next_id = 0i64;
    loop {
        while outstanding.len() < WINDOW && Instant::now() < deadline {
            let id = next_id;
            next_id += 1;
            let op = (me as u64) << 40 | id as u64;
            let p = rng.range(0, SHARDS as u64 - 1) as usize;
            let payload = rng.range(2000, 20000) as i64;
            let table = if rng.chance(READ_SHARE) {
                rng.range(0, TABLE as u64 - 1) as i64
            } else {
                -1
            };
            let tv = usize::try_from(table).map_or(0, |t| table_values[t]);
            outstanding.insert(id, (Instant::now(), job_value(payload, tv)));
            log.attempted += 1;
            span("tuple.put", 0, op, |sid| {
                space.put(vec![
                    keys.jobs[p].clone(),
                    Value::Int(me as i64),
                    Value::Int(id),
                    Value::Int(payload),
                    Value::Int(table),
                    Value::Int(sid as i64),
                ])
            });
        }
        if outstanding.is_empty() {
            return log;
        }
        let taker = 1 << 61 | (me as u64) << 40 | log.done.len() as u64;
        let got = span("tuple.get", 0, taker, |_| space.get(&result_tmpl));
        let now = Instant::now();
        let (id, value) = (int(&got[0]), int(&got[1]));
        match outstanding.remove(&id) {
            Some((sent, want)) if want == value => {
                log.done.push((now, (now - sent).as_secs_f64() * 1e6));
            }
            Some((_, want)) => log
                .errors
                .push(format!("job {me}/{id}: got {value}, want {want}")),
            None => log
                .errors
                .push(format!("master {me}: unexpected result {id}")),
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    crate::trace::sample_every(8);
    let mut ready = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let fleet = span("fleet.build", 0, 0, |_| {
            FleetBuilder::new()
                .shards(SHARDS)
                .vps_per_shard(1)
                .trace(traced)
                .name("sharded-tuples")
                .build()
        });
        let space = ShardedSpace::new(&fleet);
        let keys = Keys {
            jobs: (0..SHARDS)
                .map(|p| key_for(&space, "job", JOB_ARITY, p))
                .collect(),
            results: (0..SHARDS).map(|p| key_for(&space, "res", 3, p)).collect(),
            table: (0..TABLE).map(|k| Value::sym(&format!("tab{k}"))).collect(),
        };
        let mut rng = Rng::new(seed, 3);
        let table_values: Vec<i64> = (0..TABLE).map(|_| rng.range(0, 1 << 20) as i64).collect();
        for (k, v) in keys.table.iter().zip(&table_values) {
            span("tuple.put", 0, 0, |_| {
                space.put(vec![k.clone(), Value::Int(*v)])
            });
        }
        out.setups_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            span("fleet.shutdown", 0, 0, |_| fleet.shutdown());
        } else {
            ready = Some((fleet, space, Arc::new(keys), Arc::new(table_values)));
        }
    }
    let (fleet, space, keys, table_values) = ready.expect("at least one setup");

    let c0: Vec<_> = fleet
        .shards()
        .iter()
        .map(|vm| vm.counters().snapshot())
        .collect();
    let meter = Meter::start(seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut workers = Vec::new();
    let logs = Arc::new(StdMutex::new(Vec::new()));
    let mut masters = Vec::new();
    for s in 0..SHARDS {
        let vm = fleet.shard(s);
        for w in 0..WORKERS_PER_SHARD {
            let (space, keys) = (space.clone(), keys.clone());
            let p = (s + w) % SHARDS;
            workers.push((p, vm.fork(move |_cx| worker(&space, &keys, p))));
        }
        let (space, keys, tv, logs) = (
            space.clone(),
            keys.clone(),
            table_values.clone(),
            logs.clone(),
        );
        let rng = Rng::new(seed, 200 + s as u64);
        masters.push(vm.fork(move |_cx| {
            let log = master(s, &space, &keys, &tv, rng, deadline);
            logs.lock().expect("master log lock poisoned").push(log);
            0i64
        }));
    }
    for m in &masters {
        if let Err(e) = m.join_blocking() {
            out.errors.push(format!("master raised {e}"));
        }
    }
    for log in logs.lock().expect("master log lock poisoned").drain(..) {
        out.attempted += log.attempted;
        out.failed += log.attempted - log.done.len() as u64;
        out.done
            .extend(log.done.iter().map(|&(t, l)| (meter.at(t), l)));
        out.errors.extend(log.errors);
    }
    out.cpu = meter.finish();

    // Stop the workers: one poison job each, on the partition it serves.
    for (p, _) in &workers {
        let mut fields = vec![keys.jobs[*p].clone(), Value::Int(-1), Value::Int(-1)];
        fields.resize(JOB_ARITY, Value::Int(0));
        space.put(fields);
    }
    for (_, w) in &workers {
        if let Err(e) = w.join_blocking() {
            out.errors.push(format!("worker raised {e}"));
        }
    }
    let delta = fleet
        .shards()
        .iter()
        .zip(&c0)
        .map(|(vm, c)| vm.counters().snapshot().since(c))
        .reduce(|a, b| add_counters(&a, &b))
        .unwrap_or_default();
    let mut metrics = MetricsSnapshot::default();
    for vm in fleet.shards() {
        let m = vm.metrics().snapshot();
        metrics.dispatch.merge(&m.dispatch);
        metrics.wake.merge(&m.wake);
        metrics.gc_pause.merge(&m.gc_pause);
    }
    out.record_core(&delta, &metrics);
    let wakes: u64 = fleet
        .shards()
        .iter()
        .map(|vm| vm.io_driver().stats().wakes)
        .sum();
    out.layers.insert(
        "reactor.wakes_per_op",
        measure::ratio(wakes as f64, out.ops() as f64),
    );

    // End of run: the table is all that is left, and no reader is still
    // registered.
    for k in &keys.table {
        if space
            .try_get(&Template::new(vec![lit(k.clone()), formal()]))
            .is_none()
        {
            out.errors.push(format!("table tuple {k} missing"));
        }
    }
    out.layers.insert("tuple.len_end", space.len() as f64);
    if !space.is_empty() || space.blocked() != 0 {
        out.errors.push(format!(
            "{} tuples and {} readers left in the sharded space",
            space.len(),
            space.blocked()
        ));
    }
    span("fleet.shutdown", 0, 0, |_| fleet.shutdown());
    if traced {
        out.record_audit(&fleet.trace_audit());
    }
    out.errors.truncate(10);
    out
}
