//! The STING end-to-end benchmark.
//!
//! `sting-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one seeded workload for `--seconds`, checks every output against
//! an independent reference, and prints one JSON result as the last line
//! of standard output.  With `--trace 0` the result holds the end-to-end
//! metrics; with `--trace 1` the run is split into an untraced half and a
//! traced half (flight recorder on, spans around every call into a layer)
//! and the result holds the per-layer metrics.  See `README.md`.

mod echo;
mod farm;
mod forkjoin;
mod measure;
mod trace;
mod tuples;

use measure::HostCpu;
use std::collections::BTreeMap;
use std::time::Instant;
use sting::core::counters::CounterSnapshot;
use sting::core::metrics::MetricsSnapshot;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 25;

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Duration of each setup, in seconds.
    pub setups_s: Vec<f64>,
    /// Per completed op: (seconds into the measured window when it
    /// completed, latency in µs).
    pub done: Vec<(f64, f64)>,
    /// The meter's CPU samples over the window (see [`measure::Meter`]).
    pub cpu: Vec<(f64, f64)>,
    /// Per-layer metrics the workload measured itself.
    pub layers: BTreeMap<&'static str, f64>,
    /// Run facts beside the metrics (generator lag, resolved backend, ...).
    pub notes: Vec<(&'static str, String)>,
    /// Wrong outputs and broken checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The end-to-end figures, each the median over sub-windows of the
    /// measured window, so a short burst of host interference moves one
    /// sub-window rather than the run's figure.  There are as many
    /// sub-windows (at most 10) as keep 1000 latency samples in each, so
    /// every sub-window's p99 rests on at least 10 samples beyond it.
    pub fn windowed(&self) -> Windowed {
        let points = self.cpu.len().saturating_sub(1).max(1);
        let n = (self.done.len() / 1000).clamp(1, 10.min(points));
        let (mut rate, mut p50, mut p99, mut cpu) = (vec![], vec![], vec![], vec![]);
        for j in 0..n {
            let (a, b) = (j * points / n, (j + 1) * points / n);
            let (Some(&(t0, c0)), Some(&(t1, c1))) = (self.cpu.get(a), self.cpu.get(b)) else {
                continue;
            };
            let last = j + 1 == n;
            let mut lat: Vec<f64> = self
                .done
                .iter()
                .filter(|(t, _)| *t >= t0 && (*t < t1 || last))
                .map(|&(_, l)| l)
                .collect();
            let ops = lat.len() as f64;
            rate.push(measure::ratio(ops, t1 - t0));
            cpu.push(measure::ratio((c1 - c0) * 1e6, ops));
            p50.push(measure::quantile(&mut lat, 0.50));
            p99.push(measure::quantile(&mut lat, 0.99));
        }
        let window_rates = rate.clone();
        Windowed {
            ops_per_s: measure::median(&mut rate),
            latency_p50_us: measure::median(&mut p50),
            latency_p99_us: measure::median(&mut p99),
            cpu_us_per_op: measure::median(&mut cpu),
            window_rates,
        }
    }

    /// Per-op scheduler counters and the scheduler latency histograms of
    /// the VMs a workload ran, summed over its shards.
    pub fn record_core(&mut self, delta: &CounterSnapshot, metrics: &MetricsSnapshot) {
        let ops = self.ops() as f64;
        let per_op = |n: u64| measure::ratio(n as f64, ops);
        let us = |ns: u64| ns as f64 / 1e3;
        let l = &mut self.layers;
        l.insert("context.switches_per_op", per_op(delta.context_switches));
        l.insert("core.threads_per_op", per_op(delta.threads_created));
        l.insert(
            "core.stack_reuse_ratio",
            measure::ratio(delta.stacks_recycled as f64, delta.tcbs_allocated as f64),
        );
        l.insert("core.steals_per_op", per_op(delta.steals));
        l.insert("core.migrations_per_op", per_op(delta.migrations));
        l.insert("core.blocks_per_op", per_op(delta.blocks));
        l.insert("core.wakeups_per_op", per_op(delta.wakeups));
        l.insert("core.preemptions_per_op", per_op(delta.preemptions));
        l.insert("core.dispatch_wait_p50_us", us(metrics.dispatch.p50()));
        l.insert("core.dispatch_wait_p99_us", us(metrics.dispatch.p99()));
        l.insert("core.wake_p50_us", us(metrics.wake.p50()));
        l.insert("fleet.routed_ops_per_op", per_op(delta.routed_ops));
        l.insert("fleet.handoffs_per_op", per_op(delta.handoffs));
        l.insert("areas.gc_pause_p50_us", us(metrics.gc_pause.p50()));
    }

    /// Records a flight-recorder audit: findings are reported, never
    /// filtered.
    pub fn record_audit(&mut self, report: &sting::core::audit::AuditReport) {
        *self.layers.entry("audit.findings").or_default() += report.findings.len() as f64;
        for f in &report.findings {
            eprintln!("audit finding: {f}");
        }
        if report.truncated {
            self.notes.push(("audit", "truncated history".into()));
        }
    }
}

/// End-to-end figures of one run; see [`Outcome::windowed`].
pub struct Windowed {
    pub ops_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub cpu_us_per_op: f64,
    /// Completed ops per second in each sub-window, in time order.
    pub window_rates: Vec<f64>,
}

/// Sums counter snapshots field by field (one per fleet shard).
pub fn add_counters(a: &CounterSnapshot, b: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        threads_created: a.threads_created + b.threads_created,
        tcbs_allocated: a.tcbs_allocated + b.tcbs_allocated,
        stacks_recycled: a.stacks_recycled + b.stacks_recycled,
        steals: a.steals + b.steals,
        context_switches: a.context_switches + b.context_switches,
        yields: a.yields + b.yields,
        preemptions: a.preemptions + b.preemptions,
        blocks: a.blocks + b.blocks,
        wakeups: a.wakeups + b.wakeups,
        suspends: a.suspends + b.suspends,
        migrations: a.migrations + b.migrations,
        handoffs: a.handoffs + b.handoffs,
        routed_ops: a.routed_ops + b.routed_ops,
        determinations: a.determinations + b.determinations,
        exceptions: a.exceptions + b.exceptions,
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["scheme-farm", "fork-join", "sharded-tuples", "echo"];

/// Per-layer metrics and their units, reported by every traced run (0
/// where a workload does not use the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("context.switches_per_op", "count"),
    ("core.threads_per_op", "count"),
    ("core.stack_reuse_ratio", "ratio"),
    ("core.steals_per_op", "count"),
    ("core.migrations_per_op", "count"),
    ("core.blocks_per_op", "count"),
    ("core.wakeups_per_op", "count"),
    ("core.preemptions_per_op", "count"),
    ("core.dispatch_wait_p50_us", "us"),
    ("core.dispatch_wait_p99_us", "us"),
    ("core.wake_p50_us", "us"),
    ("core.fork_call_us", "us"),
    ("core.touch_wait_us", "us"),
    ("core.vm_build_us", "us"),
    ("core.shutdown_us", "us"),
    ("sync.force_wait_us", "us"),
    ("sync.mutex_wait_us", "us"),
    ("tuple.put_us", "us"),
    ("tuple.get_us", "us"),
    ("tuple.rd_us", "us"),
    ("tuple.len_end", "count"),
    ("fleet.routed_ops_per_op", "count"),
    ("fleet.handoffs_per_op", "count"),
    ("fleet.build_us", "us"),
    ("fleet.shutdown_us", "us"),
    ("areas.words_alloc_per_op", "words"),
    ("areas.minor_gcs_per_op", "count"),
    ("areas.gc_pause_p50_us", "us"),
    ("scheme.prelude_us", "us"),
    ("scheme.read_us", "us"),
    ("scheme.expand_us", "us"),
    ("scheme.compile_us", "us"),
    ("scheme.eval_round_us", "us"),
    ("analyze.run_us", "us"),
    ("analyze.findings", "count"),
    ("reactor.syscalls_per_wake", "count"),
    ("reactor.wakes_per_op", "count"),
    ("net.accept_us", "us"),
    ("net.read_us", "us"),
    ("net.write_us", "us"),
    ("open.p50_us", "us"),
    ("open.p99_us", "us"),
    ("open.knee_ops_per_s", "1/s"),
    ("gen.lag_p99_us", "us"),
    ("gen.backlog_max", "count"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("audit.findings", "count"),
    ("latency_p99_us", "us"),
    ("failed_ratio", "ratio"),
];

/// Per-layer metrics read from span means: (metric, span name).
const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.fork_call_us", "core.fork"),
    ("core.touch_wait_us", "core.touch"),
    ("core.vm_build_us", "core.vm_build"),
    ("core.shutdown_us", "core.shutdown"),
    ("sync.force_wait_us", "sync.force"),
    ("sync.mutex_wait_us", "sync.mutex"),
    ("tuple.put_us", "tuple.put"),
    ("tuple.get_us", "tuple.get"),
    ("tuple.rd_us", "tuple.rd"),
    ("fleet.build_us", "fleet.build"),
    ("fleet.shutdown_us", "fleet.shutdown"),
    ("scheme.prelude_us", "scheme.prelude"),
    ("scheme.read_us", "scheme.read"),
    ("scheme.expand_us", "scheme.expand"),
    ("scheme.compile_us", "scheme.compile"),
    ("scheme.eval_round_us", "scheme.eval"),
    ("analyze.run_us", "analyze.run"),
    ("net.accept_us", "net.accept"),
    ("net.read_us", "net.read"),
    ("net.write_us", "net.write"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(val.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in 1..=120".into());
    }
    Ok(args)
}

/// Runs one workload; `open_loop` adds echo's open loop (see `echo.rs`).
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool, open_loop: bool) -> Outcome {
    match name {
        "scheme-farm" => farm::run(seed, seconds, traced),
        "fork-join" => forkjoin::run(seed, seconds, traced),
        "sharded-tuples" => tuples::run(seed, seconds, traced),
        _ => echo::run(seed, seconds, traced, open_loop),
    }
}

/// Formats a metric value as a JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sting-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A hung run must still end: give up well inside the time a run may
    // take, without printing a result.
    let limit = std::time::Duration::from_secs_f64(args.seconds + 90.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("sting-perfbench: run did not finish within {limit:?}");
        std::process::exit(3);
    });
    let seed = args.seed;
    let host0 = HostCpu::now();
    let wall0 = Instant::now();
    let cpu0 = measure::process_cpu_s();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let out;
    let mut errors = Vec::new();
    if args.trace {
        let half = args.seconds / 2.0;
        let untraced = run_workload(&args.workload, seed, half, false, true);
        trace::set_enabled(true);
        let mut traced = run_workload(&args.workload, seed, half, true, false);
        let summary = trace::finish();
        for (metric, span) in SPAN_METRICS {
            traced.layers.insert(metric, summary.get(span).mean_us());
        }
        traced.layers.insert(
            "trace.overhead_ratio",
            measure::ratio(
                traced.windowed().cpu_us_per_op,
                untraced.windowed().cpu_us_per_op,
            ),
        );
        // Figures that tracing would move are taken from the untraced
        // half: the p99 and echo's open loop (see README.md).
        traced
            .layers
            .insert("latency_p99_us", untraced.windowed().latency_p99_us);
        for (k, v) in &untraced.layers {
            if k.starts_with("open.") || k.starts_with("gen.") {
                traced.layers.insert(k, *v);
            }
        }
        traced.notes.extend(
            untraced
                .notes
                .iter()
                .filter(|(k, _)| *k == "ladder")
                .cloned(),
        );
        traced.layers.insert(
            "failed_ratio",
            measure::ratio(
                (traced.failed + untraced.failed) as f64,
                (traced.attempted + untraced.attempted) as f64,
            ),
        );
        // The bypass predictions: a layer a workload does not use must
        // read exactly zero there.
        let l = &traced.layers;
        let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
        if args.workload != "echo" && get("reactor.wakes_per_op") != 0.0 {
            errors.push("bypass: reactor woke threads off the echo workload".to_string());
        }
        if args.workload != "sharded-tuples"
            && (get("fleet.routed_ops_per_op") != 0.0 || get("fleet.handoffs_per_op") != 0.0)
        {
            errors.push("bypass: fleet fabric used off the sharded-tuples workload".to_string());
        }
        if args.workload != "scheme-farm" && summary.has_prefix("scheme.") {
            errors.push("bypass: scheme spans recorded off the scheme-farm workload".to_string());
        }
        if summary.dropped > 0 {
            traced
                .notes
                .push(("spans_dropped", summary.dropped.to_string()));
        }
        if let Some(dir) = &args.out {
            let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, summary.to_json()))
            {
                eprintln!("sting-perfbench: writing {}: {e}", path.display());
            }
        }
        errors.extend_from_slice(&traced.errors);
        errors.extend_from_slice(&untraced.errors);
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        out = traced;
    } else {
        out = run_workload(&args.workload, seed, args.seconds, false, false);
        errors.extend_from_slice(&out.errors);
    }
    let steal = HostCpu::now().steal_share_since(&host0);

    let w = out.windowed();
    // Reported beside every untraced run, but bound by nothing.
    let mut unbound: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut layers = out.layers.clone();
        layers.insert("host.steal_share", steal);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let mut setups = out.setups_s.clone();
        metrics.push(("setup_s", measure::median(&mut setups), "s"));
        metrics.push(("ops_per_s", w.ops_per_s, "1/s"));
        metrics.push(("latency_p50_us", w.latency_p50_us, "us"));
        metrics.push(("cpu_us_per_op", w.cpu_us_per_op, "us"));
        metrics.push(("peak_rss_mb", measure::peak_rss_mb(), "MiB"));
        unbound.push(("latency_p99_us", w.latency_p99_us, "us"));
        unbound.push((
            "failed_ratio",
            measure::ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ));
    }
    if out.done.len() < 1000 {
        errors.push(format!(
            "only {} latency samples: p99 needs at least 1000",
            out.done.len()
        ));
    }
    if out.attempted == 0 {
        errors.push("no op was attempted".into());
    }

    // Noise beside the run, so runs taken during a steal epoch show.
    let mut noise = format!(
        "{{\"wall_s\":{},\"cpu_s\":{},\"steal_share\":{},\"latency_samples\":{},\"window_ops_per_s\":[{}]",
        num(wall0.elapsed().as_secs_f64()),
        num(measure::process_cpu_s() - cpu0),
        num(steal),
        out.done.len(),
        w.window_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (name, value, _) in &unbound {
        noise.push_str(&format!(",{}:{}", json_str(name), num(*value)));
    }
    for (k, v) in &out.notes {
        noise.push_str(&format!(",{}:{}", json_str(k), json_str(v)));
    }
    noise.push('}');
    for e in &errors {
        eprintln!("sting-perfbench: {e}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {:>16.6} {unit}", value);
    }
    for (name, value, unit) in &unbound {
        println!("{name:<28} {:>16.6} {unit} (unbounded)", value);
    }
    println!("noise {noise}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        errors.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
    if let Some(dir) = &args.out {
        let path = dir.join(format!(
            "result-{}-{}-trace{}.json",
            args.workload, args.seed, args.trace as u8
        ));
        let record = format!("{{\"noise\":{noise},\"result\":{result}}}\n");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
            eprintln!("sting-perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{result}");
}
