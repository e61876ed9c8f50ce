//! Process and host measurements read from `/proc`, sample statistics,
//! and the seeded generator every workload draws its inputs from.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux architecture the repository builds for).
const CLK_TCK: f64 = 100.0;

/// user + system CPU seconds from a `/proc/.../stat` file, 0 if unreadable.
fn stat_cpu_seconds(path: &str) -> f64 {
    let Ok(text) = fs::read_to_string(path) else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of proc(5), so utime (14) and stime (15)
    // sit at indices 11 and 12.
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / CLK_TCK
}

/// CPU seconds used so far by the whole process.
pub fn process_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// OS threads whose CPU time is not the system's: the open-loop load
/// generator registers its threads here so the meter leaves them out.
static EXCLUDED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Leaves the calling OS thread's CPU time out of every later meter
/// sample.  The thread must outlive the meter (a finished thread's time
/// folds back into the process total).
pub fn exclude_this_thread() {
    if let Ok(path) = fs::read_link("/proc/thread-self") {
        let stat = format!("/proc/{}/stat", path.display());
        EXCLUDED
            .lock()
            .expect("exclusion list lock poisoned")
            .push(stat);
    }
}

pub fn clear_exclusions() {
    EXCLUDED
        .lock()
        .expect("exclusion list lock poisoned")
        .clear();
}

/// CPU seconds used by the process, less the excluded threads.
fn system_cpu_s() -> f64 {
    let excluded: f64 = EXCLUDED
        .lock()
        .expect("exclusion list lock poisoned")
        .iter()
        .map(|p| stat_cpu_seconds(p))
        .sum();
    process_cpu_s() - excluded
}

/// CPU samples taken at this many evenly spaced points across a window.
pub const METER_POINTS: usize = 20;

/// Samples the system's CPU time at fixed points across a measured
/// window, from a thread that sleeps in between, so per-op figures can
/// be taken per sub-window.
pub struct Meter {
    start: Instant,
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Meter {
    /// Starts a window of `seconds`; the first sample is taken now.
    pub fn start(seconds: f64) -> Meter {
        let start = Instant::now();
        let samples = Arc::new(Mutex::new(vec![(0.0, system_cpu_s())]));
        let stop = Arc::new(AtomicBool::new(false));
        let step = Duration::from_secs_f64(seconds / METER_POINTS as f64);
        let sampler = {
            let (samples, stop) = (samples.clone(), stop.clone());
            std::thread::spawn(move || {
                for k in 1..METER_POINTS {
                    let due = start + step * k as u32;
                    while !stop.load(Ordering::Relaxed) {
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        std::thread::sleep((due - now).min(Duration::from_millis(50)));
                    }
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let t = start.elapsed().as_secs_f64();
                    let cpu = system_cpu_s();
                    samples.lock().expect("meter lock poisoned").push((t, cpu));
                }
            })
        };
        Meter {
            start,
            samples,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Seconds from the window's start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Ends the window: takes the last sample and returns all of them as
    /// `(seconds since start, CPU seconds)`.
    pub fn finish(mut self) -> Vec<(f64, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            h.join().expect("meter sampler panicked");
        }
        let mut samples = std::mem::take(&mut *self.samples.lock().expect("meter lock poisoned"));
        samples.push((self.start.elapsed().as_secs_f64(), system_cpu_s()));
        samples
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already inside user, so only the first eight add up.
        HostCpu {
            total: f.iter().take(8).sum(),
            steal: f.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place); 0 if empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `samples` (sorted in place); 0 if empty.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0 (a per-op rate over no ops).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: a small, fast, seedable generator.  Every workload input
/// comes from one of these, so the same `--seed` gives the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}
