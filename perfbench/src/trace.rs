//! Span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a layer's public
//! function in a span: name, start, end, the span that caused it, and the
//! op it belongs to.  Spans go to a per-OS-thread buffer (so recording
//! takes no shared lock), stay in memory, and are summarised and written
//! out when the run ends.  When tracing is off, [`span`] is one relaxed
//! load and a direct call.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans kept at most; later ones are counted in [`Summary::dropped`].
/// Bounds the recorder's memory at a few tens of MiB.
const MAX_SPANS: usize = 400_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub lane: u32,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    kept: AtomicUsize,
    dropped: AtomicUsize,
    buffers: Mutex<Vec<Buffer>>,
}

static ON: AtomicBool = AtomicBool::new(false);
/// Spans are kept for every `EVERY`-th op, plus all op-0 (setup) spans.
static EVERY: AtomicU64 = AtomicU64::new(1);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static LOCAL: (Buffer, u32) = {
        let r = recorder();
        let buf: Buffer = Arc::default();
        let mut all = r.buffers.lock().expect("span registry lock poisoned");
        all.push(buf.clone());
        let lane = all.len() as u32 - 1;
        (buf, lane)
    };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        kept: AtomicUsize::new(0),
        dropped: AtomicUsize::new(0),
        buffers: Mutex::default(),
    })
}

/// Starts or stops recording.
pub fn set_enabled(on: bool) {
    recorder();
    ON.store(on, Ordering::Relaxed);
}

/// Keeps spans of every `n`-th op only (setup spans, op 0, are always
/// kept), so a workload with many cheap ops traces a spread-out sample
/// of them instead of filling the recorder in its first seconds.
pub fn sample_every(n: u64) {
    EVERY.store(n.max(1), Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`, caused by span `parent` (0 for
/// none) and belonging to op `op`.  `f` gets the new span's id so spans it
/// causes can name it as their parent.
#[inline]
pub fn span<R>(name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
    if !enabled() || !op.is_multiple_of(EVERY.load(Ordering::Relaxed)) {
        return f(0);
    }
    let r = recorder();
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let start = r.epoch.elapsed().as_nanos() as u64;
    let out = f(id);
    let end = r.epoch.elapsed().as_nanos() as u64;
    if r.kept.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
        r.dropped.fetch_add(1, Ordering::Relaxed);
        return out;
    }
    LOCAL.with(|(buf, lane)| {
        buf.lock().expect("span buffer lock poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
            lane: *lane,
        });
    });
    out
}

/// Per-name totals over the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn mean_us(&self) -> f64 {
        crate::measure::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }

    pub fn self_mean_us(&self) -> f64 {
        crate::measure::ratio(self.self_ns as f64 / 1e3, self.count as f64)
    }
}

pub struct Summary {
    pub spans: Vec<Span>,
    pub by_name: BTreeMap<&'static str, NameStats>,
    pub dropped: usize,
}

impl Summary {
    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Whether any span's name starts with `prefix`.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.by_name.keys().any(|n| n.starts_with(prefix))
    }

    /// The spans as a chrome://tracing document, with each span's id,
    /// parent and op in `args` and a per-name table (count, mean and mean
    /// self time in µs) under `summary`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                sp.name,
                sp.lane,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.id,
                sp.parent,
                sp.op
            ));
        }
        s.push_str("],\"summary\":{");
        for (i, (name, st)) in self.by_name.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"mean_us\":{:.3},\"self_mean_us\":{:.3}}}",
                st.count,
                st.mean_us(),
                st.self_mean_us()
            ));
        }
        s.push_str(&format!("}},\"dropped\":{}}}", self.dropped));
        s
    }
}

/// Stops recording, takes every recorded span, and computes each name's
/// total and self time.  A span's self time is its duration minus the
/// part of it covered by the union of its children's intervals.
pub fn finish() -> Summary {
    set_enabled(false);
    let r = recorder();
    let mut spans = Vec::new();
    for buf in r
        .buffers
        .lock()
        .expect("span registry lock poisoned")
        .iter()
    {
        spans.append(&mut buf.lock().expect("span buffer lock poisoned"));
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for sp in &spans {
        if sp.parent != 0 {
            children
                .entry(sp.parent)
                .or_default()
                .push((sp.start_ns, sp.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for sp in &spans {
        let dur = sp.end_ns - sp.start_ns;
        let covered = children
            .get(&sp.id)
            .map_or(0, |kids| covered_ns(kids, sp.start_ns, sp.end_ns));
        let st = by_name.entry(sp.name).or_default();
        st.count += 1;
        st.total_ns += dur;
        st.self_ns += dur.saturating_sub(covered);
    }
    Summary {
        spans,
        by_name,
        dropped: r.dropped.swap(0, Ordering::Relaxed),
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
