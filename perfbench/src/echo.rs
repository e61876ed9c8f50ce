//! `echo`: echo requests over loopback, closed loop then open loop.
//!
//! The server is a 2-VP VM with one STING thread per connection over
//! `sting::core::net`, on whichever backend `IoBackend::Auto` resolves
//! to.  The client is [`CONNS`] OS threads, one connection each, sending
//! seeded message sizes that include the smallest (16 B).  An op is one
//! echo, checked byte for byte.
//!
//! The end-to-end figures come from a closed loop: each connection keeps
//! [`DEPTH`] requests in flight, sending the next when a reply is in.  The
//! untraced half of a traced run spends its last 30 % on an open loop of
//! seeded Poisson arrivals, first at a nominal rate and then up a ladder
//! of offered rates, each echo timed from when it was due; its figures
//! (latency at the nominal rate, generator lag and backlog, and the
//! highest rate that meets the p99 limit) are per-layer metrics.  On a
//! 2-vCPU host the open loop's p99 and knee rate move by a third or more
//! between runs with the host's scheduling stalls, too much to bound a
//! regression on.

use crate::measure::{self, Meter, Rng};
use crate::trace::span;
use crate::{Outcome, SETUPS};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting::core::net::{TcpListener, TcpStream, LOCALHOST};
use sting::core::reactor::IoBackend;
use sting::prelude::*;

/// Client connections, one client thread each.
const CONNS: usize = 2;
/// Requests each connection keeps in flight in the closed loop.
const DEPTH: usize = 4;
/// Share of a run with the open loop spent in the closed loop.
const CLOSED_SHARE: f64 = 0.7;
/// Share of that run spent in the open loop's nominal phase; the ladder
/// takes the rest.
const NOMINAL_SHARE: f64 = 0.1;
/// Offered rate of the nominal phase, in echoes/s over all connections.
const NOMINAL_RATE: f64 = 20000.0;
/// The ladder of offered rates climbed after the nominal phase.
const LADDER: &[f64] = &[40000.0, 60000.0, 80000.0, 100000.0, 120000.0];
/// The open-loop p99 limit, in µs, fixed from the first measurements on
/// a 2-vCPU host (nominal-rate p99 of 1.3 to 6 ms).
const P99_LIMIT_US: f64 = 5000.0;
/// Message sizes: the smallest is always in the mix.
const SIZES: &[usize] = &[16, 64, 256, 1024];
/// How long a client waits for outstanding replies before giving up.
const DRAIN: Duration = Duration::from_secs(5);

mod poll {
    //! `ppoll(2)`, for a client thread that must both send on schedule
    //! and read replies: std offers no readiness wait with a sub-ms
    //! timeout.
    use std::os::fd::RawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Waits until `fd` is ready for `events` or `timeout` passes;
    /// returns the ready events (0 on timeout or interruption).
    pub fn wait(fd: RawFd, events: i16, timeout: Duration) -> i16 {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pfd` and `ts` are live, properly laid-out locals for
        // the whole call, `nfds` is 1 to match the single `pfd`, and a
        // null sigmask means "leave the signal mask alone".
        let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if n > 0 {
            pfd.revents
        } else {
            0
        }
    }
}

/// One request: due time (from the client's start), size, and offset
/// into the shared payload bytes.
#[derive(Clone, Copy)]
struct Req {
    due: Duration,
    size: usize,
    offset: usize,
}

/// A phase of the schedule: offered rate over `[start, end)`.
#[derive(Clone, Copy)]
struct Phase {
    rate: f64,
    start: Duration,
    end: Duration,
}

impl Phase {
    fn holds(&self, s: &Sample) -> bool {
        s.due >= self.start && s.due < self.end
    }
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    due: Duration,
    /// Reply complete, from the client's start; `None` if it never came.
    done: Option<Duration>,
    /// Send time minus due time.
    lag: Duration,
    ok: bool,
}

impl Sample {
    /// Latency from due to reply, in µs; infinite if it failed.
    fn latency_us(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(d)) => (d - self.due).as_secs_f64() * 1e6,
            _ => f64::INFINITY,
        }
    }
}

/// What one client thread saw: every request's sample, and the number of
/// requests in flight after each open-loop send.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    backlog: Vec<(Duration, usize)>,
    error: Option<String>,
}

fn random_req(rng: &mut Rng, due: Duration, payload_len: usize) -> Req {
    let size = SIZES[rng.range(0, SIZES.len() as u64 - 1) as usize];
    Req {
        due,
        size,
        offset: rng.range(0, (payload_len - size) as u64) as usize,
    }
}

/// One connection's open-loop schedule: Poisson arrivals per phase.
fn schedule(rng: &mut Rng, phases: &[Phase], payload_len: usize) -> Vec<Req> {
    let mut reqs = Vec::new();
    for ph in phases {
        let per_conn = ph.rate / CONNS as f64;
        let mut t = ph.start.as_secs_f64();
        loop {
            t += -(1.0 - rng.unit()).ln() / per_conn;
            if t >= ph.end.as_secs_f64() {
                break;
            }
            reqs.push(random_req(rng, Duration::from_secs_f64(t), payload_len));
        }
    }
    reqs
}

/// A client connection's in-flight state.
struct Conn<'a> {
    stream: std::net::TcpStream,
    payload: &'a [u8],
    base: Instant,
    /// In flight: (request, send lag, bytes of its reply received).
    pending: VecDeque<(Req, Duration, usize)>,
    buf: Vec<u8>,
    log: ClientLog,
}

impl Conn<'_> {
    /// Sends `r`, reading replies whenever the socket is full so that
    /// client and server never both block writing.
    fn send(&mut self, r: Req, now: Duration) {
        self.pending.push_back((r, now.saturating_sub(r.due), 0));
        let mut off = r.offset;
        let stuck = Instant::now() + DRAIN;
        while off < r.offset + r.size && self.log.error.is_none() {
            if Instant::now() >= stuck {
                self.log.error = Some("write: no progress".into());
            }
            match self.stream.write(&self.payload[off..r.offset + r.size]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let fd = self.stream.as_raw_fd();
                    let ready =
                        poll::wait(fd, poll::POLLIN | poll::POLLOUT, Duration::from_millis(10));
                    if ready & poll::POLLIN != 0 {
                        self.read();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.log.error = Some(format!("write: {e}")),
            }
        }
    }

    /// Waits up to `timeout` for reply bytes and matches them, in order,
    /// against the bytes of the requests in flight.
    fn await_replies(&mut self, timeout: Duration) {
        if poll::wait(self.stream.as_raw_fd(), poll::POLLIN, timeout) & poll::POLLIN != 0 {
            self.read();
        }
    }

    fn read(&mut self) {
        let n = match self.stream.read(&mut self.buf) {
            Ok(0) => {
                self.log.error = Some("server closed the connection".into());
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                return
            }
            Err(e) => {
                self.log.error = Some(format!("read: {e}"));
                return;
            }
        };
        let done_at = self.base.elapsed();
        let mut got = &self.buf[..n];
        while !got.is_empty() {
            let Some((r, lag, have)) = self.pending.front_mut() else {
                self.log.error = Some("reply bytes beyond every request".into());
                return;
            };
            let take = (r.size - *have).min(got.len());
            let want = &self.payload[r.offset + *have..r.offset + *have + take];
            let ok = want == &got[..take];
            *have += take;
            got = &got[take..];
            if !ok || *have == r.size {
                self.log.samples.push(Sample {
                    due: r.due,
                    done: Some(done_at),
                    lag: *lag,
                    ok,
                });
                self.pending.pop_front();
            }
        }
    }
}

/// Runs one connection: the closed loop over `closed` (cycled) until
/// `closed_end`, then the open-loop schedule `open`.
fn client(
    stream: std::net::TcpStream,
    closed: &[Req],
    closed_end: Duration,
    open: &[Req],
    payload: &[u8],
    base: Instant,
) -> ClientLog {
    measure::exclude_this_thread();
    let mut c = Conn {
        stream,
        payload,
        base,
        pending: VecDeque::new(),
        buf: vec![0u8; 64 * 1024],
        log: ClientLog::default(),
    };
    if let Err(e) = c.stream.set_nonblocking(true) {
        c.log.error = Some(format!("set_nonblocking: {e}"));
    }
    // Closed loop: DEPTH requests in flight, each due when it is sent;
    // its last replies are in before the open loop starts.
    let mut closed = closed.iter().cycle();
    while c.log.error.is_none() {
        let now = base.elapsed();
        if now < closed_end && c.pending.len() < DEPTH {
            let r = closed.next().expect("a cycle never ends");
            c.send(Req { due: now, ..*r }, now);
        } else if c.pending.is_empty() {
            break;
        } else if now >= closed_end + DRAIN {
            c.log.error = Some("closed loop: no reply".into());
        } else {
            c.await_replies(Duration::from_millis(10));
        }
    }
    // Open loop: send on schedule whether or not replies are in.
    let give_up = open.last().map_or(closed_end, |r| r.due) + DRAIN;
    let mut next = 0;
    while c.log.error.is_none() {
        let now = base.elapsed();
        if next < open.len() && open[next].due <= now {
            c.send(open[next], now);
            c.log.backlog.push((now, c.pending.len()));
            next += 1;
            continue;
        }
        if (next == open.len() && c.pending.is_empty()) || now >= give_up {
            break;
        }
        let wait = match open.get(next) {
            Some(r) => r.due - now,
            None => give_up - now,
        };
        c.await_replies(wait);
    }
    // Whatever is left never completed: sent but unanswered, or never sent.
    let Conn {
        stream,
        pending,
        mut log,
        ..
    } = c;
    for (r, lag, _) in pending {
        log.samples.push(Sample {
            due: r.due,
            done: None,
            lag,
            ok: false,
        });
    }
    for r in &open[next..] {
        log.samples.push(Sample {
            due: r.due,
            done: None,
            lag: Duration::ZERO,
            ok: false,
        });
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    log
}

/// Echoes one connection until EOF.
fn serve(s: &TcpStream) -> i64 {
    let mut buf = [0u8; 4096];
    let mut reads = 0u64;
    loop {
        reads += 1;
        let n = match span("net.read", 0, reads, |_| s.read(&mut buf)) {
            Ok(0) | Err(_) => return reads as i64,
            Ok(n) => n,
        };
        if span("net.write", 0, reads, |_| s.write_all(&buf[..n])).is_err() {
            return reads as i64;
        }
    }
}

struct Server {
    vm: Arc<Vm>,
    port: u16,
    acceptor: Arc<Thread>,
}

fn start_server(traced: bool) -> Result<Server, String> {
    let vm = span("core.vm_build", 0, 0, |_| {
        VmBuilder::new()
            .vps(2)
            .stack_size(64 * 1024)
            .io_backend(IoBackend::Auto)
            .trace(traced)
            .name("echo")
            .build()
    });
    let listener = TcpListener::bind(LOCALHOST, 0).map_err(|e| format!("bind: {e}"))?;
    let port = listener
        .local_port()
        .map_err(|e| format!("local_port: {e}"))?;
    let vm2 = vm.clone();
    let acceptor = vm.fork(move |cx| {
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            match span("net.accept", 0, 0, |_| listener.accept()) {
                Ok(s) => conns.push(vm2.fork(move |_cx| serve(&s))),
                Err(_) => break,
            }
        }
        let served = conns.len() as i64;
        for c in conns {
            let _ = cx.wait(&c);
        }
        served
    });
    Ok(Server { vm, port, acceptor })
}

impl Server {
    /// Waits for every connection thread to see its client's EOF, then
    /// shuts the VM down.  A connection thread that never finishes is an
    /// error, not a hang.
    fn finish(&self) -> Result<(), String> {
        let joined = self.acceptor.join_blocking_timeout(DRAIN);
        span("core.shutdown", 0, 0, |_| self.vm.shutdown());
        match joined {
            Some(_) => Ok(()),
            None => Err(format!(
                "server connection threads still running {DRAIN:?} after the clients closed"
            )),
        }
    }
}

/// One step of the open loop's ladder.
struct Step {
    achieved: f64,
    p99_us: f64,
    pass: bool,
}

/// The highest offered rate that meets the p99 limit without a growing
/// backlog.  When the next step up fails on its p99, the rate is
/// interpolated between the two on log p99, so the figure moves with the
/// knee instead of jumping a whole step.
fn knee(steps: &[Step]) -> f64 {
    let Some(i) = steps.iter().rposition(|s| s.pass) else {
        return 0.0;
    };
    let lo = &steps[i];
    match steps.get(i + 1) {
        Some(hi) if hi.p99_us > P99_LIMIT_US && lo.p99_us > 0.0 => {
            let f = (P99_LIMIT_US / lo.p99_us).ln() / (hi.p99_us / lo.p99_us).ln();
            lo.achieved + f.clamp(0.0, 1.0) * (hi.achieved - lo.achieved)
        }
        _ => lo.achieved,
    }
}

/// The nominal phase, then the ladder's steps, from `start` to `end`.
fn open_phases(start: Duration, end: Duration) -> Vec<Phase> {
    let nominal_end = start + (end - start).mul_f64(NOMINAL_SHARE / (1.0 - CLOSED_SHARE));
    let step = (end - nominal_end) / LADDER.len() as u32;
    let mut phases = vec![Phase {
        rate: NOMINAL_RATE,
        start,
        end: nominal_end,
    }];
    for (i, &rate) in LADDER.iter().enumerate() {
        let start = nominal_end + step * i as u32;
        phases.push(Phase {
            rate,
            start,
            end: start + step,
        });
    }
    phases
}

/// Records the open loop's figures: latency, generator lag and backlog at
/// the nominal rate, and the ladder's knee.
fn record_open_loop(out: &mut Outcome, nominal: &Phase, ladder: &[Phase], logs: &[ClientLog]) {
    let samples = || logs.iter().flat_map(|l| l.samples.iter());
    let mut lat: Vec<f64> = samples()
        .filter(|s| nominal.holds(s))
        .map(Sample::latency_us)
        .collect();
    out.layers
        .insert("open.p50_us", measure::quantile(&mut lat, 0.50));
    out.layers
        .insert("open.p99_us", measure::quantile(&mut lat, 0.99));
    let mut lags: Vec<f64> = samples()
        .filter(|s| nominal.holds(s))
        .map(|s| s.lag.as_secs_f64() * 1e6)
        .collect();
    out.layers
        .insert("gen.lag_p99_us", measure::quantile(&mut lags, 0.99));
    let backlog_max = logs
        .iter()
        .flat_map(|l| l.backlog.iter())
        .filter(|(t, _)| *t >= nominal.start && *t < nominal.end)
        .map(|&(_, b)| b)
        .max()
        .unwrap_or(0);
    out.layers.insert("gen.backlog_max", backlog_max as f64);

    // The ladder.  A step passes when it meets the p99 limit and ends
    // with no more in flight than the limit lets its rate put there (by
    // Little's law): a backlog beyond that is growing.
    let mut steps = Vec::new();
    let mut notes = Vec::new();
    for ph in ladder {
        let mut lat: Vec<f64> = samples()
            .filter(|s| ph.holds(s))
            .map(Sample::latency_us)
            .collect();
        let completed = lat.iter().filter(|l| l.is_finite()).count();
        let backlog_end: usize = logs
            .iter()
            .map(|l| {
                l.backlog
                    .iter()
                    .take_while(|(t, _)| *t < ph.end)
                    .last()
                    .map_or(0, |&(_, b)| b)
            })
            .sum();
        let p99_us = measure::quantile(&mut lat, 0.99);
        let backlog_ok = backlog_end as f64 <= (ph.rate * P99_LIMIT_US / 1e6).max(CONNS as f64);
        let st = Step {
            achieved: completed as f64 / (ph.end - ph.start).as_secs_f64(),
            p99_us,
            pass: p99_us <= P99_LIMIT_US && backlog_ok,
        };
        notes.push(format!(
            "{}/s: {:.0}/s p50 {:.0}us p99 {:.0}us backlog {}{}",
            ph.rate,
            st.achieved,
            measure::quantile(&mut lat, 0.5),
            st.p99_us,
            backlog_end,
            if st.pass { "" } else { " (fails)" }
        ));
        steps.push(st);
    }
    out.layers.insert("open.knee_ops_per_s", knee(&steps));
    out.notes.push(("ladder", notes.join("; ")));
}

/// Runs the closed loop for `seconds`, or for 70 % of them followed by
/// the open loop when `open_loop` is set.
pub fn run(seed: u64, seconds: f64, traced: bool, open_loop: bool) -> Outcome {
    let mut out = Outcome::default();
    crate::trace::sample_every(8);
    measure::clear_exclusions();

    // Inputs, all from the seed: payload bytes, the closed loop's
    // requests, and each connection's open-loop schedule.
    let mut rng = Rng::new(seed, 4);
    let payload: Arc<Vec<u8>> = Arc::new((0..64 * 1024).map(|_| rng.next_u64() as u8).collect());
    let closed: Arc<Vec<Req>> = Arc::new(
        (0..4096)
            .map(|_| random_req(&mut rng, Duration::ZERO, payload.len()))
            .collect(),
    );
    let closed_share = if open_loop { CLOSED_SHARE } else { 1.0 };
    let closed_end = Duration::from_secs_f64(seconds * closed_share);
    let phases = if open_loop {
        open_phases(closed_end, Duration::from_secs_f64(seconds))
    } else {
        Vec::new()
    };
    let scheds: Vec<Arc<Vec<Req>>> = (0..CONNS)
        .map(|c| {
            Arc::new(schedule(
                &mut Rng::new(seed, 10 + c as u64),
                &phases,
                payload.len(),
            ))
        })
        .collect();

    // Set up: server VM, listener, client connections accepted.
    let mut ready = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let server = match start_server(traced) {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        };
        let mut streams = Vec::new();
        for _ in 0..CONNS {
            match std::net::TcpStream::connect(("127.0.0.1", server.port)) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    streams.push(s);
                }
                Err(e) => {
                    out.errors.push(format!("connect: {e}"));
                    return out;
                }
            }
        }
        // Accepted on the server side before the first op: one round
        // trip per connection.
        for s in &mut streams {
            let mut b = [0u8; 1];
            if s.write_all(b"!")
                .and_then(|()| s.read_exact(&mut b))
                .is_err()
            {
                out.errors.push("connection warm-up failed".into());
                return out;
            }
        }
        out.setups_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(streams);
            if let Err(e) = server.finish() {
                out.errors.push(e);
                return out;
            }
        } else {
            ready = Some((server, streams));
        }
    }
    let (server, streams) = ready.expect("at least one setup");
    let io0 = server.vm.io_driver().stats();
    let c0 = server.vm.counters().snapshot();

    // The meter covers the closed loop only.
    let meter = Meter::start(closed_end.as_secs_f64());
    let base = Instant::now();
    let base_s = meter.at(base);
    let clients: Vec<_> = streams
        .into_iter()
        .zip(&scheds)
        .map(|(s, open)| {
            let (closed, open, payload) = (closed.clone(), open.clone(), payload.clone());
            std::thread::spawn(move || client(s, &closed, closed_end, &open, &payload, base))
        })
        .collect();
    std::thread::sleep(closed_end.saturating_sub(base.elapsed()));
    out.cpu = meter.finish();
    let logs: Vec<ClientLog> = clients
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| ClientLog {
                error: Some("client thread panicked".into()),
                ..ClientLog::default()
            })
        })
        .collect();
    measure::clear_exclusions();
    if let Err(e) = server.finish() {
        out.errors.push(e);
    }
    let io = server.vm.io_driver().stats();
    let delta = server.vm.counters().snapshot().since(&c0);

    let samples = || logs.iter().flat_map(|l| l.samples.iter());
    out.attempted = samples().count() as u64;
    out.failed = samples().filter(|s| !s.ok).count() as u64;
    out.errors
        .extend(logs.iter().filter_map(|l| l.error.clone()));
    for s in samples().filter(|s| s.due < closed_end) {
        if let (true, Some(done)) = (s.ok, s.done) {
            out.done.push((base_s + done.as_secs_f64(), s.latency_us()));
        }
    }

    if let Some((nominal, ladder)) = phases.split_first() {
        record_open_loop(&mut out, nominal, ladder, &logs);
    }
    out.notes.push(("backend", io.backend.to_string()));

    let ops = out.ops() as f64;
    out.record_core(&delta, &server.vm.metrics().snapshot());
    let wakes = io.wakes - io0.wakes;
    out.layers
        .insert("reactor.wakes_per_op", measure::ratio(wakes as f64, ops));
    out.layers.insert(
        "reactor.syscalls_per_wake",
        measure::ratio((io.syscalls - io0.syscalls) as f64, wakes as f64),
    );
    if traced {
        out.record_audit(&server.vm.trace_audit());
    }
    out.errors.truncate(10);
    out
}
