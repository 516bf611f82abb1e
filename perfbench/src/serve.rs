//! The serve workloads: a real `leaps serve` daemon driven over its Unix
//! socket by one connection, with one writer (this thread) and one
//! reader thread, both blocking.

use crate::inputs::{self, Stream};
use crate::stats::{beyond, median, percentile, repeat_share, Schedule, Tail};
use crate::trace::Tracer;
use crate::{procfs, Ctx, Report};
use leaps::core::persist::load_classifier;
use leaps::core::pipeline::{Classifier, SvmClassifier};
use leaps::core::stream::{StreamDetector, Verdict};
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::obs::Snapshot;
use leaps::serve::proto::decode_event;
use leaps::serve::{Client, Endpoint, Reply};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Open loop: events go out on a fixed schedule of `rate` events per
    /// second in total, round-robin over the sessions.
    Paced { rate: u64 },
    /// Closed loop: a session is sent a burst of up to `inflight` events
    /// whenever every event it has in flight has been scored.
    Capacity { inflight: u64 },
}

const SESSIONS: usize = 8;
const WORKERS: usize = 1;
const QUEUE: usize = 1024;
const WARMUP: Duration = Duration::from_secs(1);
/// Daemon start-ups timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 31;
/// Benign and mixed events the served model is trained on.
const MODEL_EVENTS: usize = 3000;
/// Seed of the served model's training logs and of its training. It is
/// the same for every run, so the model's size (support vectors, clusters)
/// and hence the per-event cost is the same operating point whatever the
/// run seed; the seed varies the traffic.
const MODEL_SEED: u64 = 0x1ea5;
/// Stream length of the closed loop, sized for this total rate. Should a
/// faster daemon drain the streams early, the measured phase ends when
/// they run out and rates are taken over the time actually measured.
const CAPACITY_STREAM_EPS: u64 = 36_000;
/// Leading events of each session replayed call by call in the traced pass.
const TRACED_EVENTS: usize = 2000;
/// How long the generator waits for an expected reply before it gives up
/// and reports the run as failed.
const STALL: Duration = Duration::from_secs(30);

/// Registry name of the served model.
const MODEL: &str = "served";

/// A running `leaps serve`.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and blocks until it reports that it listens.
    fn spawn(leaps: &Path, socket: &Path, models: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = std::process::Command::new(leaps)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--models")
            .arg(models)
            .args(["--workers", &WORKERS.to_string(), "--queue", &QUEUE.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning leaps serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        if !line.starts_with("leaps-serve listening") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("leaps serve did not start: {line:?}"));
        }
        Ok(Daemon { child, stdout, socket: socket.to_owned() })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    /// `METRICS [reset]` over a short control connection.
    fn metrics(&self, reset: bool) -> Result<Snapshot, String> {
        let mut verdicts = Vec::new();
        let mut client = Client::connect(&self.endpoint()).map_err(|e| e.to_string())?;
        client.fetch_metrics(reset, &mut verdicts).map_err(|e| e.to_string())
    }

    /// Sends `SHUTDOWN` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut verdicts = Vec::new();
        let mut client = Client::connect(&self.endpoint()).map_err(|e| e.to_string())?;
        let hello = leaps::serve::Command::Hello { client: "perfbench-control".to_owned() };
        client.expect_ok(&hello, &mut verdicts).map_err(|e| e.to_string())?;
        client
            .expect_ok(&leaps::serve::Command::Shutdown, &mut verdicts)
            .map_err(|e| e.to_string())?;
        drop(client);
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| format!("waiting for leaps serve: {e}"))?;
        if !status.success() {
            return Err(format!("leaps serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The load connection: HELLO and every OPEN acknowledged.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

fn expect_line(reader: &mut BufReader<UnixStream>, prefix: &str) -> Result<String, String> {
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("reading reply: {e}"))?;
    if line.starts_with(prefix) {
        Ok(line)
    } else {
        Err(format!("expected {prefix:?}, got {line:?}"))
    }
}

/// Connects, says HELLO and opens every session, with the commands
/// pipelined in one write, then reads their acknowledgements in order.
fn open_sessions(socket: &Path, streams: &[Stream]) -> Result<Conn, String> {
    let mut writer = UnixStream::connect(socket).map_err(|e| format!("connecting: {e}"))?;
    let mut reader =
        BufReader::new(writer.try_clone().map_err(|e| format!("cloning socket: {e}"))?);
    let mut commands = "HELLO perfbench\n".to_owned();
    for s in streams {
        commands.push_str(&format!("OPEN pid={} model={MODEL}\n", s.pid));
    }
    writer.write_all(commands.as_bytes()).map_err(|e| format!("sending: {e}"))?;
    expect_line(&mut reader, "OK hello")?;
    for _ in streams {
        expect_line(&mut reader, "OK open")?;
    }
    Ok(Conn { writer, reader })
}

/// One timed start-up: spawns the daemon and opens every session over the
/// load connection. Returns both and the seconds it took.
fn start_up(
    leaps: &Path,
    socket: &Path,
    models: &Path,
    streams: &[Stream],
) -> Result<(Daemon, Conn, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(leaps, socket, models)?;
    let conn = open_sessions(socket, streams)?;
    Ok((daemon, conn, t.elapsed().as_secs_f64()))
}

/// Times `n` start-ups, each shut down again at once.
fn time_start_ups(
    n: usize,
    leaps: &Path,
    socket: &Path,
    models: &Path,
    streams: &[Stream],
    setup_s: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..n {
        let (daemon, conn, seconds) = start_up(leaps, socket, models, streams)?;
        setup_s.push(seconds);
        drop(conn);
        daemon.shutdown()?;
    }
    Ok(())
}

/// Per-session progress shared by the writer and the reader.
struct Progress {
    sent: [u64; SESSIONS],
    verdicts: [u64; SESSIONS],
    /// Events covered by the latest verdict of each session.
    covered: [u64; SESSIONS],
    /// Replies that refuse or contradict what was sent (`BUSY`, `ERR`, a
    /// verdict for no sent event): after one, the verdict count of some
    /// session can no longer reach what its events imply.
    refused: u64,
}

struct Shared {
    t0: Instant,
    mode: Mode,
    schedule: Option<Schedule>,
    window: u64,
    stride: u64,
    /// Send time (ns after `t0`) of each session's k-th event.
    sent_ns: Vec<Vec<AtomicU64>>,
    /// Send time of the j-th event sent on the connection, for its ack.
    ack_ns: Vec<AtomicU64>,
    /// Verdicts whose last event was due (paced) or sent (closed loop)
    /// inside `[from, to)` (ns after `t0`) count towards the latency
    /// sample; set when the measured phase starts.
    measure_from_ns: AtomicU64,
    measure_to_ns: AtomicU64,
    progress: Mutex<Progress>,
    changed: Condvar,
}

impl Shared {
    /// State for sessions of `events` events each, scored in windows of
    /// `window` events every `stride` events.
    fn new(mode: Mode, window: usize, stride: usize, events: usize) -> Shared {
        let slots = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Shared {
            t0: Instant::now(),
            mode,
            schedule: match mode {
                Mode::Paced { rate } => Some(Schedule::new(rate)),
                Mode::Capacity { .. } => None,
            },
            window: window as u64,
            stride: stride as u64,
            sent_ns: (0..SESSIONS).map(|_| slots(events)).collect(),
            ack_ns: slots(events * SESSIONS),
            measure_from_ns: AtomicU64::new(u64::MAX),
            measure_to_ns: AtomicU64::new(u64::MAX),
            progress: Mutex::new(Progress {
                sent: [0; SESSIONS],
                verdicts: [0; SESSIONS],
                covered: [0; SESSIONS],
                refused: 0,
            }),
            changed: Condvar::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Verdicts a detector emits after `n` events of a contiguous stream.
    fn expected_verdicts(&self, n: u64) -> u64 {
        if n < self.window {
            0
        } else {
            (n - self.window) / self.stride + 1
        }
    }

    fn all_scored(&self, p: &Progress) -> bool {
        (0..SESSIONS).all(|s| p.verdicts[s] == self.expected_verdicts(p.sent[s]))
    }

    /// Whether nothing more is worth waiting for: every sent event has its
    /// verdict, or a refusal means some never will. The verification
    /// after the run counts what is missing.
    fn settled(&self, p: &Progress) -> bool {
        p.refused > 0 || self.all_scored(p)
    }

    /// Whether session `s` has a verdict for every event it was sent, bar
    /// the fewer than `stride` that no complete window covers yet.
    fn caught_up(&self, p: &Progress, s: usize) -> bool {
        p.sent[s] - p.covered[s] < self.stride
    }

    /// Blocks until the run is [settled](Self::settled). Returns a
    /// description of the stall when verdicts stop arriving for
    /// [`STALL`] first.
    fn wait_settled(&self) -> Option<String> {
        let mut p = self.progress.lock().expect("progress lock poisoned");
        while !self.settled(&p) {
            let (next, timeout) =
                self.changed.wait_timeout(p, STALL).expect("progress lock poisoned");
            if timeout.timed_out() && !self.settled(&next) {
                return Some(format!(
                    "verdicts stalled: sent {:?}, verdicts {:?}",
                    next.sent, next.verdicts
                ));
            }
            p = next;
        }
        None
    }

    /// When the event that closed this verdict's window was due (paced)
    /// or sent (closed loop), in ns after `t0`.
    fn origin_ns(&self, session: usize, k: u64) -> u64 {
        match self.schedule {
            Some(schedule) => {
                let i = k * SESSIONS as u64 + session as u64;
                u64::try_from(schedule.due(i).as_nanos()).unwrap_or(u64::MAX)
            }
            None => self.sent_ns[session][k as usize].load(Ordering::Acquire),
        }
    }

    /// The session index and 0-based event index a verdict refers to, if
    /// it names one of this run's sessions and an event sent to it.
    fn locate(&self, pid: u32, last_event: u64) -> Option<(usize, u64)> {
        let s = usize::try_from(pid.checked_sub(inputs::FIRST_PID)?).ok()?;
        let k = last_event.checked_sub(1)?;
        match self.sent_ns.get(s) {
            Some(sent) if (k as usize) < sent.len() => Some((s, k)),
            _ => None,
        }
    }
}

/// What the reader thread saw.
#[derive(Default)]
struct Received {
    verdicts: Vec<Vec<Verdict>>,
    /// (origin ns, latency µs) of verdicts whose origin fell inside the
    /// measured phase.
    latency: Vec<(u64, f64)>,
    ack_us: Vec<f64>,
    refused: Vec<String>,
    close_details: Vec<String>,
}

fn read_replies(shared: &Shared, reader: &mut BufReader<UnixStream>) -> Received {
    let mut out = Received { verdicts: vec![Vec::new(); SESSIONS], ..Received::default() };
    let refuse = |out: &mut Received, what: String| {
        out.refused.push(what);
        shared.progress.lock().expect("progress lock poisoned").refused += 1;
        shared.changed.notify_all();
    };
    let mut acks = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                refuse(&mut out, "connection ended before BYE".to_owned());
                break;
            }
            Ok(_) => {}
        }
        let now = shared.now_ns();
        if line == "OK event\n" {
            let sent = shared.ack_ns[acks].load(Ordering::Acquire);
            out.ack_us.push(now.saturating_sub(sent) as f64 / 1e3);
            acks += 1;
            continue;
        }
        match Reply::parse_line(&line) {
            Ok(Reply::Verdict { pid, verdict }) => {
                let Some((s, k)) = shared.locate(pid, verdict.last_event) else {
                    refuse(&mut out, format!("verdict for no sent event: {line:?}"));
                    continue;
                };
                let origin = shared.origin_ns(s, k);
                let from = shared.measure_from_ns.load(Ordering::Acquire);
                if origin >= from && origin < shared.measure_to_ns.load(Ordering::Acquire) {
                    out.latency.push((origin - from, now.saturating_sub(origin) as f64 / 1e3));
                }
                let mut p = shared.progress.lock().expect("progress lock poisoned");
                p.verdicts[s] += 1;
                p.covered[s] = verdict.last_event;
                let refill =
                    matches!(shared.mode, Mode::Capacity { .. }) && shared.caught_up(&p, s);
                let wake = refill || shared.settled(&p);
                drop(p);
                if wake {
                    shared.changed.notify_all();
                }
                out.verdicts[s].push(verdict);
            }
            Ok(Reply::Ok { detail }) if detail.starts_with("close") => {
                out.close_details.push(detail);
            }
            Ok(Reply::Ok { detail }) if detail == "bye" => break,
            Ok(Reply::Busy { pid, shed }) => {
                acks += 1;
                refuse(&mut out, format!("BUSY pid={pid} shed={shed}"));
            }
            Ok(Reply::Err { family, message }) => {
                acks += 1;
                refuse(&mut out, format!("ERR {family} {message}"));
            }
            _ => refuse(&mut out, format!("unexpected reply {line:?}")),
        }
    }
    out
}

/// The measured phase is cut into windows of this length; each end-to-end
/// figure is the median over windows, so a burst of interference on the
/// host moves one window, not the run.
const WINDOW: Duration = Duration::from_secs(1);

/// One reading taken at a window boundary.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Offset from the start of the measured phase.
    at: Duration,
    /// Daemon CPU seconds so far.
    cpu_s: f64,
    /// Events scored so far: those covered by each session's latest verdict.
    scored: u64,
    /// The host's (steal, total) CPU ticks.
    host: (u64, u64),
}

fn sample(shared: &Shared, daemon: &Daemon, start: Duration) -> Result<Sample, String> {
    let scored = shared.progress.lock().expect("progress lock poisoned").covered.iter().sum();
    Ok(Sample {
        at: shared.t0.elapsed().saturating_sub(start),
        cpu_s: procfs::cpu_seconds(daemon.pid()).map_err(|e| e.to_string())?,
        scored,
        host: procfs::steal_ticks().map_err(|e| e.to_string())?,
    })
}

/// Readings at every window boundary of the measured phase, the rate the
/// generator actually sent at, its lateness (open loop only), and how the
/// wait for the last verdicts stalled, if it did.
struct Phase {
    samples: Vec<Sample>,
    offered_eps: f64,
    late_us: Vec<f64>,
    stall: Option<String>,
}

impl Phase {
    /// Daemon CPU µs per scored event in each window that scored any.
    fn cpu_us_per_event(&self) -> Vec<f64> {
        self.samples
            .windows(2)
            .filter(|w| w[1].scored > w[0].scored)
            .map(|w| (w[1].cpu_s - w[0].cpu_s) * 1e6 / (w[1].scored - w[0].scored) as f64)
            .collect()
    }

    /// (events scored, daemon CPU s, wall s, host steal share) over the
    /// whole phase.
    fn totals(&self) -> (u64, f64, f64, f64) {
        let (first, last) = (self.samples[0], self.samples[self.samples.len() - 1]);
        let wall_s = (last.at - first.at).as_secs_f64();
        let steal = procfs::steal_share(first.host, last.host);
        (last.scored - first.scored, last.cpu_s - first.cpu_s, wall_s, steal)
    }
}

/// Each window's median verdict latency, in µs. `latency` holds (offset
/// of the verdict's origin into the phase in ns, latency in µs).
fn window_p50s(latency: &[(u64, f64)], windows: usize) -> Vec<f64> {
    let width = WINDOW.as_nanos() as u64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(offset, us) in latency {
        if let Some(w) = per.get_mut((offset / width) as usize) {
            w.push(us);
        }
    }
    per.iter_mut().filter_map(|w| Tail::of(w).map(|t| t.p50)).collect()
}

/// Open loop: every event is sent at (or as soon as possible after) its
/// due time. Between sends the generator resets the daemon's metrics just
/// before the measured phase and samples its CPU at each window boundary.
fn paced(
    shared: &Shared,
    writer: &mut UnixStream,
    streams: &[Stream],
    daemon: &Daemon,
    seconds: u64,
) -> Result<Phase, String> {
    let schedule = shared.schedule.expect("paced runs have a schedule");
    let start = WARMUP;
    let end = WARMUP + Duration::from_secs(seconds);
    let total = schedule.due_by(end - Duration::from_nanos(1));
    let per_session = streams[0].len() as u64;
    assert!(total <= per_session * SESSIONS as u64, "streams cover the schedule");
    shared.measure_from_ns.store(start.as_nanos() as u64, Ordering::Release);
    shared.measure_to_ns.store(end.as_nanos() as u64, Ordering::Release);
    procfs::tighten_timer_slack();
    let mut reset = false;
    let mut next_sample = start;
    let mut samples = Vec::new();
    let mut late_us = Vec::new();
    let mut batch = String::new();
    let mut i = 0u64;
    let mut acks = 0usize;
    // (events sent, first and last send) of the measured phase's events
    let mut sends = (0u64, None, 0u64);
    while i < total || next_sample <= end {
        let now = shared.t0.elapsed();
        if !reset && now + Duration::from_millis(50) >= start {
            daemon.metrics(true)?;
            reset = true;
            continue;
        }
        if now >= next_sample {
            samples.push(sample(shared, daemon, start)?);
            next_sample += WINDOW;
            continue;
        }
        let due = if i < total { schedule.due(i) } else { next_sample };
        if due > now {
            std::thread::sleep((due - now).min(next_sample - now));
            continue;
        }
        batch.clear();
        let ready = schedule.due_by(now).min(total);
        let sent_ns = shared.now_ns();
        let mut sent = [0u64; SESSIONS];
        while i < ready {
            let (k, s) = ((i / SESSIONS as u64) as usize, (i % SESSIONS as u64) as usize);
            batch.push_str(streams[s].lines(k..k + 1));
            shared.ack_ns[acks].store(sent_ns, Ordering::Release);
            acks += 1;
            sent[s] += 1;
            if schedule.due(i) >= start {
                let late = schedule.lateness(i, Duration::from_nanos(sent_ns));
                late_us.push(late.as_nanos() as f64 / 1e3);
                sends = (sends.0 + 1, sends.1.or(Some(sent_ns)), sent_ns);
            }
            i += 1;
        }
        {
            let mut p = shared.progress.lock().expect("progress lock poisoned");
            for (total, n) in p.sent.iter_mut().zip(sent) {
                *total += n;
            }
        }
        writer.write_all(batch.as_bytes()).map_err(|e| format!("sending events: {e}"))?;
    }
    let stall = shared.wait_settled();
    let span_s = (sends.2 - sends.1.unwrap_or(sends.2)) as f64 / 1e9;
    let offered_eps = sends.0.saturating_sub(1) as f64 / span_s.max(1e-9);
    Ok(Phase { samples, offered_eps, late_us, stall })
}

/// Closed loop until `until` (an offset from `t0`), refilling each
/// session with a burst of up to `inflight` events once every event it
/// has in flight has been scored. Ends early on a refused reply.
/// With `sampler`, takes a [`Sample`] at every window boundary from its
/// start offset on.
fn closed_loop(
    shared: &Shared,
    writer: &mut UnixStream,
    streams: &[Stream],
    inflight: u64,
    until: Duration,
    acks: &mut usize,
    mut sampler: Option<(&Daemon, Duration, &mut Vec<Sample>)>,
) -> Result<(), String> {
    let mut batch = String::new();
    let mut next_sample = sampler.as_ref().map_or(Duration::MAX, |(_, start, _)| *start);
    loop {
        let mut take = [0u64; SESSIONS];
        let mut first = [0u64; SESSIONS];
        let mut p = shared.progress.lock().expect("progress lock poisoned");
        loop {
            let now = shared.t0.elapsed();
            if now >= next_sample {
                drop(p);
                if let Some((daemon, start, samples)) = sampler.as_mut() {
                    samples.push(sample(shared, daemon, *start)?);
                    next_sample += WINDOW;
                }
                p = shared.progress.lock().expect("progress lock poisoned");
                continue;
            }
            if now >= until || p.refused > 0 {
                return Ok(());
            }
            let mut any = false;
            for s in 0..SESSIONS {
                let left = streams[s].len() as u64 - p.sent[s];
                let free = inflight.saturating_sub(p.sent[s] - p.covered[s]).min(left);
                if free > 0 && shared.caught_up(&p, s) {
                    take[s] = free;
                    first[s] = p.sent[s];
                    p.sent[s] += free;
                    any = true;
                }
            }
            if any {
                break;
            }
            if (0..SESSIONS).all(|s| p.sent[s] == streams[s].len() as u64) {
                return Ok(()); // streams exhausted: the phase ends early
            }
            let wake = next_sample.min(until) - now;
            p = shared.changed.wait_timeout(p, wake).expect("progress lock poisoned").0;
        }
        drop(p);
        batch.clear();
        let sent_ns = shared.now_ns();
        for s in 0..SESSIONS {
            let (from, to) = (first[s] as usize, (first[s] + take[s]) as usize);
            batch.push_str(streams[s].lines(from..to));
            for k in from..to {
                shared.sent_ns[s][k].store(sent_ns, Ordering::Release);
                shared.ack_ns[*acks].store(sent_ns, Ordering::Release);
                *acks += 1;
            }
        }
        writer.write_all(batch.as_bytes()).map_err(|e| format!("sending events: {e}"))?;
    }
}

fn capacity(
    shared: &Shared,
    writer: &mut UnixStream,
    streams: &[Stream],
    daemon: &Daemon,
    inflight: u64,
    seconds: u64,
) -> Result<Phase, String> {
    let mut acks = 0usize;
    closed_loop(shared, writer, streams, inflight, WARMUP, &mut acks, None)?;
    if let Some(stall) = shared.wait_settled() {
        return Ok(Phase {
            samples: Vec::new(),
            offered_eps: 0.0,
            late_us: Vec::new(),
            stall: Some(stall),
        });
    }
    daemon.metrics(true)?;
    let start = shared.t0.elapsed();
    shared.measure_from_ns.store(start.as_nanos() as u64, Ordering::Release);
    let until = start + Duration::from_secs(seconds);
    let mut samples = Vec::new();
    let sampler = Some((daemon, start, &mut samples));
    let sent = |shared: &Shared| -> u64 {
        shared.progress.lock().expect("progress lock poisoned").sent.iter().sum()
    };
    let before = sent(shared);
    closed_loop(shared, writer, streams, inflight, until, &mut acks, sampler)?;
    let offered = (sent(shared) - before) as f64 / (shared.t0.elapsed() - start).as_secs_f64();
    let stall = shared.wait_settled();
    Ok(Phase { samples, offered_eps: offered, late_us: Vec::new(), stall })
}

/// Runs `f` for every session, on at most two threads (one session at a
/// time each, so memory stays that of two sessions), in session order.
fn per_session_parallel<T: Send>(f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    (t..SESSIONS).step_by(threads).map(|s| (s, f(s))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("session thread panicked")).collect()
    });
    out.sort_by_key(|(s, _)| *s);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Compares a session's served verdicts with its replayed ones, bit for
/// bit through the wire encoding; one line per mismatch, missing or
/// unexpected verdict.
fn match_verdicts(pid: u32, expected: &[Verdict], received: &[Verdict]) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, want) in expected.iter().enumerate() {
        match received.get(i) {
            Some(got) if got.to_line() == want.to_line() => {}
            Some(got) => failures.push(format!(
                "pid={pid} verdict {i}: served {:?}, replay {:?}",
                got.to_line(),
                want.to_line()
            )),
            None => failures.push(format!("pid={pid} verdict {i} missing")),
        }
    }
    for extra in received.iter().skip(expected.len()) {
        failures.push(format!("pid={pid} unexpected verdict {:?}", extra.to_line()));
    }
    failures
}

/// Replays the first `sent` events of a session in-process and matches
/// the verdicts. Returns (verdicts expected, failures, (repeated, total)
/// lib/func-set keys when `keys` is set).
fn verify_session(
    classifier: &Classifier,
    stream: &Stream,
    sent: usize,
    received: &[Verdict],
    keys: bool,
) -> (u64, Vec<String>, (usize, usize)) {
    let mut detector = StreamDetector::new(classifier.clone());
    let mut expected = Vec::new();
    let mut sets = Vec::new();
    for k in 0..sent {
        let event = decode_event(stream.body(k)).expect("pre-encoded lines decode");
        if keys {
            let libs: Vec<String> = event.lib_set().into_iter().map(str::to_owned).collect();
            sets.push((libs, event.func_set()));
        }
        expected.extend(detector.push(event));
    }
    let failures = match_verdicts(stream.pid, &expected, received);
    (expected.len() as u64, failures, repeat_share(sets))
}

/// Counts of a `METRICS` snapshot the benchmark reads: (events submitted,
/// pool jobs run, p50 of the daemon's per-`EVENT` latency in µs).
pub fn daemon_counts(snapshot: &Snapshot) -> (u64, u64, f64) {
    let events = snapshot.counter("serve.events").unwrap_or(0);
    let jobs = snapshot.counter("pool.jobs").unwrap_or(0);
    let event_p50 = snapshot.hist("proto.event.us").map_or(0.0, |h| h.quantile(0.5) as f64);
    (events, jobs, event_p50)
}

fn svm_shape(classifier: &Classifier) -> Result<(usize, usize), String> {
    match classifier {
        Classifier::Svm(svm) => {
            let cfg = svm.encoder.config();
            Ok((cfg.window, cfg.stride))
        }
        _ => Err("the served model is not an SVM".to_owned()),
    }
}

/// Index of the first verdict whose window ends at or after event `k`
/// (0-based): the verdict an event's work is charged to in the spans.
fn verdict_of(k: usize, window: usize, stride: usize) -> usize {
    (k + 1).saturating_sub(window).div_ceil(stride)
}

/// Seconds spent in each serving layer's public function over `n`
/// leading events of a session: decode, encode, push (per event), decide
/// (per verdict).
#[derive(Default)]
struct StageTimes {
    decode: f64,
    encode: f64,
    push: f64,
    decide: f64,
    events: usize,
    verdicts: usize,
}

/// Calls each serving layer over the first `n` events of a stream, one
/// layer per pass so no call runs on caches another layer's call just
/// warmed: decode every line, push every event through a fresh detector,
/// then encode every event and decide every window the detector closed.
/// Each call gets a span; spans of one verdict share its id. Returns the
/// times and, per verdict, (the detector's score, the staged decision).
fn staged_pass(
    tracer: &mut Tracer,
    svm: &SvmClassifier,
    classifier: &Classifier,
    stream: &Stream,
    n: usize,
    base: u64,
) -> (StageTimes, Vec<(Option<f64>, f64)>) {
    let cfg = svm.encoder.config();
    let id = |k: usize| base + verdict_of(k, cfg.window, cfg.stride) as u64;
    let mut times = StageTimes { events: n, ..StageTimes::default() };
    let root = tracer.open("replay", base, None);
    let mut events = Vec::with_capacity(n);
    for k in 0..n {
        let t = Instant::now();
        events.push(tracer.time("proto.decode", id(k), root, || {
            decode_event(stream.body(k)).expect("pre-encoded lines decode")
        }));
        times.decode += t.elapsed().as_secs_f64();
    }
    let mut detector = StreamDetector::new(classifier.clone());
    let mut closed = Vec::new();
    for (k, event) in events.iter().enumerate() {
        let event = event.clone();
        let t = Instant::now();
        let verdict = tracer.time("stream.push", id(k), root, || detector.push(event));
        times.push += t.elapsed().as_secs_f64();
        if let Some(v) = verdict {
            closed.push((k, v.score));
        }
    }
    let mut triples = Vec::with_capacity(n);
    for (k, event) in events.iter().enumerate() {
        let t = Instant::now();
        triples.push(tracer.time("cluster.encode", id(k), root, || svm.encoder.encode(event)));
        times.encode += t.elapsed().as_secs_f64();
    }
    let mut decisions = Vec::with_capacity(closed.len());
    for (k, score) in closed {
        let point: Vec<f64> = triples[k + 1 - cfg.window..=k].iter().flatten().copied().collect();
        let t = Instant::now();
        let value = tracer.time("svm.decide", id(k), root, || svm.model.decision(&point));
        times.decide += t.elapsed().as_secs_f64();
        decisions.push((score, value));
    }
    tracer.close(root);
    times.verdicts = decisions.len();
    (times, decisions)
}

/// Per-call timings of the serving layers over the leading events of each
/// session, plus the same calls with spans off for the tracing overhead.
/// Every staged decision must equal the detector's score bit for bit.
fn traced_replay(ctx: &mut Ctx, classifier: &Classifier, streams: &[Stream], report: &mut Report) {
    let Classifier::Svm(svm) = classifier else { return };
    let mut all = StageTimes::default();
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (s, stream) in streams.iter().enumerate() {
        let n = TRACED_EVENTS.min(stream.len());
        let base = all.verdicts as u64;
        let t = Instant::now();
        let (times, decisions) = staged_pass(&mut ctx.tracer, svm, classifier, stream, n, base);
        traced += t.elapsed().as_secs_f64();
        let t = Instant::now();
        staged_pass(&mut Tracer::new(false), svm, classifier, stream, n, base);
        untraced += t.elapsed().as_secs_f64();
        for (i, (score, value)) in decisions.into_iter().enumerate() {
            report.check(score.map(f64::to_bits) == Some(value.to_bits()), || {
                format!("session {s} verdict {i}: staged decision {value:?} != score {score:?}")
            });
        }
        all.decode += times.decode;
        all.encode += times.encode;
        all.push += times.push;
        all.decide += times.decide;
        all.events += times.events;
        all.verdicts += times.verdicts;
    }
    let per_event = |total: f64| total * 1e6 / all.events.max(1) as f64;
    let vpe = all.verdicts as f64 / all.events.max(1) as f64;
    let decide_us = all.decide * 1e6 / all.verdicts.max(1) as f64;
    let l = &mut report.per_layer;
    l.insert("proto.decode_us", per_event(all.decode));
    l.insert("cluster.encode_us", per_event(all.encode));
    l.insert("stream.push_us", per_event(all.push));
    l.insert("svm.decide_us", decide_us);
    l.insert("stream.verdicts_per_event", vpe);
    l.insert("stream.self_us", per_event(all.push) - per_event(all.encode) - decide_us * vpe);
    l.insert("trace.overhead", traced / untraced - 1.0);
    l.insert("svm.support_vectors", svm.model.support_vector_count() as f64);
    l.insert("cluster.lib_clusters", svm.encoder.lib_cluster_count() as f64);
    l.insert("cluster.func_clusters", svm.encoder.func_cluster_count() as f64);
}

/// Trains the served model into `models` with `leaps train` (beforehand,
/// not timed) and returns its text.
fn train_served_model(ctx: &Ctx, scenario: &Scenario, models: &Path) -> Result<String, String> {
    let data = ctx.dir("model-data").map_err(|e| e.to_string())?;
    let params = GenParams {
        benign_events: MODEL_EVENTS,
        mixed_events: MODEL_EVENTS,
        malicious_events: 10,
        benign_ratio: 0.5,
    };
    let logs = inputs::write_training_logs(scenario, &params, MODEL_EVENTS, MODEL_SEED, &data)
        .map_err(|e| format!("writing model data: {e}"))?;
    let model_path = models.join(format!("{MODEL}.model"));
    let status = std::process::Command::new(&ctx.leaps)
        .args(["train", "--threads", "2", "--seed", &MODEL_SEED.to_string(), "--benign"])
        .arg(&logs.benign_path)
        .arg("--mixed")
        .arg(&logs.mixed_path)
        .arg("--out")
        .arg(&model_path)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running leaps train: {e}"))?;
    if !status.success() {
        return Err(format!("training the served model failed: {status}"));
    }
    std::fs::read_to_string(&model_path).map_err(|e| e.to_string())
}

pub fn run(ctx: &mut Ctx, mode: Mode) -> Result<Report, String> {
    let seed = ctx.opts.seed;
    let seconds = ctx.opts.seconds;
    let scenario = inputs::scenario(match mode {
        Mode::Paced { .. } => "putty_reverse_tcp_online",
        Mode::Capacity { .. } => "notepad++_codeinject",
    });
    let mut report = Report::default();

    let models = ctx.dir("models").map_err(|e| e.to_string())?;
    let model_text = train_served_model(ctx, &scenario, &models)?;
    let classifier = load_classifier(&model_text).map_err(|e| e.to_string())?;
    let (window, stride) = svm_shape(&classifier)?;

    // Fresh streams, one per session, pre-encoded.
    let per_session = match mode {
        Mode::Paced { rate } => rate * (WARMUP.as_secs() + seconds) / SESSIONS as u64 + 64,
        Mode::Capacity { .. } => {
            CAPACITY_STREAM_EPS * (WARMUP.as_secs() + seconds) / SESSIONS as u64
        }
    };
    let streams: Vec<Stream> = per_session_parallel(|s| {
        inputs::session_stream(&scenario, per_session as usize, seed, s as u32)
    });

    // Set-up: daemon start, model load and every OPEN acknowledged. Half
    // the timed start-ups come before the measured phase, the rest after
    // it, so a burst of interference on the host moves few of them.
    let socket = ctx.work.join("leaps.sock");
    let mut setup_s = Vec::new();
    let before = SETUP_REPEATS / 2;
    time_start_ups(before, &ctx.leaps, &socket, &models, &streams, &mut setup_s)?;
    let (daemon, conn, live_s) = start_up(&ctx.leaps, &socket, &models, &streams)?;
    setup_s.push(live_s);
    let Conn { mut writer, mut reader } = conn;
    reader.get_ref().set_read_timeout(Some(STALL)).map_err(|e| e.to_string())?;

    let shared = Shared::new(mode, window, stride, per_session as usize);
    let (phase, received) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| read_replies(&shared, &mut reader));
        let phase = match mode {
            Mode::Paced { .. } => paced(&shared, &mut writer, &streams, &daemon, seconds),
            Mode::Capacity { inflight } => {
                capacity(&shared, &mut writer, &streams, &daemon, inflight, seconds)
            }
        };
        // Close every session (each CLOSE drains it) and end the connection.
        let mut tail = String::new();
        for s in &streams {
            tail.push_str(&format!("CLOSE pid={}\n", s.pid));
        }
        tail.push_str("BYE\n");
        let sent = writer.write_all(tail.as_bytes());
        if sent.is_err() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let received = reader_thread.join().expect("reader thread panicked");
        (phase, received)
    });
    let phase = phase?;
    let peak_rss = procfs::peak_rss_mb(daemon.pid()).map_err(|e| e.to_string())?;
    let snapshot = daemon.metrics(false)?;
    daemon.shutdown()?;
    let after = SETUP_REPEATS - 1 - before;
    time_start_ups(after, &ctx.leaps, &socket, &models, &streams, &mut setup_s)?;
    eprintln!("perfbench: set-up s {setup_s:.4?}");

    // Correctness: every event acknowledged OK, nothing shed, every
    // verdict equal to an in-process replay of its session.
    let sent: Vec<u64> = shared.progress.lock().expect("progress lock poisoned").sent.to_vec();
    let total_sent: u64 = sent.iter().sum();
    report.attempted += total_sent;
    for refusal in &received.refused {
        report.fail(refusal.clone());
    }
    if let Some(stall) = &phase.stall {
        report.fail(stall.clone());
    }
    for detail in &received.close_details {
        report.check(detail.contains(" session.shed=0 "), || format!("shed events: {detail}"));
    }
    report.check(received.close_details.len() == SESSIONS, || "missing CLOSE acks".to_owned());
    let trace = ctx.opts.trace;
    let checks = per_session_parallel(|s| {
        verify_session(&classifier, &streams[s], sent[s] as usize, &received.verdicts[s], trace)
    });
    let (mut repeats, mut keyed) = (0, 0);
    for (expected, failures, keys) in checks {
        report.attempted += expected;
        for failure in failures {
            report.fail(failure);
        }
        repeats += keys.0;
        keyed += keys.1;
    }
    if report.failed > 0 {
        // A refused or missing reply ends the measured phase early; its
        // figures would describe a broken run.
        return Ok(report);
    }

    let windows = phase.samples.len().saturating_sub(1);
    if windows == 0 {
        return Err("the measured phase is shorter than one window".to_owned());
    }
    let p50s = window_p50s(&received.latency, windows);
    let cpus = phase.cpu_us_per_event();
    let steal = phase.samples.windows(2).map(|w| procfs::steal_share(w[0].host, w[1].host));
    let steal: Vec<f64> = steal.collect();
    eprintln!(
        "perfbench: per window: verdict p50 us {p50s:.1?}, daemon cpu us/event {cpus:.1?}, \
         host steal share {steal:.3?}"
    );
    let result_us = median(&p50s).ok_or("no verdict was measured")?;
    let cpu_us = median(&cpus).ok_or("no window scored an event")?;
    let e = &mut report.end_to_end;
    e.insert("setup_s", median(&setup_s).expect("set-up ran"));
    e.insert("result_ms", result_us / 1e3);
    e.insert("cpu_us_per_event", cpu_us);
    e.insert("peak_rss_mb", peak_rss);

    if ctx.opts.trace {
        let mut loads = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let span = ctx.tracer.open("persist.load", 0, None);
            let loaded = load_classifier(&model_text);
            ctx.tracer.close(span);
            loads.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(loaded.is_ok(), || "reloading the served model failed".to_owned());
        }
        traced_replay(ctx, &classifier, &streams, &mut report);
        let (events, jobs, event_p50) = daemon_counts(&snapshot);
        let mut ack = received.ack_us;
        ack.sort_by(f64::total_cmp);
        let mut latency: Vec<f64> = received.latency.iter().map(|&(_, us)| us).collect();
        let tail = Tail::of(&mut latency).expect("verdicts were measured");
        let (scored, cpu_s, wall_s, steal) = phase.totals();
        let mut late = phase.late_us;
        late.sort_by(f64::total_cmp);
        let l = &mut report.per_layer;
        let other = cpu_us - l["proto.decode_us"] - l["stream.push_us"];
        l.insert("persist.load_ms", median(&loads).expect("loads ran"));
        l.insert("serve.ack_us", percentile(&ack, 0.5).unwrap_or(0.0));
        l.insert("serve.event_us", event_p50);
        l.insert("serve.events_per_drain", events as f64 / jobs.max(1) as f64);
        l.insert("serve.daemon_util", cpu_s / wall_s);
        l.insert("serve.other_us", other);
        l.insert("serve.eps", scored as f64 / wall_s);
        l.insert("serve.workers", WORKERS as f64);
        l.insert("host.steal_share", steal);
        l.insert("verdict.p50_us", tail.p50);
        l.insert("verdict.p90_us", tail.p90);
        // A tail percentile is reported only with ten samples beyond it.
        let supported = |q: f64, v: f64| if beyond(tail.n, q) >= 10 { v } else { 0.0 };
        l.insert("verdict.p99_us", supported(0.99, tail.p99));
        l.insert("verdict.p999_us", supported(0.999, tail.p999));
        l.insert("verdict.samples", tail.n as f64);
        l.insert("gen.offered_eps", phase.offered_eps);
        l.insert("gen.late_p99_us", percentile(&late, 0.99).unwrap_or(0.0));
        l.insert("cluster.repeat_share", repeats as f64 / keyed.max(1) as f64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reply_counts() {
        let mut buckets = vec!["0"; 32];
        buckets[4] = "3";
        let text = format!(
            "serve.events counter 1200\npool.jobs counter 400\n\
             proto.event.us hist count=3 sum=30 buckets={}\n",
            buckets.join(",")
        );
        let snapshot = Snapshot::parse(&text).unwrap();
        let (events, jobs, p50) = daemon_counts(&snapshot);
        assert_eq!((events, jobs), (1200, 400));
        assert!(p50 > 0.0);
        assert_eq!(daemon_counts(&Snapshot::parse("").unwrap()), (0, 0, 0.0));
    }

    fn verdict(num: u64, score: f64) -> Verdict {
        Verdict { last_event: num, benign: score >= 0.0, score: Some(score), degraded: false }
    }

    #[test]
    fn a_refused_event_settles_the_wait_and_is_reported() {
        let shared = Shared::new(Mode::Capacity { inflight: 4 }, 2, 1, 4);
        shared.progress.lock().unwrap().sent[0] = 4;
        assert!(!shared.settled(&shared.progress.lock().unwrap()));
        let (mut daemon, client) = UnixStream::pair().unwrap();
        let pid = inputs::FIRST_PID;
        let replies = format!(
            "OK event\nOK event\nVERDICT pid={pid} {}\nBUSY pid={pid} shed=1\nOK event\nOK bye\n",
            verdict(2, 0.5).to_line()
        );
        daemon.write_all(replies.as_bytes()).unwrap();
        let received = read_replies(&shared, &mut BufReader::new(client));
        assert_eq!(received.refused, vec![format!("BUSY pid={pid} shed=1")]);
        assert_eq!(received.verdicts[0].len(), 1);
        assert_eq!(received.ack_us.len(), 3);
        // Three of the four events can never be scored, yet the wait ends
        // at once instead of stalling.
        assert_eq!(shared.progress.lock().unwrap().refused, 1);
        assert_eq!(shared.wait_settled(), None);
    }

    #[test]
    fn events_are_charged_to_the_verdict_that_closes_them() {
        let ids: Vec<usize> = (0..14).map(|k| verdict_of(k, 10, 2)).collect();
        assert_eq!(ids, vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2]);
        assert_eq!(verdict_of(0, 1, 1), 0);
        assert_eq!(verdict_of(5, 1, 1), 5);
    }

    #[test]
    fn verdict_matching_is_bitwise_and_counts_gaps() {
        let want = [verdict(10, 0.5), verdict(12, -0.25)];
        assert!(match_verdicts(1, &want, &want).is_empty());
        let nudged = [verdict(10, 0.5), verdict(12, -0.25 + f64::EPSILON)];
        assert_eq!(match_verdicts(1, &want, &nudged).len(), 1);
        let missing = match_verdicts(1, &want, &want[..1]);
        assert_eq!(missing, vec!["pid=1 verdict 1 missing".to_owned()]);
        let extra = match_verdicts(1, &want[..1], &want);
        assert_eq!(extra.len(), 1);
        assert!(extra[0].contains("unexpected"));
    }

    #[test]
    fn windows_take_medians_of_per_window_figures() {
        let w = WINDOW.as_nanos() as u64;
        // Window 0: 10, 20, 30 µs; window 1: 100 µs; window 2: 40, 50 µs.
        let latency =
            [(0, 10.0), (1, 20.0), (w - 1, 30.0), (w, 100.0), (2 * w, 40.0), (2 * w + 5, 50.0)];
        assert_eq!(window_p50s(&latency, 3), vec![20.0, 100.0, 40.0]);
        // Origins past the last window are ignored.
        assert_eq!(window_p50s(&[(0, 1.0), (9 * w, 99.0)], 1), vec![1.0]);
        assert!(window_p50s(&[], 2).is_empty());
        let at = |s| Duration::from_secs(s);
        let phase = Phase {
            samples: vec![
                Sample { at: at(0), cpu_s: 1.0, scored: 100, host: (0, 0) },
                Sample { at: at(2), cpu_s: 1.5, scored: 10_100, host: (10, 100) },
                Sample { at: at(4), cpu_s: 2.5, scored: 20_100, host: (20, 400) },
            ],
            offered_eps: 0.0,
            late_us: Vec::new(),
            stall: None,
        };
        assert_eq!(phase.cpu_us_per_event(), vec![50.0, 100.0]);
        let idle = Phase {
            samples: vec![
                phase.samples[2],
                Sample { at: at(6), cpu_s: 2.6, scored: 20_100, host: (20, 500) },
            ],
            offered_eps: 0.0,
            late_us: Vec::new(),
            stall: None,
        };
        assert!(idle.cpu_us_per_event().is_empty());
        assert_eq!(phase.totals(), (20_000, 1.5, 4.0, 0.05));
    }
}
