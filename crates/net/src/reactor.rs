//! The readiness-driven event loop.
//!
//! One thread owns every socket: it polls the listener, a self-pipe,
//! and all connections; decodes complete frames off nonblocking reads;
//! hands each frame to the worker pool; and flushes completed responses
//! through per-connection outbound queues. Blocking work never runs on
//! this thread — workers push completions into the control mailbox and
//! wake the loop through the self-pipe.
//!
//! ## Ordering
//!
//! Each frame gets a per-connection sequence number at decode time. The
//! [`Service`] classifies every response as *ordered* (written strictly
//! in frame arrival order — protocol v1, and v2 frames without an `id`)
//! or *unordered* (written the moment it completes — pipelined v2
//! frames carrying an `id`). Ordered responses buffer until every
//! earlier frame on the connection has answered; unordered ones jump
//! the queue, which is the whole point of pipelining.
//!
//! ## Backpressure
//!
//! A connection stops being read when it has `max_pipeline` frames in
//! flight or its outbound queue crosses the high watermark; the unread
//! bytes stay in the kernel buffer and TCP pushes back on the peer.
//!
//! ## Drain
//!
//! [`ReactorControl::begin_drain`] (or a completion flagged `shutdown`)
//! closes the listener, lets in-flight frames finish and flush, gives
//! idle connections a short window to submit one last frame (and be
//! told the server is draining), caps half-received frames at the drain
//! grace, and exits once every connection is gone and the workers have
//! drained.

use crate::codec::{CodecError, FrameDecoder, OutboundQueue};
use crate::pool::{lock, WorkerPool};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::timer::{TimerId, TimerWheel};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identifies one accepted connection for the lifetime of the reactor.
/// Slots are reused; the generation distinguishes incarnations, so a
/// completion for a dead connection can never reach its successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    idx: u32,
    gen: u32,
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn-{}.{}", self.idx, self.gen)
    }
}

/// What the service produced for one frame.
pub struct FrameOutput {
    /// The response line, newline excluded; empty = no response (the
    /// protocol's tolerated blank keep-alive lines).
    pub bytes: Vec<u8>,
    /// `true`: hold until every earlier frame on the connection has
    /// answered. `false`: write immediately on completion.
    pub ordered: bool,
    /// `true`: begin draining the reactor after this response is
    /// queued (the protocol's `shutdown` verb).
    pub shutdown: bool,
}

impl FrameOutput {
    /// An ordered response carrying `bytes`.
    pub fn ordered(bytes: Vec<u8>) -> FrameOutput {
        FrameOutput { bytes, ordered: true, shutdown: false }
    }

    /// An unordered (pipelined) response carrying `bytes`.
    pub fn unordered(bytes: Vec<u8>) -> FrameOutput {
        FrameOutput { bytes, ordered: false, shutdown: false }
    }

    /// No response at all (blank keep-alive frames).
    pub fn none() -> FrameOutput {
        FrameOutput { bytes: Vec::new(), ordered: false, shutdown: false }
    }
}

/// The protocol layer the reactor drives. `handle` runs on a worker
/// thread and may block; every other callback runs on the reactor
/// thread and must not.
pub trait Service: Send + Sync + 'static {
    /// One complete frame (terminator stripped, UTF-8 validated).
    fn handle(&self, conn: ConnId, frame: String) -> FrameOutput;

    /// The one-line response for a stream that broke the framing rules
    /// (the connection closes after it flushes). Empty = close silently.
    fn decode_error(&self, conn: ConnId, err: &CodecError) -> Vec<u8>;

    /// A connection was accepted.
    fn on_connect(&self, _conn: ConnId) {}
    /// A connection closed (every accepted connection gets exactly one).
    fn on_disconnect(&self, _conn: ConnId) {}
    /// A connection is about to close because it idled out.
    fn on_idle_close(&self, _conn: ConnId) {}
    /// Drain began (called once, on the reactor thread).
    fn on_drain(&self) {}
    /// The periodic tick ([`ReactorConfig::tick_interval`]) elapsed.
    fn on_tick(&self) {}
    /// The reactor is about to exit; all worker jobs have finished.
    fn on_exit(&self) {}
}

/// Reactor tuning. Defaults suit tests; servers derive them from their
/// own configuration.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Worker threads executing [`Service::handle`].
    pub workers: usize,
    /// Per-frame byte bound (terminator excluded).
    pub max_frame_bytes: usize,
    /// In-flight frames per connection before reads pause.
    pub max_pipeline: usize,
    /// Outbound bytes at which reads pause (peer not draining).
    pub outbound_high: usize,
    /// Outbound bytes at which paused reads resume.
    pub outbound_low: usize,
    /// Close connections idle longer than this (measured between
    /// *complete* frames — a byte-at-a-time drip does not count as
    /// activity, which is the slowloris defense). `None` disables.
    pub idle_timeout: Option<Duration>,
    /// On drain: how long a half-received frame may wait for its
    /// remaining bytes before the connection is cut.
    pub drain_grace: Duration,
    /// On drain: the window an idle connection gets to submit one last
    /// frame before it closes.
    pub drain_idle_close: Duration,
    /// Invoke [`Service::on_tick`] this often (`None` = never).
    pub tick_interval: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            max_frame_bytes: 16 << 20,
            max_pipeline: 128,
            outbound_high: 4 << 20,
            outbound_low: 1 << 20,
            idle_timeout: None,
            drain_grace: Duration::from_secs(2),
            drain_idle_close: Duration::from_millis(100),
            tick_interval: None,
        }
    }
}

/// One finished frame travelling from a worker back to the reactor.
struct Completion {
    conn: ConnId,
    seq: u64,
    bytes: Vec<u8>,
    ordered: bool,
    shutdown: bool,
}

/// Shared handle into a running reactor: workers push completions
/// through it, and any thread may start a drain. Create it first, pass
/// the same `Arc` to [`run`], keep a clone for shutdown.
pub struct ReactorControl {
    drain: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    waker: Mutex<Option<std::os::unix::net::UnixStream>>,
}

impl Default for ReactorControl {
    fn default() -> Self {
        Self::new()
    }
}

impl ReactorControl {
    /// A fresh control block (not yet attached to a reactor).
    pub fn new() -> ReactorControl {
        ReactorControl {
            drain: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            waker: Mutex::new(None),
        }
    }

    /// Asks the reactor to drain (idempotent, callable from any
    /// thread).
    pub fn begin_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn push(&self, c: Completion) {
        lock(&self.completions).push(c);
        self.wake();
    }

    fn wake(&self) {
        if let Some(tx) = lock(&self.waker).as_mut() {
            // A full pipe means a wake is already pending: success.
            let _ = tx.write(&[1]);
        }
    }
}

/// The reorder buffer's slot for one in-flight frame.
enum Slot {
    Pending,
    Ready(Vec<u8>),
}

struct Conn {
    id: ConnId,
    stream: TcpStream,
    decoder: FrameDecoder,
    outbound: OutboundQueue,
    /// In-flight frames by sequence number. `Ready` entries are ordered
    /// responses waiting for their prefix; unordered responses never
    /// rest here (they write out and vacate on completion).
    outstanding: BTreeMap<u64, Slot>,
    next_seq: u64,
    /// Read side hit EOF.
    eof: bool,
    /// The trailing unterminated frame (if any) has been surfaced.
    finished: bool,
    /// Close once settled (decode error sent, EOF, or write failure).
    closing: bool,
    /// Reads paused by pipeline depth or outbound watermark.
    paused: bool,
    /// When the last *complete* frame arrived (idle-timeout clock).
    last_frame_at: Instant,
    idle_timer: Option<TimerId>,
    drain_timer: Option<TimerId>,
}

/// Runs the reactor on the calling thread until drain completes.
/// `listener` must already be nonblocking.
pub fn run(
    listener: TcpListener,
    service: Arc<dyn Service>,
    cfg: ReactorConfig,
    control: Arc<ReactorControl>,
) -> io::Result<()> {
    Reactor::new(listener, service, cfg, control)?.run()
}

const TIMER_TICK: Duration = Duration::from_millis(10);
const TIMER_SLOTS: usize = 512;
/// Reads per readiness event before yielding to other connections.
const READ_BURST: usize = 8;
/// Accepts per readiness event before yielding.
const ACCEPT_BURST: usize = 64;

struct Reactor {
    listener: Option<TcpListener>,
    service: Arc<dyn Service>,
    cfg: ReactorConfig,
    control: Arc<ReactorControl>,
    wake_rx: std::os::unix::net::UnixStream,
    pool: Option<WorkerPool>,
    conns: Vec<Option<Conn>>,
    /// Per-slot incarnation counters (live past the tenant).
    gens: Vec<u32>,
    free: Vec<u32>,
    open: usize,
    wheel: TimerWheel,
    draining: bool,
    drain_started: Option<Instant>,
    last_tick: Instant,
    scratch: Vec<u8>,
}

fn pack_token(id: ConnId) -> u64 {
    ((id.idx as u64) << 32) | id.gen as u64
}

fn unpack_token(token: u64) -> ConnId {
    ConnId { idx: (token >> 32) as u32, gen: token as u32 }
}

impl Reactor {
    fn new(
        listener: TcpListener,
        service: Arc<dyn Service>,
        cfg: ReactorConfig,
        control: Arc<ReactorControl>,
    ) -> io::Result<Reactor> {
        let (wake_tx, wake_rx) = std::os::unix::net::UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        *lock(&control.waker) = Some(wake_tx);
        let now = Instant::now();
        Ok(Reactor {
            listener: Some(listener),
            pool: Some(WorkerPool::new(cfg.workers, "gts-net-worker")),
            service,
            cfg,
            control,
            wake_rx,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open: 0,
            wheel: TimerWheel::new(TIMER_TICK, TIMER_SLOTS, now),
            draining: false,
            drain_started: None,
            last_tick: now,
            scratch: vec![0u8; 64 * 1024],
        })
    }

    fn run(mut self) -> io::Result<()> {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_conn: Vec<ConnId> = Vec::new();
        loop {
            if self.control.drain.load(Ordering::SeqCst) {
                self.start_drain();
            }
            if self.draining && self.open == 0 {
                break;
            }

            fds.clear();
            fd_conn.clear();
            let has_listener = self.listener.is_some();
            {
                use std::os::unix::io::AsRawFd;
                fds.push(PollFd { fd: self.wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
                if let Some(l) = &self.listener {
                    fds.push(PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 });
                }
                for slot in self.conns.iter() {
                    let Some(c) = slot else { continue };
                    let mut events = 0i16;
                    if !c.eof && !c.closing && !c.paused {
                        events |= POLLIN;
                    }
                    if !c.outbound.is_empty() {
                        events |= POLLOUT;
                    }
                    if events != 0 {
                        fds.push(PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
                        fd_conn.push(c.id);
                    }
                }
            }

            let now = Instant::now();
            let mut timeout = self.wheel.poll_timeout(now);
            if let Some(interval) = self.cfg.tick_interval {
                let until_tick = (self.last_tick + interval).saturating_duration_since(now);
                timeout = Some(timeout.map_or(until_tick, |t| t.min(until_tick)));
            }
            sys::poll(&mut fds, timeout)?;

            // 1. Wake pipe: drain it, absorb completions.
            if fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                while matches!(self.wake_rx.read(&mut self.scratch), Ok(n) if n > 0) {}
            }
            self.absorb_completions();

            // 2. New connections.
            if has_listener
                && self.listener.is_some()
                && fds[1].revents & (POLLIN | POLLERR | POLLHUP) != 0
            {
                self.accept_ready();
            }

            // 3. Connection readiness. A completion above may have
            // closed a connection and an accept may have reused its
            // slot; the captured ConnId detects that and skips.
            let base = if has_listener { 2 } else { 1 };
            for (k, &conn_id) in fd_conn.iter().enumerate() {
                let revents = fds[base + k].revents;
                if revents == 0 {
                    continue;
                }
                let idx = conn_id.idx;
                match self.conns.get(idx as usize).and_then(Option::as_ref) {
                    Some(c) if c.id == conn_id => {}
                    _ => continue, // closed (and possibly reused) since poll
                }
                if revents & POLLNVAL != 0 {
                    self.close_conn(idx);
                    continue;
                }
                if revents & POLLOUT != 0 {
                    self.flush_outbound(idx);
                }
                if revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                    self.read_ready(idx);
                }
            }

            // 4. Timers.
            let now = Instant::now();
            for (id, token) in self.wheel.expire(now) {
                self.timer_fired(id, token, now);
            }

            // 5. Periodic tick.
            if let Some(interval) = self.cfg.tick_interval {
                if self.last_tick.elapsed() >= interval {
                    self.last_tick = Instant::now();
                    self.service.on_tick();
                }
            }
        }

        // Workers first: every accepted job (all for already-closed
        // connections at this point) must finish before on_exit reports
        // the drain complete.
        if let Some(pool) = self.pool.take() {
            pool.shutdown_and_join();
        }
        *lock(&self.control.waker) = None;
        self.service.on_exit();
        Ok(())
    }

    fn start_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_started = Some(Instant::now());
        self.control.drain.store(true, Ordering::SeqCst);
        // Refuse new connections immediately.
        self.listener = None;
        self.service.on_drain();
        let now = Instant::now();
        let tokens: Vec<(u32, u64)> =
            self.conns.iter().flatten().map(|c| (c.id.idx, pack_token(c.id))).collect();
        for (idx, token) in tokens {
            let timer = self.wheel.arm(now, self.cfg.drain_idle_close, token);
            if let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                c.drain_timer = Some(timer);
            }
        }
    }

    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let accepted = {
                let Some(listener) = &self.listener else { return };
                match listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(_) => return, // WouldBlock or transient: next poll retries
                }
            };
            if accepted.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = accepted.set_nodelay(true);
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.conns.push(None);
                    (self.conns.len() - 1) as u32
                }
            };
            while self.gens.len() <= idx as usize {
                self.gens.push(0);
            }
            self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
            let id = ConnId { idx, gen: self.gens[idx as usize] };
            let now = Instant::now();
            let idle_timer = self.cfg.idle_timeout.map(|t| self.wheel.arm(now, t, pack_token(id)));
            let drain_timer = self
                .draining
                .then(|| self.wheel.arm(now, self.cfg.drain_idle_close, pack_token(id)));
            self.conns[idx as usize] = Some(Conn {
                id,
                stream: accepted,
                decoder: FrameDecoder::new(self.cfg.max_frame_bytes),
                outbound: OutboundQueue::new(self.cfg.outbound_high, self.cfg.outbound_low),
                outstanding: BTreeMap::new(),
                next_seq: 0,
                eof: false,
                finished: false,
                closing: false,
                paused: false,
                last_frame_at: now,
                idle_timer,
                drain_timer,
            });
            self.open += 1;
            self.service.on_connect(id);
        }
    }

    fn read_ready(&mut self, idx: u32) {
        let mut disconnected = false;
        let mut saw_eof = false;
        {
            let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                return;
            };
            if c.eof || c.closing {
                return;
            }
            for _ in 0..READ_BURST {
                match c.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        c.decoder.push(&self.scratch[..n]);
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            if saw_eof {
                c.eof = true;
            }
        }
        if disconnected {
            self.close_conn(idx);
            return;
        }
        self.pump_frames(idx);
        self.maybe_close(idx);
    }

    /// What `pump_frames` decided while holding the connection borrow.
    fn pump_frames(&mut self, idx: u32) {
        let max_pipeline = self.cfg.max_pipeline;
        loop {
            enum Step {
                Dispatch(ConnId, u64, String),
                Flush,
                Done,
            }
            let step = {
                let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                    return;
                };
                if c.closing {
                    return;
                }
                if c.outstanding.len() >= max_pipeline || c.outbound.over_high() {
                    c.paused = true;
                    return;
                }
                c.paused = false;
                match c.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        c.last_frame_at = Instant::now();
                        let seq = c.next_seq;
                        c.next_seq += 1;
                        c.outstanding.insert(seq, Slot::Pending);
                        Step::Dispatch(c.id, seq, frame)
                    }
                    Ok(None) if c.eof && !c.finished => {
                        c.finished = true;
                        match c.decoder.finish() {
                            Ok(Some(frame)) => {
                                c.last_frame_at = Instant::now();
                                let seq = c.next_seq;
                                c.next_seq += 1;
                                c.outstanding.insert(seq, Slot::Pending);
                                Step::Dispatch(c.id, seq, frame)
                            }
                            Ok(None) => Step::Done,
                            Err(err) => {
                                let bytes = self.service.decode_error(c.id, &err);
                                let seq = c.next_seq;
                                c.next_seq += 1;
                                c.outstanding.insert(seq, Slot::Ready(bytes));
                                c.closing = true;
                                Step::Flush
                            }
                        }
                    }
                    Ok(None) => Step::Done,
                    Err(err) => {
                        let bytes = self.service.decode_error(c.id, &err);
                        let seq = c.next_seq;
                        c.next_seq += 1;
                        c.outstanding.insert(seq, Slot::Ready(bytes));
                        c.closing = true;
                        Step::Flush
                    }
                }
            };
            match step {
                Step::Dispatch(conn_id, seq, frame) => self.dispatch(conn_id, seq, frame),
                Step::Flush => {
                    self.flush_ready(idx);
                    self.flush_outbound(idx);
                    return;
                }
                Step::Done => return,
            }
        }
    }

    fn dispatch(&mut self, conn: ConnId, seq: u64, frame: String) {
        let service = Arc::clone(&self.service);
        let control = Arc::clone(&self.control);
        let accepted = self.pool.as_ref().is_some_and(|p| {
            p.execute(move || {
                let out = service.handle(conn, frame);
                control.push(Completion {
                    conn,
                    seq,
                    bytes: out.bytes,
                    ordered: out.ordered,
                    shutdown: out.shutdown,
                });
            })
        });
        if !accepted {
            // Pool already shut down (cannot happen while the loop
            // runs); keep the reorder buffer consistent regardless.
            self.control.push(Completion {
                conn,
                seq,
                bytes: Vec::new(),
                ordered: true,
                shutdown: false,
            });
        }
    }

    fn absorb_completions(&mut self) {
        let completions: Vec<Completion> = std::mem::take(&mut *lock(&self.control.completions));
        let mut shutdown = false;
        for c in completions {
            shutdown |= c.shutdown;
            let idx = c.conn.idx;
            {
                let Some(conn) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                    continue;
                };
                if conn.id != c.conn {
                    continue; // a later tenant reused the slot
                }
                if c.ordered {
                    if let Some(slot) = conn.outstanding.get_mut(&c.seq) {
                        *slot = Slot::Ready(c.bytes);
                    }
                } else {
                    conn.outstanding.remove(&c.seq);
                    push_line(&mut conn.outbound, c.bytes);
                }
            }
            self.flush_ready(idx);
            self.flush_outbound(idx);
            // Completion freed pipeline capacity: frames may be waiting
            // in the decoder (or the trailing EOF frame).
            self.pump_frames(idx);
            self.maybe_close(idx);
        }
        if shutdown {
            self.start_drain();
        }
    }

    /// Moves the completed in-order prefix of the reorder buffer into
    /// the outbound queue.
    fn flush_ready(&mut self, idx: u32) {
        let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
            return;
        };
        while let Some(entry) = c.outstanding.first_entry() {
            match entry.get() {
                Slot::Ready(_) => {
                    let (_, slot) = entry.remove_entry();
                    let Slot::Ready(bytes) = slot else { unreachable!() };
                    push_line(&mut c.outbound, bytes);
                }
                Slot::Pending => break,
            }
        }
    }

    fn flush_outbound(&mut self, idx: u32) {
        let write_ok = {
            let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                return;
            };
            if c.outbound.is_empty() {
                return;
            }
            let mut w = &c.stream;
            c.outbound.write_to(&mut w).is_ok()
        };
        if !write_ok {
            self.close_conn(idx);
            return;
        }
        let unpaused = {
            let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                return;
            };
            if c.paused && c.outbound.under_low() {
                c.paused = false;
                true
            } else {
                false
            }
        };
        if unpaused {
            // The watermark was the only thing pausing the pipe: frames
            // may already sit decoded.
            self.pump_frames(idx);
        }
        self.maybe_close(idx);
    }

    /// Closes a connection when its pending work is done and policy
    /// says it should go: decode error sent, EOF fully answered, or
    /// drain with nothing left to wait for.
    fn maybe_close(&mut self, idx: u32) {
        let should_close = {
            let Some(c) = self.conns.get(idx as usize).and_then(Option::as_ref) else {
                return;
            };
            let settled = c.outstanding.is_empty() && c.outbound.is_empty();
            let drained_input = c.decoder.buffered() == 0;
            (c.closing && settled)
                || (c.eof && c.finished && settled)
                || (self.draining && settled && drained_input)
        };
        if should_close {
            self.close_conn(idx);
        }
    }

    fn close_conn(&mut self, idx: u32) {
        let Some(c) = self.conns.get_mut(idx as usize).and_then(|slot| slot.take()) else {
            return;
        };
        if let Some(t) = c.idle_timer {
            self.wheel.cancel(t);
        }
        if let Some(t) = c.drain_timer {
            self.wheel.cancel(t);
        }
        self.open -= 1;
        self.free.push(idx);
        self.service.on_disconnect(c.id);
        // Outstanding worker jobs for this connection finish on their
        // own; their completions fail the generation check and drop.
    }

    fn timer_fired(&mut self, id: TimerId, token: u64, now: Instant) {
        let conn_id = unpack_token(token);
        let idx = conn_id.idx;
        enum Action {
            None,
            CloseIdle,
            Close,
            RearmIdle(Duration),
            RearmDrain(Duration),
        }
        let action = {
            let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                return;
            };
            if c.id != conn_id {
                return; // a later tenant's slot; its own timers are armed
            }
            if c.idle_timer == Some(id) {
                c.idle_timer = None;
                match self.cfg.idle_timeout {
                    None => Action::None,
                    Some(idle) => {
                        let busy = !c.outstanding.is_empty() || !c.outbound.is_empty();
                        let since = now.saturating_duration_since(c.last_frame_at);
                        if busy {
                            Action::RearmIdle(idle)
                        } else if since < idle {
                            Action::RearmIdle(idle - since)
                        } else {
                            Action::CloseIdle
                        }
                    }
                }
            } else if c.drain_timer == Some(id) {
                c.drain_timer = None;
                let busy = !c.outstanding.is_empty() || !c.outbound.is_empty();
                let settled = !busy && c.decoder.buffered() == 0;
                let grace_expired = self
                    .drain_started
                    .is_some_and(|t| now.saturating_duration_since(t) >= self.cfg.drain_grace);
                // The grace only cuts peers stuck mid-frame. In-flight
                // work (and its unflushed response) always completes —
                // a drain must never swallow an answered request.
                if settled || (grace_expired && !busy) {
                    Action::Close
                } else {
                    Action::RearmDrain(self.cfg.drain_idle_close)
                }
            } else {
                Action::None // cancelled-and-reused; nothing to do
            }
        };
        match action {
            Action::None => {}
            Action::Close => self.close_conn(idx),
            Action::CloseIdle => {
                self.service.on_idle_close(conn_id);
                self.close_conn(idx);
            }
            Action::RearmIdle(delay) => {
                let t = self.wheel.arm(now, delay.max(TIMER_TICK), token);
                if let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                    c.idle_timer = Some(t);
                }
            }
            Action::RearmDrain(delay) => {
                let t = self.wheel.arm(now, delay, token);
                if let Some(c) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                    c.drain_timer = Some(t);
                }
            }
        }
    }
}

fn push_line(q: &mut OutboundQueue, mut bytes: Vec<u8>) {
    if bytes.is_empty() {
        return; // blank keep-alive frames get no response
    }
    bytes.push(b'\n');
    q.push(bytes);
}
