//! Long-lived serving front-end: deadline-aware scheduling and load
//! shedding over the unified backend [`Router`].
//!
//! This module turns the batch-oriented engine into a persistent
//! service. [`PprServer`] listens on plain `std::net` TCP (scoped
//! threads, no async runtime), speaks the length-prefixed line protocol
//! of [`protocol`], and drives every query through the same
//! [`Router`]/[`QueryWorkspace`](crate::workspace::QueryWorkspace)
//! machinery the CLI uses — one shared [`Router`] reference, so serving
//! inherits backend calibration, the shared sub-graph cache, and pooled
//! workspaces for free.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ── reader: frame ── parse ── admit ──► DeadlineQueue ──► worker pool
//!                              │        │             │                │
//!                       PONG / STATS  REJECTED      REJECTED      router.query
//!                       / parse ERR  (unmeetable)  (queue-full,        │
//!                              │        │        shed latest deadline) │
//!                              ▼        ▼             ▼                ▼
//!                              └────────┴──► reply channel ◄───────────┘
//!                                                  │
//!           client ◄── writer: out-of-order response frames, sent at once
//! ```
//!
//! Every request carries a **deadline** (client-supplied `deadline_ms`,
//! else the server default). Admission ([`scheduler`]) asks
//! [`Router::select`] whether any calibrated backend can finish inside
//! the *remaining* budget: late-risk queries automatically route to
//! cheaper backends or degraded (`memory_limited`) plans because their
//! tightened latency budget excludes the expensive routes. When even
//! the cheapest route cannot finish in time, admission walks the
//! request's **precision ladder** (`exact` → `f32` → `q16`; narrower
//! score arithmetic cheapens the staged diffusion estimate) before
//! giving up; queries no backend can serve at any rung are
//! **fast-failed** with a typed `deadline-unmeetable` rejection instead
//! of wasting queue capacity. `OK` responses report the rung each query
//! executed at, and `precision_degraded` in the telemetry counts
//! completions served below the requested rung.
//!
//! Admitted work enters a **bounded** MPMC [`DeadlineQueue`] drained by
//! a worker pool in earliest-deadline-first order. When the queue
//! saturates, the entry with the **latest** deadline is shed
//! (`queue-full`) — under overload the server keeps the requests with
//! the least slack and sheds the ones cheapest to retry. Workers
//! re-check the deadline at dequeue (queue waits consume budget) and
//! answer expired entries with `deadline-exceeded`.
//!
//! Every connection runs two threads. The reader parses and admits
//! frames; the writer owns the socket's write side and sends each
//! response the moment it lands on the connection's reply channel, so
//! no response waits for the next request or a read timeout. Because
//! scheduling reorders requests, responses carry the client's
//! correlation `id` and may arrive out of order; clients may pipeline
//! freely.
//!
//! [`ServerTelemetry`] tracks the serving health the roadmap asks for:
//! a recent-window latency reservoir (p50/p95/p99), queue depth
//! high-water, shed / unmeetable / deadline-missed / degraded counters,
//! and per-backend route counts. Snapshots are queryable over the
//! protocol (`STATS`) and rendered on shutdown.
//!
//! # Failure model
//!
//! The server assumes *every* dependency can fail mid-request and
//! answers each failure with a typed response instead of silence:
//!
//! * **Backend errors are retried, bounded.** A failed query attempt is
//!   re-routed via [`Router::query_with_failover`] to the next-cheapest
//!   backend that still fits the *remaining* deadline, at most
//!   `MAX_FAILOVERS` (2) times. Only `Err`
//!   attempts retry — a completed query is never re-run, so
//!   non-idempotent state (calibration EWMAs, cache admissions) is
//!   never double-counted. Repeated failures trip the backend's
//!   **circuit breaker** open; routing then avoids it until a cooldown
//!   elapses and a half-open probe succeeds. Breaker state rides along
//!   in `STATS` (`breakers=`) and the shutdown report.
//! * **Panics are isolated, not retried.** A worker wraps query
//!   execution in `catch_unwind`: the panicking query answers `ERR`
//!   with an internal-error message, `worker_panics` increments, and
//!   the worker survives to drain the queue. Panic-poisoned locks
//!   (workspace pool, cache shards, calibration, telemetry) all recover
//!   rather than cascade — a poisoned cache shard is cleared and
//!   counted, never trusted.
//! * **Client failures free server resources.** A peer that dies
//!   mid-frame (length prefix without payload), breaks the framing, or
//!   vanishes so that a response write fails is counted in
//!   `aborted_connections`. On a failed write the connection's writer
//!   thread shuts the socket down and exits; the remaining completions
//!   drain into its closed channel, and the reader and writer exit
//!   without wedging workers or other connections. A peer that only
//!   half-closes its write side still gets every owed response, then
//!   EOF.
//! * **Overload sheds, deadline pressure degrades** (see the lifecycle
//!   above): `queue-full` / `deadline-unmeetable` / `deadline-exceeded`
//!   are typed rejections, and precision-ladder degradation is counted,
//!   not hidden.
//!
//! The `failpoints` feature (off by default, zero overhead when off)
//! injects deterministic faults at the seams named above — see
//! [`crate::failpoint`] and `tests/chaos.rs`, which drives a live
//! server through scripted fault schedules and asserts exactly this
//! model.

pub mod protocol;
pub mod queue;
pub mod scheduler;
pub mod telemetry;

pub use protocol::{
    write_frame, FrameEvent, FrameReader, QuerySpec, RejectReason, Request, Response,
    MAX_DEADLINE_MS, MAX_FRAME,
};
pub use queue::{DeadlineQueue, Enqueued};
pub use scheduler::{admit, Admission};
pub use telemetry::{ServerTelemetry, TelemetrySnapshot};

use std::io;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::backend::Router;
use crate::quantized::PrecisionClass;

/// Tuning for a [`PprServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it shed the latest
    /// deadline (≥ 1).
    pub queue_capacity: usize,
    /// Deadline for requests that do not carry `deadline_ms`,
    /// milliseconds (saturated to [`MAX_DEADLINE_MS`]).
    pub default_deadline_ms: f64,
    /// Completion latencies retained for quantile estimates.
    pub latency_reservoir: usize,
    /// Read-timeout tick for connection reader threads: how often they
    /// notice shutdown. Responses do not wait for it — each connection's
    /// writer thread sends them as they complete.
    pub poll_interval: Duration,
    /// Precision rung applied to `QUERY` frames that carry no
    /// `precision=` token (`None` keeps the `Exact64` default). Lets an
    /// operator run a whole deployment at `f32`/`q16` without touching
    /// clients; per-request tokens still win.
    pub default_precision: Option<PrecisionClass>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline_ms: 100.0,
            latency_reservoir: 4096,
            poll_interval: Duration::from_millis(5),
            default_precision: None,
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    /// Correlation id echoed on the response.
    id: u64,
    /// The admission-tightened request (budget re-tightened at dequeue).
    req: crate::backend::QueryRequest,
    /// When the request was admitted.
    arrival: Instant,
    /// Absolute deadline.
    deadline: Instant,
    /// The score-arithmetic rung the client asked for (`Exact64` when
    /// the request carried none) — admission may execute below it.
    requested_precision: PrecisionClass,
    /// Where the response frame goes: the owning connection's reply
    /// channel. Holding it keeps that connection's writer alive until
    /// this job's response is sent.
    reply: mpsc::Sender<Response>,
}

/// A long-lived TCP serving front-end over a shared [`Router`].
///
/// The server borrows the router (and through it the graph), so the
/// usual pattern is: build and prepare a router, [`PprServer::bind`],
/// then [`PprServer::serve`] on the main thread while other threads (or
/// a signal handler) call [`PprServer::shutdown`]. `serve` returns once
/// every connection and worker has wound down; queued residents are
/// drained, not dropped.
pub struct PprServer<'r, 'g> {
    router: &'r Router<'g>,
    config: ServerConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    queue: DeadlineQueue<Job>,
    telemetry: ServerTelemetry,
    stop: AtomicBool,
}

impl<'r, 'g> PprServer<'r, 'g> {
    /// Binds a listener on `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral test port).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    ///
    /// # Panics
    ///
    /// If `config.workers` or `config.queue_capacity` is zero.
    pub fn bind<A: ToSocketAddrs>(
        router: &'r Router<'g>,
        config: ServerConfig,
        addr: A,
    ) -> io::Result<Self> {
        assert!(config.workers > 0, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(PprServer {
            router,
            queue: DeadlineQueue::bounded(config.queue_capacity),
            telemetry: ServerTelemetry::new(config.latency_reservoir),
            config,
            listener,
            local_addr,
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether [`PprServer::shutdown`] has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown from any thread: closes the queue to new work
    /// and wakes the blocking accept loop. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Wake the accept loop with a throwaway connection. A wildcard
        // bind (0.0.0.0 / [::]) is not a guaranteed-connectable
        // destination on every platform, so aim at the same-family
        // loopback with the bound port instead.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// A telemetry snapshot including live queue figures and the
    /// router's per-backend circuit-breaker states.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self
            .telemetry
            .snapshot(self.queue.len(), self.queue.high_water());
        snap.breakers = self
            .router
            .breaker_snapshots()
            .into_iter()
            .map(|b| (b.kind, b.state, b.trips))
            .collect();
        snap
    }

    /// Runs the accept loop and worker pool until [`PprServer::shutdown`].
    ///
    /// Blocks the calling thread. Per-connection I/O errors only drop
    /// that connection.
    ///
    /// # Errors
    ///
    /// Fatal listener errors.
    pub fn serve(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                scope.spawn(|| self.worker_loop());
            }
            let result = loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.is_shutdown() {
                            break Ok(()); // the shutdown wake-up connection
                        }
                        scope.spawn(move || {
                            let _ = self.handle_connection(stream);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) if self.is_shutdown() => break Ok(()),
                    Err(e) => {
                        // A fatal listener error must still wind down the
                        // workers, or the scope would never exit.
                        self.stop.store(true, Ordering::SeqCst);
                        break Err(e);
                    }
                }
            };
            self.queue.close();
            result
        })
    }

    /// Worker: drain the queue in deadline order until closed and empty.
    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            self.execute(job);
        }
    }

    /// Runs one admitted job, re-checking its deadline first.
    fn execute(&self, job: Job) {
        let now = Instant::now();
        let remaining = job.deadline.saturating_duration_since(now);
        // Re-admit against the post-queue-wait remainder: the wait may
        // have made the deadline unmeetable, and a shrunken budget may
        // re-route to a cheaper backend than admission predicted.
        let admission = match admit(self.router, &job.req, remaining) {
            Ok(admission) => admission,
            Err(e) => {
                self.telemetry.on_error();
                let _ = job.reply.send(Response::Error {
                    id: job.id,
                    message: e.to_string(),
                });
                return;
            }
        };
        let req = match admission {
            Admission::Admit { req, .. } => req,
            Admission::Reject { predicted_us } => {
                self.telemetry.on_queue_expiry();
                let _ = job.reply.send(Response::Rejected {
                    id: job.id,
                    reason: RejectReason::DeadlineExceeded,
                    predicted_us,
                    remaining_us: remaining.as_micros() as u64,
                });
                return;
            }
        };
        // A panicking backend must not take the worker (and with it the
        // whole drain) down: isolate the unwind, answer a typed internal
        // error, and keep serving. The shared state a panic can reach is
        // poison-recovering by construction (workspace pool, cache
        // shards, calibration, breakers, telemetry), so resuming after
        // the catch is sound — which is what makes the
        // `AssertUnwindSafe` honest.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.router.query_with_failover(&req)
        }));
        match attempt {
            Ok(Ok((route, outcome, failovers))) => {
                if failovers > 0 {
                    self.telemetry.on_failover(u64::from(failovers));
                }
                let completed_at = Instant::now();
                let latency = completed_at.duration_since(job.arrival);
                let missed = completed_at > job.deadline;
                let degraded = !route.fits_budget || outcome.stats.memory_limited;
                let precision = outcome.stats.precision_class;
                let precision_degraded = precision != job.requested_precision;
                self.telemetry.on_completion(
                    route.kind,
                    latency,
                    degraded,
                    precision_degraded,
                    missed,
                );
                let _ = job.reply.send(Response::Ranking {
                    id: job.id,
                    backend: route.kind,
                    latency_us: latency.as_micros() as u64,
                    degraded,
                    precision,
                    ranking: outcome.ranking,
                });
            }
            Ok(Err(e)) => {
                self.telemetry.on_error();
                let _ = job.reply.send(Response::Error {
                    id: job.id,
                    message: e.to_string(),
                });
            }
            Err(panic) => {
                self.telemetry.on_error();
                self.telemetry.on_worker_panic();
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let _ = job.reply.send(Response::Error {
                    id: job.id,
                    message: format!("internal error: query execution panicked: {reason}"),
                });
            }
        }
    }

    /// Serves one connection on two threads. This one reads frames and
    /// admits queries until EOF, broken framing or shutdown; a writer
    /// thread owns the socket's write side and sends each response the
    /// moment a worker (or this reader) hands it over. Counts the
    /// connection as aborted when the peer dies mid-frame, breaks the
    /// framing, or a response write fails.
    fn handle_connection(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(self.config.poll_interval))?;
        // Nagle's algorithm can hold small response frames hostage to the
        // peer's delayed ACK (tens of ms) — poison for a deadline-driven
        // protocol, so write eagerly.
        stream.set_nodelay(true)?;
        let mut out = stream.try_clone()?;
        let (tx, rx) = mpsc::channel::<Response>();
        let (torn_frame, written) = std::thread::scope(|scope| {
            // Every reply — completions, rejections, PONG, STATS, parse
            // errors — goes through `tx`, so only the writer touches the
            // socket and frames never interleave. The loop ends once the
            // reader and every queued job have dropped their senders:
            // owed responses are drained, not dropped.
            let writer = std::thread::Builder::new().spawn_scoped(scope, move || {
                for response in rx {
                    if let Err(e) = write_frame(&mut out, &response.encode()) {
                        // The peer is gone: wake the reader too. Pending
                        // completions drain into the dropped receiver.
                        let _ = out.shutdown(Shutdown::Both);
                        return Err(e);
                    }
                }
                Ok(())
            })?;
            let torn_frame = self.read_loop(&mut stream, tx);
            let written = writer
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("response writer panicked")));
            io::Result::Ok((torn_frame, written))
        })?;
        // The client failed us (not the reverse): count it. Workers and
        // other connections never notice.
        if torn_frame || written.is_err() {
            self.telemetry.on_aborted_connection();
        }
        written
    }

    /// The read/admit loop of one connection. Returns whether the peer
    /// died mid-frame or broke the framing; dropping `tx` on return lets
    /// the writer finish once the last owed response is out.
    fn read_loop(&self, stream: &mut TcpStream, tx: mpsc::Sender<Response>) -> bool {
        let mut reader = FrameReader::new();
        // The read timeout only lets this loop notice shutdown, which
        // stops reading new frames; admitted requests still get answered.
        while !self.is_shutdown() {
            match reader.read_event(stream) {
                Ok(FrameEvent::Frame(payload)) => self.handle_frame(&payload, &tx),
                Ok(FrameEvent::Idle) => {}
                // Bytes buffered past the last frame boundary mean the
                // peer died mid-frame.
                Ok(FrameEvent::Eof) => return reader.has_partial(),
                // Unframeable input (oversized length, invalid UTF-8,
                // transport error): the peer broke the framing contract.
                Err(_) => return true,
            }
        }
        false
    }

    /// Dispatches one parsed frame; every reply goes to the writer.
    fn handle_frame(&self, payload: &str, tx: &mpsc::Sender<Response>) {
        let response = match Request::parse(payload) {
            Err(message) => {
                self.telemetry.on_error();
                Response::Error { id: 0, message }
            }
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => Response::Stats(self.telemetry().render_compact()),
            Ok(Request::Shutdown) => {
                // Take the final snapshot, then stop the world; the
                // snapshot still goes out as the answer.
                let stats = Response::Stats(self.telemetry().render_compact());
                self.shutdown();
                stats
            }
            Ok(Request::Query(spec)) => {
                // Admission answers rejections itself; completions come
                // from the workers.
                self.admit_query(spec, tx);
                return;
            }
        };
        // A send fails only once the writer has given up on the peer.
        let _ = tx.send(response);
    }

    /// Admission + enqueue for one `QUERY`. All rejections flow through
    /// the connection's response channel, like completions.
    fn admit_query(&self, spec: QuerySpec, tx: &mpsc::Sender<Response>) {
        let mut spec = spec;
        if spec.precision.is_none() {
            spec.precision = self.config.default_precision;
        }
        let arrival = Instant::now();
        let deadline_ms = spec.deadline_ms.unwrap_or(self.config.default_deadline_ms);
        // Parsed deadlines are range-checked at the protocol layer, so
        // only a misconfigured server default can reach here non-finite
        // or oversized — saturate rather than panic in a connection
        // thread (`max` maps NaN and negatives to zero, `try_from`
        // rejects infinities and overflow).
        let remaining = Duration::try_from_secs_f64((deadline_ms / 1e3).max(0.0))
            .unwrap_or_else(|_| Duration::from_secs_f64(MAX_DEADLINE_MS / 1e3));
        let deadline = arrival + remaining;
        let admission = match admit(self.router, &spec.to_query_request(), remaining) {
            Ok(admission) => admission,
            Err(e) => {
                self.telemetry.on_error();
                let _ = tx.send(Response::Error {
                    id: spec.id,
                    message: e.to_string(),
                });
                return;
            }
        };
        let req = match admission {
            Admission::Admit { req, .. } => req,
            Admission::Reject { predicted_us } => {
                self.telemetry.on_unmeetable();
                let _ = tx.send(Response::Rejected {
                    id: spec.id,
                    reason: RejectReason::DeadlineUnmeetable,
                    predicted_us,
                    remaining_us: remaining.as_micros() as u64,
                });
                return;
            }
        };
        let job = Job {
            id: spec.id,
            req,
            arrival,
            deadline,
            requested_precision: spec.precision.unwrap_or_default(),
            reply: tx.clone(),
        };
        match self.queue.push(job, deadline) {
            Enqueued::Admitted => self.telemetry.on_accept(),
            Enqueued::Displaced(shed) => {
                // The incoming request was admitted by evicting the
                // resident with the most slack; that resident may belong
                // to another connection — its rejection flows through its
                // own channel.
                self.telemetry.on_accept();
                self.reject_shed(shed);
            }
            Enqueued::Refused(shed) => self.reject_shed(shed),
        }
    }

    /// Answers a load-shed job with a typed `queue-full` rejection.
    fn reject_shed(&self, shed: Job) {
        self.telemetry.on_shed();
        let remaining = shed.deadline.saturating_duration_since(Instant::now());
        let _ = shed.reply.send(Response::Rejected {
            id: shed.id,
            reason: RejectReason::QueueFull,
            predicted_us: None,
            remaining_us: remaining.as_micros() as u64,
        });
    }
}

impl std::fmt::Debug for PprServer<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PprServer")
            .field("addr", &self.local_addr)
            .field("workers", &self.config.workers)
            .field("queue_capacity", &self.config.queue_capacity)
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}
