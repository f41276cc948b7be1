//! Serving telemetry: latency quantiles, queue pressure, and typed
//! outcome counters.
//!
//! Counters are lock-free atomics bumped on the request path; the
//! latency reservoir and per-backend route counts sit behind short
//! mutexes touched once per completion. [`ServerTelemetry::snapshot`]
//! folds everything into an immutable [`TelemetrySnapshot`] that the
//! server renders over the protocol (`STATS`) and prints at shutdown.
//!
//! The latency reservoir keeps the most recent `N` completion latencies
//! in a ring, so the reported p50/p95/p99 reflect *current* behaviour
//! rather than the whole process lifetime — the standard choice for a
//! long-lived server whose load shifts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::backend::{BackendKind, BreakerState};

/// Fixed-size ring of the most recent completion latencies, in
/// milliseconds.
#[derive(Debug)]
struct LatencyReservoir {
    samples: Vec<f64>,
    cursor: usize,
    filled: usize,
}

impl LatencyReservoir {
    fn new(capacity: usize) -> Self {
        LatencyReservoir {
            samples: vec![0.0; capacity.max(1)],
            cursor: 0,
            filled: 0,
        }
    }

    fn record(&mut self, latency_ms: f64) {
        let len = self.samples.len();
        if let Some(slot) = self.samples.get_mut(self.cursor) {
            *slot = latency_ms;
        }
        self.cursor = (self.cursor + 1) % len;
        self.filled = (self.filled + 1).min(len);
    }

    /// The retained samples, sorted ascending.
    fn sorted(&self) -> Vec<f64> {
        let mut live: Vec<f64> = self.samples.iter().take(self.filled).copied().collect();
        live.sort_by(f64::total_cmp);
        live
    }
}

/// The nearest-rank `q`-quantile of an ascending-sorted sample set
/// (0.0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// Live serving counters shared by every connection and worker thread.
#[derive(Debug)]
pub struct ServerTelemetry {
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    rejected_unmeetable: AtomicU64,
    deadline_missed: AtomicU64,
    degraded: AtomicU64,
    precision_degraded: AtomicU64,
    errors: AtomicU64,
    worker_panics: AtomicU64,
    failovers: AtomicU64,
    aborted_connections: AtomicU64,
    routes: Mutex<Vec<(BackendKind, u64)>>,
    latencies: Mutex<LatencyReservoir>,
}

/// Telemetry mutexes guard pure accounting (a count vector, a latency
/// ring) whose every intermediate state is valid, so a panicking worker
/// must not take monitoring down with it: recover the guard instead.
fn counters<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServerTelemetry {
    /// Fresh telemetry retaining the last `reservoir` completion
    /// latencies for quantile estimates.
    pub fn new(reservoir: usize) -> Self {
        ServerTelemetry {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected_unmeetable: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            precision_degraded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            aborted_connections: AtomicU64::new(0),
            routes: Mutex::new(Vec::new()),
            latencies: Mutex::new(LatencyReservoir::new(reservoir)),
        }
    }

    /// A request passed admission and entered the queue.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was load-shed from the saturated queue.
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was fast-failed at admission as deadline-unmeetable.
    pub fn on_unmeetable(&self) {
        self.rejected_unmeetable.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued request's deadline expired before execution.
    pub fn on_queue_expiry(&self) {
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// A malformed request or a failed backend execution.
    pub fn on_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker caught a panicking query and answered a typed internal
    /// error instead of dying (counted *in addition to* the error).
    pub fn on_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// A query's first-choice backend failed and the request was
    /// re-routed; `count` is how many failovers that one query used.
    pub fn on_failover(&self, count: u64) {
        self.failovers.fetch_add(count, Ordering::Relaxed);
    }

    /// A client connection failed: the peer died mid-frame, broke the
    /// framing, or vanished so the connection's writer thread could not
    /// send a response.
    pub fn on_aborted_connection(&self) {
        self.aborted_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A query completed: record its route, end-to-end latency, and
    /// whether it was served degraded (plan, precision rung) or past
    /// its deadline.
    pub fn on_completion(
        &self,
        kind: BackendKind,
        latency: Duration,
        degraded: bool,
        precision_degraded: bool,
        missed_deadline: bool,
    ) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if precision_degraded {
            self.precision_degraded.fetch_add(1, Ordering::Relaxed);
        }
        if missed_deadline {
            self.deadline_missed.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut routes = counters(&self.routes);
            match routes.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, count)) => *count += 1,
                None => routes.push((kind, 1)),
            }
        }
        counters(&self.latencies).record(latency.as_secs_f64() * 1e3);
    }

    /// An immutable snapshot; the caller supplies queue figures (the
    /// queue owns its own depth accounting).
    pub fn snapshot(&self, queue_depth: usize, queue_high_water: usize) -> TelemetrySnapshot {
        let sorted = counters(&self.latencies).sorted();
        TelemetrySnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected_unmeetable: self.rejected_unmeetable.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            precision_degraded: self.precision_degraded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            aborted_connections: self.aborted_connections.load(Ordering::Relaxed),
            queue_depth,
            queue_high_water,
            p50_ms: quantile(&sorted, 0.50),
            p95_ms: quantile(&sorted, 0.95),
            p99_ms: quantile(&sorted, 0.99),
            max_ms: sorted.last().copied().unwrap_or(0.0),
            routes: counters(&self.routes).clone(),
            breakers: Vec::new(),
        }
    }
}

/// A point-in-time view of serving telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests load-shed from the saturated queue.
    pub shed: u64,
    /// Requests fast-failed at admission (estimate exceeded deadline).
    pub rejected_unmeetable: u64,
    /// Deadlines missed: queue expiries plus completions that finished
    /// late.
    pub deadline_missed: u64,
    /// Completions served via a degraded plan (budget-unfit route or a
    /// `memory_limited` execution).
    pub degraded: u64,
    /// Completions executed at a different score-arithmetic rung than
    /// the client requested (the admission ladder stepped the precision
    /// class down to make the deadline, or the route landed on the
    /// fixed-point accelerator).
    pub precision_degraded: u64,
    /// Protocol parse failures plus backend execution errors.
    pub errors: u64,
    /// Panicking queries caught by workers and answered as typed
    /// internal errors (a subset of `errors`).
    pub worker_panics: u64,
    /// Failover retries consumed: every time a failed backend attempt
    /// was re-routed to another backend.
    pub failovers: u64,
    /// Connections that died with responses still owed.
    pub aborted_connections: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Deepest the queue has ever been (bounded by its capacity).
    pub queue_high_water: usize,
    /// Median completion latency over the reservoir, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile completion latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile completion latency, milliseconds.
    pub p99_ms: f64,
    /// Worst retained completion latency, milliseconds.
    pub max_ms: f64,
    /// Completions per backend, in first-served order.
    pub routes: Vec<(BackendKind, u64)>,
    /// Per-backend circuit-breaker state and lifetime trip count, in
    /// registration order. Filled in by the server (the router owns the
    /// breakers); empty from a bare [`ServerTelemetry::snapshot`].
    pub breakers: Vec<(BackendKind, BreakerState, u64)>,
}

impl TelemetrySnapshot {
    /// A single-line `key=value` rendering for the `STATS` response.
    pub fn render_compact(&self) -> String {
        let routes: String = if self.routes.is_empty() {
            "-".into()
        } else {
            self.routes
                .iter()
                .map(|(kind, count)| format!("{kind}:{count}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let breakers: String = if self.breakers.is_empty() {
            "-".into()
        } else {
            self.breakers
                .iter()
                .map(|(kind, state, trips)| format!("{kind}:{state}:{trips}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "accepted={} completed={} shed={} rejected_unmeetable={} deadline_missed={} \
             degraded={} precision_degraded={} errors={} worker_panics={} failovers={} \
             aborted_connections={} queue_depth={} queue_high_water={} \
             p50_ms={:.3} p95_ms={:.3} p99_ms={:.3} max_ms={:.3} routes={routes} \
             breakers={breakers}",
            self.accepted,
            self.completed,
            self.shed,
            self.rejected_unmeetable,
            self.deadline_missed,
            self.degraded,
            self.precision_degraded,
            self.errors,
            self.worker_panics,
            self.failovers,
            self.aborted_connections,
            self.queue_depth,
            self.queue_high_water,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
        )
    }

    /// Parses a [`TelemetrySnapshot::render_compact`] line back into
    /// the counter fields clients act on (latency quantiles included;
    /// route counts ignored).
    ///
    /// # Errors
    ///
    /// A human-readable reason.
    pub fn parse_compact(line: &str) -> Result<TelemetrySnapshot, String> {
        let mut snap = TelemetrySnapshot {
            accepted: 0,
            completed: 0,
            shed: 0,
            rejected_unmeetable: 0,
            deadline_missed: 0,
            degraded: 0,
            precision_degraded: 0,
            errors: 0,
            worker_panics: 0,
            failovers: 0,
            aborted_connections: 0,
            queue_depth: 0,
            queue_high_water: 0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
            routes: Vec::new(),
            breakers: Vec::new(),
        };
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed stats token {token:?}"))?;
            let parse_u64 = |v: &str| v.parse::<u64>().map_err(|e| format!("bad {key}: {e}"));
            let parse_f64 = |v: &str| v.parse::<f64>().map_err(|e| format!("bad {key}: {e}"));
            match key {
                "accepted" => snap.accepted = parse_u64(value)?,
                "completed" => snap.completed = parse_u64(value)?,
                "shed" => snap.shed = parse_u64(value)?,
                "rejected_unmeetable" => snap.rejected_unmeetable = parse_u64(value)?,
                "deadline_missed" => snap.deadline_missed = parse_u64(value)?,
                "degraded" => snap.degraded = parse_u64(value)?,
                "precision_degraded" => snap.precision_degraded = parse_u64(value)?,
                "errors" => snap.errors = parse_u64(value)?,
                "worker_panics" => snap.worker_panics = parse_u64(value)?,
                "failovers" => snap.failovers = parse_u64(value)?,
                "aborted_connections" => snap.aborted_connections = parse_u64(value)?,
                "queue_depth" => snap.queue_depth = parse_u64(value)? as usize,
                "queue_high_water" => snap.queue_high_water = parse_u64(value)? as usize,
                "p50_ms" => snap.p50_ms = parse_f64(value)?,
                "p95_ms" => snap.p95_ms = parse_f64(value)?,
                "p99_ms" => snap.p99_ms = parse_f64(value)?,
                "max_ms" => snap.max_ms = parse_f64(value)?,
                "routes" => {
                    if value != "-" {
                        for pair in value.split(',') {
                            let (kind, count) = pair
                                .split_once(':')
                                .ok_or_else(|| format!("malformed route {pair:?}"))?;
                            let kind = kind
                                .parse::<BackendKind>()
                                .map_err(|e| format!("bad route kind: {e}"))?;
                            let count = count
                                .parse::<u64>()
                                .map_err(|e| format!("bad route: {e}"))?;
                            snap.routes.push((kind, count));
                        }
                    }
                }
                "breakers" => {
                    if value != "-" {
                        for triple in value.split(',') {
                            let mut parts = triple.splitn(3, ':');
                            let (Some(kind), Some(state), Some(trips)) =
                                (parts.next(), parts.next(), parts.next())
                            else {
                                return Err(format!("malformed breaker {triple:?}"));
                            };
                            let kind = kind
                                .parse::<BackendKind>()
                                .map_err(|e| format!("bad breaker kind: {e}"))?;
                            let state = state
                                .parse::<BreakerState>()
                                .map_err(|e| format!("bad breaker state: {e}"))?;
                            let trips = trips
                                .parse::<u64>()
                                .map_err(|e| format!("bad breaker trips: {e}"))?;
                            snap.breakers.push((kind, state, trips));
                        }
                    }
                }
                other => return Err(format!("unknown stats key {other:?}")),
            }
        }
        Ok(snap)
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    /// A multi-line human-readable report (printed at shutdown).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "serving telemetry:")?;
        writeln!(
            f,
            "  accepted {}  completed {}  errors {}",
            self.accepted, self.completed, self.errors
        )?;
        writeln!(
            f,
            "  shed {}  unmeetable {}  deadline-missed {}  degraded {}  precision-degraded {}",
            self.shed,
            self.rejected_unmeetable,
            self.deadline_missed,
            self.degraded,
            self.precision_degraded
        )?;
        writeln!(
            f,
            "  worker-panics {}  failovers {}  aborted-connections {}",
            self.worker_panics, self.failovers, self.aborted_connections
        )?;
        writeln!(
            f,
            "  queue depth {}  high-water {}",
            self.queue_depth, self.queue_high_water
        )?;
        writeln!(
            f,
            "  latency ms  p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}",
            self.p50_ms, self.p95_ms, self.p99_ms, self.max_ms
        )?;
        write!(f, "  routes")?;
        if self.routes.is_empty() {
            write!(f, "  (none)")?;
        }
        for (kind, count) in &self.routes {
            write!(f, "  {kind}={count}")?;
        }
        if !self.breakers.is_empty() {
            write!(f, "\n  breakers")?;
            for (kind, state, trips) in &self.breakers {
                write!(f, "  {kind}={state} (trips {trips})")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank_over_the_reservoir() {
        let telemetry = ServerTelemetry::new(128);
        for i in 1..=100u64 {
            telemetry.on_completion(
                BackendKind::Meloppr,
                Duration::from_millis(i),
                false,
                false,
                false,
            );
        }
        let snap = telemetry.snapshot(3, 7);
        assert_eq!(snap.completed, 100);
        assert_eq!(snap.p50_ms, 50.0);
        assert_eq!(snap.p95_ms, 95.0);
        assert_eq!(snap.p99_ms, 99.0);
        assert_eq!(snap.max_ms, 100.0);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.queue_high_water, 7);
        assert_eq!(snap.routes, vec![(BackendKind::Meloppr, 100)]);
    }

    #[test]
    fn reservoir_retains_only_the_most_recent_window() {
        let telemetry = ServerTelemetry::new(4);
        for ms in [1000, 1000, 1000, 2, 4, 6, 8] {
            telemetry.on_completion(
                BackendKind::LocalPpr,
                Duration::from_millis(ms),
                false,
                false,
                false,
            );
        }
        // Only the last four samples (2, 4, 6, 8 ms) remain.
        let snap = telemetry.snapshot(0, 0);
        assert_eq!(snap.max_ms, 8.0);
        assert_eq!(snap.p50_ms, 4.0);
    }

    #[test]
    fn counters_and_flags_accumulate() {
        let telemetry = ServerTelemetry::new(8);
        telemetry.on_accept();
        telemetry.on_accept();
        telemetry.on_shed();
        telemetry.on_unmeetable();
        telemetry.on_queue_expiry();
        telemetry.on_error();
        telemetry.on_completion(
            BackendKind::ExactPower,
            Duration::from_millis(3),
            true,
            true,
            true,
        );
        let snap = telemetry.snapshot(0, 0);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected_unmeetable, 1);
        assert_eq!(snap.deadline_missed, 2); // queue expiry + late completion
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.precision_degraded, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn compact_rendering_roundtrips_counters() {
        let telemetry = ServerTelemetry::new(8);
        telemetry.on_accept();
        telemetry.on_completion(
            BackendKind::MonteCarlo,
            Duration::from_micros(1500),
            false,
            true,
            false,
        );
        let snap = telemetry.snapshot(1, 2);
        let parsed = TelemetrySnapshot::parse_compact(&snap.render_compact()).unwrap();
        assert_eq!(parsed.accepted, 1);
        assert_eq!(parsed.precision_degraded, 1);
        assert_eq!(parsed.completed, 1);
        assert_eq!(parsed.queue_depth, 1);
        assert_eq!(parsed.queue_high_water, 2);
        assert_eq!(parsed.p50_ms, 1.5);
        assert_eq!(parsed.routes, vec![(BackendKind::MonteCarlo, 1)]);
        // Display stays renderable for the shutdown report.
        assert!(snap.to_string().contains("high-water 2"));
    }

    #[test]
    fn robustness_counters_and_breakers_roundtrip() {
        let telemetry = ServerTelemetry::new(8);
        telemetry.on_worker_panic();
        telemetry.on_failover(2);
        telemetry.on_aborted_connection();
        let mut snap = telemetry.snapshot(0, 0);
        snap.breakers = vec![
            (BackendKind::Meloppr, BreakerState::Open, 3),
            (BackendKind::LocalPpr, BreakerState::Closed, 0),
        ];
        let parsed = TelemetrySnapshot::parse_compact(&snap.render_compact()).unwrap();
        assert_eq!(parsed.worker_panics, 1);
        assert_eq!(parsed.failovers, 2);
        assert_eq!(parsed.aborted_connections, 1);
        assert_eq!(parsed.breakers, snap.breakers);
        let report = snap.to_string();
        assert!(report.contains("worker-panics 1"), "{report}");
        assert!(report.contains("meloppr=open (trips 3)"), "{report}");
    }
}
