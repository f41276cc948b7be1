//! The traced run: the same generated requests, replayed in-process
//! through the layers' public functions, with spans recorded around each
//! call from outside the program.
//!
//! One thread builds the daemon's configuration from the library (the
//! five-backend self-calibrating router with a 1024-ball shared cache,
//! plus the cold tier when the workload uses one) and serves each
//! request the way a daemon worker does, without the socket and queue:
//!
//! ```text
//! request ─┬─ protocol.parse     Request::parse
//!          ├─ scheduler.admit    scheduler::admit (front door)
//!          ├─ scheduler.admit    scheduler::admit (re-admission at dequeue)
//!          ├─ router.select      Router::select
//!          ├─ backend.query      the routed backend's query_with
//!          ├─ router.observe     calibration and breaker feedback
//!          └─ protocol.encode    Response::encode
//! ```
//!
//! The program has no spans of its own yet, so the ball-level work inside
//! a staged `backend.query` is recovered by replay: right after the
//! query, the staged engine's trace (`DiffusionRecord` stage and node) is
//! replayed ball by ball against a mirror of the shared cache that has
//! seen exactly the same lookups, with one span around each cache lookup
//! (`get_ball_with_as`, named by the tier that served it: `cache.hit`,
//! `cache.cold`, `cache.bfs`) and one around the kernel. These replayed
//! spans are the query's children; `staged.self_us` (selection,
//! aggregation and top-k) is the query span minus them. Everything a
//! request's root span does not cover with a child is the residual.
//!
//! A second, untraced pass over the same inputs on a fresh router gives
//! the tracing overhead. Unit costs that no request path isolates (BFS
//! and kernel cost per edge at every precision rung, the cold tier's
//! read and inflate) come from direct calls on the traced balls, outside
//! every request span.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use meloppr::backend::{ExactPower, LocalPpr, Meloppr, MonteCarlo};
use meloppr::core::diffusion::{diffuse_into, DiffusionConfig};
use meloppr::core::quantized::{diffuse_quantized, QCtx, Qu32, QuantScratch};
use meloppr::core::DiffusionScratch;
use meloppr::graph::{CsrGraph, ExtractScratch, NodeId, Subgraph};
use meloppr::server::{admit, Admission, Request, Response};
use meloppr::{
    build_index, AcceleratorConfig, BackendKind, BallIndex, CacheBudget, CacheConsumer, CachedBall,
    CompactBall, ConcurrentSubgraphCache, FpgaHybrid, HybridConfig, MelopprEngine, MelopprParams,
    PprParams, PrecisionClass, QueryWorkspace, Router, SelectionStrategy,
};

use crate::report::{mean, median, quantile, ratio, Metrics};
use crate::workload::{Req, Schedule, Workload};

/// The daemon's defaults (`meloppr-serve` with no flags).
const ALPHA: f64 = 0.85;
const LENGTH: usize = 6;
const STAGES: [usize; 2] = [3, 3];
const RATIO: f64 = 0.05;
const WALKS: usize = 10_000;
const CACHE_BALLS: usize = 1024;

/// Traced balls measured by the direct unit-cost calls.
const PROBE_BALLS: usize = 3000;

/// The staged parameters `meloppr-serve` builds from its defaults.
fn staged_params() -> Result<MelopprParams, String> {
    let ppr = PprParams::new(ALPHA, LENGTH, crate::workload::K).map_err(|e| e.to_string())?;
    let params = MelopprParams {
        ppr,
        stages: STAGES.to_vec(),
        selection: SelectionStrategy::TopFraction(RATIO),
        ..MelopprParams::paper_defaults()
    };
    params.validate().map_err(|e| e.to_string())?;
    Ok(params)
}

/// The daemon's router, built as `meloppr-serve` builds it: returns the
/// prepared router and its shared cache.
fn daemon_router<'g>(
    g: &'g CsrGraph,
    index: Option<&Path>,
) -> Result<(Router<'g>, Arc<ConcurrentSubgraphCache>), String> {
    let err = |e: meloppr::core::PprError| e.to_string();
    let staged = staged_params()?;
    let ppr = staged.ppr;
    let cache = Arc::new(mirror_cache(index)?);
    let hybrid = HybridConfig {
        accel: AcceleratorConfig {
            parallelism: 16,
            ..AcceleratorConfig::default()
        },
        ..HybridConfig::default()
    };
    let mut router = Router::new()
        .with_backend(Box::new(ExactPower::new(g, ppr).map_err(err)?))
        .with_backend(Box::new(LocalPpr::new(g, ppr).map_err(err)?))
        .with_backend(Box::new(MonteCarlo::new(g, ppr, WALKS, 42).map_err(err)?))
        .with_backend(Box::new(
            Meloppr::new(g, staged.clone())
                .map_err(err)?
                .with_shared_cache(Arc::clone(&cache)),
        ))
        .with_backend(Box::new(
            FpgaHybrid::new(g, staged, hybrid).map_err(|e| e.to_string())?,
        ))
        .with_self_calibration(true);
    router.prepare().map_err(err)?;
    Ok((router, cache))
}

/// A shared cache configured like the daemon's.
fn mirror_cache(index: Option<&Path>) -> Result<ConcurrentSubgraphCache, String> {
    let mut cache = ConcurrentSubgraphCache::with_budget(CacheBudget::entries(CACHE_BALLS));
    if let Some(path) = index {
        let index = BallIndex::open(path).map_err(|e| format!("opening ball index: {e}"))?;
        cache = cache.with_cold_tier(Arc::new(index));
    }
    Ok(cache)
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

impl Span {
    fn ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span and returns its result and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Writes every span as a tab-separated line: index, parent, request,
    /// name, start and end in ns since the trace began.
    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("span\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.request,
                s.name,
                s.start.duration_since(self.epoch).as_nanos(),
                s.end.duration_since(self.epoch).as_nanos()
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// What serving one request produced.
struct Served {
    backend: Option<BackendKind>,
    class: PrecisionClass,
    estimate_ns: f64,
    total_diffusions: usize,
    peak_task_bytes: usize,
}

/// Serves one request as a daemon worker does, optionally inside spans
/// (`trace` = the tracer and the request's root span).
fn serve(
    router: &Router<'_>,
    req: &Req,
    ws: &mut QueryWorkspace,
    mut trace: Option<(&mut Tracer, usize)>,
) -> Result<Served, String> {
    macro_rules! step {
        ($name:literal, $body:expr) => {
            match trace.as_mut() {
                Some((tracer, root)) => tracer.span($name, req.id, Some(*root), || $body).0,
                None => $body,
            }
        };
    }
    let spec = match step!("protocol.parse", Request::parse(&req.frame)) {
        Ok(Request::Query(spec)) => spec,
        other => {
            return Err(format!(
                "request {} did not parse as a QUERY: {other:?}",
                req.id
            ))
        }
    };
    let remaining = Duration::from_secs_f64(req.deadline_ms / 1e3);
    let base = spec.to_query_request();
    let mut served = Served {
        backend: None,
        class: PrecisionClass::Exact64,
        estimate_ns: 0.0,
        total_diffusions: 0,
        peak_task_bytes: 0,
    };
    // Admission at the front door, then again at dequeue on the admitted
    // request, as the daemon does (in-process there is no queue wait).
    let mut admitted = Some(base);
    for _ in 0..2 {
        let Some(query) = admitted else { break };
        admitted = match step!("scheduler.admit", admit(router, &query, remaining)) {
            Ok(Admission::Admit { req, .. }) => Some(req),
            Ok(Admission::Reject { .. }) => None,
            Err(e) => return Err(format!("admitting request {}: {e}", req.id)),
        };
    }
    let response = match admitted {
        None => Response::Rejected {
            id: req.id,
            reason: meloppr::server::RejectReason::DeadlineUnmeetable,
            predicted_us: None,
            remaining_us: remaining.as_micros() as u64,
        },
        Some(query) => {
            let route = step!("router.select", router.select(&query))
                .map_err(|e| format!("routing request {}: {e}", req.id))?;
            let backend = &router.backends()[route.index];
            let (calibration, _) = router.calibration_ratio(route.index);
            let started = Instant::now();
            let outcome = step!("backend.query", backend.query_with(&query, ws))
                .map_err(|e| format!("request {} on {}: {e}", req.id, route.kind))?;
            let elapsed_ns = started.elapsed().as_nanos() as f64;
            step!("router.observe", {
                let observed = outcome.stats.latency_estimate_ns.unwrap_or(elapsed_ns);
                router.observe(
                    route.index,
                    observed,
                    route.estimate.latency_ns / calibration,
                );
                if outcome.stats.memory_limited {
                    router.observe_degradation(route.index);
                }
                router.record_breaker(route.index, true);
            });
            served.backend = Some(route.kind);
            served.class = outcome.stats.precision_class;
            served.estimate_ns = route.estimate.latency_ns;
            served.total_diffusions = outcome.stats.total_diffusions;
            served.peak_task_bytes = outcome.stats.peak_task_memory_bytes;
            Response::Ranking {
                id: req.id,
                backend: route.kind,
                latency_us: (elapsed_ns / 1e3) as u64,
                degraded: !route.fits_budget || outcome.stats.memory_limited,
                precision: outcome.stats.precision_class,
                ranking: outcome.ranking,
            }
        }
    };
    let frame = step!("protocol.encode", response.encode());
    std::hint::black_box(frame);
    Ok(served)
}

/// Where a mirror lookup's ball came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Ram,
    Cold,
    Bfs,
}

/// The mirror of the staged backend's shared cache, with the scratch a
/// staged query keeps in its workspace.
struct Mirror {
    cache: ConcurrentSubgraphCache,
    consumer: CacheConsumer,
    extract: ExtractScratch,
    cold_buf: Vec<u8>,
    diffusion: DiffusionScratch,
    q32: QuantScratch<f32>,
    qfx: QuantScratch<Qu32>,
}

impl Mirror {
    fn lookup(
        &mut self,
        g: &CsrGraph,
        node: NodeId,
        depth: u32,
    ) -> Result<(CachedBall, Tier), String> {
        let before = self.consumer.stats();
        let (ball, _) = self
            .cache
            .get_ball_with_as(
                g,
                node,
                depth,
                &mut self.extract,
                &mut self.cold_buf,
                &self.consumer,
            )
            .map_err(|e| format!("mirror lookup ({node}, {depth}): {e}"))?;
        let d = self.consumer.stats().delta_since(&before);
        let tier = if d.hits + d.shared > 0 {
            Tier::Ram
        } else if d.cold_hits > 0 {
            Tier::Cold
        } else {
            Tier::Bfs
        };
        Ok((ball, tier))
    }

    /// One stage diffusion on `ball` at `class`, as the staged engine runs it.
    fn diffuse(
        &mut self,
        ball: &CachedBall,
        len: usize,
        class: PrecisionClass,
    ) -> Result<usize, String> {
        let config = DiffusionConfig::new(ALPHA, len).map_err(|e| e.to_string())?;
        let out = &mut self.diffusion;
        // The daemon's cache keeps full balls (the default `BallStore`).
        let CachedBall::Full(sub) = ball else {
            return Err("the mirror cache returned a compact ball".into());
        };
        let init = [(sub.seed_local(), 1.0)];
        let work = match class {
            PrecisionClass::Exact64 => diffuse_into(&**sub, &init, config, out),
            PrecisionClass::Fast32 => {
                diffuse_quantized::<f32, _>(&**sub, &init, config, (), &mut self.q32, out)
            }
            PrecisionClass::Fixed(q) => diffuse_quantized::<Qu32, _>(
                &**sub,
                &init,
                config,
                QCtx::new(q),
                &mut self.qfx,
                out,
            ),
        };
        work.map(|w| w.edge_updates).map_err(|e| e.to_string())
    }
}

/// The balls one staged query diffused: `(stage, node)` in execution
/// order, from the staged engine's trace.
fn traced_balls(
    engine: &MelopprEngine<'_, CsrGraph>,
    ws: &mut QueryWorkspace,
    seed: NodeId,
) -> Result<Vec<(usize, NodeId)>, String> {
    let outcome = engine
        .query_with(seed, ws)
        .map_err(|e| format!("engine trace for seed {seed}: {e}"))?;
    Ok(outcome
        .stats
        .trace
        .iter()
        .map(|r| (r.stage, r.node))
        .collect())
}

/// Per-request figures the metrics are built from.
#[derive(Default)]
struct Tally {
    roots_ns: Vec<f64>,
    residual_ns: f64,
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
    admit_us: Vec<f64>,
    select_us: Vec<f64>,
    observe_ns: f64,
    estimate_ratio: Vec<f64>,
    staged_query_us: Vec<f64>,
    staged_self_ns: f64,
    staged_diffusions: Vec<f64>,
    staged_peak_task_bytes: usize,
    exact_query_us: Vec<f64>,
    mc_query_us: Vec<f64>,
    other_query_ns: f64,
    hit_us: Vec<f64>,
    hit_ns: f64,
    cold_ns: f64,
    bfs_ns: f64,
    kernel_ns: f64,
}

/// Requests of the window the traced run replays (the first ones).
const TRACE_REQUESTS: usize = 3000;

/// A daemon-configured router after the warm-up traffic.
struct Warmed<'g> {
    router: Router<'g>,
    cache: Arc<ConcurrentSubgraphCache>,
    /// The backend each warm-up request was routed to.
    warmup_routes: Vec<Option<BackendKind>>,
}

/// Builds a daemon-configured router and serves the warm-up untraced.
fn warmed_router<'g>(
    g: &'g CsrGraph,
    index: Option<&Path>,
    schedule: &Schedule,
    ws: &mut QueryWorkspace,
) -> Result<Warmed<'g>, String> {
    let (router, cache) = daemon_router(g, index)?;
    let warmup_routes = schedule
        .warmup
        .iter()
        .map(|req| serve(&router, req, ws, None).map(|s| s.backend))
        .collect::<Result<_, _>>()?;
    Ok(Warmed {
        router,
        cache,
        warmup_routes,
    })
}

/// One traced request, as the ball replay needs it.
struct Traced<'r> {
    req: &'r Req,
    served: Served,
    query_ns: f64,
    query_span: Option<usize>,
}

/// Replays `schedule` in-process and adds the per-layer metrics to `m`.
///
/// Three passes, each on a fresh daemon-configured router warmed by the
/// same warm-up traffic: an untraced pass (the overhead baseline), the
/// traced pass (request-level spans), and the ball replay (ball-level
/// spans, against a mirror cache), so that no pass perturbs another's
/// timing or cache state.
pub fn replay(
    g: &CsrGraph,
    workload: &Workload,
    schedule: &Schedule,
    cold_tier: Option<(&Path, f64)>,
    spans_out: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let index = cold_tier.map(|(path, _)| path);
    let window = &schedule.window[..schedule.window.len().min(TRACE_REQUESTS)];
    let mut ws = QueryWorkspace::new();

    // Pass 1: untraced.
    let untraced_ns = {
        let router = warmed_router(g, index, schedule, &mut ws)?.router;
        let mut total = 0.0;
        for req in window {
            let started = Instant::now();
            serve(&router, req, &mut ws, None)?;
            total += started.elapsed().as_nanos() as f64;
        }
        total
    };

    // Pass 2: request-level spans.
    let Warmed {
        router,
        cache,
        warmup_routes,
    } = warmed_router(g, index, schedule, &mut ws)?;
    let consumer = router
        .backends()
        .iter()
        .find_map(|b| b.cache_consumer())
        .ok_or("the staged backend has no cache consumer")?;
    let before = consumer.stats();
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut tally = Tally::default();
    let mut traced = Vec::with_capacity(window.len());
    for req in window {
        let first = tracer.spans.len();
        let root = tracer.open("request", req.id, None);
        let served = serve(&router, req, &mut ws, Some((&mut tracer, root)))?;
        tracer.close(root);
        let mut children_ns = 0.0;
        let mut query = (0.0, None);
        for (i, s) in tracer.spans.iter().enumerate().skip(first + 1) {
            children_ns += s.ns();
            match s.name {
                "protocol.parse" => tally.parse_us.push(s.ns() / 1e3),
                "protocol.encode" => tally.encode_us.push(s.ns() / 1e3),
                "scheduler.admit" => tally.admit_us.push(s.ns() / 1e3),
                "router.select" => tally.select_us.push(s.ns() / 1e3),
                "router.observe" => tally.observe_ns += s.ns(),
                "backend.query" => query = (s.ns(), Some(i)),
                _ => {}
            }
        }
        let root_ns = tracer.spans[root].ns();
        tally.roots_ns.push(root_ns);
        tally.residual_ns += root_ns - children_ns;
        let (query_ns, query_span) = query;
        if served.estimate_ns > 0.0 {
            tally.estimate_ratio.push(query_ns / served.estimate_ns);
        }
        match served.backend {
            Some(BackendKind::Meloppr) => {
                tally.staged_query_us.push(query_ns / 1e3);
                tally.staged_diffusions.push(served.total_diffusions as f64);
                tally.staged_peak_task_bytes =
                    tally.staged_peak_task_bytes.max(served.peak_task_bytes);
            }
            Some(BackendKind::ExactPower) => tally.exact_query_us.push(query_ns / 1e3),
            Some(BackendKind::MonteCarlo) => tally.mc_query_us.push(query_ns / 1e3),
            _ => {}
        }
        if served.backend.is_some() && served.backend != Some(BackendKind::Meloppr) {
            tally.other_query_ns += query_ns;
        }
        traced.push(Traced {
            req,
            served,
            query_ns,
            query_span,
        });
    }
    let delta = consumer.stats().delta_since(&before);
    let resident_bytes = cache.resident_bytes();
    drop(router);

    // Pass 3: the staged queries' balls, replayed against a mirror cache
    // that sees the same lookup sequence, warm-up included.
    let engine = MelopprEngine::new(g, staged_params()?).map_err(|e| e.to_string())?;
    let mut mirror = Mirror {
        cache: mirror_cache(index)?,
        consumer: CacheConsumer::new(256),
        extract: ExtractScratch::new(),
        cold_buf: Vec::new(),
        diffusion: DiffusionScratch::new(),
        q32: QuantScratch::default(),
        qfx: QuantScratch::default(),
    };
    for (req, route) in schedule.warmup.iter().zip(&warmup_routes) {
        if *route == Some(BackendKind::Meloppr) {
            for (stage, node) in traced_balls(&engine, &mut ws, req.seed)? {
                mirror.lookup(g, node, STAGES[stage] as u32)?;
            }
        }
    }
    let mut probe_balls: Vec<(usize, NodeId)> = Vec::new();
    let mut mismatched = 0usize;
    for t in traced
        .iter()
        .filter(|t| t.served.backend == Some(BackendKind::Meloppr))
    {
        let balls = traced_balls(&engine, &mut ws, t.req.seed)?;
        if balls.len() != t.served.total_diffusions {
            mismatched += 1;
        }
        let mut replayed_ns = 0.0;
        for &(stage, node) in &balls {
            let depth = STAGES[stage] as u32;
            let start = Instant::now();
            let (ball, tier) = mirror.lookup(g, node, depth)?;
            let end = Instant::now();
            let (name, bucket) = match tier {
                Tier::Ram => ("cache.hit", &mut tally.hit_ns),
                Tier::Cold => ("cache.cold", &mut tally.cold_ns),
                Tier::Bfs => ("cache.bfs", &mut tally.bfs_ns),
            };
            let lookup_ns = end.duration_since(start).as_nanos() as f64;
            *bucket += lookup_ns;
            if tier == Tier::Ram {
                tally.hit_us.push(lookup_ns / 1e3);
            }
            tracer.spans.push(Span {
                name,
                request: t.req.id,
                parent: t.query_span,
                start,
                end,
            });
            let (work, kernel) = tracer.span("kernel", t.req.id, t.query_span, || {
                mirror.diffuse(&ball, STAGES[stage], t.served.class)
            });
            work?;
            let kernel_ns = tracer.spans[kernel].ns();
            tally.kernel_ns += kernel_ns;
            replayed_ns += lookup_ns + kernel_ns;
        }
        tally.staged_self_ns += t.query_ns - replayed_ns;
        if probe_balls.len() < PROBE_BALLS {
            probe_balls.extend(balls);
        }
    }
    tracer.write(spans_out)?;

    let n = window.len() as f64;
    let staged_n = tally.staged_query_us.len() as f64;
    let traced_ns: f64 = tally.roots_ns.iter().sum();
    println!(
        "cache lookups per staged query: {:.2} ({:.2} RAM, {:.2} cold, {:.2} BFS); \
         mirror RAM-hit share {:.3}",
        ratio(delta.lookups() as f64, staged_n),
        ratio((delta.hits + delta.shared) as f64, staged_n),
        ratio(delta.cold_hits as f64, staged_n),
        ratio(
            delta.misses.saturating_sub(delta.cold_hits) as f64,
            staged_n
        ),
        mirror.consumer.stats().hit_rate(),
    );
    println!(
        "ball replay: {mismatched} of {} staged queries ran a different number of \
         diffusions than the replayed engine trace",
        tally.staged_query_us.len()
    );
    reconcile(&tally, n);

    m.add("protocol.parse_us", median(&tally.parse_us), "us");
    m.add("protocol.encode_us", median(&tally.encode_us), "us");
    m.add("scheduler.admit_us", median(&tally.admit_us), "us");
    m.add("router.select_us", median(&tally.select_us), "us");
    m.add(
        "router.estimate_ratio",
        median(&tally.estimate_ratio),
        "ratio",
    );
    m.add("staged.query_us", median(&tally.staged_query_us), "us");
    m.add(
        "staged.query_p99_us",
        quantile(&tally.staged_query_us, 0.99),
        "us",
    );
    m.add(
        "staged.self_us",
        ratio(tally.staged_self_ns / 1e3, staged_n),
        "us",
    );
    m.add(
        "staged.diffusions_per_query",
        mean(&tally.staged_diffusions),
        "count",
    );
    m.add(
        "staged.peak_task_bytes",
        tally.staged_peak_task_bytes as f64,
        "bytes",
    );
    m.add("cache.hit_rate", delta.hit_rate(), "ratio");
    m.add("cache.hit_us", median(&tally.hit_us), "us");
    m.add(
        "cache.extractions_per_query",
        ratio(delta.extractions as f64, staged_n),
        "count",
    );
    m.add(
        "cache.admission_rejects",
        delta.rejected_admissions as f64,
        "count",
    );
    m.add(
        "cache.cold_hits_per_query",
        ratio(delta.cold_hits as f64, staged_n),
        "count",
    );
    m.add("cache.cold_fallbacks", delta.cold_fallbacks as f64, "count");
    m.add("cache.resident_bytes", resident_bytes as f64, "bytes");
    m.add("bfs.extract_us", ratio(tally.bfs_ns / 1e3, staged_n), "us");
    m.add(
        "kernel.diffuse_us",
        ratio(tally.kernel_ns / 1e3, staged_n),
        "us",
    );
    m.add("exact.query_us", median(&tally.exact_query_us), "us");
    m.add("mc.query_us", median(&tally.mc_query_us), "us");
    let probe_dir = spans_out.parent().unwrap_or(Path::new("."));
    unit_costs(g, cold_tier, probe_dir, &probe_balls, m)?;
    m.add(
        "trace.residual_share",
        ratio(tally.residual_ns, traced_ns),
        "ratio",
    );
    m.add(
        "trace.overhead_share",
        ratio(traced_ns, untraced_ns),
        "ratio",
    );
    println!(
        "trace: {} spans for {} requests of {} written to {}",
        tracer.spans.len(),
        window.len(),
        workload.name,
        spans_out.display()
    );
    Ok(())
}

/// Prints the per-query mean self time of every layer and checks that
/// they and the residual add up to the mean in-process request time.
fn reconcile(t: &Tally, n: f64) {
    let per_query = |ns: f64| ns / n / 1e3;
    let sum_us = |v: &[f64]| v.iter().sum::<f64>() / n;
    let layers = [
        ("protocol.parse", sum_us(&t.parse_us)),
        ("scheduler.admit", sum_us(&t.admit_us)),
        ("router.select", sum_us(&t.select_us)),
        ("staged.self", per_query(t.staged_self_ns)),
        ("cache.hit", per_query(t.hit_ns)),
        ("cache.cold", per_query(t.cold_ns)),
        ("cache.bfs", per_query(t.bfs_ns)),
        ("kernel", per_query(t.kernel_ns)),
        (
            "backend.query (exact, mc, other)",
            per_query(t.other_query_ns),
        ),
        ("router.observe", per_query(t.observe_ns)),
        ("protocol.encode", sum_us(&t.encode_us)),
        ("residual", per_query(t.residual_ns)),
    ];
    let total_us = sum_us(&t.roots_ns) / 1e3;
    println!("reconciliation (mean us per request, self time):");
    let mut sum = 0.0;
    for (name, us) in layers {
        sum += us;
        println!("  {name:<36} {us:>12.3}");
    }
    println!("  {:<36} {sum:>12.3}", "sum of the above");
    println!("  {:<36} {total_us:>12.3}", "in-process request time");
}

/// Per-unit costs measured by direct calls on traced balls: BFS
/// extraction and every kernel rung per edge, and the cold tier's read
/// and inflate.
fn unit_costs(
    g: &CsrGraph,
    cold_tier: Option<(&Path, f64)>,
    probe_dir: &Path,
    balls: &[(usize, NodeId)],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut extract = ExtractScratch::new();
    let mut diffusion = DiffusionScratch::new();
    let mut q64 = QuantScratch::<f64>::default();
    let mut q32 = QuantScratch::<f32>::default();
    let mut qfx = QuantScratch::<Qu32>::default();
    let (mut bfs_ns, mut bfs_edges) = (0.0, 0.0);
    let mut kernel = [(0.0f64, 0.0f64); 4];
    for &(stage, node) in balls {
        let len = STAGES[stage];
        let config = DiffusionConfig::new(ALPHA, len).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let (sub, scanned) = extract
            .extract(g, node, len as u32)
            .map_err(|e| e.to_string())?;
        bfs_ns += started.elapsed().as_nanos() as f64;
        bfs_edges += scanned as f64;
        let sub: Subgraph = sub.clone();
        let Some(compact) = CompactBall::from_subgraph(&sub) else {
            continue;
        };
        let init = [(sub.seed_local(), 1.0)];
        let mut time = |slot: usize, f: &mut dyn FnMut() -> Result<usize, String>| {
            let started = Instant::now();
            let edges = f()?;
            kernel[slot].0 += started.elapsed().as_nanos() as f64;
            kernel[slot].1 += edges as f64;
            Ok::<(), String>(())
        };
        let e = |r: meloppr::core::Result<meloppr::core::DiffusionWork>| {
            r.map(|w| w.edge_updates).map_err(|e| e.to_string())
        };
        time(0, &mut || {
            e(diffuse_into(&sub, &init, config, &mut diffusion))
        })?;
        time(1, &mut || {
            e(diffuse_quantized::<f64, _>(
                &compact,
                &init,
                config,
                (),
                &mut q64,
                &mut diffusion,
            ))
        })?;
        time(2, &mut || {
            e(diffuse_quantized::<f32, _>(
                &compact,
                &init,
                config,
                (),
                &mut q32,
                &mut diffusion,
            ))
        })?;
        time(3, &mut || {
            e(diffuse_quantized::<Qu32, _>(
                &compact,
                &init,
                config,
                QCtx::new(16),
                &mut qfx,
                &mut diffusion,
            ))
        })?;
    }
    m.add("bfs.ns_per_edge", ratio(bfs_ns, bfs_edges), "ns");
    for (slot, name) in [
        "kernel.ns_per_edge.exact_sparse",
        "kernel.ns_per_edge.exact_compact",
        "kernel.ns_per_edge.f32",
        "kernel.ns_per_edge.q16",
    ]
    .into_iter()
    .enumerate()
    {
        m.add(name, ratio(kernel[slot].0, kernel[slot].1), "ns");
    }

    // Without a cold tier in the workload, the cold tier's costs are
    // measured on an index built here, so every traced run reports them.
    let probe_index = probe_dir.join("probe-depth3.idx");
    let (path, build_s) = match cold_tier {
        Some(tier) => tier,
        None => {
            let started = Instant::now();
            build_index(g, crate::daemon::INDEX_DEPTH, &probe_index)
                .map_err(|e| format!("building the probe index: {e}"))?;
            (probe_index.as_path(), started.elapsed().as_secs_f64())
        }
    };
    let (mut read_us, mut inflate_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    {
        let index = BallIndex::open(path).map_err(|e| format!("opening ball index: {e}"))?;
        let mut buf = Vec::new();
        for &(stage, node) in balls {
            let started = Instant::now();
            let record = index
                .read_ball(node, STAGES[stage] as u32, &mut buf)
                .map_err(|e| format!("reading ball ({node}, {stage}): {e}"))?;
            let read = started.elapsed();
            let Some(record) = record else { continue };
            let started = Instant::now();
            let sub = record.to_subgraph().map_err(|e| e.to_string())?;
            inflate_us.push(started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(sub);
            read_us.push(read.as_secs_f64() * 1e6);
            bytes.push(buf.len() as f64);
        }
    }
    if cold_tier.is_none() {
        let _ = std::fs::remove_file(&probe_index);
    }
    m.add("ballindex.build_s", build_s, "s");
    m.add("ballindex.read_us", median(&read_us), "us");
    m.add("ballindex.inflate_us", median(&inflate_us), "us");
    m.add("ballindex.bytes_per_read", mean(&bytes), "bytes");
    Ok(())
}
