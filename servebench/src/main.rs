//! `meloppr-servebench`: the serving benchmark.
//!
//! ```text
//! meloppr-servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    --bin-dir <dir with meloppr-serve and meloppr-cli>
//!                    --work-dir <scratch dir>
//! ```
//!
//! Spawns `meloppr-serve` with its defaults on the pubmed stand-in,
//! drives it over loopback with an open-loop schedule generated from
//! `--seed` and the workload's name, checks every answer against an
//! in-process exact oracle, and prints one JSON result line last. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics, which additionally come from an
//! in-process traced replay of the same requests (see `trace.rs`).
//! `README.md` beside this crate lists every workload and metric.

#![forbid(unsafe_code)]

mod daemon;
mod gate;
mod loadgen;
mod report;
mod rng;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::graph::CsrGraph;
use meloppr::server::{RejectReason, Response};
use meloppr::BackendKind;

use daemon::Daemon;
use loadgen::{Client, Window};
use report::{mean, median, quantile, ratio, Metrics};
use workload::{Kind, Schedule, Workload};

/// Daemon boots per run, and ball-index builds per run for workloads
/// with a cold tier; `setup_s` is the median build plus the median boot.
const BOOT_REPS: usize = 9;
const INDEX_BUILD_REPS: usize = 3;

/// A run is invalid, and reports nothing, when the generator sent its
/// frames later than this at p99: it then no longer offered the
/// scheduled load. The limit is the benchmark's largest bound (a
/// quarter) of the daemon's default 100 ms deadline. Smaller lateness is
/// not excused: latency is timed from the due time, so it is charged to
/// the request it delayed.
const LATE_P99_LIMIT_MS: f64 = 25.0;

/// Every backend the daemon registers, for the route-share metrics.
const BACKENDS: [BackendKind; 5] = [
    BackendKind::ExactPower,
    BackendKind::LocalPpr,
    BackendKind::MonteCarlo,
    BackendKind::Meloppr,
    BackendKind::FpgaHybrid,
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (have {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The graph the daemon serves, regenerated in-process exactly as
/// `meloppr-serve` builds `corpus:G3` (generator seed 42).
pub fn regenerate_graph() -> Result<CsrGraph, String> {
    PaperGraph::G3Pubmed
        .generate(42)
        .map_err(|e| format!("generating {}: {e}", workload::GRAPH_SPEC))
}

/// The set-up phase's measurements.
struct Setup {
    /// Median index build plus median spawn-to-first-PONG.
    setup_s: f64,
    /// Median spawn-to-first-PONG.
    boot_s: f64,
    /// Median index build (0 without an index).
    index_build_s: f64,
    index: Option<PathBuf>,
}

/// Builds the ball index `INDEX_BUILD_REPS` times (when the workload
/// uses one) and boots the daemon `BOOT_REPS` times, keeping the last
/// daemon running.
fn set_up(args: &Args) -> Result<(Daemon, Setup), String> {
    let mut builds = Vec::new();
    let mut index = None;
    if args.workload.ball_index {
        for _ in 0..INDEX_BUILD_REPS {
            let (path, secs) = daemon::build_index(&args.bin_dir, &args.work_dir)?;
            builds.push(secs);
            index = Some(path);
        }
    }
    let mut boots = Vec::new();
    let mut kept = None;
    for rep in 0..BOOT_REPS {
        let (daemon, boot_s) = Daemon::spawn(&args.bin_dir, &args.work_dir, index.as_deref())?;
        boots.push(boot_s);
        if rep + 1 < BOOT_REPS {
            daemon.shutdown()?;
        } else {
            kept = Some(daemon);
        }
    }
    let daemon = kept.expect("BOOT_REPS >= 1");
    let (index_build_s, boot_s) = (median(&builds), median(&boots));
    Ok((
        daemon,
        Setup {
            setup_s: index_build_s + boot_s,
            boot_s,
            index_build_s,
            index,
        },
    ))
}

/// Everything the measured window showed, with each `OK` checked.
#[derive(Debug, Default)]
pub struct Evaluation {
    pub attempted: usize,
    pub ok: usize,
    pub ok_in_deadline: usize,
    pub rejected: usize,
    pub rejected_by: [usize; 3],
    pub errors: usize,
    pub unanswered: usize,
    pub violations: usize,
    pub client_ms: Vec<f64>,
    pub server_ms: Vec<f64>,
    pub wire_overhead_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub precision: Vec<f64>,
    pub routes: Vec<usize>,
    pub stats_rtt_us: Vec<f64>,
    /// Per request kind: sent, `OK`, `OK` within deadline.
    pub by_kind: [(usize, usize, usize); 3],
}

fn evaluate(schedule: &Schedule, window: &Window, oracle: &gate::Oracle) -> Evaluation {
    let mut ev = Evaluation {
        attempted: schedule.window.len(),
        routes: vec![0; BACKENDS.len()],
        ..Evaluation::default()
    };
    for (req, outcome) in schedule.window.iter().zip(&window.outcomes) {
        ev.late_ms
            .push(outcome.sent.duration_since(outcome.due).as_secs_f64() * 1e3);
        let kind = &mut ev.by_kind[req.kind as usize];
        kind.0 += 1;
        let Some((at, response)) = &outcome.response else {
            ev.unanswered += 1;
            println!("unanswered id={}", req.id);
            continue;
        };
        match response {
            Response::Ranking {
                backend,
                latency_us,
                ranking,
                ..
            } => {
                ev.ok += 1;
                ev.by_kind[req.kind as usize].1 += 1;
                let client_ms = at.duration_since(outcome.due).as_secs_f64() * 1e3;
                let server_ms = *latency_us as f64 / 1e3;
                ev.client_ms.push(client_ms);
                ev.server_ms.push(server_ms);
                ev.wire_overhead_ms.push(client_ms - server_ms);
                if client_ms <= req.deadline_ms {
                    ev.ok_in_deadline += 1;
                    ev.by_kind[req.kind as usize].2 += 1;
                }
                if let Some(b) = BACKENDS.iter().position(|b| b == backend) {
                    ev.routes[b] += 1;
                }
                match gate::check(oracle, req.seed, *backend, ranking) {
                    Ok(p) => ev.precision.push(p),
                    Err(why) => {
                        ev.violations += 1;
                        println!(
                            "violation id={} seed={} backend={backend}: {why}",
                            req.id, req.seed
                        );
                    }
                }
            }
            Response::Rejected { reason, .. } => {
                ev.rejected += 1;
                ev.rejected_by[match reason {
                    RejectReason::QueueFull => 0,
                    RejectReason::DeadlineUnmeetable => 1,
                    RejectReason::DeadlineExceeded => 2,
                }] += 1;
            }
            Response::Error { message, .. } => {
                ev.errors += 1;
                println!("error id={}: {message}", req.id);
            }
            other => {
                ev.errors += 1;
                println!("unexpected reply to id={}: {other:?}", req.id);
            }
        }
    }
    for stray in &window.stray_frames {
        println!("stray frame: {stray}");
    }
    ev.stats_rtt_us = window
        .scrapes
        .iter()
        .map(|s| s.received.duration_since(s.sent).as_secs_f64() * 1e6)
        .collect();
    ev
}

impl Evaluation {
    /// ERR frames, unanswered requests and failed correctness checks.
    fn failed(&self) -> usize {
        self.errors + self.unanswered + self.violations
    }
}

fn end_to_end(args: &Args, setup: &Setup, ev: &Evaluation, peak_rss_kib: u64) -> Metrics {
    let mut m = Metrics::default();
    m.add("setup_s", setup.setup_s, "s");
    m.add("p50_ms", median(&ev.client_ms), "ms");
    m.add("p99_ms", quantile(&ev.client_ms, 0.99), "ms");
    m.add(
        "goodput_qps",
        ev.ok_in_deadline as f64 / args.seconds,
        "1/s",
    );
    m.add(
        "slo_attainment",
        ratio(ev.ok_in_deadline as f64, ev.attempted as f64),
        "ratio",
    );
    m.add("precision_at_k", mean(&ev.precision), "ratio");
    m.add("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB");
    m
}

/// The serving layers' metrics, read at the wire: `OK` frames and the
/// `STATS` scrapes bracketing the window.
fn serving_layers(
    setup: &Setup,
    ev: &Evaluation,
    window: &Window,
    m: &mut Metrics,
) -> Result<(), String> {
    m.add("server.latency_p50_ms", median(&ev.server_ms), "ms");
    m.add("server.latency_p99_ms", quantile(&ev.server_ms, 0.99), "ms");
    m.add("wire.overhead_p50_ms", median(&ev.wire_overhead_ms), "ms");
    let (Some(first), Some(last)) = (window.scrapes.first(), window.scrapes.last()) else {
        return Err("the daemon answered no STATS scrape".into());
    };
    let (first, last) = (&first.snapshot, &last.snapshot);
    let completed = last.completed.saturating_sub(first.completed) as f64;
    m.add(
        "scheduler.rung_degraded_share",
        ratio(
            last.precision_degraded
                .saturating_sub(first.precision_degraded) as f64,
            completed,
        ),
        "ratio",
    );
    m.add("queue.high_water", last.queue_high_water as f64, "count");
    m.add(
        "queue.shed",
        last.shed.saturating_sub(first.shed) as f64,
        "count",
    );
    m.add(
        "server.deadline_missed",
        last.deadline_missed.saturating_sub(first.deadline_missed) as f64,
        "count",
    );
    m.add(
        "server.unmeetable",
        last.rejected_unmeetable
            .saturating_sub(first.rejected_unmeetable) as f64,
        "count",
    );
    m.add(
        "server.reject_rate",
        ratio(ev.rejected as f64, ev.attempted as f64),
        "ratio",
    );
    m.add(
        "server.error_rate",
        ratio(ev.failed() as f64, ev.attempted as f64),
        "ratio",
    );
    m.add("telemetry.stats_us", median(&ev.stats_rtt_us), "us");
    for (kind, &count) in BACKENDS.iter().zip(&ev.routes) {
        m.add(
            format!("router.share.{kind}"),
            ratio(count as f64, ev.ok as f64),
            "ratio",
        );
    }
    m.add("serve.boot_s", setup.boot_s, "s");
    m.add("loadgen.late_p99_ms", quantile(&ev.late_ms, 0.99), "ms");
    Ok(())
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    let graph = regenerate_graph()?;
    let schedule = args.workload.schedule(&graph, args.seed, args.seconds);
    println!(
        "provenance workload={} seed={} stream_seed={:#018x} warmup_frames={} \
         window_frames={} digest={:#018x}",
        args.workload.name,
        args.seed,
        schedule.stream_seed,
        schedule.warmup.len(),
        schedule.window.len(),
        schedule.digest
    );
    let seeds: BTreeSet<_> = schedule.window.iter().map(|r| r.seed).collect();
    let oracle = gate::Oracle::build(&graph, &seeds)?;

    let (daemon, setup) = set_up(&args)?;
    let mut client = Client::new(daemon.connect()?)?;
    client.run_phase(&schedule.warmup, false)?;
    let window = client.run_phase(&schedule.window, true)?;
    client.close()?;
    let peak_rss_kib = daemon.peak_rss_kib()?;
    daemon.shutdown()?;

    let ev = evaluate(&schedule, &window, &oracle);
    println!(
        "requests attempted={} ok={} ok_in_deadline={} rejected={} \
         (queue-full={} deadline-unmeetable={} deadline-exceeded={}) errors={} \
         unanswered={} violations={}",
        ev.attempted,
        ev.ok,
        ev.ok_in_deadline,
        ev.rejected,
        ev.rejected_by[0],
        ev.rejected_by[1],
        ev.rejected_by[2],
        ev.errors,
        ev.unanswered,
        ev.violations
    );
    for kind in [Kind::Unbudgeted, Kind::Budgeted, Kind::BudgetedQ16] {
        let (sent, ok, in_deadline) = ev.by_kind[kind as usize];
        if sent > 0 {
            println!("  {kind:?}: sent={sent} ok={ok} ok_in_deadline={in_deadline}");
        }
    }
    println!(
        "p99_ms rests on {} OK responses, {} beyond p99{}",
        ev.ok,
        ev.ok / 100,
        if ev.ok < 1000 {
            " (fewer than the 10 a p99 needs)"
        } else {
            ""
        }
    );
    let late_p99 = quantile(&ev.late_ms, 0.99);
    println!(
        "generator lateness p50={:.3} ms p90={:.3} ms p99={late_p99:.3} ms max={:.3} ms",
        median(&ev.late_ms),
        quantile(&ev.late_ms, 0.9),
        quantile(&ev.late_ms, 1.0)
    );
    if late_p99 > LATE_P99_LIMIT_MS {
        return Err(format!(
            "invalid run: the generator sent frames {late_p99:.3} ms late at p99 \
             (limit {LATE_P99_LIMIT_MS} ms), so the offered load was not the scheduled one"
        ));
    }

    let e2e = end_to_end(&args, &setup, &ev, peak_rss_kib);
    e2e.print_table("end-to-end metrics (tracing off):");
    let mut layers = Metrics::default();
    serving_layers(&setup, &ev, &window, &mut layers)?;
    if args.trace {
        let spans_out = args
            .work_dir
            .join(format!("spans-{}-{}.tsv", args.workload.name, args.seed));
        trace::replay(
            &graph,
            args.workload,
            &schedule,
            setup
                .index
                .as_deref()
                .map(|path| (path, setup.index_build_s)),
            &spans_out,
            &mut layers,
        )?;
    }
    layers.print_table("per-layer metrics:");
    if let Some(index) = &setup.index {
        let _ = std::fs::remove_file(index);
    }
    let correct = ev.violations == 0;
    let metrics = if args.trace { &layers } else { &e2e };
    Ok(metrics.json(correct, ev.attempted, ev.failed()))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
