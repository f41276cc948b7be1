//! The three traffic mixes and their generated request schedules.
//!
//! A workload turns `(--seed, name)` into a fixed schedule of `QUERY`
//! frames with due times: a warm-up phase (excluded from timing) and a
//! measured window. Arrivals are an open loop — seeded Poisson arrivals
//! at a fixed offered rate, conditioned on the expected count so that
//! every run offers exactly the same number of requests — because
//! independent users do not wait on each other. The daemon only ever
//! sees the generated frames.

use meloppr::graph::{CsrGraph, NodeId};

use crate::rng::{fnv1a, Stream, Zipf, FNV_OFFSET};

/// The graph every workload serves: the pubmed stand-in at the paper's
/// Table II size (19 717 nodes, 44 327 edges).
pub const GRAPH_SPEC: &str = "corpus:G3";

/// The `max_memory` token every budgeted request carries: 1.25 MiB is
/// the window in which the router sends the request to the staged
/// (`meloppr`) backend. 1.5 MiB already routes to `local-ppr` and
/// 1.75 MiB to `exact-power`.
pub const STAGED_BUDGET_BYTES: usize = 1_310_720;

/// The daemon's default top-k, which every answer is checked at.
pub const K: usize = 10;

/// Seconds of warm-up traffic before the measured window: long enough
/// for the hot set's balls to reach the cache, whose filling otherwise
/// shows up as a burst of slow requests at the start of the window.
const WARMUP_S: f64 = 8.0;

/// Seeds in the Zipf popularity pool.
const HOT_POOL: usize = 256;

/// The seed of every workload's hot-set stream.
const HOT_POOL_SEED: u64 = 0x686f_745f_706f_6f6c;

/// One kind of request in a traffic mix (the discriminant indexes
/// per-kind tallies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No budget token: the router sends it to `exact-power`.
    Unbudgeted,
    /// `max_memory=1310720`: routed to the staged backend.
    Budgeted,
    /// `max_memory=1310720 precision=q16`: routed to `monte-carlo`.
    BudgetedQ16,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    /// Due time in seconds from the start of its phase.
    pub due_s: f64,
    pub seed: NodeId,
    pub deadline_ms: f64,
    pub kind: Kind,
    /// The exact wire payload sent to the daemon.
    pub frame: String,
}

/// How requests arrive over time.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Poisson at a constant rate.
    Steady { qps: f64 },
    /// On/off bursts: each `period_s` starts with `on_s` seconds at
    /// `on_qps`, then runs at `off_qps`.
    Burst {
        period_s: f64,
        on_s: f64,
        on_qps: f64,
        off_qps: f64,
    },
}

impl Arrivals {
    fn mean_qps(self) -> f64 {
        match self {
            Arrivals::Steady { qps } => qps,
            Arrivals::Burst {
                period_s,
                on_s,
                on_qps,
                off_qps,
            } => (on_s * on_qps + (period_s - on_s) * off_qps) / period_s,
        }
    }
}

/// Where request seeds come from.
#[derive(Debug, Clone, Copy)]
enum Seeds {
    /// Zipf(1.0) popularity over a pool of seeds drawn uniformly from the
    /// giant component.
    HotPool,
    /// Uniform over the giant component.
    Uniform,
}

/// A traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    seeds: Seeds,
    arrivals: Arrivals,
    /// `(kind, share, deadline_ms)`; shares sum to 1.
    mix: &'static [(Kind, f64, f64)],
    /// Whether the daemon serves with a persisted ball index (cold tier).
    pub ball_index: bool,
}

/// Every workload, by name. Each draws from its own stream, so the list
/// may grow without changing any existing workload's inputs.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "zipf-hot",
        seeds: Seeds::HotPool,
        arrivals: Arrivals::Steady { qps: 300.0 },
        mix: &[(Kind::Budgeted, 1.0, 100.0)],
        ball_index: false,
    },
    Workload {
        name: "uniform-cold",
        seeds: Seeds::Uniform,
        arrivals: Arrivals::Steady { qps: 200.0 },
        mix: &[(Kind::Budgeted, 1.0, 100.0)],
        ball_index: true,
    },
    Workload {
        name: "mixed-burst",
        seeds: Seeds::HotPool,
        arrivals: Arrivals::Burst {
            period_s: 1.0,
            on_s: 0.05,
            on_qps: 3000.0,
            off_qps: 300.0,
        },
        mix: &[
            (Kind::Unbudgeted, 0.4, 20.0),
            (Kind::Budgeted, 0.4, 100.0),
            (Kind::BudgetedQ16, 0.2, 20.0),
        ],
        ball_index: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Schedule {
    /// The first value of this workload's derived stream.
    pub stream_seed: u64,
    pub warmup: Vec<Req>,
    pub window: Vec<Req>,
    /// FNV-1a over every frame and due time, warm-up and window.
    pub digest: u64,
}

impl Workload {
    /// Generates the schedule for `seed` with a measured window of
    /// `window_s` seconds.
    pub fn schedule(&self, graph: &CsrGraph, seed: u64, window_s: f64) -> Schedule {
        let mut rng = Stream::derive(seed, self.name);
        let stream_seed = rng.state();
        let giant = giant_component(graph);
        // The hot set is part of the workload's definition, not of a run:
        // it comes from a stream of the workload's name alone, so runs
        // with different seeds measure the same popularity structure and
        // differ in which requests arrive when.
        let mut pool_rng = Stream::derive(HOT_POOL_SEED, self.name);
        let pool: Vec<NodeId> = (0..HOT_POOL)
            .map(|_| giant[pool_rng.below(giant.len())])
            .collect();
        let zipf = Zipf::new(HOT_POOL, 1.0);
        let mut next_id = 1u64;
        let mut phase = |rng: &mut Stream, arrivals: Arrivals, secs: f64| -> Vec<Req> {
            arrival_times(rng, arrivals, secs)
                .into_iter()
                .map(|due_s| {
                    let seed = match self.seeds {
                        Seeds::HotPool => pool[zipf.sample(rng)],
                        Seeds::Uniform => giant[rng.below(giant.len())],
                    };
                    let (kind, deadline_ms) = self.pick_kind(rng);
                    let id = next_id;
                    next_id += 1;
                    Req {
                        id,
                        due_s,
                        seed,
                        deadline_ms,
                        kind,
                        frame: frame(id, seed, deadline_ms, kind),
                    }
                })
                .collect()
        };
        // Warm-up runs at the mean rate even for bursty mixes: it exists
        // to fill caches and calibrate the router, not to overload.
        let warmup = phase(
            &mut rng,
            Arrivals::Steady {
                qps: self.arrivals.mean_qps(),
            },
            WARMUP_S,
        );
        let window = phase(&mut rng, self.arrivals, window_s);
        let mut digest = FNV_OFFSET;
        for req in warmup.iter().chain(&window) {
            digest = fnv1a(digest, &req.due_s.to_bits().to_le_bytes());
            digest = fnv1a(digest, req.frame.as_bytes());
        }
        Schedule {
            stream_seed,
            warmup,
            window,
            digest,
        }
    }

    fn pick_kind(&self, rng: &mut Stream) -> (Kind, f64) {
        let u = rng.unit();
        let mut acc = 0.0;
        for &(kind, share, deadline_ms) in self.mix {
            acc += share;
            if u < acc {
                return (kind, deadline_ms);
            }
        }
        let &(kind, _, deadline_ms) = self.mix.last().expect("a mix has at least one kind");
        (kind, deadline_ms)
    }
}

/// The wire payload of one request.
fn frame(id: u64, seed: NodeId, deadline_ms: f64, kind: Kind) -> String {
    let tail = match kind {
        Kind::Unbudgeted => String::new(),
        Kind::Budgeted => format!(" max_memory={STAGED_BUDGET_BYTES}"),
        Kind::BudgetedQ16 => format!(" max_memory={STAGED_BUDGET_BYTES} precision=q16"),
    };
    format!("QUERY id={id} seed={seed} deadline_ms={deadline_ms}{tail}")
}

/// Due times over `[0, secs)`. Each constant-rate stretch gets exactly
/// `round(rate × length)` arrivals at Poisson order statistics (normalized
/// exponential gaps), so the offered count never varies between runs
/// while the gaps stay exponential.
fn arrival_times(rng: &mut Stream, arrivals: Arrivals, secs: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut stretch = |rng: &mut Stream, start: f64, len: f64, qps: f64| {
        let n = (qps * len).round() as usize;
        let gaps: Vec<f64> = (0..=n).map(|_| rng.exp1()).collect();
        let total: f64 = gaps.iter().sum();
        let mut acc = 0.0;
        for gap in &gaps[..n] {
            acc += gap;
            out.push(start + len * acc / total);
        }
    };
    match arrivals {
        Arrivals::Steady { qps } => stretch(rng, 0.0, secs, qps),
        Arrivals::Burst {
            period_s,
            on_s,
            on_qps,
            off_qps,
        } => {
            let mut start = 0.0;
            while start + 1e-9 < secs {
                let on = on_s.min(secs - start);
                stretch(rng, start, on, on_qps);
                let off = (period_s - on_s).min(secs - start - on);
                if off > 0.0 {
                    stretch(rng, start + on, off, off_qps);
                }
                start += period_s;
            }
        }
    }
    out
}

/// The nodes of the largest connected component, ascending.
fn giant_component(graph: &CsrGraph) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut best: (usize, u32) = (0, 0);
    let mut stack = Vec::new();
    for root in 0..n {
        if label[root] != u32::MAX {
            continue;
        }
        let comp = root as u32;
        label[root] = comp;
        stack.push(root as NodeId);
        let mut size = 0usize;
        while let Some(u) = stack.pop() {
            size += 1;
            for &v in graph.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = comp;
                    stack.push(v);
                }
            }
        }
        if size > best.0 {
            best = (size, comp);
        }
    }
    (0..n as NodeId)
        .filter(|&v| label[v as usize] == best.1)
        .collect()
}
