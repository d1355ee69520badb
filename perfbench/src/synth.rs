//! The two 8x8 simulator workloads.
//!
//! `ur8-knee` runs uniform-random Bernoulli traffic through
//! `runner::run_synth` below, at and past the saturation knee, where router
//! compute dominates and SEEC/DRAIN/SPIN collapse. `burst8-idle` builds
//! `Sim`s by hand over a `BurstWorkload` that is silent on most cycles, so
//! per-cycle fixed costs dominate instead. Both run at the program's
//! defaults (no idle-skip or batching calls).

use crate::timed::{LayerClock, SpanLog, TimedMechanism, TimedWorkload, WorkloadClocks};
use noc_experiments::runner::{run_synth, Scheme, SynthSpec};
use noc_sim::{Sim, Stats, Workload};
use noc_traffic::{BurstWorkload, SyntheticWorkload, TrafficPattern};
use noc_types::{NetConfig, SchemeKind};
use rayon::prelude::*;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Mesh radix and VCs per virtual network of both workloads.
pub const K: u8 = 8;
pub const VCS: u8 = 2;
/// Routers in the mesh.
pub const NODES: u64 = K as u64 * K as u64;

/// Offered loads of `ur8-knee`: below, at and past the knee.
pub const KNEE_RATES: [f64; 3] = [0.05, 0.08, 0.12];
/// The past-the-knee load whose accepted throughput is reported.
pub const PAST_KNEE: f64 = 0.12;
/// Cycles per `ur8-knee` point (1000 of them warm-up).
pub const KNEE_CYCLES: u64 = 4_000;

/// `burst8-idle`: a 32-cycle burst every 4096 cycles, at this in-burst
/// rate, for this many cycles per point.
pub const BURST_PERIOD: u64 = 4096;
pub const BURST_LEN: u64 = 32;
pub const BURST_RATE: f64 = 0.25;
pub const BURST_CYCLES: u64 = 8 * BURST_PERIOD;

/// Which workload a point belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Knee,
    Burst,
}

/// One design point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub kind: Kind,
    pub scheme: Scheme,
    pub rate: f64,
    pub cycles: u64,
    pub seed: u64,
}

impl Point {
    pub fn label(&self) -> String {
        format!("{}@{:.2}", self.scheme.label(), self.rate)
    }

    /// The network configuration, exactly as `run_synth` builds it.
    pub fn config(&self) -> NetConfig {
        self.scheme
            .configure(NetConfig::synth(K, VCS))
            .with_seed(self.seed)
    }

    fn workload(&self, cfg: &NetConfig) -> Box<dyn Workload> {
        let pattern = TrafficPattern::UniformRandom;
        match self.kind {
            Kind::Knee => Box::new(SyntheticWorkload::new(
                pattern, self.rate, cfg.cols, cfg.rows, cfg.warmup, self.seed,
            )),
            Kind::Burst => Box::new(BurstWorkload::new(
                pattern,
                self.rate,
                BURST_PERIOD,
                BURST_LEN,
                cfg.cols,
                cfg.rows,
                cfg.warmup,
                self.seed,
            )),
        }
    }

    /// Whether `run_synth` certifies this scheme's routing before running.
    pub fn gated(&self) -> bool {
        matches!(
            self.scheme.kind(),
            SchemeKind::None | SchemeKind::EscapeVc | SchemeKind::Tfc
        )
    }
}

/// `ur8-knee`'s points: six schemes at three loads.
pub fn knee_points(seed: u64) -> Vec<Point> {
    let schemes = [
        Scheme::Xy,
        Scheme::escape(),
        Scheme::Spin,
        Scheme::Drain,
        Scheme::seec(),
        Scheme::mseec(),
    ];
    let mut pts = Vec::new();
    for scheme in schemes {
        for rate in KNEE_RATES {
            pts.push(Point {
                kind: Kind::Knee,
                scheme,
                rate,
                cycles: KNEE_CYCLES,
                seed,
            });
        }
    }
    pts
}

/// `burst8-idle`'s points: five schemes at one bursty load.
pub fn burst_points(seed: u64) -> Vec<Point> {
    [
        Scheme::Xy,
        Scheme::WestFirst,
        Scheme::escape(),
        Scheme::seec(),
        Scheme::mseec(),
    ]
    .into_iter()
    .map(|scheme| Point {
        kind: Kind::Burst,
        scheme,
        rate: BURST_RATE,
        cycles: BURST_CYCLES,
        seed,
    })
    .collect()
}

/// The simulated outcome of a point.
#[derive(Clone, Debug)]
pub struct PointResult {
    pub stats: Stats,
    /// `Network::state_digest` at the end, where the point's `Sim` is
    /// visible (everything but untraced `ur8-knee`, which runs inside
    /// `run_synth`).
    pub state: Option<u64>,
}

impl PointResult {
    /// Digest of the statistics (every field, via `Debug`).
    pub fn stats_digest(&self) -> u64 {
        noc_store::fnv1a(format!("{:?}", self.stats).as_bytes())
    }

    /// `label:stats-digest:state-digest`, the point's line in the
    /// workload digest.
    pub fn fingerprint(&self, p: &Point) -> String {
        format!(
            "{}:{:016x}:{}",
            p.label(),
            self.stats_digest(),
            self.state
                .map_or_else(|| "-".to_string(), |d| format!("{d:016x}"))
        )
    }
}

/// Builds a point's `Sim` from the parts `run_synth` uses; with `timed`,
/// the mechanism and workload are wrapped in timing decorators.
pub fn build(p: &Point, timed: bool) -> (Sim, Option<Probes>) {
    let cfg = p.config();
    let wl = p.workload(&cfg);
    let mech = p.scheme.mechanism(&cfg);
    if timed {
        let (wl, workload) = TimedWorkload::wrap(wl);
        let (mech, hooks) = TimedMechanism::wrap(mech);
        (Sim::new(cfg, wl, mech), Some(Probes { hooks, workload }))
    } else {
        (Sim::new(cfg, wl, mech), None)
    }
}

/// Clocks inside a timed `Sim`.
pub struct Probes {
    pub hooks: Rc<LayerClock>,
    pub workload: Rc<WorkloadClocks>,
}

/// Runs a `Sim` built by [`build`] to the end of the point.
pub fn finish(mut sim: Sim, p: &Point) -> PointResult {
    sim.run(p.cycles);
    PointResult {
        stats: sim.finish().clone(),
        state: Some(sim.net.state_digest()),
    }
}

/// Runs a point untraced: `ur8-knee` through `run_synth`, `burst8-idle`
/// through `Sim::new` + `Sim::run`.
pub fn run_plain(p: &Point) -> PointResult {
    match p.kind {
        Kind::Knee => {
            let mut spec = SynthSpec::new(K, VCS, p.scheme, TrafficPattern::UniformRandom, p.rate)
                .with_cycles(p.cycles);
            spec.seed = p.seed;
            PointResult {
                stats: run_synth(spec),
                state: None,
            }
        }
        Kind::Burst => finish(build(p, false).0, p),
    }
}

/// Per-layer time of one traced point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub cycles: u64,
    pub run_ns: u64,
    pub hook_ns: u64,
    pub generate_ns: u64,
    pub deliver_ns: u64,
    /// `noc_verify::certify` time, for gated schemes.
    pub certify_ns: Option<u64>,
    pub skipped_cycles: u64,
}

impl Layers {
    /// Time in `Sim::run` outside the wrapped hooks and workload calls.
    pub fn self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.hook_ns + self.generate_ns + self.deliver_ns)
    }
}

/// Runs a point with every layer timed: the certification gate (for gated
/// schemes, as `run_synth` would), then `Sim::run` over a timed mechanism
/// and workload. Records a root span for the point and one aggregated
/// child span per layer.
pub fn run_traced(p: &Point, spans: &SpanLog) -> (PointResult, Layers) {
    let trace = format!("{:?}:{}", p.kind, p.label());
    let start = Instant::now();
    let mut layers = Layers {
        cycles: p.cycles,
        ..Layers::default()
    };
    if p.gated() {
        let t = Instant::now();
        let report = noc_verify::certify(&p.config());
        let ns = t.elapsed().as_nanos() as u64;
        assert!(report.certified(), "{} not certified", p.label());
        layers.certify_ns = Some(ns);
        spans.child(&trace, "point", "noc-verify.certify", t, ns, 1);
    }
    let (mut sim, probes) = build(p, true);
    let probes = probes.expect("timed build has probes");
    let t = Instant::now();
    sim.run(p.cycles);
    layers.run_ns = t.elapsed().as_nanos() as u64;
    layers.skipped_cycles = sim.skipped_cycles;
    layers.hook_ns = probes.hooks.ns();
    layers.generate_ns = probes.workload.generate.ns();
    layers.deliver_ns = probes.workload.deliver.ns();
    let outcome = PointResult {
        stats: sim.finish().clone(),
        state: Some(sim.net.state_digest()),
    };
    spans.child(&trace, "point", "noc-sim.run.self", t, layers.self_ns(), 1);
    spans.child(
        &trace,
        "point",
        "mechanism.pre_post_cycle",
        t,
        layers.hook_ns,
        probes.hooks.calls(),
    );
    spans.child(
        &trace,
        "point",
        "noc-traffic.generate",
        t,
        layers.generate_ns,
        probes.workload.generate.calls(),
    );
    spans.child(
        &trace,
        "point",
        "noc-traffic.deliver",
        t,
        layers.deliver_ns,
        probes.workload.deliver.calls(),
    );
    spans.root(&trace, "point", start, start.elapsed());
    (outcome, layers)
}

/// One executed point: its outcome (or panic message) and wall time.
pub struct Done<T> {
    pub result: Result<T, String>,
    pub wall: Duration,
}

/// What an untraced run keeps of a point: small, so that many runs can be
/// kept without the benchmark's own memory showing in the peak RSS.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub fingerprint: String,
    pub flit_hops: u64,
    /// Accepted packets/node/cycle.
    pub accepted: f64,
}

/// One execution of `points[point]` by [`run_until`].
pub struct Run {
    pub point: usize,
    pub done: Done<Summary>,
}

/// Runs whole passes over `points`, untraced, on the shared pool until
/// `deadline`: the first pass always runs, and a later pass runs in full
/// if its first point to be claimed starts before the deadline, else not
/// at all — so every run covers each point equally often, whatever the
/// points cost. There is no barrier between passes: both threads stay
/// busy to the end.
pub fn run_until(points: &[Point], deadline: Instant, passes: usize) -> Vec<Run> {
    const UNDECIDED: u8 = 0;
    const OPEN: u8 = 1;
    const CLOSED: u8 = 2;
    let passes = passes.max(1);
    let state: Vec<AtomicU8> = (0..passes).map(|_| AtomicU8::new(UNDECIDED)).collect();
    let tasks: Vec<(usize, usize)> = (0..passes)
        .flat_map(|pass| (0..points.len()).map(move |i| (pass, i)))
        .collect();
    let runs: Vec<Option<Run>> = tasks
        .par_iter()
        .map(|&(pass, i)| {
            let open = if pass == 0 || Instant::now() < deadline {
                OPEN
            } else {
                CLOSED
            };
            // The first task of a pass to get here decides for all of it.
            let decided = match state[pass].compare_exchange(
                UNDECIDED,
                open,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => open,
                Err(current) => current,
            };
            if decided == CLOSED {
                return None;
            }
            let p = &points[i];
            let done = timed_point(|| {
                let out = run_plain(p);
                Summary {
                    fingerprint: out.fingerprint(p),
                    flit_hops: out.stats.link_flit_hops,
                    accepted: out.stats.throughput(NODES as usize),
                }
            });
            Some(Run { point: i, done })
        })
        .collect();
    runs.into_iter().flatten().collect()
}

/// Runs `f` over `points` on the shared pool, isolating panics, in point
/// order.
pub fn run_all<T: Send>(points: &[Point], f: impl Fn(&Point) -> T + Send + Sync) -> Vec<Done<T>> {
    points.par_iter().map(|p| timed_point(|| f(p))).collect()
}

fn timed_point<T>(f: impl FnOnce() -> T) -> Done<T> {
    let t = Instant::now();
    let result = rayon::catch_panic(f);
    Done {
        result,
        wall: t.elapsed(),
    }
}

/// Set-up of a sweep: certify the gated configurations and allocate every
/// point's network, as the runs will.
pub fn setup(points: &[Point]) -> Result<(), String> {
    for p in points {
        if p.gated() && !noc_verify::certify(&p.config()).certified() {
            return Err(format!("{} is not certified deadlock-free", p.label()));
        }
        std::hint::black_box(build(p, false));
    }
    Ok(())
}
