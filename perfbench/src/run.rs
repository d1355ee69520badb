//! The workloads as the command runs them: untraced (end-to-end metrics)
//! and traced (per-layer metrics).

use crate::report::{median, tail, Outcome};
use crate::serve::{self, Call, CallerLog, Server};
use crate::synth::{self, Kind, Layers, Point, NODES, PAST_KNEE};
use crate::timed::{SpanLog, TimedVfs};
use crate::{figs, report};
use noc_store::Vfs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, in the order a traced run covers them.
pub const WORKLOADS: [&str; 4] = ["figs-quick", "ur8-knee", "burst8-idle", "serve-jobs"];

/// End-to-end metrics every untraced run reports. What an operation and
/// its work are depends on the workload; see `perfbench/README.md`.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "cpu_ms_per_op", "work_per_cpu_s"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Pool threads the program may use.
pub const THREADS: usize = 2;
/// Jobs per caller in each phase of a traced `serve-jobs` run.
pub const TRACE_JOBS: u64 = 50;
/// Jobs per caller whose rows enter the `serve-jobs` digest.
pub const DIGEST_JOBS: usize = 4;

const KNEE_SCHEMES: [&str; 6] = ["XY", "EscVC", "SPIN", "DRAIN", "SEEC", "mSEEC"];
const BURST_SCHEMES: [&str; 5] = ["XY", "WF", "EscVC", "SEEC", "mSEEC"];
const HTTP_CALLS: [(Call, &str); 3] = [
    (Call::Submit, "submit"),
    (Call::Status, "status"),
    (Call::Rows, "rows"),
];

/// Every per-layer metric a traced run reports, in report order.
pub fn per_layer_names() -> Vec<String> {
    let mut v = Vec::new();
    for a in &figs::ARTIFACTS {
        v.push(format!("figs-quick.noc-experiments.fig_s.{}", a.name));
    }
    v.push("figs-quick.noc-experiments.pool_busy_ratio".into());
    for (wl, schemes) in [
        ("ur8-knee", &KNEE_SCHEMES[..]),
        ("burst8-idle", &BURST_SCHEMES[..]),
    ] {
        for s in schemes {
            v.push(format!("{wl}.noc-sim.self_ns_per_node_cycle.{s}"));
            v.push(format!("{wl}.noc-sim.skipped_cycle_ratio.{s}"));
            v.push(format!("{wl}.noc-traffic.generate_ns_per_cycle.{s}"));
            if let Some(layer) = hook_layer(s) {
                v.push(format!("{wl}.{layer}.hook_ns_per_cycle.{s}"));
            }
        }
    }
    for s in ["SEEC", "mSEEC"] {
        v.push(format!("ur8-knee.seec.ff_fraction.{s}"));
        v.push(format!("ur8-knee.seec.sideband_hops_per_cycle.{s}"));
    }
    v.push("ur8-knee.noc-verify.certify_ms".into());
    v.push("ur8-knee.noc-experiments.pool_busy_ratio".into());
    v.push("ur8-knee.noc-experiments.point_s_p50".into());
    v.push("ur8-knee.noc-experiments.point_s_max".into());
    for (_, call) in HTTP_CALLS {
        v.push(format!("serve-jobs.noc-serve.http_ms.{call}.p50"));
        v.push(format!("serve-jobs.noc-serve.http_ms.{call}.tail"));
    }
    v.push("serve-jobs.noc-serve.queue_wait_ms".into());
    v.push("serve-jobs.noc-serve.run_ms".into());
    v.push("serve-jobs.noc-serve.polls_per_job".into());
    for h in serve::HEALTH {
        v.push(format!("serve-jobs.noc-serve.healthz.{h}"));
    }
    for op in ["write_atomic", "append"] {
        v.push(format!("serve-jobs.noc-store.{op}_ms.p50"));
        v.push(format!("serve-jobs.noc-store.{op}_ms.tail"));
        v.push(format!("serve-jobs.noc-store.{op}_count"));
    }
    for wl in WORKLOADS {
        v.push(format!("{wl}.trace.overhead_s"));
    }
    v
}

/// The crate whose hooks a scheme's mechanism lives in; `None` for schemes
/// whose mechanism is not measured per hook.
fn hook_layer(scheme: &str) -> Option<&'static str> {
    match scheme {
        "SEEC" | "mSEEC" => Some("seec"),
        "SPIN" | "DRAIN" => Some("noc-baselines"),
        _ => None,
    }
}

/// Where a run keeps its scratch files: `.perfbench_out` under the
/// working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// Prints one named figure of a workload with its unit.
fn figure(wl: &str, name: &str, value: f64, unit: &str) {
    println!("[{wl}] {name} = {value} {unit}");
}

/// Prints a tail with the percentile it is and its sample count; `None`
/// when there are too few samples for one.
fn tail_figure(wl: &str, name: &str, samples_ms: &[f64]) -> Option<f64> {
    let t = tail(samples_ms)?;
    println!(
        "[{wl}] {name} = {} ms (p{:.1} of {} samples)",
        t.value, t.pct, t.samples
    );
    Some(t.value)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median, in seconds, of the set-up times `f` measures over `reps`
/// set-ups; the first error ends the set-up.
fn setup_median(
    reps: usize,
    mut f: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..reps {
        times.push(f()?.as_secs_f64());
    }
    Ok(median(&times).unwrap_or(0.0))
}

/// How long `f` takes.
fn timed(f: impl FnOnce() -> Result<(), String>) -> Result<Duration, String> {
    let t = Instant::now();
    f()?;
    Ok(t.elapsed())
}

/// Process CPU time (all threads) in seconds, from `/proc/self/stat`
/// (`utime + stime`, in clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Process CPU seconds spent since `start` (a [`cpu_seconds`] reading).
fn cpu_since(start: Option<f64>) -> Option<f64> {
    Some(cpu_seconds()? - start?)
}

/// The gated throughput metrics of an untraced run: CPU milliseconds per
/// operation, and work per CPU second, from `cpu_s` CPU seconds spent on
/// `ops` operations that did `work`. CPU time leaves out the time the
/// program waited for a processor, behind other processes or stolen by the
/// hypervisor, which on a shared host is much of the run-to-run spread of
/// wall time; the wall-clock figures are printed beside them.
fn cpu_metrics(o: &mut Outcome, cpu_s: Option<f64>, ops: usize, work: f64) {
    match cpu_s {
        Some(c) if c > 0.0 && ops > 0 => {
            o.metric("cpu_ms_per_op", "ms", c * 1e3 / ops as f64);
            o.metric("work_per_cpu_s", "1/s", work / c);
        }
        _ => o.check(false, || {
            format!("no CPU time measured over {ops} operations")
        }),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// figs-quick
// ---------------------------------------------------------------------------

/// One regeneration: its text, table rows and per-artifact wall times, or
/// the first artifact that panicked.
struct Regen {
    text: String,
    rows: usize,
    times: Vec<(&'static str, Instant, Duration)>,
    wall: Duration,
}

fn regenerate() -> Result<Regen, String> {
    let start = Instant::now();
    let mut text = String::new();
    let mut rows = 0;
    let mut times = Vec::new();
    for a in &figs::ARTIFACTS {
        let t = Instant::now();
        let tables = rayon::catch_panic(a.run).map_err(|e| format!("{}: {e}", a.name))?;
        times.push((a.name, t, t.elapsed()));
        text.push_str(&figs::render(&tables));
        rows += figs::rows(&tables);
    }
    Ok(Regen {
        text,
        rows,
        times,
        wall: start.elapsed(),
    })
}

/// Warm-up of `figs-quick`: the cheapest artifact that simulates, so the
/// simulator's code, the pool and the allocator are warm before timing.
fn figs_setup() -> Result<(), String> {
    rayon::catch_panic(|| std::hint::black_box(noc_experiments::figs::ablation::run(true)))
        .map(drop)
        .map_err(|e| format!("ablation warm-up: {e}"))
}

pub fn figs_untraced(seconds: u64) -> Outcome {
    let wl = "figs-quick";
    let mut o = Outcome::default();
    match setup_median(SETUP_REPS, || timed(figs_setup)) {
        Ok(s) => o.metric("setup_s", "s", s),
        Err(e) => o.check(false, || e),
    }
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut rows = 0;
    let mut first: Option<String> = None;
    loop {
        match regenerate() {
            Ok(r) => {
                o.check(true, String::new);
                walls.push(r.wall.as_secs_f64());
                rows += r.rows;
                match &first {
                    None => first = Some(r.text),
                    Some(f) => o.check(*f == r.text, || {
                        "figure text differs between regenerations".into()
                    }),
                }
            }
            Err(e) => o.check(false, || e),
        }
        if t0.elapsed().as_secs() >= seconds {
            break;
        }
    }
    let cpu = cpu_since(cpu0);
    let wall = t0.elapsed().as_secs_f64();
    let figs_s = median(&walls).unwrap_or(0.0);
    cpu_metrics(&mut o, cpu, walls.len(), rows as f64);
    figure(wl, "figs_s", figs_s, "s");
    figure(wl, "regenerations", walls.len() as f64, "count");
    figure(wl, "table_rows_per_s", rows as f64 / wall, "1/s");
    if let Some(text) = &first {
        println!("[{wl}] digest = {:016x}", noc_store::fnv1a(text.as_bytes()));
    }
    o
}

pub fn figs_traced(spans: &SpanLog) -> Outcome {
    let wl = "figs-quick";
    let mut o = Outcome::default();
    // Warm up as the untraced run's set-up does, so that neither
    // regeneration below pays the first one's cold start.
    if let Err(e) = figs_setup() {
        o.check(false, || e);
    }
    let untraced = regenerate();
    let cpu0 = cpu_seconds();
    let traced = regenerate();
    let cpu1 = cpu_seconds();
    let (u, t) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (Err(e), _) | (_, Err(e)) => {
            o.check(false, || e);
            return o;
        }
    };
    o.check(u.text == t.text, || {
        "traced figure text differs from untraced".into()
    });
    for (name, start, dur) in &t.times {
        o.metric(
            format!("{wl}.noc-experiments.fig_s.{name}"),
            "s",
            dur.as_secs_f64(),
        );
        spans.root(&format!("fig:{name}"), "artifact", *start, *dur);
    }
    if let (Some(c0), Some(c1)) = (cpu0, cpu1) {
        o.metric(
            format!("{wl}.noc-experiments.pool_busy_ratio"),
            "ratio",
            (c1 - c0) / (t.wall.as_secs_f64() * THREADS as f64),
        );
    }
    o.metric(
        format!("{wl}.trace.overhead_s"),
        "s",
        t.wall.as_secs_f64() - u.wall.as_secs_f64(),
    );
    o
}

// ---------------------------------------------------------------------------
// ur8-knee and burst8-idle
// ---------------------------------------------------------------------------

fn points_for(kind: Kind, seed: u64) -> Vec<Point> {
    match kind {
        Kind::Knee => synth::knee_points(seed),
        Kind::Burst => synth::burst_points(seed),
    }
}

fn sim_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Knee => "ur8-knee",
        Kind::Burst => "burst8-idle",
    }
}

/// Upper bound on passes over a sweep's points per second of run time;
/// a pass takes far longer than 1/20 s.
const PASSES_PER_SECOND: usize = 20;

pub fn sweep_untraced(kind: Kind, seed: u64, seconds: u64) -> Outcome {
    let wl = sim_name(kind);
    let points = points_for(kind, seed);
    let mut o = Outcome::default();
    match setup_median(SETUP_REPS, || timed(|| synth::setup(&points))) {
        Ok(s) => o.metric("setup_s", "s", s),
        Err(e) => o.check(false, || e),
    }
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let passes = 1 + seconds as usize * PASSES_PER_SECOND;
    let runs = synth::run_until(&points, t0 + Duration::from_secs(seconds), passes);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_since(cpu0);
    let mut walls = Vec::new();
    let (mut hops, mut node_cycles) = (0u64, 0u64);
    // The first result of each point; every later run must repeat it.
    let mut first: Vec<Option<synth::Summary>> = vec![None; points.len()];
    for run in runs {
        let p = &points[run.point];
        match run.done.result {
            Ok(sum) => {
                walls.push(ms(run.done.wall));
                hops += sum.flit_hops;
                node_cycles += p.cycles * NODES;
                match &first[run.point] {
                    None => {
                        o.check(true, String::new);
                        first[run.point] = Some(sum);
                    }
                    Some(f) => o.check(*f == sum, || {
                        format!("{}: results differ between runs", p.label())
                    }),
                }
            }
            Err(e) => o.check(false, || format!("{}: {e}", p.label())),
        }
    }
    cpu_metrics(&mut o, cpu, walls.len(), hops as f64);
    figure(wl, "points_per_s", walls.len() as f64 / wall, "1/s");
    figure(wl, "flit_hops_per_s", hops as f64 / wall, "1/s");
    figure(wl, "node_cycles_per_s", node_cycles as f64 / wall, "1/s");
    figure(wl, "point_p50_ms", median(&walls).unwrap_or(0.0), "ms");
    tail_figure(wl, "point_tail_ms", &walls);
    if kind == Kind::Knee {
        for (scheme, name) in [
            ("SEEC", "seec_accepted_0.12"),
            ("mSEEC", "mseec_accepted_0.12"),
        ] {
            let found = points
                .iter()
                .zip(&first)
                .find(|(p, _)| p.scheme.label() == scheme && p.rate == PAST_KNEE);
            if let Some((_, Some(sum))) = found {
                figure(wl, name, sum.accepted, "pkt/node/cycle");
            }
        }
    }
    let prints: Vec<&str> = first
        .iter()
        .map(|f| f.as_ref().map_or("panicked", |s| s.fingerprint.as_str()))
        .collect();
    println!(
        "[{wl}] digest = {:016x}",
        noc_store::fnv1a(prints.join("\n").as_bytes())
    );
    o
}

/// Per-layer sums over one scheme's traced points.
#[derive(Default)]
struct SchemeSum {
    cycles: u64,
    self_ns: u64,
    hook_ns: u64,
    generate_ns: u64,
    skipped: u64,
}

pub fn sweep_traced(kind: Kind, seed: u64, spans: &SpanLog) -> Outcome {
    let wl = sim_name(kind);
    let points = points_for(kind, seed);
    let mut o = Outcome::default();
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let plain = synth::run_all(&points, synth::run_plain);
    let untraced_wall = t.elapsed();
    let cpu1 = cpu_seconds();
    let t = Instant::now();
    let traced = synth::run_all(&points, |p| synth::run_traced(p, spans));
    let traced_wall = t.elapsed();

    let mut sums: BTreeMap<String, SchemeSum> = BTreeMap::new();
    let mut certify_ms = Vec::new();
    let mut by_label: BTreeMap<String, synth::PointResult> = BTreeMap::new();
    for (p, (u, tr)) in points.iter().zip(plain.iter().zip(traced)) {
        let (u, (tr, layers)) = match (&u.result, tr.result) {
            (Ok(u), Ok(tr)) => (u, tr),
            (Err(e), _) => {
                o.check(false, || format!("{}: {e}", p.label()));
                continue;
            }
            (_, Err(e)) => {
                o.check(false, || format!("{} traced: {e}", p.label()));
                continue;
            }
        };
        // ur8-knee's untraced points run inside run_synth, which keeps
        // the network to itself: only their statistics compare.
        let same =
            u.stats_digest() == tr.stats_digest() && (u.state.is_none() || u.state == tr.state);
        o.check(same, || {
            format!("{}: traced results differ from untraced", p.label())
        });
        let Layers {
            cycles,
            hook_ns,
            generate_ns,
            certify_ns,
            skipped_cycles,
            ..
        } = layers;
        let s = sums.entry(p.scheme.label()).or_default();
        s.cycles += cycles;
        s.self_ns += layers.self_ns();
        s.hook_ns += hook_ns;
        s.generate_ns += generate_ns;
        s.skipped += skipped_cycles;
        if let Some(ns) = certify_ns {
            certify_ms.push(ns as f64 / 1e6);
        }
        if p.rate == PAST_KNEE {
            by_label.insert(p.scheme.label(), tr);
        }
    }
    let schemes: &[&str] = match kind {
        Kind::Knee => &KNEE_SCHEMES,
        Kind::Burst => &BURST_SCHEMES,
    };
    for &scheme in schemes {
        let Some(s) = sums.get(scheme) else {
            continue;
        };
        let cycles = s.cycles.max(1) as f64;
        o.metric(
            format!("{wl}.noc-sim.self_ns_per_node_cycle.{scheme}"),
            "ns",
            s.self_ns as f64 / (cycles * NODES as f64),
        );
        o.metric(
            format!("{wl}.noc-sim.skipped_cycle_ratio.{scheme}"),
            "ratio",
            s.skipped as f64 / cycles,
        );
        o.metric(
            format!("{wl}.noc-traffic.generate_ns_per_cycle.{scheme}"),
            "ns",
            s.generate_ns as f64 / cycles,
        );
        if let Some(layer) = hook_layer(scheme) {
            o.metric(
                format!("{wl}.{layer}.hook_ns_per_cycle.{scheme}"),
                "ns",
                s.hook_ns as f64 / cycles,
            );
        }
    }
    if kind == Kind::Knee {
        for scheme in ["SEEC", "mSEEC"] {
            if let Some(out) = by_label.get(scheme) {
                let cycles = out.stats.end_cycle.max(1) as f64;
                o.metric(
                    format!("{wl}.seec.ff_fraction.{scheme}"),
                    "ratio",
                    out.stats.ff_fraction(),
                );
                o.metric(
                    format!("{wl}.seec.sideband_hops_per_cycle.{scheme}"),
                    "1/cycle",
                    out.stats.sideband_hops as f64 / cycles,
                );
            }
        }
        if let Some(c) = median(&certify_ms) {
            o.metric(format!("{wl}.noc-verify.certify_ms"), "ms", c);
        }
        if let (Some(c0), Some(c1)) = (cpu0, cpu1) {
            o.metric(
                format!("{wl}.noc-experiments.pool_busy_ratio"),
                "ratio",
                (c1 - c0) / (untraced_wall.as_secs_f64() * THREADS as f64),
            );
        }
        let point_s: Vec<f64> = plain.iter().map(|d| d.wall.as_secs_f64()).collect();
        if let Some(p50) = median(&point_s) {
            o.metric(format!("{wl}.noc-experiments.point_s_p50"), "s", p50);
        }
        let max = point_s.iter().copied().fold(0.0, f64::max);
        o.metric(format!("{wl}.noc-experiments.point_s_max"), "s", max);
    }
    o.metric(
        format!("{wl}.trace.overhead_s"),
        "s",
        traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
    );
    o
}

// ---------------------------------------------------------------------------
// serve-jobs
// ---------------------------------------------------------------------------

/// A fresh, empty data directory for one service.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = out_dir().join(format!("serve-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(tag: &str, vfs: Option<Arc<dyn Vfs>>) -> Result<Server, String> {
    Server::boot(&fresh_dir(tag), vfs).map_err(|e| format!("boot service: {e}"))
}

/// Checks once that the service returns for the reference job exactly
/// the rows set-up computed in-process through `run_sweep`. Returns the
/// rows' digest.
fn reference_check(
    server: &Server,
    job: &serve::Job,
    want: &[String],
    o: &mut Outcome,
) -> Option<u64> {
    let got = serve::one_job(&server.client(), job);
    let ok = matches!(&got, Ok(rec) if rec.digest == serve::rows_digest(want));
    o.check(ok, || {
        format!(
            "reference job: service rows differ from run_sweep ({:?})",
            got.as_ref().err()
        )
    });
    got.ok().map(|r| r.digest)
}

fn calls_ms(logs: &[CallerLog], which: Option<Call>) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.done)
        .flat_map(|r| &r.calls)
        .filter(|c| which.is_none_or(|w| c.0 == w))
        .map(|c| ms(c.2))
        .collect()
}

fn count_jobs(logs: &[CallerLog], o: &mut Outcome) {
    for log in logs {
        for _ in &log.done {
            o.check(true, String::new);
        }
        for f in &log.failures {
            o.check(false, || f.clone());
        }
    }
}

fn health_delta(
    before: Result<[u64; 4], String>,
    after: Result<[u64; 4], String>,
    o: &mut Outcome,
) -> Option<[u64; 4]> {
    match (before, after) {
        (Ok(b), Ok(a)) => Some(std::array::from_fn(|i| a[i].saturating_sub(b[i]))),
        (Err(e), _) | (_, Err(e)) => {
            o.check(false, || e);
            None
        }
    }
}

pub fn serve_untraced(seed: u64, seconds: u64) -> Outcome {
    let wl = "serve-jobs";
    let mut o = Outcome::default();
    // Set-up: open the service over a fresh directory and bind its
    // listener (connections queue from then on), and compute the reference
    // job's rows in-process through `run_sweep`, which the service's rows
    // for that job must equal. Every repetition must compute the same rows.
    let job = serve::reference_job(seed);
    let mut want: Option<Vec<String>> = None;
    let setup = setup_median(SETUP_REPS, || {
        let t = Instant::now();
        let server = boot("setup", None)?;
        let dir = fresh_dir("reference");
        let rows = serve::reference_rows(&job, &dir);
        let took = t.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        server.stop();
        let rows = rows?;
        match &want {
            None => want = Some(rows),
            Some(w) if *w != rows => return Err("reference rows differ between set-ups".into()),
            Some(_) => {}
        }
        Ok(took)
    });
    match setup {
        Ok(s) => o.metric("setup_s", "s", s),
        Err(e) => o.check(false, || e),
    }
    let server = match boot("measure", None) {
        Ok(s) => s,
        Err(e) => {
            o.check(false, || e);
            return o;
        }
    };
    let reference = reference_check(&server, &job, want.as_deref().unwrap_or_default(), &mut o);
    let client = server.client();
    let before = serve::health(&client);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let logs = serve::drive(&server, seed, t0 + Duration::from_secs(seconds), None);
    let cpu = cpu_since(cpu0);
    let wall = logs
        .iter()
        .filter_map(|l| l.end)
        .max()
        .map_or(0.0, |e| (e - t0).as_secs_f64());
    let after = serve::health(&client);
    server.stop();
    count_jobs(&logs, &mut o);
    if let Some(d) = health_delta(before, after, &mut o) {
        o.check(d[3] == 0, || {
            format!("{} submissions answered by dedupe", d[3])
        });
    }

    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.done)
        .map(|r| ms(r.latency))
        .collect();
    let jobs = latencies.len() as f64;
    let node_cycles: u64 = logs
        .iter()
        .flat_map(|l| &l.done)
        .map(|r| r.node_cycles)
        .sum();
    cpu_metrics(&mut o, cpu, latencies.len(), node_cycles as f64);
    figure(wl, "jobs_per_s", jobs / wall, "1/s");
    figure(wl, "node_cycles_per_s", node_cycles as f64 / wall, "1/s");
    figure(
        wl,
        "job_latency_p50_ms",
        median(&latencies).unwrap_or(0.0),
        "ms",
    );
    tail_figure(wl, "job_latency_tail_ms", &latencies);
    figure(
        wl,
        "job_latency_iqm_ms",
        report::interquartile_mean(&latencies).unwrap_or(0.0),
        "ms",
    );
    let requests = calls_ms(&logs, None);
    figure(
        wl,
        "request_latency_p50_ms",
        median(&requests).unwrap_or(0.0),
        "ms",
    );
    tail_figure(wl, "request_latency_tail_ms", &requests);
    let mut digest = format!("{:016x}", reference.unwrap_or(0));
    for log in &logs {
        for r in log.done.iter().take(DIGEST_JOBS) {
            digest.push_str(&format!(":{:016x}", r.digest));
        }
    }
    println!(
        "[{wl}] digest = {:016x}",
        noc_store::fnv1a(digest.as_bytes())
    );
    o
}

pub fn serve_traced(seed: u64, spans: &SpanLog) -> Outcome {
    let wl = "serve-jobs";
    let mut o = Outcome::default();
    let far = Instant::now() + Duration::from_secs(3600);
    // Untraced phase: the same jobs, for the overhead and the results.
    let plain = match boot("untraced", None) {
        Ok(server) => {
            let t = Instant::now();
            let logs = serve::drive(&server, seed, far, Some(TRACE_JOBS));
            let wall = t.elapsed();
            server.stop();
            (logs, wall)
        }
        Err(e) => {
            o.check(false, || e);
            return o;
        }
    };
    let vfs = Arc::new(TimedVfs::new(noc_store::active()));
    let server = match boot("traced", Some(Arc::clone(&vfs) as Arc<dyn Vfs>)) {
        Ok(s) => s,
        Err(e) => {
            o.check(false, || e);
            return o;
        }
    };
    let client = server.client();
    let before = serve::health(&client);
    let t = Instant::now();
    let logs = serve::drive(&server, seed, far, Some(TRACE_JOBS));
    let traced_wall = t.elapsed();
    let after = serve::health(&client);
    server.stop();
    count_jobs(&plain.0, &mut o);
    count_jobs(&logs, &mut o);
    let digests = |l: &[CallerLog]| -> Vec<Vec<u64>> {
        l.iter()
            .map(|c| c.done.iter().map(|r| r.digest).collect())
            .collect()
    };
    o.check(digests(&plain.0) == digests(&logs), || {
        "traced job rows differ from untraced".into()
    });

    for (call, name) in HTTP_CALLS {
        let samples = calls_ms(&logs, Some(call));
        put_p50_tail(
            &mut o,
            &format!("{wl}.noc-serve.http_ms.{name}"),
            "ms",
            &samples,
        );
    }
    let events = vfs.events();
    let stages = serve::stage_times(&events);
    let q: Vec<f64> = stages.queue_wait.iter().map(|d| ms(*d)).collect();
    let r: Vec<f64> = stages.run.iter().map(|d| ms(*d)).collect();
    if let (Some(q), Some(r)) = (median(&q), median(&r)) {
        o.metric(format!("{wl}.noc-serve.queue_wait_ms"), "ms", q);
        o.metric(format!("{wl}.noc-serve.run_ms"), "ms", r);
    }
    let polls: Vec<u64> = logs.iter().flat_map(|l| &l.done).map(|r| r.polls).collect();
    o.metric(
        format!("{wl}.noc-serve.polls_per_job"),
        "count",
        polls.iter().sum::<u64>() as f64 / polls.len().max(1) as f64,
    );
    if let Some(d) = health_delta(before, after, &mut o) {
        for (h, v) in serve::HEALTH.iter().zip(d) {
            o.metric(format!("{wl}.noc-serve.healthz.{h}"), "count", v as f64);
        }
    }
    for op in ["write_atomic", "append"] {
        let samples: Vec<f64> = events
            .iter()
            .filter(|e| e.op == op)
            .map(|e| ms(e.dur))
            .collect();
        put_p50_tail(&mut o, &format!("{wl}.noc-store.{op}_ms"), "ms", &samples);
        o.metric(
            format!("{wl}.noc-store.{op}_count"),
            "count",
            samples.len() as f64,
        );
    }
    serve::job_spans(spans, &logs, &events, vfs.t0());
    o.metric(
        format!("{wl}.trace.overhead_s"),
        "s",
        traced_wall.as_secs_f64() - plain.1.as_secs_f64(),
    );
    o
}

/// Records `<name>.p50` and `<name>.tail`, printing the tail's percentile
/// and sample count.
fn put_p50_tail(o: &mut Outcome, name: &str, unit: &'static str, samples: &[f64]) {
    if let Some(m) = median(samples) {
        o.metric(format!("{name}.p50"), unit, m);
    }
    if let Some(t) = report::tail(samples) {
        println!(
            "[trace] {name}.tail = {} {unit} (p{:.1} of {} samples)",
            t.value, t.pct, t.samples
        );
        o.metric(format!("{name}.tail"), unit, t.value);
    }
}

/// Writes the spans of a traced run to `path`.
pub fn write_spans(spans: &SpanLog, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans.to_jsonl())
}
