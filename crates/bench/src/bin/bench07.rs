//! The `BENCH_07` harness: big-mesh engine scaling plus idle-cycle
//! skipping against a plain cycle-by-cycle loop.
//!
//! Usage: `cargo run --release -p bench --bin bench07 [-- <out.json>]`
//! (default output `BENCH_07.json`). `NOC_BENCH_SAMPLES` overrides the
//! sample counts.
//!
//! Two legs:
//!
//! * `engine/router_cycles/{16x16,32x32}` — the scalar hot path on meshes
//!   big enough that the struct-of-arrays credit core's layout, not loop
//!   overhead, dominates (bench02 keeps the historical 4x4/8x8 points).
//! * `engine/scalar8/{4x4,8x8}` vs `engine/skip8/{4x4,8x8}` — eight
//!   bursty design points (same shape; routing, rate and seed differ) run
//!   one after another, skip off (a `Sim::step` loop) against skip on
//!   (`Sim::run`, which skips idle cycles). Both legs are single-threaded.
//!   The harness asserts the two legs' statistics are byte-identical — the
//!   determinism gate rides along with every bench run.

use criterion::{record_extra, records, BenchRecord};
use noc_baselines::escape_vc_config;
use noc_sim::{NoMechanism, Sim};
use noc_traffic::{BurstWorkload, SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, NetConfig, RoutingAlgo};
use std::time::Instant;

/// Timed iterations per measurement.
const SAMPLES: usize = 3;

/// Design points in the skip-off/skip-on comparison.
const LANES: usize = 8;

/// Cycles per lane in the skip-off/skip-on comparison. Bursts of 32 cycles
/// every 4096 make the inter-burst gap dominate stepped wall time: busy
/// cycles cost ~30x an idle cycle here, so gap-dominated traffic is the
/// regime where idle skipping pays (steady saturating traffic would be
/// Amdahl-capped near 1.0x and is covered by the `router_cycles` leg).
const LANE_CYCLES: u64 = 32_768;
const BURST_PERIOD: u64 = 4_096;
const BURST_LEN: u64 = 32;

fn env_samples(default: usize) -> usize {
    std::env::var("NOC_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// Times `f` (after one warm-up call) and registers the record. Returns
/// the median and the warm-up output for cross-leg identity checks.
fn time_block<F: FnMut() -> String>(
    id: &str,
    samples: usize,
    elements: u64,
    mut f: F,
) -> (u128, String) {
    let reference = f();
    let mut ns: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    let per_second = elements as f64 / (median as f64 / 1e9).max(1e-12);
    record_extra(BenchRecord {
        id: id.to_string(),
        samples,
        min_ns: ns[0],
        median_ns: median,
        mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
        throughput: Some(elements),
        per_second: Some(per_second),
    });
    println!(
        "  {id}: median {:.1} ms, {per_second:.0} node-cycles/s",
        median as f64 / 1e6
    );
    (median, reference)
}

/// A scalar big-mesh engine point: XY routing, steady uniform-random load.
fn engine_sim(k: u8, rate: f64, seed: u64) -> Sim {
    let cfg = NetConfig::synth(k, 2)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
        .with_seed(seed);
    let wl = SyntheticWorkload::new(
        TrafficPattern::UniformRandom,
        rate,
        cfg.cols,
        cfg.rows,
        cfg.warmup,
        seed,
    );
    Sim::new(cfg, Box::new(wl), Box::new(NoMechanism))
}

/// Lane `i` of the skip comparison: same shape for every `i`, but the
/// routing relation, offered load and seeds differ — a mixed-scheme sweep.
fn burst_lane(k: u8, i: usize) -> Sim {
    let seed = 0xB07_u64 + 97 * i as u64;
    let rate = [0.10, 0.12, 0.15][i % 3];
    let base = NetConfig::synth(k, 2).with_seed(seed);
    let cfg = match i % 3 {
        0 => base.with_routing(RoutingAlgo::Uniform(BaseRouting::Xy)),
        1 => base.with_routing(RoutingAlgo::Uniform(BaseRouting::WestFirst)),
        _ => escape_vc_config(base, BaseRouting::AdaptiveMinimal),
    };
    let wl = BurstWorkload::new(
        TrafficPattern::UniformRandom,
        rate,
        BURST_PERIOD,
        BURST_LEN,
        cfg.cols,
        cfg.rows,
        cfg.warmup,
        seed,
    );
    Sim::new(cfg, Box::new(wl), Box::new(NoMechanism))
}

fn main() {
    // Storage-fault knobs are validated eagerly, like the experiment
    // binaries: garbage is a configuration error at startup, not a panic
    // after the benches have run for minutes.
    if let Err(e) = noc_experiments::cli::validate_vfs_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_07.json".to_string());
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let samples = env_samples(SAMPLES);

    // Leg 1: big-mesh scalar engine points.
    println!("engine kernel, big meshes");
    for (k, rate, cycles) in [(16u8, 0.05, 2_000u64), (32, 0.02, 1_000)] {
        let nodes = u64::from(k) * u64::from(k);
        let (_, _) = time_block(
            &format!("engine/router_cycles/{k}x{k}"),
            samples,
            cycles * nodes,
            || {
                let mut sim = engine_sim(k, rate, 0xA11CE);
                sim.run(cycles);
                format!("{:?}", sim.finish())
            },
        );
    }

    // Leg 2: the same 8 lanes stepped every cycle vs run with skipping.
    let mut speedups = Vec::new();
    for k in [4u8, 8] {
        println!("idle-cycle skipping, {LANES} lanes of {k}x{k} bursty traffic");
        let nodes = u64::from(k) * u64::from(k);
        let elements = LANE_CYCLES * nodes * LANES as u64;
        let stepped = || {
            (0..LANES)
                .map(|i| {
                    let mut sim = burst_lane(k, i);
                    for _ in 0..LANE_CYCLES {
                        sim.step();
                    }
                    format!("{:?}\n", sim.finish())
                })
                .collect::<String>()
        };
        let skipping = || {
            let mut skipped = 0;
            let out = (0..LANES)
                .map(|i| {
                    let mut sim = burst_lane(k, i);
                    sim.run(LANE_CYCLES);
                    skipped += sim.skipped_cycles;
                    format!("{:?}\n", sim.finish())
                })
                .collect::<String>();
            println!(
                "    (skip-on leg skipped {:.1}% of lane-cycles)",
                100.0 * skipped as f64 / (LANE_CYCLES * LANES as u64) as f64
            );
            out
        };
        let (step_ns, step_out) = time_block(
            &format!("engine/scalar8/{k}x{k}"),
            samples,
            elements,
            stepped,
        );
        let (skip_ns, skip_out) = time_block(
            &format!("engine/skip8/{k}x{k}"),
            samples,
            elements,
            skipping,
        );
        assert_eq!(
            step_out, skip_out,
            "idle-cycle skipping diverged from the stepped lanes at {k}x{k}"
        );
        let speedup = step_ns as f64 / skip_ns as f64;
        println!("  skip speedup x{speedup:.2} at {k}x{k} (single thread)");
        speedups.push((k, speedup));
    }

    // Combined report: criterion's records plus host context.
    let recs = records();
    let mut json = String::from("{\n");
    json.push_str("  \"report\": \"BENCH_07\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"lanes\": {LANES},\n"));
    for (k, s) in &speedups {
        json.push_str(&format!("  \"skip_speedup_{k}x{k}\": {s:.3},\n"));
    }
    json.push_str("  \"skip_deterministic\": true,\n");
    json.push_str("  \"benches\": [\n");
    for (i, r) in recs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \
             \"mean_ns\": {}",
            r.id, r.samples, r.min_ns, r.median_ns, r.mean_ns
        ));
        if let Some(t) = r.throughput {
            json.push_str(&format!(", \"throughput\": {t}"));
        }
        if let Some(p) = r.per_second {
            json.push_str(&format!(", \"per_second\": {p:.1}"));
        }
        json.push_str(if i + 1 == recs.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ]\n}\n");
    // Atomic: a torn BENCH json would poison downstream comparisons.
    noc_store::active()
        .write_atomic(std::path::Path::new(&out), json.as_bytes())
        .expect("writing bench report");
    println!("wrote {out}");
}
