//! The `BENCH_02` harness: one JSON report combining raw engine throughput
//! with the parallel sweep executor's sequential-vs-parallel wall clock.
//!
//! Usage: `cargo run --release -p bench --bin bench02 [-- <out.json>]`
//! (default output `BENCH_02.json`). `NOC_BENCH_SAMPLES` overrides the
//! sample counts. The harness asserts that the parallel sweep's results are
//! byte-identical to the sequential ones — the determinism gate rides along
//! with every bench run.
//!
//! The report is honest about its host: `host_parallelism` records what
//! `std::thread::available_parallelism` saw, and a `speedup` ≈ 1.0 on a
//! single-core box is expected, not a failure.

use criterion::{record_extra, records, BenchRecord, Criterion, Throughput};
use noc_experiments::figs::fig08;
use noc_experiments::runner::{run_synth, Scheme, SynthSpec};
use noc_traffic::TrafficPattern;
use std::time::Instant;

/// Timed iterations per measurement (panels take ~1 s each).
const PANEL_SAMPLES: usize = 3;

/// Threads for the parallel leg of the sweep comparison.
const PAR_THREADS: usize = 8;

fn env_samples(default: usize) -> usize {
    std::env::var("NOC_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// Times `f` over warm-up + samples and registers min/median/mean.
fn time_block<F: FnMut() -> String>(id: &str, samples: usize, mut f: F) -> (u128, String) {
    let reference = f(); // warm-up; also the output the other leg must match
    let mut ns: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    record_extra(BenchRecord {
        id: id.to_string(),
        samples,
        min_ns: ns[0],
        median_ns: median,
        mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
        throughput: None,
        per_second: None,
    });
    println!("  {id}: median {:.1} ms", median as f64 / 1e6);
    (median, reference)
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
        .unwrap_or_else(|| "BENCH_02.json".to_string());
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Leg 1: raw engine throughput (the single-thread hot-path figure).
    println!("engine kernel");
    let mut c = Criterion;
    let mut g = c.benchmark_group("engine");
    g.sample_size(env_samples(10));
    for k in [4u8, 8] {
        let cycles = 2_000u64;
        g.throughput(Throughput::Elements(cycles * (k as u64).pow(2)));
        g.bench_function(format!("router_cycles/{k}x{k}"), |b| {
            b.iter(|| {
                run_synth(
                    SynthSpec::new(k, 2, Scheme::Xy, TrafficPattern::UniformRandom, 0.10)
                        .with_cycles(cycles),
                )
            });
        });
    }
    g.finish();

    // Leg 2: the quick fig-8 panel, sequential then parallel, with the
    // determinism gate on the side.
    println!("sweep executor (fig08 quick panel, uniform-random 4x4)");
    let samples = env_samples(PANEL_SAMPLES);
    let panel = || fig08::panel(TrafficPattern::UniformRandom, 4, true).to_string();
    rayon::set_num_threads(1);
    let (seq_ns, seq_out) = time_block("fig08_quick/sequential", samples, panel);
    rayon::set_num_threads(PAR_THREADS);
    let (par_ns, par_out) = time_block("fig08_quick/parallel8", samples, panel);
    assert_eq!(seq_out, par_out, "parallel sweep diverged from sequential");
    let speedup = seq_ns as f64 / par_ns as f64;
    println!("  speedup x{speedup:.2} on {host} host core(s)");

    // Combined report: criterion's records plus host context.
    let recs = records();
    let mut json = String::from("{\n");
    json.push_str("  \"report\": \"BENCH_02\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"sweep_threads\": {PAR_THREADS},\n"));
    if host > 1 {
        json.push_str(&format!("  \"sweep_speedup\": {speedup:.3},\n"));
    } else {
        // Eight rayon threads on one core measure scheduling overhead, not
        // the executor; a ~1.0 "speedup" in the report would invite bogus
        // cross-host comparisons. Null says "not applicable here".
        json.push_str("  \"sweep_speedup\": null,\n");
    }
    json.push_str("  \"sweep_deterministic\": true,\n");
    json.push_str("  \"benches\": [\n");
    for (i, r) in recs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \
             \"mean_ns\": {}",
            r.id, r.samples, r.min_ns, r.median_ns, r.mean_ns
        ));
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
