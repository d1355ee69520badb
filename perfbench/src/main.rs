//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`), runs one workload for about `--seconds` seconds
//! and prints its end-to-end metrics. Traced (`--trace 1`), runs every
//! workload once untraced and once with each layer timed, and prints the
//! per-layer metrics and the tracing overhead; spans go to
//! `.perfbench_out/`. Either way the last line of standard output is the
//! JSON result. Exits 2 on bad arguments or a refused environment.

use perfbench::report::Outcome;
use perfbench::run::{self, END_TO_END, WORKLOADS};
use perfbench::synth::Kind;
use perfbench::timed::SpanLog;
use std::process::ExitCode;

/// Environment knobs that change what the program does; the benchmark
/// measures its defaults, so it refuses to run under any of them.
const REFUSED_PREFIXES: [&str; 2] = ["NOC_VFS_FAULT_", "NOC_NET_FAULT_"];
const REFUSED: [&str; 4] = [
    "NOC_BATCH_WIDTH",
    "NOC_THREADS",
    "NOC_ALLOW_UNVERIFIED",
    "NOC_SWEEP_PANIC_KEY",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn refused_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            REFUSED.contains(&k.as_str()) || REFUSED_PREFIXES.iter().any(|p| k.starts_with(p))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {refused:?} set; the benchmark measures the defaults"
        );
        return ExitCode::from(2);
    }
    rayon::set_num_threads(run::THREADS);
    if let Err(e) = std::fs::create_dir_all(run::out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", run::out_dir().display());
        return ExitCode::from(2);
    }

    let (outcome, keep) = if args.trace {
        let spans = SpanLog::default();
        let mut o = Outcome::default();
        for wl in WORKLOADS {
            eprintln!("perfbench: tracing {wl}");
            o.absorb(match wl {
                "figs-quick" => run::figs_traced(&spans),
                "ur8-knee" => run::sweep_traced(Kind::Knee, args.seed, &spans),
                "burst8-idle" => run::sweep_traced(Kind::Burst, args.seed, &spans),
                _ => run::serve_traced(args.seed, &spans),
            });
        }
        let path = run::out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match run::write_spans(&spans, &path) {
            Ok(()) => println!("[trace] spans written to {}", path.display()),
            Err(e) => o.check(false, || format!("write {}: {e}", path.display())),
        }
        (o, run::per_layer_names())
    } else {
        let mut o = match args.workload.as_str() {
            "figs-quick" => run::figs_untraced(args.seconds),
            "ur8-knee" => run::sweep_untraced(Kind::Knee, args.seed, args.seconds),
            "burst8-idle" => run::sweep_untraced(Kind::Burst, args.seed, args.seconds),
            _ => run::serve_untraced(args.seed, args.seconds),
        };
        match run::peak_rss_mb() {
            Some(mb) => o.metric("peak_rss_mb", "MiB", mb),
            None => o.check(false, || "VmHWM unavailable".into()),
        }
        (o, END_TO_END.iter().map(ToString::to_string).collect())
    };
    println!(
        "[{}] error_rate = {} ratio",
        args.workload,
        outcome.error_rate()
    );
    for m in &outcome.metrics {
        if args.trace {
            println!("[trace] {} = {} {}", m.name, m.value, m.unit);
        }
    }
    let keep: Vec<&str> = keep.iter().map(String::as_str).collect();
    println!("{}", outcome.result_line(&keep));
    ExitCode::SUCCESS
}
