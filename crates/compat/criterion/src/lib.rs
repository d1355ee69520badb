//! Hermetic stand-in for `criterion` with real multi-iteration timing.
//!
//! Each `bench_function` runs its body once as warm-up, then `sample_size`
//! timed iterations (default 10, overridable per group or via the
//! `NOC_BENCH_SAMPLES` environment variable), and reports min / median /
//! mean wall time. With a `Throughput` annotation it also reports elements
//! per second (computed from the median — the robust central estimate).
//!
//! Results accumulate in a process-global registry; `criterion_main!` writes
//! them as JSON to the path named by `NOC_BENCH_JSON` (if set), and
//! [`write_json`] / [`record_extra`] let harness binaries emit combined
//! reports (see `crates/bench/src/bin/bench02.rs`).
#![forbid(unsafe_code)]

use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, mirroring `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation: scales timing into a rate.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One finished measurement, as stored in the global registry.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Fully-qualified id (`group/bench`).
    pub id: String,
    /// Number of timed iterations.
    pub samples: usize,
    pub min_ns: u128,
    pub median_ns: u128,
    pub mean_ns: u128,
    /// Elements (or bytes) per iteration, when annotated.
    pub throughput: Option<u64>,
    /// Elements per second derived from the median, when annotated.
    pub per_second: Option<f64>,
}

fn registry() -> &'static Mutex<Vec<BenchRecord>> {
    static REGISTRY: OnceLock<Mutex<Vec<BenchRecord>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Appends a record produced outside the `Criterion` API (e.g. a wall-clock
/// measurement of a whole figure panel) to the registry.
pub fn record_extra(record: BenchRecord) {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(record);
}

/// Snapshot of all records accumulated so far.
pub fn records() -> Vec<BenchRecord> {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders all accumulated records as a JSON document.
pub fn render_json() -> String {
    let recs = records();
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, r) in recs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \
             \"mean_ns\": {}",
            json_escape(&r.id),
            r.samples,
            r.min_ns,
            r.median_ns,
            r.mean_ns
        ));
        if let Some(t) = r.throughput {
            out.push_str(&format!(", \"throughput\": {t}"));
        }
        if let Some(p) = r.per_second {
            out.push_str(&format!(", \"per_second\": {p:.1}"));
        }
        out.push_str(if i + 1 == recs.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes all accumulated records to `path` as JSON, atomically: the
/// report is staged in a temp sibling, fsync'd, and renamed into place, so
/// a crash (or a full disk) mid-write can never leave a torn half-report
/// for a downstream comparison to choke on. (Inlined rather than depending
/// on `noc-store`: this crate is a stand-in for an external dependency and
/// stays free of workspace-internal imports.)
pub fn write_json(path: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let target = std::path::Path::new(path);
    let name = target
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("bench.json");
    let tmp = target.with_file_name(format!(".{name}.tmp.{}", std::process::id()));
    let staged = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(render_json().as_bytes())?;
        f.sync_all()
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, target) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Called by `criterion_main!` after all groups ran: honours
/// `NOC_BENCH_JSON=<path>`.
pub fn write_json_if_requested() {
    if let Ok(path) = std::env::var("NOC_BENCH_JSON") {
        if !path.is_empty() {
            write_json(&path).expect("writing NOC_BENCH_JSON report");
            println!("wrote bench report to {path}");
        }
    }
}

/// Reads and validates `NOC_BENCH_SAMPLES`. Unset or empty means "use the
/// per-bench default"; anything else must be an integer ≥ 1 — `0` or garbage
/// aborts with a clear message instead of silently falling back.
fn env_samples() -> Option<usize> {
    let raw = std::env::var("NOC_BENCH_SAMPLES").ok()?;
    let t = raw.trim();
    if t.is_empty() {
        return None;
    }
    match t.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!(
            "NOC_BENCH_SAMPLES={raw:?}: must be an integer >= 1 (unset the \
             variable for the per-bench default)"
        ),
    }
}

const DEFAULT_SAMPLES: usize = 10;

/// Timer handle passed to bench bodies.
pub struct Bencher {
    samples: usize,
    durations: Vec<Duration>,
}

impl Bencher {
    /// Runs the routine once for warm-up, then `samples` timed iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        self.durations.clear();
        self.durations.reserve(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.durations.push(start.elapsed());
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(
    id: String,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher {
        samples: env_samples().unwrap_or(samples),
        durations: Vec::new(),
    };
    f(&mut b);
    if b.durations.is_empty() {
        // The body never called `iter` — nothing to report.
        println!("  {id}: no measurement");
        return;
    }
    let mut sorted = b.durations.clone();
    sorted.sort();
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    let elems = throughput.map(|t| match t {
        Throughput::Elements(n) | Throughput::Bytes(n) => n,
    });
    let per_second = elems.map(|n| n as f64 / (median.as_secs_f64().max(1e-12)));
    match per_second {
        Some(rate) => println!(
            "  {id}: {} samples, min {min:?}, median {median:?}, mean {mean:?}, {rate:.0} elems/s",
            sorted.len()
        ),
        None => println!(
            "  {id}: {} samples, min {min:?}, median {median:?}, mean {mean:?}",
            sorted.len()
        ),
    }
    record_extra(BenchRecord {
        id,
        samples: sorted.len(),
        min_ns: min.as_nanos(),
        median_ns: median.as_nanos(),
        mean_ns: mean.as_nanos(),
        throughput: elems,
        per_second,
    });
}

/// Top-level bench context, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion;

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: std::fmt::Display,
        F: FnMut(&mut Bencher),
    {
        println!("bench {id}");
        run_bench(id.to_string(), DEFAULT_SAMPLES, None, f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group<S: std::fmt::Display>(&mut self, name: S) -> BenchmarkGroup {
        println!("group {name}");
        BenchmarkGroup {
            name: name.to_string(),
            samples: DEFAULT_SAMPLES,
            throughput: None,
        }
    }
}

/// Group handle, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup {
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Sets the number of timed iterations for subsequent benches.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Sets the throughput annotation for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a single named benchmark within the group.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: std::fmt::Display,
        F: FnMut(&mut Bencher),
    {
        run_bench(
            format!("{}/{id}", self.name),
            self.samples,
            self.throughput,
            f,
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a bench group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_min_median_mean() {
        let mut c = Criterion;
        let mut g = c.benchmark_group("t");
        g.sample_size(5).throughput(Throughput::Elements(1000));
        g.bench_function("spin", |b| {
            b.iter(|| {
                let mut x = 0u64;
                for i in 0..10_000 {
                    x = x.wrapping_add(black_box(i));
                }
                x
            });
        });
        g.finish();
        let recs = records();
        let r = recs.iter().find(|r| r.id == "t/spin").expect("recorded");
        assert_eq!(r.samples, 5);
        assert!(r.min_ns > 0 && r.min_ns <= r.median_ns);
        assert!(r.per_second.expect("throughput set") > 0.0);
        let json = render_json();
        assert!(json.contains("\"t/spin\""));
    }
}
