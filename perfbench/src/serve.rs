//! `serve-jobs`: an in-process `noc-serve` over a fresh data directory,
//! driven over HTTP by closed-loop `noc-client` callers. Each caller submits
//! a small sweep job, polls its status until it is terminal, then fetches
//! its CRC-verified rows and checks them.

use crate::timed::SpanLog;
use noc_client::{Client, ClientOpts};
use noc_experiments::jsonio::{self, JsonObj};
use noc_experiments::{run_sweep, Checkpoint};
use noc_serve::{JobSpec, ServeOpts, Service};
use noc_store::{LineCheck, Vfs};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop callers, each on its own connection at a time.
pub const CALLERS: u64 = 2;
/// Pause between two status polls of one job.
pub const POLL: Duration = Duration::from_millis(2);
/// A job not terminal after this long counts as failed.
pub const JOB_BUDGET: Duration = Duration::from_secs(60);
/// Schemes of every job, on a 4x4 mesh.
pub const SCHEMES: &str = "XY,SEEC,mSEEC";
/// Cycles per point are drawn from this range, per job.
pub const CYCLES: (u64, u64) = (300, 3_000);

/// `SplitMix64`: the seed-to-input derivation of this workload.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One job submission and what its rows must hold.
#[derive(Clone, Debug)]
pub struct Job {
    pub body: String,
    pub spec: JobSpec,
    /// Point keys the rows must cover, sorted.
    pub keys: Vec<String>,
    /// Simulated router-cycles of the job.
    pub node_cycles: u64,
}

/// Job `index` of `caller` for run seed `seed`. Every job has its own
/// simulation seed, so the content-addressed dedupe never answers.
pub fn job(seed: u64, caller: u64, index: u64) -> Job {
    let h = mix(seed ^ mix(caller.wrapping_mul(0x1_0000_0001) ^ mix(index)));
    sweep_job(CYCLES.0 + h % (CYCLES.1 - CYCLES.0 + 1), mix(h) >> 16)
}

/// The job set-up runs in-process and compares with the service's rows:
/// the largest job size, so set-up work does not vary with the seed, and a
/// seed no caller's job has.
pub fn reference_job(seed: u64) -> Job {
    sweep_job(CYCLES.1, mix(mix(seed) ^ 0x5EEC) >> 16)
}

fn sweep_job(cycles: u64, sim_seed: u64) -> Job {
    let mut row = BTreeMap::new();
    for (k, v) in [
        ("kind", "sweep".to_string()),
        ("schemes", SCHEMES.to_string()),
        ("transients", "0.0".to_string()),
        ("k", "4".to_string()),
        ("cycles", cycles.to_string()),
        ("seed", sim_seed.to_string()),
    ] {
        row.insert(k.to_string(), v);
    }
    let body = row
        .iter()
        .fold(JsonObj::new(), |o, (k, v)| o.str_field(k, v))
        .finish();
    let spec = JobSpec::parse(&row).expect("benchmark job spec is valid");
    let points = spec.points();
    let mut keys: Vec<String> = points
        .iter()
        .map(noc_experiments::FaultPoint::key)
        .collect();
    keys.sort();
    let node_cycles = points
        .iter()
        .map(|p| p.cycles * u64::from(p.k) * u64::from(p.k))
        .sum();
    Job {
        body,
        spec,
        keys,
        node_cycles,
    }
}

/// A running service and its HTTP front end.
pub struct Server {
    service: Arc<Service>,
    pub addr: String,
    dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    http: Option<JoinHandle<()>>,
}

impl Server {
    /// Opens a service over the empty directory `dir` (through `vfs` when
    /// given, else the process default) and starts serving it on an
    /// ephemeral local port.
    pub fn boot(dir: &Path, vfs: Option<Arc<dyn Vfs>>) -> std::io::Result<Server> {
        let opts = ServeOpts::new(dir);
        let service = Arc::new(match vfs {
            Some(vfs) => Service::open_with_vfs(opts, vfs)?,
            None => Service::open(opts)?,
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let http = {
            let (service, shutdown) = (Arc::clone(&service), Arc::clone(&shutdown));
            std::thread::spawn(move || noc_serve::http::serve(listener, &service, &shutdown))
        };
        Ok(Server {
            service,
            addr,
            dir: dir.to_path_buf(),
            shutdown,
            http: Some(http),
        })
    }

    pub fn client(&self) -> Client {
        Client::new(&self.addr, ClientOpts::default())
    }

    /// Stops the HTTP front end, drains the workers and removes the data
    /// directory.
    pub fn stop(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.http.take() {
            let _ = h.join();
        }
        self.service.drain();
    }
}

/// The timed HTTP calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Submit,
    Status,
    Rows,
}

/// One job that passed its checks.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub start: Instant,
    /// Submit to verified rows.
    pub latency: Duration,
    pub polls: u64,
    /// Each HTTP call: kind, start, duration.
    pub calls: Vec<(Call, Instant, Duration)>,
    pub id: String,
    /// Sorted rows digest.
    pub digest: u64,
    pub node_cycles: u64,
}

/// What one caller saw.
#[derive(Debug, Default)]
pub struct CallerLog {
    pub done: Vec<JobRecord>,
    pub failures: Vec<String>,
    /// When the caller finished its last job.
    pub end: Option<Instant>,
}

/// Digest of a job's rows, order-independent.
pub fn rows_digest(rows: &[String]) -> u64 {
    let mut sorted = rows.to_vec();
    sorted.sort();
    noc_store::fnv1a(sorted.join("\n").as_bytes())
}

fn timed<T>(calls: &mut Vec<(Call, Instant, Duration)>, call: Call, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    calls.push((call, t, t.elapsed()));
    out
}

/// Runs one job end to end and checks its rows.
pub fn one_job(client: &Client, job: &Job) -> Result<JobRecord, String> {
    let start = Instant::now();
    let mut calls = Vec::new();
    let (mut view, created) = timed(&mut calls, Call::Submit, || client.submit(&job.body))
        .map_err(|e| format!("submit: {e}"))?;
    if !created {
        return Err(format!("job {} answered by dedupe", view.id));
    }
    let mut polls = 0;
    while !view.is_terminal() {
        if start.elapsed() > JOB_BUDGET {
            return Err(format!("job {} not terminal after {JOB_BUDGET:?}", view.id));
        }
        std::thread::sleep(POLL);
        view = timed(&mut calls, Call::Status, || client.status(&view.id))
            .map_err(|e| format!("status: {e}"))?;
        polls += 1;
    }
    if view.stage != "done" {
        return Err(format!(
            "job {} ended {}: {:?}",
            view.id, view.stage, view.row
        ));
    }
    let rows = timed(&mut calls, Call::Rows, || client.rows_verified(&view.id))
        .map_err(|e| format!("rows: {e}"))?;
    let latency = start.elapsed();
    let mut keys = Vec::new();
    for r in &rows {
        let row = jsonio::parse_flat(r).ok_or_else(|| format!("row is not flat JSON: {r}"))?;
        if row.get("status").map(String::as_str) != Some("ok") {
            return Err(format!("job {} row not ok: {r}", view.id));
        }
        keys.push(row.get("key").cloned().unwrap_or_default());
    }
    keys.sort();
    if keys != job.keys {
        return Err(format!(
            "job {} rows cover {keys:?}, want {:?}",
            view.id, job.keys
        ));
    }
    Ok(JobRecord {
        start,
        latency,
        polls,
        calls,
        id: view.id,
        digest: rows_digest(&rows),
        node_cycles: job.node_cycles,
    })
}

/// Runs `caller`'s jobs back to back: until `until` passes, or `count`
/// jobs when given.
pub fn run_caller(
    addr: &str,
    seed: u64,
    caller: u64,
    until: Instant,
    count: Option<u64>,
) -> CallerLog {
    let client = Client::new(addr, ClientOpts::default());
    let mut log = CallerLog::default();
    let mut index = 0;
    loop {
        let more = match count {
            Some(n) => index < n,
            None => Instant::now() < until,
        };
        if !more {
            break;
        }
        let job = job(seed, caller, index);
        match one_job(&client, &job) {
            Ok(rec) => log.done.push(rec),
            Err(e) => log.failures.push(e),
        }
        index += 1;
    }
    log.end = Some(Instant::now());
    log
}

/// Runs every caller concurrently against `server`.
pub fn drive(server: &Server, seed: u64, until: Instant, count: Option<u64>) -> Vec<CallerLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let addr = server.addr.as_str();
                s.spawn(move || run_caller(addr, seed, c, until, count))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// The rows of `job` computed in-process through `run_sweep`, sorted and
/// with their CRC seals removed.
pub fn reference_rows(job: &Job, dir: &Path) -> Result<Vec<String>, String> {
    let path = dir.join("rows.ckpt.jsonl");
    let ckpt = Checkpoint::open(&path).map_err(|e| format!("open checkpoint: {e}"))?;
    let outcome = run_sweep(&job.spec.points(), &ckpt, None, &dir.join("dumps"));
    if outcome.failed != 0 {
        return Err(format!("reference sweep failed: {outcome:?}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read checkpoint: {e}"))?;
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match noc_store::open_line(line) {
            LineCheck::Sealed(payload) => rows.push(payload.to_string()),
            other => return Err(format!("reference row not sealed: {other:?}")),
        }
    }
    rows.sort();
    Ok(rows)
}

/// The `/healthz` counters the benchmark tracks.
pub const HEALTH: [&str; 4] = [
    "connections_accepted",
    "connections_shed",
    "connections_reset",
    "dedupe_hits",
];

/// The tracked `/healthz` counters.
pub fn health(client: &Client) -> Result<[u64; 4], String> {
    let row = client.healthz().map_err(|e| format!("healthz: {e}"))?;
    let mut out = [0; 4];
    for (slot, key) in out.iter_mut().zip(HEALTH) {
        *slot = row
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("healthz lacks {key}: {row:?}"))?;
    }
    Ok(out)
}

/// Job stage times read from the journal writes a timing `Vfs` saw.
#[derive(Debug, Default)]
pub struct StageTimes {
    /// QUEUED record written to first RUNNING transition, per job.
    pub queue_wait: Vec<Duration>,
    /// First RUNNING transition to DONE, per job.
    pub run: Vec<Duration>,
}

/// Extracts [`StageTimes`] from the `state.jsonl` writes in `events`.
pub fn stage_times(events: &[crate::timed::IoEvent]) -> StageTimes {
    // job id -> (queued written, running started, done started)
    let mut marks: BTreeMap<String, [Option<Duration>; 3]> = BTreeMap::new();
    for e in events {
        if e.path.file_name().is_none_or(|n| n != "state.jsonl") {
            continue;
        }
        let Some(id) = e
            .path
            .parent()
            .and_then(Path::file_name)
            .and_then(|n| n.to_str())
        else {
            continue;
        };
        for line in e.journal.as_deref().unwrap_or("").lines() {
            let payload = match noc_store::open_line(line) {
                LineCheck::Sealed(p) | LineCheck::Legacy(p) => p,
                LineCheck::Corrupt => continue,
            };
            let Some(stage) = jsonio::parse_flat(payload).and_then(|r| r.get("stage").cloned())
            else {
                continue;
            };
            let slot = match stage.as_str() {
                "queued" => 0,
                "running" => 1,
                "done" => 2,
                _ => continue,
            };
            let at = if slot == 0 { e.start + e.dur } else { e.start };
            let m = marks.entry(id.to_string()).or_default();
            if m[slot].is_none() {
                m[slot] = Some(at);
            }
        }
    }
    let mut out = StageTimes::default();
    for [q, r, d] in marks.into_values() {
        if let (Some(q), Some(r)) = (q, r) {
            out.queue_wait.push(r.saturating_sub(q));
        }
        if let (Some(r), Some(d)) = (r, d) {
            out.run.push(d.saturating_sub(r));
        }
    }
    out
}

/// Records a root span per job of a traced phase, with one aggregated
/// child span per HTTP call kind and per storage write kind of that job.
pub fn job_spans(
    spans: &SpanLog,
    logs: &[CallerLog],
    io: &[crate::timed::IoEvent],
    io_t0: Instant,
) {
    for rec in logs.iter().flat_map(|l| &l.done) {
        let trace = format!("job:{}", rec.id);
        spans.root(&trace, "job", rec.start, rec.latency);
        for (call, name) in [
            (Call::Submit, "noc-client.submit"),
            (Call::Status, "noc-client.status"),
            (Call::Rows, "noc-client.rows"),
        ] {
            let mine: Vec<_> = rec.calls.iter().filter(|c| c.0 == call).collect();
            if let Some(first) = mine.first() {
                let ns = mine.iter().map(|c| c.2.as_nanos() as u64).sum();
                spans.child(&trace, "job", name, first.1, ns, mine.len() as u64);
            }
        }
        for op in ["write_atomic", "append"] {
            let mine: Vec<_> = io
                .iter()
                .filter(|e| {
                    e.op == op
                        && e.path
                            .components()
                            .any(|c| c.as_os_str() == rec.id.as_str())
                })
                .collect();
            if let Some(first) = mine.first() {
                let ns = mine.iter().map(|e| e.dur.as_nanos() as u64).sum();
                let name = format!("noc-store.{op}");
                spans.child(
                    &trace,
                    "job",
                    &name,
                    io_t0 + first.start,
                    ns,
                    mine.len() as u64,
                );
            }
        }
    }
}
