//! Timing decorators around the simulator's and the service's trait
//! objects, and the in-memory span log of a traced run.
//!
//! Every decorator forwards every trait method to the wrapped object
//! unchanged; the timed ones add only a clock read on each side of the
//! call. The engine's behaviour therefore cannot change: the digest tests
//! in `tests/decorators.rs` check that a wrapped point ends in the same
//! state as an unwrapped one.

use noc_sim::{DeliveredPacket, Mechanism, Network, Workload};
use noc_store::{AppendLog, Vfs};
use noc_types::{Cycle, NodeId, Packet, PacketId, SchemeKind};
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Busy time and call count of one layer within one point.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl LayerClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// A [`Mechanism`] whose `pre_cycle` and `post_cycle` are timed.
pub struct TimedMechanism {
    inner: Box<dyn Mechanism>,
    hooks: Rc<LayerClock>,
}

impl TimedMechanism {
    /// Wraps `inner`; the returned clock accumulates hook time.
    pub fn wrap(inner: Box<dyn Mechanism>) -> (Box<dyn Mechanism>, Rc<LayerClock>) {
        let hooks = Rc::new(LayerClock::default());
        let me = TimedMechanism {
            inner,
            hooks: Rc::clone(&hooks),
        };
        (Box::new(me), hooks)
    }
}

impl Mechanism for TimedMechanism {
    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let inner = &mut self.inner;
        self.hooks.time(|| inner.pre_cycle(net));
    }

    fn post_cycle(&mut self, net: &mut Network) {
        let inner = &mut self.inner;
        self.hooks.time(|| inner.post_cycle(net));
    }

    fn touches_credits(&self) -> bool {
        self.inner.touches_credits()
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn on_recovery_drain(&mut self, net: &mut Network, victim: PacketId) {
        self.inner.on_recovery_drain(net, victim);
    }

    fn debug_state(&self) -> String {
        self.inner.debug_state()
    }
}

/// A [`Workload`] whose `generate` and `deliver` are timed.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    clocks: Rc<WorkloadClocks>,
}

/// The two timed [`Workload`] calls.
#[derive(Debug, Default)]
pub struct WorkloadClocks {
    pub generate: LayerClock,
    pub deliver: LayerClock,
}

impl TimedWorkload {
    /// Wraps `inner`; the returned clocks accumulate its call time.
    pub fn wrap(inner: Box<dyn Workload>) -> (Box<dyn Workload>, Rc<WorkloadClocks>) {
        let clocks = Rc::new(WorkloadClocks::default());
        let me = TimedWorkload {
            inner,
            clocks: Rc::clone(&clocks),
        };
        (Box::new(me), clocks)
    }
}

impl Workload for TimedWorkload {
    fn generate(&mut self, cycle: Cycle, inject: &mut dyn FnMut(NodeId, Packet)) {
        let inner = &mut self.inner;
        self.clocks.generate.time(|| inner.generate(cycle, inject));
    }

    fn deliver(&mut self, cycle: Cycle, packet: &DeliveredPacket) -> bool {
        let inner = &mut self.inner;
        self.clocks.deliver.time(|| inner.deliver(cycle, packet))
    }

    fn finished(&self) -> Option<bool> {
        self.inner.finished()
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_activity(now)
    }
}

/// One timed storage write.
#[derive(Clone, Debug)]
pub struct IoEvent {
    /// `write_atomic` or `append`.
    pub op: &'static str,
    pub path: PathBuf,
    /// Start, relative to the [`TimedVfs`]'s creation.
    pub start: Duration,
    pub dur: Duration,
    /// The written bytes, for journal records (`*.jsonl`) only: the
    /// traced run reads job stage transitions from them.
    pub journal: Option<String>,
}

type IoLog = Arc<Mutex<Vec<IoEvent>>>;

fn record(log: &IoLog, event: IoEvent) {
    log.lock().expect("io log poisoned").push(event);
}

fn journal_text(path: &Path, data: &[u8]) -> Option<String> {
    (path.extension().is_some_and(|e| e == "jsonl"))
        .then(|| String::from_utf8_lossy(data).into_owned())
}

/// A [`Vfs`] whose writes (`write_atomic`, and `append` on the journals it
/// opens) are timed.
pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
    t0: Instant,
    log: IoLog,
}

impl TimedVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> TimedVfs {
        TimedVfs {
            inner,
            t0: Instant::now(),
            log: IoLog::default(),
        }
    }

    /// The instant [`IoEvent::start`] offsets count from.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Every write timed so far, in completion order.
    pub fn events(&self) -> Vec<IoEvent> {
        self.log.lock().expect("io log poisoned").clone()
    }
}

impl Vfs for TimedVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.inner.read_to_string(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.write_atomic(path, data);
        record(
            &self.log,
            IoEvent {
                op: "write_atomic",
                path: path.to_path_buf(),
                start: t - self.t0,
                dur: t.elapsed(),
                journal: journal_text(path, data),
            },
        );
        out
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendLog>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(TimedAppendLog {
            inner,
            path: path.to_path_buf(),
            t0: self.t0,
            log: Arc::clone(&self.log),
        }))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

struct TimedAppendLog {
    inner: Box<dyn AppendLog>,
    path: PathBuf,
    t0: Instant,
    log: IoLog,
}

impl AppendLog for TimedAppendLog {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.append(data);
        record(
            &self.log,
            IoEvent {
                op: "append",
                path: self.path.clone(),
                start: t - self.t0,
                dur: t.elapsed(),
                journal: journal_text(&self.path, data),
            },
        );
        out
    }
}

/// One span of a traced run: a point, job or figure (`parent == None`) or
/// one layer's calls inside it, aggregated (`calls` > 1 for per-cycle
/// hooks, which would otherwise be millions of spans).
#[derive(Clone, Debug)]
pub struct Span {
    /// Spans of one point, job or figure share this id.
    pub trace: String,
    pub name: String,
    pub parent: Option<String>,
    /// Offset from the start of the traced run.
    pub start_ns: u64,
    /// Wall time for a root span; summed busy time for a layer span.
    pub dur_ns: u64,
    pub calls: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// Offset of `t` from the start of the run, in ns.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a root span of wall time `dur` that started at `start`.
    pub fn root(&self, trace: &str, name: &str, start: Instant, dur: Duration) {
        self.push(Span {
            trace: trace.to_string(),
            name: name.to_string(),
            parent: None,
            start_ns: self.offset_ns(start),
            dur_ns: dur.as_nanos() as u64,
            calls: 1,
        });
    }

    /// Records an aggregated layer span under the root span `parent`.
    pub fn child(
        &self,
        trace: &str,
        parent: &str,
        name: &str,
        start: Instant,
        ns: u64,
        calls: u64,
    ) {
        self.push(Span {
            trace: trace.to_string(),
            name: name.to_string(),
            parent: Some(parent.to_string()),
            start_ns: self.offset_ns(start),
            dur_ns: ns,
            calls,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// The spans as JSON lines, ordered by start.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by(|a, b| (a.start_ns, &a.trace, &a.name).cmp(&(b.start_ns, &b.trace, &b.name)));
        let mut out = String::new();
        for s in spans {
            let parent = s
                .parent
                .as_deref()
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
            out.push_str(&format!(
                "{{\"trace\": \"{}\", \"span\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}, \"calls\": {}}}\n",
                s.trace, s.name, s.start_ns, s.dur_ns, s.calls
            ));
        }
        out
    }
}
