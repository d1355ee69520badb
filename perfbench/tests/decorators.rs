//! The timing decorators forward every call unchanged: a wrapped point ends
//! with the same network state digest and the same statistics as the
//! unwrapped point, for every scheme of `ur8-knee` and `burst8-idle`.

use noc_store::{StdVfs, Vfs};
use perfbench::synth::{self, Point};
use perfbench::timed::{SpanLog, TimedMechanism, TimedVfs};
use std::path::PathBuf;
use std::sync::Arc;

fn assert_unchanged(points: &[Point]) {
    for p in points {
        let plain = synth::finish(synth::build(p, false).0, p);
        let (timed, probes) = synth::build(p, true);
        let wrapped = synth::finish(timed, p);
        assert!(plain.state.is_some());
        assert_eq!(plain.state, wrapped.state, "{}: state digest", p.label());
        assert_eq!(
            format!("{:?}", plain.stats),
            format!("{:?}", wrapped.stats),
            "{}: statistics",
            p.label()
        );
        // The decorators really sat in the loop.
        let probes = probes.expect("timed build has probes");
        assert_eq!(probes.workload.generate.calls(), p.cycles, "{}", p.label());
        assert_eq!(probes.hooks.calls(), 2 * p.cycles, "{}", p.label());
        // Every post-warm-up delivery was offered through the wrapper
        // (warm-up deliveries are offered too but not counted in stats).
        assert!(
            probes.workload.deliver.calls() >= wrapped.stats.ejected_packets_all,
            "{}",
            p.label()
        );
    }
}

#[test]
fn ur8_knee_points_are_unchanged_by_the_decorators() {
    assert_unchanged(&synth::knee_points(7));
}

#[test]
fn burst8_idle_points_are_unchanged_by_the_decorators() {
    assert_unchanged(&synth::burst_points(7));
}

#[test]
fn traced_knee_points_match_run_synth() {
    let spans = SpanLog::default();
    for p in synth::knee_points(11).iter().step_by(4) {
        let plain = synth::run_plain(p);
        let (traced, layers) = synth::run_traced(p, &spans);
        assert_eq!(plain.stats_digest(), traced.stats_digest(), "{}", p.label());
        assert_eq!(layers.certify_ns.is_some(), p.gated(), "{}", p.label());
        assert!(layers.run_ns >= layers.self_ns(), "{}", p.label());
    }
    assert!(spans.to_jsonl().lines().count() > 0);
}

#[test]
fn mechanism_queries_are_forwarded() {
    for p in synth::knee_points(3).iter().chain(&synth::burst_points(3)) {
        let cfg = p.config();
        let inner = p.scheme.mechanism(&cfg);
        let (wrapped, _) = TimedMechanism::wrap(p.scheme.mechanism(&cfg));
        assert_eq!(inner.kind(), wrapped.kind(), "{}", p.label());
        assert_eq!(
            inner.touches_credits(),
            wrapped.touches_credits(),
            "{}",
            p.label()
        );
        assert_eq!(inner.quiescent(), wrapped.quiescent(), "{}", p.label());
        assert_eq!(inner.debug_state(), wrapped.debug_state(), "{}", p.label());
    }
}

#[test]
fn timed_vfs_forwards_and_times_writes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("timed_vfs");
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = TimedVfs::new(Arc::new(StdVfs));
    vfs.create_dir_all(&dir.join("jobs")).expect("mkdir");
    let whole = dir.join("jobs/spec.json");
    vfs.write_atomic(&whole, b"{\"a\": 1}\n").expect("write");
    assert_eq!(vfs.read_to_string(&whole).expect("read"), "{\"a\": 1}\n");
    let journal = dir.join("jobs/state.jsonl");
    let mut log = vfs.open_append(&journal).expect("open");
    log.append(b"one\n").expect("append");
    log.append(b"two\n").expect("append");
    assert_eq!(
        std::fs::read_to_string(&journal).expect("read"),
        "one\ntwo\n"
    );
    assert!(vfs.exists(&journal) && !vfs.exists(&dir.join("missing")));
    let events = vfs.events();
    let ops: Vec<&str> = events.iter().map(|e| e.op).collect();
    assert_eq!(ops, ["write_atomic", "append", "append"]);
    assert_eq!(events[0].journal, None, "only journals keep their bytes");
    assert_eq!(events[2].journal.as_deref(), Some("two\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
