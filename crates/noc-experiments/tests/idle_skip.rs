//! Idle-cycle skipping is observationally invisible.
//!
//! `Sim::run` skips the work of idle cycles: it jumps the clock for a
//! quiescent mechanism and runs hooks-only cycles for every other one. Each
//! test drives two copies of one simulation — a plain `Sim::step` loop and
//! `Sim::run` — in slices, and at every slice boundary asserts identical
//! statistics, engine-state digest and mechanism state, so a divergence is
//! caught at the first boundary it reaches. Covered: every VC-router
//! scheme under bursty traffic, transient link faults (flit-level
//! retransmission active), a dynamic chaos schedule with runtime recovery
//! armed, steady synthetic traffic (whose conservative `next_activity` pins
//! the clock — the veto path), test mechanisms whose hooks make work on a
//! drained network (the fallback to a full step), and test mechanisms that
//! pin the credit caches (one reads the snapshot in its hooks; one is
//! quiescent but keeps the `touches_credits` default, as do the
//! `touches=true` injectors, so both exercise that fallback).

use noc_experiments::runner::Scheme;
use noc_sim::{Mechanism, Network, NoMechanism, Sim};
use noc_traffic::{BurstWorkload, SyntheticWorkload, TrafficPattern};
use noc_types::fault::fnv1a;
use noc_types::{
    BaseRouting, Cycle, Direction, FaultConfig, FaultSchedule, Flit, MessageClass, NetConfig,
    NodeId, Packet, PacketId, RecoveryConfig, RoutingAlgo, SchemeKind,
};

const SLICES: u64 = 8;
const SLICE_CYCLES: u64 = 1_000;

/// Everything observable about a simulation at a slice boundary.
fn observe(sim: &Sim) -> (u64, u64, String) {
    (
        fnv1a(format!("{:?}", sim.net.stats).as_bytes()),
        sim.net.state_digest(),
        sim.mech.debug_state(),
    )
}

/// Runs `make()` twice — a `step()` loop and `run()` — in slices and
/// asserts equality at every slice boundary. Returns the cycles `run`
/// skipped.
fn assert_run_matches_step(label: &str, make: &dyn Fn() -> Sim) -> u64 {
    let mut stepped = make();
    let mut skipping = make();
    for slice in 0..SLICES {
        for _ in 0..SLICE_CYCLES {
            stepped.step();
        }
        skipping.run(SLICE_CYCLES);
        assert_eq!(
            observe(&stepped),
            observe(&skipping),
            "{label}: diverged from the step() loop by the end of slice {slice}"
        );
    }
    assert_eq!(stepped.skipped_cycles, 0, "step() never skips");
    let a = format!("{:?}", stepped.finish());
    let b = format!("{:?}", skipping.finish());
    assert_eq!(a, b, "{label}: final statistics diverged");
    skipping.skipped_cycles
}

/// Like [`assert_run_matches_step`], and the skipper must have fired.
fn assert_skip_invisible(label: &str, make: &dyn Fn() -> Sim) {
    let skipped = assert_run_matches_step(label, make);
    assert!(
        skipped > 0,
        "{label}: the skipper never fired — the scenario no longer \
         exercises idle skipping"
    );
}

fn bursty(cols: u8, rows: u8, rate: f64, seed: u64) -> Box<BurstWorkload> {
    Box::new(BurstWorkload::new(
        TrafficPattern::UniformRandom,
        rate,
        512,
        48,
        cols,
        rows,
        0,
        seed,
    ))
}

/// `scheme` on a 4x4 mesh under bursty traffic, built as the experiment
/// runner builds it.
fn bursty_scheme(scheme: Scheme, seed: u64) -> Sim {
    let mut cfg = scheme.configure(NetConfig::synth(4, 2)).with_seed(seed);
    cfg.warmup = 100;
    let wl = bursty(cfg.cols, cfg.rows, 0.25, seed);
    let mech = scheme.mechanism(&cfg);
    Sim::new(cfg, wl, mech)
}

#[test]
fn skip_is_invisible_for_every_scheme_on_bursty_traffic() {
    let schemes = [
        Scheme::Xy,
        Scheme::escape(),
        Scheme::seec(),
        Scheme::mseec(),
        Scheme::Spin,
        Scheme::Drain,
        Scheme::Tfc,
        Scheme::Swap,
    ];
    for (i, scheme) in schemes.into_iter().enumerate() {
        let seed = 11 + i as u64;
        assert_skip_invisible(&format!("bursty {}", scheme.label()), &|| {
            bursty_scheme(scheme, seed)
        });
    }
}

#[test]
fn skip_is_invisible_under_transient_faults() {
    // Flit corruption keeps the link-level retransmission layer live: its
    // unacked windows and wire wheels must all veto or bound the jump.
    assert_skip_invisible("transient faults", &|| {
        let fault = FaultConfig {
            transient_rate: 0.02,
            fault_seed: 0xD1CE,
            ..FaultConfig::default()
        };
        let mut cfg = NetConfig::synth(4, 2)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
            .with_seed(23)
            .with_fault(fault);
        cfg.warmup = 0;
        let wl = bursty(cfg.cols, cfg.rows, 0.20, 23);
        Sim::new(cfg, wl, Box::new(NoMechanism))
    });
}

#[test]
fn skip_is_invisible_under_chaos_schedule_with_recovery() {
    // A mid-run link flap plus armed drain/e2e recovery: the skipper must
    // stop at every scheduled event and stand down whenever recovery or the
    // end-to-end retransmission tables hold state — for a jumping
    // (quiescent) mechanism and a hooks-only (SEEC) one alike.
    for scheme in [Scheme::Adaptive, Scheme::seec()] {
        assert_skip_invisible(&format!("chaos + recovery {}", scheme.label()), &|| {
            let fault = FaultConfig::default().with_schedule(FaultSchedule::link_flap(
                NodeId(5),
                Direction::East,
                1_500,
                4_200,
            ));
            let mut cfg = scheme
                .configure(NetConfig::synth(4, 2))
                .with_seed(37)
                .with_fault(fault)
                .with_recovery(RecoveryConfig::drain().with_e2e(800, 20));
            cfg.warmup = 0;
            let wl = bursty(cfg.cols, cfg.rows, 0.15, 37);
            let mech = scheme.mechanism(&cfg);
            Sim::new(cfg, wl, mech)
        });
    }
}

fn steady(seed: u64) -> Sim {
    let cfg = NetConfig::synth(4, 2)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
        .with_seed(seed);
    let wl = Box::new(SyntheticWorkload::new(
        TrafficPattern::UniformRandom,
        0.10,
        cfg.cols,
        cfg.rows,
        cfg.warmup,
        seed,
    ));
    Sim::new(cfg, wl, Box::new(NoMechanism))
}

#[test]
fn steady_synthetic_never_skips_and_matches_step() {
    // SyntheticWorkload draws RNG per node per cycle, so its conservative
    // `next_activity` pins the clock: the skipper must never fire, and the
    // run must stay identical to the plain loop.
    let skipped = assert_run_matches_step("steady synthetic", &|| steady(41));
    assert_eq!(skipped, 0, "a per-cycle RNG workload must pin the clock");
}

/// How [`Injector`] puts its two packets into the network.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// Through `Network::install_packet` into router input VCs.
    Install,
    /// Pushed straight into router input VCs, bypassing the engine's
    /// occupancy tracking (legal only for a `touches_credits` mechanism).
    Untracked,
    /// On the injection link, arriving 1 and 10 cycles later (the second
    /// push grows a stepped run's wheel, so a wheel whose base lagged
    /// would order the two entries differently).
    Link,
}

/// A non-quiescent test mechanism that is idle except at cycle `at`, when
/// one of its hooks puts two one-flit packets from node 0 to node 15 into
/// a drained network.
struct Injector {
    at: Cycle,
    in_pre: bool,
    site: Site,
    touches: bool,
}

impl Injector {
    fn inject(&self, net: &mut Network) {
        let local = Direction::Local.index();
        for vc in 0..2 {
            let pkt = Packet {
                id: PacketId((1 << 40) + vc as u64),
                src: NodeId(0),
                dest: NodeId(15),
                class: MessageClass(0),
                len_flits: 1,
                birth: net.cycle,
                measured: true,
            };
            let mut flit = Flit::from_packet(&pkt, 0, net.cycle);
            match self.site {
                Site::Install => net.install_packet(NodeId(0), local, vc, vec![flit]),
                Site::Untracked => net.routers[0].inputs[local].vcs[vc].push(flit),
                Site::Link => {
                    flit.vc = vc as u8;
                    net.nics[0].local_claims[vc] = Some(pkt.id);
                    let arrival = net.cycle + 1 + 9 * vc as Cycle;
                    net.inbox_router[0].push(arrival, (local, flit));
                }
            }
        }
    }
}

impl Mechanism for Injector {
    fn kind(&self) -> SchemeKind {
        SchemeKind::None
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        if net.cycle == self.at && self.in_pre {
            self.inject(net);
        }
    }

    fn post_cycle(&mut self, net: &mut Network) {
        if net.cycle == self.at && !self.in_pre {
            self.inject(net);
        }
    }

    fn touches_credits(&self) -> bool {
        self.touches
    }

    fn debug_state(&self) -> String {
        format!(
            "injector at={} pre={} site={:?}",
            self.at, self.in_pre, self.site
        )
    }
}

#[test]
fn hooks_that_make_work_fall_back_to_full_steps() {
    // Mid-stretch, and on the last cycle before a slice boundary.
    for at in [2_345, 2_999] {
        for in_pre in [true, false] {
            for site in [Site::Install, Site::Untracked, Site::Link] {
                for touches in [true, false] {
                    if matches!(site, Site::Untracked) && !touches {
                        continue;
                    }
                    let label = format!("injector at={at} pre={in_pre} {site:?} touches={touches}");
                    let make = || {
                        let cfg = NetConfig::synth(4, 2)
                            .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
                            .with_seed(5);
                        let mech = Injector {
                            at,
                            in_pre,
                            site,
                            touches,
                        };
                        Sim::new(cfg, Box::new(noc_sim::IdleWorkload), Box::new(mech))
                    };
                    assert_skip_invisible(&label, &make);
                    let mut sim = make();
                    sim.run(SLICES * SLICE_CYCLES);
                    assert_eq!(
                        sim.finish().ejected_packets,
                        2,
                        "{label}: both injected packets must be delivered"
                    );
                }
            }
        }
    }
}

/// A non-quiescent, non-`touches_credits` test mechanism that toggles one
/// NIC's ejection reservation every cycle (marking that router's snapshot
/// dirty, as the contract asks) and reads the refreshed snapshot back in
/// `post_cycle`, the way TFC reads its tokens.
#[derive(Default)]
struct Reserver {
    seen: u64,
}

impl Mechanism for Reserver {
    fn kind(&self) -> SchemeKind {
        SchemeKind::None
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let k = (net.cycle % net.nics.len() as Cycle) as usize;
        let ej = &mut net.nics[k].ejection[0];
        ej.reserve = match ej.reserve {
            noc_sim::EjReserve::Free => noc_sim::EjReserve::Held,
            _ => noc_sim::EjReserve::Free,
        };
        net.credit_touch(k);
    }

    fn post_cycle(&mut self, net: &mut Network) {
        let k = (net.cycle % net.nics.len() as Cycle) as usize;
        let free = net.credits.free_count(k, Direction::Local.index()) as u64;
        self.seen = self.seen.wrapping_mul(31).wrapping_add(free);
    }

    fn touches_credits(&self) -> bool {
        false
    }

    fn debug_state(&self) -> String {
        format!("reserver seen={:016x}", self.seen)
    }
}

#[test]
fn snapshot_reads_match_step_for_non_touching_mechanisms() {
    assert_skip_invisible("reserver", &|| {
        let cfg = NetConfig::synth(4, 2)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
            .with_seed(9);
        Sim::new(
            cfg,
            Box::new(noc_sim::IdleWorkload),
            Box::new(Reserver::default()),
        )
    });
}

/// A quiescent mechanism that keeps the conservative `touches_credits`
/// default: the clock jumps, and the jump must leave the blanket
/// invalidation a stepped cycle ends with.
struct QuietToucher;

impl Mechanism for QuietToucher {
    fn kind(&self) -> SchemeKind {
        SchemeKind::None
    }

    fn quiescent(&self) -> bool {
        true
    }
}

#[test]
fn jumps_leave_caches_as_stepping_does() {
    assert_skip_invisible("quiescent touches_credits", &|| {
        let mut cfg = NetConfig::synth(4, 2)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
            .with_seed(13);
        cfg.warmup = 100;
        let wl = bursty(cfg.cols, cfg.rows, 0.25, 13);
        Sim::new(cfg, wl, Box::new(QuietToucher))
    });
}
