//! The invariant layer on every mechanism (run with
//! `--features noc-sim/check-invariants`; without it the tests return at
//! once).
//!
//! All nine VC-router schemes, built as the experiment runner builds them,
//! on 4x4 and 8x8 meshes under virtual cut-through and depth-2 wormhole
//! buffering, below and past the saturation knee. Every case must finish
//! with a clean end-of-cycle sweep: occupancy bounds, credit and claim
//! consistency, occupancy counters, every clean credit-snapshot lane equal
//! to a fresh recompute, and every parked router provably inert.

use noc_experiments::runner::Scheme;
use noc_sim::Sim;
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::NetConfig;

fn schemes() -> [Scheme; 9] {
    [
        Scheme::Xy,
        Scheme::WestFirst,
        Scheme::escape(),
        Scheme::Tfc,
        Scheme::Spin,
        Scheme::Swap,
        Scheme::Drain,
        Scheme::seec(),
        Scheme::mseec(),
    ]
}

/// Runs every scheme at each of `rates` on a `k`x`k` mesh and asserts a
/// clean invariant record.
fn matrix(k: u8, wormhole: bool, rates: [f64; 2], cycles: u64) {
    if !noc_sim::CHECKS_INVARIANTS {
        eprintln!("invariant layer not compiled in: run with --features noc-sim/check-invariants");
        return;
    }
    for scheme in schemes() {
        for rate in rates {
            let mut cfg = scheme.configure(NetConfig::synth(k, 2)).with_seed(17);
            if wormhole {
                cfg = cfg.with_wormhole(2);
            }
            cfg.warmup = 200;
            let wl = Box::new(SyntheticWorkload::new(
                TrafficPattern::UniformRandom,
                rate,
                cfg.cols,
                cfg.rows,
                cfg.warmup,
                17,
            ));
            let mech = scheme.mechanism(&cfg);
            let mut sim = Sim::new(cfg, wl, mech);
            sim.run(cycles);
            // Past the knee some schemes wedge under wormhole buffering;
            // the sweep still covers the cycles that led there.
            assert!(
                sim.net.stats.link_flit_hops > 0,
                "{} {k}x{k} wormhole={wormhole} @{rate}: no flit moved",
                scheme.label()
            );
            sim.net.assert_invariants_clean();
        }
    }
}

#[test]
fn every_scheme_4x4_virtual_cut_through() {
    matrix(4, false, [0.05, 0.30], 2_000);
}

#[test]
fn every_scheme_4x4_wormhole() {
    matrix(4, true, [0.05, 0.30], 2_000);
}

#[test]
fn every_scheme_8x8_virtual_cut_through() {
    matrix(8, false, [0.03, 0.12], 1_500);
}

#[test]
fn every_scheme_8x8_wormhole() {
    matrix(8, true, [0.03, 0.12], 1_500);
}
