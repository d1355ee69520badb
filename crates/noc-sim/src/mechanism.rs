//! The mechanism SPI: how deadlock-freedom / flow-control schemes plug into
//! the simulation loop.
//!
//! A mechanism runs twice per cycle around the routers' compute phase. It
//! reads the network through its public fields and mutates it through the
//! helpers on [`crate::network::Network`]: drain packets out of VCs
//! ([`Network::drain_packet`]), install them elsewhere
//! ([`Network::install_packet`]), pop Free-Flow-captured flits
//! ([`Network::take_captured`]), set ejection-VC reservations
//! ([`Network::set_ej_reserve`]), deliver into ejection VCs
//! ([`Network::nic_receive`]), reserve link slots, and feed statistics.
//!
//! **The contract:** input-VC buffers, output claims, in-flight counts and
//! NIC ejection VCs change only through those helpers (or, for a known
//! node, followed by [`Network::credit_touch`]). Each helper keeps the
//! per-port occupancy counters exact and marks exactly the credit-snapshot
//! lanes its mutation changes; the engine's snapshot refresh and the
//! parking of stalled routers rely on it. A mechanism that writes those
//! fields directly must answer [`Mechanism::touches_credits`] with `true`.

use crate::network::Network;
use noc_types::{PacketId, SchemeKind};

/// A deadlock-freedom / flow-control scheme.
pub trait Mechanism {
    /// Which scheme this is (for labelling and the area/energy models).
    fn kind(&self) -> SchemeKind;

    /// Runs after flit arrivals and traffic generation, before routers
    /// compute. Seeker movement, FF flit movement, probes and forced moves
    /// happen here; switch allocation this cycle observes the effects.
    fn pre_cycle(&mut self, net: &mut Network) {
        let _ = net;
    }

    /// Runs after routers, injection and consumption.
    fn post_cycle(&mut self, net: &mut Network) {
        let _ = net;
    }

    /// Whether this mechanism mutates state the credit snapshot or the
    /// occupancy counters read — input-VC buffers, output claims, wormhole
    /// in-flight counts, NIC ejection VCs or reservations — *outside* the
    /// `Network` helpers (see the module docs). When `true` (the
    /// conservative default) the engine recounts the occupancy counters
    /// after each hook and invalidates every snapshot lane each cycle, which
    /// also wakes every parked router. Every in-tree mechanism keeps the
    /// contract and returns `false`, so the engine refreshes only the lanes
    /// the helpers marked; the `true` path is the fallback for others.
    fn touches_credits(&self) -> bool {
        true
    }

    /// Idle-cycle skipping input: `true` when `pre_cycle` and `post_cycle`
    /// are guaranteed no-ops — no state mutation, no RNG draws — for as
    /// long as the network itself stays drained (no buffered flit, no link
    /// reservation, no NIC work). Across a quiet horizon the engine then
    /// jumps the clock and runs *nothing*, so answering `true` while
    /// holding a live timer or probe breaks byte-for-byte determinism. The
    /// default `false` is always safe: the engine then runs hooks-only
    /// cycles across the horizon — the two hooks plus the end-of-cycle
    /// bookkeeping, none of the router, injection or consumption phases —
    /// and falls back to a full step as soon as a hook leaves work in the
    /// network.
    fn quiescent(&self) -> bool {
        false
    }

    /// Called by the runtime recovery layer immediately after it has drained
    /// `victim` out of its VC into the recovery channel. The packet no longer
    /// exists anywhere in router buffers; any mechanism state that names it —
    /// a pending escape reservation, an in-flight probe targeting its VC —
    /// must be dropped or reset here, or the mechanism will act on a ghost.
    /// The default assumes the mechanism keeps no per-packet state.
    fn on_recovery_drain(&mut self, net: &mut Network, victim: PacketId) {
        let _ = (net, victim);
    }

    /// A human-readable snapshot of the mechanism's internal state (seeker
    /// tables, tokens, probes in flight, …) for the watchdog's black-box
    /// dump. The default says nothing; schemes with interesting state
    /// override it.
    fn debug_state(&self) -> String {
        String::new()
    }
}

/// The null mechanism: a plain VC router network. Deadlock-free only if the
/// routing algorithm is.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMechanism;

impl Mechanism for NoMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::None
    }

    fn touches_credits(&self) -> bool {
        false
    }

    fn quiescent(&self) -> bool {
        true
    }
}
