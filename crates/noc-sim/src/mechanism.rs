//! The mechanism SPI: how deadlock-freedom / flow-control schemes plug into
//! the simulation loop.
//!
//! A mechanism runs twice per cycle around the routers' compute phase. It may
//! mutate the network freely through the public fields and the forced-move
//! helpers on [`crate::network::Network`]: drain packets out of VCs, install
//! them elsewhere, reserve ejection VCs and link slots, and feed statistics.

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

    /// Whether this mechanism mutates state the per-router credit snapshot
    /// reads: input-VC occupancy, output claims, wormhole in-flight counts,
    /// or NIC ejection VCs / reservations. When `true` (the conservative
    /// default) the engine invalidates every router's snapshot each cycle;
    /// mechanisms that only observe, or only touch in-flight timing, return
    /// `false` to keep the dirty-tracking fast path (the engine then
    /// refreshes only routers marked dirty). A mechanism that mutates a
    /// *known*
    /// node may instead return `false` and call
    /// [`Network::credit_touch`] itself.
    ///
    /// Hooks-only cycles (see [`Mechanism::quiescent`]) refresh the
    /// snapshots of a `true` mechanism once, in the stretch's final cycle,
    /// instead of every cycle: its hooks must not read `net.credits` on a
    /// drained network. A `false` mechanism sees the snapshot exactly as a
    /// stepped run would.
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
