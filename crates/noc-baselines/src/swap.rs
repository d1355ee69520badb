//! SWAP (Parasar et al., MICRO '19) — subactive deadlock freedom by
//! periodically *swapping* a blocked packet with the packet occupying the
//! downstream buffer it wants. The blocked packet makes guaranteed forward
//! progress; the displaced packet is misrouted one hop backwards and
//! re-routes from its new position. Periodic swaps guarantee any dependency
//! cycle is eventually perturbed away without detection.

use noc_sim::network::Network;
use noc_sim::routing::candidates;
use noc_sim::Mechanism;
use noc_types::{Cycle, NodeId, SchemeKind};

/// The SWAP baseline mechanism.
pub struct SwapMechanism {
    /// Swap timer period (the artifact's `--whenToSwap`, default 1024).
    pub period: Cycle,
    /// How long a head must have been blocked to be eligible.
    pub min_wait: Cycle,
    /// Diagnostics.
    pub swaps_done: u64,
}

impl SwapMechanism {
    pub fn new(period: Cycle) -> SwapMechanism {
        SwapMechanism {
            period,
            min_wait: period / 2,
            swaps_done: 0,
        }
    }

    pub fn for_net(_cfg: &noc_types::NetConfig) -> SwapMechanism {
        SwapMechanism::new(1024)
    }
}

impl Mechanism for SwapMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Swap
    }

    /// SWAP exchanges packets only through `drain_packet` / `install_packet`,
    /// which mark exactly the snapshot lanes they change.
    fn touches_credits(&self) -> bool {
        false
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let now = net.cycle;
        if now == 0 || !now.is_multiple_of(self.period) {
            return;
        }
        // One swap per router per event, scanning ports/VCs in order.
        let n = net.routers.len();
        for i in 0..n {
            let node = NodeId(i as u16);
            let mut chosen: Option<(usize, usize, NodeId, usize, usize)> = None;
            'scan: for p in 0..net.routers[i].inputs.len() {
                for v in 0..net.routers[i].inputs[p].vcs.len() {
                    let vc = &net.routers[i].inputs[p].vcs[v];
                    let Some(since) = vc.head_wait_since else {
                        continue;
                    };
                    if now.saturating_sub(since) < self.min_wait
                        || !vc.packet_fully_buffered()
                        || vc.route.is_some()
                    {
                        continue;
                    }
                    let front = vc.front().unwrap();
                    let dest = front.dest.to_coord(net.cfg.cols);
                    if dest == net.routers[i].coord {
                        continue; // ejection-blocked; swap cannot help
                    }
                    let algo = if vc.is_escape_resident {
                        noc_types::BaseRouting::WestFirst
                    } else {
                        net.cfg.routing.normal()
                    };
                    let vnet = net.cfg.vnet_of(front.class);
                    let range = net.cfg.vc_range(vnet);
                    for &d in candidates(algo, net.routers[i].coord, dest).as_slice() {
                        let Some(nb) = net.neighbor(node, d) else {
                            continue;
                        };
                        let their_in = d.opposite().index();
                        // Victim: a fully-buffered blocked packet downstream
                        // in the same VNet.
                        for dv in range.clone() {
                            let dvc = &net.routers[nb.idx()].inputs[their_in].vcs[dv];
                            if dvc.packet_fully_buffered()
                                && dvc.route.is_none()
                                && dvc
                                    .front()
                                    .is_some_and(|f| net.cfg.vnet_of(f.class) == vnet)
                            {
                                chosen = Some((p, v, nb, their_in, dv));
                                break 'scan;
                            }
                        }
                    }
                }
            }
            if let Some((p, v, nb, p2, v2)) = chosen {
                // Atomic pairwise exchange.
                let mut a = net.drain_packet(node, p, v);
                let mut b = net.drain_packet(nb, p2, v2);
                let fwd_productive = {
                    let f = &a[0];
                    let before = node
                        .to_coord(net.cfg.cols)
                        .manhattan(f.dest.to_coord(net.cfg.cols));
                    let after = nb
                        .to_coord(net.cfg.cols)
                        .manhattan(f.dest.to_coord(net.cfg.cols));
                    after < before
                };
                for f in &mut a {
                    f.hops = f.hops.saturating_add(1);
                }
                for f in &mut b {
                    f.hops = f.hops.saturating_add(1);
                }
                net.stats.link_flit_hops += (a.len() + b.len()) as u64;
                net.stats.forced_moves += 2;
                if !fwd_productive {
                    net.stats.misroute_hops += a.len() as u64;
                }
                // The displaced packet always misroutes (it moves upstream,
                // away from where it was heading).
                net.stats.misroute_hops += b.len() as u64;
                net.install_packet(nb, p2, v2, a);
                net.install_packet(node, p, v, b);
                self.swaps_done += 1;
                net.stats.recovery_events += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::NetConfig;

    #[test]
    fn quiet_network_never_swaps() {
        let cfg = NetConfig::synth(4, 2);
        let mut net = Network::new(cfg.clone());
        let mut swap = SwapMechanism::for_net(&cfg);
        for c in 0..3000 {
            net.cycle = c;
            swap.pre_cycle(&mut net);
        }
        assert_eq!(swap.swaps_done, 0);
    }
}
