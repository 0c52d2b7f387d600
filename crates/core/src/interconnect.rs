//! The pluggable cluster-to-cluster interconnect layer.
//!
//! Everything the pipeline needs from the communication substrate is one
//! operation: *try to move a value from cluster `from` to cluster `to`
//! starting this cycle*. An implementation owns its own arbitration state
//! (bus-segment reservations, crossbar ports, ...) and answers with a
//! [`Grant`] — the delivery delay plus the hop distance actually travelled —
//! or `None` when every path is busy, in which case the communication keeps
//! waiting in its queue (that waiting is the contention metric of Figure 9).
//!
//! Implementations:
//!
//! * [`crate::bus::BusFabric`] — the paper's segmented pipelined buses, used
//!   by both [`Topology::Ring`] (all buses forward) and [`Topology::Conv`]
//!   (alternating forward/backward);
//! * [`Crossbar`] — a beyond-paper full point-to-point switch where every
//!   pair of clusters is one hop apart and arbitration is per-cluster
//!   ingress/egress ports;
//! * [`Mesh2D`] — a beyond-paper 2D mesh with XY (dimension-ordered)
//!   routing, wormhole-style per-link reservation, and Manhattan-distance
//!   delays;
//! * [`Hier`] — a beyond-paper hierarchy of clusters-of-clusters: a cheap
//!   single-hop bus inside every group, one expensive shared link between
//!   groups.
//!
//! Distance/topology *queries* (what steering minimizes) stay on
//! [`CoreConfig`] — they are pure functions of the configuration; the trait
//! owns only the dynamic arbitration.

use crate::bus::BusFabric;
use crate::config::{hier_group_size, mesh_dims, CoreConfig, Topology, HIER_INTER_HOPS};

/// A granted communication: the pipeline schedules delivery `delay` cycles
/// from now and charges `distance` hops to the Figure 8 statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Cycles from the grant to the value being readable at the destination.
    pub delay: u32,
    /// Hops travelled (the Figure 8 distance metric).
    pub distance: u32,
}

/// One cluster-to-cluster communication substrate.
///
/// Contract: `try_send` is called only for `from != to`, any number of times
/// per cycle; `tick` is called exactly once per simulated cycle after all
/// `try_send` attempts. A `None` answer must leave no arbitration residue
/// (the caller will retry the identical request next cycle).
/// The fabric's one obligation to the event-driven run loop is
/// [`advance`](Interconnect::advance): the loop only skips cycles in which
/// no communication waits to be sent, and replays them with one `advance`
/// call.
pub trait Interconnect: Send {
    /// Advance the arbitration state one cycle.
    fn tick(&mut self);

    /// Try to start a communication from `from` to `to` this cycle.
    fn try_send(&mut self, from: usize, to: usize) -> Option<Grant>;

    /// Replay `cycles` consecutive ticks with no intervening `try_send`
    /// traffic. Must be observationally identical to calling [`tick`]
    /// (`Interconnect::tick`) `cycles` times, ideally as an O(1) jump.
    fn advance(&mut self, cycles: u64);
}

/// Build the interconnect the configuration asks for.
pub fn build(cfg: &CoreConfig) -> Box<dyn Interconnect> {
    match cfg.topology {
        Topology::Ring | Topology::Conv => Box::new(BusFabric::new(cfg)),
        Topology::Crossbar => Box::new(Crossbar::new(cfg)),
        Topology::Mesh => Box::new(Mesh2D::new(cfg)),
        Topology::Hier => Box::new(Hier::new(cfg)),
    }
}

/// Full point-to-point crossbar: every cluster pair is directly linked, so
/// a message always travels exactly one hop (`hop_latency` cycles).
///
/// Arbitration is port-based instead of segment-based: each cluster has
/// `n_buses` egress ports and `n_buses` ingress ports, and a message claims
/// one of each *in its entry cycle only* (the switch is fully pipelined, so
/// in-flight messages never block later ones). This makes `n_buses` the
/// per-cluster communication bandwidth, mirroring its meaning for the bus
/// fabrics.
pub struct Crossbar {
    /// Egress ports used this cycle, per source cluster (`n_clusters` long).
    egress: Box<[u8]>,
    /// Ingress ports used this cycle, per destination cluster.
    ingress: Box<[u8]>,
    /// Ports per cluster per direction (= `n_buses`).
    ports: u8,
    hop_latency: u32,
}

impl Crossbar {
    /// Build per the configuration (`n_buses` ports per cluster/direction).
    pub fn new(cfg: &CoreConfig) -> Self {
        Crossbar {
            egress: vec![0; cfg.n_clusters].into_boxed_slice(),
            ingress: vec![0; cfg.n_clusters].into_boxed_slice(),
            ports: cfg.n_buses as u8,
            hop_latency: cfg.hop_latency,
        }
    }
}

impl Interconnect for Crossbar {
    fn tick(&mut self) {
        self.egress.fill(0);
        self.ingress.fill(0);
    }

    fn try_send(&mut self, from: usize, to: usize) -> Option<Grant> {
        debug_assert_ne!(from, to, "communication to the same cluster");
        if self.egress[from] < self.ports && self.ingress[to] < self.ports {
            self.egress[from] += 1;
            self.ingress[to] += 1;
            Some(Grant {
                delay: self.hop_latency,
                distance: 1,
            })
        } else {
            None
        }
    }

    fn advance(&mut self, _cycles: u64) {
        self.tick(); // one reset == any number of trafficless ticks
    }
}

/// Reservation window for mesh links: one slot per future cycle.
/// [`CoreConfig::validate`] guarantees the longest XY route fits.
const MESH_WINDOW: usize = crate::config::RESERVATION_WINDOW;

/// 2D mesh with XY (dimension-ordered) routing.
///
/// Clusters sit on the [`mesh_dims`] grid (row-major). A message travels
/// all of its X hops first, then its Y hops — deterministic and
/// deadlock-free — and reserves every directed link of its path
/// wormhole-style at the cycle it will traverse it (offset `j·L` for hop
/// `j`, like the segmented buses: fully pipelined, so a link accepts a new
/// message every cycle). Each directed link has `n_buses` ports per cycle,
/// mirroring the bandwidth meaning of `n_buses` on the other fabrics.
pub struct Mesh2D {
    w: usize,
    n: usize,
    ports: u8,
    hop_latency: u32,
    /// Rotating origin of the per-link occupancy windows.
    head: usize,
    /// Occupancy counts per directed link and future cycle:
    /// `links[dir * n + cluster][(head + offset) % MESH_WINDOW]`, where
    /// `dir` is 0 = +x, 1 = −x, 2 = +y, 3 = −y leaving `cluster`.
    links: Vec<[u8; MESH_WINDOW]>,
}

impl Mesh2D {
    /// Build per the configuration (`n_buses` ports per directed link).
    pub fn new(cfg: &CoreConfig) -> Self {
        let n = cfg.n_clusters;
        let (w, h) = mesh_dims(n);
        let max_path = (w - 1 + h - 1).max(1) as u64;
        // Backstop only: `CoreConfig::validate` rejects these configs first.
        assert!(
            max_path * (cfg.hop_latency as u64) < MESH_WINDOW as u64,
            "mesh reservation window too small"
        );
        Mesh2D {
            w,
            n,
            ports: cfg.n_buses as u8,
            hop_latency: cfg.hop_latency,
            head: 0,
            links: vec![[0u8; MESH_WINDOW]; 4 * n],
        }
    }

    /// The directed link leaving `cluster` toward grid direction `dir`
    /// (0 = +x, 1 = −x, 2 = +y, 3 = −y).
    #[inline]
    fn link(&self, dir: usize, cluster: usize) -> usize {
        dir * self.n + cluster
    }

    /// Walk the XY route from `from` to `to`, yielding each hop's directed
    /// link in traversal order.
    fn xy_route(&self, from: usize, to: usize, mut visit: impl FnMut(usize)) {
        let (tx, ty) = (to % self.w, to / self.w);
        let (mut x, mut y) = (from % self.w, from / self.w);
        while x != tx {
            let dir = if tx > x { 0 } else { 1 };
            visit(self.link(dir, y * self.w + x));
            if tx > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != ty {
            let dir = if ty > y { 2 } else { 3 };
            visit(self.link(dir, y * self.w + x));
            if ty > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
    }

    #[inline]
    fn slot(&self, offset: u32) -> usize {
        (self.head + offset as usize) % MESH_WINDOW
    }
}

impl Interconnect for Mesh2D {
    fn tick(&mut self) {
        // The slot at `head` (offset 0) expires; zero it so it is clean when
        // it wraps around to represent offset MESH_WINDOW-1.
        for l in &mut self.links {
            l[self.head] = 0;
        }
        self.head = (self.head + 1) % MESH_WINDOW;
    }

    fn try_send(&mut self, from: usize, to: usize) -> Option<Grant> {
        debug_assert_ne!(from, to, "communication to the same cluster");
        // Check the whole XY path first (no residue on failure), recording
        // the links so a grant commits without walking the route again.
        let mut free = true;
        let mut hop = 0u32;
        let mut route = [0usize; MESH_WINDOW];
        self.xy_route(from, to, |link| {
            let s = (self.head + (hop * self.hop_latency) as usize) % MESH_WINDOW;
            free &= self.links[link][s] < self.ports;
            route[hop as usize] = link;
            hop += 1;
        });
        if !free {
            return None;
        }
        let dist = hop;
        for (j, &link) in route.iter().enumerate().take(dist as usize) {
            let s = self.slot(j as u32 * self.hop_latency);
            self.links[link][s] += 1;
        }
        Some(Grant {
            delay: dist * self.hop_latency,
            distance: dist,
        })
    }

    fn advance(&mut self, cycles: u64) {
        let k = cycles.min(MESH_WINDOW as u64) as usize;
        for i in 0..k {
            let s = (self.head + i) % MESH_WINDOW;
            for l in &mut self.links {
                l[s] = 0;
            }
        }
        self.head = (self.head + (cycles % MESH_WINDOW as u64) as usize) % MESH_WINDOW;
    }
}

/// Hierarchical clusters-of-clusters.
///
/// Every group of [`hier_group_size`] clusters shares one cheap local bus
/// (single hop, `n_buses` slots per cycle). Inter-group traffic takes the
/// expensive global path ([`HIER_INTER_HOPS`] hops): by default one link
/// shared by *all* group pairs (`n_buses` slots per cycle total — the
/// deliberate bottleneck that makes cross-group placement expensive for
/// steering), or, with [`CoreConfig::hier_pair_links`], a dedicated link
/// pool per unordered group pair (`n_buses` slots per pair per cycle).
/// Arbitration is entry-cycle only (the fabric is fully pipelined, like
/// [`Crossbar`]).
pub struct Hier {
    group_size: usize,
    n_groups: usize,
    ports: u8,
    hop_latency: u32,
    /// Dedicated per-pair inter-group links instead of one shared link.
    pair_links: bool,
    /// Local-bus slots used this cycle, per group.
    intra_used: Box<[u8]>,
    /// Inter-group slots used this cycle: one shared counter at index 0
    /// when `!pair_links`, else indexed `min(g) * n_groups + max(g)`.
    inter_used: Box<[u8]>,
}

impl Hier {
    /// Build per the configuration (`n_buses` slots per bus/link).
    pub fn new(cfg: &CoreConfig) -> Self {
        let group_size = hier_group_size(cfg.n_clusters);
        let n_groups = cfg.n_clusters.div_ceil(group_size);
        let inter_slots = if cfg.hier_pair_links {
            n_groups * n_groups
        } else {
            1
        };
        Hier {
            group_size,
            n_groups,
            ports: cfg.n_buses as u8,
            hop_latency: cfg.hop_latency,
            pair_links: cfg.hier_pair_links,
            intra_used: vec![0; n_groups].into_boxed_slice(),
            inter_used: vec![0; inter_slots].into_boxed_slice(),
        }
    }
}

impl Interconnect for Hier {
    fn tick(&mut self) {
        self.intra_used.fill(0);
        self.inter_used.fill(0);
    }

    fn try_send(&mut self, from: usize, to: usize) -> Option<Grant> {
        debug_assert_ne!(from, to, "communication to the same cluster");
        let (fg, tg) = (from / self.group_size, to / self.group_size);
        if fg == tg {
            if self.intra_used[fg] < self.ports {
                self.intra_used[fg] += 1;
                return Some(Grant {
                    delay: self.hop_latency,
                    distance: 1,
                });
            }
            return None;
        }
        let slot = if self.pair_links {
            fg.min(tg) * self.n_groups + fg.max(tg)
        } else {
            0
        };
        if self.inter_used[slot] < self.ports {
            self.inter_used[slot] += 1;
            Some(Grant {
                delay: self.hop_latency * HIER_INTER_HOPS,
                distance: HIER_INTER_HOPS,
            })
        } else {
            None
        }
    }

    fn advance(&mut self, _cycles: u64) {
        self.tick(); // one reset == any number of trafficless ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Steering;

    fn xbar(n_buses: usize, hop: u32) -> Crossbar {
        Crossbar::new(&CoreConfig {
            topology: Topology::Crossbar,
            steering: Steering::ConvDcount,
            n_buses,
            hop_latency: hop,
            ..CoreConfig::default()
        })
    }

    #[test]
    fn crossbar_every_pair_is_one_hop() {
        let mut x = xbar(1, 2);
        let g = x.try_send(0, 7).unwrap();
        assert_eq!(
            g,
            Grant {
                delay: 2,
                distance: 1
            }
        );
        // A disjoint pair is independent the same cycle.
        assert!(x.try_send(3, 4).is_some());
    }

    #[test]
    fn crossbar_egress_port_conflict() {
        let mut x = xbar(1, 1);
        assert!(x.try_send(2, 5).is_some());
        // Same source, different destination: egress port taken.
        assert!(x.try_send(2, 6).is_none());
        x.tick();
        assert!(x.try_send(2, 6).is_some());
    }

    #[test]
    fn crossbar_ingress_port_conflict() {
        let mut x = xbar(1, 1);
        assert!(x.try_send(1, 4).is_some());
        // Different source, same destination: ingress port taken.
        assert!(x.try_send(7, 4).is_none());
        x.tick();
        assert!(x.try_send(7, 4).is_some());
    }

    #[test]
    fn crossbar_port_count_scales_bandwidth() {
        let mut x = xbar(2, 1);
        assert!(x.try_send(0, 1).is_some());
        assert!(x.try_send(0, 2).is_some());
        assert!(x.try_send(0, 3).is_none(), "two egress ports only");
        assert!(x.try_send(5, 1).is_some());
        assert!(x.try_send(6, 1).is_none(), "two ingress ports only");
    }

    #[test]
    fn crossbar_rejection_leaves_no_residue() {
        let mut x = xbar(1, 1);
        assert!(x.try_send(0, 1).is_some());
        assert!(x.try_send(0, 2).is_none());
        x.tick();
        // Both the granted and the rejected path are free next cycle.
        assert!(x.try_send(0, 2).is_some());
        assert!(x.try_send(3, 1).is_some());
    }

    #[test]
    fn factory_picks_the_topology() {
        // Smoke: the factory builds without panicking for all five and the
        // result routes a basic message.
        for topo in [
            Topology::Ring,
            Topology::Conv,
            Topology::Crossbar,
            Topology::Mesh,
            Topology::Hier,
        ] {
            let cfg = CoreConfig {
                topology: topo,
                ..CoreConfig::default()
            };
            let mut ic = build(&cfg);
            assert!(ic.try_send(0, 1).is_some(), "{topo:?}");
            ic.tick();
        }
    }

    fn mesh(n_clusters: usize, n_buses: usize, hop: u32) -> Mesh2D {
        Mesh2D::new(&CoreConfig {
            topology: Topology::Mesh,
            steering: Steering::ConvDcount,
            n_clusters,
            n_buses,
            hop_latency: hop,
            ..CoreConfig::default()
        })
    }

    #[test]
    fn mesh_grants_manhattan_distances() {
        // 8 clusters -> 4×2 grid: cluster 0 = (0,0), 7 = (3,1).
        let mut m = mesh(8, 1, 1);
        assert_eq!(
            m.try_send(0, 7).unwrap(),
            Grant {
                delay: 4,
                distance: 4
            }
        );
        m.tick();
        // Same row: pure X route. 4 -> 6 is (0,1) -> (2,1): 2 hops.
        assert_eq!(
            m.try_send(4, 6).unwrap(),
            Grant {
                delay: 2,
                distance: 2
            }
        );
        // Same column: pure Y route. 1 -> 5 is (1,0) -> (1,1): 1 hop.
        assert_eq!(
            m.try_send(1, 5).unwrap(),
            Grant {
                delay: 1,
                distance: 1
            }
        );
    }

    #[test]
    fn mesh_hop_latency_scales_delay_not_distance() {
        let mut m = mesh(8, 1, 2);
        assert_eq!(
            m.try_send(0, 3).unwrap(),
            Grant {
                delay: 6,
                distance: 3
            }
        );
    }

    #[test]
    fn mesh_xy_routes_share_the_first_link() {
        // Both 0->2 and 0->5 leave cluster 0 eastward (XY: X first), so the
        // second message loses the link-0-east port this cycle.
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 2).is_some());
        assert!(m.try_send(0, 5).is_none(), "0->5 goes east first under XY");
        m.tick();
        assert!(m.try_send(0, 5).is_some(), "link free again next cycle");
    }

    #[test]
    fn mesh_trailing_message_conflicts_midpath() {
        // A 0->2 message occupies link 1->2 at offset 1. Next cycle a 1->2
        // message wants that link at offset 0 — the same absolute cycle.
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 2).is_some());
        m.tick();
        assert!(
            m.try_send(1, 2).is_none(),
            "in-flight message owns the link"
        );
        assert!(m.try_send(0, 1).is_some(), "link 0->1 is free again");
        m.tick();
        assert!(m.try_send(1, 2).is_some());
    }

    #[test]
    fn mesh_opposite_directions_are_independent() {
        // 1->0 (west) and 0->1 (east) use different directed links.
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 1).is_some());
        assert!(m.try_send(1, 0).is_some());
    }

    #[test]
    fn mesh_rejection_leaves_no_residue() {
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 1).is_some());
        // Denied: wants the same eastward link out of 0.
        assert!(m.try_send(0, 2).is_none());
        m.tick();
        // Nothing of the denied attempt lingers.
        assert!(m.try_send(0, 2).is_some());
    }

    #[test]
    fn mesh_ports_scale_link_bandwidth() {
        let mut m = mesh(8, 2, 1);
        assert!(m.try_send(0, 1).is_some());
        assert!(m.try_send(0, 2).is_some());
        assert!(m.try_send(0, 3).is_none(), "two ports per link only");
    }

    #[test]
    fn mesh_degenerate_line_still_routes() {
        // 5 clusters is prime -> 5×1 line; the full walk is 4 hops.
        let mut m = mesh(5, 1, 1);
        assert_eq!(
            m.try_send(0, 4).unwrap(),
            Grant {
                delay: 4,
                distance: 4
            }
        );
        assert_eq!(
            m.try_send(4, 3).unwrap(),
            Grant {
                delay: 1,
                distance: 1
            }
        );
    }

    fn hier(n_clusters: usize, n_buses: usize, hop: u32) -> Hier {
        Hier::new(&CoreConfig {
            topology: Topology::Hier,
            steering: Steering::ConvDcount,
            n_clusters,
            n_buses,
            hop_latency: hop,
            ..CoreConfig::default()
        })
    }

    #[test]
    fn hier_intra_group_is_one_cheap_hop() {
        // 8 clusters -> 2 groups of 4 (0..4 and 4..8).
        let mut h = hier(8, 1, 1);
        assert_eq!(
            h.try_send(0, 3).unwrap(),
            Grant {
                delay: 1,
                distance: 1
            }
        );
        // The other group's local bus is independent this same cycle.
        assert_eq!(
            h.try_send(5, 6).unwrap(),
            Grant {
                delay: 1,
                distance: 1
            }
        );
        // But a second message on the *same* group's bus is denied.
        assert!(h.try_send(1, 2).is_none());
        h.tick();
        assert!(h.try_send(1, 2).is_some());
    }

    #[test]
    fn hier_inter_group_link_is_expensive_and_shared() {
        let mut h = hier(8, 1, 2);
        assert_eq!(
            h.try_send(0, 5).unwrap(),
            Grant {
                delay: 2 * HIER_INTER_HOPS,
                distance: HIER_INTER_HOPS
            }
        );
        // One global link: a second cross-group message — even between
        // different group pairs — waits.
        assert!(h.try_send(7, 2).is_none());
        // Intra-group traffic is unaffected by the saturated global link.
        assert!(h.try_send(1, 2).is_some());
        h.tick();
        assert!(h.try_send(7, 2).is_some());
    }

    #[test]
    fn mesh_advance_equals_repeated_ticks() {
        for k in [1u64, 3, 17, MESH_WINDOW as u64 - 1, MESH_WINDOW as u64 + 5] {
            let mut a = mesh(8, 1, 2);
            let mut b = mesh(8, 1, 2);
            for f in [a.try_send(0, 7), b.try_send(0, 7)] {
                assert!(f.is_some());
            }
            assert!(a.try_send(2, 6).is_some());
            assert!(b.try_send(2, 6).is_some());
            for _ in 0..k {
                a.tick();
            }
            b.advance(k);
            // Observationally identical: every pair answers the same.
            for from in 0..8 {
                for to in 0..8 {
                    if from == to {
                        continue;
                    }
                    assert_eq!(
                        a.try_send(from, to),
                        b.try_send(from, to),
                        "advance({k}) diverged on ({from},{to})"
                    );
                }
            }
        }
    }

    #[test]
    fn crossbar_and_hier_advance_reset_like_ticks() {
        let mut x = xbar(1, 1);
        assert!(x.try_send(0, 1).is_some());
        x.advance(100);
        assert!(x.try_send(0, 2).is_some(), "ports reset by advance");

        let mut h = hier(8, 1, 1);
        assert!(h.try_send(0, 5).is_some());
        h.advance(100);
        assert!(h.try_send(7, 2).is_some(), "global link reset by advance");
    }

    #[test]
    fn hier_ports_scale_both_levels() {
        let mut h = hier(8, 2, 1);
        assert!(h.try_send(0, 4).is_some());
        assert!(h.try_send(1, 5).is_some());
        assert!(h.try_send(2, 6).is_none(), "two inter-group slots only");
        assert!(h.try_send(0, 1).is_some());
        assert!(h.try_send(2, 3).is_some());
        assert!(h.try_send(0, 2).is_none(), "two local-bus slots only");
    }

    fn hier_pair(n_clusters: usize, n_buses: usize, hop: u32) -> Hier {
        Hier::new(&CoreConfig {
            topology: Topology::Hier,
            steering: Steering::ConvDcount,
            n_clusters,
            n_buses,
            hop_latency: hop,
            hier_pair_links: true,
            ..CoreConfig::default()
        })
    }

    #[test]
    fn hier_pair_links_give_each_group_pair_its_own_pool() {
        // 16 clusters -> 4 groups of 4. With per-pair links, traffic on
        // different group pairs no longer contends.
        let mut h = hier_pair(16, 1, 2);
        assert_eq!(
            h.try_send(0, 5).unwrap(), // pair (0,1)
            Grant {
                delay: 2 * HIER_INTER_HOPS,
                distance: HIER_INTER_HOPS
            }
        );
        assert!(h.try_send(9, 14).is_some(), "pair (2,3) is independent");
        // The same unordered pair still shares one pool, direction-blind:
        // 4->1 is group pair (0,1) again, already taken by 0->5.
        assert!(h.try_send(4, 1).is_none(), "pair (0,1) pool exhausted");
        h.tick();
        assert!(h.try_send(4, 1).is_some());
    }

    #[test]
    fn hier_pair_links_scale_with_ports() {
        let mut h = hier_pair(8, 2, 1);
        assert!(h.try_send(0, 4).is_some());
        assert!(h.try_send(1, 5).is_some());
        assert!(h.try_send(2, 6).is_none(), "two slots per pair only");
        h.advance(10);
        assert!(h.try_send(2, 6).is_some(), "pair pools reset by advance");
    }
}
