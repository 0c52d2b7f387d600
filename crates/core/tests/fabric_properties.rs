//! Property tests on the interconnect fabric, over every topology and
//! every configuration shape `CoreConfig::validate` accepts (2–64
//! clusters, 1–4 buses, 1–4-cycle hops, Hier pair links on and off):
//!
//! * a denied send books nothing;
//! * an idle fabric charges the `DistanceLut` distance, delivered
//!   `distance × hop_latency` cycles later;
//! * an idle fabric grants exactly `n_buses` identical sends per cycle;
//! * an external ledger of (absolute cycle, link) bookings, routed
//!   independently of the fabric, agrees with every grant and denial, so
//!   no link is booked past its capacity in any cycle, across steps of
//!   one cycle and jumps of up to 200;
//! * a reservation window after its last send, a fabric grants every
//!   send as an idle one does.

use std::collections::HashMap;

use proptest::prelude::*;
use rcmc_core::fabric::{hier_group_size, mesh_dims, HIER_INTER_HOPS, RESERVATION_WINDOW};
use rcmc_core::{CoreConfig, DistanceLut, Fabric, Grant, Steering, Topology};

const TOPOLOGIES: [Topology; 5] = [
    Topology::Ring,
    Topology::Conv,
    Topology::Crossbar,
    Topology::Mesh,
    Topology::Hier,
];

/// A configuration drawn from (topology, clusters, buses, hop, pair links);
/// the properties skip the draws `validate` rejects.
fn config() -> impl Strategy<Value = CoreConfig> {
    (
        0usize..5,
        2usize..=64,
        1usize..=4,
        1u32..=4,
        prop::bool::ANY,
    )
        .prop_map(
            |(t, n_clusters, n_buses, hop_latency, hier_pair_links)| CoreConfig {
                topology: TOPOLOGIES[t],
                steering: Steering::ConvDcount,
                n_clusters,
                n_buses,
                hop_latency,
                hier_pair_links,
                ..CoreConfig::default()
            },
        )
}

/// One step of traffic: a send (`kind` < 6), the next cycle (< 9) or a
/// jump of `1 + a % 200` cycles. Endpoints are reduced modulo the cluster count.
fn traffic() -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    prop::collection::vec((0usize..64, 0usize..64, 0u8..10), 1..300)
}

/// `(from, to)` of a drawn step, or `None` when they coincide.
fn endpoints(cfg: &CoreConfig, a: usize, b: usize) -> Option<(usize, usize)> {
    let (from, to) = (a % cfg.n_clusters, b % cfg.n_clusters);
    (from != to).then_some((from, to))
}

/// A booked resource, named independently of the fabric's link layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Link {
    /// Bus `bus`, the segment between clusters `lo` and `lo + 1`.
    Segment {
        bus: usize,
        lo: usize,
    },
    Egress(usize),
    Ingress(usize),
    /// Leaving `cluster` in grid direction `dir` (+x, −x, +y, −y).
    Mesh {
        dir: usize,
        cluster: usize,
    },
    Group(usize),
    /// The inter-group link (shared, or of one unordered group pair).
    Inter(usize, usize),
}

/// The reference model: every booking by absolute cycle and link, and each
/// topology's candidate paths, written out from the topology descriptions.
struct Ledger {
    cfg: CoreConfig,
    now: u64,
    booked: HashMap<(u64, Link), usize>,
}

impl Ledger {
    fn new(cfg: &CoreConfig) -> Self {
        Ledger {
            cfg: cfg.clone(),
            now: 0,
            booked: HashMap::new(),
        }
    }

    /// Bookings one link takes per cycle.
    fn capacity(&self, link: Link) -> usize {
        match link {
            Link::Segment { .. } => 1,
            _ => self.cfg.n_buses,
        }
    }

    /// The candidate paths of `from → to` in try order: `(distance, hops)`
    /// with each hop a link and its cycle offset.
    fn paths(&self, from: usize, to: usize) -> Vec<(u32, Vec<(Link, u64)>)> {
        let (n, hop) = (self.cfg.n_clusters, self.cfg.hop_latency as u64);
        match self.cfg.topology {
            Topology::Ring | Topology::Conv => {
                let mut buses: Vec<(u32, Vec<(Link, u64)>)> = (0..self.cfg.n_buses)
                    .map(|bus| {
                        let forward = self.cfg.topology == Topology::Ring || bus % 2 == 0;
                        let d = if forward {
                            (to + n - from) % n
                        } else {
                            (from + n - to) % n
                        };
                        let hops = (0..d)
                            .map(|j| {
                                let lo = if forward {
                                    (from + j) % n
                                } else {
                                    (from + 2 * n - j - 1) % n
                                };
                                (Link::Segment { bus, lo }, j as u64 * hop)
                            })
                            .collect();
                        (d as u32, hops)
                    })
                    .collect();
                buses.sort_by_key(|p| p.0); // stable: ties keep bus order
                buses
            }
            Topology::Crossbar => vec![(1, vec![(Link::Egress(from), 0), (Link::Ingress(to), 0)])],
            Topology::Mesh => {
                let w = mesh_dims(n).0;
                let (mut x, mut y) = (from % w, from / w);
                let mut hops = Vec::new();
                while x != to % w {
                    let dir = usize::from(to % w < x);
                    hops.push((
                        Link::Mesh {
                            dir,
                            cluster: y * w + x,
                        },
                        hops.len() as u64 * hop,
                    ));
                    x = if dir == 0 { x + 1 } else { x - 1 };
                }
                while y != to / w {
                    let dir = 2 + usize::from(to / w < y);
                    hops.push((
                        Link::Mesh {
                            dir,
                            cluster: y * w + x,
                        },
                        hops.len() as u64 * hop,
                    ));
                    y = if dir == 2 { y + 1 } else { y - 1 };
                }
                vec![(hops.len() as u32, hops)]
            }
            Topology::Hier => {
                let g = hier_group_size(n);
                let (fg, tg) = (from / g, to / g);
                if fg == tg {
                    vec![(1, vec![(Link::Group(fg), 0)])]
                } else {
                    let inter = if self.cfg.hier_pair_links {
                        Link::Inter(fg.min(tg), fg.max(tg))
                    } else {
                        Link::Inter(0, 0)
                    };
                    vec![(HIER_INTER_HOPS, vec![(inter, 0)])]
                }
            }
        }
    }

    /// Book the first path with room on every hop; its distance.
    fn send(&mut self, from: usize, to: usize) -> Option<u32> {
        let now = self.now;
        let (distance, hops) = self.paths(from, to).into_iter().find(|(_, hops)| {
            hops.iter().all(|&(link, offset)| {
                self.booked.get(&(now + offset, link)).copied().unwrap_or(0) < self.capacity(link)
            })
        })?;
        for (link, offset) in hops {
            *self.booked.entry((now + offset, link)).or_insert(0) += 1;
        }
        Some(distance)
    }

    fn advance(&mut self, cycles: u64) {
        self.now += cycles;
        let now = self.now;
        self.booked.retain(|&(t, _), _| t >= now);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn rejected_reservation_leaves_no_residue(cfg in config(), steps in traffic()) {
        prop_assume!(cfg.validate().is_ok());
        let mut fabric = Fabric::new(&cfg);
        let mut now = 0;
        for (a, b, kind) in steps {
            match (kind, endpoints(&cfg, a, b)) {
                (0..=5, Some((from, to))) => {
                    let before = fabric.clone();
                    if fabric.try_send(from, to, now).is_none() {
                        prop_assert!(fabric == before, "denied {from}->{to} booked a lane");
                    }
                }
                _ => now += 1,
            }
        }
    }

    #[test]
    fn an_idle_fabric_charges_the_lut_distance(cfg in config(), pairs in traffic()) {
        prop_assume!(cfg.validate().is_ok());
        let idle = Fabric::new(&cfg);
        let lut = DistanceLut::new(&cfg);
        for (a, b, _) in pairs {
            let Some((from, to)) = endpoints(&cfg, a, b) else { continue };
            let distance = lut.min_distance(from, to);
            prop_assert!(distance >= 1);
            prop_assert_eq!(
                idle.clone().try_send(from, to, 0),
                Some(Grant { delay: distance * cfg.hop_latency, distance }),
                "{:?} {}->{}", cfg.topology, from, to
            );
        }
    }

    #[test]
    fn an_idle_fabric_grants_n_buses_identical_sends_per_cycle(
        cfg in config(),
        a in 0usize..64,
        b in 0usize..64,
    ) {
        prop_assume!(cfg.validate().is_ok());
        let Some((from, to)) = endpoints(&cfg, a, b) else { continue };
        let mut fabric = Fabric::new(&cfg);
        for i in 0..cfg.n_buses {
            prop_assert!(fabric.try_send(from, to, 0).is_some(), "send {i} of {from}->{to} denied");
        }
        prop_assert!(fabric.try_send(from, to, 0).is_none(), "{from}->{to} past n_buses granted");
    }

    #[test]
    fn no_link_slot_is_double_booked(cfg in config(), steps in traffic()) {
        prop_assume!(cfg.validate().is_ok());
        let mut fabric = Fabric::new(&cfg);
        let mut ledger = Ledger::new(&cfg);
        let mut now = 0;
        for (a, b, kind) in steps {
            match (kind, endpoints(&cfg, a, b)) {
                (0..=5, Some((from, to))) => {
                    let expected = ledger.send(from, to).map(|distance| Grant {
                        delay: distance * cfg.hop_latency,
                        distance,
                    });
                    prop_assert_eq!(fabric.try_send(from, to, now), expected, "{}->{}", from, to);
                }
                (0..=8, _) => {
                    now += 1;
                    ledger.advance(1);
                }
                _ => {
                    let k = 1 + a as u64 % 200;
                    now += k;
                    ledger.advance(k);
                }
            }
        }
    }

    #[test]
    fn conv_backward_bus_mirrors_forward(n in 2usize..=64, a in 0usize..64, b in 0usize..64) {
        let cfg = CoreConfig {
            topology: Topology::Conv,
            n_clusters: n,
            n_buses: 2,
            ..CoreConfig::default()
        };
        let Some((from, to)) = endpoints(&cfg, a, b) else { continue };
        // Both directions are granted in one cycle: the shorter one first.
        let forward = ((to + n - from) % n) as u32;
        let backward = n as u32 - forward;
        let mut fabric = Fabric::new(&cfg);
        prop_assert_eq!(fabric.try_send(from, to, 0).map(|g| g.distance), Some(forward.min(backward)));
        prop_assert_eq!(fabric.try_send(from, to, 0).map(|g| g.distance), Some(forward.max(backward)));
    }

    #[test]
    fn saturation_and_drain(cfg in config(), steps in traffic(), idle_for in 0u64..1000) {
        // Whatever the traffic, from a reservation window after its last
        // send on the fabric grants every send as an idle fabric does.
        prop_assume!(cfg.validate().is_ok());
        let mut fabric = Fabric::new(&cfg);
        let idle = fabric.clone();
        let mut now = 0;
        for &(a, b, kind) in &steps {
            match (kind, endpoints(&cfg, a, b)) {
                (0..=7, Some((from, to))) => {
                    fabric.try_send(from, to, now);
                }
                _ => now += 1,
            }
        }
        let later = now + RESERVATION_WINDOW as u64 + idle_for;
        for (a, b, _) in steps {
            let Some((from, to)) = endpoints(&cfg, a, b) else { continue };
            prop_assert_eq!(
                fabric.clone().try_send(from, to, later),
                idle.clone().try_send(from, to, 0),
                "{:?} {}->{} at cycle {}", cfg.topology, from, to, later
            );
        }
    }
}
