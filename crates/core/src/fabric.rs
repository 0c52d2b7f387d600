//! The cluster interconnect: one table of link reservations, and one route
//! function per topology.
//!
//! Every arbitration resource of every topology is a *link* with `lanes`
//! reservation windows. A window is a `u128` anchored at its link's `since`
//! cycle: bit `t` set means the lane is taken in cycle `since + t`. The
//! fabric keeps no clock of its own; [`Fabric::try_send`] takes the current
//! cycle, and only booking moves a link's anchor on to it. A topology is
//! only a route function: for a `from → to` communication it lists the
//! candidate paths in try order, each with the hop `distance` it charges
//! and its hops, a hop being one link at one offset from the current cycle:
//!
//! * [`Topology::Ring`] / [`Topology::Conv`] — the paper's segmented,
//!   fully pipelined buses (§4.2, §4.6): one 1-lane link per (bus,
//!   segment); hop `j` enters its segment at offset `j·L`, so a segment
//!   accepts one new message per cycle whatever the hop latency `L`.
//!   Ring buses all run forward (cluster `i → i+1`); Conv's even buses run
//!   forward and its odd buses backward. The candidates are the buses, by
//!   increasing distance, ties by bus index.
//! * [`Topology::Crossbar`] — an egress and an ingress link per cluster,
//!   `n_buses` lanes each, both claimed at offset 0: every remote cluster
//!   is one hop away.
//! * [`Topology::Mesh`] — four directed links per cluster on the
//!   [`mesh_dims`] grid, `n_buses` lanes each; the XY route (all X hops,
//!   then all Y hops) books hop `j` at offset `j·L` and charges the
//!   Manhattan distance.
//! * [`Topology::Hier`] — one local link per group of [`hier_group_size`]
//!   clusters (one hop) and the inter-group link ([`HIER_INTER_HOPS`]
//!   hops): one shared by all groups, or one per group pair with
//!   [`CoreConfig::hier_pair_links`]. `n_buses` lanes each, at offset 0.
//!
//! [`Fabric::try_send`] grants the first candidate whose every hop has a
//! free lane at its offset and books one lane per hop; a denial books
//! nothing, and the communication retries next cycle (that waiting is the
//! contention metric of Figure 9). A grant is delivered `distance × L`
//! cycles later. [`DistanceLut`] is built from the same routes, so the
//! distance steering minimizes is the distance the fabric charges.

use crate::config::{CoreConfig, Topology, EVENT_WHEEL};

/// Reservation-window length in future cycles: one bit of a link lane's
/// `u128`. [`CoreConfig::validate`] rejects configurations whose longest
/// route books its last hop past the window, so the longest bus path at
/// [`crate::MAX_CLUSTERS`] clusters (63 hops, the last at offset
/// `62 × hop_latency`) allows at most 2-cycle hops.
pub const RESERVATION_WINDOW: usize = 128;

/// Hop distance charged for crossing the inter-group link of
/// [`Topology::Hier`] (the intra-group link is always one hop). Chosen so
/// leaving the group costs about as much as the worst conventional-bus
/// distance at 8 clusters with 2 buses — steering should avoid it.
pub const HIER_INTER_HOPS: u32 = 4;

/// Grid dimensions `(width, height)` for [`Topology::Mesh`]: the most
/// square factorization of `n` with `width >= height`. Prime cluster
/// counts degenerate to a 1×N line (a bidirectional chain).
pub fn mesh_dims(n: usize) -> (usize, usize) {
    let mut h = (n as f64).sqrt().floor() as usize;
    while h > 1 && !n.is_multiple_of(h) {
        h -= 1;
    }
    let h = h.max(1);
    (n / h, h)
}

/// Clusters per group for [`Topology::Hier`]: 4 when the cluster count
/// allows it, else 2, else one flat group (no inter-group traffic).
pub fn hier_group_size(n: usize) -> usize {
    if n.is_multiple_of(4) {
        4
    } else if n.is_multiple_of(2) {
        2
    } else {
        n
    }
}

/// The fabric part of [`CoreConfig::validate`]: every reserved hop offset
/// must fit the [`RESERVATION_WINDOW`] and every grant delay the pipeline's
/// [`EVENT_WHEEL`].
pub(crate) fn check(cfg: &CoreConfig) -> Result<(), String> {
    let n = cfg.n_clusters as u64;
    // (hops of the longest route, longest charged distance); validate has
    // checked `n >= 2`. The longest bus path runs `n − 1` segments and the longest mesh route the grid's
    // diameter; Crossbar and Hier book one step, at offset 0.
    let (hops, distance) = match cfg.topology {
        Topology::Ring | Topology::Conv => (n - 1, n - 1),
        Topology::Mesh => {
            let (w, h) = mesh_dims(cfg.n_clusters);
            let d = (w - 1 + h - 1) as u64;
            (d, d)
        }
        Topology::Crossbar => (1, 1),
        Topology::Hier => (1, HIER_INTER_HOPS as u64),
    };
    let hop = cfg.hop_latency as u64;
    // Hop `j` books offset `j × hop`, so the last hop's offset is the
    // latest booking.
    if (hops - 1) * hop >= RESERVATION_WINDOW as u64 {
        return Err(format!(
            "hop_latency {} with {} clusters exceeds the {}-cycle \
             reservation window of {:?}",
            cfg.hop_latency, cfg.n_clusters, RESERVATION_WINDOW, cfg.topology
        ));
    }
    if distance * hop >= EVENT_WHEEL as u64 {
        return Err(format!(
            "hop_latency {} makes the longest {:?} delay overflow the \
             {}-cycle event wheel",
            cfg.hop_latency, cfg.topology, EVENT_WHEEL
        ));
    }
    Ok(())
}

/// A granted communication: the pipeline schedules delivery `delay` cycles
/// from now and charges `distance` hops to the Figure 8 statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Cycles from the grant to the value being readable at the destination.
    pub delay: u32,
    /// Hops travelled (the Figure 8 distance metric).
    pub distance: u32,
}

/// The candidate paths of one communication in try order, as
/// `(distance, candidate)`; `len` of the four slots are used.
type Candidates = ([(u32, usize); 4], usize);

/// A topology's routes: its shape, no reservation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Routes {
    topology: Topology,
    n: usize,
    n_buses: usize,
    hop_latency: u32,
    /// Mesh: the grid width. Hier: the group size.
    width: usize,
    /// Hier: the number of groups.
    groups: usize,
    pair_links: bool,
}

impl Routes {
    fn new(cfg: &CoreConfig) -> Self {
        let n = cfg.n_clusters;
        let width = match cfg.topology {
            Topology::Mesh => mesh_dims(n).0,
            Topology::Hier => hier_group_size(n),
            Topology::Ring | Topology::Conv | Topology::Crossbar => n,
        };
        Routes {
            topology: cfg.topology,
            n,
            n_buses: cfg.n_buses,
            hop_latency: cfg.hop_latency,
            width,
            groups: n.div_ceil(width),
            pair_links: cfg.hier_pair_links,
        }
    }

    /// Where cluster `c` sits: its grid column and row (Mesh), or its
    /// place in its group and its group (Hier).
    #[inline]
    fn cell(&self, c: usize) -> (usize, usize) {
        (c % self.width, c / self.width)
    }

    /// `(links, lanes per link)` of the reservation table.
    fn shape(&self) -> (usize, usize) {
        let (n, g) = (self.n, self.groups);
        match self.topology {
            Topology::Ring | Topology::Conv => (self.n_buses * n, 1),
            Topology::Crossbar => (2 * n, self.n_buses),
            Topology::Mesh => (4 * n, self.n_buses),
            Topology::Hier => (g + if self.pair_links { g * g } else { 1 }, self.n_buses),
        }
    }

    /// Is bus `bus` a forward bus (cluster `i → i+1`)?
    #[inline]
    fn forward(&self, bus: usize) -> bool {
        self.topology == Topology::Ring || bus.is_multiple_of(2)
    }

    /// The candidates for `from → to` (`from != to`), in try order.
    #[inline]
    fn candidates(&self, from: usize, to: usize) -> Candidates {
        let n = self.n;
        let mut order = [(0, 0); 4];
        let distance = match self.topology {
            Topology::Ring | Topology::Conv => {
                let ahead = if to > from { to - from } else { to + n - from };
                // Insertion sort: ties keep bus order.
                for b in 0..self.n_buses {
                    let d = if self.forward(b) { ahead } else { n - ahead } as u32;
                    let mut i = b;
                    order[i] = (d, b);
                    while i > 0 && order[i].0 < order[i - 1].0 {
                        order.swap(i, i - 1);
                        i -= 1;
                    }
                }
                return (order, self.n_buses);
            }
            Topology::Crossbar => 1,
            Topology::Mesh => {
                let ((fx, fy), (tx, ty)) = (self.cell(from), self.cell(to));
                (fx.abs_diff(tx) + fy.abs_diff(ty)) as u32
            }
            Topology::Hier if self.cell(from).1 == self.cell(to).1 => 1,
            Topology::Hier => HIER_INTER_HOPS,
        };
        order[0] = (distance, 0);
        (order, 1)
    }

    /// Visit the hops of candidate `cand` (of `distance`) from `from` to
    /// `to` as `(link, offset)`, in path order; stops, answering `false`,
    /// at the first hop `visit` refuses.
    #[inline]
    fn hops(
        &self,
        cand: usize,
        distance: u32,
        from: usize,
        to: usize,
        mut visit: impl FnMut(usize, u32) -> bool,
    ) -> bool {
        let (n, step) = (self.n, self.hop_latency);
        match self.topology {
            Topology::Ring | Topology::Conv => {
                // Segment `s` of a forward bus is the link `s → s+1`; of a
                // backward bus, the link `s+1 → s`.
                let forward = self.forward(cand);
                let mut c = from;
                (0..distance).all(|j| {
                    let next = match (forward, c) {
                        (true, c) if c + 1 == n => 0,
                        (true, c) => c + 1,
                        (false, 0) => n - 1,
                        (false, c) => c - 1,
                    };
                    let segment = if forward { c } else { next };
                    c = next;
                    visit(cand * n + segment, j * step)
                })
            }
            Topology::Crossbar => visit(from, 0) && visit(n + to, 0),
            Topology::Mesh => {
                // Link `dir * n + c` leaves cluster `c` toward +x, −x, +y,
                // −y for `dir` 0..4.
                let w = self.width;
                let (tx, ty) = self.cell(to);
                let (mut x, mut y) = self.cell(from);
                let mut j = 0;
                while x != tx || y != ty {
                    let dir = if x != tx {
                        usize::from(tx < x)
                    } else {
                        2 + usize::from(ty < y)
                    };
                    if !visit(dir * n + y * w + x, j * step) {
                        return false;
                    }
                    match dir {
                        0 => x += 1,
                        1 => x -= 1,
                        2 => y += 1,
                        _ => y -= 1,
                    }
                    j += 1;
                }
                true
            }
            Topology::Hier => {
                let (g, fg, tg) = (self.groups, self.cell(from).1, self.cell(to).1);
                let link = if fg == tg {
                    fg
                } else if self.pair_links {
                    g + fg.min(tg) * g + fg.max(tg)
                } else {
                    g
                };
                visit(link, 0)
            }
        }
    }
}

/// The interconnect's arbitration state: every link's lanes, each a
/// window of cycles from the link's `since` cycle on.
///
/// Contract: [`Fabric::try_send`] is called only for `from != to`, any
/// number of times per cycle, with a cycle that never decreases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fabric {
    routes: Routes,
    lanes: usize,
    /// Lane `l` of link `k` at `windows[k * lanes + l]`; bit `t` set means
    /// taken in cycle `since[k] + t`.
    windows: Box<[u128]>,
    /// Per link, the cycle its windows' bit 0 stands for: the last cycle
    /// the link was booked in.
    since: Box<[u64]>,
}

impl Fabric {
    /// The idle fabric of a configuration that passes
    /// [`CoreConfig::validate`].
    pub fn new(cfg: &CoreConfig) -> Self {
        debug_assert_eq!(check(cfg), Ok(()));
        let routes = Routes::new(cfg);
        let (links, lanes) = routes.shape();
        Fabric {
            routes,
            lanes,
            windows: vec![0; links * lanes].into_boxed_slice(),
            since: vec![0; links].into_boxed_slice(),
        }
    }

    /// The first lane of `link` free in cycle `now + offset`. A cycle past
    /// the window was never booked, so every lane is free in it.
    #[inline]
    fn free_lane(&self, link: usize, now: u64, offset: u32) -> Option<usize> {
        let t = now - self.since[link] + u64::from(offset);
        if t >= RESERVATION_WINDOW as u64 {
            return Some(0);
        }
        self.windows[link * self.lanes..(link + 1) * self.lanes]
            .iter()
            .position(|w| w & (1 << t) == 0)
    }

    /// Book a free lane of `link` in cycle `now + offset`, first moving the
    /// link's windows on to `now`.
    fn book(&mut self, link: usize, now: u64, offset: u32) {
        let lag = now - self.since[link];
        self.since[link] = now;
        let lanes = &mut self.windows[link * self.lanes..(link + 1) * self.lanes];
        if lag > 0 {
            // A shift by the whole window or more clears it.
            let shift = lag.min(RESERVATION_WINDOW as u64) as u32;
            for w in lanes.iter_mut() {
                *w = w.checked_shr(shift).unwrap_or(0);
            }
        }
        let lane = lanes.iter().position(|w| w & (1 << offset) == 0);
        lanes[lane.expect("checked free")] |= 1 << offset;
    }

    /// Try to start a communication from `from` to `to` in cycle `now`:
    /// the first candidate path with a free lane on every hop is booked and
    /// granted; `None` books nothing.
    pub fn try_send(&mut self, from: usize, to: usize, now: u64) -> Option<Grant> {
        debug_assert_ne!(from, to, "communication to the same cluster");
        let routes = self.routes;
        let (order, len) = routes.candidates(from, to);
        for &(distance, cand) in &order[..len] {
            let free = routes.hops(cand, distance, from, to, |link, offset| {
                self.free_lane(link, now, offset).is_some()
            });
            if free {
                routes.hops(cand, distance, from, to, |link, offset| {
                    self.book(link, now, offset);
                    true
                });
                return Some(Grant {
                    delay: distance * routes.hop_latency,
                    distance,
                });
            }
        }
        None
    }
}

/// All-pairs distance table, built once per configuration from the
/// fabric's routes: entry `(from, to)` is the distance of the first
/// candidate [`Fabric::try_send`] tries, which is the shortest. It is the
/// inner loop of every steering decision (per candidate cluster per
/// operand); at 64 clusters the table is 16 KiB and each lookup one load.
#[derive(Clone, Debug)]
pub struct DistanceLut {
    n: usize,
    d: Box<[u32]>,
}

impl DistanceLut {
    /// Build the `n_clusters × n_clusters` table for `cfg`.
    pub fn new(cfg: &CoreConfig) -> Self {
        let routes = Routes::new(cfg);
        let n = cfg.n_clusters;
        let d = (0..n * n)
            .map(|i| {
                let (from, to) = (i / n, i % n);
                if from == to {
                    0
                } else {
                    routes.candidates(from, to).0[0].0
                }
            })
            .collect();
        DistanceLut { n, d }
    }

    /// The fewest hops from `from` to `to` (0 when they are equal).
    #[inline]
    pub fn min_distance(&self, from: usize, to: usize) -> u32 {
        self.d[from * self.n + to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Steering;

    fn fabric(topology: Topology, n_clusters: usize, n_buses: usize, hop: u32) -> Fabric {
        Fabric::new(&CoreConfig {
            topology,
            steering: Steering::ConvDcount,
            n_clusters,
            n_buses,
            hop_latency: hop,
            ..CoreConfig::default()
        })
    }

    fn grant(delay: u32, distance: u32) -> Option<Grant> {
        Some(Grant { delay, distance })
    }

    fn ring(n_buses: usize, hop: u32) -> Fabric {
        fabric(Topology::Ring, 8, n_buses, hop)
    }

    #[test]
    fn single_message_reserves_and_delivers() {
        let mut f = ring(1, 1);
        assert_eq!(f.try_send(0, 3, 0), grant(3, 3));
        // Same-cycle second message from cluster 0 conflicts on segment 0.
        assert!(f.try_send(0, 1, 0).is_none());
        // From cluster 4 it's fine (disjoint segments).
        assert!(f.try_send(4, 6, 0).is_some());
    }

    #[test]
    fn pipelining_allows_back_to_back() {
        let mut now = 0;
        let mut f = ring(1, 1);
        assert!(f.try_send(0, 4, now).is_some());
        now += 1;
        // Next cycle the same path is free again at entry (the first message
        // moved to segment 1).
        assert!(f.try_send(0, 4, now).is_some());
    }

    #[test]
    fn trailing_message_conflicts_midpath() {
        let mut now = 0;
        let mut f = ring(1, 1);
        assert!(f.try_send(0, 4, now).is_some());
        now += 1;
        // A message from cluster 0 of distance 1 uses segment 0 at offset 0 —
        // free. But one entering segment 1 now (from cluster 1) collides with
        // the in-flight message, which is in segment 1 this cycle.
        assert!(f.try_send(1, 2, now).is_none());
        assert!(f.try_send(0, 1, now).is_some());
    }

    #[test]
    fn two_cycle_hops_double_delay() {
        let mut now = 0;
        let mut f = ring(1, 2);
        assert_eq!(f.try_send(2, 7, now), grant(10, 5));
        // Fully pipelined: a new message can still enter next cycle.
        now += 1;
        assert!(f.try_send(2, 7, now).is_some());
    }

    #[test]
    fn conv_second_bus_runs_backward() {
        let mut now = 0;
        let mut f = fabric(Topology::Conv, 8, 2, 1);
        // 1 → 7 backward: segment 1→0 now, segment 0→7 next cycle.
        assert_eq!(f.try_send(1, 7, now), grant(2, 2));
        now += 1;
        // 0 → 7 wants the backward segment 0→7 now, which the first
        // message holds, so it falls back to the 7-hop forward bus.
        assert_eq!(f.try_send(0, 7, now), grant(7, 7));
    }

    #[test]
    fn ring_buses_all_forward() {
        // 2 → 1 is 7 forward hops on either bus.
        let mut f = ring(2, 1);
        assert_eq!(f.try_send(2, 1, 0), grant(7, 7));
        assert_eq!(f.try_send(2, 1, 0), grant(7, 7));
        assert!(f.try_send(2, 1, 0).is_none(), "two buses only");
    }

    #[test]
    fn wraparound_path() {
        let mut now = 0;
        let mut f = ring(1, 1);
        // 6 -> 1 is 3 hops crossing the wrap.
        assert_eq!(f.try_send(6, 1, now), grant(3, 3));
        // Segment 7 (leaving cluster 7) is taken at offset 1: one cycle
        // later a message from 7 enters it at offset 0, the same cycle.
        now += 1;
        assert!(f.try_send(7, 0, now).is_none());
    }

    fn xbar(n_buses: usize, hop: u32) -> Fabric {
        fabric(Topology::Crossbar, 8, n_buses, hop)
    }

    #[test]
    fn crossbar_every_pair_is_one_hop() {
        let mut x = xbar(1, 2);
        assert_eq!(x.try_send(0, 7, 0), grant(2, 1));
        // A disjoint pair is independent the same cycle.
        assert!(x.try_send(3, 4, 0).is_some());
    }

    #[test]
    fn crossbar_egress_port_conflict() {
        let mut now = 0;
        let mut x = xbar(1, 1);
        assert!(x.try_send(2, 5, now).is_some());
        // Same source, different destination: egress port taken.
        assert!(x.try_send(2, 6, now).is_none());
        now += 1;
        assert!(x.try_send(2, 6, now).is_some());
    }

    #[test]
    fn crossbar_ingress_port_conflict() {
        let mut now = 0;
        let mut x = xbar(1, 1);
        assert!(x.try_send(1, 4, now).is_some());
        // Different source, same destination: ingress port taken.
        assert!(x.try_send(7, 4, now).is_none());
        now += 1;
        assert!(x.try_send(7, 4, now).is_some());
    }

    #[test]
    fn crossbar_port_count_scales_bandwidth() {
        let mut x = xbar(2, 1);
        assert!(x.try_send(0, 1, 0).is_some());
        assert!(x.try_send(0, 2, 0).is_some());
        assert!(x.try_send(0, 3, 0).is_none(), "two egress ports only");
        assert!(x.try_send(5, 1, 0).is_some());
        assert!(x.try_send(6, 1, 0).is_none(), "two ingress ports only");
    }

    fn mesh(n_clusters: usize, n_buses: usize, hop: u32) -> Fabric {
        fabric(Topology::Mesh, n_clusters, n_buses, hop)
    }

    #[test]
    fn mesh_grants_manhattan_distances() {
        let mut now = 0;
        // 8 clusters -> 4×2 grid: cluster 0 = (0,0), 7 = (3,1).
        let mut m = mesh(8, 1, 1);
        assert_eq!(m.try_send(0, 7, now), grant(4, 4));
        now += 1;
        // Same row: pure X route. 4 -> 6 is (0,1) -> (2,1): 2 hops.
        assert_eq!(m.try_send(4, 6, now), grant(2, 2));
        // Same column: pure Y route. 1 -> 5 is (1,0) -> (1,1): 1 hop.
        assert_eq!(m.try_send(1, 5, now), grant(1, 1));
    }

    #[test]
    fn mesh_hop_latency_scales_delay_not_distance() {
        let mut m = mesh(8, 1, 2);
        assert_eq!(m.try_send(0, 3, 0), grant(6, 3));
    }

    #[test]
    fn mesh_xy_routes_share_the_first_link() {
        let mut now = 0;
        // Both 0->2 and 0->5 leave cluster 0 eastward (XY: X first), so the
        // second message loses the link-0-east port this cycle.
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 2, now).is_some());
        assert!(
            m.try_send(0, 5, now).is_none(),
            "0->5 goes east first under XY"
        );
        now += 1;
        assert!(
            m.try_send(0, 5, now).is_some(),
            "link free again next cycle"
        );
    }

    #[test]
    fn mesh_trailing_message_conflicts_midpath() {
        let mut now = 0;
        // A 0->2 message occupies link 1->2 at offset 1. Next cycle a 1->2
        // message wants that link at offset 0 — the same absolute cycle.
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 2, now).is_some());
        now += 1;
        assert!(
            m.try_send(1, 2, now).is_none(),
            "in-flight message owns the link"
        );
        assert!(m.try_send(0, 1, now).is_some(), "link 0->1 is free again");
        now += 1;
        assert!(m.try_send(1, 2, now).is_some());
    }

    #[test]
    fn mesh_opposite_directions_are_independent() {
        // 1->0 (west) and 0->1 (east) use different directed links.
        let mut m = mesh(8, 1, 1);
        assert!(m.try_send(0, 1, 0).is_some());
        assert!(m.try_send(1, 0, 0).is_some());
    }

    #[test]
    fn mesh_ports_scale_link_bandwidth() {
        let mut m = mesh(8, 2, 1);
        assert!(m.try_send(0, 1, 0).is_some());
        assert!(m.try_send(0, 2, 0).is_some());
        assert!(m.try_send(0, 3, 0).is_none(), "two ports per link only");
    }

    #[test]
    fn mesh_degenerate_line_still_routes() {
        // 5 clusters is prime -> 5×1 line; the full walk is 4 hops.
        let mut m = mesh(5, 1, 1);
        assert_eq!(m.try_send(0, 4, 0), grant(4, 4));
        assert_eq!(m.try_send(4, 3, 0), grant(1, 1));
    }

    fn hier(n_clusters: usize, n_buses: usize, hop: u32, pair_links: bool) -> Fabric {
        Fabric::new(&CoreConfig {
            topology: Topology::Hier,
            steering: Steering::ConvDcount,
            n_clusters,
            n_buses,
            hop_latency: hop,
            hier_pair_links: pair_links,
            ..CoreConfig::default()
        })
    }

    #[test]
    fn hier_intra_group_is_one_cheap_hop() {
        let mut now = 0;
        // 8 clusters -> 2 groups of 4 (0..4 and 4..8).
        let mut h = hier(8, 1, 1, false);
        assert_eq!(h.try_send(0, 3, now), grant(1, 1));
        // The other group's local bus is independent this same cycle.
        assert_eq!(h.try_send(5, 6, now), grant(1, 1));
        // But a second message on the *same* group's bus is denied.
        assert!(h.try_send(1, 2, now).is_none());
        now += 1;
        assert!(h.try_send(1, 2, now).is_some());
    }

    #[test]
    fn hier_inter_group_link_is_expensive_and_shared() {
        let mut now = 0;
        let mut h = hier(8, 1, 2, false);
        assert_eq!(
            h.try_send(0, 5, now),
            grant(2 * HIER_INTER_HOPS, HIER_INTER_HOPS)
        );
        // One global link: a second cross-group message — even between
        // different group pairs — waits.
        assert!(h.try_send(7, 2, now).is_none());
        // Intra-group traffic is unaffected by the saturated global link.
        assert!(h.try_send(1, 2, now).is_some());
        now += 1;
        assert!(h.try_send(7, 2, now).is_some());
    }

    #[test]
    fn hier_ports_scale_both_levels() {
        let mut h = hier(8, 2, 1, false);
        assert!(h.try_send(0, 4, 0).is_some());
        assert!(h.try_send(1, 5, 0).is_some());
        assert!(h.try_send(2, 6, 0).is_none(), "two inter-group slots only");
        assert!(h.try_send(0, 1, 0).is_some());
        assert!(h.try_send(2, 3, 0).is_some());
        assert!(h.try_send(0, 2, 0).is_none(), "two local-bus slots only");
    }

    #[test]
    fn hier_pair_links_give_each_group_pair_its_own_pool() {
        let mut now = 0;
        // 16 clusters -> 4 groups of 4. With per-pair links, traffic on
        // different group pairs no longer contends.
        let mut h = hier(16, 1, 2, true);
        // Group pair (0,1).
        assert_eq!(
            h.try_send(0, 5, now),
            grant(2 * HIER_INTER_HOPS, HIER_INTER_HOPS)
        );
        assert!(
            h.try_send(9, 14, now).is_some(),
            "pair (2,3) is independent"
        );
        // The same unordered pair still shares one pool, direction-blind:
        // 4->1 is group pair (0,1) again, already taken by 0->5.
        assert!(h.try_send(4, 1, now).is_none(), "pair (0,1) pool exhausted");
        now += 1;
        assert!(h.try_send(4, 1, now).is_some());
    }

    #[test]
    fn hier_pair_links_scale_with_ports() {
        let mut now = 0;
        let mut h = hier(8, 2, 1, true);
        assert!(h.try_send(0, 4, now).is_some());
        assert!(h.try_send(1, 5, now).is_some());
        assert!(h.try_send(2, 6, now).is_none(), "two slots per pair only");
        now += 10;
        assert!(
            h.try_send(2, 6, now).is_some(),
            "pair pools free again 10 cycles on"
        );
    }
}
