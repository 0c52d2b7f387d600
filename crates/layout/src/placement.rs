//! Die placement of the cluster ring (Figure 3).
//!
//! 4 clusters form a 2×2 ring of corner modules; 8 clusters form a 2×4 ring
//! (two rows of four) needing straight modules along the rows and corner
//! modules at the row ends. Logical ring order snakes along the top row and
//! back along the bottom row, so ring neighbours are always physically
//! adjacent — the property that makes the fast next-cluster bypass
//! plausible.

use crate::floorplan::ModuleKind;

/// One cluster's physical site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSite {
    /// Logical cluster id (ring order).
    pub cluster: usize,
    /// Grid column.
    pub col: usize,
    /// Grid row.
    pub row: usize,
    /// Module shape required at this site.
    pub kind: ModuleKind,
}

/// A full die placement.
#[derive(Clone, Debug)]
pub struct RingPlacement {
    /// Sites in logical ring order.
    pub sites: Vec<ClusterSite>,
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
}

impl RingPlacement {
    /// Physical grid (Manhattan) distance between ring neighbours `i` and
    /// `i+1`.
    pub fn neighbor_distance(&self, i: usize) -> usize {
        let a = self.sites[i];
        let b = self.sites[(i + 1) % self.sites.len()];
        a.col.abs_diff(b.col) + a.row.abs_diff(b.row)
    }

    /// Count of straight / corner modules needed.
    pub fn module_counts(&self) -> (usize, usize) {
        let straight = self
            .sites
            .iter()
            .filter(|s| s.kind == ModuleKind::Straight)
            .count();
        (straight, self.sites.len() - straight)
    }
}

/// Place `n` clusters (4 or 8, or any even count ≥ 4) as a two-row ring.
pub fn ring_placement(n: usize) -> RingPlacement {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "ring placement needs an even cluster count >= 4"
    );
    let cols = n / 2;
    let mut sites = Vec::with_capacity(n);
    // Top row left→right, then bottom row right→left.
    for c in 0..cols {
        let kind = if c == 0 || c == cols - 1 {
            ModuleKind::Corner
        } else {
            ModuleKind::Straight
        };
        sites.push(ClusterSite {
            cluster: c,
            col: c,
            row: 0,
            kind,
        });
    }
    for c in (0..cols).rev() {
        let kind = if c == 0 || c == cols - 1 {
            ModuleKind::Corner
        } else {
            ModuleKind::Straight
        };
        sites.push(ClusterSite {
            cluster: 2 * cols - 1 - c,
            col: c,
            row: 1,
            kind,
        });
    }
    for (i, s) in sites.iter_mut().enumerate() {
        s.cluster = i;
    }
    RingPlacement {
        sites,
        cols,
        rows: 2,
    }
}

/// Render Figure 3 (the 4- and 8-cluster die placements) as text: each
/// site as `[cluN K]`, `K` being its module shape (`C` corner, `S`
/// straight).
pub fn figure3_text() -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "Figure 3. Die placement of the cluster ring\n\
         -------------------------------------------\n",
    );
    for n in [4usize, 8] {
        let p = ring_placement(n);
        let (straight, corner) = p.module_counts();
        let _ = writeln!(
            text,
            "{n} clusters ({} cols x {} rows): {straight} straight + {corner} corner modules",
            p.cols, p.rows
        );
        for row in 0..p.rows {
            let mut sites: Vec<&ClusterSite> = p.sites.iter().filter(|s| s.row == row).collect();
            sites.sort_by_key(|s| s.col);
            let cells: Vec<String> = sites
                .iter()
                .map(|s| {
                    let k = if s.kind == ModuleKind::Corner {
                        'C'
                    } else {
                        'S'
                    };
                    format!("[clu{:<2}{k}]", s.cluster)
                })
                .collect();
            let _ = writeln!(text, "  {}", cells.join(" "));
        }
    }
    text.push_str("all ring neighbours physically adjacent\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_clusters_need_four_straight_four_corner() {
        let p = ring_placement(8);
        assert_eq!(p.sites.len(), 8);
        let (straight, corner) = p.module_counts();
        assert_eq!(straight, 4, "Figure 3: two straight modules per row");
        assert_eq!(corner, 4);
    }

    #[test]
    fn four_clusters_are_all_corners() {
        let p = ring_placement(4);
        let (straight, corner) = p.module_counts();
        assert_eq!(straight, 0, "§3.2: only corner clusters for 4 clusters");
        assert_eq!(corner, 4);
    }

    #[test]
    fn ring_neighbors_are_physically_adjacent() {
        for n in [4, 6, 8, 12, 16] {
            let p = ring_placement(n);
            for i in 0..n {
                assert_eq!(
                    p.neighbor_distance(i),
                    1,
                    "{n} clusters: ring neighbour {i} not physically adjacent"
                );
            }
        }
    }

    #[test]
    fn sites_cover_the_grid_exactly_once() {
        let p = ring_placement(8);
        let mut seen = std::collections::HashSet::new();
        for s in &p.sites {
            assert!(seen.insert((s.col, s.row)));
            assert!(s.col < p.cols && s.row < p.rows);
        }
        assert_eq!(seen.len(), 8);
    }
}
