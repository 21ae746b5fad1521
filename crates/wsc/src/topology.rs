//! 2D-mesh die-array topology: dies, links, adjacency and deterministic
//! dimension-ordered routing.
//!
//! The wafer integrates a `width x height` array of dies connected in a 2D
//! mesh (Fig. 3 of the paper). Links exist only between physically adjacent
//! dies; an optional *torus* mode adds wrap-around links, which the paper
//! shows to be physically infeasible (§III-B) — it exists here so the
//! motivation experiments can quantify exactly why.

use serde::{Deserialize, Serialize};

use crate::{Result, WscError};

/// A die's (column, row) position in the array. `x` grows rightward,
/// `y` grows downward, matching the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl Coord {
    /// Creates a coordinate. No bounds are implied until used with a [`Mesh`].
    pub fn new(x: u32, y: u32) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to another coordinate (no wrap-around).
    pub fn manhattan(&self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Dense die identifier: `id = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DieId(pub u32);

impl DieId {
    /// The raw index, usable to index per-die vectors.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DieId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Dense identifier of a *directed* link in the mesh link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The raw index, usable to index per-link vectors.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A directed die-to-die link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Source die.
    pub src: DieId,
    /// Destination die.
    pub dst: DieId,
    /// Whether this is a torus wrap-around link (physically infeasible on
    /// real interposers; used only in motivation studies).
    pub wrap: bool,
}

/// Dimension-ordered routing direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RouteOrder {
    /// Route along X first, then Y (the classic deadlock-free default).
    #[default]
    XThenY,
    /// Route along Y first, then X (the alternate used by the traffic
    /// optimizer to dodge congested rows).
    YThenX,
}

/// A `width x height` 2D mesh (optionally torus) of dies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mesh {
    width: u32,
    height: u32,
    torus: bool,
    links: Vec<Link>,
    /// Link-index table: `link_table[die * 4 + dir]` is the outgoing link
    /// of `die` in direction `dir` (see [`Direction`]), or `NO_LINK`.
    /// Built once at construction so [`Mesh::link_between`] and
    /// [`Mesh::path_links`] are O(1) per hop instead of scanning the link
    /// list — route-to-link conversion sits on the hot path of every
    /// contention simulation.
    link_table: Vec<u32>,
}

/// Sentinel in [`Mesh`]'s link-index table for "no link this direction".
const NO_LINK: u32 = u32::MAX;

/// Outgoing-link direction slots of the link-index table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Left = 0,
    Right = 1,
    Up = 2,
    Down = 3,
}

impl Mesh {
    /// Creates a mesh without wrap-around links.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::InvalidConfig`] if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        Self::with_mode(width, height, false)
    }

    /// Creates a torus (wrap-around) variant. Real wafers cannot build these
    /// links (§III-B); this exists for the motivation experiments.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::InvalidConfig`] if either dimension is zero.
    pub fn torus(width: u32, height: u32) -> Result<Self> {
        Self::with_mode(width, height, true)
    }

    fn with_mode(width: u32, height: u32, torus: bool) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(WscError::InvalidConfig(format!(
                "mesh dimensions must be nonzero, got {width}x{height}"
            )));
        }
        let mut links = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let src = DieId(y * width + x);
                // Right neighbor.
                if x + 1 < width {
                    let dst = DieId(y * width + x + 1);
                    links.push(Link {
                        src,
                        dst,
                        wrap: false,
                    });
                    links.push(Link {
                        src: dst,
                        dst: src,
                        wrap: false,
                    });
                } else if torus && width > 2 {
                    let dst = DieId(y * width);
                    links.push(Link {
                        src,
                        dst,
                        wrap: true,
                    });
                    links.push(Link {
                        src: dst,
                        dst: src,
                        wrap: true,
                    });
                }
                // Down neighbor.
                if y + 1 < height {
                    let dst = DieId((y + 1) * width + x);
                    links.push(Link {
                        src,
                        dst,
                        wrap: false,
                    });
                    links.push(Link {
                        src: dst,
                        dst: src,
                        wrap: false,
                    });
                } else if torus && height > 2 {
                    let dst = DieId(x);
                    links.push(Link {
                        src,
                        dst,
                        wrap: true,
                    });
                    links.push(Link {
                        src: dst,
                        dst: src,
                        wrap: true,
                    });
                }
            }
        }
        let mut link_table = vec![NO_LINK; (width * height) as usize * 4];
        for (i, link) in links.iter().enumerate() {
            let (sx, sy) = (link.src.0 % width, link.src.0 / width);
            let (dx, dy) = (link.dst.0 % width, link.dst.0 / width);
            let dir = if dy == sy {
                // Horizontal: a wrap link leaves the edge it sits on.
                if dx == sx + 1 || (link.wrap && sx == width - 1) {
                    Direction::Right
                } else {
                    Direction::Left
                }
            } else if dy == sy + 1 || (link.wrap && sy == height - 1) {
                Direction::Down
            } else {
                Direction::Up
            };
            link_table[link.src.index() * 4 + dir as usize] = i as u32;
        }
        Ok(Mesh {
            width,
            height,
            torus,
            links,
            link_table,
        })
    }

    /// Array width (columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Array height (rows).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether wrap-around links are present.
    pub fn is_torus(&self) -> bool {
        self.torus
    }

    /// Total number of dies.
    pub fn die_count(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Total number of *directed* links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All dies in row-major order.
    pub fn dies(&self) -> impl Iterator<Item = DieId> + '_ {
        (0..self.width * self.height).map(DieId)
    }

    /// The directed link table. [`LinkId`] indexes into this slice.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a die by coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::CoordOutOfBounds`] when outside the array.
    pub fn die_at(&self, c: Coord) -> Result<DieId> {
        if c.x >= self.width || c.y >= self.height {
            return Err(WscError::CoordOutOfBounds {
                x: c.x,
                y: c.y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(DieId(c.y * self.width + c.x))
    }

    /// The coordinate of a die.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::UnknownDie`] for out-of-range ids.
    pub fn coord(&self, die: DieId) -> Result<Coord> {
        if die.0 >= self.width * self.height {
            return Err(WscError::UnknownDie(die.0));
        }
        Ok(Coord {
            x: die.0 % self.width,
            y: die.0 / self.width,
        })
    }

    /// Manhattan distance between two dies, honoring torus wrap if enabled.
    pub fn manhattan(&self, a: DieId, b: DieId) -> u32 {
        let (ca, cb) = (
            self.coord(a).expect("die in mesh"),
            self.coord(b).expect("die in mesh"),
        );
        let dx = ca.x.abs_diff(cb.x);
        let dy = ca.y.abs_diff(cb.y);
        if self.torus {
            dx.min(self.width - dx) + dy.min(self.height - dy)
        } else {
            dx + dy
        }
    }

    /// Mesh neighbors of a die (2-4 dies; more never exist in a 2D mesh).
    pub fn neighbors(&self, die: DieId) -> Vec<DieId> {
        let c = match self.coord(die) {
            Ok(c) => c,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::with_capacity(4);
        if c.x > 0 {
            out.push(DieId(die.0 - 1));
        } else if self.torus && self.width > 2 {
            out.push(DieId(c.y * self.width + self.width - 1));
        }
        if c.x + 1 < self.width {
            out.push(DieId(die.0 + 1));
        } else if self.torus && self.width > 2 {
            out.push(DieId(c.y * self.width));
        }
        if c.y > 0 {
            out.push(DieId(die.0 - self.width));
        } else if self.torus && self.height > 2 {
            out.push(DieId((self.height - 1) * self.width + c.x));
        }
        if c.y + 1 < self.height {
            out.push(DieId(die.0 + self.width));
        } else if self.torus && self.height > 2 {
            out.push(DieId(c.x));
        }
        out
    }

    /// Mesh neighbors of a die with the link to each, in
    /// [`Mesh::neighbors`] order, read off the link-index table without
    /// allocating.
    pub fn neighbor_links(&self, die: DieId) -> impl Iterator<Item = (DieId, LinkId)> + '_ {
        let base = die.index() * 4;
        self.link_table
            .get(base..base + 4)
            .unwrap_or(&[])
            .iter()
            .filter(|&&slot| slot != NO_LINK)
            .map(|&slot| (self.links[slot as usize].dst, LinkId(slot)))
    }

    /// Whether two dies are directly connected.
    pub fn adjacent(&self, a: DieId, b: DieId) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// The directed link from `a` to `b`, answered from the precomputed
    /// link-index table in O(1).
    ///
    /// # Errors
    ///
    /// Returns [`WscError::NotAdjacent`] if no direct link exists.
    pub fn link_between(&self, a: DieId, b: DieId) -> Result<LinkId> {
        self.link_lookup(a, b)
            .ok_or(WscError::NotAdjacent(a.0, b.0))
    }

    /// As [`Mesh::link_between`] without the error wrapping (the hot-path
    /// form used by flow construction).
    pub fn link_lookup(&self, a: DieId, b: DieId) -> Option<LinkId> {
        let base = a.index().checked_mul(4)?;
        let slots = self.link_table.get(base..base + 4)?;
        for &slot in slots {
            if slot != NO_LINK && self.links[slot as usize].dst == b {
                return Some(LinkId(slot));
            }
        }
        None
    }

    /// Dimension-ordered route from `src` to `dst`, inclusive of endpoints.
    ///
    /// With [`RouteOrder::XThenY`] the path first walks columns, then rows;
    /// [`RouteOrder::YThenX`] is the transpose. On a torus the shorter wrap
    /// direction is taken per dimension.
    pub fn route(&self, src: DieId, dst: DieId, order: RouteOrder) -> Vec<DieId> {
        std::iter::once(src)
            .chain(self.walk(src, dst, order))
            .collect()
    }

    /// The directed links of [`Mesh::route`]'s path, read off the
    /// link-index table step by step without building the die path:
    /// equal to `path_links(&route(src, dst, order))`.
    pub fn route_links(
        &self,
        src: DieId,
        dst: DieId,
        order: RouteOrder,
    ) -> impl Iterator<Item = LinkId> + '_ {
        let mut at = src;
        self.walk(src, dst, order).map(move |next| {
            let link = self
                .link_lookup(at, next)
                .expect("dimension-ordered steps join mesh neighbors");
            at = next;
            link
        })
    }

    /// The dies a dimension-ordered route visits after `src`, up to and
    /// including `dst`.
    fn walk(&self, src: DieId, dst: DieId, order: RouteOrder) -> impl Iterator<Item = DieId> + '_ {
        let mut at = self.coord(src).expect("src in mesh");
        let to = self.coord(dst).expect("dst in mesh");
        std::iter::from_fn(move || {
            let step_x = match order {
                RouteOrder::XThenY => at.x != to.x,
                RouteOrder::YThenX => at.y == to.y,
            };
            let (pos, target, size) = if step_x {
                (&mut at.x, to.x, self.width)
            } else {
                (&mut at.y, to.y, self.height)
            };
            if *pos == target {
                return None;
            }
            // On a torus, step the shorter way round (forward on a tie).
            let forward = if self.torus {
                (target + size - *pos) % size <= (*pos + size - target) % size
            } else {
                target > *pos
            };
            *pos = if forward {
                (*pos + 1) % size
            } else {
                (*pos + size - 1) % size
            };
            Some(DieId(at.y * self.width + at.x))
        })
    }

    /// Converts a die path (as returned by [`Mesh::route`]) into its directed
    /// link sequence.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::NotAdjacent`] if consecutive dies in the path are
    /// not neighbors.
    pub fn path_links(&self, path: &[DieId]) -> Result<Vec<LinkId>> {
        let mut out = Vec::with_capacity(path.len().saturating_sub(1));
        for w in path.windows(2) {
            out.push(self.link_between(w[0], w[1])?);
        }
        Ok(out)
    }

    /// Number of physical hops between two dies along dimension-ordered
    /// routing (equals the Manhattan distance).
    pub fn hops(&self, a: DieId, b: DieId) -> u32 {
        self.manhattan(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_rejects_empty_dimensions() {
        assert!(Mesh::new(0, 4).is_err());
        assert!(Mesh::new(4, 0).is_err());
    }

    #[test]
    fn die_and_coord_roundtrip() {
        let m = Mesh::new(8, 4).unwrap();
        for die in m.dies() {
            let c = m.coord(die).unwrap();
            assert_eq!(m.die_at(c).unwrap(), die);
        }
    }

    #[test]
    fn out_of_bounds_coord_is_error() {
        let m = Mesh::new(8, 4).unwrap();
        assert!(matches!(
            m.die_at(Coord::new(8, 0)),
            Err(WscError::CoordOutOfBounds { .. })
        ));
        assert!(matches!(m.coord(DieId(32)), Err(WscError::UnknownDie(32))));
    }

    #[test]
    fn neighbor_links_follow_neighbors_order() {
        for (w, h, torus) in [
            (8, 4, false),
            (16, 8, false),
            (1, 5, false),
            (2, 2, true),
            (3, 3, true),
            (5, 2, true),
            (6, 4, true),
        ] {
            let m = if torus {
                Mesh::torus(w, h)
            } else {
                Mesh::new(w, h)
            }
            .unwrap();
            for die in m.dies() {
                let expected: Vec<(DieId, LinkId)> = m
                    .neighbors(die)
                    .into_iter()
                    .map(|v| (v, m.link_between(die, v).unwrap()))
                    .collect();
                let got: Vec<(DieId, LinkId)> = m.neighbor_links(die).collect();
                assert_eq!(got, expected, "{w}x{h} torus={torus} die {die}");
            }
        }
    }

    #[test]
    fn interior_die_has_four_neighbors() {
        let m = Mesh::new(8, 4).unwrap();
        let d = m.die_at(Coord::new(3, 1)).unwrap();
        assert_eq!(m.neighbors(d).len(), 4);
    }

    #[test]
    fn corner_die_has_two_neighbors() {
        let m = Mesh::new(8, 4).unwrap();
        let d = m.die_at(Coord::new(0, 0)).unwrap();
        let n = m.neighbors(d);
        assert_eq!(n.len(), 2);
        assert!(n.contains(&DieId(1)));
        assert!(n.contains(&DieId(8)));
    }

    #[test]
    fn mesh_link_count_matches_formula() {
        // Directed links in a w x h mesh: 2 * (h*(w-1) + w*(h-1)).
        let m = Mesh::new(8, 4).unwrap();
        assert_eq!(m.link_count(), 2 * (4 * 7 + 8 * 3));
    }

    #[test]
    fn torus_link_count_matches_formula() {
        // Torus: every die has degree 4 => 4 * w * h directed links.
        let m = Mesh::torus(8, 4).unwrap();
        assert_eq!(m.link_count(), 4 * 32);
    }

    #[test]
    fn torus_corner_has_four_neighbors() {
        let m = Mesh::torus(8, 4).unwrap();
        let d = m.die_at(Coord::new(0, 0)).unwrap();
        assert_eq!(m.neighbors(d).len(), 4);
    }

    #[test]
    fn xy_route_is_manhattan_length() {
        let m = Mesh::new(8, 4).unwrap();
        let a = m.die_at(Coord::new(1, 1)).unwrap();
        let b = m.die_at(Coord::new(6, 3)).unwrap();
        let path = m.route(a, b, RouteOrder::XThenY);
        assert_eq!(path.len() as u32 - 1, m.manhattan(a, b));
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
    }

    #[test]
    fn xy_and_yx_routes_differ_in_corner() {
        let m = Mesh::new(4, 4).unwrap();
        let a = m.die_at(Coord::new(0, 0)).unwrap();
        let b = m.die_at(Coord::new(2, 2)).unwrap();
        let xy = m.route(a, b, RouteOrder::XThenY);
        let yx = m.route(a, b, RouteOrder::YThenX);
        assert_ne!(xy, yx);
        assert_eq!(xy.len(), yx.len());
    }

    #[test]
    fn torus_route_takes_wrap_shortcut() {
        let m = Mesh::torus(8, 4).unwrap();
        let a = m.die_at(Coord::new(0, 0)).unwrap();
        let b = m.die_at(Coord::new(7, 0)).unwrap();
        // Non-torus distance is 7; the wrap makes it 1.
        assert_eq!(m.manhattan(a, b), 1);
        let path = m.route(a, b, RouteOrder::XThenY);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn path_links_are_directed_and_sequential() {
        let m = Mesh::new(8, 4).unwrap();
        let a = m.die_at(Coord::new(0, 0)).unwrap();
        let b = m.die_at(Coord::new(2, 0)).unwrap();
        let path = m.route(a, b, RouteOrder::XThenY);
        let links = m.path_links(&path).unwrap();
        assert_eq!(links.len(), 2);
        let l0 = m.links()[links[0].index()];
        assert_eq!(l0.src, a);
    }

    #[test]
    fn link_between_rejects_non_neighbors() {
        let m = Mesh::new(8, 4).unwrap();
        assert!(matches!(
            m.link_between(DieId(0), DieId(2)),
            Err(WscError::NotAdjacent(0, 2))
        ));
    }

    #[test]
    fn link_table_agrees_with_link_scan() {
        // The O(1) table must answer exactly like a linear scan of the
        // directed link list, for both mesh and torus variants.
        for m in [Mesh::new(8, 4).unwrap(), Mesh::torus(8, 4).unwrap()] {
            for a in m.dies() {
                for b in m.dies() {
                    let scanned = m
                        .links()
                        .iter()
                        .position(|l| l.src == a && l.dst == b)
                        .map(|i| LinkId(i as u32));
                    assert_eq!(m.link_lookup(a, b), scanned, "{a} -> {b}");
                }
            }
        }
    }

    /// A dimension-ordered die path stepped out one dimension at a time:
    /// an oracle for the walker [`Mesh::route`] and
    /// [`Mesh::route_links`] share.
    fn stepped_route(m: &Mesh, a: DieId, b: DieId, order: RouteOrder) -> Vec<DieId> {
        let (mut c, to) = (m.coord(a).unwrap(), m.coord(b).unwrap());
        let mut path = vec![a];
        let x_dims = match order {
            RouteOrder::XThenY => [true, false],
            RouteOrder::YThenX => [false, true],
        };
        for x in x_dims {
            let (size, target) = if x {
                (m.width(), to.x)
            } else {
                (m.height(), to.y)
            };
            loop {
                let pos = if x { c.x } else { c.y };
                if pos == target {
                    break;
                }
                let forward = if m.is_torus() {
                    (target + size - pos) % size <= (pos + size - target) % size
                } else {
                    target > pos
                };
                let next = if forward {
                    (pos + 1) % size
                } else {
                    (pos + size - 1) % size
                };
                if x {
                    c.x = next;
                } else {
                    c.y = next;
                }
                path.push(m.die_at(c).unwrap());
            }
        }
        path
    }

    #[test]
    fn route_links_walk_the_route_path_for_every_pair() {
        for m in [
            Mesh::new(8, 4).unwrap(),
            Mesh::torus(8, 4).unwrap(),
            Mesh::new(5, 3).unwrap(),
            Mesh::torus(5, 3).unwrap(),
            Mesh::torus(2, 6).unwrap(),
        ] {
            for a in m.dies() {
                for b in m.dies() {
                    for order in [RouteOrder::XThenY, RouteOrder::YThenX] {
                        let path = m.route(a, b, order);
                        assert_eq!(path, stepped_route(&m, a, b, order));
                        let walked: Vec<LinkId> = m.route_links(a, b, order).collect();
                        assert_eq!(walked.len(), m.hops(a, b) as usize);
                        let expected = m.path_links(&path).unwrap();
                        assert_eq!(
                            walked,
                            expected,
                            "{a}->{b} {order:?} torus={}",
                            m.is_torus()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_to_self_is_singleton() {
        let m = Mesh::new(8, 4).unwrap();
        let a = DieId(5);
        assert_eq!(m.route(a, a, RouteOrder::XThenY), vec![a]);
    }
}
