//! Physical group formation on the wafer mesh.
//!
//! A hybrid configuration partitions the die array into nested groups, one
//! dimension per strategy. The *layout policy* decides how group coordinates
//! map onto physical die coordinates:
//!
//! * [`LayoutPolicy::TopologyAware`] — TEMP's layout: strategies are nested
//!   innermost-first (`TATP` → `TP` → `SP` → `CP` → `DP`), each taking a
//!   contiguous 2D sub-block, so inner groups (the ones streaming every
//!   round) lie on snake-orderable blocks with 1-hop neighbors;
//! * [`LayoutPolicy::RowMajorStrips`] — the naive flat assignment used by
//!   SMap-style baselines: groups become row-major index ranges, whose
//!   members straddle row boundaries (the "tetris" groups of Fig. 7(a)).

use serde::{Deserialize, Serialize};

use temp_wsc::rings;
use temp_wsc::topology::{DieId, Mesh};

use crate::strategy::{HybridConfig, ParallelKind};
use crate::{ParallelError, Result};

/// How group coordinates map onto the physical die array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutPolicy {
    /// Nested contiguous blocks, innermost strategy first (TEMP).
    TopologyAware,
    /// Flat row-major strips (naive baseline).
    RowMajorStrips,
}

/// The nesting order used by the topology-aware layout (innermost first).
pub const NESTING_ORDER: [ParallelKind; 5] = [
    ParallelKind::Tatp,
    ParallelKind::Tp,
    ParallelKind::Sp,
    ParallelKind::Cp,
    ParallelKind::Dp,
];

/// A die's coordinates in every strategy dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct StrategyCoord {
    /// Index within the TATP group.
    pub tatp: usize,
    /// Index within the TP group.
    pub tp: usize,
    /// Index within the SP group.
    pub sp: usize,
    /// Index within the CP group.
    pub cp: usize,
    /// Index within the DP group.
    pub dp: usize,
}

impl StrategyCoord {
    /// Coordinate of one strategy dimension.
    pub fn get(&self, kind: ParallelKind) -> usize {
        match kind {
            ParallelKind::Tatp => self.tatp,
            ParallelKind::Tp => self.tp,
            ParallelKind::Sp => self.sp,
            ParallelKind::Cp => self.cp,
            ParallelKind::Dp | ParallelKind::Fsdp => self.dp,
            // EP folds into the DP dimension for layout purposes (the
            // mapping boundary normalizes `ep` into `dp` before building a
            // layout); PP lives across wafers.
            ParallelKind::Ep | ParallelKind::Pp => 0,
        }
    }

    fn set(&mut self, kind: ParallelKind, v: usize) {
        match kind {
            ParallelKind::Tatp => self.tatp = v,
            ParallelKind::Tp => self.tp = v,
            ParallelKind::Sp => self.sp = v,
            ParallelKind::Cp => self.cp = v,
            ParallelKind::Dp | ParallelKind::Fsdp => self.dp = v,
            ParallelKind::Ep | ParallelKind::Pp => {}
        }
    }
}

/// The physical layout of a hybrid configuration on a wafer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaferLayout {
    policy: LayoutPolicy,
    config: HybridConfig,
    /// Per-die strategy coordinates, indexed by die id.
    coords: Vec<StrategyCoord>,
    /// Die id per flat layout position (inverse map).
    dies: Vec<DieId>,
}

impl WaferLayout {
    /// Lays out a configuration on the mesh.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError::DegreeMismatch`] if the configuration does
    /// not cover the die count, or [`ParallelError::InvalidParameter`] when
    /// `ep > 1` (a layout places the five intra-wafer degrees only) or no
    /// block factorization fits the mesh (topology-aware policy).
    pub fn build(mesh: &Mesh, config: &HybridConfig, policy: LayoutPolicy) -> Result<Self> {
        config.validate(mesh.die_count())?;
        if config.ep > 1 {
            return Err(ParallelError::InvalidParameter(format!(
                "ep = {} must be folded into dp before laying out {}",
                config.ep,
                config.label()
            )));
        }
        match policy {
            LayoutPolicy::TopologyAware => Self::build_blocks(mesh, config),
            LayoutPolicy::RowMajorStrips => Self::build_strips(mesh, config),
        }
    }

    /// Topology-aware nested blocks: factor each strategy degree into a
    /// `gx x gy` tile dividing the remaining grid, innermost first.
    fn build_blocks(mesh: &Mesh, config: &HybridConfig) -> Result<Self> {
        let mut rem_w = mesh.width() as usize;
        let mut rem_h = mesh.height() as usize;
        // (kind, gx, gy, stride_x, stride_y)
        let mut tiles: Vec<(ParallelKind, usize, usize, usize, usize)> = Vec::new();
        let mut stride_x = 1usize;
        let mut stride_y = 1usize;
        for kind in NESTING_ORDER {
            let g = config.degree(kind);
            let (gx, gy) = factor_tile(g, rem_w, rem_h).ok_or_else(|| {
                ParallelError::InvalidParameter(format!(
                    "cannot tile degree {g} of {kind} into remaining {rem_w}x{rem_h} grid"
                ))
            })?;
            tiles.push((kind, gx, gy, stride_x, stride_y));
            stride_x *= gx;
            stride_y *= gy;
            rem_w /= gx;
            rem_h /= gy;
        }
        let mut coords = vec![StrategyCoord::default(); mesh.die_count()];
        for die in mesh.dies() {
            let c = mesh.coord(die).expect("die in mesh");
            let mut sc = StrategyCoord::default();
            for (kind, gx, gy, sx, sy) in &tiles {
                let cx = (c.x as usize / sx) % gx;
                let cy = (c.y as usize / sy) % gy;
                // Snake order within the tile so consecutive indices are
                // physically adjacent (Hamiltonian path).
                let idx = if cy % 2 == 0 {
                    cy * gx + cx
                } else {
                    cy * gx + (gx - 1 - cx)
                };
                sc.set(*kind, idx);
            }
            coords[die.index()] = sc;
        }
        let dies: Vec<DieId> = mesh.dies().collect();
        Ok(WaferLayout {
            policy: LayoutPolicy::TopologyAware,
            config: *config,
            coords,
            dies,
        })
    }

    /// Naive flat strips: row-major flat index decomposed mixed-radix with
    /// DP outermost and TATP innermost.
    fn build_strips(mesh: &Mesh, config: &HybridConfig) -> Result<Self> {
        let mut coords = vec![StrategyCoord::default(); mesh.die_count()];
        for die in mesh.dies() {
            let mut rest = die.index();
            let mut sc = StrategyCoord::default();
            // Innermost (fastest-varying) first.
            for kind in NESTING_ORDER {
                let g = config.degree(kind);
                sc.set(kind, rest % g);
                rest /= g;
            }
            coords[die.index()] = sc;
        }
        let dies: Vec<DieId> = mesh.dies().collect();
        Ok(WaferLayout {
            policy: LayoutPolicy::RowMajorStrips,
            config: *config,
            coords,
            dies,
        })
    }

    /// The layout policy.
    pub fn policy(&self) -> LayoutPolicy {
        self.policy
    }

    /// The configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// A die's strategy coordinates.
    pub fn coord_of(&self, die: DieId) -> StrategyCoord {
        self.coords[die.index()]
    }

    /// All groups of one strategy. Each group lists member dies ordered by
    /// their index within the group (the logical stream/ring order).
    ///
    /// Groups come in lexicographic order of the members' other strategy
    /// coordinates (TATP first): each die lands in the group numbered by
    /// those coordinates read as one mixed-radix number, TATP most
    /// significant, with the strategies' degrees as radices.
    pub fn groups_of(&self, kind: ParallelKind) -> Vec<Vec<DieId>> {
        let degree = self.config.degree(kind);
        if degree <= 1 {
            return Vec::new();
        }
        let others = || NESTING_ORDER.iter().filter(move |k| **k != kind);
        let count: usize = others().map(|k| self.config.degree(*k)).product();
        let mut groups: Vec<Vec<DieId>> = (0..count)
            .map(|_| Vec::with_capacity(self.dies.len() / count))
            .collect();
        for &die in &self.dies {
            let sc = self.coord_of(die);
            let group = others().fold(0, |g, k| g * self.config.degree(*k) + sc.get(*k));
            groups[group].push(die);
        }
        for members in &mut groups {
            members.sort_unstable_by_key(|d| (self.coord_of(*d).get(kind), *d));
        }
        groups
    }

    /// Fraction of `kind`'s groups whose consecutive logical members are all
    /// physically adjacent (1-hop streaming paths).
    pub fn path_contiguity(&self, mesh: &Mesh, kind: ParallelKind) -> f64 {
        let groups = self.groups_of(kind);
        if groups.is_empty() {
            return 1.0;
        }
        let good = groups
            .iter()
            .filter(|g| g.windows(2).all(|w| mesh.adjacent(w[0], w[1])))
            .count();
        good as f64 / groups.len() as f64
    }

    /// Fraction of `kind`'s groups embedding a contiguous physical ring.
    pub fn ring_contiguity(&self, mesh: &Mesh, kind: ParallelKind) -> f64 {
        let groups = self.groups_of(kind);
        if groups.is_empty() {
            return 1.0;
        }
        let good = groups
            .iter()
            .filter(|g| rings::ring_order(mesh, g).is_some())
            .count();
        good as f64 / groups.len() as f64
    }
}

/// Factors `g` into `(gx, gy)` with `gx | rem_w`, `gy | rem_h`, preferring
/// near-square tiles (and `gx >= gy` ties toward wide tiles, matching row
/// dominance of the 8x4 wafer).
fn factor_tile(g: usize, rem_w: usize, rem_h: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for gx in 1..=g {
        if g % gx != 0 {
            continue;
        }
        let gy = g / gx;
        if rem_w % gx != 0 || rem_h % gy != 0 {
            continue;
        }
        let score = (gx as isize - gy as isize).abs();
        let better = match best {
            None => true,
            Some((bx, by)) => score < (bx as isize - by as isize).abs(),
        };
        if better {
            best = Some((gx, gy));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_wsc::config::WaferConfig;

    fn mesh() -> Mesh {
        WaferConfig::hpca().mesh() // 8x4
    }

    /// Groups bucketed by the full key of other strategy coordinates in a
    /// `BTreeMap`, each sorted stably by index within the group: the
    /// oracle of [`WaferLayout::groups_of`]'s mixed-radix placement.
    fn keyed_groups(layout: &WaferLayout, kind: ParallelKind) -> Vec<Vec<DieId>> {
        use std::collections::BTreeMap;
        if layout.config.degree(kind) <= 1 {
            return Vec::new();
        }
        let mut buckets: BTreeMap<Vec<usize>, Vec<(usize, DieId)>> = BTreeMap::new();
        for die in &layout.dies {
            let sc = layout.coord_of(*die);
            let key: Vec<usize> = NESTING_ORDER
                .iter()
                .filter(|k| **k != kind)
                .map(|k| sc.get(*k))
                .collect();
            buckets.entry(key).or_default().push((sc.get(kind), *die));
        }
        buckets
            .into_values()
            .map(|mut members| {
                members.sort_by_key(|(idx, _)| *idx);
                members.into_iter().map(|(_, d)| d).collect()
            })
            .collect()
    }

    #[test]
    fn mixed_radix_groups_match_keyed_buckets_on_every_enumerated_config() {
        let kinds = [
            ParallelKind::Dp,
            ParallelKind::Fsdp,
            ParallelKind::Tp,
            ParallelKind::Sp,
            ParallelKind::Cp,
            ParallelKind::Ep,
            ParallelKind::Pp,
            ParallelKind::Tatp,
        ];
        let mut layouts = 0;
        for (w, h) in [(8u32, 4u32), (8, 8), (16, 8)] {
            let m = Mesh::new(w, h).unwrap();
            let dies = m.die_count();
            let configs = [
                HybridConfig::enumerate_tuples(dies, false),
                HybridConfig::enumerate_tuples(dies, true),
                HybridConfig::enumerate_tuples_ep(dies, false, 4),
                vec![HybridConfig {
                    cp: 2,
                    tatp: 2,
                    dp: dies / 4,
                    ..Default::default()
                }],
            ]
            .concat();
            for cfg in &configs {
                for policy in [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips] {
                    let Ok(layout) = WaferLayout::build(&m, cfg, policy) else {
                        continue;
                    };
                    layouts += 1;
                    for kind in kinds {
                        assert_eq!(
                            layout.groups_of(kind),
                            keyed_groups(&layout, kind),
                            "{} {kind} {policy:?} on {w}x{h}",
                            cfg.label()
                        );
                    }
                }
            }
        }
        assert!(layouts > 100, "{layouts} layouts");
    }

    #[test]
    fn topology_aware_tatp_groups_are_paths() {
        let m = mesh();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let layout = WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).unwrap();
        assert_eq!(layout.groups_of(ParallelKind::Tatp).len(), 4);
        assert!((layout.path_contiguity(&m, ParallelKind::Tatp) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strips_layout_breaks_tatp_adjacency_at_row_wraps() {
        // TATP=16 groups: row-major strips span two rows and the step from
        // (7, y) to (0, y+1) is 7 hops; topology-aware 4x4 blocks with snake
        // ordering stay 1-hop.
        let m = mesh();
        let cfg = HybridConfig::tuple(2, 1, 1, 16);
        let aware = WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).unwrap();
        let strips = WaferLayout::build(&m, &cfg, LayoutPolicy::RowMajorStrips).unwrap();
        let aware_tatp = aware.path_contiguity(&m, ParallelKind::Tatp);
        let strips_tatp = strips.path_contiguity(&m, ParallelKind::Tatp);
        assert!((aware_tatp - 1.0).abs() < 1e-12, "aware {aware_tatp}");
        assert!(strips_tatp < 0.5, "strips {strips_tatp}");
    }

    #[test]
    fn groups_partition_all_dies() {
        let m = mesh();
        let cfg = HybridConfig::tuple(2, 2, 2, 4);
        for policy in [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips] {
            let layout = WaferLayout::build(&m, &cfg, policy).unwrap();
            for kind in [
                ParallelKind::Dp,
                ParallelKind::Tp,
                ParallelKind::Sp,
                ParallelKind::Tatp,
            ] {
                let degree = cfg.degree(kind);
                let groups = layout.groups_of(kind);
                assert_eq!(groups.len(), 32 / degree, "{kind} groups under {policy:?}");
                assert!(groups.iter().all(|g| g.len() == degree));
                let mut all: Vec<DieId> = groups.into_iter().flatten().collect();
                all.sort();
                all.dedup();
                assert_eq!(all.len(), 32);
            }
        }
    }

    #[test]
    fn group_members_share_other_coords() {
        let m = mesh();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let layout = WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).unwrap();
        for group in layout.groups_of(ParallelKind::Tatp) {
            let first = layout.coord_of(group[0]);
            for d in &group {
                let c = layout.coord_of(*d);
                assert_eq!(c.dp, first.dp);
                assert_eq!(c.tp, first.tp);
                assert_eq!(c.sp, first.sp);
            }
            // Within the group, TATP indices are 0..n.
            let mut idx: Vec<usize> = group.iter().map(|d| layout.coord_of(*d).tatp).collect();
            idx.sort_unstable();
            assert_eq!(idx, (0..group.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn degree_one_strategies_have_no_groups() {
        let m = mesh();
        let cfg = HybridConfig::tuple(1, 1, 1, 32);
        let layout = WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).unwrap();
        assert!(layout.groups_of(ParallelKind::Dp).is_empty());
        assert_eq!(layout.groups_of(ParallelKind::Tatp).len(), 1);
    }

    #[test]
    fn full_wafer_tatp_group_is_a_snake_path() {
        let m = mesh();
        let cfg = HybridConfig::tuple(1, 1, 1, 32);
        let layout = WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).unwrap();
        assert!((layout.path_contiguity(&m, ParallelKind::Tatp) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expert_parallel_configs_are_rejected_until_folded_into_dp() {
        let m = mesh();
        let moe = HybridConfig {
            ep: 4,
            tatp: 8,
            ..Default::default()
        };
        let folded = HybridConfig {
            dp: 4,
            ep: 1,
            ..moe
        };
        for policy in [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips] {
            match WaferLayout::build(&m, &moe, policy) {
                Err(ParallelError::InvalidParameter(msg)) => {
                    assert!(msg.contains("folded into dp"), "{msg}");
                }
                other => panic!("{policy:?}: ep = 4 was laid out: {other:?}"),
            }
            let layout = WaferLayout::build(&m, &folded, policy).unwrap();
            assert_eq!(layout.groups_of(ParallelKind::Tatp).len(), 4);
        }
    }

    #[test]
    fn impossible_tiling_is_rejected() {
        // Degree 3 cannot tile an 8x4 grid.
        let m = mesh();
        let cfg = HybridConfig {
            dp: 3,
            tatp: 1,
            tp: 1,
            sp: 1,
            cp: 1,
            ep: 1,
            pp: 1,
            fsdp: false,
        };
        // 3 does not divide 32, so validation fails first with mismatch.
        assert!(WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).is_err());
    }

    #[test]
    fn fig7_array_block_groups_ring_fraction() {
        // 9x6 wafer, degree-6 groups: topology-aware blocks all embed rings.
        let m = Mesh::new(9, 6).unwrap();
        let cfg = HybridConfig {
            dp: 9,
            tatp: 6,
            ..Default::default()
        };
        let layout = WaferLayout::build(&m, &cfg, LayoutPolicy::TopologyAware).unwrap();
        let frac = layout.ring_contiguity(&m, ParallelKind::Tatp);
        assert!(frac > 0.99, "block 6-groups embed rings, got {frac}");
        let strips = WaferLayout::build(&m, &cfg, LayoutPolicy::RowMajorStrips).unwrap();
        let sfrac = strips.ring_contiguity(&m, ParallelKind::Tatp);
        assert!(sfrac < frac, "strips {sfrac} vs blocks {frac}");
    }
}
