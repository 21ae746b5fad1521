//! Link and core fault models (Fig. 20, §VIII-F).
//!
//! Large wafer deployments never yield perfect meshes. TEMP adapts at the
//! framework level instead of demanding hardware redundancy: faults are
//! localized and classified, tensor partitions re-balanced, and
//! communication re-routed. This module provides the fault substrate:
//! seeded fault injection, surviving-topology queries, and fault-aware
//! shortest-path routing.

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::topology::{DieId, LinkId, Mesh};
use crate::{Result, WscError};

/// A wafer's fault state: dead D2D links and per-die dead-core fractions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultMap {
    dead_links: BTreeSet<LinkId>,
    /// `core_fault[die]` = fraction of that die's compute cores that are
    /// dead, in `[0, 1]`.
    core_fault: Vec<f64>,
}

impl FaultMap {
    /// A fault-free map for a mesh.
    pub fn healthy(mesh: &Mesh) -> Self {
        FaultMap {
            dead_links: BTreeSet::new(),
            core_fault: vec![0.0; mesh.die_count()],
        }
    }

    /// Injects link faults with **deterministic-count** semantics: exactly
    /// `round(undirected_links * rate)` undirected links die — not an
    /// independent per-link coin flip — chosen by a seeded shuffle. Both
    /// directions of a dead link are removed. Deterministic in `seed`, and
    /// monotone in `rate` for a fixed seed: the dead set at a higher rate
    /// is a superset of the dead set at a lower rate (the shuffle order is
    /// fixed, only the kill count grows), which is what makes per-seed
    /// degradation sweeps well-ordered.
    pub fn inject_link_faults(mesh: &Mesh, rate: f64, seed: u64) -> Self {
        let mut map = FaultMap::healthy(mesh);
        let rate = rate.clamp(0.0, 1.0);
        // Collect undirected pairs once (src < dst).
        let mut pairs: Vec<(LinkId, LinkId)> = Vec::new();
        for (i, l) in mesh.links().iter().enumerate() {
            if l.src < l.dst {
                let back = mesh
                    .link_between(l.dst, l.src)
                    .expect("mesh links are symmetric");
                pairs.push((LinkId(i as u32), back));
            }
        }
        let kill_count = (pairs.len() as f64 * rate).round() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        pairs.shuffle(&mut rng);
        for (fwd, back) in pairs.into_iter().take(kill_count) {
            map.dead_links.insert(fwd);
            map.dead_links.insert(back);
        }
        map
    }

    /// Injects core faults: kills `rate` of all cores on the wafer, spread
    /// die-by-die with mild variance. Deterministic in `seed`.
    pub fn inject_core_faults(mesh: &Mesh, rate: f64, seed: u64) -> Self {
        let mut map = FaultMap::healthy(mesh);
        let rate = rate.clamp(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        for f in map.core_fault.iter_mut() {
            // Jitter each die's fault fraction around the global rate.
            let jitter: f64 = rng.gen_range(-0.5..0.5) * rate;
            *f = (rate + jitter).clamp(0.0, 1.0);
        }
        // Renormalize so the wafer-wide mean matches `rate` exactly.
        let mean: f64 = map.core_fault.iter().sum::<f64>() / mesh.die_count() as f64;
        if mean > 0.0 {
            let scale = rate / mean;
            for f in map.core_fault.iter_mut() {
                *f = (*f * scale).clamp(0.0, 1.0);
            }
        }
        map
    }

    /// Marks a single directed link (and its reverse) dead.
    pub fn kill_link(&mut self, mesh: &Mesh, link: LinkId) {
        self.dead_links.insert(link);
        let l = mesh.links()[link.index()];
        if let Ok(back) = mesh.link_between(l.dst, l.src) {
            self.dead_links.insert(back);
        }
    }

    /// Whether a directed link is dead.
    pub fn link_dead(&self, link: LinkId) -> bool {
        self.dead_links.contains(&link)
    }

    /// Number of dead directed links.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.len()
    }

    /// Fraction of a die's cores that survive (compute derating factor).
    pub fn surviving_compute(&self, die: DieId) -> f64 {
        1.0 - self.core_fault.get(die.index()).copied().unwrap_or(0.0)
    }

    /// Wafer-wide mean dead-core fraction.
    pub fn mean_core_fault(&self) -> f64 {
        if self.core_fault.is_empty() {
            return 0.0;
        }
        self.core_fault.iter().sum::<f64>() / self.core_fault.len() as f64
    }

    /// Surviving neighbors of a die (mesh neighbors reachable over live links).
    pub fn live_neighbors(&self, mesh: &Mesh, die: DieId) -> Vec<DieId> {
        mesh.neighbors(die)
            .into_iter()
            .filter(|n| {
                mesh.link_between(die, *n)
                    .map(|l| !self.link_dead(l))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// BFS shortest path from `src` to `dst` over live links, inclusive of
    /// endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::NoRoute`] when faults have disconnected the pair.
    pub fn route_around(&self, mesh: &Mesh, src: DieId, dst: DieId) -> Result<Vec<DieId>> {
        if src == dst {
            return Ok(vec![src]);
        }
        let n = mesh.die_count();
        let mut prev: Vec<Option<DieId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[src.index()] = true;
        q.push_back(src);
        while let Some(cur) = q.pop_front() {
            for nb in self.live_neighbors(mesh, cur) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    prev[nb.index()] = Some(cur);
                    if nb == dst {
                        let mut path = vec![dst];
                        let mut at = dst;
                        while let Some(p) = prev[at.index()] {
                            path.push(p);
                            at = p;
                        }
                        path.reverse();
                        return Ok(path);
                    }
                    q.push_back(nb);
                }
            }
        }
        Err(WscError::NoRoute {
            src: src.0,
            dst: dst.0,
        })
    }

    /// Whether this map carries no faults at all (no dead links, no dead
    /// cores). A healthy map must behave exactly like no fault map: callers
    /// use this to route the fault-free case through the unmodified healthy
    /// code path so plans stay bit-for-bit identical.
    pub fn is_healthy(&self) -> bool {
        self.dead_links.is_empty() && self.core_fault.iter().all(|f| *f == 0.0)
    }

    /// The worst single die's surviving-core fraction (the binding
    /// constraint for uniform SPMD shard sizing: every die must hold its
    /// shard, so the most degraded die caps usable per-die memory).
    pub fn min_surviving_compute(&self) -> f64 {
        self.core_fault.iter().map(|f| 1.0 - *f).fold(1.0, f64::min)
    }

    /// Wafer-wide mean surviving-core fraction (the compute derating:
    /// partition re-balancing spreads work in proportion to surviving
    /// cores, so aggregate throughput tracks the mean, not the worst die).
    pub fn mean_surviving_compute(&self) -> f64 {
        1.0 - self.mean_core_fault()
    }

    /// Summarizes this fault map as the degraded-fabric factors the cost
    /// model consumes (see [`DegradedView`]). `O(links * dies)` — BFS per
    /// formerly-adjacent pair with at least one dead link touching it.
    pub fn degraded_view(&self, mesh: &Mesh) -> DegradedView {
        let connected = self.is_connected(mesh);
        let total_links = mesh.link_count();
        let link_survival = if total_links == 0 {
            1.0
        } else {
            (total_links - self.dead_links.len()) as f64 / total_links as f64
        };
        // Mean detour over formerly-adjacent pairs: how much longer the
        // shortest live path is than the original single hop. Live links
        // contribute 1.0; severed neighbor pairs contribute their BFS
        // length (only meaningful when the mesh stays connected).
        let mut detour_sum = 0.0;
        let mut pair_count = 0usize;
        for (i, l) in mesh.links().iter().enumerate() {
            if l.src >= l.dst {
                continue;
            }
            pair_count += 1;
            if !self.link_dead(LinkId(i as u32)) {
                detour_sum += 1.0;
            } else if let Ok(path) = self.route_around(mesh, l.src, l.dst) {
                detour_sum += (path.len() - 1) as f64;
            } else {
                // Disconnected pair: count the wafer diameter as a bound;
                // the `connected` flag is what marks the plan infeasible.
                detour_sum += (mesh.die_count()) as f64;
            }
        }
        let mean_detour = if pair_count == 0 {
            1.0
        } else {
            detour_sum / pair_count as f64
        };
        DegradedView {
            connected,
            compute_factor: self.mean_surviving_compute().max(0.0),
            memory_factor: self.min_surviving_compute().max(0.0),
            link_survival,
            mean_detour,
            dead_links: self.dead_links.len(),
        }
    }

    /// Whether all dies remain mutually reachable over live links.
    pub fn is_connected(&self, mesh: &Mesh) -> bool {
        let n = mesh.die_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[0] = true;
        q.push_back(DieId(0));
        let mut count = 1;
        while let Some(cur) = q.pop_front() {
            for nb in self.live_neighbors(mesh, cur) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    q.push_back(nb);
                }
            }
        }
        count == n
    }
}

/// The degraded-fabric factors a [`FaultMap`] induces on a [`Mesh`] — the
/// summary the solver's cost model derates with (Fig. 20, §VIII-F).
///
/// All factors are `1.0` (and `connected` true, `dead_links` zero) for a
/// healthy map, so a degraded cost model built from a healthy view prices
/// identically to the healthy one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradedView {
    /// Whether all dies remain mutually reachable. A disconnected wafer
    /// cannot run lockstep SPMD collectives at all: no feasible plan.
    pub connected: bool,
    /// Wafer-wide mean surviving-core fraction in `[0, 1]`: scales
    /// aggregate compute throughput (re-balanced partitions track the
    /// mean).
    pub compute_factor: f64,
    /// Worst-die surviving fraction in `[0, 1]`: scales usable per-die
    /// memory (a uniform shard must fit the most degraded die).
    pub memory_factor: f64,
    /// Surviving directed links / total directed links, in `[0, 1]`:
    /// the wafer's bisection derating.
    pub link_survival: f64,
    /// Mean live-path length over formerly-adjacent die pairs (`>= 1`):
    /// how much longer rerouted neighbor traffic travels.
    pub mean_detour: f64,
    /// Number of dead *directed* links.
    pub dead_links: usize,
}

impl DegradedView {
    /// A healthy (identity) view.
    pub fn healthy() -> Self {
        DegradedView {
            connected: true,
            compute_factor: 1.0,
            memory_factor: 1.0,
            link_survival: 1.0,
            mean_detour: 1.0,
            dead_links: 0,
        }
    }

    /// The multiplicative slowdown on link-bound (collective / streaming)
    /// time: rerouted traffic travels `mean_detour` times farther over
    /// `link_survival` of the original bisection.
    pub fn link_time_factor(&self) -> f64 {
        if self.link_survival <= 0.0 {
            return f64::INFINITY;
        }
        self.mean_detour / self.link_survival
    }

    /// Whether this view is the identity (no derating anywhere).
    pub fn is_identity(&self) -> bool {
        self.connected
            && self.dead_links == 0
            && self.compute_factor == 1.0
            && self.memory_factor == 1.0
            && self.link_survival == 1.0
            && self.mean_detour == 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Coord, Mesh};

    fn mesh() -> Mesh {
        Mesh::new(8, 4).unwrap()
    }

    #[test]
    fn healthy_map_has_no_faults() {
        let m = mesh();
        let f = FaultMap::healthy(&m);
        assert_eq!(f.dead_link_count(), 0);
        assert!((f.mean_core_fault()).abs() < 1e-12);
        assert!(f.is_connected(&m));
    }

    #[test]
    fn link_injection_is_deterministic_and_proportional() {
        let m = mesh();
        let f1 = FaultMap::inject_link_faults(&m, 0.2, 42);
        let f2 = FaultMap::inject_link_faults(&m, 0.2, 42);
        assert_eq!(f1, f2);
        let undirected = m.link_count() / 2;
        let expected = ((undirected as f64) * 0.2).round() as usize * 2;
        assert_eq!(f1.dead_link_count(), expected);
    }

    #[test]
    fn link_injection_kills_an_exact_rounded_count_not_a_coin_flip() {
        // Deterministic-count semantics: for every rate the number of dead
        // undirected links is exactly `round(undirected * rate)` — there is
        // no binomial spread, which an independent-probability model would
        // show across seeds.
        let m = mesh();
        let undirected = m.link_count() / 2;
        for rate in [0.0, 0.05, 0.1, 0.25, 0.33, 0.5, 0.75, 1.0] {
            let expected = ((undirected as f64) * rate).round() as usize * 2;
            for seed in 0u64..8 {
                let f = FaultMap::inject_link_faults(&m, rate, seed);
                assert_eq!(
                    f.dead_link_count(),
                    expected,
                    "rate={rate} seed={seed}: count must be exact, not probabilistic"
                );
            }
        }
    }

    #[test]
    fn link_injection_is_monotone_in_rate_per_seed() {
        // Fixed seed, growing rate: the dead set only grows (the shuffle
        // order is fixed; only the kill prefix lengthens). Degradation
        // sweeps rely on this nesting.
        let m = mesh();
        for seed in 0u64..6 {
            let mut prev = FaultMap::inject_link_faults(&m, 0.0, seed);
            for rate in [0.1, 0.2, 0.35, 0.5, 0.8] {
                let next = FaultMap::inject_link_faults(&m, rate, seed);
                for link in m.links().iter().enumerate().filter_map(|(i, _)| {
                    let id = LinkId(i as u32);
                    prev.link_dead(id).then_some(id)
                }) {
                    assert!(next.link_dead(link), "seed={seed} rate={rate}");
                }
                prev = next;
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let m = mesh();
        let f1 = FaultMap::inject_link_faults(&m, 0.3, 1);
        let f2 = FaultMap::inject_link_faults(&m, 0.3, 2);
        assert_ne!(f1, f2);
    }

    #[test]
    fn core_injection_hits_target_mean() {
        let m = mesh();
        let f = FaultMap::inject_core_faults(&m, 0.25, 7);
        assert!((f.mean_core_fault() - 0.25).abs() < 0.02);
        for die in m.dies() {
            let s = f.surviving_compute(die);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn route_around_single_dead_link() {
        let m = mesh();
        let a = m.die_at(Coord::new(0, 0)).unwrap();
        let b = m.die_at(Coord::new(1, 0)).unwrap();
        let mut f = FaultMap::healthy(&m);
        let l = m.link_between(a, b).unwrap();
        f.kill_link(&m, l);
        let path = f.route_around(&m, a, b).unwrap();
        assert!(path.len() > 2, "must detour, got {path:?}");
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        // Every step uses a live link.
        for w in path.windows(2) {
            let l = m.link_between(w[0], w[1]).unwrap();
            assert!(!f.link_dead(l));
        }
    }

    #[test]
    fn disconnection_is_detected() {
        let m = Mesh::new(2, 1).unwrap();
        let mut f = FaultMap::healthy(&m);
        let l = m.link_between(DieId(0), DieId(1)).unwrap();
        f.kill_link(&m, l);
        assert!(!f.is_connected(&m));
        assert!(matches!(
            f.route_around(&m, DieId(0), DieId(1)),
            Err(WscError::NoRoute { .. })
        ));
    }

    #[test]
    fn route_to_self_is_trivial() {
        let m = mesh();
        let f = FaultMap::inject_link_faults(&m, 0.5, 3);
        assert_eq!(
            f.route_around(&m, DieId(5), DieId(5)).unwrap(),
            vec![DieId(5)]
        );
    }

    #[test]
    fn healthy_view_is_the_identity() {
        let m = mesh();
        let f = FaultMap::healthy(&m);
        assert!(f.is_healthy());
        let v = f.degraded_view(&m);
        assert!(v.is_identity());
        assert_eq!(v, DegradedView::healthy());
        assert_eq!(v.link_time_factor(), 1.0);
    }

    #[test]
    fn degraded_view_tracks_link_and_core_faults() {
        let m = mesh();
        let f = FaultMap::inject_link_faults(&m, 0.1, 11);
        let v = f.degraded_view(&m);
        assert!(!f.is_healthy());
        assert!(v.connected);
        assert!(v.link_survival < 1.0);
        assert!(v.mean_detour > 1.0);
        assert!(v.link_time_factor() > 1.0);
        assert_eq!(v.compute_factor, 1.0);
        assert_eq!(v.memory_factor, 1.0);

        let c = FaultMap::inject_core_faults(&m, 0.25, 11);
        let cv = c.degraded_view(&m);
        assert!(cv.connected);
        assert_eq!(cv.link_survival, 1.0);
        assert_eq!(cv.mean_detour, 1.0);
        assert!((cv.compute_factor - 0.75).abs() < 0.02);
        // The worst die is strictly more degraded than the mean (jittered
        // injection), so memory derates harder than compute.
        assert!(cv.memory_factor < cv.compute_factor);
        assert!(cv.memory_factor > 0.0);
    }

    #[test]
    fn degraded_view_monotone_in_link_rate_per_seed() {
        let m = mesh();
        for seed in [3u64, 17] {
            let mut last_survival = 1.0f64;
            let mut last_detour = 1.0f64;
            for rate in [0.0, 0.1, 0.2, 0.3] {
                let v = FaultMap::inject_link_faults(&m, rate, seed).degraded_view(&m);
                if !v.connected {
                    break;
                }
                assert!(v.link_survival <= last_survival + 1e-12, "seed={seed}");
                assert!(v.mean_detour + 1e-12 >= last_detour, "seed={seed}");
                last_survival = v.link_survival;
                last_detour = v.mean_detour;
            }
        }
    }

    #[test]
    fn full_rate_kills_every_link() {
        let m = mesh();
        let f = FaultMap::inject_link_faults(&m, 1.0, 9);
        assert_eq!(f.dead_link_count(), m.link_count());
        assert!(!f.is_connected(&m));
    }
}
