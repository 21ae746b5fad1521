//! The five-phase traffic-conscious communication optimizer (Fig. 11).
//!
//! Phases, as in the paper's flowchart:
//!
//! 1. **Communication pattern analysis & path initialization** — flows come
//!    in routed with contention-agnostic XY paths;
//! 2. **Bottleneck identification & load recording** — find the most
//!    congested link (`mcl`) and its load (`cur`);
//! 3. **Congested path identification** — collect the flows crossing `mcl`;
//! 4. **Path merging & routing optimization** — merge duplicate payloads
//!    into multicast (shared links carry one copy) and reroute remaining
//!    hot flows over congestion-aware detours;
//! 5. **Global update & termination check** — recompute `mcl`; stop when
//!    improvement stagnates or `MAX_ITER` is reached.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use temp_sim::network::Flow;
use temp_wsc::topology::{DieId, LinkId, Mesh, RouteOrder};

use crate::comm::TaggedFlow;

/// Default iteration cap (the paper's `MAX_ITER`).
pub const MAX_ITER: usize = 32;

/// Outcome of a traffic optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationOutcome {
    /// Flows with optimized routes.
    pub flows: Vec<TaggedFlow>,
    /// Max per-link load (bytes) before optimization.
    pub initial_max_load: f64,
    /// Max per-link load (bytes) after optimization.
    pub final_max_load: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Flows rerouted.
    pub rerouted: usize,
}

impl OptimizationOutcome {
    /// Contention reduction factor (`initial / final`), >= 1 on success.
    pub fn improvement(&self) -> f64 {
        if self.final_max_load <= 0.0 {
            1.0
        } else {
            self.initial_max_load / self.final_max_load
        }
    }
}

/// The traffic-conscious communication optimizer.
#[derive(Debug, Clone)]
pub struct TrafficOptimizer {
    mesh: Mesh,
    max_iter: usize,
}

impl TrafficOptimizer {
    /// Creates an optimizer for a mesh with the default iteration cap.
    pub fn new(mesh: Mesh) -> Self {
        TrafficOptimizer {
            mesh,
            max_iter: MAX_ITER,
        }
    }

    /// Overrides the iteration cap.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Per-link loads with multicast dedup: a payload crossing a link in
    /// multiple flows is carried once.
    pub fn link_loads(&self, flows: &[TaggedFlow]) -> HashMap<LinkId, f64> {
        multicast_link_loads(flows)
    }

    fn max_load(&self, flows: &[TaggedFlow]) -> (Option<LinkId>, f64) {
        Self::max_of(&self.link_loads(flows))
    }

    /// Most-loaded link of an already-built load map. Equal loads
    /// resolve to the lowest [`LinkId`], so the bottleneck (and with it
    /// every reroute) does not depend on map iteration order.
    fn max_of(loads: &HashMap<LinkId, f64>) -> (Option<LinkId>, f64) {
        loads
            .iter()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .expect("finite loads")
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(l, v)| (Some(*l), *v))
            .unwrap_or((None, 0.0))
    }

    /// Runs the five-phase optimization loop.
    pub fn optimize(&self, mut flows: Vec<TaggedFlow>) -> OptimizationOutcome {
        // Phase 1 happened upstream (XY-initialized routes).
        // Phase 2: bottleneck identification.
        let (mut mcl, initial) = self.max_load(&flows);
        let mut cur = initial;
        let mut prev = 2.0 * cur;
        let mut iterations = 0;
        let mut rerouted = 0;

        while cur < prev && cur > 0.0 {
            if iterations >= self.max_iter {
                break;
            }
            prev = cur;
            iterations += 1;
            let Some(bottleneck) = mcl else { break };
            // Phase 3: congested path identification.
            let hot: Vec<usize> = flows
                .iter()
                .enumerate()
                .filter(|(_, tf)| tf.flow.route.contains(&bottleneck))
                .map(|(i, _)| i)
                .collect();
            // Phase 4: reroute hot flows over load-aware detours.
            // (Duplicate merging is implicit in `link_loads`' multicast
            // dedup; rerouting must therefore beat the deduped load.)
            // The load map only changes when a reroute is accepted, so it
            // is rebuilt on acceptance instead of once per hot flow — the
            // values every candidate is judged against are identical.
            let mut loads = self.link_loads(&flows);
            for i in hot {
                let candidate = self.best_alternative(&flows, &loads, i, bottleneck);
                if let Some(new_flow) = candidate {
                    flows[i].flow = new_flow;
                    rerouted += 1;
                    loads = self.link_loads(&flows);
                }
            }
            // Phase 5: global update & termination check. `loads` is
            // rebuilt after every accepted reroute, so it is current here.
            let (new_mcl, new_cur) = Self::max_of(&loads);
            mcl = new_mcl;
            cur = new_cur;
        }
        // `cur` always holds the max load of the final flow set: every
        // path that mutates `flows` refreshes it in phase 5.
        OptimizationOutcome {
            flows,
            initial_max_load: initial,
            final_max_load: cur,
            iterations,
            rerouted,
        }
    }

    /// Best alternative route for flow `i` avoiding `bottleneck`: tries the
    /// transposed dimension order and a load-aware Dijkstra detour; returns
    /// the route that lowers the flow's own bottleneck load, if any.
    /// `loads` must be the current flow set's [`TrafficOptimizer::link_loads`].
    fn best_alternative(
        &self,
        flows: &[TaggedFlow],
        loads: &HashMap<LinkId, f64>,
        i: usize,
        bottleneck: LinkId,
    ) -> Option<Flow> {
        let tf = &flows[i];
        let current_worst = self.route_worst_load(loads, &tf.flow.route, 0.0);
        let mut best: Option<(f64, Flow)> = None;
        // Candidate 1: transposed dimension order.
        let yx = Flow::routed(
            &self.mesh,
            tf.flow.src,
            tf.flow.dst,
            tf.flow.bytes,
            RouteOrder::YThenX,
        );
        // Candidate 2: load-aware shortest path.
        let dijkstra = self.load_aware_route(loads, tf.flow.src, tf.flow.dst, tf.flow.bytes);
        for cand in std::iter::once(yx).chain(dijkstra) {
            if cand.route == tf.flow.route || cand.route.contains(&bottleneck) {
                continue;
            }
            // Detours pay store-and-forward per extra hop; cap the stretch
            // so the reroute cannot trade congestion for raw path length.
            if cand.route.len() > tf.flow.route.len() + 2 {
                continue;
            }
            // Load as seen by this flow after moving: subtract itself from
            // its old links, add to new.
            let worst = self.route_worst_load(loads, &cand.route, tf.flow.bytes);
            if worst < current_worst && best.as_ref().map(|(w, _)| worst < *w).unwrap_or(true) {
                best = Some((worst, cand));
            }
        }
        best.map(|(_, f)| f)
    }

    fn route_worst_load(&self, loads: &HashMap<LinkId, f64>, route: &[LinkId], add: f64) -> f64 {
        route
            .iter()
            .map(|l| loads.get(l).copied().unwrap_or(0.0) + add)
            .fold(0.0f64, f64::max)
    }

    /// Dijkstra over dies with link weight `1 + load/bytes` (hop count plus
    /// normalized congestion), producing a detour candidate.
    fn load_aware_route(
        &self,
        loads: &HashMap<LinkId, f64>,
        src: DieId,
        dst: DieId,
        bytes: f64,
    ) -> Option<Flow> {
        if src == dst {
            return None;
        }
        let n = self.mesh.die_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<DieId>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(std::cmp::Reverse((ordered_float(0.0), src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            let d = d.0;
            if d > dist[u.index()] {
                continue;
            }
            if u == dst {
                break;
            }
            for v in self.mesh.neighbors(u) {
                let link = self.mesh.link_between(u, v).expect("neighbors have links");
                let load = loads.get(&link).copied().unwrap_or(0.0);
                let w = 1.0 + load / bytes.max(1.0);
                let nd = d + w;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(u);
                    heap.push(std::cmp::Reverse((ordered_float(nd), v)));
                }
            }
        }
        if dist[dst.index()].is_infinite() {
            return None;
        }
        let mut path = vec![dst];
        let mut at = dst;
        while let Some(p) = prev[at.index()] {
            path.push(p);
            at = p;
            if at == src {
                break;
            }
        }
        path.reverse();
        Flow::with_path(&self.mesh, &path, bytes).ok()
    }
}

/// Per-link loads with multicast dedup: a payload crossing a link in
/// multiple flows is carried once.
pub(crate) fn multicast_link_loads(flows: &[TaggedFlow]) -> HashMap<LinkId, f64> {
    let mut seen: std::collections::HashSet<(u64, LinkId)> = std::collections::HashSet::new();
    let mut loads: HashMap<LinkId, f64> = HashMap::new();
    for tf in flows {
        for l in &tf.flow.route {
            if seen.insert((tf.payload, *l)) {
                *loads.entry(*l).or_insert(0.0) += tf.flow.bytes;
            }
        }
    }
    loads
}

/// Total-ordering wrapper for f64 heap keys (loads are always finite).
fn ordered_float(v: f64) -> OrderedF64 {
    OrderedF64(v)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite weights")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_sim::network::ContentionSim;
    use temp_wsc::config::WaferConfig;
    use temp_wsc::units::MB;

    fn setup() -> (Mesh, TrafficOptimizer) {
        let mesh = WaferConfig::hpca().mesh();
        (mesh.clone(), TrafficOptimizer::new(mesh))
    }

    fn tagged(mesh: &Mesh, src: u32, dst: u32, bytes: f64, payload: u64) -> TaggedFlow {
        TaggedFlow {
            flow: Flow::xy(mesh, DieId(src), DieId(dst), bytes),
            payload,
        }
    }

    #[test]
    fn fig5b_contention_is_removed_by_rerouting() {
        // Two flows forced through Link 1->2 by XY routing; a detour exists
        // through the row below.
        let (mesh, opt) = setup();
        let flows = vec![
            tagged(&mesh, 0, 2, 64.0 * MB, 1),
            tagged(&mesh, 1, 3, 64.0 * MB, 2),
        ];
        let out = opt.optimize(flows);
        assert!(
            out.final_max_load < out.initial_max_load,
            "final {} vs initial {}",
            out.final_max_load,
            out.initial_max_load
        );
        assert!(out.rerouted >= 1);
        assert!(out.improvement() > 1.2);
    }

    #[test]
    fn contention_free_traffic_is_untouched() {
        let (mesh, opt) = setup();
        let flows = vec![
            tagged(&mesh, 0, 1, 32.0 * MB, 1),
            tagged(&mesh, 16, 17, 32.0 * MB, 2),
        ];
        let out = opt.optimize(flows);
        assert_eq!(out.rerouted, 0);
        assert!((out.final_max_load - out.initial_max_load).abs() < 1.0);
    }

    #[test]
    fn multicast_dedup_counts_shared_payload_once() {
        let (mesh, opt) = setup();
        // The same payload broadcast from die 0 to dies 2 and 3: links
        // shared by both routes carry it once.
        let flows = vec![
            tagged(&mesh, 0, 2, 10.0 * MB, 7),
            tagged(&mesh, 0, 3, 10.0 * MB, 7),
        ];
        let loads = opt.link_loads(&flows);
        let l01 = mesh.link_between(DieId(0), DieId(1)).unwrap();
        assert!(
            (loads[&l01] - 10.0 * MB).abs() < 1.0,
            "multicast carries one copy"
        );
        // Distinct payloads over the same links double the load.
        let flows2 = vec![
            tagged(&mesh, 0, 2, 10.0 * MB, 7),
            tagged(&mesh, 0, 3, 10.0 * MB, 8),
        ];
        let loads2 = opt.link_loads(&flows2);
        assert!((loads2[&l01] - 20.0 * MB).abs() < 1.0);
    }

    #[test]
    fn optimization_reduces_simulated_makespan() {
        // End to end: optimized routes must also help the fluid simulator.
        let cfg = WaferConfig::hpca();
        let (mesh, opt) = setup();
        let sim = ContentionSim::new(&cfg);
        let flows: Vec<TaggedFlow> = (0..4)
            .map(|i| tagged(&mesh, i, i + 2, 64.0 * MB, i as u64))
            .collect();
        let before: Vec<Flow> = flows.iter().map(|tf| tf.flow.clone()).collect();
        let out = opt.optimize(flows);
        let after: Vec<Flow> = out.flows.iter().map(|tf| tf.flow.clone()).collect();
        let t_before = sim.simulate(&before).makespan;
        let t_after = sim.simulate(&after).makespan;
        // Rerouting targets static link load; the fluid makespan must not
        // regress materially (small store-and-forward slack allowed).
        assert!(
            t_after <= t_before * 1.05,
            "after {t_after} vs before {t_before}"
        );
    }

    #[test]
    fn iteration_cap_is_honored() {
        let (mesh, opt) = setup();
        let opt = opt.with_max_iter(1);
        let flows: Vec<TaggedFlow> = (0..8)
            .map(|i| tagged(&mesh, 0, 7, 8.0 * MB, i as u64))
            .collect();
        let out = opt.optimize(flows);
        assert!(out.iterations <= 1);
    }

    #[test]
    fn empty_flow_set_is_trivial() {
        let (_, opt) = setup();
        let out = opt.optimize(Vec::new());
        assert_eq!(out.iterations, 0);
        assert_eq!(out.final_max_load, 0.0);
    }
}
