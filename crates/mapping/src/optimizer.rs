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

    /// Runs the five-phase optimization loop.
    pub fn optimize(&self, mut flows: Vec<TaggedFlow>) -> OptimizationOutcome {
        // Phase 1 happened upstream (XY-initialized routes).
        // Phase 2: bottleneck identification. The load map lives across
        // iterations: it only changes when a reroute is accepted, so it is
        // rebuilt then and nowhere else.
        let mut loads = LinkLoads::new(&self.mesh, &flows);
        let mut scratch = RouteScratch::default();
        let (mut mcl, initial) = loads.max();
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
            // (Duplicate merging is implicit in the loads' multicast
            // dedup; rerouting must therefore beat the deduped load.)
            for i in hot {
                let candidate =
                    self.best_alternative(&flows[i].flow, &loads, &mut scratch, bottleneck);
                if let Some(new_flow) = candidate {
                    flows[i].flow = new_flow;
                    rerouted += 1;
                    loads.rebuild(&flows);
                }
            }
            // Phase 5: global update & termination check. `loads` is
            // rebuilt after every accepted reroute, so it is current here.
            let (new_mcl, new_cur) = loads.max();
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

    /// Best alternative route for `flow` avoiding `bottleneck`: tries the
    /// transposed dimension order and a load-aware Dijkstra detour; returns
    /// the route that lowers the flow's own bottleneck load, if any.
    /// `loads` must be the current flow set's loads.
    fn best_alternative(
        &self,
        flow: &Flow,
        loads: &LinkLoads,
        scratch: &mut RouteScratch,
        bottleneck: LinkId,
    ) -> Option<Flow> {
        let current_worst = loads.route_worst(&flow.route, 0.0);
        let mut best: Option<(f64, Flow)> = None;
        // Candidate 1: transposed dimension order.
        let yx = Flow::routed(
            &self.mesh,
            flow.src,
            flow.dst,
            flow.bytes,
            RouteOrder::YThenX,
        );
        // Candidate 2: load-aware shortest path.
        let dijkstra = self.load_aware_route(loads, scratch, flow.src, flow.dst, flow.bytes);
        for cand in std::iter::once(yx).chain(dijkstra) {
            if cand.route == flow.route || cand.route.contains(&bottleneck) {
                continue;
            }
            // Detours pay store-and-forward per extra hop; cap the stretch
            // so the reroute cannot trade congestion for raw path length.
            if cand.route.len() > flow.route.len() + 2 {
                continue;
            }
            // Load as seen by this flow after moving: subtract itself from
            // its old links, add to new.
            let worst = loads.route_worst(&cand.route, flow.bytes);
            if worst < current_worst && best.as_ref().map(|(w, _)| worst < *w).unwrap_or(true) {
                best = Some((worst, cand));
            }
        }
        best.map(|(_, f)| f)
    }

    /// Dijkstra over dies with link weight `1 + load/bytes` (hop count plus
    /// normalized congestion), producing a detour candidate. Edges are
    /// relaxed in [`Mesh::neighbors`] order; `scratch` carries the
    /// distance, predecessor and heap buffers across calls.
    fn load_aware_route(
        &self,
        loads: &LinkLoads,
        scratch: &mut RouteScratch,
        src: DieId,
        dst: DieId,
        bytes: f64,
    ) -> Option<Flow> {
        if src == dst {
            return None;
        }
        let n = self.mesh.die_count();
        let RouteScratch { dist, prev, heap } = scratch;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        prev.clear();
        prev.resize(n, None);
        heap.clear();
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
            for (v, link) in self.mesh.neighbor_links(u) {
                let w = 1.0 + loads.get(link) / bytes.max(1.0);
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

/// Reusable buffers of [`TrafficOptimizer::load_aware_route`].
#[derive(Default)]
struct RouteScratch {
    dist: Vec<f64>,
    prev: Vec<Option<DieId>>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(OrderedF64, DieId)>>,
}

/// Dense multicast link-load map, indexed by [`LinkId`]. Bit-identical to
/// [`multicast_link_loads`]: each link sums its bytes in flow order, a
/// `(payload, link)` pair counts only at its first occurrence, and a link
/// is present exactly when some flow crosses it.
struct LinkLoads {
    load: Vec<f64>,
    present: Vec<bool>,
    /// Flow indices stably sorted by payload: one payload's flows sit
    /// together, in flow order.
    by_payload: Vec<usize>,
    /// Per link, the stamp of the last payload that crossed it.
    stamp: Vec<u32>,
    next_stamp: u32,
    /// Per route hop (at `offsets[flow] + hop`): whether the hop is its
    /// payload's first crossing of that link.
    first: Vec<bool>,
    offsets: Vec<usize>,
}

impl LinkLoads {
    /// Builds the loads of `flows`. Payloads never change under
    /// rerouting, so the payload order is fixed here once.
    fn new(mesh: &Mesh, flows: &[TaggedFlow]) -> Self {
        let links = flows
            .iter()
            .flat_map(|tf| &tf.flow.route)
            .map(|l| l.index() + 1)
            .fold(mesh.link_count(), usize::max);
        let mut by_payload: Vec<usize> = (0..flows.len()).collect();
        by_payload.sort_by_key(|&i| flows[i].payload);
        let mut loads = LinkLoads {
            load: vec![0.0; links],
            present: vec![false; links],
            by_payload,
            stamp: vec![0; links],
            next_stamp: 0,
            first: Vec::new(),
            offsets: Vec::with_capacity(flows.len()),
        };
        loads.rebuild(flows);
        loads
    }

    /// Recomputes every load from `flows` (same payloads, new routes).
    fn rebuild(&mut self, flows: &[TaggedFlow]) {
        self.offsets.clear();
        let mut total = 0;
        for tf in flows {
            self.offsets.push(total);
            total += tf.flow.route.len();
        }
        self.first.clear();
        self.first.resize(total, false);
        // Pass 1, payload by payload: mark each payload's first crossing
        // of every link.
        let mut last_payload = None;
        for &i in &self.by_payload {
            if last_payload != Some(flows[i].payload) {
                last_payload = Some(flows[i].payload);
                self.next_stamp = self.next_stamp.wrapping_add(1);
                if self.next_stamp == 0 {
                    self.stamp.fill(0);
                    self.next_stamp = 1;
                }
            }
            for (hop, l) in flows[i].flow.route.iter().enumerate() {
                let slot = &mut self.stamp[l.index()];
                if *slot != self.next_stamp {
                    *slot = self.next_stamp;
                    self.first[self.offsets[i] + hop] = true;
                }
            }
        }
        // Pass 2, in flow order: sum the first crossings, so every link
        // adds its bytes in the same order as the hash-map reference.
        self.load.fill(0.0);
        self.present.fill(false);
        for (tf, &offset) in flows.iter().zip(&self.offsets) {
            for (hop, l) in tf.flow.route.iter().enumerate() {
                if self.first[offset + hop] {
                    self.load[l.index()] += tf.flow.bytes;
                    self.present[l.index()] = true;
                }
            }
        }
    }

    /// Load of `link` (zero when no flow crosses it).
    fn get(&self, link: LinkId) -> f64 {
        self.load.get(link.index()).copied().unwrap_or(0.0)
    }

    /// Worst per-link load along `route`, each link's load raised by `add`.
    fn route_worst(&self, route: &[LinkId], add: f64) -> f64 {
        route
            .iter()
            .map(|&l| self.get(l) + add)
            .fold(0.0f64, f64::max)
    }

    /// Most-loaded link. Equal loads resolve to the lowest [`LinkId`], so
    /// the bottleneck (and with it every reroute) is deterministic.
    fn max(&self) -> (Option<LinkId>, f64) {
        let mut best: (Option<LinkId>, f64) = (None, 0.0);
        for (i, (&load, &present)) in self.load.iter().zip(&self.present).enumerate() {
            if present && (best.0.is_none() || load > best.1) {
                best = (Some(LinkId(i as u32)), load);
            }
        }
        best
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

    /// The hash-map loop the dense optimizer replaced, kept verbatim as
    /// the bit-identity reference: a SipHash load map rebuilt at the top of
    /// every iteration and after every accepted reroute, and a Dijkstra
    /// that allocates its neighbor lists and buffers.
    fn optimize_reference(
        mesh: &Mesh,
        max_iter: usize,
        mut flows: Vec<TaggedFlow>,
    ) -> OptimizationOutcome {
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
        fn worst(loads: &HashMap<LinkId, f64>, route: &[LinkId], add: f64) -> f64 {
            route
                .iter()
                .map(|l| loads.get(l).copied().unwrap_or(0.0) + add)
                .fold(0.0f64, f64::max)
        }
        fn dijkstra(
            mesh: &Mesh,
            loads: &HashMap<LinkId, f64>,
            src: DieId,
            dst: DieId,
            bytes: f64,
        ) -> Option<Flow> {
            if src == dst {
                return None;
            }
            let n = mesh.die_count();
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
                for v in mesh.neighbors(u) {
                    let link = mesh.link_between(u, v).expect("neighbors have links");
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
            Flow::with_path(mesh, &path, bytes).ok()
        }

        let (mut mcl, initial) = max_of(&multicast_link_loads(&flows));
        let mut cur = initial;
        let mut prev = 2.0 * cur;
        let mut iterations = 0;
        let mut rerouted = 0;
        while cur < prev && cur > 0.0 {
            if iterations >= max_iter {
                break;
            }
            prev = cur;
            iterations += 1;
            let Some(bottleneck) = mcl else { break };
            let hot: Vec<usize> = flows
                .iter()
                .enumerate()
                .filter(|(_, tf)| tf.flow.route.contains(&bottleneck))
                .map(|(i, _)| i)
                .collect();
            let mut loads = multicast_link_loads(&flows);
            for i in hot {
                let tf = &flows[i];
                let current_worst = worst(&loads, &tf.flow.route, 0.0);
                let mut best: Option<(f64, Flow)> = None;
                let yx = Flow::routed(
                    mesh,
                    tf.flow.src,
                    tf.flow.dst,
                    tf.flow.bytes,
                    RouteOrder::YThenX,
                );
                let detour = dijkstra(mesh, &loads, tf.flow.src, tf.flow.dst, tf.flow.bytes);
                for cand in std::iter::once(yx).chain(detour) {
                    if cand.route == tf.flow.route || cand.route.contains(&bottleneck) {
                        continue;
                    }
                    if cand.route.len() > tf.flow.route.len() + 2 {
                        continue;
                    }
                    let w = worst(&loads, &cand.route, tf.flow.bytes);
                    if w < current_worst && best.as_ref().map(|(b, _)| w < *b).unwrap_or(true) {
                        best = Some((w, cand));
                    }
                }
                if let Some((_, new_flow)) = best {
                    flows[i].flow = new_flow;
                    rerouted += 1;
                    loads = multicast_link_loads(&flows);
                }
            }
            let (new_mcl, new_cur) = max_of(&loads);
            mcl = new_mcl;
            cur = new_cur;
        }
        OptimizationOutcome {
            flows,
            initial_max_load: initial,
            final_max_load: cur,
            iterations,
            rerouted,
        }
    }

    /// SplitMix64: a seeded generator for the randomized properties.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// A random flow set: XY or YX routes, payloads drawn from a small
    /// pool so multicast sharing is common, and byte counts either drawn
    /// from a few values (tied loads) or arbitrary (order-sensitive sums).
    fn random_flows(mesh: &Mesh, rng: &mut SplitMix) -> Vec<TaggedFlow> {
        let dies = mesh.die_count() as u64;
        let count = 1 + rng.below(48);
        let payloads = 1 + rng.below(count);
        let tied = rng.below(2) == 0;
        (0..count)
            .map(|_| {
                let src = DieId(rng.below(dies) as u32);
                let dst = DieId(rng.below(dies) as u32);
                let bytes = if tied {
                    (1 + rng.below(4)) as f64 * MB
                } else {
                    1.0 + rng.below(1 << 30) as f64 / 7.0
                };
                let order = if rng.below(4) == 0 {
                    RouteOrder::YThenX
                } else {
                    RouteOrder::XThenY
                };
                TaggedFlow {
                    flow: Flow::routed(mesh, src, dst, bytes, order),
                    payload: rng.below(payloads),
                }
            })
            .collect()
    }

    fn dense_map(loads: &LinkLoads) -> HashMap<LinkId, u64> {
        (0..loads.load.len())
            .filter(|&i| loads.present[i])
            .map(|i| (LinkId(i as u32), loads.load[i].to_bits()))
            .collect()
    }

    fn reference_map(flows: &[TaggedFlow]) -> HashMap<LinkId, u64> {
        multicast_link_loads(flows)
            .into_iter()
            .map(|(l, v)| (l, v.to_bits()))
            .collect()
    }

    #[test]
    fn dense_optimizer_matches_hash_map_reference() {
        for (w, h) in [(8u32, 4u32), (16, 8)] {
            let mesh = Mesh::new(w, h).unwrap();
            let opt = TrafficOptimizer::new(mesh.clone());
            let mut rng = SplitMix(0x7E4D_0000 + u64::from(w));
            for case in 0..300 {
                let flows = random_flows(&mesh, &mut rng);
                let mut loads = LinkLoads::new(&mesh, &flows);
                assert_eq!(
                    dense_map(&loads),
                    reference_map(&flows),
                    "{w}x{h} case {case}: loads"
                );
                assert_eq!(
                    loads.max(),
                    {
                        let reference = multicast_link_loads(&flows);
                        let best = reference.iter().max_by(|a, b| {
                            a.1.partial_cmp(b.1).unwrap().then_with(|| b.0.cmp(a.0))
                        });
                        best.map_or((None, 0.0), |(l, v)| (Some(*l), *v))
                    },
                    "{w}x{h} case {case}: bottleneck"
                );
                let expected = optimize_reference(&mesh, MAX_ITER, flows.clone());
                let got = opt.optimize(flows);
                assert_eq!(got.flows, expected.flows, "{w}x{h} case {case}: flows");
                assert_eq!(got.iterations, expected.iterations, "{w}x{h} case {case}");
                assert_eq!(got.rerouted, expected.rerouted, "{w}x{h} case {case}");
                assert_eq!(
                    got.initial_max_load.to_bits(),
                    expected.initial_max_load.to_bits(),
                    "{w}x{h} case {case}: initial"
                );
                assert_eq!(
                    got.final_max_load.to_bits(),
                    expected.final_max_load.to_bits(),
                    "{w}x{h} case {case}: final"
                );
                // A rebuild over rerouted flows is as exact as a fresh map.
                loads.rebuild(&got.flows);
                assert_eq!(
                    dense_map(&loads),
                    reference_map(&got.flows),
                    "{w}x{h} case {case}: rebuilt loads"
                );
            }
        }
    }

    #[test]
    fn empty_flow_set_is_trivial() {
        let (_, opt) = setup();
        let out = opt.optimize(Vec::new());
        assert_eq!(out.iterations, 0);
        assert_eq!(out.final_max_load, 0.0);
    }
}
