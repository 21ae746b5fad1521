//! Network-on-wafer flows and the max–min fair-share contention model.
//!
//! A [`Flow`] is a point-to-point transfer with an explicit link route
//! (dimension-ordered by default; the TCME optimizer rewrites routes).
//! [`ContentionSim`] runs a set of concurrent flows to completion under
//! *max–min fair sharing*: at every instant, link bandwidth is divided
//! fairly among the flows crossing it, and each flow progresses at the rate
//! of its most contended link. This is the standard fluid approximation of
//! input-queued mesh routers and reproduces the ">2x transfer latency"
//! contention effect of Fig. 5(b).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use temp_wsc::config::WaferConfig;
use temp_wsc::fault::FaultMap;
use temp_wsc::topology::{DieId, LinkId, Mesh, RouteOrder};

use crate::{Result, SimError};

/// Process-wide warm-start hit counter (each proportional rescale
/// replaced a full fluid solve).
static WARM_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide warm-start miss counter (cold fluid solves performed on
/// behalf of a warm-capable entry point).
static WARM_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the warm-start simulation entry points
/// ([`ContentionSim::simulate_warm`], [`ContentionSim::simulate_many`])
/// since process start. Callers that want a per-phase rate snapshot the
/// pair before and after. Planning never warm-starts
/// ([`ContentionSim::makespan_of`] always solves cold), so a planning
/// phase reads no hits and no misses here.
pub fn contention_warm_stats() -> (u64, u64) {
    (
        WARM_HITS.load(Ordering::Relaxed),
        WARM_MISSES.load(Ordering::Relaxed),
    )
}

/// A point-to-point transfer with an explicit route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Source die.
    pub src: DieId,
    /// Destination die.
    pub dst: DieId,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Directed links traversed, in order. Empty iff `src == dst`.
    pub route: Vec<LinkId>,
}

impl Flow {
    /// Creates a flow routed with dimension-ordered XY routing.
    pub fn xy(mesh: &Mesh, src: DieId, dst: DieId, bytes: f64) -> Self {
        Self::routed(mesh, src, dst, bytes, RouteOrder::XThenY)
    }

    /// Creates a flow routed with the given dimension order.
    pub fn routed(mesh: &Mesh, src: DieId, dst: DieId, bytes: f64, order: RouteOrder) -> Self {
        let mut route = Vec::with_capacity(mesh.hops(src, dst) as usize);
        route.extend(mesh.route_links(src, dst, order));
        Flow {
            src,
            dst,
            bytes,
            route,
        }
    }

    /// Creates a flow with an explicit die path (used by the traffic
    /// optimizer's detour routes and fault-aware rerouting).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when consecutive dies in the
    /// path are not mesh neighbors.
    pub fn with_path(mesh: &Mesh, path: &[DieId], bytes: f64) -> Result<Self> {
        if path.is_empty() {
            return Err(SimError::InvalidParameter("empty die path".into()));
        }
        let route = mesh
            .path_links(path)
            .map_err(|e| SimError::InvalidParameter(e.to_string()))?;
        Ok(Flow {
            src: path[0],
            dst: *path.last().expect("non-empty"),
            bytes,
            route,
        })
    }

    /// Number of physical hops.
    pub fn hops(&self) -> usize {
        self.route.len()
    }

    /// Whether this flow's route crosses any link the fault map marks dead.
    pub fn crosses_dead_link(&self, faults: &FaultMap) -> bool {
        self.route.iter().any(|l| faults.link_dead(*l))
    }
}

/// Lets the simulator run in place over any slice of flow wrappers (the
/// mapping engines' tagged flows) without copying them out.
impl AsRef<Flow> for Flow {
    fn as_ref(&self) -> &Flow {
        self
    }
}

/// One flow per formerly-adjacent (undirected) die pair, each routed over
/// the fault map's *surviving* links — the canonical degraded-fabric
/// traffic pattern. Ring collectives exchange with logical neighbors; on a
/// degraded wafer those single-hop exchanges travel the rerouted paths
/// this returns, so simulating the set against the healthy one-hop
/// baseline measures the rerouting + congestion inflation the fault
/// induces. Every returned flow avoids dead links by construction.
///
/// Returns `None` when the faults disconnect any pair (no lockstep
/// collective can complete on a partitioned wafer).
pub fn rerouted_neighbor_flows(mesh: &Mesh, faults: &FaultMap, bytes: f64) -> Option<Vec<Flow>> {
    let mut flows = Vec::new();
    for l in mesh.links() {
        if l.src >= l.dst {
            continue;
        }
        let path = faults.route_around(mesh, l.src, l.dst).ok()?;
        let flow = Flow::with_path(mesh, &path, bytes).expect("BFS paths step over mesh neighbors");
        debug_assert!(!flow.crosses_dead_link(faults));
        flows.push(flow);
    }
    Some(flows)
}

/// Completion report of a contention simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// Per-flow completion times (same order as the input flows), including
    /// per-hop latency.
    pub completion: Vec<f64>,
    /// Time at which the last flow finishes.
    pub makespan: f64,
    /// Bytes carried per link over the whole run.
    pub link_bytes: HashMap<LinkId, f64>,
    /// The most-loaded link and its byte count, if any traffic flowed.
    /// Equal loads resolve to the lowest [`LinkId`].
    pub max_loaded_link: Option<(LinkId, f64)>,
}

impl ContentionReport {
    /// Aggregate bandwidth utilization: carried bytes over
    /// `links_used * bandwidth * makespan`.
    pub fn bandwidth_utilization(&self, link_bandwidth: f64) -> f64 {
        if self.makespan <= 0.0 || self.link_bytes.is_empty() {
            return 0.0;
        }
        let carried: f64 = self.link_bytes.values().sum();
        let capacity = self.link_bytes.len() as f64 * link_bandwidth * self.makespan;
        (carried / capacity).clamp(0.0, 1.0)
    }
}

/// Max–min fair-share contention simulator over a mesh.
#[derive(Debug, Clone)]
pub struct ContentionSim {
    /// Per-link bandwidth in bytes/s.
    pub link_bandwidth: f64,
    /// Per-hop latency in seconds.
    pub hop_latency: f64,
}

/// Reusable dense per-link state for the water-filling inner loop.
///
/// The reference implementation rebuilds `HashMap<LinkId, f64>` rate maps
/// on every progressive-filling iteration; this scratch indexes flat
/// `Vec`s by [`LinkId::index`] and uses a generation stamp so per-round
/// resets touch only the links the active flows actually cross.
struct DenseScratch {
    /// Remaining capacity per link (valid where `stamp == generation`).
    cap: Vec<f64>,
    /// Unassigned active flows crossing each link.
    count: Vec<u32>,
    /// Active-flow positions crossing each link.
    flows_at: Vec<Vec<u32>>,
    /// Generation stamp per link.
    stamp: Vec<u64>,
    /// Current generation.
    generation: u64,
    /// Position of each link in `used` (valid where `stamp == generation`).
    slot: Vec<u32>,
    /// Links touched this generation.
    used: Vec<usize>,
    /// Fair share `cap / count` of each link in `used` order, `+∞` once
    /// the link carries no unassigned flow.
    share: Vec<f64>,
    /// Per-position frozen markers of the flows being filled.
    assigned: Vec<bool>,
}

/// One link-disjoint component of the fluid loop: its active flows are
/// `RunArena::active[start..end]`, ascending.
struct Component {
    start: u32,
    end: u32,
    /// A member drained at the last event (or the run just started), so
    /// the members' rates must be re-filled.
    stale: bool,
}

/// Reusable per-thread buffers for the fluid loop: per-flow remaining
/// volumes, rates and completions, the active flows grouped by
/// link-disjoint component, the dense water-filling scratch and the
/// component classes. The generation stamps inside [`DenseScratch`] and
/// [`ClassScratch`] make reuse across runs safe without clearing, so
/// after warm-up [`ContentionSim::makespan_of`] performs no heap
/// allocation (the report-building entry points copy the completions
/// out).
struct RunArena {
    scratch: DenseScratch,
    classes: ClassScratch,
    /// Drain volume left, per flow.
    remaining: Vec<f64>,
    /// Max–min rate, per flow (valid for active flows).
    rate: Vec<f64>,
    /// Completion time, per flow.
    completion: Vec<f64>,
    /// Active flows (indices into the flow slice), grouped by component.
    active: Vec<u32>,
    comps: Vec<Component>,
}

impl RunArena {
    fn new() -> Self {
        RunArena {
            scratch: DenseScratch::new(0),
            classes: ClassScratch::default(),
            remaining: Vec::new(),
            rate: Vec::new(),
            completion: Vec::new(),
            active: Vec::new(),
            comps: Vec::new(),
        }
    }

    /// Loads the drain volumes of `flows` and makes every live flow
    /// active, all in one stale component. Local (zero-route) and
    /// zero-byte flows are not live: they complete at t=0.
    fn load<F: AsRef<Flow>>(&mut self, flows: &[F]) {
        self.remaining.clear();
        self.remaining.extend(flows.iter().map(|f| {
            let f = f.as_ref();
            f.bytes.max(0.0) * f.hops().max(1) as f64
        }));
        self.rate.clear();
        self.rate.resize(flows.len(), 0.0);
        self.completion.clear();
        self.completion.resize(flows.len(), 0.0);
        let remaining = &self.remaining;
        self.active.clear();
        self.active.extend((0..flows.len() as u32).filter(|&i| {
            !flows[i as usize].as_ref().route.is_empty() && remaining[i as usize] > 0.0
        }));
        self.comps.clear();
        if !self.active.is_empty() {
            self.comps.push(Component {
                start: 0,
                end: self.active.len() as u32,
                stale: true,
            });
        }
    }
}

thread_local! {
    static RUN_ARENA: RefCell<RunArena> = RefCell::new(RunArena::new());
}

/// "No entry" marker of the `u32` index arrays in [`ClassScratch`].
const NONE: u32 = u32::MAX;

/// Splits the live flows of one run into link-disjoint components and
/// groups the components into isomorphism classes, so the fluid loop runs
/// on one representative per class, one component at a time.
///
/// Max–min water-filling never couples link-disjoint components: freezing
/// a flow only touches the links of its own component, and a global
/// bottleneck scan meets each component's links in the same relative
/// order as a scan of that component alone. So each component's rates
/// are a function of its own active flows, and filling it alone gives
/// the bits a fill of the whole round would; the fluid loop re-fills a
/// component only when one of its flows drains. Two components with
/// equal canonical forms (per flow, in order: payload bits, hop count,
/// route with links relabelled in first-touch order) therefore hold
/// identical remaining volumes and rates at every event, and add
/// identical candidate event times. Dropping every copy leaves the event
/// times, and so every float operation the representatives see,
/// unchanged: each copy's completion is its representative's, bit for
/// bit.
#[derive(Default)]
struct ClassScratch {
    /// Per-link slot, valid where `stamp == generation`: during the split
    /// the live position that first crossed the link, during keying the
    /// link's first-touch label within the component.
    slot: Vec<u32>,
    stamp: Vec<u64>,
    generation: u64,
    /// Union-find parent per live position (roots are the smallest
    /// position of their set).
    parent: Vec<u32>,
    /// Component of each live position.
    comp: Vec<u32>,
    /// Member flows (indices into the flow slice) grouped by component,
    /// ascending within each; component `c` owns
    /// `members[start[c]..start[c + 1]]`.
    members: Vec<u32>,
    start: Vec<u32>,
    /// Canonical forms: component `c` owns the words from `key_start[c]`
    /// up to the next component's start.
    words: Vec<u64>,
    key_start: Vec<u32>,
    /// Representative component of each component (itself for a
    /// representative). Empty when the last split found nothing to drop.
    rep: Vec<u32>,
    /// Canonical-form hash -> latest representative with that hash;
    /// earlier representatives with a colliding hash chain through `next`.
    by_hash: HashMap<u64, u32>,
    next: Vec<u32>,
}

impl ClassScratch {
    fn find(&mut self, mut p: u32) -> u32 {
        while self.parent[p as usize] != p {
            let grand = self.parent[self.parent[p as usize] as usize];
            self.parent[p as usize] = grand;
            p = grand;
        }
        p
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }

    fn grow_to(&mut self, links: usize) {
        if links > self.slot.len() {
            self.slot.resize(links, 0);
            self.stamp.resize(links, 0);
        }
    }

    /// Regroups `active` (the live flows, ascending, loaded as one
    /// component in `comps`) by link-disjoint component, keeping only the
    /// members of each class's representative component, and records how
    /// to copy the representatives' completion times back
    /// ([`ClassScratch::copy_completions`]). Fewer than two live flows or
    /// a single component leave the loaded component as it is.
    fn keep_representatives<F: AsRef<Flow>>(
        &mut self,
        flows: &[F],
        active: &mut Vec<u32>,
        comps: &mut Vec<Component>,
    ) {
        self.rep.clear();
        let m = active.len();
        if m < 2 {
            return;
        }
        // Union-find over live positions: flows crossing a common link
        // join one component.
        self.generation += 1;
        self.parent.clear();
        self.parent.extend(0..m as u32);
        for (p, &i) in active.iter().enumerate() {
            for l in &flows[i as usize].as_ref().route {
                let idx = l.index();
                self.grow_to(idx + 1);
                if self.stamp[idx] == self.generation {
                    self.union(p as u32, self.slot[idx]);
                } else {
                    self.stamp[idx] = self.generation;
                    self.slot[idx] = p as u32;
                }
            }
        }
        // Roots are their set's smallest position, so numbering roots in
        // position order labels components by their first flow.
        self.comp.clear();
        let mut n = 0u32;
        for p in 0..m as u32 {
            let r = self.find(p);
            let c = if r == p { n } else { self.comp[r as usize] };
            n += u32::from(r == p);
            self.comp.push(c);
        }
        if n < 2 {
            return;
        }
        // Group members by component (counting sort, stable).
        let n = n as usize;
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &c in &self.comp {
            self.start[c as usize + 1] += 1;
        }
        for c in 0..n {
            self.start[c + 1] += self.start[c];
        }
        self.members.clear();
        self.members.resize(m, 0);
        // `key_start` doubles as the fill cursor until keying resets it.
        self.key_start.clear();
        self.key_start.extend_from_slice(&self.start[..n]);
        for (p, &i) in active.iter().enumerate() {
            let c = self.comp[p] as usize;
            self.members[self.key_start[c] as usize] = i;
            self.key_start[c] += 1;
        }
        // Canonical form of each component, matched by hash plus a full
        // comparison so two different components never merge.
        self.words.clear();
        self.key_start.clear();
        self.by_hash.clear();
        self.next.clear();
        let mut dropped = false;
        for c in 0..n {
            self.generation += 1;
            let begin = self.words.len();
            self.key_start.push(begin as u32);
            let mut labels = 0u32;
            for k in self.start[c]..self.start[c + 1] {
                let f = flows[self.members[k as usize] as usize].as_ref();
                self.words.push(f.bytes.to_bits());
                self.words.push(f.route.len() as u64);
                for l in &f.route {
                    let idx = l.index();
                    if self.stamp[idx] != self.generation {
                        self.stamp[idx] = self.generation;
                        self.slot[idx] = labels;
                        labels += 1;
                    }
                    self.words.push(self.slot[idx] as u64);
                }
            }
            let key = &self.words[begin..];
            let hash = key.iter().fold(FNV_OFFSET, |h, &w| {
                (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
            });
            let head = self.by_hash.get(&hash).copied().unwrap_or(NONE);
            let mut at = head;
            while at != NONE {
                let a = at as usize;
                if &self.words[self.key_start[a] as usize..self.key_start[a + 1] as usize] == key {
                    break;
                }
                at = self.next[a];
            }
            if at == NONE {
                self.rep.push(c as u32);
                self.next.push(head);
                self.by_hash.insert(hash, c as u32);
            } else {
                self.rep.push(at);
                self.next.push(NONE);
                dropped = true;
            }
        }
        active.clear();
        comps.clear();
        for c in 0..n {
            if self.rep[c] as usize != c {
                continue;
            }
            let start = active.len() as u32;
            active.extend_from_slice(
                &self.members[self.start[c] as usize..self.start[c + 1] as usize],
            );
            comps.push(Component {
                start,
                end: active.len() as u32,
                stale: true,
            });
        }
        if !dropped {
            self.rep.clear();
        }
    }

    /// Gives every dropped copy its representative's completion times.
    fn copy_completions(&self, completion: &mut [f64]) {
        for (c, &r) in self.rep.iter().enumerate() {
            let r = r as usize;
            if r == c {
                continue;
            }
            let copy = &self.members[self.start[c] as usize..self.start[c + 1] as usize];
            let orig = &self.members[self.start[r] as usize..];
            for (&to, &from) in copy.iter().zip(orig) {
                completion[to as usize] = completion[from as usize];
            }
        }
    }
}

impl DenseScratch {
    fn new(link_count: usize) -> Self {
        DenseScratch {
            cap: vec![0.0; link_count],
            count: vec![0; link_count],
            flows_at: (0..link_count).map(|_| Vec::new()).collect(),
            stamp: vec![0; link_count],
            generation: 0,
            slot: vec![0; link_count],
            used: Vec::with_capacity(link_count),
            share: Vec::with_capacity(link_count),
            assigned: Vec::new(),
        }
    }

    fn grow_to(&mut self, links: usize) {
        if links > self.cap.len() {
            self.cap.resize(links, 0.0);
            self.count.resize(links, 0);
            self.flows_at.resize_with(links, Vec::new);
            self.stamp.resize(links, 0);
            self.slot.resize(links, 0);
        }
    }

    /// Max–min fair rates of the flows `members` (indices into `flows`),
    /// dense-array water-filling written into `rate` (indexed by flow).
    /// Only the links the members cross are reset and scanned, so
    /// filling one component costs that component's links alone.
    ///
    /// Each link's share is stored and recomputed only when its capacity
    /// or count changes, so a bottleneck pick is a scan of `share` with no
    /// division. The stored quotient has the bits a fresh `cap / count`
    /// would have, and the scan keeps the first minimum in `used` order,
    /// so the picks match recomputing every share on every pick. A finite
    /// `bandwidth` keeps every live share finite, below the drained `+∞`.
    fn fair_rates<F: AsRef<Flow>>(
        &mut self,
        bandwidth: f64,
        flows: &[F],
        members: &[u32],
        rate: &mut [f64],
    ) {
        self.generation += 1;
        self.used.clear();
        for (pos, &i) in members.iter().enumerate() {
            for l in &flows[i as usize].as_ref().route {
                let idx = l.index();
                self.grow_to(idx + 1);
                if self.stamp[idx] != self.generation {
                    self.stamp[idx] = self.generation;
                    self.slot[idx] = self.used.len() as u32;
                    self.cap[idx] = bandwidth;
                    self.count[idx] = 0;
                    self.flows_at[idx].clear();
                    self.used.push(idx);
                }
                self.count[idx] += 1;
                self.flows_at[idx].push(pos as u32);
            }
        }
        self.share.clear();
        self.share.extend(
            self.used
                .iter()
                .map(|&idx| self.cap[idx] / self.count[idx] as f64),
        );
        self.assigned.clear();
        self.assigned.resize(members.len(), false);
        let mut unassigned = members.len();
        while unassigned > 0 {
            // Bottleneck link: smallest fair share among links that still
            // carry unassigned flows.
            let mut best = f64::INFINITY;
            let mut at = usize::MAX;
            for (p, &share) in self.share.iter().enumerate() {
                if share < best {
                    best = share;
                    at = p;
                }
            }
            if at == usize::MAX {
                break;
            }
            let (bottleneck, share) = (self.used[at], best);
            // Freeze every unassigned flow crossing the bottleneck at the
            // bottleneck share; subtract it along their routes.
            for fp in 0..self.flows_at[bottleneck].len() {
                let p = self.flows_at[bottleneck][fp] as usize;
                if self.assigned[p] {
                    continue;
                }
                rate[members[p] as usize] = share;
                self.assigned[p] = true;
                unassigned -= 1;
                for l in &flows[members[p] as usize].as_ref().route {
                    let idx = l.index();
                    self.cap[idx] = (self.cap[idx] - share).max(0.0);
                    self.count[idx] -= 1;
                    self.share[self.slot[idx] as usize] = match self.count[idx] {
                        0 => f64::INFINITY,
                        n => self.cap[idx] / n as f64,
                    };
                }
            }
        }
    }
}

impl ContentionSim {
    /// Builds the simulator from a wafer configuration.
    pub fn new(cfg: &WaferConfig) -> Self {
        ContentionSim {
            link_bandwidth: cfg.d2d.bandwidth,
            hop_latency: cfg.d2d.latency,
        }
    }

    /// Static per-link byte loads of a flow set (the quantity the TCME
    /// optimizer minimizes the maximum of).
    pub fn link_loads(&self, flows: &[Flow]) -> HashMap<LinkId, f64> {
        let mut loads: HashMap<LinkId, f64> = HashMap::new();
        for f in flows {
            for l in &f.route {
                *loads.entry(*l).or_insert(0.0) += f.bytes;
            }
        }
        loads
    }

    /// Lower bound on the time to drain the flow set: the byte load of the
    /// most congested link divided by link bandwidth.
    pub fn congestion_lower_bound(&self, flows: &[Flow]) -> f64 {
        self.link_loads(flows)
            .values()
            .fold(0.0f64, |a, b| a.max(*b))
            / self.link_bandwidth
    }

    /// Runs all flows concurrently under max–min fair sharing.
    ///
    /// Progressive-filling algorithm: repeatedly compute each active flow's
    /// max–min fair rate, advance time until the next flow drains, repeat.
    /// Local (src == dst) flows complete at t=0.
    ///
    /// Multi-hop flows are **store-and-forward**: on-wafer D2D links need
    /// tens-of-MB granularity to reach peak efficiency (§III-B), so a k-hop
    /// transfer cannot be wormhole-pipelined and pays k sequential
    /// serializations — the root cause of the "7x communication disparity"
    /// of Fig. 5(a). A flow's effective drain volume is therefore
    /// `bytes * hops` at its max–min rate, while each crossed link is loaded
    /// with `bytes`.
    pub fn simulate(&self, flows: &[Flow]) -> ContentionReport {
        self.run(flows, false)
    }

    /// As [`ContentionSim::simulate`] but computing fair rates with the
    /// original `HashMap`-keyed water-filling over every live flow as one
    /// component, re-filled at every event (no component split, no
    /// classes). Retained as the reference implementation the dense fast
    /// path is regression-tested against (see `tests/properties.rs`); not
    /// intended for production use.
    pub fn simulate_reference(&self, flows: &[Flow]) -> ContentionReport {
        self.run(flows, true)
    }

    fn run(&self, flows: &[Flow], reference: bool) -> ContentionReport {
        let completion = RUN_ARENA.with(|arena| {
            let arena = &mut *arena.borrow_mut();
            self.solve_in(arena, flows, reference);
            arena.completion.clone()
        });
        let link_bytes = self.link_loads(flows);
        let max_loaded_link = max_loaded(&link_bytes);
        let makespan = completion.iter().fold(0.0f64, |a, b| a.max(*b));
        ContentionReport {
            completion,
            makespan,
            link_bytes,
            max_loaded_link,
        }
    }

    /// Per-flow completion times into `arena.completion`, per-hop latency
    /// included. The dense path runs the fluid loop on one representative
    /// component per isomorphism class (see [`ClassScratch`]); the
    /// reference path runs it on every live flow as one component.
    fn solve_in<F: AsRef<Flow>>(&self, arena: &mut RunArena, flows: &[F], reference: bool) {
        arena.load(flows);
        if !reference {
            arena
                .classes
                .keep_representatives(flows, &mut arena.active, &mut arena.comps);
        }
        self.fluid_loop(arena, flows, reference);
        if !reference {
            arena.classes.copy_completions(&mut arena.completion);
        }
        for (c, f) in arena.completion.iter_mut().zip(flows) {
            *c += f.as_ref().hops() as f64 * self.hop_latency;
        }
    }

    /// Progressive filling over the components in `arena.comps` (whose
    /// drain volumes [`RunArena::load`] set): fill the max–min fair rates
    /// of every stale component, advance time until the next flow
    /// drains, mark the components that lost a flow stale, repeat.
    /// Writes the fluid completion time of every flow it drains into
    /// `arena.completion`.
    ///
    /// A component's rates depend on its active flows alone (see
    /// [`ClassScratch`]), so a component no drain touched keeps its rates
    /// bit for bit, and a drained one is re-filled whole even if the
    /// drain split it. `dt` and the drain update stay global, in the same
    /// per-flow arithmetic as one fill of the whole round. The reference
    /// path re-fills its one component at every event, so it checks the
    /// staleness bookkeeping instead of sharing it.
    fn fluid_loop<F: AsRef<Flow>>(&self, arena: &mut RunArena, flows: &[F], reference: bool) {
        let RunArena {
            scratch,
            remaining,
            rate,
            completion,
            active,
            comps,
            ..
        } = arena;
        let mut now = 0.0f64;
        let mut guard = 0usize;
        while !comps.is_empty() {
            guard += 1;
            assert!(guard < 100_000, "contention sim failed to converge");
            for c in comps.iter_mut().filter(|c| c.stale || reference) {
                let members = &active[c.start as usize..c.end as usize];
                if members.len() == 1 {
                    // A lone flow is never contended: every link it
                    // crosses serves exactly one flow, so its max–min
                    // rate is the full link bandwidth (the bits either
                    // water-filling gives it).
                    rate[members[0] as usize] = self.link_bandwidth;
                } else if reference {
                    let filled = self.fair_rates_reference(flows, members);
                    for (&i, r) in members.iter().zip(filled) {
                        rate[i as usize] = r;
                    }
                } else {
                    scratch.fair_rates(self.link_bandwidth, flows, members, rate);
                }
                c.stale = false;
            }
            // Time until the first active flow drains.
            let mut dt = f64::INFINITY;
            for c in comps.iter() {
                for &i in &active[c.start as usize..c.end as usize] {
                    let i = i as usize;
                    dt = dt.min(remaining[i] / rate[i].max(1e-9));
                }
            }
            if !dt.is_finite() {
                break;
            }
            now += dt;
            for c in comps.iter_mut() {
                let mut kept = c.start;
                for k in c.start..c.end {
                    let i = active[k as usize] as usize;
                    remaining[i] -= rate[i] * dt;
                    if remaining[i] <= 1e-6 {
                        remaining[i] = 0.0;
                        completion[i] = now;
                        c.stale = true;
                    } else {
                        active[kept as usize] = i as u32;
                        kept += 1;
                    }
                }
                c.end = kept;
            }
            comps.retain(|c| c.start < c.end);
        }
    }

    /// Max–min fair rates for the active flows (indices into `flows`) —
    /// the `HashMap`-keyed reference formulation of the water-filling that
    /// [`DenseScratch::fair_rates`] reimplements over flat link arrays.
    ///
    /// Water-filling: repeatedly find the link whose fair share
    /// (remaining capacity / unassigned flows crossing it) is smallest,
    /// freeze those flows at that rate, subtract, continue. Exact ties go
    /// to the first link in first-touch order (active flows in order,
    /// each route in order), the dense path's rule, so both formulations
    /// pick the same bottleneck sequence.
    fn fair_rates_reference<F: AsRef<Flow>>(&self, flows: &[F], active: &[u32]) -> Vec<f64> {
        let mut rate = vec![0.0f64; active.len()];
        let mut assigned = vec![false; active.len()];
        // Link -> (capacity left, unassigned flow positions crossing it),
        // scanned in first-touch order.
        let mut link_cap: HashMap<LinkId, f64> = HashMap::new();
        let mut link_flows: HashMap<LinkId, Vec<usize>> = HashMap::new();
        let mut touched: Vec<LinkId> = Vec::new();
        for (pos, &i) in active.iter().enumerate() {
            for l in &flows[i as usize].as_ref().route {
                link_cap.entry(*l).or_insert_with(|| {
                    touched.push(*l);
                    self.link_bandwidth
                });
                link_flows.entry(*l).or_default().push(pos);
            }
        }
        let mut unassigned = active.len();
        while unassigned > 0 {
            // Find the bottleneck link.
            let mut best: Option<(LinkId, f64)> = None;
            for l in &touched {
                let count = link_flows[l].iter().filter(|p| !assigned[**p]).count();
                if count == 0 {
                    continue;
                }
                let share = link_cap[l] / count as f64;
                if best.map(|(_, s)| share < s).unwrap_or(true) {
                    best = Some((*l, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            // Freeze all unassigned flows crossing the bottleneck.
            let positions: Vec<usize> = link_flows[&bottleneck]
                .iter()
                .copied()
                .filter(|p| !assigned[*p])
                .collect();
            for p in positions {
                rate[p] = share;
                assigned[p] = true;
                unassigned -= 1;
                // Subtract this flow's rate from every link it crosses.
                for l in &flows[active[p] as usize].as_ref().route {
                    if let Some(c) = link_cap.get_mut(l) {
                        *c = (*c - share).max(0.0);
                    }
                }
            }
        }
        rate
    }

    /// Convenience: the contention-free time of a single flow
    /// (store-and-forward over its hops).
    pub fn solo_time(&self, flow: &Flow) -> f64 {
        if flow.route.is_empty() {
            return 0.0;
        }
        let hops = flow.hops() as f64;
        hops * (flow.bytes / self.link_bandwidth + self.hop_latency)
    }

    /// Makespan of a lone flow, **bit-identical** to
    /// `simulate(&[flow]).makespan` but without building a report: a
    /// single flow is never contended, so its max–min rate is the full
    /// link bandwidth and the event loop reduces to a scalar replay of
    /// the same float operations (drain volume, `dt` division, residue
    /// subtraction, drain epsilon). This is the isolated-time fast path
    /// of the mapping engines, where every flow of a round is timed solo.
    pub fn isolated_makespan(&self, flow: &Flow) -> f64 {
        let hops_latency = flow.hops() as f64 * self.hop_latency;
        let mut remaining = flow.bytes.max(0.0) * flow.hops().max(1) as f64;
        if flow.route.is_empty() || remaining <= 0.0 {
            return hops_latency;
        }
        let rate = self.link_bandwidth;
        let mut now = 0.0f64;
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 100_000, "contention sim failed to converge");
            let dt = remaining / rate.max(1e-9);
            if !dt.is_finite() {
                break;
            }
            now += dt;
            remaining -= rate * dt;
            if remaining <= 1e-6 {
                break;
            }
        }
        now + hops_latency
    }

    /// Order-sensitive signature of the flow set's *routes* plus this
    /// simulator's link parameters — the shape key warm starts match on.
    fn route_signature(&self, flows: &[Flow]) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_extend(h, &self.link_bandwidth.to_bits().to_le_bytes());
        h = fnv1a_extend(h, &self.hop_latency.to_bits().to_le_bytes());
        h = fnv1a_extend(h, &(flows.len() as u64).to_le_bytes());
        for f in flows {
            h = fnv1a_extend(h, &(f.route.len() as u64).to_le_bytes());
            for l in &f.route {
                h = fnv1a_extend(h, &(l.index() as u64).to_le_bytes());
            }
        }
        h
    }

    /// [`ContentionSim::simulate`] seeded from the previous equilibrium.
    ///
    /// The fluid phase of the max–min model is positively homogeneous in
    /// the payload sizes: scaling every flow's bytes by `s` scales every
    /// fluid completion time by `s` while the per-hop latency term stays
    /// additive. So when `flows` has the *same shape* as the solve stored
    /// in `warm` (identical routes, payloads proportional by one common
    /// factor), the fixed point is recovered by rescaling the stored
    /// equilibrium instead of re-running progressive filling. Any other
    /// flow set falls back to a cold solve, which re-seeds `warm`.
    ///
    /// Rescaled fixed points match cold solves to ~1e-9 relative (the
    /// fluid loop's absolute drain epsilon breaks exact homogeneity;
    /// regression-tested against [`ContentionSim::simulate_reference`]).
    /// Paths that must stay bit-identical to cold simulation use
    /// [`ContentionSim::makespan_of`] instead.
    pub fn simulate_warm(&self, flows: &[Flow], warm: &mut WarmStart) -> ContentionReport {
        let sig = self.route_signature(flows);
        if warm.valid && warm.routes_sig == sig && warm.bytes.len() == flows.len() {
            if let Some(scale) = proportional_scale(&warm.bytes, flows) {
                WARM_HITS.fetch_add(1, Ordering::Relaxed);
                return warm.rescaled(self, scale);
            }
        }
        WARM_MISSES.fetch_add(1, Ordering::Relaxed);
        let report = self.simulate(flows);
        warm.store(self, flows, sig, &report);
        report
    }

    /// Batch entry point: simulates every flow set, chaining warm starts
    /// per route shape — consecutive (or interleaved) sets sharing routes
    /// reuse each other's equilibria, which is the common case for
    /// per-layer collective rounds swept over payload scales.
    pub fn simulate_many(&self, sets: &[Vec<Flow>]) -> Vec<ContentionReport> {
        let mut warm: HashMap<u64, WarmStart> = HashMap::new();
        sets.iter()
            .map(|flows| {
                let sig = self.route_signature(flows);
                self.simulate_warm(flows, warm.entry(sig).or_default())
            })
            .collect()
    }

    /// Makespan of a flow set, **bit-identical** to
    /// `simulate(flows).makespan`, run in place over any flow wrapper
    /// (the mapping engines pass their tagged flows without copying them)
    /// and without building a [`ContentionReport`]. This is the
    /// planning paths' simulation: a pure function of the flow set and
    /// the link parameters, so plans do not depend on simulation history
    /// or thread count. It solves in the thread's `RunArena` and folds
    /// the maximum there, so after warm-up it allocates nothing.
    pub fn makespan_of<F: AsRef<Flow>>(&self, flows: &[F]) -> f64 {
        RUN_ARENA.with(|arena| {
            let arena = &mut *arena.borrow_mut();
            self.solve_in(arena, flows, false);
            arena.completion.iter().fold(0.0f64, |a, b| a.max(*b))
        })
    }
}

/// The most-loaded link of a load map; equal loads resolve to the lowest
/// [`LinkId`], so the choice does not depend on map iteration order.
fn max_loaded(link_bytes: &HashMap<LinkId, f64>) -> Option<(LinkId, f64)> {
    link_bytes
        .iter()
        .max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .expect("finite loads")
                .then_with(|| b.0.cmp(a.0))
        })
        .map(|(l, b)| (*l, *b))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The common payload scale factor between a stored solve and a new flow
/// set, if one exists: `flows[i].bytes == s * prev[i]` for every `i` (to
/// ~1e-12 relative — tighter than the 1e-9 warm-start contract).
fn proportional_scale(prev: &[f64], flows: &[Flow]) -> Option<f64> {
    let pivot = prev
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite payloads"))
        .map(|(i, _)| i)?;
    if prev[pivot] == 0.0 {
        return flows.iter().all(|f| f.bytes == 0.0).then_some(1.0);
    }
    let s = flows[pivot].bytes / prev[pivot];
    if !(s.is_finite() && s > 0.0) {
        return None;
    }
    for (p, f) in prev.iter().zip(flows) {
        let scaled = p * s;
        if (f.bytes - scaled).abs() > 1e-12 * f.bytes.abs().max(scaled.abs()) {
            return None;
        }
    }
    Some(s)
}

/// Stored fluid equilibrium of one solved flow set, reusable across
/// payload rescales of the same route shape (see
/// [`ContentionSim::simulate_warm`]).
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    valid: bool,
    routes_sig: u64,
    /// Payload bytes of the stored solve, per flow.
    bytes: Vec<f64>,
    /// Fluid completion times (per-hop latency excluded), per flow.
    fluid: Vec<f64>,
    /// Hop counts, per flow.
    hops: Vec<f64>,
    /// Link loads of the stored solve.
    link_bytes: Vec<(LinkId, f64)>,
}

impl WarmStart {
    /// An empty warm start (first use falls back to a cold solve).
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Whether a previous equilibrium is stored.
    pub fn is_seeded(&self) -> bool {
        self.valid
    }

    fn rescaled(&self, sim: &ContentionSim, s: f64) -> ContentionReport {
        let completion: Vec<f64> = self
            .fluid
            .iter()
            .zip(&self.hops)
            .map(|(f, h)| f * s + h * sim.hop_latency)
            .collect();
        let makespan = completion.iter().fold(0.0f64, |a, b| a.max(*b));
        let link_bytes: HashMap<LinkId, f64> =
            self.link_bytes.iter().map(|&(l, b)| (l, b * s)).collect();
        let max_loaded_link = max_loaded(&link_bytes);
        ContentionReport {
            completion,
            makespan,
            link_bytes,
            max_loaded_link,
        }
    }

    fn store(&mut self, sim: &ContentionSim, flows: &[Flow], sig: u64, report: &ContentionReport) {
        self.valid = true;
        self.routes_sig = sig;
        self.bytes.clear();
        self.bytes.extend(flows.iter().map(|f| f.bytes));
        self.hops.clear();
        self.hops.extend(flows.iter().map(|f| f.hops() as f64));
        self.fluid.clear();
        self.fluid.extend(
            report
                .completion
                .iter()
                .zip(flows)
                .map(|(c, f)| c - f.hops() as f64 * sim.hop_latency),
        );
        self.link_bytes.clear();
        self.link_bytes
            .extend(report.link_bytes.iter().map(|(&l, &b)| (l, b)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use temp_wsc::topology::Coord;
    use temp_wsc::units::MB;

    fn setup() -> (Mesh, ContentionSim) {
        let cfg = WaferConfig::hpca();
        (cfg.mesh(), ContentionSim::new(&cfg))
    }

    #[test]
    fn solo_flow_matches_serialization_plus_latency() {
        let (mesh, sim) = setup();
        let f = Flow::xy(&mesh, DieId(0), DieId(1), 64.0 * MB);
        let r = sim.simulate(std::slice::from_ref(&f));
        let expected = 64.0 * MB / sim.link_bandwidth + sim.hop_latency;
        assert!((r.completion[0] - expected).abs() / expected < 1e-6);
        assert!((sim.solo_time(&f) - expected).abs() < 1e-12);
    }

    #[test]
    fn local_flow_completes_instantly() {
        let (mesh, sim) = setup();
        let f = Flow::xy(&mesh, DieId(3), DieId(3), 64.0 * MB);
        let r = sim.simulate(&[f]);
        assert_eq!(r.completion[0], 0.0);
    }

    #[test]
    fn two_flows_sharing_a_link_take_twice_as_long() {
        let (mesh, sim) = setup();
        // Fig. 5(b): two transfers forced through the same link more than
        // double the latency versus contention-free.
        let a = mesh.die_at(Coord::new(0, 0)).unwrap();
        let b = mesh.die_at(Coord::new(2, 0)).unwrap();
        let c = mesh.die_at(Coord::new(1, 0)).unwrap();
        let d = mesh.die_at(Coord::new(3, 0)).unwrap();
        let f1 = Flow::xy(&mesh, a, b, 128.0 * MB);
        let f2 = Flow::xy(&mesh, c, d, 128.0 * MB);
        let solo = sim.simulate(std::slice::from_ref(&f1)).makespan;
        let both = sim.simulate(&[f1, f2]).makespan;
        // Shared middle link (1->2) halves each flow's rate for its duration.
        assert!(both > 1.4 * solo, "both={both}, solo={solo}");
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let (mesh, sim) = setup();
        let f1 = Flow::xy(&mesh, DieId(0), DieId(1), 32.0 * MB);
        let f2 = Flow::xy(&mesh, DieId(16), DieId(17), 32.0 * MB);
        let solo = sim.simulate(std::slice::from_ref(&f1)).makespan;
        let both = sim.simulate(&[f1, f2]).makespan;
        assert!((both - solo).abs() / solo < 1e-6);
    }

    #[test]
    fn link_loads_accumulate_over_shared_links() {
        let (mesh, sim) = setup();
        let f1 = Flow::xy(&mesh, DieId(0), DieId(2), 10.0 * MB);
        let f2 = Flow::xy(&mesh, DieId(1), DieId(3), 10.0 * MB);
        let loads = sim.link_loads(&[f1, f2]);
        // Link 1->2 carries both flows.
        let l12 = mesh.link_between(DieId(1), DieId(2)).unwrap();
        assert!((loads[&l12] - 20.0 * MB).abs() < 1.0);
    }

    #[test]
    fn max_min_fairness_respects_bottleneck() {
        let (mesh, sim) = setup();
        // Three flows across the same single link: each gets 1/3 bandwidth.
        let flows: Vec<Flow> = (0..3)
            .map(|_| Flow::xy(&mesh, DieId(0), DieId(1), 30.0 * MB))
            .collect();
        let r = sim.simulate(&flows);
        let expected = 3.0 * 30.0 * MB / sim.link_bandwidth + sim.hop_latency;
        assert!((r.makespan - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn congestion_lower_bound_matches_max_link_load() {
        let (mesh, sim) = setup();
        let f1 = Flow::xy(&mesh, DieId(0), DieId(2), 10.0 * MB);
        let f2 = Flow::xy(&mesh, DieId(1), DieId(3), 10.0 * MB);
        let lb = sim.congestion_lower_bound(&[f1, f2]);
        assert!((lb - 20.0 * MB / sim.link_bandwidth).abs() < 1e-12);
    }

    #[test]
    fn multi_hop_flow_charges_latency_per_hop() {
        let (mesh, sim) = setup();
        let f = Flow::xy(&mesh, DieId(0), DieId(7), 1.0);
        let r = sim.simulate(&[f]);
        assert!(r.completion[0] >= 7.0 * sim.hop_latency);
    }

    #[test]
    fn with_path_rejects_non_adjacent_steps() {
        let (mesh, _) = setup();
        let res = Flow::with_path(&mesh, &[DieId(0), DieId(2)], 1.0);
        assert!(matches!(res, Err(SimError::InvalidParameter(_))));
    }

    #[test]
    fn dense_and_reference_fair_sharing_agree() {
        let (mesh, sim) = setup();
        // A contended mix: row traffic sharing links, column crossings and
        // a long diagonal flow, all concurrent.
        let mut flows = Vec::new();
        for i in 0..4 {
            flows.push(Flow::xy(&mesh, DieId(i), DieId(i + 2), 64.0 * MB));
            flows.push(Flow::xy(&mesh, DieId(i), DieId(i + 16), 32.0 * MB));
        }
        flows.push(Flow::xy(&mesh, DieId(0), DieId(31), 128.0 * MB));
        let dense = sim.simulate(&flows);
        let reference = sim.simulate_reference(&flows);
        assert_eq!(dense.makespan.to_bits(), reference.makespan.to_bits());
        for (d, r) in dense.completion.iter().zip(&reference.completion) {
            assert_eq!(d.to_bits(), r.to_bits(), "{d} vs {r}");
        }
        assert_eq!(dense.link_bytes, reference.link_bytes);
    }

    #[test]
    fn rerouted_neighbor_flows_avoid_dead_links_and_inflate_makespan() {
        let (mesh, sim) = setup();
        let healthy = FaultMap::healthy(&mesh);
        let base = rerouted_neighbor_flows(&mesh, &healthy, 16.0 * MB).unwrap();
        // Healthy: every neighbor exchange is its own single-hop flow.
        assert_eq!(base.len(), mesh.link_count() / 2);
        assert!(base.iter().all(|f| f.hops() == 1));

        let faults = FaultMap::inject_link_faults(&mesh, 0.2, 5);
        assert!(faults.is_connected(&mesh));
        let rerouted = rerouted_neighbor_flows(&mesh, &faults, 16.0 * MB).unwrap();
        assert_eq!(rerouted.len(), base.len());
        for f in &rerouted {
            assert!(!f.crosses_dead_link(&faults), "{f:?}");
        }
        // Detours share surviving links: strictly slower than healthy.
        let t_healthy = sim.simulate(&base).makespan;
        let t_degraded = sim.simulate(&rerouted).makespan;
        assert!(t_degraded > t_healthy, "{t_degraded} vs {t_healthy}");
    }

    #[test]
    fn rerouted_neighbor_flows_detect_disconnection() {
        let mesh = Mesh::new(2, 1).unwrap();
        let mut faults = FaultMap::healthy(&mesh);
        let l = mesh.link_between(DieId(0), DieId(1)).unwrap();
        faults.kill_link(&mesh, l);
        assert!(rerouted_neighbor_flows(&mesh, &faults, 1.0).is_none());
    }

    #[test]
    fn bandwidth_utilization_is_bounded() {
        let (mesh, sim) = setup();
        let flows: Vec<Flow> = (0..4)
            .map(|i| Flow::xy(&mesh, DieId(i), DieId(i + 8), 64.0 * MB))
            .collect();
        let r = sim.simulate(&flows);
        let u = r.bandwidth_utilization(sim.link_bandwidth);
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    fn contended_mix(mesh: &Mesh, scale: f64) -> Vec<Flow> {
        let mut flows = Vec::new();
        for i in 0..4 {
            flows.push(Flow::xy(mesh, DieId(i), DieId(i + 2), scale * 64.0 * MB));
            flows.push(Flow::xy(mesh, DieId(i), DieId(i + 16), scale * 32.0 * MB));
        }
        flows.push(Flow::xy(mesh, DieId(0), DieId(31), scale * 128.0 * MB));
        flows
    }

    #[test]
    fn warm_start_rescale_matches_cold_and_reference() {
        let (mesh, sim) = setup();
        let mut warm = WarmStart::new();
        // Cold seed.
        let base = contended_mix(&mesh, 1.0);
        let seeded = sim.simulate_warm(&base, &mut warm);
        assert!(warm.is_seeded());
        assert_eq!(seeded.completion, sim.simulate(&base).completion);
        // Rescaled payloads over the same routes: warm fixed point must
        // match both a cold dense solve and the reference solver to 1e-9.
        for scale in [0.25, 3.0, 17.5] {
            let scaled = contended_mix(&mesh, scale);
            let hot = sim.simulate_warm(&scaled, &mut warm);
            let cold = sim.simulate(&scaled);
            let reference = sim.simulate_reference(&scaled);
            for (w, c) in hot.completion.iter().zip(&cold.completion) {
                assert!((w - c).abs() <= 1e-9 * c.abs().max(1e-12), "{w} vs {c}");
            }
            for (w, r) in hot.completion.iter().zip(&reference.completion) {
                assert!((w - r).abs() <= 1e-9 * r.abs().max(1e-12), "{w} vs {r}");
            }
            assert!((hot.makespan - cold.makespan).abs() <= 1e-9 * cold.makespan);
        }
    }

    #[test]
    fn warm_start_rejects_non_proportional_payloads() {
        let (mesh, sim) = setup();
        let mut warm = WarmStart::new();
        let base = contended_mix(&mesh, 1.0);
        sim.simulate_warm(&base, &mut warm);
        // Perturb one payload off-scale: must fall back to a cold solve
        // (and re-seed), not serve a stale rescale.
        let mut skewed = contended_mix(&mesh, 2.0);
        skewed[3].bytes *= 1.5;
        let hot = sim.simulate_warm(&skewed, &mut warm);
        let cold = sim.simulate(&skewed);
        assert_eq!(hot.completion, cold.completion);
    }

    #[test]
    fn simulate_many_agrees_with_individual_solves() {
        let (mesh, sim) = setup();
        let sets: Vec<Vec<Flow>> = [1.0, 2.0, 0.5, 8.0]
            .iter()
            .map(|&s| contended_mix(&mesh, s))
            .collect();
        let batch = sim.simulate_many(&sets);
        for (flows, report) in sets.iter().zip(&batch) {
            let cold = sim.simulate(flows);
            assert!((report.makespan - cold.makespan).abs() <= 1e-9 * cold.makespan);
            for (b, c) in report.completion.iter().zip(&cold.completion) {
                assert!((b - c).abs() <= 1e-9 * c.abs().max(1e-12), "{b} vs {c}");
            }
        }
    }

    /// A flow wrapper like the mapping engines' tagged flows.
    struct Tagged {
        flow: Flow,
        _payload: u64,
    }

    impl AsRef<Flow> for Tagged {
        fn as_ref(&self) -> &Flow {
            &self.flow
        }
    }

    fn tag(flows: &[Flow]) -> Vec<Tagged> {
        flows
            .iter()
            .enumerate()
            .map(|(i, f)| Tagged {
                flow: f.clone(),
                _payload: i as u64,
            })
            .collect()
    }

    #[test]
    fn makespan_of_simulates_wrapped_flows_in_place_bit_identically() {
        let (mesh, sim) = setup();
        let flows = contended_mix(&mesh, 1.0);
        let fresh = sim.simulate(&flows).makespan;
        let tagged = tag(&flows);
        assert_eq!(sim.makespan_of(&flows).to_bits(), fresh.to_bits());
        assert_eq!(sim.makespan_of(&tagged).to_bits(), fresh.to_bits());
        // No history: a repeat, and a run after a different set, solve
        // the same set to the same bits.
        assert_eq!(sim.makespan_of(&tagged).to_bits(), fresh.to_bits());
        let other = contended_mix(&mesh, 2.0);
        let other_makespan = sim.makespan_of(&tag(&other));
        assert_eq!(
            other_makespan.to_bits(),
            sim.simulate(&other).makespan.to_bits()
        );
        assert_ne!(other_makespan.to_bits(), fresh.to_bits());
        assert_eq!(sim.makespan_of(&tagged).to_bits(), fresh.to_bits());
        // Planning solves are cold: they touch no warm-start counter.
        let before = contention_warm_stats();
        let _ = sim.makespan_of(&tagged);
        let _ = sim.makespan_of::<Flow>(&[]);
        assert_eq!(contention_warm_stats(), before);
    }

    /// Random flows over `mesh`: random endpoints, XY or YX routes, and
    /// payloads from a short menu (so equal shares are common).
    fn random_flows(mesh: &Mesh, rng: &mut StdRng, n: usize) -> Vec<Flow> {
        let dies = mesh.die_count() as u32;
        (0..n)
            .map(|_| {
                let (a, b) = (DieId(rng.gen_range(0..dies)), DieId(rng.gen_range(0..dies)));
                let order = if rng.gen_range(0..2u32) == 0 {
                    RouteOrder::XThenY
                } else {
                    RouteOrder::YThenX
                };
                let bytes = [0.0, 8.0, 16.0, 16.0, 32.0][rng.gen_range(0..5usize)] * MB;
                Flow::routed(mesh, a, b, bytes, order)
            })
            .collect()
    }

    /// Tie-heavy flows: rings of equal payloads over rows, columns and
    /// blocks, plus single-hop shifts, so many links carry equal fair
    /// shares and sit at different positions in first-touch order. The
    /// component order is shuffled so ties meet the bottleneck scan in
    /// varying orders.
    fn tie_heavy_flows(mesh: &Mesh, rng: &mut StdRng) -> Vec<Flow> {
        let (w, h) = (mesh.width(), mesh.height());
        let bytes = [8.0, 16.0][rng.gen_range(0..2usize)] * MB;
        let mut groups: Vec<Vec<Flow>> = Vec::new();
        for y in 0..h {
            let len = [2u32, 4][rng.gen_range(0..2usize)];
            for x in (0..w).step_by(len as usize) {
                let g: Vec<DieId> = (x..(x + len).min(w)).map(|x| die(mesh, x, y)).collect();
                groups.push(ring(mesh, &g, bytes));
            }
        }
        for x in (0..w).step_by(3) {
            let g: Vec<DieId> = (0..h).map(|y| die(mesh, x, y)).collect();
            groups.push(ring(mesh, &g, bytes));
        }
        for _ in 0..rng.gen_range(4..16usize) {
            let (x, y) = (rng.gen_range(0..w - 1), rng.gen_range(0..h));
            groups.push(vec![Flow::xy(
                mesh,
                die(mesh, x, y),
                die(mesh, x + 1, y),
                bytes,
            )]);
        }
        for i in (1..groups.len()).rev() {
            groups.swap(i, rng.gen_range(0..i + 1));
        }
        groups.concat()
    }

    #[test]
    fn makespan_of_and_stored_shares_match_rescanning_on_seeded_and_tie_heavy_sets() {
        let (_, sim) = setup();
        let mut rng = StdRng::seed_from_u64(0x5ba2e);
        let mut scratch = DenseScratch::new(0);
        for (w, h) in [(8u32, 4u32), (16, 8)] {
            let mesh = Mesh::new(w, h).unwrap();
            for case in 0..32 {
                let flows = if case % 2 == 0 {
                    let n = rng.gen_range(2usize..(w * h) as usize * 2);
                    random_flows(&mesh, &mut rng, n)
                } else {
                    tie_heavy_flows(&mesh, &mut rng)
                };
                let what = format!("{w}x{h} case {case}");
                // Stored shares pick exactly what the reference's
                // rescanning of every share picks.
                let mut arena = RunArena::new();
                arena.load(&flows);
                let mut rate = vec![0.0; flows.len()];
                scratch.fair_rates(sim.link_bandwidth, &flows, &arena.active, &mut rate);
                let rescanned = sim.fair_rates_reference(&flows, &arena.active);
                for (&i, b) in arena.active.iter().zip(&rescanned) {
                    let a = rate[i as usize];
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}, flow {i}: {a} vs {b}");
                }
                let of = sim.makespan_of(&tag(&flows));
                let dense = sim.simulate(&flows).makespan;
                assert_eq!(of.to_bits(), dense.to_bits(), "{what}: {of} vs {dense}");
                assert_matches_reference(&sim, &flows, &what);
            }
        }
    }

    /// The dense fluid loop over every live flow as one component, no
    /// component classes: every event re-fills the whole round. The
    /// baseline the deduplicated, component-local
    /// [`ContentionSim::simulate`] must match.
    fn undeduplicated(sim: &ContentionSim, flows: &[Flow]) -> Vec<f64> {
        let mut arena = RunArena::new();
        arena.load(flows);
        sim.fluid_loop(&mut arena, flows, false);
        for (c, f) in arena.completion.iter_mut().zip(flows) {
            *c += f.hops() as f64 * sim.hop_latency;
        }
        arena.completion
    }

    /// `(live flows, flows the deduplicated loop runs)` of a flow set.
    fn dedup_counts(flows: &[Flow]) -> (usize, usize) {
        component_counts(flows).0
    }

    /// `((live flows, flows kept), components kept)` of a flow set.
    fn component_counts(flows: &[Flow]) -> ((usize, usize), usize) {
        let mut arena = RunArena::new();
        arena.load(flows);
        let live = arena.active.len();
        arena
            .classes
            .keep_representatives(flows, &mut arena.active, &mut arena.comps);
        ((live, arena.active.len()), arena.comps.len())
    }

    /// The dense path's completions equal both the reference's and the
    /// whole-round dense loop's, bit for bit.
    fn assert_matches_reference(sim: &ContentionSim, flows: &[Flow], what: &str) {
        let dense = sim.simulate(flows);
        let reference = sim.simulate_reference(flows);
        let whole = undeduplicated(sim, flows);
        for (i, ((d, r), u)) in dense
            .completion
            .iter()
            .zip(&reference.completion)
            .zip(&whole)
            .enumerate()
        {
            assert_eq!(
                d.to_bits(),
                r.to_bits(),
                "{what}, flow {i}: {d} vs reference {r}"
            );
            assert_eq!(
                d.to_bits(),
                u.to_bits(),
                "{what}, flow {i}: {d} vs whole round {u}"
            );
        }
        assert_eq!(
            dense.makespan.to_bits(),
            reference.makespan.to_bits(),
            "{what}"
        );
        assert_eq!(
            sim.makespan_of(flows).to_bits(),
            dense.makespan.to_bits(),
            "{what}"
        );
    }

    #[test]
    fn component_local_filling_matches_the_reference_on_many_component_sets() {
        let (_, sim) = setup();
        let mut rng = StdRng::seed_from_u64(0xc0c0);
        let mut split = 0;
        for case in 0..24 {
            let (w, h) = [(8u32, 8u32), (16, 8), (16, 16)][case % 3];
            let mesh = Mesh::new(w, h).unwrap();
            // Small rings and short chains at random spots, with payloads
            // drawn per group: many components, few of them copies.
            let mut flows = Vec::new();
            for _ in 0..rng.gen_range(4..(w * h / 4) as usize) {
                let (x, y) = (rng.gen_range(0..w - 1), rng.gen_range(0..h - 1));
                let bytes = rng.gen_range(1.0..64.0) * MB;
                if rng.gen_range(0..2u32) == 0 {
                    let g = [
                        die(&mesh, x, y),
                        die(&mesh, x + 1, y),
                        die(&mesh, x + 1, y + 1),
                        die(&mesh, x, y + 1),
                    ];
                    flows.extend(ring(&mesh, &g, bytes));
                } else {
                    let to = die(&mesh, (x + rng.gen_range(1..3u32)).min(w - 1), y);
                    flows.push(Flow::xy(&mesh, die(&mesh, x, y), to, bytes));
                }
            }
            let (_, comps) = component_counts(&flows);
            split += usize::from(comps > 1);
            assert_matches_reference(&sim, &flows, &format!("case {case} ({w}x{h})"));
        }
        assert!(split > 12, "most sets must split into components ({split})");
    }

    #[test]
    fn component_local_filling_matches_the_reference_when_a_bridge_drains_first() {
        let (_, sim) = setup();
        let mesh = Mesh::new(16, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0xb1d6e);
        for case in 0..16 {
            // Two contended clusters on one row, joined by a small flow
            // that shares a link with each. The bridge drains first, and
            // its component splits into clusters that contend unevenly.
            let y = rng.gen_range(0..4u32);
            let (left, right) = (rng.gen_range(8.0..64.0) * MB, rng.gen_range(8.0..64.0) * MB);
            let mut flows = vec![
                Flow::xy(&mesh, die(&mesh, 0, y), die(&mesh, 3, y), left),
                Flow::xy(&mesh, die(&mesh, 1, y), die(&mesh, 3, y), 2.0 * left),
                Flow::xy(&mesh, die(&mesh, 2, y), die(&mesh, 3, (y + 1) % 4), left),
                Flow::xy(&mesh, die(&mesh, 8, y), die(&mesh, 11, y), right),
                Flow::xy(&mesh, die(&mesh, 9, y), die(&mesh, 10, y), 3.0 * right),
                Flow::xy(&mesh, die(&mesh, 10, y), die(&mesh, 12, y), right),
            ];
            let bridge = Flow::xy(
                &mesh,
                die(&mesh, 2, y),
                die(&mesh, 9, y),
                rng.gen_range(0.1..1.0) * MB,
            );
            flows.insert(rng.gen_range(0..flows.len() + 1), bridge.clone());
            // A disjoint bystander component no drain touches early.
            flows.push(Flow::xy(
                &mesh,
                die(&mesh, 14, y),
                die(&mesh, 15, y),
                96.0 * MB,
            ));
            let report = sim.simulate(&flows);
            let at = flows.iter().position(|f| *f == bridge).unwrap();
            let first = report
                .completion
                .iter()
                .fold(f64::INFINITY, |a, b| a.min(*b));
            assert_eq!(
                report.completion[at], first,
                "case {case}: the bridge drains first"
            );
            assert_eq!(component_counts(&flows).1, 2, "case {case}");
            assert_matches_reference(&sim, &flows, &format!("bridge case {case}"));
        }
    }

    fn assert_dedup_bit_identical(sim: &ContentionSim, flows: &[Flow], what: &str) {
        let full = undeduplicated(sim, flows);
        let report = sim.simulate(flows);
        for (i, (d, f)) in report.completion.iter().zip(&full).enumerate() {
            assert_eq!(d.to_bits(), f.to_bits(), "{what}, flow {i}: {d} vs {f}");
        }
        let makespan = full.iter().fold(0.0f64, |a, b| a.max(*b));
        assert_eq!(report.makespan.to_bits(), makespan.to_bits(), "{what}");
    }

    fn die(mesh: &Mesh, x: u32, y: u32) -> DieId {
        mesh.die_at(Coord::new(x, y)).unwrap()
    }

    /// One ring round over `group` (every member ships to its successor).
    fn ring(mesh: &Mesh, group: &[DieId], bytes: f64) -> Vec<Flow> {
        (0..group.len())
            .map(|i| Flow::xy(mesh, group[i], group[(i + 1) % group.len()], bytes))
            .collect()
    }

    #[test]
    fn deduplicated_loop_is_bit_identical_on_tiled_groups() {
        let sim = setup().1;
        let mut rng = StdRng::seed_from_u64(0x18);
        for (w, h) in [(8u32, 4u32), (8, 8), (16, 8)] {
            let mesh = Mesh::new(w, h).unwrap();
            // 2x2 rings tiling the mesh plus row rings of 4 over the even
            // rows: translated copies of two component shapes, with the
            // row rings contending with the blocks they overlap.
            let (block, row) = (rng.gen_range(1.0..64.0) * MB, rng.gen_range(1.0..64.0) * MB);
            let mut flows = Vec::new();
            for y in (0..h).step_by(2) {
                for x in (0..w).step_by(2) {
                    let g = [
                        die(&mesh, x, y),
                        die(&mesh, x + 1, y),
                        die(&mesh, x + 1, y + 1),
                        die(&mesh, x, y + 1),
                    ];
                    flows.extend(ring(&mesh, &g, block));
                }
            }
            for y in (0..h).step_by(2) {
                for x in (0..w).step_by(4) {
                    let g: Vec<DieId> = (x..x + 4).map(|x| die(&mesh, x, y)).collect();
                    flows.extend(ring(&mesh, &g, row));
                }
            }
            let (live, kept) = dedup_counts(&flows);
            assert!(kept < live, "{w}x{h}: translated copies must be dropped");
            assert_dedup_bit_identical(&sim, &flows, &format!("tiled {w}x{h}"));
        }
    }

    #[test]
    fn deduplicated_loop_is_bit_identical_on_mirrored_and_near_copies() {
        let (_, sim) = setup();
        let mesh = Mesh::new(8, 8).unwrap();
        // A contended chain on the left and its mirror image on the right:
        // equal canonical forms, opposite link directions.
        let chain = |flip: bool, y: u32, bytes: f64| -> Vec<Flow> {
            let x = |x: u32| if flip { 7 - x } else { x };
            vec![
                Flow::xy(&mesh, die(&mesh, x(0), y), die(&mesh, x(2), y), bytes),
                Flow::xy(&mesh, die(&mesh, x(1), y), die(&mesh, x(3), y), 2.0 * bytes),
                Flow::xy(&mesh, die(&mesh, x(1), y), die(&mesh, x(2), y + 1), bytes),
            ]
        };
        let mut flows = chain(false, 0, 16.0 * MB);
        flows.extend(chain(true, 0, 16.0 * MB));
        let (live, kept) = dedup_counts(&flows);
        assert_eq!(kept * 2, live, "the mirror is a copy");
        assert_dedup_bit_identical(&sim, &flows, "mirrored");

        // Of three translated chains, the two with equal payloads are one
        // class; the one whose payload differs in the last mantissa bit of
        // one flow is another.
        let mut near = chain(false, 0, 16.0 * MB);
        near.extend(chain(false, 2, 16.0 * MB));
        let mut other = chain(false, 5, 16.0 * MB);
        other[1].bytes = f64::from_bits(other[1].bytes.to_bits() ^ 1);
        near.extend(other);
        let (live, kept) = dedup_counts(&near);
        assert_eq!(kept, live - 3, "only the exact copy is dropped");
        assert_dedup_bit_identical(&sim, &near, "one payload bit apart");
    }

    #[test]
    fn deduplicated_loop_is_bit_identical_on_lone_local_and_empty_flows() {
        let (_, sim) = setup();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(0x1d);
        let n = mesh.die_count() as u32;
        let mut flows = Vec::new();
        // Single-flow components: one-hop neighbor shifts with a few
        // payload sizes, interleaved with local and zero-byte flows.
        for x in 0..7 {
            for y in 0..8 {
                let bytes = [8.0, 16.0, 24.0][rng.gen_range(0..3usize)] * MB;
                flows.push(Flow::xy(
                    &mesh,
                    die(&mesh, x, y),
                    die(&mesh, x + 1, y),
                    bytes,
                ));
                if rng.gen_range(0..4u32) == 0 {
                    let d = DieId(rng.gen_range(0..n));
                    flows.push(Flow::xy(&mesh, d, d, 4.0 * MB));
                }
                if rng.gen_range(0..4u32) == 0 {
                    let (a, b) = (DieId(rng.gen_range(0..n)), DieId(rng.gen_range(0..n)));
                    flows.push(Flow::xy(&mesh, a, b, 0.0));
                }
            }
        }
        let (live, kept) = dedup_counts(&flows);
        assert!(kept <= 3 && live == 56, "{kept} of {live}");
        assert_dedup_bit_identical(&sim, &flows, "lone flows");
        // Degenerate sets: nothing live, one live flow.
        let local = Flow::xy(&mesh, DieId(3), DieId(3), MB);
        let empty = Flow::xy(&mesh, DieId(0), DieId(9), 0.0);
        assert_dedup_bit_identical(&sim, &[local.clone(), empty.clone()], "no live flow");
        let lone = Flow::xy(&mesh, DieId(0), DieId(9), MB);
        assert_dedup_bit_identical(&sim, &[local, lone, empty], "one live flow");
    }

    #[test]
    fn deduplicated_loop_is_bit_identical_on_seeded_random_traffic() {
        let (_, sim) = setup();
        let mut rng = StdRng::seed_from_u64(0xd1ff);
        for case in 0..48 {
            let (w, h) = (rng.gen_range(2u32..12), rng.gen_range(1u32..10));
            let mesh = Mesh::new(w, h).unwrap();
            let n = mesh.die_count() as u32;
            // Short flows keep several components apart; a shared payload
            // menu makes isomorphic ones likely.
            let flows: Vec<Flow> = (0..rng.gen_range(2usize..40))
                .map(|_| {
                    let a = DieId(rng.gen_range(0..n));
                    let c = mesh.coord(a).unwrap();
                    let (x, y) = (
                        (c.x + rng.gen_range(0..2u32)).min(w - 1),
                        (c.y + rng.gen_range(0..2u32)).min(h - 1),
                    );
                    let bytes = [0.0, 1.0, 2.0, 3.0][rng.gen_range(0..4usize)] * MB;
                    Flow::xy(&mesh, a, die(&mesh, x, y), bytes)
                })
                .collect();
            assert_dedup_bit_identical(&sim, &flows, &format!("case {case} ({w}x{h})"));
        }
    }

    #[test]
    fn deduplicated_loop_is_bit_identical_on_tcme_rerouted_rounds() {
        use temp_graph::models::ModelZoo;
        use temp_graph::workload::Workload;
        use temp_mapping::engines::{map_hybrid, MappingEngine};
        use temp_parallel::strategy::HybridConfig;

        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let mut deduplicated = 0;
        for (w, h) in [(8u32, 4u32), (8, 8), (16, 8)] {
            let wafer = WaferConfig::with_array(w, h).unwrap();
            let sim = ContentionSim::new(&wafer);
            let dies = (w * h) as usize;
            for cfg in [
                HybridConfig::tuple(2, 2, 1, dies / 4),
                HybridConfig::tuple(dies / 4, 4, 1, 1),
                HybridConfig::tuple(dies / 8, 2, 2, 2),
                HybridConfig {
                    dp: 4,
                    fsdp: true,
                    tatp: dies / 4,
                    ..Default::default()
                },
            ] {
                let out = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg)
                    .unwrap_or_else(|e| panic!("{} on {w}x{h}: {e}", cfg.label()));
                // The mapping crate links its own build of this crate:
                // rebuild the flows field by field.
                let flows: Vec<Flow> = out
                    .flows
                    .iter()
                    .map(|tf| Flow {
                        src: tf.flow.src,
                        dst: tf.flow.dst,
                        bytes: tf.flow.bytes,
                        route: tf.flow.route.clone(),
                    })
                    .collect();
                let (live, kept) = dedup_counts(&flows);
                deduplicated += usize::from(kept < live);
                assert_dedup_bit_identical(&sim, &flows, &format!("{} on {w}x{h}", cfg.label()));
            }
        }
        assert!(deduplicated > 0, "some TCME round must carry copies");
    }

    #[test]
    fn isolated_makespan_is_bit_identical_to_a_lone_simulation() {
        let (mesh, sim) = setup();
        let mut rng = StdRng::seed_from_u64(0x150);
        let n = mesh.die_count() as u32;
        for _ in 0..256 {
            let flow = Flow::xy(
                &mesh,
                DieId(rng.gen_range(0u32..n)),
                DieId(rng.gen_range(0u32..n)),
                rng.gen_range(0.0..512.0e6),
            );
            let fast = sim.isolated_makespan(&flow);
            let full = sim.simulate(std::slice::from_ref(&flow)).makespan;
            assert_eq!(
                fast.to_bits(),
                full.to_bits(),
                "{:?}->{:?} {} bytes: fast {fast} vs full {full}",
                flow.src,
                flow.dst,
                flow.bytes
            );
        }
        // Degenerate shapes: local (zero-route) and zero-byte flows.
        let local = Flow::xy(&mesh, DieId(3), DieId(3), 1.0e6);
        assert_eq!(
            sim.isolated_makespan(&local).to_bits(),
            sim.simulate(std::slice::from_ref(&local))
                .makespan
                .to_bits()
        );
        let empty = Flow::xy(&mesh, DieId(0), DieId(5), 0.0);
        assert_eq!(
            sim.isolated_makespan(&empty).to_bits(),
            sim.simulate(std::slice::from_ref(&empty))
                .makespan
                .to_bits()
        );
    }
}
