//! Collective communication as flow programs on the mesh.
//!
//! The cost model (§VII-A) covers "inter-die communication primitives like
//! P2P and collective algorithms". Collectives here run ring algorithms over
//! a *logical* group order; when that order does not embed a contiguous
//! physical ring, the generated flows take multi-hop mesh routes and the
//! contention simulator charges the resulting congestion — exactly the
//! failure mode TATP's orchestration removes.

use serde::{Deserialize, Serialize};

use temp_wsc::config::D2dConfig;
use temp_wsc::topology::{DieId, Mesh};

use crate::network::{ContentionSim, Flow};

/// Collective operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Every rank ends with the concatenation of all shards.
    AllGather,
    /// Every rank ends with the elementwise reduction of all buffers.
    AllReduce,
    /// Every rank ends with one reduced shard.
    ReduceScatter,
    /// Rank 0's buffer is replicated to all ranks (pipelined chain).
    Broadcast,
    /// Every rank sends a distinct `1/n` shard to every other rank (MoE
    /// expert dispatch/combine). Scheduled as `n - 1` shift rounds: in
    /// round `r`, rank `i` sends its shard for rank `i + r + 1` — each
    /// round is a disjoint permutation, so a well-embedded group keeps
    /// every link busy without self-contention.
    AllToAll,
    /// Each rank forwards its buffer one step along the group (TSPP/TATP
    /// streaming primitive).
    P2pShift,
}

impl CollectiveKind {
    /// Number of ring rounds this kind takes over a group of `n` dies.
    pub fn round_count(self, n: usize) -> usize {
        if n < 2 {
            return 0;
        }
        match self {
            CollectiveKind::AllGather | CollectiveKind::ReduceScatter => n - 1,
            CollectiveKind::AllReduce => 2 * (n - 1),
            CollectiveKind::Broadcast | CollectiveKind::AllToAll => n - 1,
            CollectiveKind::P2pShift => 1,
        }
    }
}

/// A collective over a logical group order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Collective {
    /// Operation kind.
    pub kind: CollectiveKind,
    /// Participating dies in logical-ring order.
    pub group: Vec<DieId>,
    /// Full per-rank payload in bytes (the tensor size each rank holds or
    /// receives, *not* the shard size).
    pub bytes: f64,
}

impl Collective {
    /// Creates a collective.
    pub fn new(kind: CollectiveKind, group: Vec<DieId>, bytes: f64) -> Self {
        Collective { kind, group, bytes }
    }

    /// Number of ring rounds the collective takes.
    pub fn round_count(&self) -> usize {
        self.kind.round_count(self.group.len())
    }

    /// Bytes each rank sends per round.
    pub fn bytes_per_round(&self) -> f64 {
        let n = self.group.len().max(1) as f64;
        match self.kind {
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::AllReduce
            | CollectiveKind::AllToAll => self.bytes / n,
            CollectiveKind::Broadcast | CollectiveKind::P2pShift => self.bytes,
        }
    }

    /// Generates the per-round flows of the ring algorithm. Every round,
    /// each rank sends its shard to the next rank in logical order (XY mesh
    /// routes; non-adjacent logical neighbors become multi-hop flows).
    pub fn rounds(&self, mesh: &Mesh) -> Vec<Vec<Flow>> {
        let n = self.group.len();
        if n < 2 {
            return Vec::new();
        }
        let shard = self.bytes_per_round();
        let mut rounds = Vec::with_capacity(self.round_count());
        for round in 0..self.round_count() {
            let mut flows = Vec::with_capacity(n);
            match self.kind {
                CollectiveKind::Broadcast => {
                    // Pipelined chain: in round r, rank r forwards to r+1.
                    let i = round % n;
                    if i + 1 < n {
                        flows.push(Flow::xy(mesh, self.group[i], self.group[i + 1], shard));
                    }
                }
                CollectiveKind::AllToAll => {
                    // Round r: rank i sends its shard for rank i + r + 1 —
                    // a disjoint permutation per round.
                    for i in 0..n {
                        let dst = (i + round + 1) % n;
                        flows.push(Flow::xy(mesh, self.group[i], self.group[dst], shard));
                    }
                }
                _ => {
                    for i in 0..n {
                        let next = (i + 1) % n;
                        flows.push(Flow::xy(mesh, self.group[i], self.group[next], shard));
                    }
                }
            }
            rounds.push(flows);
        }
        rounds
    }

    /// All flows of every round, flattened (for static link-load analysis).
    pub fn all_flows(&self, mesh: &Mesh) -> Vec<Flow> {
        self.rounds(mesh).into_iter().flatten().collect()
    }

    /// Idealized latency assuming every logical neighbor is one physical hop
    /// and links are contention-free (the textbook ring-collective formula).
    pub fn analytic_time(&self, d2d: &D2dConfig) -> f64 {
        Self::analytic_time_for(self.kind, self.group.len(), self.bytes, d2d)
    }

    /// [`Collective::analytic_time`] as a pure function of the group
    /// *size*: the idealized formula never looks at which dies
    /// participate, only how many, so callers that would otherwise build
    /// a throwaway group vector (or memoize timings by `(kind, n,
    /// bytes)`) can use this directly.
    pub fn analytic_time_for(kind: CollectiveKind, n: usize, bytes: f64, d2d: &D2dConfig) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let rounds = kind.round_count(n) as f64;
        let shard = match kind {
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::AllReduce
            | CollectiveKind::AllToAll => bytes / n as f64,
            CollectiveKind::Broadcast | CollectiveKind::P2pShift => bytes,
        };
        rounds * d2d.transfer_time(shard)
    }

    /// Simulated latency on the real mesh: per-round contention makespans,
    /// summed over rounds (rounds are barriers in ring algorithms). Ring
    /// rounds repeat one flow set, so a round equal to the one before it
    /// reuses that round's makespan; [`ContentionSim::makespan_of`] is a
    /// pure function of the flows, so the sum is bit-identical to solving
    /// every round.
    pub fn simulate(&self, sim: &ContentionSim, mesh: &Mesh) -> f64 {
        let rounds = self.rounds(mesh);
        let mut total = 0.0;
        let mut previous: Option<(&[Flow], f64)> = None;
        for round in &rounds {
            let makespan = match previous {
                Some((flows, makespan)) if flows == round.as_slice() => makespan,
                _ => sim.makespan_of(round),
            };
            total += makespan;
            previous = Some((round, makespan));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_wsc::config::WaferConfig;
    use temp_wsc::units::MB;

    fn setup() -> (Mesh, ContentionSim, D2dConfig) {
        let cfg = WaferConfig::hpca();
        (cfg.mesh(), ContentionSim::new(&cfg), cfg.d2d)
    }

    /// A contiguous 2x2 physical ring on the 8x4 mesh.
    fn ring_group() -> Vec<DieId> {
        vec![DieId(0), DieId(1), DieId(9), DieId(8)]
    }

    /// A 4-die row used as a logical ring: the wrap step is 3 hops.
    fn strip_group() -> Vec<DieId> {
        vec![DieId(0), DieId(1), DieId(2), DieId(3)]
    }

    #[test]
    fn round_counts_match_textbook() {
        let g = ring_group();
        assert_eq!(
            Collective::new(CollectiveKind::AllGather, g.clone(), 1.0).round_count(),
            3
        );
        assert_eq!(
            Collective::new(CollectiveKind::AllReduce, g.clone(), 1.0).round_count(),
            6
        );
        assert_eq!(
            Collective::new(CollectiveKind::ReduceScatter, g.clone(), 1.0).round_count(),
            3
        );
        assert_eq!(
            Collective::new(CollectiveKind::P2pShift, g, 1.0).round_count(),
            1
        );
    }

    #[test]
    fn simulate_is_the_bitwise_sum_of_cold_round_makespans() {
        let (mesh, sim, _) = setup();
        for kind in [CollectiveKind::AllReduce, CollectiveKind::AllToAll] {
            let c = Collective::new(kind, strip_group(), 64.0 * MB);
            let cold: f64 = c
                .rounds(&mesh)
                .iter()
                .map(|round| sim.simulate(round).makespan)
                .sum();
            assert_eq!(
                c.simulate(&sim, &mesh).to_bits(),
                cold.to_bits(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn allgather_moves_n_minus_1_shards() {
        let c = Collective::new(CollectiveKind::AllGather, ring_group(), 64.0 * MB);
        assert!((c.bytes_per_round() - 16.0 * MB).abs() < 1.0);
        let rounds = c.rounds(&setup().0);
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn physical_ring_flows_are_single_hop() {
        let (mesh, _, _) = setup();
        let c = Collective::new(CollectiveKind::AllGather, ring_group(), 64.0 * MB);
        for round in c.rounds(&mesh) {
            for f in round {
                assert_eq!(f.hops(), 1, "{:?} -> {:?}", f.src, f.dst);
            }
        }
    }

    #[test]
    fn strip_group_wrap_step_is_multi_hop() {
        let (mesh, _, _) = setup();
        let c = Collective::new(CollectiveKind::AllGather, strip_group(), 64.0 * MB);
        let max_hops = c.all_flows(&mesh).iter().map(Flow::hops).max().unwrap();
        assert_eq!(max_hops, 3, "wrap from D3 back to D0");
    }

    #[test]
    fn simulated_ring_beats_strip() {
        let (mesh, sim, _) = setup();
        let ring = Collective::new(CollectiveKind::AllGather, ring_group(), 128.0 * MB);
        let strip = Collective::new(CollectiveKind::AllGather, strip_group(), 128.0 * MB);
        let t_ring = ring.simulate(&sim, &mesh);
        let t_strip = strip.simulate(&sim, &mesh);
        assert!(
            t_strip > 1.5 * t_ring,
            "strip {t_strip} should be much slower than ring {t_ring}"
        );
    }

    #[test]
    fn analytic_time_matches_simulated_on_physical_ring() {
        let (mesh, sim, d2d) = setup();
        let c = Collective::new(CollectiveKind::AllReduce, ring_group(), 256.0 * MB);
        let analytic = c.analytic_time(&d2d);
        let simulated = c.simulate(&sim, &mesh);
        // On a contention-free physical ring the two should agree closely
        // (the analytic path uses effective bandwidth, sim uses peak).
        let ratio = simulated / analytic;
        assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn all_to_all_rounds_are_disjoint_permutations() {
        let (mesh, _, _) = setup();
        let c = Collective::new(CollectiveKind::AllToAll, ring_group(), 64.0 * MB);
        assert_eq!(c.round_count(), 3);
        assert!((c.bytes_per_round() - 16.0 * MB).abs() < 1.0);
        let rounds = c.rounds(&mesh);
        // Every round: each rank sends exactly once and receives exactly
        // once (a permutation with no fixed points).
        for round in &rounds {
            assert_eq!(round.len(), 4);
            let mut srcs: Vec<_> = round.iter().map(|f| f.src).collect();
            let mut dsts: Vec<_> = round.iter().map(|f| f.dst).collect();
            srcs.sort_by_key(|d| d.0);
            dsts.sort_by_key(|d| d.0);
            assert_eq!(srcs, dsts);
            assert!(round.iter().all(|f| f.src != f.dst));
        }
        // Across all rounds every ordered pair appears exactly once.
        let pairs: std::collections::HashSet<(u32, u32)> = rounds
            .iter()
            .flatten()
            .map(|f| (f.src.0, f.dst.0))
            .collect();
        assert_eq!(pairs.len(), 4 * 3);
    }

    #[test]
    fn all_to_all_analytic_tracks_contention_sim_on_a_compact_group() {
        // The closed-form all-to-all ((n-1) rounds of 1/n shards) must
        // stay within a small factor of the contention-simulated makespan
        // on a compact 2x2 group — that factor is what the mesh's
        // multi-hop rounds cost, and it must be bounded, not divergent.
        let (mesh, sim, d2d) = setup();
        let c = Collective::new(CollectiveKind::AllToAll, ring_group(), 256.0 * MB);
        let analytic = c.analytic_time(&d2d);
        let simulated = c.simulate(&sim, &mesh);
        assert!(analytic > 0.0);
        let ratio = simulated / analytic;
        assert!(
            (0.4..3.0).contains(&ratio),
            "analytic {analytic} vs simulated {simulated} (ratio {ratio})"
        );
        // A strip-embedded group pays real contention: the simulator must
        // charge it more than the compact square.
        let strip = Collective::new(CollectiveKind::AllToAll, strip_group(), 256.0 * MB);
        assert!(strip.simulate(&sim, &mesh) > simulated);
    }

    #[test]
    fn singleton_group_is_free() {
        let (mesh, sim, d2d) = setup();
        let c = Collective::new(CollectiveKind::AllReduce, vec![DieId(0)], 1.0 * MB);
        assert_eq!(c.round_count(), 0);
        assert_eq!(c.analytic_time(&d2d), 0.0);
        assert_eq!(c.simulate(&sim, &mesh), 0.0);
    }

    #[test]
    fn broadcast_is_a_chain() {
        let (mesh, _, _) = setup();
        let c = Collective::new(CollectiveKind::Broadcast, strip_group(), 32.0 * MB);
        let rounds = c.rounds(&mesh);
        assert_eq!(rounds.len(), 3);
        for r in &rounds {
            assert!(r.len() <= 1);
        }
    }
}
