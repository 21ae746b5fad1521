//! Property-based tests over the core invariants of the reproduction.
//!
//! The offline build environment has no proptest, so each property is
//! exercised over a seeded randomized sweep (deterministic per run): the
//! same invariants, driven by explicit case loops instead of a shrinker.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use temp_repro::graph::models::ModelZoo;
use temp_repro::graph::segment::SegmentKind;
use temp_repro::graph::workload::Workload;
use temp_repro::mapping::comm::layer_flows;
use temp_repro::mapping::engines::{map_hybrid, MappingEngine};
use temp_repro::parallel::strategy::HybridConfig;
use temp_repro::parallel::tatp::TatpOrchestration;
use temp_repro::parallel::tspp::TsppOrchestration;
use temp_repro::sim::network::{ContentionSim, Flow};
use temp_repro::solver::cost::WaferCostModel;
use temp_repro::solver::dlws::Dlws;
use temp_repro::wsc::config::WaferConfig;
use temp_repro::wsc::fault::FaultMap;
use temp_repro::wsc::topology::{DieId, Mesh, RouteOrder};
use temp_repro::wsc::units::MB;

/// Algorithm 1 invariants hold for every group size.
#[test]
fn tatp_invariants_hold() {
    for n in 1usize..48 {
        let orch = TatpOrchestration::build(n);
        let stats = orch.validate().expect("valid orchestration");
        assert!(stats.max_hop_distance <= 1, "n={n}");
        assert!(stats.peak_buffer <= 8, "n={n}");
    }
}

/// The naive ring is always valid too — it is just slow, not wrong.
#[test]
fn tspp_ring_is_correct() {
    for n in 1usize..32 {
        let orch = TsppOrchestration::build(n);
        let stats = orch.validate().expect("valid ring");
        assert!(stats.peak_buffer <= 2, "n={n}");
        if n >= 2 {
            assert_eq!(stats.max_hop_distance, n - 1, "n={n}");
        }
    }
}

/// XY routes have Manhattan length and valid link sequences.
#[test]
fn xy_routes_are_minimal() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..64 {
        let w = rng.gen_range(2u32..10);
        let h = rng.gen_range(2u32..8);
        let mesh = Mesh::new(w, h).unwrap();
        let n = mesh.die_count() as u32;
        let a = DieId(rng.gen_range(0u32..80) % n);
        let b = DieId(rng.gen_range(0u32..80) % n);
        let path = mesh.route(a, b, RouteOrder::XThenY);
        assert_eq!(
            path.len() as u32 - 1,
            mesh.manhattan(a, b),
            "{w}x{h} {a:?}->{b:?}"
        );
        assert!(mesh.path_links(&path).is_ok(), "{w}x{h} {a:?}->{b:?}");
    }
}

/// Max–min fair sharing never finishes earlier than the most loaded link
/// allows, and never later than full serialization.
#[test]
fn contention_bounds() {
    let cfg = WaferConfig::hpca();
    let mesh = cfg.mesh();
    let sim = ContentionSim::new(&cfg);
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows: Vec<Flow> = (0..6)
            .map(|_| {
                let a = DieId(rng.gen_range(0u32..32));
                let b = DieId(rng.gen_range(0u32..32));
                Flow::xy(&mesh, a, b, rng.gen_range(1.0e6..64.0e6))
            })
            .collect();
        let report = sim.simulate(&flows);
        let lower = sim.congestion_lower_bound(&flows);
        // Store-and-forward upper bound: every flow fully serialized.
        let upper: f64 = flows.iter().map(|f| sim.solo_time(f)).sum::<f64>() + 1e-9;
        assert!(report.makespan + 1e-12 >= lower, "seed={seed}");
        assert!(report.makespan <= upper * 1.001, "seed={seed}");
    }
}

/// Fault-free maps keep all pairs mutually reachable; the rerouted path is
/// never shorter than the Manhattan distance.
#[test]
fn fault_reroutes_are_sane() {
    let cfg = WaferConfig::hpca();
    let mesh = cfg.mesh();
    let mut rng = StdRng::seed_from_u64(0xFA017);
    for seed in 0u64..50 {
        let rate = rng.gen_range(0.0f64..0.2);
        let faults = FaultMap::inject_link_faults(&mesh, rate, seed);
        if faults.is_connected(&mesh) {
            let path = faults.route_around(&mesh, DieId(0), DieId(31)).unwrap();
            assert!(
                path.len() as u32 > mesh.manhattan(DieId(0), DieId(31)),
                "rate={rate} seed={seed}"
            );
        }
    }
}

/// The heterogeneous segment-chain DP can only improve on uniform
/// replication: for every fig13 zoo model the solved chain objective is
/// at or below the cheapest uniform candidate (the DP can always pick the
/// uniform assignment), and on at least one model the chain legitimately
/// diverges — embedding or head under a different strategy than the
/// blocks — with a strictly lower total.
#[test]
fn segment_chain_dp_beats_uniform_replication_on_the_fig13_zoo() {
    let mut heterogeneous_wins = 0usize;
    for model in ModelZoo::table2() {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let solver = Dlws::new(WaferConfig::hpca(), model, workload);
        let plan = solver.solve().unwrap_or_else(|e| panic!("{name}: {e}"));

        // The uniform-replication baseline: the cheapest single candidate
        // applied to every segment of the chain.
        let uniform_best = solver
            .candidates()
            .iter()
            .map(|cfg| solver.cost_of(cfg, MappingEngine::Tcme).0)
            .filter(|t| t.is_finite())
            .fold(f64::INFINITY, f64::min);
        assert!(uniform_best.is_finite(), "{name}: no uniform plan");
        assert!(
            plan.chain_cost <= uniform_best * (1.0 + 1e-9),
            "{name}: chain {} above uniform baseline {}",
            plan.chain_cost,
            uniform_best
        );

        // The chain must be exactly the IR's shape.
        let kinds: Vec<SegmentKind> = plan.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Embedding,
                SegmentKind::Block,
                SegmentKind::Head
            ],
            "{name}"
        );

        if plan.is_heterogeneous() {
            assert!(
                plan.chain_cost < uniform_best * (1.0 - 1e-9),
                "{name}: heterogeneous chain must strictly beat uniform \
                 ({} vs {})",
                plan.chain_cost,
                uniform_best
            );
            heterogeneous_wins += 1;
        }
    }
    assert!(
        heterogeneous_wins >= 1,
        "no fig13 zoo model chose a non-uniform per-segment assignment"
    );
}

/// Pipeline-stage slices are a *partition* of the segment chain: for any
/// valid cut set, the per-stage sub-chains reproduce the expanded chain
/// exactly — no instance lost, duplicated or reordered — and conserve
/// parameters and FLOPs.
#[test]
fn stage_slices_partition_every_zoo_chain() {
    use temp_repro::graph::segment::SegmentChain;
    let mut rng = StdRng::seed_from_u64(0x57A6E);
    for model in ModelZoo::table2() {
        let workload = Workload::for_model(&model);
        let chain = SegmentChain::for_model(&model, &workload);
        let len = chain.expanded_len();
        for _ in 0..16 {
            // A random strictly-increasing interior cut set.
            let n_cuts = rng.gen_range(1..6u64);
            let mut cuts: Vec<u64> = (0..n_cuts).map(|_| rng.gen_range(1..len)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let stages = chain
                .split_at(&cuts)
                .unwrap_or_else(|| panic!("{}: cuts {cuts:?}", model.name));
            assert_eq!(stages.len(), cuts.len() + 1, "{}", model.name);
            // Exact partition: expanded kinds concatenate to the chain's.
            let expanded: Vec<_> = stages
                .iter()
                .flat_map(|s| {
                    s.segments()
                        .iter()
                        .flat_map(|seg| std::iter::repeat_n(seg.kind, seg.count as usize))
                })
                .collect();
            let reference: Vec<_> = (0..len).map(|i| chain.kind_at(i).unwrap()).collect();
            assert_eq!(expanded, reference, "{}: cuts {cuts:?}", model.name);
            // Conservation of params and FLOPs across the partition.
            let params: u64 = stages.iter().map(SegmentChain::total_params).sum();
            assert_eq!(params, chain.total_params(), "{}", model.name);
            let flops = |c: &SegmentChain| -> f64 {
                c.segments().iter().map(|s| s.count as f64 * s.flops).sum()
            };
            let split_flops: f64 = stages.iter().map(flops).sum();
            assert!(
                (split_flops - flops(&chain)).abs() <= 1e-6 * flops(&chain),
                "{}",
                model.name
            );
            // Every cut's boundary tensor is priced from its producer.
            for &cut in &cuts {
                assert!(
                    chain.boundary_activation_bytes(cut).unwrap() > 0.0,
                    "{}: cut {cut}",
                    model.name
                );
            }
        }
    }
}

/// The stage-partitioned multi-wafer planner against the retained
/// uniform-multiplier costing, zoo-wide at two wafers: the stage plan is
/// never slower, and is strictly faster wherever the chain is
/// heterogeneous or the end segments overlap inside the pipeline (which
/// the fig13 zoo always exercises). One wafer must reproduce the
/// single-wafer plan bit-for-bit.
#[test]
fn stage_partitioned_plans_dominate_the_uniform_multiplier_zoo_wide() {
    use temp_repro::core::baselines::BaselineSystem;
    use temp_repro::core::framework::Temp;
    use temp_repro::wsc::multiwafer::MultiWaferSystem;

    let mut strict_wins = 0usize;
    for model in ModelZoo::table2() {
        let name = model.name.clone();
        let temp = Temp::hpca(model);
        let system = BaselineSystem::temp();

        // Two wafers (2 divides every zoo model's layer count, so the
        // uniform fractional stage split is realizable as integer cuts).
        let wafers = MultiWaferSystem::new(temp.wafer().clone(), 2).unwrap();
        let staged = temp.evaluate_multiwafer(&system, &wafers, 1);
        let uniform = temp.evaluate_multiwafer_uniform(&system, &wafers, 1);
        assert!(!staged.oom, "{name}");
        assert!(!uniform.oom, "{name}");
        assert!(
            staged.step_time() <= uniform.step_time() * (1.0 + 1e-9),
            "{name}: staged {} above uniform {}",
            staged.step_time(),
            uniform.step_time()
        );
        if staged.step_time() < uniform.step_time() * (1.0 - 1e-9) {
            strict_wins += 1;
        }

        // One wafer, one stage: bit-for-bit the single-wafer plan.
        let one = MultiWaferSystem::new(temp.wafer().clone(), 1).unwrap();
        let multi = temp.evaluate_multiwafer(&system, &one, 1);
        let single = temp.evaluate_system(&system);
        let plan = multi.plan.as_ref().unwrap_or_else(|| panic!("{name}"));
        assert_eq!(
            Some(&plan.body),
            single.plan.as_ref(),
            "{name}: one-wafer body must equal the single-wafer plan"
        );
        assert_eq!(multi.step_time(), single.step_time(), "{name}");
        assert_eq!(plan.handoff_time, 0.0, "{name}");
    }
    assert!(
        strict_wins >= 1,
        "no zoo model improved on the uniform-multiplier plan"
    );
}

/// Hybrid configuration enumeration always covers the die count.
#[test]
fn enumerated_tuples_cover_dies() {
    for exp in 2u32..7 {
        let dies = 1usize << exp;
        for cfg in HybridConfig::enumerate_tuples(dies, false) {
            assert_eq!(cfg.intra_wafer_degree(), dies, "dies={dies}");
            assert!(cfg.validate(dies).is_ok(), "dies={dies}");
        }
    }
}

/// The expert-parallel degree is a *factor* of the die array, never an
/// overlay: for every enumerated tuple — MoE enumerations included —
/// `ep x intra_wafer_degree` exactly covers (and so never exceeds) the
/// die count.
#[test]
fn expert_parallel_degree_never_exceeds_the_die_budget() {
    use temp_repro::solver::search::SearchContext;
    for exp in 2u32..7 {
        let dies = 1usize << exp;
        for max_ep in [1usize, 2, 8, 64] {
            for fsdp in [false, true] {
                for cfg in HybridConfig::enumerate_tuples_ep(dies, fsdp, max_ep) {
                    assert!(
                        cfg.ep * cfg.intra_wafer_degree() <= dies,
                        "dies={dies} max_ep={max_ep}: {cfg}"
                    );
                    assert_eq!(cfg.ep * cfg.intra_wafer_degree(), dies);
                    assert!(cfg.validate(dies).is_ok());
                    assert!(cfg.ep <= max_ep);
                }
            }
        }
    }
    // The solver's MoE candidate space obeys the same budget, capped at
    // the model's expert count.
    for model in ModelZoo::moe_zoo() {
        let experts = model.moe.unwrap().num_experts as usize;
        for cfg in SearchContext::enumerate_moe_candidates(32, experts) {
            assert!(cfg.ep * cfg.intra_wafer_degree() <= 32, "{cfg}");
            assert!(cfg.ep <= experts, "{cfg}");
        }
    }
}

/// Mixed dense/MoE chains slice exactly like dense ones: every stage
/// slicing partitions the expanded chain (no instance lost, duplicated
/// or reordered; params conserved), and the boundary tensor after a MoE
/// instance is the combine output — the residual stream `B x S x H`, not
/// the routed expert copies.
#[test]
fn mixed_chains_partition_exactly_and_bound_with_the_combine_output() {
    use temp_repro::graph::segment::SegmentChain;
    let mut rng = StdRng::seed_from_u64(0x40E5);
    for model in ModelZoo::moe_zoo() {
        let workload = Workload::for_model(&model);
        let chain = SegmentChain::for_model(&model, &workload);
        let len = chain.expanded_len();
        assert_eq!(len, model.layers + 2, "{}", model.name);
        // The combine-output identity at every MoE boundary.
        let sbh = workload.micro_batch_size() as f64
            * workload.seq_len as f64
            * model.hidden as f64
            * workload.compute_dtype.bytes() as f64;
        for cut in 1..len {
            let produced_by_moe = chain.kind_at(cut - 1) == Some(SegmentKind::MoeBlock);
            let bytes = chain.boundary_activation_bytes(cut).unwrap();
            assert_eq!(bytes, sbh, "{}: cut {cut}", model.name);
            if produced_by_moe {
                // The stored activations of a MoE instance are far larger
                // than its boundary tensor: the cut moves the combine
                // output only.
                let moe = chain.find(SegmentKind::MoeBlock).unwrap();
                assert!(moe.activation_bytes > bytes, "{}", model.name);
            }
        }
        // Random stage slicings partition the chain exactly.
        for _ in 0..16 {
            let n_cuts = rng.gen_range(1..6u64);
            let mut cuts: Vec<u64> = (0..n_cuts).map(|_| rng.gen_range(1..len)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let stages = chain
                .split_at(&cuts)
                .unwrap_or_else(|| panic!("{}: cuts {cuts:?}", model.name));
            let expanded: Vec<_> = stages
                .iter()
                .flat_map(|s| {
                    s.segments()
                        .iter()
                        .flat_map(|seg| std::iter::repeat_n(seg.kind, seg.count as usize))
                })
                .collect();
            let reference: Vec<_> = (0..len).map(|i| chain.kind_at(i).unwrap()).collect();
            assert_eq!(expanded, reference, "{}: cuts {cuts:?}", model.name);
            let params: u64 = stages.iter().map(SegmentChain::total_params).sum();
            assert_eq!(params, chain.total_params(), "{}", model.name);
        }
    }
}

/// The stage-partitioned planner on MoE chains, two wafers: never worse
/// than the uniform-multiplier baseline (which serializes the ends and
/// prices every stage border at inter-wafer cost), and the weighted cuts
/// keep every wafer non-empty while the chain partitions exactly.
#[test]
fn stage_plans_dominate_uniform_on_moe_chains_at_two_wafers() {
    use temp_repro::core::baselines::BaselineSystem;
    use temp_repro::core::framework::Temp;
    use temp_repro::wsc::multiwafer::MultiWaferSystem;

    for model in ModelZoo::moe_zoo() {
        let name = model.name.clone();
        let temp = Temp::hpca(model);
        let system = BaselineSystem::temp();
        let wafers = MultiWaferSystem::new(temp.wafer().clone(), 2).unwrap();
        let staged = temp.evaluate_multiwafer(&system, &wafers, 1);
        let uniform = temp.evaluate_multiwafer_uniform(&system, &wafers, 1);
        assert!(!staged.oom, "{name}");
        assert!(!uniform.oom, "{name}");
        assert!(
            staged.step_time() <= uniform.step_time() * (1.0 + 1e-9),
            "{name}: staged {} above uniform {}",
            staged.step_time(),
            uniform.step_time()
        );
        let plan = staged.plan.as_ref().unwrap();
        assert_eq!(plan.stage_count(), 2, "{name}");
        // The stage slices reassemble the whole mixed chain.
        let total: u64 = plan.stages.iter().map(|st| st.chain.expanded_len()).sum();
        assert_eq!(total, model_chain_len(&temp), "{name}");
        // Both wafers carry interior instances and the MoE run appears in
        // the slices.
        for st in &plan.stages {
            assert!(st.chain.expanded_len() > 0, "{name}");
        }
        let moe_in_stages: u64 = plan
            .stages
            .iter()
            .filter_map(|st| st.chain.find(SegmentKind::MoeBlock).map(|s| s.count))
            .sum();
        assert_eq!(
            moe_in_stages,
            temp.model().moe_layer_count(),
            "{name}: MoE instances must partition across stages"
        );
    }

    fn model_chain_len(temp: &temp_repro::core::framework::Temp) -> u64 {
        temp.model().layers + 2
    }
}

/// Per seed, the re-solved plan's cost never improves as the link-fault
/// rate rises: dead-link sets nest per seed, every candidate's degraded
/// cost is monotone in the fault set, and the solver minimizes over a
/// space that faults can only shrink. Infeasible (disconnected) points
/// dominate everything before them.
#[test]
fn resolved_throughput_is_monotone_in_link_fault_rate_per_seed() {
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let wafer = WaferConfig::hpca();
    let solver = Dlws::new(wafer.clone(), model, workload);
    let mesh = wafer.mesh();
    for seed in [7u64, 23, 1009] {
        let mut prev = (0.0f64, 0.0f64);
        for rate in [0.0, 0.1, 0.2, 0.3, 0.5] {
            let faults = FaultMap::inject_link_faults(&mesh, rate, seed);
            let cost = match solver.resolve_degraded(&faults) {
                Ok(plan) => {
                    assert!(plan.report.fits_memory, "seed {seed} rate {rate}");
                    plan.chain_cost
                }
                Err(_) => f64::INFINITY,
            };
            let (prev_rate, prev_cost) = prev;
            assert!(
                cost >= prev_cost * (1.0 - 1e-6),
                "seed {seed}: cost fell from {prev_cost} at rate {prev_rate} \
                 to {cost} at rate {rate}"
            );
            prev = (rate, cost);
        }
    }
}

/// Rerouted degraded-fabric traffic never touches a dead link: every
/// surviving neighbor flow is routed over live links only, and the only
/// way to get no flows at all is a disconnected mesh.
#[test]
fn rerouted_flows_never_cross_dead_links() {
    use temp_repro::sim::network::rerouted_neighbor_flows;
    let mut rng = StdRng::seed_from_u64(0xFA017);
    for _ in 0..48 {
        let w = rng.gen_range(2u32..8);
        let h = rng.gen_range(2u32..6);
        let mesh = Mesh::new(w, h).unwrap();
        let rate = rng.gen_range(0.0..0.6);
        let seed = rng.gen_range(0u64..1 << 32);
        let faults = FaultMap::inject_link_faults(&mesh, rate, seed);
        match rerouted_neighbor_flows(&mesh, &faults, (1u64 << 20) as f64) {
            Some(flows) => {
                assert!(!flows.is_empty());
                for f in &flows {
                    assert!(
                        !f.crosses_dead_link(&faults),
                        "{w}x{h} rate {rate:.2} seed {seed}: flow {:?}->{:?} \
                         rides a dead link",
                        f.src,
                        f.dst
                    );
                }
            }
            None => assert!(
                !faults.is_connected(&mesh),
                "{w}x{h} rate {rate:.2} seed {seed}: flows only vanish when \
                 the mesh disconnects"
            ),
        }
    }
}

/// The bound-pruned chain search returns the exhaustive winner
/// bit-for-bit on every fig13 zoo model, dense and MoE. The pruned solve
/// runs first (cold); pruning is then disabled on the **same** context,
/// so the exhaustive pass re-costs exactly the pruned holes with the
/// exact model — a wrongly pruned optimum would win the second solve and
/// the plans would differ. Sharing the context keeps the comparison
/// bit-exact: the winning report is literally the same cached evaluation.
#[test]
fn bound_pruned_search_is_bit_identical_to_exhaustive_zoo_wide() {
    let mut pruned_total = 0u64;
    for model in ModelZoo::table2().into_iter().chain(ModelZoo::moe_zoo()) {
        let name = model.name.clone();
        let is_moe = model.moe.is_some();
        let workload = Workload::for_model(&model);
        let solver = Dlws::new(WaferConfig::hpca(), model, workload);
        let pruned = solver.solve().expect("pruned solve");
        pruned_total += solver.context().stats().pruned_candidates();
        solver.context().set_pruning(false);
        let exhaustive = solver.solve().expect("exhaustive solve");
        assert_eq!(
            solver.context().stats().plan_hits,
            0,
            "{name}: the exhaustive solve was served the pruned plan"
        );
        assert_eq!(pruned, exhaustive, "{name}");
        if is_moe {
            // The plan exercises the expert-parallel axis: the MoE run
            // picks `ep > 1` and a strategy the dense blocks do not.
            let run = |kind: SegmentKind| {
                pruned
                    .segments
                    .iter()
                    .find(|s| s.kind == kind)
                    .unwrap_or_else(|| panic!("{name}: no {kind} run in the solved chain"))
            };
            let (moe, dense) = (run(SegmentKind::MoeBlock), run(SegmentKind::Block));
            assert!(moe.config.ep > 1, "{name}: MoE run stayed at ep = 1");
            assert_ne!(moe.config, dense.config, "{name}");
        }
    }
    assert!(
        pruned_total > 0,
        "the property is vacuous if nothing was ever pruned"
    );
}

/// The MoE half of the pruned == exhaustive property on larger wafers
/// and every engine: each MoE chain solve prices its block candidates
/// by their best chain (expert-parallel MoE run included), so every
/// cold solve dominates some candidates, and filling the pruned holes
/// with exact costs on the same context changes no plan.
#[test]
fn bound_pruned_moe_solves_dominate_and_match_exhaustive_on_every_engine() {
    for model in ModelZoo::moe_zoo() {
        for (w, h) in [(8, 8), (16, 8)] {
            for engine in [
                MappingEngine::Tcme,
                MappingEngine::SMap,
                MappingEngine::GMap,
            ] {
                let name = format!("{} {w}x{h} {engine:?}", model.name);
                let workload = Workload::for_model(&model);
                let wafer = WaferConfig::with_array(w, h).expect("wafer");
                let solver = Dlws::new(wafer, model.clone(), workload);
                let pruned = solver.solve_with_engine(engine, |_| true);
                let stats = solver.context().stats();
                assert!(
                    stats.dominated_pruned > 0,
                    "{name}: the MoE solve dominated nothing"
                );
                solver.context().set_pruning(false);
                let exhaustive = solver.solve_with_engine(engine, |_| true);
                assert_eq!(
                    solver.context().stats().plan_hits,
                    0,
                    "{name}: the exhaustive solve was served the pruned plan"
                );
                match (pruned, exhaustive) {
                    (Ok(pruned), Ok(exhaustive)) => assert_eq!(pruned, exhaustive, "{name}"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("{name}: feasibility diverged"),
                }
            }
        }
    }
}

/// A plan served from the memo is the plan a fresh solve returns, on
/// every zoo model (dense and MoE) under every mapping engine. The fresh
/// solve runs on the same context, so the comparison is bit-exact: a
/// pruning toggle clears the memo and leaves the settings as they were,
/// and the re-solve then prunes against a warmer cache than the cold one.
#[test]
fn memo_served_plans_equal_fresh_solves_zoo_wide() {
    for model in ModelZoo::table2().into_iter().chain(ModelZoo::moe_zoo()) {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let solver = Dlws::new(WaferConfig::hpca(), model, workload);
        let ctx = solver.context();
        for engine in [
            MappingEngine::Tcme,
            MappingEngine::SMap,
            MappingEngine::GMap,
        ] {
            let cold = solver.solve_with_engine(engine, |_| true);
            let hits = ctx.stats().plan_hits;
            let memo = solver.solve_with_engine(engine, |_| true);
            let served = ctx.stats().plan_hits - hits;
            ctx.set_pruning(false);
            ctx.set_pruning(true);
            let fresh = solver.solve_with_engine(engine, |_| true);
            assert_eq!(
                ctx.stats().plan_hits - hits,
                served,
                "{name} {engine:?}: the fresh solve came from the memo"
            );
            match (cold, memo, fresh) {
                (Ok(cold), Ok(memo), Ok(fresh)) => {
                    assert_eq!(served, 1, "{name} {engine:?}: repeat missed the memo");
                    assert_eq!(memo, cold, "{name} {engine:?}");
                    assert_eq!(memo, fresh, "{name} {engine:?}");
                }
                // Infeasible solves store nothing and fail alike.
                (Err(_), Err(_), Err(_)) => assert_eq!(served, 0, "{name} {engine:?}"),
                _ => panic!("{name} {engine:?}: feasibility diverged"),
            }
        }
    }
}

/// The mapping memo shares one draft per `(policy, layout)` across the
/// three engines, so a candidate's mapping must not depend on which engine
/// drafted its layouts first. Over the zoo on three wafers, candidates
/// are costed through a shared model once TCME-first and once
/// SMap/GMap-first: every report must equal a fresh model's bit for bit,
/// and the memo's contention factor must equal a standalone
/// `map_hybrid`'s. The candidates include a TCME pick the traffic
/// optimizer leaves alone (the draft's times are reused) and one it
/// reroutes (re-simulated).
#[test]
fn shared_drafts_cost_alike_in_every_engine_order() {
    use MappingEngine::{GMap, SMap, Tcme};
    let mut tcme_rerouted = [false, false];
    for model in ModelZoo::table2().into_iter().chain(ModelZoo::moe_zoo()) {
        let workload = Workload::for_model(&model);
        for (w, h) in [(8u32, 4u32), (8, 8), (16, 8)] {
            let wafer = WaferConfig::with_array(w, h).unwrap();
            let dies = (w * h) as usize;
            let cfgs = [
                HybridConfig::tuple(dies, 1, 1, 1),
                HybridConfig::tuple(dies / 2, 2, 1, 1),
                HybridConfig::tuple(2, 1, 4, dies / 8),
                HybridConfig::tuple(dies / 8, 2, 2, 2),
            ];
            let fresh_model =
                || WaferCostModel::new(wafer.clone(), model.clone(), workload.clone());
            let mut expected = std::collections::HashMap::new();
            for engine in [Tcme, SMap, GMap] {
                for cfg in &cfgs {
                    let report = fresh_model().evaluate(cfg, engine);
                    let factor = map_hybrid(engine, &wafer, &model, &workload, cfg).map(|m| {
                        if engine == Tcme {
                            let xy = layer_flows(&wafer.mesh(), &m.comm_ops);
                            tcme_rerouted[usize::from(m.flows != xy)] = true;
                        }
                        m.contention_factor().to_bits()
                    });
                    expected.insert((engine, *cfg), (format!("{report:?}"), factor));
                }
            }
            for order in [[Tcme, SMap, GMap], [SMap, GMap, Tcme]] {
                let shared = fresh_model();
                for engine in order {
                    for cfg in &cfgs {
                        let label = format!("{} {engine} {} on {w}x{h}", model.name, cfg.label());
                        let report = shared.evaluate(cfg, engine);
                        let (fresh, factor) = &expected[&(engine, *cfg)];
                        assert_eq!(&format!("{report:?}"), fresh, "{label} after {order:?}");
                        if let (Ok(report), Ok(factor)) = (&report, factor) {
                            assert_eq!(report.contention_factor.to_bits(), *factor, "{label}");
                        }
                    }
                }
                // Each layout was drafted once per policy, whatever the order.
                let (_, built) = shared.draft_memo_stats();
                assert!(built <= 2 * cfgs.len() as u64, "{} on {w}x{h}", model.name);
            }
        }
    }
    assert_eq!(tcme_rerouted, [true, true], "both TCME branches ran");
}

/// Pruned and exhaustive staged plans agree over eval-sweep's axes: 2, 4
/// and 8 wafers x 1 and 2 stages per wafer on the 8x4 array, for a
/// dense model, a memory-bound one and two MoE chains, under TEMP's and
/// an FSDP baseline's candidate filters. The stage solve bound-prunes
/// its candidates, so filling every pruned hole with exact costs must
/// change neither a plan nor an OOM verdict.
#[test]
fn bound_pruned_staged_plans_match_exhaustive_across_the_sweep() {
    use temp_repro::core::baselines::{BaselineSystem, Partitioner};
    use temp_repro::core::framework::Temp;

    let fsdp = BaselineSystem::six_baselines()
        .into_iter()
        .find(|s| s.partitioner == Partitioner::Fsdp)
        .expect("an FSDP baseline");
    let mut dominated = 0;
    for model in [
        ModelZoo::gpt3_6_7b(),
        ModelZoo::gpt3_175b(),
        ModelZoo::mixtral_8x7b(),
        ModelZoo::deepseek_moe_16b(),
    ] {
        for system in [BaselineSystem::temp(), fsdp] {
            let name = format!("{} {}", model.name, system.label());
            let temp = Temp::hpca(model.clone());
            let pruned = temp.evaluate_multiwafer_sweep(&system, &[2, 4, 8], &[1, 2]);
            let after_pruned = temp.search_stats();
            dominated += after_pruned.dominated_pruned;
            temp.solver().context().set_pruning(false);
            let exhaustive = temp.evaluate_multiwafer_sweep(&system, &[2, 4, 8], &[1, 2]);
            assert_eq!(
                temp.search_stats().plan_hits,
                after_pruned.plan_hits,
                "{name}: an exhaustive plan came from the memo"
            );
            assert_eq!(pruned.len(), 6, "{name}");
            for (p, e) in pruned.iter().zip(&exhaustive) {
                let point = format!("{name} {}x{}", p.wafer_count, p.pp_multiplier);
                assert_eq!(p.report.oom, e.report.oom, "{point}: OOM verdicts diverged");
                assert_eq!(p.report.plan, e.report.plan, "{point}");
            }
        }
    }
    assert!(
        dominated > 0,
        "the property is vacuous if no stage candidate was ever pruned"
    );
}

/// On seeded degraded fabrics the pruned re-solve and the exhaustive
/// re-solve pick the same plan, and infeasibility verdicts agree — the
/// bounds stay admissible under fault-derated bandwidth, shrunken HBM,
/// and rerouted links.
#[test]
fn bound_pruned_degraded_resolves_match_exhaustive_per_seed() {
    use temp_repro::solver::faultcamp::FaultKind;

    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let wafer = WaferConfig::hpca();
    let solver = Dlws::new(wafer.clone(), model, workload);
    let mesh = wafer.mesh();
    for kind in [FaultKind::Link, FaultKind::Core] {
        for (rate, s) in [(0.1, 3), (0.25, 7), (0.4, 11)] {
            let faults = kind.inject(&mesh, rate, kind.seed_base() + s);
            let degraded = solver.degraded(&faults);
            let pruned = degraded.solve();
            degraded.context().set_pruning(false);
            let exhaustive = degraded.solve();
            assert_eq!(
                degraded.search_stats().plan_hits,
                0,
                "{kind:?} rate {rate} seed {s}: the exhaustive plan came from the memo"
            );
            match (pruned, exhaustive) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{kind:?} rate {rate} seed {s}")
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "{kind:?} rate {rate} seed {s}: feasibility diverged \
                     (pruned ok={}, exhaustive ok={})",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// Every chain bound is admissible on a sampled candidate grid: the
/// lower bound never exceeds the exact block row, and `feasible = false`
/// is only claimed when the exact path indeed returns infinity.
#[test]
fn chain_bounds_are_admissible_on_a_sampled_grid() {
    for model in [ModelZoo::gpt3_6_7b(), ModelZoo::deepseek_moe_16b()] {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let solver = Dlws::new(WaferConfig::hpca(), model, workload);
        let ctx = solver.context();
        let mut rng = StdRng::seed_from_u64(0xB0D5);
        let sampled: Vec<HybridConfig> = ctx
            .candidates()
            .iter()
            .filter(|_| rng.gen_bool(0.6))
            .copied()
            .collect();
        assert!(sampled.len() > 20, "{name}: sample too small to mean much");
        let bounds = ctx.cost_model().chain_bounds(&sampled);
        let costs = ctx.cost_candidates(&sampled, MappingEngine::Tcme);
        for ((cfg, b), (t, report)) in sampled.iter().zip(&bounds).zip(&costs) {
            if !b.feasible {
                assert!(
                    !t.is_finite(),
                    "{name} {cfg:?}: bound claims infeasible, exact found {t}"
                );
                continue;
            }
            if let Some((_, r)) = report {
                assert!(
                    b.lb_block <= r.block_time() * (1.0 + 1e-9),
                    "{name} {cfg:?}: bound {} above exact block row {}",
                    b.lb_block,
                    r.block_time()
                );
            }
        }
    }
}

/// A fault map with no faults is not a different planning problem: the
/// degraded re-solve entry point must reproduce the healthy plan
/// bit-for-bit, answered from the same warm context.
#[test]
fn healthy_fault_map_reproduces_the_healthy_plan_bit_for_bit() {
    for model in [ModelZoo::gpt3_6_7b(), ModelZoo::llama2_7b()] {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let wafer = WaferConfig::hpca();
        let solver = Dlws::new(wafer.clone(), model, workload);
        let healthy = FaultMap::healthy(&wafer.mesh());
        let baseline = solver.solve().expect("healthy plan");
        let resolved = solver.resolve_degraded(&healthy).expect("healthy re-solve");
        assert_eq!(resolved, baseline, "{name}");
    }
}

/// The batched SoA costing engine is bit-identical to per-candidate
/// sequential evaluation across the dense and MoE zoos, in both the
/// workload's native recompute mode and the Full escalation mode: both
/// paths run the same hoisted core, so every `Ok` report must compare
/// equal field-for-field and every `Err` must carry the same message.
#[test]
fn evaluate_batch_matches_sequential_evaluation_zoo_wide() {
    use temp_repro::graph::workload::RecomputeMode;

    for model in ModelZoo::table2().into_iter().chain(ModelZoo::moe_zoo()) {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let solver = Dlws::new(WaferConfig::hpca(), model, workload);
        let ctx = solver.context();
        let cost = ctx.cost_model();
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        let sampled: Vec<HybridConfig> = ctx
            .candidates()
            .iter()
            .filter(|_| rng.gen_bool(0.4))
            .copied()
            .collect();
        assert!(sampled.len() > 10, "{name}: sample too small to mean much");
        for mode in [cost.workload().recompute, RecomputeMode::Full] {
            let w = cost.workload().clone().with_recompute(mode);
            let batched = cost.evaluate_batch(&sampled, MappingEngine::Tcme, &w);
            for (cfg, got) in sampled.iter().zip(batched) {
                let want = cost.evaluate_with(cfg, MappingEngine::Tcme, &w);
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{name} {cfg:?} {mode:?}"),
                    (Err(a), Err(b)) => assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "{name} {cfg:?} {mode:?}"
                    ),
                    (a, b) => panic!(
                        "{name} {cfg:?} {mode:?}: outcomes diverged \
                         (batched ok={}, sequential ok={})",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

/// The per-candidate pool path — `SearchContext::cost_candidates`, which
/// costs each distinct miss as its own stolen task over one shared hoist
/// and the shared draft memo — gives every candidate the report that
/// sequential `evaluate_with` gives it, bit for bit (escalation to full
/// recompute included): zoo models x {8x4, 16x8} x all engines.
#[test]
fn pool_costing_matches_sequential_evaluation_bitwise_zoo_wide() {
    use temp_repro::graph::workload::RecomputeMode;
    use temp_repro::solver::search::SearchContext;

    for (w, h) in [(8u32, 4u32), (16, 8)] {
        let wafer = WaferConfig::with_array(w, h).expect("valid array");
        for model in ModelZoo::table2() {
            let name = format!("{} on {w}x{h}", model.name);
            let workload = Workload::for_model(&model);
            let ctx = SearchContext::new(WaferCostModel::new(wafer.clone(), model, workload));
            let dense: Vec<HybridConfig> = ctx
                .candidates()
                .iter()
                .copied()
                .filter(|c| c.ep == 1)
                .collect();
            let mut rng = StdRng::seed_from_u64(0x9001);
            let keep = 10.0 / dense.len() as f64;
            let sampled: Vec<HybridConfig> = dense
                .into_iter()
                .filter(|_| rng.gen_bool(keep.min(1.0)))
                .collect();
            assert!(sampled.len() > 2, "{name}: sample too small to mean much");
            let cost = ctx.cost_model();
            let base = cost.workload().recompute;
            for engine in [
                MappingEngine::Tcme,
                MappingEngine::SMap,
                MappingEngine::GMap,
            ] {
                let pooled = ctx.cost_candidates(&sampled, engine);
                for (cfg, (t, got)) in sampled.iter().zip(&pooled) {
                    let want = [base, RecomputeMode::Full].into_iter().find_map(|mode| {
                        let w = cost.workload().clone().with_recompute(mode);
                        let report = cost.evaluate_with(cfg, engine, &w).ok()?;
                        report.fits_memory.then_some((mode, report))
                    });
                    match (got, want) {
                        (Some((w, a)), Some((mode, b))) => {
                            assert_eq!(w.recompute, mode, "{name} {engine} {cfg:?}");
                            assert_eq!(t.to_bits(), b.step_time.to_bits(), "{name} {engine}");
                            // `{:?}` renders every float bit-exactly.
                            assert_eq!(
                                format!("{a:?}"),
                                format!("{b:?}"),
                                "{name} {engine} {cfg:?}"
                            );
                        }
                        (None, None) => assert!(t.is_infinite(), "{name} {engine} {cfg:?}"),
                        (a, b) => panic!(
                            "{name} {engine} {cfg:?}: outcomes diverged \
                             (pool feasible={}, sequential feasible={})",
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
            }
        }
    }
}

/// The batch path is also bit-identical on staged (pp=2) candidate
/// grids — the shapes the two-wafer staged planner costs — for a dense
/// and an MoE model.
#[test]
fn evaluate_batch_matches_sequential_evaluation_staged() {
    for model in [ModelZoo::gpt3_6_7b(), ModelZoo::deepseek_moe_16b()] {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let solver = Dlws::new(WaferConfig::hpca(), model, workload);
        let ctx = solver.context();
        let cost = ctx.cost_model();
        let staged = ctx.candidates_with_pp(2);
        assert!(!staged.is_empty(), "{name}: no pp=2 candidates");
        let w = cost.workload().clone();
        let batched = cost.evaluate_batch(&staged, MappingEngine::Tcme, &w);
        for (cfg, got) in staged.iter().zip(batched) {
            let want = cost.evaluate_with(cfg, MappingEngine::Tcme, &w);
            match (got, want) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{name} {cfg:?}"),
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name} {cfg:?}")
                }
                (a, b) => panic!(
                    "{name} {cfg:?}: outcomes diverged \
                     (batched ok={}, sequential ok={})",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// On seeded Link and Core fault maps the derated cost model's batch
/// path still matches sequential evaluation bit-for-bit — the mapping
/// memo and hoisted scalars are per-model state, so fault derating must
/// flow through both paths identically.
#[test]
fn evaluate_batch_matches_sequential_evaluation_degraded() {
    use temp_repro::solver::faultcamp::FaultKind;

    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let wafer = WaferConfig::hpca();
    let solver = Dlws::new(wafer.clone(), model, workload);
    let mesh = wafer.mesh();
    for kind in [FaultKind::Link, FaultKind::Core] {
        for (rate, s) in [(0.1, 3), (0.25, 7), (0.4, 11)] {
            let faults = kind.inject(&mesh, rate, kind.seed_base() + s);
            let degraded = solver.degraded(&faults);
            let ctx = degraded.context();
            let cost = ctx.cost_model();
            let mut rng = StdRng::seed_from_u64(0xDE6 + s);
            let sampled: Vec<HybridConfig> = ctx
                .candidates()
                .iter()
                .filter(|_| rng.gen_bool(0.3))
                .copied()
                .collect();
            let w = cost.workload().clone();
            let batched = cost.evaluate_batch(&sampled, MappingEngine::Tcme, &w);
            for (cfg, got) in sampled.iter().zip(batched) {
                let want = cost.evaluate_with(cfg, MappingEngine::Tcme, &w);
                match (got, want) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "{kind:?} rate {rate} seed {s} {cfg:?}")
                    }
                    (Err(a), Err(b)) => assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "{kind:?} rate {rate} seed {s} {cfg:?}"
                    ),
                    (a, b) => panic!(
                        "{kind:?} rate {rate} seed {s} {cfg:?}: outcomes \
                         diverged (batched ok={}, sequential ok={})",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

/// Fig. 5(b)-style contended flow sets: neighbor chains forced through
/// shared links, row/column crossings, plus seeded random traffic. The
/// dense water-filling must agree with the HashMap reference bit for bit
/// on every completion time (both break exact bottleneck ties by
/// first-touch link order).
#[test]
fn dense_contention_sim_matches_reference_on_fig05_flow_sets() {
    let cfg = WaferConfig::hpca();
    let mesh = cfg.mesh();
    let sim = ContentionSim::new(&cfg);
    let dies = mesh.die_count() as u32;

    let mut flow_sets: Vec<Vec<Flow>> = Vec::new();
    // Fig. 5(a)/(b): same-row transfers sharing middle links.
    flow_sets.push(
        (0..6)
            .map(|i| Flow::xy(&mesh, DieId(i), DieId(i + 2), 128.0 * MB))
            .collect(),
    );
    // Row/column crossings plus long diagonals.
    flow_sets.push(vec![
        Flow::xy(&mesh, DieId(0), DieId(7), 64.0 * MB),
        Flow::xy(&mesh, DieId(8), DieId(15), 64.0 * MB),
        Flow::xy(&mesh, DieId(0), DieId(24), 64.0 * MB),
        Flow::xy(&mesh, DieId(7), DieId(31), 64.0 * MB),
        Flow::xy(&mesh, DieId(0), DieId(31), 96.0 * MB),
        Flow::xy(&mesh, DieId(31), DieId(0), 96.0 * MB),
    ]);
    // Seeded random traffic, including local (zero-route) flows.
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..8 {
        let n = rng.gen_range(4..24);
        flow_sets.push(
            (0..n)
                .map(|_| {
                    let src = DieId(rng.gen_range(0..dies));
                    let dst = DieId(rng.gen_range(0..dies));
                    let bytes = rng.gen_range(1.0..256.0) * MB;
                    Flow::xy(&mesh, src, dst, bytes)
                })
                .collect(),
        );
    }

    for (case, flows) in flow_sets.iter().enumerate() {
        let dense = sim.simulate(flows);
        let reference = sim.simulate_reference(flows);
        assert_eq!(
            dense.makespan.to_bits(),
            reference.makespan.to_bits(),
            "case {case}: makespan {} vs {}",
            dense.makespan,
            reference.makespan
        );
        for (i, (d, r)) in dense
            .completion
            .iter()
            .zip(&reference.completion)
            .enumerate()
        {
            assert_eq!(
                d.to_bits(),
                r.to_bits(),
                "case {case}, flow {i}: {d} vs {r}"
            );
        }
        assert_eq!(dense.link_bytes, reference.link_bytes, "case {case}");
        assert_eq!(
            dense.max_loaded_link, reference.max_loaded_link,
            "case {case}"
        );
    }
}
