//! Per-layer replay: times the public functions of the layers below the
//! solver on a workload's own `(wafer, model, engine, candidate)` inputs.
//!
//! The real solve runs these layers inside the program, where the
//! benchmark cannot put spans; the replay calls the same functions from
//! outside, once per solved query, after the real solves have finished
//! (so it never disturbs their timing or counters). The candidates are
//! the query's winner plus the lowest-bound feasible candidates — the
//! seed chunk the pruned search costs exactly first.
//!
//! Each section runs on a fresh thread: the contention-solve cache,
//! collective probe cache and simulator arenas are thread-local, so a
//! fresh thread sees them cold, as a fresh solve does.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use temp_core::baselines::Partitioner;
use temp_graph::segment::SegmentKind;
use temp_mapping::comm::{extract_comm_ops, layer_flows, CommPattern};
use temp_mapping::engines::{map_hybrid, MappingEngine};
use temp_mapping::optimizer::TrafficOptimizer;
use temp_parallel::groups::{LayoutPolicy, WaferLayout};
use temp_parallel::strategy::HybridConfig;
use temp_sim::collectives::Collective;
use temp_sim::network::{ContentionSim, Flow};
use temp_solver::cost::{CandidateBound, WaferCostModel};
use temp_solver::dp::solve_chain;
use temp_solver::search::SearchContext;

use crate::trace::Tracer;

/// Candidates replayed per query.
pub const CANDIDATES: usize = 6;

/// Chain-DP calls timed per query (one call takes microseconds).
const DP_REPEATS: usize = 5;

/// One solved query to replay.
pub struct ReplayInput {
    pub query: u64,
    /// The (warm) context the query solved on.
    pub ctx: Arc<SearchContext>,
    pub engine: MappingEngine,
    pub winner: HybridConfig,
    /// The compared system's admission filter (none: the full space).
    pub partitioner: Option<Partitioner>,
}

impl ReplayInput {
    fn admits(&self, cfg: &HybridConfig) -> bool {
        self.partitioner.is_none_or(|p| p.admits_intra(cfg))
    }
}

pub fn run(tracer: &Tracer, inputs: &[ReplayInput], candidates: usize) {
    for input in inputs {
        tracer.span("replay.query", 0, Some(input.query), 1, |root| {
            replay_one(tracer, root, input, candidates)
        });
    }
}

fn engine_span(engine: MappingEngine) -> &'static str {
    match engine {
        MappingEngine::Tcme => "mapping.map_hybrid.tcme",
        MappingEngine::SMap => "mapping.map_hybrid.smap",
        MappingEngine::GMap => "mapping.map_hybrid.gmap",
    }
}

/// The winner plus the lowest-bound feasible candidates, `count` in all.
fn pick(
    dense: &[HybridConfig],
    bounds: &[CandidateBound],
    winner: HybridConfig,
    count: usize,
) -> Vec<HybridConfig> {
    let mut feasible: Vec<usize> = (0..dense.len()).filter(|&i| bounds[i].feasible).collect();
    feasible.sort_by(|&a, &b| bounds[a].lb_block.total_cmp(&bounds[b].lb_block));
    let mut set: Vec<HybridConfig> = feasible.iter().take(count).map(|&i| dense[i]).collect();
    if !set.contains(&winner) {
        if set.len() == count {
            set.pop();
        }
        set.push(winner);
    }
    set
}

/// The layout configuration the cost model maps: expert-parallel groups
/// folded into data parallelism.
fn layout_cfg(cfg: &HybridConfig) -> HybridConfig {
    HybridConfig {
        dp: cfg.dp * cfg.ep.max(1),
        ep: 1,
        ..*cfg
    }
}

fn replay_one(tracer: &Tracer, root: u64, input: &ReplayInput, count: usize) {
    let qid = Some(input.query);
    let model_ref = input.ctx.cost_model();
    let (wafer, model, workload) = (
        model_ref.wafer().clone(),
        model_ref.model().clone(),
        model_ref.workload().clone(),
    );
    let engine = input.engine;
    let all: Vec<HybridConfig> = input
        .ctx
        .candidates()
        .iter()
        .copied()
        .filter(|c| input.admits(c))
        .collect();
    let dense: Vec<HybridConfig> = all.iter().copied().filter(|c| c.ep == 1).collect();
    if dense.is_empty() {
        return;
    }

    // Cost layer: a fresh model, so every memo starts cold.
    let (set, bounds) = std::thread::scope(|s| {
        s.spawn(|| {
            let cm = WaferCostModel::new(wafer.clone(), model.clone(), workload.clone());
            let bounds = tracer.span("cost.chain_bounds", root, qid, dense.len() as u64, |_| {
                black_box(cm.chain_bounds(&dense))
            });
            let set = pick(&dense, &bounds, input.winner, count);
            let n = set.len() as u64;
            tracer.span("cost.evaluate_batch.cold", root, qid, n, |_| {
                black_box(cm.evaluate_batch(&set, engine, &workload))
            });
            tracer.span("cost.evaluate_batch.warm", root, qid, n, |_| {
                black_box(cm.evaluate_batch(&set, engine, &workload))
            });
            let ends: Vec<_> = cm
                .chain()
                .segments()
                .iter()
                .filter(|s| s.kind != SegmentKind::Block)
                .collect();
            tracer.span(
                "cost.evaluate_segment",
                root,
                qid,
                (ends.len() * set.len()) as u64,
                |_| {
                    for seg in &ends {
                        for cfg in &set {
                            let _ = black_box(cm.evaluate_segment(seg, cfg, engine));
                        }
                    }
                },
            );
            (set, bounds)
        })
        .join()
        .expect("cost replay thread")
    });

    // Mapping engine end to end, with a cold contention-solve cache.
    std::thread::scope(|s| {
        s.spawn(|| {
            for cfg in &set {
                let cfg = layout_cfg(cfg);
                tracer.span(engine_span(engine), root, qid, 1, |_| {
                    black_box(map_hybrid(engine, &wafer, &model, &workload, &cfg)).ok()
                });
            }
        })
        .join()
        .expect("mapping replay thread")
    });

    // The mapping engine's steps and both simulators, one layout each.
    std::thread::scope(|s| {
        s.spawn(|| {
            let mesh = wafer.mesh();
            let sim = ContentionSim::new(&wafer);
            let policy = match engine {
                MappingEngine::SMap => LayoutPolicy::RowMajorStrips,
                _ => LayoutPolicy::TopologyAware,
            };
            for cfg in &set {
                let cfg = layout_cfg(cfg);
                let Ok(layout) = tracer.span("mapping.layout_build", root, qid, 1, |_| {
                    WaferLayout::build(&mesh, &cfg, policy)
                }) else {
                    continue;
                };
                let ops = tracer.span("mapping.extract_comm_ops", root, qid, 1, |_| {
                    extract_comm_ops(&layout, &model, &workload)
                });
                let t0 = Instant::now();
                let flows = layer_flows(&mesh, &ops);
                tracer.record(
                    "mapping.layer_flows",
                    root,
                    qid,
                    t0,
                    Instant::now(),
                    flows.len() as u64,
                );
                let owned = flows.clone();
                tracer.span("mapping.optimize", root, qid, flows.len() as u64, |_| {
                    black_box(TrafficOptimizer::new(mesh.clone()).optimize(owned))
                });
                let raw: Vec<Flow> = flows.iter().map(|f| f.flow.clone()).collect();
                if !raw.is_empty() {
                    tracer.span("sim.contention", root, qid, raw.len() as u64, |_| {
                        black_box(sim.simulate(&raw))
                    });
                }
                let collectives: Vec<Collective> = ops
                    .iter()
                    .filter(|op| op.pattern != CommPattern::P2pStream && op.group.len() > 1)
                    .map(|op| op.collective())
                    .collect();
                if !collectives.is_empty() {
                    tracer.span(
                        "sim.collective",
                        root,
                        qid,
                        collectives.len() as u64,
                        |_| {
                            for c in &collectives {
                                black_box(c.simulate(&sim, &mesh));
                            }
                        },
                    );
                }
            }
        })
        .join()
        .expect("sim replay thread")
    });

    // Chain DP on rows shaped like the solve's own: the block row over
    // the dense candidates (bounds stand in for the exact block times —
    // the DP's work depends on the row shapes, not their values), the
    // other segments from the context's memoized segment table.
    let ctx = &input.ctx;
    let mode = workload.recompute;
    let chain = ctx.chain();
    let seg_cands: Vec<&[HybridConfig]> = chain
        .segments()
        .iter()
        .map(|seg| match seg.kind {
            SegmentKind::MoeBlock => &all[..],
            _ => &dense[..],
        })
        .collect();
    let rows: Vec<Vec<f64>> = chain
        .segments()
        .iter()
        .zip(&seg_cands)
        .map(|(seg, cands)| match seg.kind {
            SegmentKind::Block => bounds
                .iter()
                .map(|b| {
                    if b.feasible {
                        b.lb_block
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
            kind => ctx.segment_step_costs(kind, cands, engine, mode),
        })
        .collect();
    let micro = workload.micro_batches.max(1) as f64;
    let reshard = |s: usize, a: usize, b: usize| {
        micro * ctx.resharding_cost(&seg_cands[s - 1][a], &seg_cands[s][b])
    };
    for _ in 0..DP_REPEATS {
        tracer.span("dp.solve_chain", root, qid, 1, |_| {
            black_box(solve_chain(&rows, reshard)).ok()
        });
    }
}
