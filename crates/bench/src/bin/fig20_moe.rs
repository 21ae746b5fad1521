//! MoE workloads (fig20_moe): expert-parallel planning on wafer-scale
//! chips — the MoEntwine/WATOS workload family solved through TEMP's
//! segment-chain machinery.
//!
//! For every MoE zoo model this prints the solved mixed dense/MoE chain
//! (the MoE run picks an expert-parallel tuple; the dense blocks do not
//! pay for experts they do not have), the bound-pruned evaluation count,
//! and the two-wafer stage partition whose weighted cuts respect the
//! expert-heavy stretch.
//!
//! `--smoke` runs only the fine-grained DeepSeek-style config — the CI
//! sanity check that MoE planning stays alive.

use temp_bench::header;
use temp_core::baselines::BaselineSystem;
use temp_core::framework::Temp;
use temp_graph::models::ModelZoo;
use temp_graph::segment::SegmentKind;
use temp_graph::workload::Workload;
use temp_solver::cost::WaferCostModel;
use temp_solver::dlws::Dlws;
use temp_solver::search::SearchContext;
use temp_wsc::config::WaferConfig;
use temp_wsc::multiwafer::MultiWaferSystem;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header("MoE workloads: expert segments, expert parallelism, all-to-all");
    let models = if smoke {
        vec![ModelZoo::deepseek_moe_16b()]
    } else {
        ModelZoo::moe_zoo()
    };
    for model in models {
        let name = model.name.clone();
        let moe = model.moe.expect("MoE zoo models carry a MoeConfig");
        println!(
            "\n{name}: {} experts (top-{}, capacity {:.2}), {} dense + {} MoE layers",
            moe.num_experts,
            moe.top_k,
            moe.capacity_factor,
            model.dense_layer_count(),
            model.moe_layer_count()
        );

        // Cold bound-pruned solve.
        let workload = Workload::for_model(&model);
        let ctx = std::sync::Arc::new(SearchContext::new(WaferCostModel::new(
            WaferConfig::hpca(),
            model.clone(),
            workload,
        )));
        let solver = Dlws::from_context(ctx.clone());
        let exact = solver.solve().expect("MoE plan");
        let stats = ctx.stats();
        println!(
            "  chain {:.4} s (uniform {:.4} s) | {} evals, {} pruned",
            exact.chain_cost,
            exact.report.step_time,
            stats.misses,
            stats.pruned_candidates()
        );
        for seg in &exact.segments {
            println!(
                "  {:>9} x{:<3} -> {:<16} {:.4} s",
                seg.kind.to_string(),
                seg.count,
                seg.config.label(),
                seg.step_time
            );
        }
        let moe_seg = exact
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::MoeBlock)
            .expect("mixed chain has a MoE run");
        assert!(
            moe_seg.config.ep > 1,
            "{name}: the MoE run must pick an expert-parallel tuple"
        );

        // Two wafers: the weighted stage cuts against the retained
        // uniform-multiplier costing.
        let temp = Temp::from_solver(solver);
        let wafers = MultiWaferSystem::new(temp.wafer().clone(), 2).unwrap();
        let staged = temp.evaluate_multiwafer(&BaselineSystem::temp(), &wafers, 1);
        let uniform = temp.evaluate_multiwafer_uniform(&BaselineSystem::temp(), &wafers, 1);
        let plan = staged.plan.as_ref().expect("two-wafer MoE plan");
        let cuts: Vec<String> = plan
            .stages
            .iter()
            .map(|st| {
                let kinds: Vec<String> = st
                    .chain
                    .segments()
                    .iter()
                    .map(|s| format!("{}x{}", s.kind, s.count))
                    .collect();
                format!("w{}[{}]", st.wafer, kinds.join("+"))
            })
            .collect();
        println!(
            "  2 wafers: step {:.4} s vs uniform {:.4} s ({:+.2}%) | {}",
            plan.step_time,
            uniform.step_time(),
            100.0 * (1.0 - plan.step_time / uniform.step_time()),
            cuts.join(" -> ")
        );
        assert!(
            plan.step_time <= uniform.step_time() * (1.0 + 1e-9),
            "{name}: stage partition must not regress past the uniform plan"
        );
    }
    println!("\n(expert placement is its own optimization problem on wafer meshes — MoEntwine arXiv:2510.25258)");
}
