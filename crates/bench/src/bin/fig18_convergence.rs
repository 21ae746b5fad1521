//! Fig. 18: does the optimal TATP degree converge to 8-16 across GPT-3
//! scales and sequence lengths?
//!
//! The grid runs through one [`ContextPool`]: every `(model, workload)`
//! cell gets a pooled search context, so the wafer-level candidate
//! enumeration is computed once for the whole figure and each cell's
//! batch costing fills a reusable evaluation cache.

use temp_bench::header;
use temp_graph::models::ModelZoo;
use temp_graph::workload::Workload;
use temp_mapping::engines::MappingEngine;
use temp_parallel::strategy::HybridConfig;
use temp_solver::pool::ContextPool;
use temp_wsc::config::WaferConfig;

fn main() {
    header("Fig. 18: best configurations per model x sequence length");
    println!(
        "{:<16} {:>6} {:>14} {:>12} {:>18}",
        "model", "seq", "best (D,T,S,TA)", "TATP degree", "gain vs no-TATP"
    );
    let pool = ContextPool::new(WaferConfig::hpca());
    for model in [
        ModelZoo::gpt3_6_7b(),
        ModelZoo::gpt3_76b(),
        ModelZoo::gpt3_175b(),
    ] {
        for (seq, batch) in [(2048u64, 128u64), (16_384, 32)] {
            let workload = Workload::training(batch, seq);
            let ctx = pool.context(&model, &workload);
            let candidates = ctx.candidates().to_vec();
            // One batched pass: recompute escalation and memory verdicts
            // are handled inside the shared costing pipeline.
            let costed = ctx.cost_candidates(&candidates, MappingEngine::Tcme);
            let mut best: Option<(HybridConfig, f64)> = None;
            let mut best_no_tatp: f64 = 0.0;
            for (cfg, (t, payload)) in candidates.iter().zip(&costed) {
                if !t.is_finite() {
                    continue;
                }
                let Some((_, report)) = payload else { continue };
                let tput = report.throughput;
                if cfg.tatp == 1 {
                    best_no_tatp = best_no_tatp.max(tput);
                }
                if best.as_ref().map(|(_, t)| tput > *t).unwrap_or(true) {
                    best = Some((*cfg, tput));
                }
            }
            match best {
                Some((cfg, tput)) => {
                    let gain = if best_no_tatp > 0.0 {
                        format!("{:.2}x", tput / best_no_tatp)
                    } else {
                        "only TATP fits".to_string()
                    };
                    println!(
                        "{:<16} {:>6} {:>14} {:>12} {:>18}",
                        model.name,
                        seq,
                        cfg.label(),
                        cfg.tatp,
                        gain
                    );
                }
                None => println!("{:<16} {:>6} (nothing fits)", model.name, seq),
            }
        }
    }
    println!(
        "({} pooled contexts share one wafer-level enumeration)",
        pool.len()
    );
    println!("(paper: optimal TATP degree is consistently 8 or 16; gains 2.06-2.29x)");
}
