//! Cross-crate integration tests: the full paper pipeline from hardware
//! substrate to solved plans, exercised through the public facade.

use temp_repro::core::baselines::BaselineSystem;
use temp_repro::core::framework::Temp;
use temp_repro::graph::models::ModelZoo;
use temp_repro::graph::workload::Workload;
use temp_repro::mapping::engines::{map_hybrid, MappingEngine};
use temp_repro::parallel::strategy::HybridConfig;
use temp_repro::parallel::tatp::TatpOrchestration;
use temp_repro::solver::cost::WaferCostModel;
use temp_repro::wsc::config::WaferConfig;

#[test]
fn full_pipeline_plans_and_reports() {
    let temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    let plan = temp.solve().expect("feasible plan");
    assert!(plan.report.fits_memory);
    assert!(plan.report.step_time > 0.0);
    assert!(plan.report.throughput > 0.0);
    assert!(
        plan.config.tatp >= 4,
        "TATP should carry the plan: {}",
        plan.config.label()
    );
}

#[test]
fn temp_never_trails_the_best_baseline() {
    let temp = Temp::hpca(ModelZoo::llama2_7b());
    let reports = temp.compare_all();
    let best_baseline = reports[..6]
        .iter()
        .map(|r| r.step_time())
        .fold(f64::INFINITY, f64::min);
    let t = reports[6].step_time();
    assert!(
        t <= best_baseline * 1.001,
        "TEMP {t} vs best baseline {best_baseline}"
    );
}

#[test]
fn orchestration_feeds_cost_model_consistently() {
    // The TATP degree the cost model prices must be a valid orchestration.
    let model = ModelZoo::gpt3_6_7b();
    let cost = WaferCostModel::new(
        WaferConfig::hpca(),
        model.clone(),
        Workload::for_model(&model),
    );
    let cfg = HybridConfig::tuple(2, 2, 1, 8);
    let report = cost.evaluate(&cfg, MappingEngine::Tcme).expect("feasible");
    let orch = TatpOrchestration::build(cfg.tatp);
    let stats = orch.validate().expect("Algorithm 1 invariants");
    assert_eq!(stats.max_hop_distance, 1);
    assert!(report.stream_time > 0.0);
}

#[test]
fn mapping_engines_order_is_preserved_end_to_end() {
    // TCME <= GMap <= (roughly) SMap on contention-heavy hybrid configs.
    let wafer = WaferConfig::hpca();
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let cfg = HybridConfig {
        dp: 4,
        fsdp: true,
        tatp: 8,
        ..Default::default()
    };
    let smap = map_hybrid(MappingEngine::SMap, &wafer, &model, &workload, &cfg).unwrap();
    let tcme = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
    assert!(tcme.comm_time_per_layer <= smap.comm_time_per_layer * 1.01);
    assert!(tcme.max_link_load() <= smap.max_link_load() * 1.01);
}

#[test]
fn oom_verdicts_are_consistent_across_layers_of_the_stack() {
    // 175B: Megatron must OOM, TEMP must plan — end to end.
    let temp = Temp::hpca(ModelZoo::gpt3_175b());
    let systems = BaselineSystem::all_systems();
    let reports: Vec<_> = systems.iter().map(|s| temp.evaluate_system(s)).collect();
    assert!(reports[0].oom, "Mega+SMap must OOM on 175B");
    assert!(!reports[6].oom, "TEMP must plan 175B");
}
