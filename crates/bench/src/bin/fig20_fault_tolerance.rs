//! Fig. 20: throughput under link faults (cliff) and core faults
//! (graceful) — re-solved by the real planner on the degraded fabric.
//!
//! Each point injects seeded faults into the mesh, re-runs the full DLWS
//! search against the derated cost model ([`temp_solver::faultcamp`]),
//! and reports the re-solved plan's throughput relative to the healthy
//! plan. The closed-form adaptation model (`temp_core::fault`) is kept
//! as a labeled baseline so the two can be compared point by point.
//!
//! `--smoke` runs one model on short rate lists with 2 seeds — the CI
//! sanity check that degraded-fabric planning stays alive. `--json
//! <path>` appends one single-line JSON record (uniquely-named fields,
//! so it coexists with `search_time`'s record in `BENCH_search.json`).

use std::time::Instant;

use temp_bench::header;
use temp_core::fault::{core_fault_sweep, link_fault_sweep};
use temp_graph::models::ModelZoo;
use temp_solver::faultcamp::{self, CampaignCurve, CampaignSpec, FaultKind};
use temp_wsc::config::WaferConfig;

fn print_curve(curve: &CampaignCurve) {
    let what = match curve.kind {
        FaultKind::Link => "link",
        FaultKind::Core => "core",
    };
    for p in &curve.points {
        println!(
            "{:<12} {what} faults {:>4.0}% -> re-solved throughput {:>5.2} ({}/{} seeds feasible)",
            curve.model,
            100.0 * p.rate,
            p.relative_throughput,
            p.feasible_seeds,
            p.seeds
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = std::env::args()
        .position(|a| a == "--json")
        .and_then(|i| std::env::args().nth(i + 1));
    let wafer = WaferConfig::hpca();
    let (models, link_rates, core_rates, seeds) = if smoke {
        (
            vec![ModelZoo::gpt3_6_7b()],
            vec![0.0, 0.35, 0.8],
            vec![0.0, 0.25],
            2u64,
        )
    } else {
        (
            vec![
                ModelZoo::gpt3_6_7b(),
                ModelZoo::llama3_70b(),
                ModelZoo::gpt3_175b(),
            ],
            faultcamp::fig20_link_rates(),
            faultcamp::fig20_core_rates(),
            8u64,
        )
    };

    // The whole figure — every (model x fault kind x rate x seed) — is
    // one flat-batched grid on the solver runtime: lanes are
    // (spec, seed) rate sweeps.
    let specs: Vec<CampaignSpec> = models
        .iter()
        .map(|m| CampaignSpec {
            model: m.clone(),
            kind: FaultKind::Link,
            rates: link_rates.clone(),
        })
        .chain(models.iter().map(|m| CampaignSpec {
            model: m.clone(),
            kind: FaultKind::Core,
            rates: core_rates.clone(),
        }))
        .collect();
    let t0 = Instant::now();
    let mut curves = faultcamp::run_campaigns(&wafer, &specs, seeds);
    let campaign_s = t0.elapsed().as_secs_f64();
    let core_curves: Vec<CampaignCurve> = curves.split_off(models.len());
    let link_curves = curves;

    header("Fig. 20(b): throughput vs link fault rate (degraded-fabric re-solves)");
    for curve in &link_curves {
        print_curve(curve);
    }
    println!("closed-form baseline (detour model, no re-solve):");
    for (rate, tput) in link_fault_sweep(&wafer, &link_rates, seeds) {
        println!(
            "  link faults {:>4.0}% -> throughput {:>5.2}",
            100.0 * rate,
            tput
        );
    }

    header("Fig. 20(c): throughput vs core fault rate (degraded-fabric re-solves)");
    for curve in &core_curves {
        print_curve(curve);
    }
    println!("closed-form baseline (derating model, no re-solve):");
    for (rate, tput) in core_fault_sweep(&wafer, &core_rates, seeds) {
        println!(
            "  core faults {:>4.0}% -> throughput {:>5.2}",
            100.0 * rate,
            tput
        );
    }
    println!("(paper: cliff by ~35-50% link faults; ~80% throughput at 25% core faults)");
    let lane_count = specs.len() as u64 * seeds;
    println!(
        "flat-batched campaign: {lane_count} lanes ({} specs x {seeds} seeds) in {campaign_s:.2} s",
        specs.len()
    );

    // Campaign invariants beyond the per-plan memory verdict (which
    // run_campaign already enforces): healthy points score 1.0 exactly,
    // and the paper's two curve shapes come out of the re-solves.
    for curve in link_curves.iter().chain(&core_curves) {
        if curve.points.first().map(|p| p.rate) == Some(0.0) {
            assert!(
                (curve.head() - 1.0).abs() < 1e-9,
                "{}: healthy re-solve must score 1.0, got {}",
                curve.model,
                curve.head()
            );
        }
    }
    for curve in &core_curves {
        // Models with memory headroom degrade gracefully. Models that
        // barely fit the healthy wafer (GPT-3 175B under Full recompute)
        // hit the *derated-memory wall* instead: the worst surviving die
        // bounds every candidate's footprint, so no plan fits — a
        // capacity cliff the closed-form derating model cannot see.
        let wall = curve.points.iter().find(|p| p.feasible_seeds == 0);
        match wall {
            Some(p) => println!(
                "{}: derated-memory wall at {:.0}% core faults (no feasible plan)",
                curve.model,
                100.0 * p.rate
            ),
            None => assert!(
                curve.tail() > 0.5,
                "{}: core faults must degrade gracefully, got {}",
                curve.model,
                curve.tail()
            ),
        }
    }
    if let Some(p) = link_curves[0].points.iter().find(|p| p.rate >= 0.8) {
        assert_eq!(
            p.feasible_seeds, 0,
            "80% link faults must disconnect every seed's mesh"
        );
    }

    if let Some(path) = json_path {
        // One single-line record appended after search_time's (vendored
        // serde is a no-op stub, so the record is assembled by hand).
        let record = format!(
            concat!(
                "{{\"bench\":\"fig20_fault\",\"smoke\":{},\"fault_models\":{},",
                "\"fault_seeds\":{},\"fault_campaign_s\":{:.4},\"fault_lanes\":{},",
                "\"fault_link_head\":{:.4},\"fault_link_tail\":{:.4},",
                "\"fault_core_head\":{:.4},\"fault_core_tail\":{:.4},",
                "\"fault_link_tail_feasible\":{},\"fault_plans_fit\":true}}\n"
            ),
            smoke,
            models.len(),
            seeds,
            campaign_s,
            lane_count,
            link_curves[0].head(),
            link_curves[0].tail(),
            core_curves[0].head(),
            core_curves[0].tail(),
            link_curves[0]
                .points
                .last()
                .map(|p| p.feasible_seeds)
                .unwrap_or(0),
        );
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open bench JSON for append");
        file.write_all(record.as_bytes())
            .expect("append bench JSON");
        println!("\nappended fig20_fault record to {path}");
    }
}
