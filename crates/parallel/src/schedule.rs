//! Lowering stream orchestrations onto physical dies.
//!
//! A [`StreamOrchestration`] talks about
//! *logical positions*; this module binds logical positions to physical dies
//! (the group's member list, in logical order) and emits a simulator-ready
//! [`RoundSchedule`]: one overlapped round per stream round, flows routed on
//! the mesh. Non-adjacent logical neighbors (naive strips, TSPP wrap edges)
//! become multi-hop flows, which the contention simulator charges with
//! store-and-forward cost — making tail latency measurable.

use temp_sim::engine::{ComputeTask, Round, RoundSchedule};
use temp_sim::network::Flow;
use temp_wsc::topology::{DieId, Mesh};

use crate::stream::StreamOrchestration;
use crate::{ParallelError, Result};

/// Per-chunk cost parameters for lowering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCost {
    /// Bytes of one streamed sub-tensor.
    pub chunk_bytes: f64,
    /// Compute seconds per sub-computation (one sub-output).
    pub compute_seconds: f64,
    /// FLOPs per sub-computation (energy accounting).
    pub flops: f64,
    /// HBM bytes touched per sub-computation (energy accounting).
    pub hbm_bytes: f64,
}

/// Lowers an orchestration onto the mesh.
///
/// `group` lists the physical die of each logical position, in logical
/// order.
///
/// # Errors
///
/// Returns [`ParallelError::InvalidParameter`] if the group size does not
/// match the orchestration.
pub fn lower_stream(
    orch: &StreamOrchestration,
    mesh: &Mesh,
    group: &[DieId],
    cost: &StreamCost,
) -> Result<RoundSchedule> {
    if group.len() != orch.n() {
        return Err(ParallelError::InvalidParameter(format!(
            "group has {} dies but orchestration spans {} positions",
            group.len(),
            orch.n()
        )));
    }
    let mut schedule = RoundSchedule::new();
    for (t, round) in orch.rounds().iter().enumerate() {
        let mut r = Round::overlapped(format!("stream round {t}"));
        for &(pos, _sub) in &round.computes {
            r.compute.push(ComputeTask::new(
                group[pos],
                cost.compute_seconds,
                cost.flops,
                cost.hbm_bytes,
            ));
        }
        for s in &round.sends {
            r.flows
                .push(Flow::xy(mesh, group[s.from], group[s.to], cost.chunk_bytes));
        }
        schedule.push(r);
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_sim::engine::ScheduleEngine;
    use temp_wsc::config::WaferConfig;
    use temp_wsc::rings::snake_order;
    use temp_wsc::units::MB;

    use crate::tatp::TatpOrchestration;
    use crate::tspp::TsppOrchestration;

    fn cost() -> StreamCost {
        StreamCost {
            chunk_bytes: 16.0 * MB,
            compute_seconds: 50.0e-6,
            flops: 1.0e10,
            hbm_bytes: 32.0 * MB,
        }
    }

    #[test]
    fn group_size_mismatch_is_rejected() {
        let cfg = WaferConfig::hpca();
        let mesh = cfg.mesh();
        let orch = TatpOrchestration::build(8);
        let group: Vec<DieId> = mesh.dies().take(4).collect();
        assert!(lower_stream(orch.stream(), &mesh, &group, &cost()).is_err());
    }

    #[test]
    fn tatp_on_snake_path_has_single_hop_flows() {
        let cfg = WaferConfig::hpca();
        let mesh = cfg.mesh();
        let group: Vec<DieId> = snake_order(&mesh).into_iter().take(8).collect();
        let orch = TatpOrchestration::build(8);
        let sched = lower_stream(orch.stream(), &mesh, &group, &cost()).unwrap();
        for round in &sched.rounds {
            for f in &round.flows {
                assert_eq!(f.hops(), 1);
            }
        }
    }

    #[test]
    fn tatp_beats_naive_tspp_on_a_path_group() {
        // The headline effect of §V: on a non-ring physical group, the naive
        // TSPP ring pays an O(N)-hop wrap transfer every round while TATP's
        // transfers all stay single-hop.
        let cfg = WaferConfig::hpca();
        let mesh = cfg.mesh();
        let engine = ScheduleEngine::new(&cfg);
        // An 8-die row: a path, not a physical ring. Communication-heavy
        // regime (small compute chunks) so routing differences surface.
        let group: Vec<DieId> = (0..8).map(DieId).collect();
        let c = StreamCost {
            compute_seconds: 2.0e-6,
            ..cost()
        };

        let tatp = TatpOrchestration::build(8);
        let tspp = TsppOrchestration::build(8);
        let t_tatp = engine
            .run(&lower_stream(tatp.stream(), &mesh, &group, &c).unwrap())
            .total_time;
        let t_tspp = engine
            .run(&lower_stream(tspp.stream(), &mesh, &group, &c).unwrap())
            .total_time;
        assert!(
            t_tspp > 1.5 * t_tatp,
            "naive ring {t_tspp:.6} should trail TATP {t_tatp:.6}"
        );
    }

    #[test]
    fn big_chunks_overlap_fully_when_compute_dominates() {
        let cfg = WaferConfig::hpca();
        let mesh = cfg.mesh();
        let engine = ScheduleEngine::new(&cfg);
        let group: Vec<DieId> = snake_order(&mesh).into_iter().take(8).collect();
        let orch = TatpOrchestration::build(8);
        // Compute far slower than communication: total == compute.
        let c = StreamCost {
            compute_seconds: 10.0e-3,
            ..cost()
        };
        let rep = engine.run(&lower_stream(orch.stream(), &mesh, &group, &c).unwrap());
        assert!((rep.total_time - 8.0 * 10.0e-3).abs() / rep.total_time < 1e-6);
        assert_eq!(rep.exposed_comm_time, 0.0);
    }

    #[test]
    fn energy_scales_with_rounds() {
        let cfg = WaferConfig::hpca();
        let mesh = cfg.mesh();
        let engine = ScheduleEngine::new(&cfg);
        let group: Vec<DieId> = snake_order(&mesh).into_iter().take(4).collect();
        let orch = TatpOrchestration::build(4);
        let rep = engine.run(&lower_stream(orch.stream(), &mesh, &group, &cost()).unwrap());
        // 4 rounds x 4 dies x 1e10 flops at 0.5 pJ/flop = 0.08 J.
        assert!((rep.energy.compute - 16.0 * 1.0e10 / 2.0e12).abs() < 1e-9);
        assert!(rep.energy.d2d > 0.0);
    }
}
