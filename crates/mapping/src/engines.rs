//! The three mapping engines compared in the paper (§VIII-A).
//!
//! * **SMap** — "a baseline sequential mapper with a fixed parallel strategy
//!   order": naive row-major strip layout, XY routing, no contention
//!   awareness.
//! * **GMap** — "a WSC-adapted implementation of the Gemini mapper": picks
//!   better (blocked) layouts per group but "lacks contention-aware
//!   optimization".
//! * **Tcme** — TEMP's engine: topology-aware layout *plus* the
//!   traffic-conscious optimizer.
//!
//! Mapping runs in two steps. A [`Draft`] is the engine-independent part
//! of one `(configuration, layout policy)` pair: the layout's comm ops,
//! the round scale, and the contention-free and contention-simulated times
//! of its XY-routed round (the latter simulated on first use). [`select`]
//! is the per-engine part on top of the drafts: SMap and GMap read the
//! drafts only, TCME runs the traffic optimizer on each draft's flows and
//! re-times only the rounds it actually rerouted — an untouched round has
//! the draft's flows, so the draft's times are exact for it. A draft keeps
//! no layout and no flows: flows are rebuilt from the comm ops with
//! [`layer_flows`] when an engine needs them, which lets a caller (the
//! solver's mapping memo) keep one draft per key and share it across all
//! three engines. [`map_hybrid`] runs the same two steps on fresh drafts.
//!
//! Rounds are simulated with [`ContentionSim::makespan_of`] directly over
//! the tagged flows. The drafts (and the solver's memo of them) are where
//! a repeated round is caught; a simulation is a pure function of its
//! flows, so a mapping does not depend on what this thread simulated
//! before.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use temp_graph::models::ModelConfig;
use temp_graph::workload::Workload;
use temp_parallel::groups::{LayoutPolicy, WaferLayout};
use temp_parallel::strategy::HybridConfig;
use temp_sim::network::ContentionSim;
use temp_wsc::config::WaferConfig;

use crate::comm::{extract_comm_ops, layer_flows, layer_traffic, CommOp, TaggedFlow};
use crate::optimizer::{multicast_link_loads, TrafficOptimizer};
use crate::{MappingError, Result};

/// Mapping engine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingEngine {
    /// Sequential mapper: fixed order, strip layout, no optimization.
    SMap,
    /// Gemini-adapted mapper: blocked layout, no contention optimization.
    GMap,
    /// TEMP's traffic-conscious mapping engine.
    Tcme,
}

impl std::fmt::Display for MappingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingEngine::SMap => write!(f, "SMap"),
            MappingEngine::GMap => write!(f, "GMap"),
            MappingEngine::Tcme => write!(f, "TCME"),
        }
    }
}

/// Result of mapping one configuration onto the wafer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingOutcome {
    /// Engine used.
    pub engine: MappingEngine,
    /// The physical layout.
    pub layout: WaferLayout,
    /// The communication ops of one layer.
    pub comm_ops: Vec<CommOp>,
    /// One layer's flows after (possible) optimization.
    pub flows: Vec<TaggedFlow>,
    /// Simulated time for one layer's communication under contention,
    /// scaled by per-layer op counts and ring rounds.
    pub comm_time_per_layer: f64,
    /// Contention-free (isolated) communication time for the same traffic —
    /// the gap to `comm_time_per_layer` is the congestion cost.
    pub isolated_comm_time: f64,
}

impl MappingOutcome {
    /// Max per-link byte load of one layer's traffic (a multicast payload
    /// counts once per link). Costing never reads it, so it is computed
    /// on demand from `flows`.
    pub fn max_link_load(&self) -> f64 {
        multicast_link_loads(&self.flows)
            .values()
            .fold(0.0f64, |a, b| a.max(*b))
    }

    /// Contention inflation factor (>= 1): simulated under load vs isolated.
    pub fn contention_factor(&self) -> f64 {
        contention_factor(self.comm_time_per_layer, self.isolated_comm_time)
    }
}

fn contention_factor(comm_time: f64, isolated_time: f64) -> f64 {
    if isolated_time <= 0.0 {
        1.0
    } else {
        (comm_time / isolated_time).max(1.0)
    }
}

/// Maps a hybrid configuration with the chosen engine and evaluates its
/// per-layer communication cost under mesh contention.
///
/// # Errors
///
/// Returns [`MappingError::Layout`] when the configuration cannot be laid
/// out on the wafer.
pub fn map_hybrid(
    engine: MappingEngine,
    wafer: &WaferConfig,
    model: &ModelConfig,
    workload: &Workload,
    cfg: &HybridConfig,
) -> Result<MappingOutcome> {
    let mut layouts = Vec::with_capacity(2);
    let selection = select(engine, wafer, |policy| {
        let (layout, flows, draft) = Draft::build(wafer, model, workload, cfg, policy)?;
        layouts.push((policy, layout));
        Ok((Arc::new(draft), Some(flows)))
    })?;
    let layout = layouts
        .into_iter()
        .find(|(policy, _)| *policy == selection.policy)
        .map(|(_, layout)| layout)
        .expect("the selected policy was drafted");
    let Selection {
        draft,
        flows,
        comm_time_per_layer,
        isolated_comm_time,
        ..
    } = selection;
    Ok(MappingOutcome {
        engine,
        layout,
        flows: flows.unwrap_or_else(|| draft.flows(wafer)),
        comm_ops: draft.comm_ops.clone(),
        comm_time_per_layer,
        isolated_comm_time,
    })
}

/// The engine-independent part of mapping one configuration with one
/// layout policy: the laid-out traffic's comm ops and the times of its
/// XY-routed round. Holds no layout and no flows (see the module docs).
#[derive(Debug)]
pub struct Draft {
    /// The communication ops of one layer.
    pub comm_ops: Vec<CommOp>,
    /// Round-count and per-layer multiplicity scale of the round.
    scale: f64,
    /// Contention-free time of the XY-routed round, scaled.
    isolated_comm_time: f64,
    /// Contention-simulated makespan of the XY-routed round, unscaled;
    /// simulated on first use.
    round_makespan: OnceLock<f64>,
}

impl Draft {
    /// Lays out `cfg` with `policy`, extracts one layer's traffic, routes
    /// it XY and times it contention-free. Returns the layout and the XY
    /// flows alongside.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::Layout`] when `cfg` cannot be laid out with
    /// `policy`.
    pub fn build(
        wafer: &WaferConfig,
        model: &ModelConfig,
        workload: &Workload,
        cfg: &HybridConfig,
        policy: LayoutPolicy,
    ) -> Result<(WaferLayout, Vec<TaggedFlow>, Draft)> {
        let mesh = wafer.mesh();
        let layout = WaferLayout::build(&mesh, cfg, policy)
            .map_err(|e| MappingError::Layout(e.to_string()))?;
        let comm_ops = extract_comm_ops(&layout, model, workload);
        let flows = layer_flows(&mesh, &comm_ops);
        let scale = comm_rounds_scale(cfg, model, workload);
        let draft = Draft {
            isolated_comm_time: isolated_round(wafer, &flows) * scale,
            comm_ops,
            scale,
            round_makespan: OnceLock::new(),
        };
        Ok((layout, flows, draft))
    }

    /// The draft's XY-routed flows of one layer.
    fn flows(&self, wafer: &WaferConfig) -> Vec<TaggedFlow> {
        layer_flows(&wafer.mesh(), &self.comm_ops)
    }

    /// Contention-simulated time of the XY-routed round, scaled. `flows`,
    /// when given, must be this draft's [`Draft::flows`]; it saves
    /// rebuilding them on the first call.
    fn comm_time(&self, wafer: &WaferConfig, flows: Option<&[TaggedFlow]>) -> f64 {
        let round = *self.round_makespan.get_or_init(|| match flows {
            Some(flows) => round_makespan(wafer, flows),
            None => round_makespan(wafer, &self.flows(wafer)),
        });
        round * self.scale
    }
}

/// One engine's pick among the drafts of a configuration.
#[derive(Debug)]
pub struct Selection {
    /// The picked draft.
    pub draft: Arc<Draft>,
    /// Layout policy of the picked draft.
    policy: LayoutPolicy,
    /// The picked traffic's flows (TCME's optimized ones), when they were
    /// at hand; `None` stands for the draft's XY flows.
    flows: Option<Vec<TaggedFlow>>,
    /// Simulated time for one layer's communication under contention.
    comm_time_per_layer: f64,
    /// Contention-free time of the same traffic.
    isolated_comm_time: f64,
}

impl Selection {
    /// Contention inflation factor (>= 1): simulated under load vs
    /// isolated, as [`MappingOutcome::contention_factor`].
    pub fn contention_factor(&self) -> f64 {
        contention_factor(self.comm_time_per_layer, self.isolated_comm_time)
    }
}

/// The per-engine step of mapping: picks a layout policy from the drafts
/// `draft` supplies and times its traffic. `draft` returns each policy's
/// draft with its XY flows when it has them at hand (a freshly built
/// draft), which saves rebuilding them. Drafts are requested in a fixed
/// order (topology-aware first), so the first failing draft's error is the
/// one returned.
///
/// # Errors
///
/// Returns the first error `draft` returns.
pub fn select(
    engine: MappingEngine,
    wafer: &WaferConfig,
    mut draft: impl FnMut(LayoutPolicy) -> Result<(Arc<Draft>, Option<Vec<TaggedFlow>>)>,
) -> Result<Selection> {
    let plain = |policy, (draft, flows): (Arc<Draft>, Option<Vec<TaggedFlow>>)| {
        let comm_time_per_layer = draft.comm_time(wafer, flows.as_deref());
        let isolated_comm_time = draft.isolated_comm_time;
        Selection {
            policy,
            draft,
            flows,
            comm_time_per_layer,
            isolated_comm_time,
        }
    };
    match engine {
        // SMap's fixed strategy order pins it to the naive strip layout.
        MappingEngine::SMap => {
            let policy = LayoutPolicy::RowMajorStrips;
            Ok(plain(policy, draft(policy)?))
        }
        // GMap varies ordering/placement but judges candidates without
        // contention awareness: it ranks on isolated time alone, so only
        // the winner (the first policy on a tie) is simulated.
        MappingEngine::GMap => {
            let first = draft(LayoutPolicy::TopologyAware)?;
            let second = draft(LayoutPolicy::RowMajorStrips)?;
            Ok(
                if second.0.isolated_comm_time < first.0.isolated_comm_time {
                    plain(LayoutPolicy::RowMajorStrips, second)
                } else {
                    plain(LayoutPolicy::TopologyAware, first)
                },
            )
        }
        // TCME judges candidates under contention, after running the
        // traffic optimizer on each.
        MappingEngine::Tcme => {
            let optimizer = TrafficOptimizer::new(wafer.mesh());
            let mut best: Option<Selection> = None;
            for policy in [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips] {
                let (drafted, flows) = draft(policy)?;
                let outcome = optimizer.optimize(flows.unwrap_or_else(|| drafted.flows(wafer)));
                let (comm_time_per_layer, isolated_comm_time) = if outcome.rerouted == 0 {
                    // The optimizer moved nothing: these are the draft's
                    // flows, so the draft's times are exact.
                    (
                        drafted.comm_time(wafer, Some(&outcome.flows)),
                        drafted.isolated_comm_time,
                    )
                } else {
                    (
                        round_makespan(wafer, &outcome.flows) * drafted.scale,
                        isolated_round(wafer, &outcome.flows) * drafted.scale,
                    )
                };
                let candidate = Selection {
                    policy,
                    draft: drafted,
                    flows: Some(outcome.flows),
                    comm_time_per_layer,
                    isolated_comm_time,
                };
                if best.as_ref().map_or(true, |b| {
                    candidate.comm_time_per_layer < b.comm_time_per_layer
                }) {
                    best = Some(candidate);
                }
            }
            Ok(best.expect("two policies were drafted"))
        }
    }
}

/// Contention-free makespan of one round: the slowest flow alone. Lone
/// flows bypass the fluid event loop entirely; the scalar fast path is
/// bit-identical to simulating each flow on its own.
fn isolated_round(wafer: &WaferConfig, flows: &[TaggedFlow]) -> f64 {
    let sim = ContentionSim::new(wafer);
    flows
        .iter()
        .map(|tf| sim.isolated_makespan(&tf.flow))
        .fold(0.0, f64::max)
}

/// Times one representative round of all concurrent group traffic under
/// contention (unscaled), simulating the tagged flows in place.
fn round_makespan(wafer: &WaferConfig, flows: &[TaggedFlow]) -> f64 {
    ContentionSim::new(wafer).makespan_of(flows)
}

/// Weighted ring-round count across the layer's traffic classes: each
/// class runs `rounds x per_layer_count` rounds per layer; concurrent
/// classes share the simulated round, so we scale by the maximum schedule
/// length.
fn comm_rounds_scale(cfg: &HybridConfig, model: &ModelConfig, workload: &Workload) -> f64 {
    let mut scale = 0.0f64;
    layer_traffic(cfg, model, workload, |class| {
        let rounds = class.collective_kind().round_count(class.group_size) as f64;
        scale = scale.max(rounds * class.per_layer_count);
    });
    scale.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;

    fn setup() -> (WaferConfig, ModelConfig, Workload) {
        let wafer = WaferConfig::hpca();
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        (wafer, model, workload)
    }

    #[test]
    fn all_engines_map_a_hybrid_config() {
        let (wafer, model, workload) = setup();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        for engine in ENGINES {
            let out = map_hybrid(engine, &wafer, &model, &workload, &cfg)
                .unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert!(out.comm_time_per_layer > 0.0, "{engine}");
            assert!(out.contention_factor() >= 1.0);
        }
    }

    #[test]
    fn tcme_never_loses_to_gmap_on_link_load() {
        let (wafer, model, workload) = setup();
        for cfg in test_configs() {
            let gmap = map_hybrid(MappingEngine::GMap, &wafer, &model, &workload, &cfg).unwrap();
            let tcme = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
            assert!(
                tcme.max_link_load() <= gmap.max_link_load() * 1.001,
                "{}: tcme {} vs gmap {}",
                cfg.label(),
                tcme.max_link_load(),
                gmap.max_link_load()
            );
        }
    }

    #[test]
    fn smap_strips_cost_at_least_as_much_as_tcme() {
        let (wafer, model, workload) = setup();
        let cfg = HybridConfig {
            dp: 4,
            fsdp: true,
            tatp: 8,
            ..Default::default()
        };
        let smap = map_hybrid(MappingEngine::SMap, &wafer, &model, &workload, &cfg).unwrap();
        let tcme = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
        assert!(
            tcme.comm_time_per_layer <= smap.comm_time_per_layer * 1.01,
            "tcme {} vs smap {}",
            tcme.comm_time_per_layer,
            smap.comm_time_per_layer
        );
    }

    /// The engine test configs of this module.
    fn test_configs() -> [HybridConfig; 3] {
        [
            HybridConfig::tuple(2, 2, 1, 8),
            HybridConfig {
                dp: 4,
                fsdp: true,
                tatp: 8,
                ..Default::default()
            },
            HybridConfig::tuple(4, 2, 2, 2),
        ]
    }

    #[test]
    fn gmap_simulating_only_its_winner_matches_simulating_both() {
        let (wafer, model, workload) = setup();
        for cfg in test_configs() {
            // The former GMap path: simulate both policies, keep the first
            // strictly better isolated time.
            let mut expected: Option<MappingOutcome> = None;
            for policy in [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips] {
                let (layout, flows, draft) =
                    Draft::build(&wafer, &model, &workload, &cfg, policy).unwrap();
                let outcome = MappingOutcome {
                    engine: MappingEngine::GMap,
                    layout,
                    comm_time_per_layer: round_makespan(&wafer, &flows) * draft.scale,
                    isolated_comm_time: draft.isolated_comm_time,
                    comm_ops: draft.comm_ops,
                    flows,
                };
                if expected
                    .as_ref()
                    .map_or(true, |b| outcome.isolated_comm_time < b.isolated_comm_time)
                {
                    expected = Some(outcome);
                }
            }
            let gmap = map_hybrid(MappingEngine::GMap, &wafer, &model, &workload, &cfg).unwrap();
            assert_eq!(Some(gmap), expected, "{}", cfg.label());
        }
    }

    /// The mapping path before drafts were shared: every engine drafts
    /// its own policies, TCME optimizes and simulates both, GMap ranks on
    /// isolated time and simulates its winner.
    fn map_reference(
        engine: MappingEngine,
        wafer: &WaferConfig,
        model: &ModelConfig,
        workload: &Workload,
        cfg: &HybridConfig,
    ) -> Result<MappingOutcome> {
        let scale = comm_rounds_scale(cfg, model, workload);
        let drafted = |policy| -> Result<MappingOutcome> {
            let mesh = wafer.mesh();
            let layout = WaferLayout::build(&mesh, cfg, policy)
                .map_err(|e| MappingError::Layout(e.to_string()))?;
            let comm_ops = extract_comm_ops(&layout, model, workload);
            let mut flows = layer_flows(&mesh, &comm_ops);
            if engine == MappingEngine::Tcme {
                flows = TrafficOptimizer::new(mesh).optimize(flows).flows;
            }
            Ok(MappingOutcome {
                engine,
                layout,
                isolated_comm_time: isolated_round(wafer, &flows) * scale,
                comm_time_per_layer: f64::NAN,
                comm_ops,
                flows,
            })
        };
        let simulate = |mut outcome: MappingOutcome| {
            outcome.comm_time_per_layer = round_makespan(wafer, &outcome.flows) * scale;
            outcome
        };
        match engine {
            MappingEngine::SMap => Ok(simulate(drafted(LayoutPolicy::RowMajorStrips)?)),
            MappingEngine::GMap => {
                let first = drafted(LayoutPolicy::TopologyAware)?;
                let second = drafted(LayoutPolicy::RowMajorStrips)?;
                Ok(simulate(
                    if second.isolated_comm_time < first.isolated_comm_time {
                        second
                    } else {
                        first
                    },
                ))
            }
            MappingEngine::Tcme => {
                let first = simulate(drafted(LayoutPolicy::TopologyAware)?);
                let second = simulate(drafted(LayoutPolicy::RowMajorStrips)?);
                Ok(if second.comm_time_per_layer < first.comm_time_per_layer {
                    second
                } else {
                    first
                })
            }
        }
    }

    const ENGINES: [MappingEngine; 3] = [
        MappingEngine::SMap,
        MappingEngine::GMap,
        MappingEngine::Tcme,
    ];

    /// The engine test configs plus tuples scaled to a `dies`-die wafer.
    fn wafer_configs(dies: usize) -> Vec<HybridConfig> {
        let mut cfgs = test_configs().to_vec();
        cfgs.extend([
            HybridConfig::tuple(dies, 1, 1, 1),
            HybridConfig::tuple(2, 2, 1, dies / 4),
            HybridConfig::tuple(dies / 8, 2, 2, 2),
            HybridConfig::tuple(dies / 4, 4, 1, 1),
            // TCME reroutes the topology-aware draft of these: the
            // first wins with it, the second loses with it on 8x8.
            HybridConfig::tuple(dies / 2, 2, 1, 1),
            HybridConfig::tuple(2, 1, 4, dies / 8),
        ]);
        cfgs
    }

    #[test]
    fn shared_drafts_map_like_per_engine_drafts() {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let mut tcme_rerouted = [false, false];
        for (w, h) in [(8u32, 4u32), (8, 8), (16, 8)] {
            let wafer = WaferConfig::with_array(w, h).unwrap();
            for cfg in wafer_configs((w * h) as usize) {
                for engine in ENGINES {
                    let got = map_hybrid(engine, &wafer, &model, &workload, &cfg);
                    let expected = map_reference(engine, &wafer, &model, &workload, &cfg);
                    let label = format!("{engine} {} on {w}x{h}", cfg.label());
                    match (got, expected) {
                        (Ok(got), Ok(expected)) => {
                            assert_eq!(got.layout, expected.layout, "{label}");
                            assert_eq!(got.comm_ops, expected.comm_ops, "{label}");
                            assert_eq!(got.flows, expected.flows, "{label}");
                            assert_eq!(
                                got.comm_time_per_layer.to_bits(),
                                expected.comm_time_per_layer.to_bits(),
                                "{label}"
                            );
                            assert_eq!(
                                got.isolated_comm_time.to_bits(),
                                expected.isolated_comm_time.to_bits(),
                                "{label}"
                            );
                            if engine == MappingEngine::Tcme {
                                let xy = layer_flows(&wafer.mesh(), &got.comm_ops);
                                tcme_rerouted[usize::from(got.flows != xy)] = true;
                            }
                        }
                        (got, expected) => {
                            assert_eq!(got.err(), expected.err(), "{label}");
                        }
                    }
                }
            }
        }
        // Both TCME branches ran: a pick the optimizer left alone (the
        // draft's times reused) and one it rerouted (re-simulated).
        assert_eq!(tcme_rerouted, [true, true]);
    }

    #[test]
    fn mappings_never_read_the_pipeline_degree() {
        // The solver's mapping and draft memos key on a `pp = 1` layout
        // config. If a layout, route or traffic class ever reads `pp`,
        // this fails and `pp` must go back into those keys.
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        for (w, h) in [(8u32, 4u32), (16, 8)] {
            let wafer = WaferConfig::with_array(w, h).unwrap();
            for cfg in wafer_configs((w * h) as usize) {
                for engine in ENGINES {
                    let map = |pp| {
                        let staged = HybridConfig { pp, ..cfg };
                        map_hybrid(engine, &wafer, &model, &workload, &staged).map(|m| {
                            let times = (
                                m.comm_time_per_layer.to_bits(),
                                m.isolated_comm_time.to_bits(),
                            );
                            (times, m.flows, m.comm_ops)
                        })
                    };
                    let single = map(1);
                    for pp in [2, 8] {
                        let label = format!("{engine} {} pp={pp} on {w}x{h}", cfg.label());
                        assert_eq!(map(pp), single, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn tcme_mapping_is_deterministic() {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        for (w, h) in [(8u32, 4u32), (8, 8), (16, 8)] {
            let wafer = WaferConfig::with_array(w, h).unwrap();
            let mesh = wafer.mesh();
            let dies = (w * h) as usize;
            for cfg in [
                HybridConfig::tuple(2, 2, 1, dies / 4),
                HybridConfig::tuple(dies / 8, 2, 2, 2),
                HybridConfig {
                    dp: 4,
                    fsdp: true,
                    tatp: dies / 4,
                    ..Default::default()
                },
            ] {
                // Tied bottleneck loads must resolve the same way on every
                // run (the lowest link wins).
                for policy in [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips] {
                    let layout = WaferLayout::build(&mesh, &cfg, policy).unwrap();
                    let flows = layer_flows(&mesh, &extract_comm_ops(&layout, &model, &workload));
                    let optimizer = TrafficOptimizer::new(mesh.clone());
                    let first = optimizer.optimize(flows.clone());
                    for _ in 0..4 {
                        let again = optimizer.optimize(flows.clone());
                        assert_eq!(
                            again.flows,
                            first.flows,
                            "{} {policy:?} on {w}x{h}",
                            cfg.label()
                        );
                    }
                }
                let first =
                    map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
                for _ in 0..4 {
                    let again =
                        map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
                    assert_eq!(again.flows, first.flows, "{} on {w}x{h}", cfg.label());
                    assert_eq!(
                        again.contention_factor().to_bits(),
                        first.contention_factor().to_bits(),
                        "{} on {w}x{h}",
                        cfg.label()
                    );
                }
            }
        }
    }

    #[test]
    fn pure_dp_generates_gradient_traffic_only() {
        let (wafer, model, workload) = setup();
        let cfg = HybridConfig::tuple(32, 1, 1, 1);
        let out = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
        assert!(!out.comm_ops.is_empty());
        assert!(out
            .comm_ops
            .iter()
            .all(|o| o.source == temp_parallel::strategy::ParallelKind::Dp));
    }
}
