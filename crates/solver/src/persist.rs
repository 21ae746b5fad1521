//! Text codecs for persisting solver caches across processes.
//!
//! The vendored `serde` is a no-op stub, so persistence is a hand-rolled
//! line format in the same spirit as the surrogate models' `to_text` /
//! `from_text` ("linreg v1 ..."): whitespace-separated fields, floats
//! written with `{:?}` (which round-trips `f64` exactly, including `inf`
//! and `NaN`), one record per line. The cost-table format lives on top of
//! these codecs in [`crate::search::SearchContext::export_cost_table`].
//!
//! Cache files are keyed by an FNV-1a fingerprint of the full
//! `(wafer, model, workload)` triple plus [`crate::cost::COST_MODEL_VERSION`],
//! so a cache written under a different die array, model shape, workload
//! or cost-model revision is rejected instead of silently poisoning the
//! warm start.

use temp_graph::segment::SegmentKind;
use temp_graph::workload::RecomputeMode;
use temp_mapping::engines::MappingEngine;
use temp_parallel::memory::FootprintBreakdown;
use temp_parallel::strategy::HybridConfig;
use temp_sim::collectives::CollectiveKind;
use temp_sim::power::EnergyLedger;

use crate::cost::{CostReport, SegmentCost};

/// 64-bit FNV-1a over arbitrary bytes — stable, dependency-free, and good
/// enough to key cache files (a collision merely merges two caches whose
/// keys then fail to overlap; correctness is preserved by the key match
/// on every entry).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) fn engine_code(engine: MappingEngine) -> u8 {
    match engine {
        MappingEngine::SMap => 0,
        MappingEngine::GMap => 1,
        MappingEngine::Tcme => 2,
    }
}

pub(crate) fn engine_from_code(code: u8) -> Result<MappingEngine, String> {
    match code {
        0 => Ok(MappingEngine::SMap),
        1 => Ok(MappingEngine::GMap),
        2 => Ok(MappingEngine::Tcme),
        other => Err(format!("unknown engine code {other}")),
    }
}

pub(crate) fn mode_code(mode: RecomputeMode) -> u8 {
    match mode {
        RecomputeMode::None => 0,
        RecomputeMode::Selective => 1,
        RecomputeMode::Full => 2,
    }
}

pub(crate) fn mode_from_code(code: u8) -> Result<RecomputeMode, String> {
    match code {
        0 => Ok(RecomputeMode::None),
        1 => Ok(RecomputeMode::Selective),
        2 => Ok(RecomputeMode::Full),
        other => Err(format!("unknown recompute code {other}")),
    }
}

pub(crate) fn kind_from_code(code: u8) -> Result<SegmentKind, String> {
    SegmentKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("unknown segment kind code {code}"))
}

pub(crate) fn collective_code(kind: CollectiveKind) -> u8 {
    match kind {
        CollectiveKind::AllGather => 0,
        CollectiveKind::AllReduce => 1,
        CollectiveKind::ReduceScatter => 2,
        CollectiveKind::Broadcast => 3,
        CollectiveKind::AllToAll => 4,
        CollectiveKind::P2pShift => 5,
    }
}

pub(crate) fn collective_from_code(code: u8) -> Result<CollectiveKind, String> {
    match code {
        0 => Ok(CollectiveKind::AllGather),
        1 => Ok(CollectiveKind::AllReduce),
        2 => Ok(CollectiveKind::ReduceScatter),
        3 => Ok(CollectiveKind::Broadcast),
        4 => Ok(CollectiveKind::AllToAll),
        5 => Ok(CollectiveKind::P2pShift),
        other => Err(format!("unknown collective kind code {other}")),
    }
}

/// `dp fsdp01 tp sp cp tatp ep pp`.
pub(crate) fn encode_cfg(c: &HybridConfig) -> String {
    format!(
        "{} {} {} {} {} {} {} {}",
        c.dp, c.fsdp as u8, c.tp, c.sp, c.cp, c.tatp, c.ep, c.pp
    )
}

/// Shared field cursor for the decoders below.
pub(crate) struct Fields<'a> {
    iter: std::str::SplitWhitespace<'a>,
    line: &'a str,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Fields {
            iter: line.split_whitespace(),
            line,
        }
    }

    pub(crate) fn next(&mut self) -> Result<&'a str, String> {
        self.iter
            .next()
            .ok_or_else(|| format!("truncated record: {:?}", self.line))
    }

    /// The next field as an integer of type `T`. A value out of `T`'s
    /// range fails the parse rather than wrapping, so a corrupted code
    /// can never alias a valid one.
    fn int<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let s = self.next()?;
        s.parse()
            .map_err(|_| format!("bad {} {s:?}", std::any::type_name::<T>()))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        self.int()
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.int()
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.int()
    }

    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        self.int()
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        let s = self.next()?;
        s.parse().map_err(|_| format!("bad float {s:?}"))
    }

    pub(crate) fn bool01(&mut self) -> Result<bool, String> {
        match self.next()? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("bad boolean {other:?}")),
        }
    }

    /// Whether the next field is the `-` marker for "evaluation failed"
    /// entries (consumes it when present).
    pub(crate) fn takes_none_marker(&mut self) -> bool {
        let mut peek = self.iter.clone();
        if peek.next() == Some("-") {
            self.iter = peek;
            true
        } else {
            false
        }
    }

    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.iter.next() {
            None => Ok(()),
            Some(extra) => Err(format!("trailing field {extra:?} in {:?}", self.line)),
        }
    }
}

pub(crate) fn decode_cfg(f: &mut Fields) -> Result<HybridConfig, String> {
    Ok(HybridConfig {
        dp: f.usize()?,
        fsdp: f.bool01()?,
        tp: f.usize()?,
        sp: f.usize()?,
        cp: f.usize()?,
        tatp: f.usize()?,
        ep: f.usize()?,
        pp: f.usize()?,
    })
}

/// The 22 value fields of a [`CostReport`] (its `config`/`engine` ride in
/// the record key, not here).
pub(crate) fn encode_report(r: &CostReport) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.step_time,
        r.compute_time,
        r.collective_time,
        r.stream_time,
        r.exposed_stream_time,
        r.bubble_time,
        r.embedding_time,
        r.head_time,
        r.moe_time,
        r.memory.weights,
        r.memory.gradients,
        r.memory.optimizer,
        r.memory.activations,
        r.memory.buffers,
        r.fits_memory as u8,
        r.energy.compute,
        r.energy.d2d,
        r.energy.hbm,
        r.throughput,
        r.power,
        r.power_efficiency,
        r.contention_factor,
    )
}

pub(crate) fn decode_report(
    config: HybridConfig,
    engine: MappingEngine,
    f: &mut Fields,
) -> Result<CostReport, String> {
    Ok(CostReport {
        config,
        engine,
        step_time: f.f64()?,
        compute_time: f.f64()?,
        collective_time: f.f64()?,
        stream_time: f.f64()?,
        exposed_stream_time: f.f64()?,
        bubble_time: f.f64()?,
        embedding_time: f.f64()?,
        head_time: f.f64()?,
        moe_time: f.f64()?,
        memory: FootprintBreakdown {
            weights: f.f64()?,
            gradients: f.f64()?,
            optimizer: f.f64()?,
            activations: f.f64()?,
            buffers: f.f64()?,
        },
        fits_memory: f.bool01()?,
        energy: EnergyLedger {
            compute: f.f64()?,
            d2d: f.f64()?,
            hbm: f.f64()?,
        },
        throughput: f.f64()?,
        power: f.f64()?,
        power_efficiency: f.f64()?,
        contention_factor: f.f64()?,
    })
}

/// The 6 value fields of a [`SegmentCost`] (its `kind` rides in the key).
pub(crate) fn encode_segment_cost(s: &SegmentCost) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {}",
        s.time,
        s.compute_time,
        s.collective_time,
        s.stream_time,
        s.memory_bytes,
        s.fits_memory as u8,
    )
}

pub(crate) fn decode_segment_cost(
    kind: SegmentKind,
    f: &mut Fields,
) -> Result<SegmentCost, String> {
    Ok(SegmentCost {
        kind,
        time: f.f64()?,
        compute_time: f.f64()?,
        collective_time: f.f64()?,
        stream_time: f.f64()?,
        memory_bytes: f.f64()?,
        fits_memory: f.bool01()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"gpt3"), fnv1a(b"gpt4"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }

    #[test]
    fn cfg_round_trips() {
        let cfg = HybridConfig {
            dp: 2,
            fsdp: true,
            tp: 4,
            sp: 1,
            cp: 1,
            tatp: 4,
            ep: 2,
            pp: 3,
        };
        let text = encode_cfg(&cfg);
        let mut f = Fields::new(&text);
        assert_eq!(decode_cfg(&mut f).unwrap(), cfg);
        f.finish().unwrap();
    }

    #[test]
    fn extreme_floats_round_trip() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-308,
            std::f64::consts::PI,
            6.02214076e23,
        ] {
            let text = format!("{v:?}");
            let parsed: f64 = text.parse().expect("parse");
            assert_eq!(parsed.to_bits(), v.to_bits(), "{text}");
        }
        let nan: f64 = format!("{:?}", f64::NAN).parse().expect("nan");
        assert!(nan.is_nan());
    }

    #[test]
    fn codes_round_trip_and_reject_garbage() {
        for engine in [
            MappingEngine::SMap,
            MappingEngine::GMap,
            MappingEngine::Tcme,
        ] {
            assert_eq!(engine_from_code(engine_code(engine)).unwrap(), engine);
        }
        for mode in [
            RecomputeMode::None,
            RecomputeMode::Selective,
            RecomputeMode::Full,
        ] {
            assert_eq!(mode_from_code(mode_code(mode)).unwrap(), mode);
        }
        for kind in SegmentKind::ALL {
            assert_eq!(kind_from_code(kind.code()).unwrap(), kind);
        }
        for kind in [
            CollectiveKind::AllGather,
            CollectiveKind::AllReduce,
            CollectiveKind::ReduceScatter,
            CollectiveKind::Broadcast,
            CollectiveKind::AllToAll,
            CollectiveKind::P2pShift,
        ] {
            assert_eq!(collective_from_code(collective_code(kind)).unwrap(), kind);
        }
        assert!(engine_from_code(9).is_err());
        assert!(mode_from_code(9).is_err());
        assert!(kind_from_code(9).is_err());
        assert!(collective_from_code(9).is_err());
    }

    #[test]
    fn field_cursor_reports_truncation_and_trailing() {
        let mut f = Fields::new("1 2");
        assert_eq!(f.u64().unwrap(), 1);
        assert_eq!(f.u64().unwrap(), 2);
        assert!(f.u64().is_err(), "truncated");
        let f = Fields::new("1 2 3");
        let mut f2 = f;
        f2.u64().unwrap();
        f2.u64().unwrap();
        assert!(f2.finish().is_err(), "trailing field");
        let mut none = Fields::new("- tail");
        assert!(none.takes_none_marker());
        assert_eq!(none.next().unwrap(), "tail");
        let mut some = Fields::new("5");
        assert!(!some.takes_none_marker());
        assert_eq!(some.u64().unwrap(), 5);
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        let mut f = Fields::new("255 256 4294967295 4294967296 -1");
        assert_eq!(f.u8().unwrap(), 255);
        assert!(f.u8().is_err(), "256 must not wrap to 0");
        assert_eq!(f.u32().unwrap(), u32::MAX);
        assert!(f.u32().is_err(), "2^32 must not wrap to 0");
        assert!(f.u64().is_err(), "negative");
    }
}
