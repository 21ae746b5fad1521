//! Text codecs for persisting solver caches across processes.
//!
//! The vendored `serde` is a no-op stub, so persistence is a hand-rolled
//! line format in the same spirit as the surrogate models' `to_text` /
//! `from_text` ("linreg v1 ..."): whitespace-separated fields, floats
//! written with `{:?}` (which round-trips `f64` exactly, including `inf`
//! and `NaN`), one record per line. The cache-file format lives on top
//! of these codecs in [`crate::search::SearchContext::export_cost_table`]:
//! the evaluation cache, the segment table and the plan memo, so a
//! restarted process answers its first query per key from a restored
//! plan.
//!
//! Cache files are keyed by an FNV-1a fingerprint of the full
//! `(wafer, model, workload)` triple plus [`crate::cost::COST_MODEL_VERSION`],
//! so a cache written under a different die array, model shape, workload
//! or cost-model revision is rejected instead of silently poisoning the
//! warm start.
//!
//! Plan records are solver output, not cost-model output: their candidate
//! masks index the candidate enumeration, and their winners follow the
//! chain DP's and the pruning's tie-breaking. The `plans` section header
//! carries an `enumeration_hash`, so a file saved under another
//! enumeration is rejected whole. Any other change to what a solve
//! returns for a given table must bump the `temp-cache` format version.

use std::fmt::Write as _;

use temp_graph::segment::SegmentKind;
use temp_graph::workload::{RecomputeMode, Workload};
use temp_mapping::engines::MappingEngine;
use temp_parallel::memory::FootprintBreakdown;
use temp_parallel::strategy::HybridConfig;
use temp_sim::power::EnergyLedger;

use crate::cost::{CostReport, SegmentCost};
use crate::dlws::{ExecutionPlan, SegmentAssignment};

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

/// `dp fsdp01 tp sp cp tatp ep pp`.
pub(crate) fn encode_cfg(c: &HybridConfig) -> String {
    format!(
        "{} {} {} {} {} {} {} {}",
        c.dp, c.fsdp as u8, c.tp, c.sp, c.cp, c.tatp, c.ep, c.pp
    )
}

/// Shared field cursor for the decoders below. The encoders only ever
/// write ASCII, so fields split on ASCII whitespace.
pub(crate) struct Fields<'a> {
    iter: std::str::SplitAsciiWhitespace<'a>,
    line: &'a str,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Fields {
            iter: line.split_ascii_whitespace(),
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

/// FNV-1a over a candidate enumeration, in order. Plan masks are
/// positions in the enumeration, so they only decode under the
/// enumeration they were written against.
pub(crate) fn enumeration_hash(enumeration: &[HybridConfig]) -> u64 {
    // Degrees never exceed the die count, which fits a `u32`.
    let mut bytes = Vec::with_capacity(enumeration.len() * 8 * 4);
    for c in enumeration {
        for field in [c.dp, c.fsdp as usize, c.tp, c.sp, c.cp, c.tatp, c.ep, c.pp] {
            bytes.extend_from_slice(&(field as u32).to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// An admitted candidate list as `<words> <hex word>...`: bit `i` of the
/// little-endian word sequence is set when `enumeration[i]` is admitted.
/// `admitted` must be a subsequence of `enumeration` (a filter over it,
/// in order), which is how every plan key's list is built.
pub(crate) fn encode_mask(enumeration: &[HybridConfig], admitted: &[HybridConfig]) -> String {
    let mut words = vec![0u64; enumeration.len().div_ceil(64)];
    let mut rest = admitted.iter().peekable();
    for (i, cfg) in enumeration.iter().enumerate() {
        if rest.next_if(|a| *a == cfg).is_some() {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    debug_assert!(rest.peek().is_none(), "admitted list is not a subsequence");
    let mut out = words.len().to_string();
    for word in words {
        write!(out, " {word:x}").expect("write to string");
    }
    out
}

/// Inverse of [`encode_mask`] over the same enumeration. A word count
/// other than the enumeration's, or a bit past its end, fails the parse.
pub(crate) fn decode_mask(
    f: &mut Fields,
    enumeration: &[HybridConfig],
) -> Result<Vec<HybridConfig>, String> {
    let words = f.usize()?;
    let want = enumeration.len().div_ceil(64);
    if words != want {
        return Err(format!(
            "candidate mask has {words} words, the enumeration needs {want}"
        ));
    }
    let mut admitted = Vec::new();
    for w in 0..words {
        let s = f.next()?;
        let mut word = u64::from_str_radix(s, 16).map_err(|_| format!("bad mask word {s:?}"))?;
        while word != 0 {
            let i = w * 64 + word.trailing_zeros() as usize;
            let cfg = enumeration.get(i).ok_or_else(|| {
                format!(
                    "mask bit {i} is past the {}-candidate enumeration",
                    enumeration.len()
                )
            })?;
            admitted.push(*cfg);
            word &= word - 1;
        }
    }
    Ok(admitted)
}

/// A solved plan's value fields: `<winner cfg> <mode> <report> <n>
/// <segment>... <chain cost>`, each segment `<kind> <count> <cfg>
/// <step time>`. The engine rides in the record key; the workload is
/// the context's own with the plan's recompute mode.
pub(crate) fn encode_plan(plan: &ExecutionPlan) -> String {
    let mut out = format!(
        "{} {} {} {}",
        encode_cfg(&plan.config),
        mode_code(plan.workload.recompute),
        encode_report(&plan.report),
        plan.segments.len(),
    );
    for seg in &plan.segments {
        write!(
            out,
            " {} {} {} {:?}",
            seg.kind.code(),
            seg.count,
            encode_cfg(&seg.config),
            seg.step_time
        )
        .expect("write to string");
    }
    write!(out, " {:?}", plan.chain_cost).expect("write to string");
    out
}

/// Inverse of [`encode_plan`]: `base` is the context's workload.
pub(crate) fn decode_plan(
    engine: MappingEngine,
    base: &Workload,
    f: &mut Fields,
) -> Result<ExecutionPlan, String> {
    let config = decode_cfg(f)?;
    let mode = mode_from_code(f.u8()?)?;
    let report = decode_report(config, engine, f)?;
    let n = f.usize()?;
    let mut segments = Vec::new();
    for _ in 0..n {
        segments.push(SegmentAssignment {
            kind: kind_from_code(f.u8()?)?,
            count: f.u64()?,
            config: decode_cfg(f)?,
            step_time: f.f64()?,
        });
    }
    Ok(ExecutionPlan {
        config,
        engine,
        workload: base.clone().with_recompute(mode),
        report,
        segments,
        chain_cost: f.f64()?,
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
        assert!(engine_from_code(9).is_err());
        assert!(mode_from_code(9).is_err());
        assert!(kind_from_code(9).is_err());
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
    fn candidate_masks_round_trip_and_reject_stray_bits() {
        let enumeration: Vec<HybridConfig> = (1..=70)
            .map(|dp| HybridConfig {
                dp,
                ..HybridConfig::tuple(1, 1, 1, 1)
            })
            .collect();
        let admitted: Vec<HybridConfig> = enumeration
            .iter()
            .copied()
            .filter(|c| c.dp % 3 == 0 || c.dp > 66)
            .collect();
        let text = encode_mask(&enumeration, &admitted);
        assert!(text.starts_with("2 "), "{text}");
        let mut f = Fields::new(&text);
        assert_eq!(decode_mask(&mut f, &enumeration).unwrap(), admitted);
        f.finish().unwrap();
        for bad in ["1 ffff", "3 0 0 0", "2 0 40", "2 0 zz", "2 0"] {
            let mut f = Fields::new(bad);
            assert!(decode_mask(&mut f, &enumeration).is_err(), "{bad}");
        }

        // The enumeration hash sees order as well as content.
        let mut swapped = enumeration.clone();
        swapped.swap(0, 1);
        assert_ne!(enumeration_hash(&swapped), enumeration_hash(&enumeration));
        assert_eq!(
            enumeration_hash(&enumeration),
            enumeration_hash(&enumeration.clone())
        );
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        let mut f = Fields::new("255 256 -1");
        assert_eq!(f.u8().unwrap(), 255);
        assert!(f.u8().is_err(), "256 must not wrap to 0");
        assert!(f.u64().is_err(), "negative");
    }
}
