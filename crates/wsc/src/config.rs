//! Hardware configuration (Table I of the paper) and preset wafers.
//!
//! All parameters default to the paper's evaluation platform: a 4x8 die
//! array at 2 GHz, each die offering 1800 TFLOPS at 2 TFLOPS/W, 80 MB SRAM,
//! 72 GB HBM at 1 TB/s, and 4 TB/s D2D links at 200 ns / 5 pJ/bit.

use serde::{Deserialize, Serialize};

use crate::topology::Mesh;
use crate::units::{GB, MB, NS, TB, TFLOPS};
use crate::{Result, WscError};

/// Die-to-die interconnect parameters (Table I, "Die-to-Die Interconnect").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct D2dConfig {
    /// Peak per-link, per-direction bandwidth in bytes/s. Table I quotes
    /// "4 TB/s" for the die's D2D interconnect; read as the die's aggregate
    /// over its four mesh links, each direction sustains 1 TB/s — the only
    /// reading consistent with the paper's measured 35-55% link utilization
    /// and ~40% collective share (Fig. 4(b)).
    pub bandwidth: f64,
    /// Per-hop link latency in seconds (paper: 200 ns).
    pub latency: f64,
    /// Transfer energy in pJ per bit (paper: 5.0 pJ/bit).
    pub energy_pj_per_bit: f64,
    /// Minimum transfer granularity in bytes at which the link reaches peak
    /// efficiency (§III-B: "tens to hundreds of megabytes"). Transfers below
    /// this size see proportionally degraded effective bandwidth.
    pub efficient_granularity: f64,
}

impl Default for D2dConfig {
    fn default() -> Self {
        D2dConfig {
            bandwidth: 1.0 * TB,
            latency: 200.0 * NS,
            energy_pj_per_bit: 5.0,
            efficient_granularity: 32.0 * MB,
        }
    }
}

impl D2dConfig {
    /// Effective bandwidth for a transfer of `bytes`, accounting for the
    /// large-granularity requirement of on-wafer D2D links (§III-B).
    ///
    /// Small messages cannot amortize the link training/packetization
    /// overhead; effective bandwidth ramps linearly with message size up to
    /// [`D2dConfig::efficient_granularity`], floored at 5% of peak.
    pub fn effective_bandwidth(&self, bytes: f64) -> f64 {
        let frac = (bytes / self.efficient_granularity).clamp(0.05, 1.0);
        self.bandwidth * frac
    }

    /// Time to push `bytes` over one hop, excluding queueing/contention.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.effective_bandwidth(bytes)
    }
}

/// HBM stack parameters (Table I, "DRAM Die").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HbmConfig {
    /// Capacity per die in bytes (paper: 72 GB).
    pub capacity: f64,
    /// Access bandwidth in bytes/s (paper: 1 TB/s).
    pub bandwidth: f64,
    /// Access latency in seconds (paper: 100 ns).
    pub latency: f64,
    /// Access energy in pJ per bit (paper: 6.0 pJ/bit).
    pub energy_pj_per_bit: f64,
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig {
            capacity: 72.0 * GB,
            bandwidth: 1.0 * TB,
            latency: 100.0 * NS,
            energy_pj_per_bit: 6.0,
        }
    }
}

/// Per-die compute parameters (Table I, "Logic Die").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DieConfig {
    /// Logic die area in mm^2 (paper: 500 mm^2).
    pub area_mm2: f64,
    /// On-die SRAM in bytes (paper: 80 MB).
    pub sram: f64,
    /// Peak FP16 throughput in FLOP/s (paper: 1800 TFLOPS).
    pub peak_flops: f64,
    /// Compute power efficiency in FLOP/s per watt (paper: 2 TFLOPS/W).
    pub flops_per_watt: f64,
    /// Operating frequency in Hz (paper: 2 GHz).
    pub frequency: f64,
    /// Core array dimension (paper: 8x8 compute cores per die).
    pub core_array: (u32, u32),
    /// Physical die footprint in mm (width, height); paper: 33.25 x 24.99.
    pub footprint_mm: (f64, f64),
}

impl Default for DieConfig {
    fn default() -> Self {
        DieConfig {
            area_mm2: 500.0,
            sram: 80.0 * MB,
            peak_flops: 1800.0 * TFLOPS,
            flops_per_watt: 2.0 * TFLOPS,
            frequency: 2.0e9,
            core_array: (8, 8),
            footprint_mm: (33.25, 24.99),
        }
    }
}

impl DieConfig {
    /// Total cores on the die.
    pub fn core_count(&self) -> u32 {
        self.core_array.0 * self.core_array.1
    }

    /// Power draw at full compute utilization, in watts.
    pub fn peak_power(&self) -> f64 {
        self.peak_flops / self.flops_per_watt
    }

    /// Compute energy in joules per FLOP.
    pub fn joules_per_flop(&self) -> f64 {
        1.0 / self.flops_per_watt
    }
}

/// Full wafer-scale chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaferConfig {
    /// Die-array width (columns).
    pub mesh_width: u32,
    /// Die-array height (rows).
    pub mesh_height: u32,
    /// Per-die compute configuration.
    pub die: DieConfig,
    /// D2D interconnect configuration.
    pub d2d: D2dConfig,
    /// Per-die HBM configuration.
    pub hbm: HbmConfig,
    /// Maximum reliable interposer trace length in mm (§III-B: 50 mm).
    pub max_link_mm: f64,
    /// Latency of a forward-error-corrected over-length link (§I: 210 ns).
    pub fec_latency: f64,
}

impl Default for WaferConfig {
    fn default() -> Self {
        WaferConfig::hpca()
    }
}

impl WaferConfig {
    /// The paper's evaluation platform (§VIII-A): a 4x8 die array.
    pub fn hpca() -> Self {
        WaferConfig {
            mesh_width: 8,
            mesh_height: 4,
            die: DieConfig::default(),
            d2d: D2dConfig::default(),
            hbm: HbmConfig::default(),
            max_link_mm: 50.0,
            fec_latency: 210.0 * NS,
        }
    }

    /// The Fig. 3 reference wafer: a 6x8 array on a 215 mm x 215 mm substrate.
    pub fn fig3() -> Self {
        WaferConfig {
            mesh_width: 8,
            mesh_height: 6,
            ..WaferConfig::hpca()
        }
    }

    /// A custom array size with otherwise default (Table I) parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::InvalidConfig`] if either dimension is zero, or
    /// if the array has more dies than `u32` die ids can number.
    pub fn with_array(width: u32, height: u32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(WscError::InvalidConfig(format!(
                "die array must be nonzero, got {width}x{height}"
            )));
        }
        let dies = u64::from(width) * u64::from(height);
        // The mesh numbers dies (and counts them) in `u32`.
        if dies > u64::from(u32::MAX) {
            return Err(WscError::InvalidConfig(format!(
                "die array {width}x{height} has {dies} dies, beyond the u32 die-id range"
            )));
        }
        Ok(WaferConfig {
            mesh_width: width,
            mesh_height: height,
            ..WaferConfig::hpca()
        })
    }

    /// Number of dies on the wafer.
    pub fn die_count(&self) -> usize {
        self.mesh_width as usize * self.mesh_height as usize
    }

    /// Builds the mesh topology for this wafer.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.mesh_width, self.mesh_height).expect("validated dimensions")
    }

    /// Aggregate peak compute of the wafer in FLOP/s.
    pub fn total_peak_flops(&self) -> f64 {
        self.die.peak_flops * self.die_count() as f64
    }

    /// Aggregate HBM capacity of the wafer in bytes.
    pub fn total_hbm_capacity(&self) -> f64 {
        self.hbm.capacity * self.die_count() as f64
    }

    /// Physical wafer footprint in mm (width, height) implied by the die
    /// footprint — useful for the signal-integrity analysis where side
    /// lengths beyond ~190 mm preclude torus links.
    pub fn wafer_extent_mm(&self) -> (f64, f64) {
        (
            self.mesh_width as f64 * self.die.footprint_mm.0,
            self.mesh_height as f64 * self.die.footprint_mm.1,
        )
    }

    /// Physical center-to-center trace length between two die grid positions,
    /// in mm. Adjacent-column dies are `footprint.0` apart, adjacent-row dies
    /// `footprint.1`.
    pub fn trace_length_mm(&self, dx: u32, dy: u32) -> f64 {
        dx as f64 * self.die.footprint_mm.0 + dy as f64 * self.die.footprint_mm.1
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::InvalidConfig`] for non-positive bandwidths,
    /// capacities, or compute rates.
    pub fn validate(&self) -> Result<()> {
        if self.mesh_width == 0 || self.mesh_height == 0 {
            return Err(WscError::InvalidConfig("zero mesh dimension".into()));
        }
        if self.d2d.bandwidth <= 0.0 {
            return Err(WscError::InvalidConfig("non-positive D2D bandwidth".into()));
        }
        if self.hbm.capacity <= 0.0 || self.hbm.bandwidth <= 0.0 {
            return Err(WscError::InvalidConfig(
                "non-positive HBM parameters".into(),
            ));
        }
        if self.die.peak_flops <= 0.0 || self.die.flops_per_watt <= 0.0 {
            return Err(WscError::InvalidConfig(
                "non-positive compute parameters".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpca_preset_matches_table_one() {
        let c = WaferConfig::hpca();
        assert_eq!(c.die_count(), 32);
        assert!((c.d2d.bandwidth - 1.0e12).abs() < 1.0); // 4 TB/s per die / 4 links
        assert!((c.d2d.latency - 200.0e-9).abs() < 1e-15);
        assert!((c.d2d.energy_pj_per_bit - 5.0).abs() < 1e-12);
        assert!((c.hbm.capacity - 72.0e9).abs() < 1.0);
        assert!((c.hbm.bandwidth - 1.0e12).abs() < 1.0);
        assert!((c.die.peak_flops - 1.8e15).abs() < 1.0);
        assert!((c.die.sram - 80.0e6).abs() < 1.0);
        assert_eq!(c.die.core_count(), 64);
    }

    #[test]
    fn peak_power_is_900_watts_per_die() {
        let die = DieConfig::default();
        assert!((die.peak_power() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn fig3_wafer_has_48_dies() {
        assert_eq!(WaferConfig::fig3().die_count(), 48);
    }

    #[test]
    fn wafer_extent_exceeds_190mm_for_fig3() {
        // §III-B: "the side length typically exceeds 190 mm".
        let (w, h) = WaferConfig::fig3().wafer_extent_mm();
        assert!(w > 190.0, "width {w}");
        assert!(h > 140.0, "height {h}");
    }

    #[test]
    fn effective_bandwidth_ramps_with_message_size() {
        let d2d = D2dConfig::default();
        let small = d2d.effective_bandwidth(1.0 * MB);
        let large = d2d.effective_bandwidth(64.0 * MB);
        assert!(small < large);
        assert!((large - d2d.bandwidth).abs() < 1.0);
        // Floor at 5% of peak.
        assert!(d2d.effective_bandwidth(1.0) >= 0.05 * d2d.bandwidth - 1.0);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let d2d = D2dConfig::default();
        let t = d2d.transfer_time(32.0 * MB);
        assert!(t > d2d.latency);
        let serialization = 32.0 * MB / d2d.bandwidth;
        assert!((t - (d2d.latency + serialization)).abs() < 1e-12);
    }

    #[test]
    fn with_array_validates() {
        assert!(WaferConfig::with_array(0, 4).is_err());
        let c = WaferConfig::with_array(6, 9).unwrap();
        assert_eq!(c.die_count(), 54);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn die_count_does_not_wrap_and_with_array_caps_it_at_the_die_id_range() {
        // 70000 x 70000 wraps a u32 product; the count itself is exact.
        let wide = WaferConfig {
            mesh_width: 70_000,
            mesh_height: 70_000,
            ..WaferConfig::hpca()
        };
        assert_eq!(wide.die_count(), 4_900_000_000);
        let err = WaferConfig::with_array(70_000, 70_000).unwrap_err();
        assert!(
            matches!(&err, WscError::InvalidConfig(m) if m.contains("die-id range")),
            "{err}"
        );
        // u32::MAX = 65535 x 65537 dies is the largest array admitted.
        assert!(WaferConfig::with_array(65_535, 65_537).is_ok());
        assert!(WaferConfig::with_array(65_536, 65_536).is_err());
    }

    #[test]
    fn validate_catches_bad_parameters() {
        let mut c = WaferConfig::hpca();
        c.d2d.bandwidth = 0.0;
        assert!(matches!(c.validate(), Err(WscError::InvalidConfig(_))));
    }
}
