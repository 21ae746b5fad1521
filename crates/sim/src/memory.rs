//! HBM3-lite memory model: capacity ledger with OOM detection plus an
//! access-granularity bandwidth model (the Ramulator substitute).
//!
//! The paper integrates Ramulator "to simulate memory occupancy" (§VII-A);
//! the evaluation consumes two quantities — peak per-die occupancy against
//! the 72 GB capacity line (Figs. 4(c), 13) and effective bandwidth feeding
//! the compute roofline. Both are modeled here.

use serde::{Deserialize, Serialize};

use temp_wsc::config::HbmConfig;
use temp_wsc::topology::DieId;

use crate::{Result, SimError};

/// Effective-bandwidth model for an HBM3 stack.
///
/// DRAM delivers peak bandwidth only for row-buffer-friendly access streams;
/// each row activation costs `row_miss_penalty` seconds amortized over
/// `row_bytes` of data. Small or scattered accesses therefore see lower
/// effective bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HbmModel {
    /// Stack configuration (capacity, peak bandwidth, latency, energy).
    pub config: HbmConfig,
    /// Bytes per DRAM row (per pseudo-channel burst window).
    pub row_bytes: f64,
    /// Row activation + precharge penalty in seconds.
    pub row_miss_penalty: f64,
}

impl HbmModel {
    /// Builds the model with HBM3-typical row parameters.
    pub fn new(config: HbmConfig) -> Self {
        HbmModel {
            config,
            row_bytes: 1024.0,
            row_miss_penalty: 45.0e-9,
        }
    }

    /// Effective bandwidth for an access stream with the given average
    /// contiguous run length (`granularity`, bytes) and row-hit fraction.
    ///
    /// `hit_rate` 1.0 = perfectly sequential; 0.0 = every `row_bytes`
    /// touches a new row.
    pub fn effective_bandwidth(&self, granularity: f64, hit_rate: f64) -> f64 {
        let hit_rate = hit_rate.clamp(0.0, 1.0);
        let granularity = granularity.max(1.0);
        // Time to stream `granularity` bytes: transfer + row misses.
        let transfer = granularity / self.config.bandwidth;
        let rows_touched = (granularity / self.row_bytes).ceil();
        let misses = rows_touched * (1.0 - hit_rate);
        let total = transfer + misses * self.row_miss_penalty;
        granularity / total
    }

    /// Time to read or write `bytes` with the given access pattern.
    pub fn access_time(&self, bytes: f64, granularity: f64, hit_rate: f64) -> f64 {
        self.config.latency + bytes / self.effective_bandwidth(granularity, hit_rate)
    }
}

/// Per-die capacity ledger with peak tracking and OOM detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryLedger {
    capacity: f64,
    used: Vec<f64>,
    peak: Vec<f64>,
}

impl MemoryLedger {
    /// Creates a ledger for `die_count` dies of `capacity` bytes each.
    pub fn new(die_count: usize, capacity: f64) -> Self {
        MemoryLedger {
            capacity,
            used: vec![0.0; die_count],
            peak: vec![0.0; die_count],
        }
    }

    /// Per-die capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Allocates `bytes` on a die.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the die would exceed capacity;
    /// the allocation is *not* applied in that case.
    pub fn allocate(&mut self, die: DieId, bytes: f64) -> Result<()> {
        let u = &mut self.used[die.index()];
        if *u + bytes > self.capacity {
            return Err(SimError::OutOfMemory {
                die: die.0,
                needed: *u + bytes - self.capacity,
                capacity: self.capacity,
            });
        }
        *u += bytes;
        if *u > self.peak[die.index()] {
            self.peak[die.index()] = *u;
        }
        Ok(())
    }

    /// Frees `bytes` on a die (clamped at zero).
    pub fn free(&mut self, die: DieId, bytes: f64) {
        let u = &mut self.used[die.index()];
        *u = (*u - bytes).max(0.0);
    }

    /// Current usage of a die in bytes.
    pub fn used(&self, die: DieId) -> f64 {
        self.used[die.index()]
    }

    /// Peak usage of a die in bytes.
    pub fn peak(&self, die: DieId) -> f64 {
        self.peak[die.index()]
    }

    /// Highest per-die peak across the wafer — the quantity plotted against
    /// the capacity line in Figs. 4(c)/13.
    pub fn max_peak(&self) -> f64 {
        self.peak.iter().fold(0.0f64, |a, b| a.max(*b))
    }

    /// Peak utilization fraction of the most loaded die.
    pub fn peak_utilization(&self) -> f64 {
        self.max_peak() / self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_wsc::units::{GB, MB};

    fn hbm() -> HbmModel {
        HbmModel::new(HbmConfig::default())
    }

    #[test]
    fn sequential_access_reaches_peak() {
        let m = hbm();
        let bw = m.effective_bandwidth(64.0 * MB, 1.0);
        assert!((bw - m.config.bandwidth).abs() / m.config.bandwidth < 1e-9);
    }

    #[test]
    fn random_access_degrades_bandwidth() {
        let m = hbm();
        let seq = m.effective_bandwidth(64.0 * MB, 1.0);
        let rand = m.effective_bandwidth(64.0 * MB, 0.0);
        assert!(rand < 0.25 * seq, "rand {rand:.3e} vs seq {seq:.3e}");
    }

    #[test]
    fn access_time_includes_latency() {
        let m = hbm();
        let t = m.access_time(1.0, 1.0, 1.0);
        assert!(t >= m.config.latency);
    }

    #[test]
    fn ledger_tracks_peak_and_oom() {
        let mut l = MemoryLedger::new(2, 72.0 * GB);
        let d = DieId(0);
        l.allocate(d, 50.0 * GB).unwrap();
        l.allocate(d, 10.0 * GB).unwrap();
        l.free(d, 30.0 * GB);
        assert!((l.used(d) - 30.0 * GB).abs() < 1.0);
        assert!((l.peak(d) - 60.0 * GB).abs() < 1.0);
        // 50 GB more would exceed capacity from 30 GB used.
        let err = l.allocate(d, 50.0 * GB).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { die: 0, .. }));
        // Failed allocation must not change state.
        assert!((l.used(d) - 30.0 * GB).abs() < 1.0);
    }

    #[test]
    fn max_peak_spans_dies() {
        let mut l = MemoryLedger::new(3, 72.0 * GB);
        l.allocate(DieId(0), 10.0 * GB).unwrap();
        l.allocate(DieId(2), 40.0 * GB).unwrap();
        assert!((l.max_peak() - 40.0 * GB).abs() < 1.0);
        assert!((l.peak_utilization() - 40.0 / 72.0).abs() < 1e-9);
    }

    #[test]
    fn free_clamps_at_zero() {
        let mut l = MemoryLedger::new(1, GB);
        l.allocate(DieId(0), 0.5 * GB).unwrap();
        l.free(DieId(0), 2.0 * GB);
        assert_eq!(l.used(DieId(0)), 0.0);
    }
}
