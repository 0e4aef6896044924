//! The SRAM weak-cell fault model.
//!
//! §3.4's self-tests showed the X-Gene 2's cache arrays are far more robust
//! than its logic paths: cache-stress tests crash at much lower voltages
//! than ALU/FPU tests. We model each array as overwhelmingly healthy, with
//! a small static population of *weak cells* whose individual fail voltages
//! follow an exponential tail above a base voltage:
//!
//! ```text
//! V_fail(cell) = SRAM_WEAK_BASE_MV + Exp(SRAM_WEAK_TAIL_MV)
//! ```
//!
//! Only the extreme tail of that distribution reaches into the unsafe
//! region of Figure 4, producing the occasional corrected errors that
//! accompany (never precede) SDCs on this chip.

use crate::calib;
use crate::corner::ChipSpec;
use crate::topology::{CacheLevel, LINE_BYTES};
use margins_rng::Rng;

/// Number of 64-bit data words in one cache line.
pub const WORDS_PER_LINE: u8 = (LINE_BYTES / 8) as u8;

/// A single weak bit-cell: its physical location inside the array and the
/// supply voltage below which it fails to hold its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCell {
    /// Set index within the array.
    pub set: u32,
    /// Way index within the set.
    pub way: u8,
    /// 64-bit word index within the line (0–7).
    pub word: u8,
    /// Bit index within the word (0–63).
    pub bit: u8,
    /// Supply voltage (mV) below which the cell fails.
    pub vfail_mv: f64,
}

/// The static weak-cell population of one physical cache array instance.
///
/// Derived deterministically from the chip spec, the cache level and the
/// array instance index, so the same chip always has the same weak cells.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakCellMap {
    level: CacheLevel,
    cells: Vec<WeakCell>,
    /// One `(set, way, index into cells)` entry per cell, sorted, so the
    /// cells at one location are a run found by binary search, in
    /// ascending index order.
    by_location: Vec<(u32, u8, u32)>,
    /// The highest `vfail_mv` among `cells`: at or above it no cell of
    /// the array fails, which lets every access at that supply skip the
    /// lookup.
    weakest_vfail_mv: Option<f64>,
}

impl WeakCellMap {
    /// Generates the weak-cell map for array `instance` of `level` on the
    /// chip described by `spec`, for an array of `sets` sets × `ways` ways.
    #[must_use]
    pub(crate) fn generate(
        spec: ChipSpec,
        level: CacheLevel,
        instance: usize,
        sets: u32,
        ways: u8,
    ) -> Self {
        let seed = spec.component_seed(&format!("weak-cells/{level}/{instance}"));
        let mut rng = Rng::seed_from_u64(seed);
        let mean = match level {
            CacheLevel::L1I | CacheLevel::L1D => calib::L1_WEAK_CELLS_MEAN,
            CacheLevel::L2 => calib::L2_WEAK_CELLS_MEAN,
            CacheLevel::L3 => calib::L3_WEAK_CELLS_MEAN,
        };
        let count = sample_poisson(mean, &mut rng);
        let mut cells = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let u = rng.range_f64(f64::MIN_POSITIVE, 1.0);
            // Cells whose fail voltage would reach the workloads' Vmin band
            // are caught at manufacturing test and mapped out with
            // row/column redundancy (see `calib::SRAM_REPAIR_CLAMP_MV`).
            let vfail_mv = (calib::SRAM_WEAK_BASE_MV - calib::SRAM_WEAK_TAIL_MV * u.ln())
                .min(calib::SRAM_REPAIR_CLAMP_MV);
            cells.push(WeakCell {
                set: rng.below(u64::from(sets)) as u32,
                way: rng.below(u64::from(ways)) as u8,
                word: rng.below(u64::from(WORDS_PER_LINE)) as u8,
                bit: rng.below(64) as u8,
                vfail_mv,
            });
        }
        let mut by_location: Vec<(u32, u8, u32)> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.set, c.way, i as u32))
            .collect();
        by_location.sort_unstable();
        let weakest_vfail_mv = cells.iter().map(|c| c.vfail_mv).reduce(f64::max);
        WeakCellMap {
            level,
            cells,
            by_location,
            weakest_vfail_mv,
        }
    }

    /// All weak cells in the array.
    #[must_use]
    pub fn cells(&self) -> &[WeakCell] {
        &self.cells
    }

    /// Weak cells residing at `(set, way)` that are *failing* at supply
    /// voltage `supply_mv` (their fail voltage exceeds the supply), in
    /// generation order.
    pub(crate) fn failing_at<'a>(
        &'a self,
        set: u32,
        way: u8,
        supply_mv: f64,
    ) -> impl Iterator<Item = &'a WeakCell> + 'a {
        let start = self
            .by_location
            .partition_point(|&(s, w, _)| (s, w) < (set, way));
        self.by_location[start..]
            .iter()
            .take_while(move |&&(s, w, _)| (s, w) == (set, way))
            .map(move |&(_, _, i)| &self.cells[i as usize])
            .filter(move |c| c.vfail_mv > supply_mv)
    }

    /// The highest fail voltage present in the array (the array's own
    /// "first error" voltage), or `None` for a flawless array.
    #[must_use]
    pub fn weakest_cell_vfail_mv(&self) -> Option<f64> {
        self.weakest_vfail_mv
    }
}

/// Knuth Poisson sampler (means here are small enough).
fn sample_poisson(mean: f64, rng: &mut Rng) -> u32 {
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 100_000 {
            return k; // defensive cap; unreachable for calibrated means
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::Corner;

    /// Total number of cells failing anywhere in the array at `supply_mv`.
    fn failing_count(map: &WeakCellMap, supply_mv: f64) -> usize {
        map.cells.iter().filter(|c| c.vfail_mv > supply_mv).count()
    }

    fn l2_map(serial: u64) -> WeakCellMap {
        // 256 KB, 8-way, 64 B lines → 512 sets.
        WeakCellMap::generate(
            ChipSpec::new(Corner::Ttt, serial),
            CacheLevel::L2,
            0,
            512,
            8,
        )
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(l2_map(3), l2_map(3));
    }

    #[test]
    fn different_instances_differ() {
        let spec = ChipSpec::new(Corner::Ttt, 3);
        let a = WeakCellMap::generate(spec, CacheLevel::L2, 0, 512, 8);
        let b = WeakCellMap::generate(spec, CacheLevel::L2, 1, 512, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn cell_count_near_calibrated_mean() {
        let counts: Vec<usize> = (0..20).map(|s| l2_map(s).cells().len()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(
            (mean - calib::L2_WEAK_CELLS_MEAN).abs() < calib::L2_WEAK_CELLS_MEAN * 0.4,
            "mean weak cells {mean}"
        );
    }

    #[test]
    fn no_cells_fail_at_nominal() {
        // The nominal supply (980 mV) must be clean for every plausible
        // chip: tail would need to reach 240 mV above base (p < 1e-3 per
        // cell). Spot-check a handful of chips.
        for serial in 0..10 {
            assert_eq!(failing_count(&l2_map(serial), 980.0), 0, "serial {serial}");
        }
    }

    #[test]
    fn most_cells_fail_only_far_below_the_unsafe_region() {
        let map = l2_map(0);
        let deep = failing_count(&map, 760.0);
        let shallow = failing_count(&map, 850.0);
        assert!(deep > shallow);
        assert!(
            shallow <= 4,
            "only the extreme tail may reach the unsafe region, got {shallow}"
        );
        // The manufacturing-repair clamp guarantees the §3.4 ordering:
        // nothing fails above the lowest workload Vmin.
        for serial in 0..20 {
            assert_eq!(
                failing_count(&l2_map(serial), calib::SRAM_REPAIR_CLAMP_MV),
                0
            );
        }
    }

    #[test]
    fn failing_at_respects_location_and_voltage() {
        let map = l2_map(0);
        for cell in map.cells() {
            let above: Vec<_> = map
                .failing_at(cell.set, cell.way, cell.vfail_mv + 1.0)
                .filter(|c| c.bit == cell.bit && c.word == cell.word)
                .collect();
            assert!(above.is_empty(), "cell must hold above its fail voltage");
            let below: Vec<_> = map
                .failing_at(cell.set, cell.way, cell.vfail_mv - 1.0)
                .filter(|c| c.bit == cell.bit && c.word == cell.word)
                .collect();
            assert_eq!(below.len(), 1, "cell must fail below its fail voltage");
        }
    }

    #[test]
    fn weakest_cell_is_max_vfail() {
        let map = l2_map(1);
        let expected = map
            .cells()
            .iter()
            .map(|c| c.vfail_mv)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(map.weakest_cell_vfail_mv(), Some(expected));
    }

    #[test]
    fn geometry_bounds_respected() {
        let map = l2_map(2);
        for c in map.cells() {
            assert!(c.set < 512);
            assert!(c.way < 8);
            assert!(c.word < WORDS_PER_LINE);
            assert!(c.bit < 64);
            assert!(c.vfail_mv >= calib::SRAM_WEAK_BASE_MV);
        }
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 3000;
        let total: u64 = (0..n)
            .map(|_| u64::from(sample_poisson(7.0, &mut rng)))
            .sum();
        let mean = total as f64 / f64::from(n);
        assert!((mean - 7.0).abs() < 0.3, "poisson mean {mean}");
    }
}
