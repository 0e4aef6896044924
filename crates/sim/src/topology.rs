//! Chip topology of the simulated micro-server: Table 2 and Figure 1 of the
//! paper.
//!
//! Eight 64-bit ARMv8-style out-of-order cores, organized as four PMDs
//! (Processor MoDules) of two cores each. Every core has private 32 KB
//! parity-protected L1 instruction and data caches; each PMD pair shares a
//! 256 KB SECDED-protected L2. The 8 MB SECDED-protected L3, the memory
//! controllers, the central switch and the I/O bridge live in the separate
//! PCP/SoC power domain.

use std::fmt;

/// Number of cores on the chip (Table 2).
pub const NUM_CORES: usize = 8;
/// Number of PMDs (pairs of cores, Figure 1).
pub const NUM_PMDS: usize = 4;
/// L1 instruction-cache capacity per core, bytes (Table 2: 32 KB).
const L1I_BYTES: usize = 32 * 1024;
/// L1 data-cache capacity per core, bytes (Table 2: 32 KB).
const L1D_BYTES: usize = 32 * 1024;
/// L2 capacity per PMD, bytes (Table 2: 256 KB).
pub(crate) const L2_BYTES: usize = 256 * 1024;
/// L3 capacity, bytes (Table 2: 8 MB).
const L3_BYTES: usize = 8 * 1024 * 1024;
/// Cache line size in bytes (64 B, typical of the microarchitecture).
pub const LINE_BYTES: usize = 64;
/// Issue width of the out-of-order pipeline (Table 2: 4-issue).
pub(crate) const ISSUE_WIDTH: u32 = 4;
/// Maximum thermal design power in watts (Table 2: 35 W).
pub(crate) const MAX_TDP_WATTS: f64 = 35.0;
/// Manufacturing technology node in nanometres (Table 2: 28 nm).
const TECHNOLOGY_NM: u32 = 28;

/// Identifier of one of the eight cores (0–7).
///
/// ```
/// use margins_sim::topology::{CoreId, PmdId};
/// assert_eq!(CoreId::new(5).pmd(), PmdId::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 8`.
    #[must_use]
    pub fn new(id: u8) -> Self {
        assert!(
            (id as usize) < NUM_CORES,
            "core id {id} out of range 0..{NUM_CORES}"
        );
        CoreId(id)
    }

    /// The raw core index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The PMD this core belongs to (cores 2k and 2k+1 form PMD k, Figure 1).
    #[must_use]
    pub fn pmd(self) -> PmdId {
        PmdId(self.0 / 2)
    }

    /// Iterates over all eight cores in index order.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..NUM_CORES as u8).map(CoreId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of one of the four PMDs (0–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PmdId(u8);

impl PmdId {
    /// Creates a PMD identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 4`.
    #[must_use]
    pub fn new(id: u8) -> Self {
        assert!(
            (id as usize) < NUM_PMDS,
            "PMD id {id} out of range 0..{NUM_PMDS}"
        );
        PmdId(id)
    }

    /// The raw PMD index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all four PMDs in index order.
    pub fn all() -> impl Iterator<Item = PmdId> {
        (0..NUM_PMDS as u8).map(PmdId)
    }
}

impl fmt::Display for PmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PMD{}", self.0)
    }
}

/// The levels of the on-chip memory hierarchy (used for EDAC location tags
/// and the cache simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Per-core 32 KB L1 instruction cache (parity protected).
    L1I,
    /// Per-core 32 KB L1 data cache (parity protected).
    L1D,
    /// Per-PMD 256 KB unified L2 (SECDED protected).
    L2,
    /// Chip-wide 8 MB L3 in the PCP/SoC domain (SECDED protected).
    L3,
}

impl CacheLevel {
    /// Capacity of one instance of this cache level in bytes.
    #[must_use]
    pub fn capacity_bytes(self) -> usize {
        match self {
            CacheLevel::L1I => L1I_BYTES,
            CacheLevel::L1D => L1D_BYTES,
            CacheLevel::L2 => L2_BYTES,
            CacheLevel::L3 => L3_BYTES,
        }
    }

    /// The protection scheme guarding this array (Table 2).
    #[must_use]
    pub fn protection(self) -> Protection {
        match self {
            CacheLevel::L1I | CacheLevel::L1D => Protection::Parity,
            CacheLevel::L2 | CacheLevel::L3 => Protection::Secded,
        }
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CacheLevel::L1I => "L1I",
            CacheLevel::L1D => "L1D",
            CacheLevel::L2 => "L2",
            CacheLevel::L3 => "L3",
        };
        f.write_str(name)
    }
}

/// SRAM array protection scheme: Table 2's two codes, and the §6a upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Parity: detects odd bit flips; correction requires a clean refetch.
    Parity,
    /// SECDED ECC: corrects single-bit, detects double-bit errors.
    Secded,
    /// §6a: two interleaved SECDED(39,32) codewords per 64-bit word, so
    /// adjacent double-bit errors are corrected too.
    InterleavedSecded,
}

/// A static description of the whole chip, as the paper's Table 2 gives it.
///
/// Useful for printing the `table2` experiment and for consistency checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipDescription {
    /// ISA name.
    pub isa: &'static str,
    /// Pipeline summary.
    pub pipeline: &'static str,
    /// Number of cores.
    pub cores: usize,
    /// Maximum core clock in MHz.
    pub core_clock_mhz: u32,
    /// L1 instruction cache description.
    pub l1i: &'static str,
    /// L1 data cache description.
    pub l1d: &'static str,
    /// L2 cache description.
    pub l2: &'static str,
    /// L3 cache description.
    pub l3: &'static str,
    /// Technology node in nm.
    pub technology_nm: u32,
    /// Maximum TDP in watts.
    pub max_tdp_watts: f64,
}

impl ChipDescription {
    /// The Table 2 configuration of the simulated X-Gene 2.
    #[must_use]
    pub fn x_gene_2() -> Self {
        ChipDescription {
            isa: "ARMv8 (AArch64, AArch32, Thumb)",
            pipeline: "64-bit OoO (4-issue)",
            cores: NUM_CORES,
            core_clock_mhz: 2400,
            l1i: "32KB per core (Parity Protected)",
            l1d: "32KB per core (Parity Protected)",
            l2: "256KB per PMD (ECC Protected)",
            l3: "8MB (ECC Protected)",
            technology_nm: TECHNOLOGY_NM,
            max_tdp_watts: MAX_TDP_WATTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_to_pmd_mapping() {
        let expected = [0u8, 0, 1, 1, 2, 2, 3, 3];
        for (i, pmd) in expected.iter().enumerate() {
            assert_eq!(CoreId::new(i as u8).pmd(), PmdId::new(*pmd));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_id_bounds_checked() {
        let _ = CoreId::new(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pmd_id_bounds_checked() {
        let _ = PmdId::new(4);
    }

    #[test]
    fn cache_geometry_matches_table2() {
        assert_eq!(CacheLevel::L1I.capacity_bytes(), 32 * 1024);
        assert_eq!(CacheLevel::L1D.capacity_bytes(), 32 * 1024);
        assert_eq!(CacheLevel::L2.capacity_bytes(), 256 * 1024);
        assert_eq!(CacheLevel::L3.capacity_bytes(), 8 * 1024 * 1024);
    }

    #[test]
    fn protection_matches_table2() {
        assert_eq!(CacheLevel::L1I.protection(), Protection::Parity);
        assert_eq!(CacheLevel::L1D.protection(), Protection::Parity);
        assert_eq!(CacheLevel::L2.protection(), Protection::Secded);
        assert_eq!(CacheLevel::L3.protection(), Protection::Secded);
    }

    #[test]
    fn enumerations_cover_everything() {
        assert_eq!(CoreId::all().count(), NUM_CORES);
        assert_eq!(PmdId::all().count(), NUM_PMDS);
    }

    #[test]
    fn description_is_consistent_with_constants() {
        let d = ChipDescription::x_gene_2();
        assert_eq!(d.cores, NUM_CORES);
        assert_eq!(d.technology_nm, TECHNOLOGY_NM);
        assert_eq!(d.core_clock_mhz, crate::freq::MAX_FREQ.get());
    }

    #[test]
    fn display_names() {
        assert_eq!(CoreId::new(3).to_string(), "core3");
        assert_eq!(PmdId::new(2).to_string(), "PMD2");
        assert_eq!(CacheLevel::L2.to_string(), "L2");
    }
}
