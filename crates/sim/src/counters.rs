//! The performance-monitoring-unit counter file.
//!
//! §4.1: "The X-Gene 2 provides 101 performance counters in total which
//! report microarchitectural events of the entire system for individual
//! cores, for the memory hierarchy (accesses and misses of all cache, TLB
//! and page walks levels, unaligned accesses, prefetches, etc.), the
//! pipeline (flushes, mispredictions, etc.), and the system (bus accesses,
//! etc.)."
//!
//! [`PmuEvent`] enumerates exactly 101 events in the ARM PMUv3 /
//! implementation-defined style. The five events the paper's RFE selects
//! (§4.2) are present under the names the simulator maintains natively:
//! [`PmuEvent::DispatchStallCycles`], [`PmuEvent::ExcTaken`],
//! [`PmuEvent::ReadMemAccess`], [`PmuEvent::BtbMisPred`] and
//! [`PmuEvent::CondBrRetired`]/[`PmuEvent::IndBrRetired`].

use std::fmt;
use std::ops::{Index, IndexMut};

macro_rules! pmu_events {
    ($(#[$enum_meta:meta])* $vis:vis enum $name:ident { $($(#[$meta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$enum_meta])*
        $vis enum $name {
            $($(#[$meta])* $variant,)+
        }

        impl $name {
            /// All events, in counter-file order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The perf-style event mnemonic.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// The event's fixed index in the counter file.
            #[must_use]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Looks an event up by its mnemonic.
            #[must_use]
            pub fn from_label(label: &str) -> Option<$name> {
                match label {
                    $($label => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

pmu_events! {
    /// One of the 101 microarchitectural events of the simulated PMU.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[allow(missing_docs)] // the mnemonic labels are the documentation
    pub enum PmuEvent {
        SwIncr => "SW_INCR",
        CpuCycles => "CPU_CYCLES",
        InstRetired => "INST_RETIRED",
        InstSpec => "INST_SPEC",
        LdRetired => "LD_RETIRED",
        StRetired => "ST_RETIRED",
        MemAccess => "MEM_ACCESS",
        ReadMemAccess => "READ_MEM_ACCESS",
        WriteMemAccess => "WRITE_MEM_ACCESS",
        UnalignedLdstRetired => "UNALIGNED_LDST_RETIRED",
        ExcTaken => "EXC_TAKEN",
        ExcReturn => "EXC_RETURN",
        ExcUndef => "EXC_UNDEF",
        ExcSvc => "EXC_SVC",
        ExcIrq => "EXC_IRQ",
        ExcDabort => "EXC_DABORT",
        CidWriteRetired => "CID_WRITE_RETIRED",
        TtbrWriteRetired => "TTBR_WRITE_RETIRED",
        PcWriteRetired => "PC_WRITE_RETIRED",
        BrRetired => "BR_RETIRED",
        BrImmedRetired => "BR_IMMED_RETIRED",
        BrReturnRetired => "BR_RETURN_RETIRED",
        BrIndirectSpec => "BR_INDIRECT_SPEC",
        CondBrRetired => "COND_BR_RETIRED",
        IndBrRetired => "IND_BR_RETIRED",
        BrMisPred => "BR_MIS_PRED",
        BrMisPredRetired => "BR_MIS_PRED_RETIRED",
        BrPred => "BR_PRED",
        BtbMisPred => "BTB_MIS_PRED",
        BtbHit => "BTB_HIT",
        CpuCyclesUser => "CPU_CYCLES_USER",
        CpuCyclesKernel => "CPU_CYCLES_KERNEL",
        StallFrontend => "STALL_FRONTEND",
        StallBackend => "STALL_BACKEND",
        DispatchStallCycles => "DISPATCH_STALL_CYCLES",
        IssueStallCycles => "ISSUE_STALL_CYCLES",
        DecodeStallCycles => "DECODE_STALL_CYCLES",
        RobFullCycles => "ROB_FULL_CYCLES",
        LsqFullCycles => "LSQ_FULL_CYCLES",
        PipelineFlush => "PIPELINE_FLUSH",
        UopsRetired => "UOPS_RETIRED",
        FpInstRetired => "FP_INST_RETIRED",
        FpAddRetired => "FP_ADD_RETIRED",
        FpMulRetired => "FP_MUL_RETIRED",
        FpDivRetired => "FP_DIV_RETIRED",
        FpFmaRetired => "FP_FMA_RETIRED",
        FpSqrtRetired => "FP_SQRT_RETIRED",
        FpCvtRetired => "FP_CVT_RETIRED",
        SimdInstRetired => "SIMD_INST_RETIRED",
        IntAluRetired => "INT_ALU_RETIRED",
        IntMulRetired => "INT_MUL_RETIRED",
        IntDivRetired => "INT_DIV_RETIRED",
        CryptoSpec => "CRYPTO_SPEC",
        L1ICache => "L1I_CACHE",
        L1ICacheRefill => "L1I_CACHE_REFILL",
        L1ITlb => "L1I_TLB",
        L1ITlbRefill => "L1I_TLB_REFILL",
        L1DCache => "L1D_CACHE",
        L1DCacheRefill => "L1D_CACHE_REFILL",
        L1DCacheWb => "L1D_CACHE_WB",
        L1DCacheAllocate => "L1D_CACHE_ALLOCATE",
        L1DCacheRd => "L1D_CACHE_RD",
        L1DCacheWr => "L1D_CACHE_WR",
        L1DTlb => "L1D_TLB",
        L1DTlbRefill => "L1D_TLB_REFILL",
        L2DCache => "L2D_CACHE",
        L2DCacheRefill => "L2D_CACHE_REFILL",
        L2DCacheWb => "L2D_CACHE_WB",
        L2DCacheAllocate => "L2D_CACHE_ALLOCATE",
        L2DCacheRd => "L2D_CACHE_RD",
        L2DCacheWr => "L2D_CACHE_WR",
        L2DTlbRefill => "L2D_TLB_REFILL",
        L3Cache => "L3_CACHE",
        L3CacheRefill => "L3_CACHE_REFILL",
        L3CacheWb => "L3_CACHE_WB",
        L3CacheRd => "L3_CACHE_RD",
        DtlbWalk => "DTLB_WALK",
        ItlbWalk => "ITLB_WALK",
        TlbFlush => "TLB_FLUSH",
        PageWalkCycles => "PAGE_WALK_CYCLES",
        PrefetchLinefill => "PREFETCH_LINEFILL",
        PrefetchLinefillDrop => "PREFETCH_LINEFILL_DROP",
        ReadAlloc => "READ_ALLOC",
        WriteAlloc => "WRITE_ALLOC",
        BusAccess => "BUS_ACCESS",
        BusAccessRd => "BUS_ACCESS_RD",
        BusAccessWr => "BUS_ACCESS_WR",
        BusCycles => "BUS_CYCLES",
        MemoryError => "MEMORY_ERROR",
        LocalMemoryRd => "LOCAL_MEMORY_RD",
        LocalMemoryWr => "LOCAL_MEMORY_WR",
        DramRefreshStall => "DRAM_REFRESH_STALL",
        SnoopProbe => "SNOOP_PROBE",
        CoherencyMiss => "COHERENCY_MISS",
        ExclusiveFail => "EXCLUSIVE_FAIL",
        ExclusivePass => "EXCLUSIVE_PASS",
        WfiWfeCycles => "WFI_WFE_CYCLES",
        IrqDisabledCycles => "IRQ_DISABLED_CYCLES",
        ContextSwitches => "CONTEXT_SWITCHES",
        CpuMigrations => "CPU_MIGRATIONS",
        AlignmentFaults => "ALIGNMENT_FAULTS",
    }
}

/// Number of PMU events (§4.1: "101 performance counters in total").
pub const NUM_EVENTS: usize = 101;

impl fmt::Display for PmuEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A full counter file: one 64-bit counter per [`PmuEvent`].
///
/// ```
/// use margins_sim::counters::{CounterFile, PmuEvent};
///
/// let mut c = CounterFile::new();
/// c.add(PmuEvent::InstRetired, 100);
/// c[PmuEvent::CpuCycles] += 250;
/// assert_eq!(c[PmuEvent::InstRetired], 100);
/// assert!((c.rate(PmuEvent::InstRetired, PmuEvent::CpuCycles) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterFile {
    /// Sized by the event count, so indexing by an event needs no bounds
    /// check; boxed, so the file stays one pointer wide wherever it is
    /// held (every classified run carries an `Option<CounterFile>`).
    counts: Box<[u64; NUM_EVENTS]>,
}

impl CounterFile {
    /// A zeroed counter file.
    #[must_use]
    pub fn new() -> Self {
        CounterFile {
            counts: Box::new([0; NUM_EVENTS]),
        }
    }

    /// Adds `n` to the counter for `event`, saturating at `u64::MAX` —
    /// hardware counter files pin rather than wrap, and a wrapped count
    /// would silently corrupt every rate and profile derived from it.
    pub fn add(&mut self, event: PmuEvent, n: u64) {
        let c = &mut self.counts[event.index()];
        *c = c.saturating_add(n);
    }

    /// Increments the counter for `event` by one.
    pub fn incr(&mut self, event: PmuEvent) {
        self.add(event, 1);
    }

    /// The current count for `event`.
    #[must_use]
    pub fn get(&self, event: PmuEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Ratio of two counters, `0.0` when the denominator is zero.
    #[must_use]
    pub fn rate(&self, numerator: PmuEvent, denominator: PmuEvent) -> f64 {
        let d = self.get(denominator);
        if d == 0 {
            return 0.0;
        }
        self.get(numerator) as f64 / d as f64
    }

    /// Accumulates another counter file into this one, saturating at
    /// `u64::MAX` per counter.
    pub fn merge(&mut self, other: &CounterFile) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Iterates over `(event, count)` pairs in counter-file order.
    pub fn iter(&self) -> impl Iterator<Item = (PmuEvent, u64)> + '_ {
        PmuEvent::ALL.iter().map(move |e| (*e, self.get(*e)))
    }

    /// The counter values as a dense `f64` feature vector in counter-file
    /// order (the shape the prediction crate consumes).
    #[must_use]
    pub fn to_feature_vector(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }
}

impl Default for CounterFile {
    fn default() -> Self {
        CounterFile::new()
    }
}

impl Index<PmuEvent> for CounterFile {
    type Output = u64;
    fn index(&self, event: PmuEvent) -> &u64 {
        &self.counts[event.index()]
    }
}

impl IndexMut<PmuEvent> for CounterFile {
    fn index_mut(&mut self, event: PmuEvent) -> &mut u64 {
        &mut self.counts[event.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_101_events() {
        assert_eq!(PmuEvent::ALL.len(), NUM_EVENTS);
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in PmuEvent::ALL {
            assert!(seen.insert(e.label()), "duplicate label {}", e.label());
        }
    }

    #[test]
    fn label_roundtrip() {
        for e in PmuEvent::ALL {
            assert_eq!(PmuEvent::from_label(e.label()), Some(*e));
        }
        assert_eq!(PmuEvent::from_label("NO_SUCH_EVENT"), None);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, e) in PmuEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn rfe_selected_events_exist() {
        // §4.2's five most important features must be expressible.
        for label in [
            "DISPATCH_STALL_CYCLES",
            "EXC_TAKEN",
            "READ_MEM_ACCESS",
            "BTB_MIS_PRED",
            "COND_BR_RETIRED",
            "IND_BR_RETIRED",
        ] {
            assert!(PmuEvent::from_label(label).is_some(), "{label} missing");
        }
    }

    #[test]
    fn counter_file_arithmetic() {
        let mut c = CounterFile::new();
        c.add(PmuEvent::LdRetired, 10);
        c.incr(PmuEvent::LdRetired);
        assert_eq!(c[PmuEvent::LdRetired], 11);

        let mut d = CounterFile::new();
        d.add(PmuEvent::LdRetired, 9);
        d.add(PmuEvent::StRetired, 5);
        c.merge(&d);
        assert_eq!(c[PmuEvent::LdRetired], 20);
        assert_eq!(c[PmuEvent::StRetired], 5);

        c.reset();
        assert!(c.iter().all(|(_, v)| v == 0));
    }

    #[test]
    fn add_and_merge_saturate_instead_of_wrapping() {
        let mut c = CounterFile::new();
        c.add(PmuEvent::CpuCycles, u64::MAX - 1);
        c.add(PmuEvent::CpuCycles, 5);
        assert_eq!(c[PmuEvent::CpuCycles], u64::MAX);

        let mut d = CounterFile::new();
        d.add(PmuEvent::CpuCycles, u64::MAX);
        d.add(PmuEvent::InstRetired, 3);
        c.merge(&d);
        assert_eq!(c[PmuEvent::CpuCycles], u64::MAX);
        assert_eq!(c[PmuEvent::InstRetired], 3);
    }

    #[test]
    fn feature_vector_shape() {
        let c = CounterFile::new();
        assert_eq!(c.to_feature_vector().len(), NUM_EVENTS);
    }

    #[test]
    fn counter_file_is_one_pointer_wide() {
        // An inline array would add ~800 bytes to every classified run.
        assert_eq!(
            std::mem::size_of::<CounterFile>(),
            std::mem::size_of::<usize>()
        );
        assert_eq!(
            std::mem::size_of::<Option<CounterFile>>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn rate_handles_zero_denominator() {
        let c = CounterFile::new();
        assert_eq!(c.rate(PmuEvent::InstRetired, PmuEvent::CpuCycles), 0.0);
    }
}
