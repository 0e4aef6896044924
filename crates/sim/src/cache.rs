//! The cache hierarchy: set-associative tag arrays with LRU replacement,
//! write-back/write-allocate policy, per-level protection (parity on L1,
//! SECDED on L2/L3 — Table 2) and weak-cell fault exposure.
//!
//! Data values live in the machine's backing memory; the caches model
//! *placement* (hits/misses for the performance counters) and *exposure*
//! (which array locations the program's data physically occupies, so that
//! weak cells corrupt the right accesses at the right voltages).

use crate::corner::ChipSpec;
use crate::edac::{EdacKind, EdacLog, EdacRecord};
use crate::faults::sram::{WeakCellMap, WORDS_PER_LINE};
use crate::topology::{CacheLevel, CoreId, Protection, LINE_BYTES, NUM_CORES, NUM_PMDS};
use std::collections::BTreeSet;

/// Associativity used for every level (8-way, typical of the design).
pub const WAYS: u8 = 8;

/// Outcome of one cache access at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelAccess {
    /// Whether the line was already present.
    pub hit: bool,
    /// Whether a dirty victim was evicted (write-back traffic).
    pub writeback: bool,
    /// The set the line occupies.
    pub set: u32,
    /// The way the line occupies.
    pub way: u8,
}

/// What the protection logic observed while the access touched the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultObservation {
    /// Corrected errors reported on this access.
    pub corrected: u32,
    /// Uncorrected errors reported on this access.
    pub uncorrected: u32,
    /// Bit mask to XOR into the accessed data word — protection missed it
    /// (an SDC seed). Zero when no silent corruption occurred.
    pub silent_corruption_mask: u64,
    /// Whether uncorrected data was consumed (poison — may kill the app).
    pub poison: bool,
}

impl FaultObservation {
    fn merge(&mut self, other: FaultObservation) {
        self.corrected += other.corrected;
        self.uncorrected += other.uncorrected;
        self.silent_corruption_mask ^= other.silent_corruption_mask;
        self.poison |= other.poison;
    }
}

/// One physical set-associative tag array plus its weak-cell overlay.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    level: CacheLevel,
    instance: u8,
    /// §6a enhancement: interleaved SECDED(39,32) replaces the stock
    /// protection of this array.
    extended_ecc: bool,
    /// Always a power of two, so a set index is a mask, not a divide.
    sets: u32,
    /// The line address each way holds, one array per set; meaningful
    /// only where the set's `valid` byte has the way's bit. Zero-filled,
    /// so building an array writes no tag memory up front, and any line
    /// address, zero and `u64::MAX` included, can be cached.
    tags: Vec<[u64; WAYS as usize]>,
    /// Per set, bit `w` is set while way `w` holds a line.
    valid: Vec<u8>,
    /// Per set, bit `w` is set while way `w` holds a dirty line (never
    /// for an empty way).
    dirty: Vec<u8>,
    /// Per way, the stamp of its last access; read only once every way of
    /// the set is valid, and each of those was stamped when it was filled.
    lru: Vec<[u64; WAYS as usize]>,
    stamp: u64,
    weak: WeakCellMap,
    /// Weak cells already reported this run (dedupe: EDAC logs a location
    /// once per scrub interval, not once per access).
    reported: BTreeSet<(u32, u8, u8)>,
}

impl SetAssocCache {
    /// Builds the array for `level` instance `instance` on chip `spec`.
    #[must_use]
    pub fn new(spec: ChipSpec, level: CacheLevel, instance: u8) -> Self {
        Self::with_protection(spec, level, instance, false)
    }

    /// Builds the array with the §6a interleaved-SECDED upgrade toggled.
    #[must_use]
    pub fn with_protection(
        spec: ChipSpec,
        level: CacheLevel,
        instance: u8,
        extended_ecc: bool,
    ) -> Self {
        let sets = (level.capacity_bytes() / (LINE_BYTES * WAYS as usize)) as u32;
        assert!(
            sets.is_power_of_two(),
            "{level} has {sets} sets; set indexing needs a power of two"
        );
        let n = sets as usize;
        SetAssocCache {
            level,
            instance,
            extended_ecc,
            sets,
            tags: vec![[0; WAYS as usize]; n],
            valid: vec![0; n],
            dirty: vec![0; n],
            lru: vec![[0; WAYS as usize]; n],
            stamp: 0,
            weak: WeakCellMap::generate(spec, level, instance as usize, sets, WAYS),
            reported: BTreeSet::new(),
        }
    }

    /// The array's cache level.
    #[must_use]
    pub fn level(&self) -> CacheLevel {
        self.level
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// The array's weak-cell overlay.
    #[must_use]
    pub fn weak_cells(&self) -> &WeakCellMap {
        &self.weak
    }

    /// Invalidates all lines and clears run-scoped state (power cycle or
    /// new run).
    pub fn reset(&mut self) {
        // Tags and stamps stay as they are: an empty way's are never read.
        self.valid.fill(0);
        self.dirty.fill(0);
        self.stamp = 0;
        self.reported.clear();
    }

    /// Clears only the per-run fault-report dedupe (between runs we keep
    /// cache contents warm unless the system was power cycled).
    pub fn begin_run(&mut self) {
        self.reported.clear();
    }

    /// Accesses the line containing `line_addr` (already line-granular).
    /// Allocates on miss (write-allocate), marks dirty on writes,
    /// returns placement info.
    pub fn access(&mut self, line_addr: u64, write: bool) -> LevelAccess {
        // `line_addr % sets`, as a mask: `sets` is a power of two.
        let set = (line_addr & u64::from(self.sets - 1)) as u32;
        let s = set as usize;
        self.stamp += 1;
        // Hit? Every way is compared, without a branch per way; the lowest
        // valid match is the way a linear scan would stop at.
        let mut matches = 0u8;
        for (way, &tag) in self.tags[s].iter().enumerate() {
            matches |= u8::from(tag == line_addr) << way;
        }
        let hits = matches & self.valid[s];
        if hits != 0 {
            let way = hits.trailing_zeros() as u8;
            self.lru[s][usize::from(way)] = self.stamp;
            self.dirty[s] |= u8::from(write) << way;
            return LevelAccess {
                hit: true,
                writeback: false,
                set,
                way,
            };
        }
        // Miss: the first empty way, else the least recently used one
        // (the lowest way on ties).
        let empty = !self.valid[s];
        let victim = if empty != 0 {
            empty.trailing_zeros() as u8
        } else {
            let lru = &self.lru[s];
            (1..WAYS).fold(0u8, |best, way| {
                if lru[usize::from(way)] < lru[usize::from(best)] {
                    way
                } else {
                    best
                }
            })
        };
        let bit = 1u8 << victim;
        let writeback = self.dirty[s] & bit != 0;
        self.tags[s][usize::from(victim)] = line_addr;
        self.lru[s][usize::from(victim)] = self.stamp;
        self.valid[s] |= bit;
        self.dirty[s] = (self.dirty[s] & !bit) | (u8::from(write) << victim);
        LevelAccess {
            hit: false,
            writeback,
            set,
            way: victim,
        }
    }

    /// Evaluates weak-cell exposure for an access that touched `(set, way)`
    /// reading/writing 64-bit word `word_in_line`, with the array powered at
    /// `supply_mv`. Errors are pushed to `edac`; silent corruption of the
    /// accessed word is returned in the observation.
    pub fn probe_faults(
        &mut self,
        set: u32,
        way: u8,
        word_in_line: u8,
        supply_mv: f64,
        edac: &mut EdacLog,
    ) -> FaultObservation {
        let mut obs = FaultObservation::default();
        // A cell fails only below its fail voltage. When even the array's
        // weakest cell holds at `supply_mv`, no location can report
        // anything, so the lookup is skipped.
        if !self
            .weak
            .weakest_cell_vfail_mv()
            .is_some_and(|v| v > supply_mv)
        {
            return obs;
        }
        // Group failing cells at this location by word to evaluate the
        // per-word protection code.
        let mut per_word_flips: [u64; WORDS_PER_LINE as usize] = [0; WORDS_PER_LINE as usize];
        let mut any = false;
        for cell in self.weak.failing_at(set, way, supply_mv) {
            per_word_flips[cell.word as usize] |= 1u64 << cell.bit;
            any = true;
        }
        if !any {
            return obs;
        }
        let dirty = self.dirty[set as usize] & (1u8 << way) != 0;
        for (word, mask) in per_word_flips.iter().enumerate() {
            if *mask == 0 {
                continue;
            }
            let flips = mask.count_ones();
            let word = word as u8;
            let newly = self.reported.insert((set, way, word));
            let outcome = if self.extended_ecc {
                // §6a: two-way interleaved SECDED(39,32) on every array.
                let even = (mask & 0x5555_5555_5555_5555).count_ones();
                let odd = (mask & 0xAAAA_AAAA_AAAA_AAAA).count_ones();
                match margins_ecc::secded32::InterleavedWord::outcome_for_flips(even, odd) {
                    margins_ecc::CheckOutcome::Clean => continue,
                    margins_ecc::CheckOutcome::Corrected => WordOutcome::Corrected,
                    margins_ecc::CheckOutcome::Uncorrected => WordOutcome::Uncorrected,
                    margins_ecc::CheckOutcome::Undetected => WordOutcome::Silent,
                }
            } else {
                match self.level.protection() {
                    Protection::Parity => {
                        if flips % 2 == 1 {
                            // Parity hit: clean lines refetch (corrected at the
                            // system level); dirty lines are lost.
                            if dirty {
                                WordOutcome::Uncorrected
                            } else {
                                WordOutcome::Corrected
                            }
                        } else {
                            WordOutcome::Silent
                        }
                    }
                    Protection::Secded => match flips {
                        1 => WordOutcome::Corrected,
                        2 => WordOutcome::Uncorrected,
                        _ => WordOutcome::Silent,
                    },
                }
            };
            match outcome {
                WordOutcome::Corrected => {
                    if newly {
                        obs.corrected += 1;
                        edac.report(EdacRecord {
                            kind: EdacKind::Corrected,
                            level: self.level,
                            instance: self.instance,
                            set,
                            way,
                        });
                    }
                }
                WordOutcome::Uncorrected => {
                    if newly {
                        obs.uncorrected += 1;
                        edac.report(EdacRecord {
                            kind: EdacKind::Uncorrected,
                            level: self.level,
                            instance: self.instance,
                            set,
                            way,
                        });
                    }
                    if word == word_in_line {
                        obs.poison = true;
                    }
                }
                WordOutcome::Silent => {
                    if word == word_in_line {
                        obs.silent_corruption_mask ^= mask;
                    }
                }
            }
        }
        obs
    }
}

enum WordOutcome {
    Corrected,
    Uncorrected,
    Silent,
}

/// Result of a full hierarchy access, for counter accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Hit in the core's L1D.
    pub l1_hit: bool,
    /// Hit in the PMD's L2 (only meaningful when L1 missed).
    pub l2_hit: bool,
    /// Hit in the L3 (only meaningful when L2 missed).
    pub l3_hit: bool,
    /// Dirty write-back evicted from the L1D.
    pub wb_l1: bool,
    /// Dirty write-back evicted from the L2.
    pub wb_l2: bool,
    /// Dirty write-back evicted from the L3.
    pub wb_l3: bool,
    /// Protection observations collected across the touched arrays.
    pub faults: FaultObservation,
}

impl HierarchyAccess {
    /// Whether the access reached DRAM.
    #[must_use]
    pub fn dram(&self) -> bool {
        !self.l1_hit && !self.l2_hit && !self.l3_hit
    }
}

/// The full chip cache hierarchy: 8 private L1D + 8 private L1I, 4 shared
/// L2s, one L3 (in the PCP/SoC power domain).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1d: Vec<SetAssocCache>,
    l1i: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
}

impl CacheHierarchy {
    /// Builds the stock hierarchy for chip `spec`.
    #[must_use]
    pub fn new(spec: ChipSpec) -> Self {
        Self::with_protection(spec, false)
    }

    /// Builds the hierarchy with the §6a interleaved-SECDED upgrade toggled.
    #[must_use]
    pub fn with_protection(spec: ChipSpec, extended_ecc: bool) -> Self {
        let build = |level, i| SetAssocCache::with_protection(spec, level, i, extended_ecc);
        CacheHierarchy {
            l1d: (0..NUM_CORES as u8)
                .map(|i| build(CacheLevel::L1D, i))
                .collect(),
            l1i: (0..NUM_CORES as u8)
                .map(|i| build(CacheLevel::L1I, i))
                .collect(),
            l2: (0..NUM_PMDS as u8)
                .map(|i| build(CacheLevel::L2, i))
                .collect(),
            l3: build(CacheLevel::L3, 0),
        }
    }

    /// The core's private L1 data cache.
    #[must_use]
    pub fn l1d(&self, core: CoreId) -> &SetAssocCache {
        &self.l1d[core.index()]
    }

    /// The PMD-shared L2 serving `core`.
    #[must_use]
    pub fn l2(&self, core: CoreId) -> &SetAssocCache {
        &self.l2[core.pmd().index()]
    }

    /// The chip-wide L3.
    #[must_use]
    pub fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// Invalidates everything (power cycle).
    pub fn reset(&mut self) {
        for c in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            c.reset();
        }
        self.l3.reset();
    }

    /// Clears per-run fault dedupe on every array.
    pub fn begin_run(&mut self) {
        for c in self
            .l1d
            .iter_mut()
            .chain(self.l1i.iter_mut())
            .chain(self.l2.iter_mut())
        {
            c.begin_run();
        }
        self.l3.begin_run();
    }

    /// A data access by `core` to byte address `addr`, walking
    /// L1D → L2 → L3 → DRAM, probing weak cells in each touched array.
    ///
    /// `pmd_mv` powers L1/L2 (the PMD rail); `soc_mv` powers L3.
    pub fn data_access(
        &mut self,
        core: CoreId,
        addr: u64,
        write: bool,
        pmd_mv: f64,
        soc_mv: f64,
        edac: &mut EdacLog,
    ) -> HierarchyAccess {
        let line = addr / LINE_BYTES as u64;
        let word_in_line = ((addr / 8) % u64::from(WORDS_PER_LINE)) as u8;
        let mut faults = FaultObservation::default();

        let l1 = &mut self.l1d[core.index()];
        let a1 = l1.access(line, write);
        faults.merge(l1.probe_faults(a1.set, a1.way, word_in_line, pmd_mv, edac));
        if a1.hit {
            return HierarchyAccess {
                l1_hit: true,
                l2_hit: false,
                l3_hit: false,
                wb_l1: a1.writeback,
                wb_l2: false,
                wb_l3: false,
                faults,
            };
        }

        let l2 = &mut self.l2[core.pmd().index()];
        let a2 = l2.access(line, write);
        faults.merge(l2.probe_faults(a2.set, a2.way, word_in_line, pmd_mv, edac));
        if a2.hit {
            return HierarchyAccess {
                l1_hit: false,
                l2_hit: true,
                l3_hit: false,
                wb_l1: a1.writeback,
                wb_l2: a2.writeback,
                wb_l3: false,
                faults,
            };
        }

        let a3 = self.l3.access(line, write);
        faults.merge(
            self.l3
                .probe_faults(a3.set, a3.way, word_in_line, soc_mv, edac),
        );
        HierarchyAccess {
            l1_hit: false,
            l2_hit: false,
            l3_hit: a3.hit,
            wb_l1: a1.writeback,
            wb_l2: a2.writeback,
            wb_l3: a3.writeback,
            faults,
        }
    }

    /// An instruction-fetch access by `core` (drives the L1I counters; in
    /// the kernels' working sets instruction fetches nearly always hit).
    pub fn inst_access(&mut self, core: CoreId, addr: u64) -> bool {
        let line = addr / LINE_BYTES as u64;
        self.l1i[core.index()].access(line, false).hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::Corner;

    fn spec() -> ChipSpec {
        ChipSpec::new(Corner::Ttt, 0)
    }

    #[test]
    fn geometry_from_capacity() {
        let l1 = SetAssocCache::new(spec(), CacheLevel::L1D, 0);
        assert_eq!(l1.sets(), 64); // 32 KB / (64 B * 8 ways)
        let l2 = SetAssocCache::new(spec(), CacheLevel::L2, 0);
        assert_eq!(l2.sets(), 512);
        let l3 = SetAssocCache::new(spec(), CacheLevel::L3, 0);
        assert_eq!(l3.sets(), 16384);
    }

    #[test]
    fn second_access_hits() {
        let mut c = SetAssocCache::new(spec(), CacheLevel::L1D, 0);
        assert!(!c.access(100, false).hit);
        assert!(c.access(100, false).hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::new(spec(), CacheLevel::L1D, 0);
        let sets = u64::from(c.sets());
        // Fill one set completely, then overflow it: the first line goes.
        for i in 0..u64::from(WAYS) {
            c.access(i * sets, false);
        }
        c.access(u64::from(WAYS) * sets, false); // evicts line 0
                                                 // Probe line 1 first: probing line 0 would itself evict the (new)
                                                 // LRU line.
        assert!(c.access(sets, false).hit, "line 1 must survive");
        assert!(!c.access(0, false).hit, "line 0 must have been evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SetAssocCache::new(spec(), CacheLevel::L1D, 0);
        let sets = u64::from(c.sets());
        c.access(0, true); // dirty
        for i in 1..=u64::from(WAYS) {
            let a = c.access(i * sets, false);
            if i == u64::from(WAYS) {
                assert!(a.writeback, "evicting the dirty line must write back");
            }
        }
    }

    #[test]
    fn no_faults_at_nominal_voltage() {
        let mut h = CacheHierarchy::new(spec());
        let mut edac = EdacLog::new();
        for i in 0..20_000u64 {
            let a = h.data_access(CoreId::new(0), i * 8, false, 980.0, 950.0, &mut edac);
            assert_eq!(a.faults.corrected, 0);
            assert_eq!(a.faults.silent_corruption_mask, 0);
        }
        assert!(edac.is_empty());
    }

    #[test]
    fn deep_undervolting_exposes_weak_cells() {
        // Sweep the whole L2 at a voltage far below the weak-cell base:
        // every weak cell fails, so CE/UE reports must appear.
        let mut h = CacheHierarchy::new(spec());
        let mut edac = EdacLog::new();
        let core = CoreId::new(0);
        // Touch more lines than L2 holds so every set/way gets occupied.
        for i in 0..(2 * L2_LINES) {
            let _ = h.data_access(core, i * LINE_BYTES as u64, false, 700.0, 950.0, &mut edac);
        }
        assert!(
            !edac.is_empty(),
            "a 256KB sweep at 700mV must trip weak cells"
        );
    }
    const L2_LINES: u64 = (crate::topology::L2_BYTES / LINE_BYTES) as u64;

    #[test]
    fn fault_reports_are_deduped_within_a_run() {
        let mut h = CacheHierarchy::new(spec());
        let mut edac = EdacLog::new();
        let core = CoreId::new(0);
        for _ in 0..3 {
            for i in 0..(2 * L2_LINES) {
                let _ = h.data_access(core, i * LINE_BYTES as u64, false, 700.0, 950.0, &mut edac);
            }
        }
        let first_run = edac.drain().len();
        // Same traversal again without begin_run: everything deduped…
        for i in 0..(2 * L2_LINES) {
            let _ = h.data_access(core, i * LINE_BYTES as u64, false, 700.0, 950.0, &mut edac);
        }
        assert!(edac.records().len() <= first_run / 4, "dedupe failed");
        // …until a new run clears the dedupe set.
        h.begin_run();
        for i in 0..(2 * L2_LINES) {
            let _ = h.data_access(core, i * LINE_BYTES as u64, false, 700.0, 950.0, &mut edac);
        }
        assert!(!edac.is_empty());
    }

    #[test]
    fn l3_faults_depend_on_soc_rail_not_pmd_rail() {
        let mut h = CacheHierarchy::new(spec());
        let mut edac = EdacLog::new();
        let core = CoreId::new(0);
        // PMD rail deep-undervolted but SoC at nominal: any L3-tagged
        // record would be a bug. Use a stream bigger than L2 so L3 is hit.
        for i in 0..(4 * L2_LINES) {
            let _ = h.data_access(core, i * LINE_BYTES as u64, false, 700.0, 950.0, &mut edac);
        }
        assert!(edac.records().iter().all(|r| r.level != CacheLevel::L3));
    }

    #[test]
    fn reset_invalidates() {
        let mut h = CacheHierarchy::new(spec());
        let mut edac = EdacLog::new();
        let core = CoreId::new(0);
        h.data_access(core, 64, false, 980.0, 950.0, &mut edac);
        let warm = h.data_access(core, 64, false, 980.0, 950.0, &mut edac);
        assert!(warm.l1_hit);
        h.reset();
        let cold = h.data_access(core, 64, false, 980.0, 950.0, &mut edac);
        assert!(!cold.l1_hit);
    }

    #[test]
    fn extended_ecc_turns_dirty_parity_losses_into_corrections() {
        // §6a: a single weak-cell flip on a *dirty* L1 line is a data loss
        // (UE) under stock parity, but a plain correction under interleaved
        // SECDED. Drive the exact same physical cell through both designs.
        let spec = spec();
        let mut stock = SetAssocCache::new(spec, CacheLevel::L1D, 0);
        let mut enhanced = SetAssocCache::with_protection(spec, CacheLevel::L1D, 0, true);
        // Pick a weak cell that is alone in its 64-bit word.
        let cells = stock.weak_cells().cells().to_vec();
        let lone = cells
            .iter()
            .find(|c| {
                cells
                    .iter()
                    .filter(|o| o.set == c.set && o.way == c.way && o.word == c.word)
                    .count()
                    == 1
            })
            .copied()
            .expect("L1 arrays carry a handful of weak cells");
        let below = lone.vfail_mv - 5.0;
        for cache in [&mut stock, &mut enhanced] {
            // Occupy ways 0..=cell.way of the target set with dirty lines so
            // the probed location is valid and dirty.
            for k in 0..=u64::from(lone.way) {
                cache.access(u64::from(lone.set) + k * u64::from(cache.sets()), true);
            }
        }
        let mut edac = EdacLog::new();
        let obs = stock.probe_faults(lone.set, lone.way, lone.word, below, &mut edac);
        assert_eq!(obs.uncorrected, 1, "stock parity loses the dirty word");
        let mut edac = EdacLog::new();
        let obs = enhanced.probe_faults(lone.set, lone.way, lone.word, below, &mut edac);
        assert_eq!(obs.corrected, 1, "interleaved SECDED corrects it");
        assert_eq!(obs.uncorrected, 0);
        assert_eq!(obs.silent_corruption_mask, 0);
    }

    #[test]
    fn inst_accesses_hit_after_first_touch() {
        let mut h = CacheHierarchy::new(spec());
        let core = CoreId::new(2);
        assert!(!h.inst_access(core, 4096));
        assert!(h.inst_access(core, 4096));
    }
}
