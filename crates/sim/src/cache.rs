//! The cache hierarchy: set-associative tag arrays with LRU replacement,
//! write-back/write-allocate policy, per-level protection (parity on L1,
//! SECDED on L2/L3 — Table 2) and weak-cell fault exposure.
//!
//! Data values live in the machine's backing memory; the caches model
//! *placement* (hits/misses for the performance counters) and *exposure*
//! (which array locations the program's data physically occupies, so that
//! weak cells corrupt the right accesses at the right voltages).

use crate::calib::SRAM_REPAIR_CLAMP_MV;
use crate::corner::ChipSpec;
use crate::edac::{EdacKind, EdacLog, EdacRecord};
use crate::faults::sram::{WeakCellMap, WORDS_PER_LINE};
use crate::topology::{CacheLevel, CoreId, Protection, LINE_BYTES, NUM_CORES, NUM_PMDS};
use margins_ecc::parity::ParityWord;
use margins_ecc::secded::Codeword;
use margins_ecc::secded32::InterleavedWord;
use margins_ecc::CheckOutcome;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::mem;
use std::sync::OnceLock;

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

/// The line storage of one array, one entry per set.
///
/// It holds no chip-dependent state, so a dropped array's storage serves
/// the next array of its size on the same thread (`SPARE_LINES`). An empty
/// way's tag and stamp are never read, so [`SetAssocCache::reset`] clears
/// only the valid and dirty bytes, and that makes spare storage as good as
/// new: a new per-set field must be cleared there too, or never be read
/// for an empty way.
#[derive(Debug, Clone, Default)]
struct Lines {
    /// The line address each way holds; meaningful only where the set's
    /// `valid` byte has the way's bit, so any line address, zero and
    /// `u64::MAX` included, can be cached, and neither a new nor a spare
    /// array writes tag memory up front.
    tags: Vec<[u64; WAYS as usize]>,
    /// Per set, bit `w` is set while way `w` holds a line.
    valid: Vec<u8>,
    /// Per set, bit `w` is set while way `w` holds a dirty line (never
    /// for an empty way).
    dirty: Vec<u8>,
    /// Per way, the stamp of its last access; read only once every way of
    /// the set is valid, and each of those was stamped when it was filled.
    lru: Vec<[u64; WAYS as usize]>,
}

thread_local! {
    /// Line storage of this thread's dropped arrays, for its next board.
    static SPARE_LINES: RefCell<Vec<Lines>> = const { RefCell::new(Vec::new()) };
}

impl Lines {
    /// Storage for `sets` sets: a spare of that size from this thread's
    /// list, with whatever its last array left in it, else new storage.
    fn take(sets: usize) -> Self {
        SPARE_LINES
            .try_with(|spare| {
                let mut spare = spare.borrow_mut();
                let i = spare.iter().position(|l| l.valid.len() == sets)?;
                Some(spare.swap_remove(i))
            })
            .ok()
            .flatten()
            .unwrap_or_else(|| Lines {
                tags: vec![[0; WAYS as usize]; sets],
                valid: vec![0; sets],
                dirty: vec![0; sets],
                lru: vec![[0; WAYS as usize]; sets],
            })
    }

    /// Puts the storage on this thread's spare list, unless the list
    /// already holds `keep` of its size; then, or on a thread that is
    /// exiting, it is freed.
    fn give_back(self, keep: usize) {
        let sets = self.valid.len();
        let _ = SPARE_LINES.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.iter().filter(|l| l.valid.len() == sets).count() < keep {
                spare.push(self);
            }
        });
    }
}

/// One physical set-associative tag array plus its weak-cell overlay.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    level: CacheLevel,
    instance: u8,
    /// The code guarding every word: the level's Table 2 code, or
    /// interleaved SECDED(39,32) under §6a.
    protection: Protection,
    /// Always a power of two, so a set index is a mask, not a divide.
    sets: u32,
    /// Taken from this thread's spare storage when it holds one of this
    /// size, and given back on drop.
    lines: Lines,
    stamp: u64,
    /// The chip whose weak cells the array carries.
    spec: ChipSpec,
    /// The weak-cell overlay, drawn on first need (`weak_cells`): at or
    /// above the repair clamp no access needs it.
    weak: OnceLock<WeakCellMap>,
    /// Weak cells already reported this run (dedupe: EDAC logs a location
    /// once per scrub interval, not once per access).
    reported: BTreeSet<(u32, u8, u8)>,
}

impl Drop for SetAssocCache {
    fn drop(&mut self) {
        // One hierarchy's worth per size: 16 L1 arrays, 4 L2s and the L3.
        let keep = match self.level {
            CacheLevel::L1I | CacheLevel::L1D => 2 * NUM_CORES,
            CacheLevel::L2 => NUM_PMDS,
            CacheLevel::L3 => 1,
        };
        mem::take(&mut self.lines).give_back(keep);
    }
}

impl SetAssocCache {
    /// Builds the array for `level` instance `instance` on chip `spec`.
    #[must_use]
    pub fn new(spec: ChipSpec, level: CacheLevel, instance: u8) -> Self {
        Self::with_protection(spec, level, instance, level.protection())
    }

    /// Builds the array guarded by `protection` instead of its level's
    /// Table 2 code.
    #[must_use]
    fn with_protection(
        spec: ChipSpec,
        level: CacheLevel,
        instance: u8,
        protection: Protection,
    ) -> Self {
        let sets = (level.capacity_bytes() / (LINE_BYTES * WAYS as usize)) as u32;
        assert!(
            sets.is_power_of_two(),
            "{level} has {sets} sets; set indexing needs a power of two"
        );
        let mut array = SetAssocCache {
            level,
            instance,
            protection,
            sets,
            lines: Lines::take(sets as usize),
            stamp: 0,
            spec,
            weak: OnceLock::new(),
            reported: BTreeSet::new(),
        };
        // Spare storage holds its last array's lines.
        array.reset();
        array
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

    /// The array's weak-cell overlay, drawn from the chip spec on the
    /// first call; the same chip always draws the same cells.
    #[must_use]
    pub fn weak_cells(&self) -> &WeakCellMap {
        self.weak.get_or_init(|| {
            WeakCellMap::generate(
                self.spec,
                self.level,
                usize::from(self.instance),
                self.sets,
                WAYS,
            )
        })
    }

    /// Whether every weak cell of the array holds at `supply_mv`, so no
    /// location can report anything. A cell fails only below its fail
    /// voltage, and repair clamps every fail voltage at
    /// [`SRAM_REPAIR_CLAMP_MV`], so at or above the clamp the answer needs
    /// no map.
    #[must_use]
    pub(crate) fn holds_at(&self, supply_mv: f64) -> bool {
        supply_mv >= SRAM_REPAIR_CLAMP_MV
            || self
                .weak_cells()
                .weakest_cell_vfail_mv()
                .is_none_or(|v| v <= supply_mv)
    }

    /// Invalidates all lines and clears run-scoped state (power cycle or
    /// new run).
    pub fn reset(&mut self) {
        // Tags and stamps stay as they are: an empty way's are never read.
        self.lines.valid.fill(0);
        self.lines.dirty.fill(0);
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
    #[inline(always)]
    pub fn access(&mut self, line_addr: u64, write: bool) -> LevelAccess {
        // `line_addr % sets`, as a mask: `sets` is a power of two.
        let set = (line_addr & u64::from(self.sets - 1)) as u32;
        let s = set as usize;
        self.stamp += 1;
        let lines = &mut self.lines;
        // Hit? Every way is compared, without a branch per way; the lowest
        // valid match is the way a linear scan would stop at.
        let mut matches = 0u8;
        for (way, &tag) in lines.tags[s].iter().enumerate() {
            matches |= u8::from(tag == line_addr) << way;
        }
        let hits = matches & lines.valid[s];
        if hits != 0 {
            let way = hits.trailing_zeros() as u8;
            lines.lru[s][usize::from(way)] = self.stamp;
            lines.dirty[s] |= u8::from(write) << way;
            return LevelAccess {
                hit: true,
                writeback: false,
                set,
                way,
            };
        }
        // Miss: the first empty way, else the least recently used one
        // (the lowest way on ties).
        let empty = !lines.valid[s];
        let victim = if empty != 0 {
            empty.trailing_zeros() as u8
        } else {
            let lru = &lines.lru[s];
            (1..WAYS).fold(0u8, |best, way| {
                if lru[usize::from(way)] < lru[usize::from(best)] {
                    way
                } else {
                    best
                }
            })
        };
        let bit = 1u8 << victim;
        let writeback = lines.dirty[s] & bit != 0;
        lines.tags[s][usize::from(victim)] = line_addr;
        lines.lru[s][usize::from(victim)] = self.stamp;
        lines.valid[s] |= bit;
        lines.dirty[s] = (lines.dirty[s] & !bit) | (u8::from(write) << victim);
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
    #[inline(always)]
    pub fn probe_faults(
        &mut self,
        set: u32,
        way: u8,
        word_in_line: u8,
        supply_mv: f64,
        edac: &mut EdacLog,
    ) -> FaultObservation {
        // Every access probes, and at or above the repair clamp every cell
        // holds (`holds_at`): only a probe below it makes a call.
        if supply_mv >= SRAM_REPAIR_CLAMP_MV {
            return FaultObservation::default();
        }
        self.probe_weak_cells(set, way, word_in_line, supply_mv, edac)
    }

    /// [`Self::probe_faults`] below the repair clamp: looks the location up
    /// in the weak-cell map.
    #[cold]
    #[inline(never)]
    fn probe_weak_cells(
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
        if self.holds_at(supply_mv) {
            return obs;
        }
        // Group failing cells at this location by word to evaluate the
        // per-word protection code.
        let mut per_word_flips: [u64; WORDS_PER_LINE as usize] = [0; WORDS_PER_LINE as usize];
        let mut any = false;
        for cell in self.weak_cells().failing_at(set, way, supply_mv) {
            per_word_flips[cell.word as usize] |= 1u64 << cell.bit;
            any = true;
        }
        if !any {
            return obs;
        }
        let dirty = self.lines.dirty[set as usize] & (1u8 << way) != 0;
        for (word, mask) in per_word_flips.iter().enumerate() {
            if *mask == 0 {
                continue;
            }
            let word = word as u8;
            let newly = self.reported.insert((set, way, word));
            // A parity hit refetches a clean line (corrected at the system
            // level); a dirty line is lost.
            let outcome = match check_flips(self.protection, *mask) {
                CheckOutcome::Uncorrected if self.protection == Protection::Parity && !dirty => {
                    CheckOutcome::Corrected
                }
                other => other,
            };
            match outcome {
                CheckOutcome::Clean => {}
                CheckOutcome::Corrected => {
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
                CheckOutcome::Uncorrected => {
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
                CheckOutcome::Undetected => {
                    if word == word_in_line {
                        obs.silent_corruption_mask ^= mask;
                    }
                }
            }
        }
        obs
    }
}

/// How `protection` reports a stored word whose data bits `flips` (a mask)
/// read back flipped: the code's own decoder decides. Each code is linear,
/// so an error pattern decodes the same way on every data word, and the
/// zero word stands for all of them.
fn check_flips(protection: Protection, flips: u64) -> CheckOutcome {
    let bits = (0..64).filter(|bit| flips >> bit & 1 == 1);
    match protection {
        Protection::Parity => {
            let mut word = ParityWord::store(0);
            bits.for_each(|bit| word.flip_data_bit(bit));
            word.check_against(0)
        }
        Protection::Secded => bits
            .fold(Codeword::encode(0), |word, bit| {
                word.with_flipped_data_bit(bit)
            })
            .check_against(0),
        Protection::InterleavedSecded => bits
            .fold(InterleavedWord::encode(0), |word, bit| {
                word.with_flipped_data_bit(bit)
            })
            .check_against(0),
    }
}

/// Result of a full hierarchy access, for counter accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HierarchyAccess {
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
    pub(crate) fn dram(&self) -> bool {
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
    pub(crate) fn with_protection(spec: ChipSpec, extended_ecc: bool) -> Self {
        let build = |level: CacheLevel, i| {
            let protection = if extended_ecc {
                Protection::InterleavedSecded
            } else {
                level.protection()
            };
            SetAssocCache::with_protection(spec, level, i, protection)
        };
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
    pub(crate) fn l1d(&self, core: CoreId) -> &SetAssocCache {
        &self.l1d[core.index()]
    }

    /// The PMD-shared L2 serving `core`.
    #[must_use]
    pub(crate) fn l2(&self, core: CoreId) -> &SetAssocCache {
        &self.l2[core.pmd().index()]
    }

    /// The chip-wide L3.
    #[must_use]
    pub(crate) fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// Invalidates everything (power cycle).
    pub(crate) fn reset(&mut self) {
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
    pub(crate) fn begin_run(&mut self) {
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
    ///
    /// Every load and store passes here, so the walk up to an L1D hit
    /// compiles into the op that issues it; a miss calls [`Self::below_l1`].
    #[inline(always)]
    pub(crate) fn data_access(
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
        self.below_l1(
            core,
            line,
            write,
            word_in_line,
            pmd_mv,
            soc_mv,
            edac,
            a1,
            faults,
        )
    }

    /// The rest of [`Self::data_access`] after an L1D miss, whose L1D
    /// placement is `a1`: walks L2 → L3 → DRAM, adding what each touched
    /// array observes to `faults`.
    #[inline(never)]
    #[expect(
        clippy::too_many_arguments,
        reason = "the L1D part of the walk hands over its whole state"
    )]
    fn below_l1(
        &mut self,
        core: CoreId,
        line: u64,
        write: bool,
        word_in_line: u8,
        pmd_mv: f64,
        soc_mv: f64,
        edac: &mut EdacLog,
        a1: LevelAccess,
        mut faults: FaultObservation,
    ) -> HierarchyAccess {
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
    pub(crate) fn inst_access(&mut self, core: CoreId, addr: u64) -> bool {
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
        assert!(edac.records().is_empty());
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
            !edac.records().is_empty(),
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
        assert!(!edac.records().is_empty());
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
        let mut enhanced =
            SetAssocCache::with_protection(spec, CacheLevel::L1D, 0, Protection::InterleavedSecded);
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

    /// `check_flips` decodes a flip pattern on the zero word. Each codec,
    /// run on a nonzero word, must report the same outcome for every
    /// data-flip pattern of weight 1 to 3.
    #[test]
    fn flips_classify_as_each_codec_decodes_them() {
        let data = 0x0123_4567_89AB_CDEF;
        let mut patterns = 0;
        let mut check = |bits: &[u32]| {
            let mut parity = ParityWord::store(data);
            let mut secded = Codeword::encode(data);
            let mut interleaved = InterleavedWord::encode(data);
            for &bit in bits {
                parity.flip_data_bit(bit);
                secded = secded.with_flipped_data_bit(bit);
                interleaved = interleaved.with_flipped_data_bit(bit);
            }
            let mask = bits.iter().fold(0u64, |mask, bit| mask | 1 << bit);
            for (protection, codec) in [
                (Protection::Parity, parity.check_against(data)),
                (Protection::Secded, secded.check_against(data)),
                (
                    Protection::InterleavedSecded,
                    interleaved.check_against(data),
                ),
            ] {
                assert_eq!(
                    check_flips(protection, mask),
                    codec,
                    "{protection:?}, flips {mask:#018x}"
                );
            }
            patterns += 1;
        };
        for a in 0..64 {
            check(&[a]);
            for b in a + 1..64 {
                check(&[a, b]);
                for c in b + 1..64 {
                    check(&[a, b, c]);
                }
            }
        }
        assert_eq!(patterns, 64 + 2_016 + 41_664);
    }

    #[test]
    fn inst_accesses_hit_after_first_touch() {
        let mut h = CacheHierarchy::new(spec());
        let core = CoreId::new(2);
        assert!(!h.inst_access(core, 4096));
        assert!(h.inst_access(core, 4096));
    }

    /// Every array of `spec`'s stock hierarchy, none of them accessed.
    fn arrays(spec: ChipSpec) -> Vec<SetAssocCache> {
        let CacheHierarchy { l1d, l1i, l2, l3 } = CacheHierarchy::new(spec);
        l1d.into_iter().chain(l1i).chain(l2).chain([l3]).collect()
    }

    /// The clamp test answers as the eagerly drawn map's weakest cell
    /// would, at every grid step and at each cell's own fail voltage.
    #[test]
    fn holds_at_matches_the_weakest_cell_rule() {
        for corner in [Corner::Ttt, Corner::Tff, Corner::Tss] {
            for serial in 0..16 {
                let spec = ChipSpec::new(corner, serial);
                for (gated, eager) in arrays(spec).iter().zip(&arrays(spec)) {
                    let map = eager.weak_cells();
                    let weakest = map.weakest_cell_vfail_mv();
                    let grid = (700..=980).step_by(5).map(f64::from);
                    for supply_mv in grid.chain(map.cells().iter().map(|c| c.vfail_mv)) {
                        assert_eq!(
                            gated.holds_at(supply_mv),
                            weakest.is_none_or(|w| w <= supply_mv),
                            "{spec:?} {} {} at {supply_mv} mV",
                            gated.level,
                            gated.instance
                        );
                    }
                }
            }
        }
    }

    /// At or above the repair clamp no probe needs the weak-cell map, so
    /// none is drawn.
    #[test]
    fn probes_at_or_above_the_clamp_draw_no_map() {
        for corner in [Corner::Ttt, Corner::Tff, Corner::Tss] {
            let mut edac = EdacLog::new();
            for mut array in arrays(ChipSpec::new(corner, 0)) {
                for supply_mv in [SRAM_REPAIR_CLAMP_MV, 900.0, 950.0, 980.0] {
                    for set in 0..array.sets {
                        for way in 0..WAYS {
                            let word = (set % u32::from(WORDS_PER_LINE)) as u8;
                            let obs = array.probe_faults(set, way, word, supply_mv, &mut edac);
                            assert_eq!(obs, FaultObservation::default());
                        }
                    }
                }
                assert!(
                    array.weak.get().is_none(),
                    "{corner:?} {} {} drew its map",
                    array.level,
                    array.instance
                );
            }
            assert!(edac.records().is_empty());
        }
    }
}
