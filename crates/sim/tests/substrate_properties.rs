//! Properties of the simulator substrate, checked over fixed seeded cases
//! (or their whole domain, where that is small).

#![allow(clippy::unwrap_used)]

use margins_ecc::parity::ParityWord;
use margins_ecc::secded::Codeword;
use margins_ecc::secded32::InterleavedWord;
use margins_ecc::CheckOutcome;
use margins_rng::splitmix64 as mix;
use margins_sim::cache::{CacheHierarchy, FaultObservation, LevelAccess, SetAssocCache, WAYS};
use margins_sim::calib::SRAM_REPAIR_CLAMP_MV;
use margins_sim::edac::{EdacKind, EdacLog, EdacRecord};
use margins_sim::faults::sram::WORDS_PER_LINE;
use margins_sim::freq::{Megahertz, TimingRegime, MAX_FREQ};
use margins_sim::machine::{Machine, MachineParams, MachineReport};
use margins_sim::topology::{CacheLevel, Protection, NUM_PMDS};
use margins_sim::volt::SupplyState;
use margins_sim::{
    ChipSpec, CoreId, Corner, Enhancements, Millivolts, OutputDigest, PmdId, Program, RunOutcome,
    RunRecord, System, SystemConfig,
};
use margins_trace::{EventBuffer, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Seeded cases per property: each runs a whole machine or cache.
const CASES: u64 = 32;

/// Runs `case` for every seed in `0..cases`. A failing case panics again
/// with its seed in front of the original message.
fn for_each_seed(cases: u64, mut case: impl FnMut(u64)) {
    for seed in 0..cases {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("seed {seed}: {message}");
        }
    }
}

fn params(seed: u64) -> MachineParams {
    MachineParams {
        core: CoreId::new(0),
        pmd_mv: 980.0,
        soc_mv: 950.0,
        regime: TimingRegime::FullSpeed,
        vcrit_mv: 886.0,
        thermal_shift_mv: 0.0,
        seed,
        enhancements: Enhancements::stock(),
    }
}

#[test]
fn cache_most_recent_line_always_hits() {
    for_each_seed(CASES, |mut state| {
        let mut cache = SetAssocCache::new(ChipSpec::new(Corner::Ttt, 0), CacheLevel::L1D, 0);
        for _ in 0..1 + mix(&mut state) % 199 {
            let line = mix(&mut state) % 10_000;
            cache.access(line, false);
            // An immediate re-access of the same line is always a hit.
            assert!(cache.access(line, false).hit, "line {line}");
        }
    });
}

#[test]
fn cache_placement_stays_inside_geometry() {
    for_each_seed(CASES, |mut state| {
        let mut cache = SetAssocCache::new(ChipSpec::new(Corner::Ttt, 0), CacheLevel::L2, 1);
        for _ in 0..1 + mix(&mut state) % 99 {
            let line = mix(&mut state);
            let a = cache.access(line, line.is_multiple_of(2));
            assert!(a.set < cache.sets());
            assert!(a.way < WAYS);
            assert_eq!(a.set, (line % u64::from(cache.sets())) as u32);
        }
    });
}

/// The tag array written the plain way: `Option<u64>` tags, a divide for
/// the set, a linear scan for the hit, and for the victim the first empty
/// way, else the lowest LRU stamp (the lowest way on ties).
struct ReferenceArray {
    sets: u64,
    tags: Vec<Option<u64>>,
    lru: Vec<u64>,
    dirty: Vec<bool>,
    stamp: u64,
}

impl ReferenceArray {
    fn new(sets: u32) -> Self {
        let slots = sets as usize * usize::from(WAYS);
        ReferenceArray {
            sets: u64::from(sets),
            tags: vec![None; slots],
            lru: vec![0; slots],
            dirty: vec![false; slots],
            stamp: 0,
        }
    }

    fn reset(&mut self) {
        self.tags.fill(None);
        self.lru.fill(0);
        self.dirty.fill(false);
        self.stamp = 0;
    }

    fn access(&mut self, line: u64, write: bool) -> LevelAccess {
        let set = line % self.sets;
        let base = set as usize * usize::from(WAYS);
        let ways = base..base + usize::from(WAYS);
        self.stamp += 1;
        if let Some(slot) = ways.clone().find(|&slot| self.tags[slot] == Some(line)) {
            self.lru[slot] = self.stamp;
            self.dirty[slot] |= write;
            return LevelAccess {
                hit: true,
                writeback: false,
                set: set as u32,
                way: (slot - base) as u8,
            };
        }
        let victim = ways
            .clone()
            .find(|&slot| self.tags[slot].is_none())
            .or_else(|| ways.min_by_key(|&slot| (self.lru[slot], slot)))
            .unwrap_or(base);
        let writeback = self.tags[victim].is_some() && self.dirty[victim];
        self.tags[victim] = Some(line);
        self.lru[victim] = self.stamp;
        self.dirty[victim] = write;
        LevelAccess {
            hit: false,
            writeback,
            set: set as u32,
            way: (victim - base) as u8,
        }
    }
}

#[test]
fn tag_array_matches_the_reference_model_at_every_level() {
    for level in [CacheLevel::L1D, CacheLevel::L2, CacheLevel::L3] {
        for_each_seed(8, |mut state| {
            let mut cache = SetAssocCache::new(ChipSpec::new(Corner::Ttt, 0), level, 0);
            let mut reference = ReferenceArray::new(cache.sets());
            let sets = u64::from(cache.sets());
            // Twelve lines each in the first set, the last set and one
            // random set: more than the ways, so every one of them evicts.
            // The first set's lines include 0 and the last set's u64::MAX.
            let home = mix(&mut state) % sets;
            let working: Vec<u64> = (0..12u64)
                .flat_map(|j| [j * sets, u64::MAX - j * sets, home + j * sets])
                .collect();
            for step in 0..4_000 {
                let r = mix(&mut state);
                if r.is_multiple_of(701) {
                    cache.reset();
                    reference.reset();
                    continue;
                }
                let line = match r % 8 {
                    0 => 0,
                    1 => u64::MAX,
                    2 | 3 => mix(&mut state),
                    _ => working[(r >> 8) as usize % working.len()],
                };
                let write = (r >> 40).is_multiple_of(3);
                assert_eq!(
                    cache.access(line, write),
                    reference.access(line, write),
                    "{level} step {step}: line {line:#x}, write {write}"
                );
            }
        });
    }
}

/// What `protection` reports for a word stored as `data` whose data bits
/// `flips` read back flipped, by running the codec itself.
fn codec_outcome(protection: Protection, data: u64, flips: u64) -> CheckOutcome {
    let bits = (0..64).filter(|bit| flips >> bit & 1 == 1);
    match protection {
        Protection::Parity => {
            let mut word = ParityWord::store(data);
            bits.for_each(|bit| word.flip_data_bit(bit));
            word.check_against(data)
        }
        Protection::Secded => bits
            .fold(Codeword::encode(data), |w, bit| {
                w.with_flipped_data_bit(bit)
            })
            .check_against(data),
        Protection::InterleavedSecded => bits
            .fold(InterleavedWord::encode(data), |w, bit| {
                w.with_flipped_data_bit(bit)
            })
            .check_against(data),
    }
}

/// What `probe_faults` must observe at `(set, way)` on a clean, never
/// probed array under stock protection, built from the weak-cell list:
/// a cell fails only when its fail voltage exceeds the supply, and each
/// faulty word is decoded by its level's codec.
fn reference_probe(
    cache: &SetAssocCache,
    instance: u8,
    (set, way, word_in_line): (u32, u8, u8),
    supply_mv: f64,
) -> (FaultObservation, Vec<EdacRecord>) {
    let mut flips = [0u64; WORDS_PER_LINE as usize];
    for c in cache.weak_cells().cells() {
        if c.set == set && c.way == way && c.vfail_mv > supply_mv {
            flips[usize::from(c.word)] |= 1 << c.bit;
        }
    }
    let mut obs = FaultObservation::default();
    let mut records = Vec::new();
    let level = cache.level();
    let protection = level.protection();
    for (word, mask) in flips.into_iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let kind = match codec_outcome(protection, 0x0123_4567_89AB_CDEF, mask) {
            CheckOutcome::Clean => continue,
            // A clean line refetches on a parity hit.
            CheckOutcome::Uncorrected if protection == Protection::Parity => {
                Some(EdacKind::Corrected)
            }
            CheckOutcome::Corrected => Some(EdacKind::Corrected),
            CheckOutcome::Uncorrected => Some(EdacKind::Uncorrected),
            CheckOutcome::Undetected => None,
        };
        let accessed = word == usize::from(word_in_line);
        match kind {
            Some(kind) => {
                if kind == EdacKind::Corrected {
                    obs.corrected += 1;
                } else {
                    obs.uncorrected += 1;
                    obs.poison |= accessed;
                }
                records.push(EdacRecord {
                    kind,
                    level,
                    instance,
                    set,
                    way,
                });
            }
            None if accessed => obs.silent_corruption_mask ^= mask,
            None => {}
        }
    }
    (obs, records)
}

#[test]
fn weak_cell_probes_are_exact_around_every_fail_voltage() {
    let chips = [
        ChipSpec::new(Corner::Ttt, 0),
        ChipSpec::new(Corner::Tff, 1),
        ChipSpec::new(Corner::Tss, 2),
    ];
    for spec in chips {
        for (level, instance) in [
            (CacheLevel::L1D, 3),
            (CacheLevel::L2, 1),
            (CacheLevel::L3, 0),
        ] {
            // `fresh` is never accessed, so every slot is clean.
            let fresh = SetAssocCache::new(spec, level, instance);
            let cells = fresh.weak_cells().cells();
            let mut cache = fresh.clone();
            let mut probe = |at: (u32, u8, u8), supply_mv: f64| {
                cache.begin_run();
                let mut edac = EdacLog::new();
                let obs = cache.probe_faults(at.0, at.1, at.2, supply_mv, &mut edac);
                (obs, edac.records().to_vec())
            };
            for cell in cells {
                let at = (cell.set, cell.way, cell.word);
                for supply_mv in [cell.vfail_mv + 5.0, cell.vfail_mv, cell.vfail_mv - 5.0] {
                    assert_eq!(
                        probe(at, supply_mv),
                        reference_probe(&fresh, instance, at, supply_mv),
                        "{spec:?} {level} cell {cell:?} at {supply_mv} mV"
                    );
                }
                // The comparison is strict: at exactly its fail voltage a
                // cell holds, so a location whose other cells are no
                // weaker reports nothing.
                let weaker_neighbour = cells
                    .iter()
                    .any(|c| c.set == cell.set && c.way == cell.way && c.vfail_mv > cell.vfail_mv);
                if !weaker_neighbour {
                    assert_eq!(
                        probe(at, cell.vfail_mv),
                        (FaultObservation::default(), Vec::new()),
                        "{spec:?} {level} cell {cell:?} fails at its own fail voltage"
                    );
                }
            }
            // At or above the array's weakest cell no slot reports anything;
            // repair keeps that voltage at or below the clamp.
            let Some(weakest) = fresh.weak_cells().weakest_cell_vfail_mv() else {
                continue;
            };
            assert!(weakest <= SRAM_REPAIR_CLAMP_MV, "{spec:?} {level}");
            for supply_mv in [weakest, weakest + 5.0] {
                for set in 0..fresh.sets() {
                    for way in 0..WAYS {
                        let at = (set, way, (set % u32::from(WORDS_PER_LINE)) as u8);
                        assert_eq!(
                            probe(at, supply_mv),
                            (FaultObservation::default(), Vec::new()),
                            "{spec:?} {level} ({set}, {way}) at {supply_mv} mV"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn working_set_smaller_than_associativity_never_misses_twice() {
    for_each_seed(CASES, |mut state| {
        let base = mix(&mut state) % 1_000_000;
        // ≤ WAYS distinct lines in distinct sets.
        for count in 1u64..8 {
            let mut cache = SetAssocCache::new(ChipSpec::new(Corner::Ttt, 0), CacheLevel::L1D, 0);
            let lines: Vec<u64> = (0..count).map(|k| base + k).collect();
            for &l in &lines {
                cache.access(l, false);
            }
            // A second pass over a tiny working set is all hits.
            for &l in &lines {
                assert!(cache.access(l, false).hit, "{count} lines from {base}");
            }
        }
    });
}

#[test]
fn machine_runs_are_deterministic_per_seed() {
    let digest = |seed: u64| {
        let mut caches = CacheHierarchy::new(ChipSpec::new(Corner::Ttt, 0));
        let mut edac = EdacLog::new();
        let mut m = Machine::new(params(seed), &mut caches, &mut edac);
        let base = m.alloc(64);
        let mut acc = 0.0f64;
        for i in 0..64u64 {
            m.store_f64(base.offset(i), i as f64);
            let v = m.load_f64(base.offset(i));
            acc = m.fma(v, 1.5, acc);
            let _ = m.branch(i % 2 == 0);
        }
        (acc.to_bits(), m.finalize().counters)
    };
    for_each_seed(CASES, |mut state| {
        let seed = mix(&mut state);
        let (a, ca) = digest(seed);
        let (b, cb) = digest(seed);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
    });
}

#[test]
fn nominal_machine_output_is_seed_independent() {
    // At nominal voltage no faults fire, so the computed value cannot
    // depend on the fault RNG seed.
    let value = |seed: u64| {
        let mut caches = CacheHierarchy::new(ChipSpec::new(Corner::Ttt, 0));
        let mut edac = EdacLog::new();
        let mut m = Machine::new(params(seed), &mut caches, &mut edac);
        let mut acc = 1.0f64;
        for _ in 0..500 {
            acc = m.fmul(acc, 1.001);
            acc = m.fadd(acc, 0.01);
        }
        acc.to_bits()
    };
    for_each_seed(CASES, |mut state| {
        assert_eq!(value(mix(&mut state)), value(mix(&mut state)));
    });
}

#[test]
fn supply_state_rejects_exactly_offstep_or_above_nominal() {
    for mv in 0u32..1100 {
        let mut s = SupplyState::nominal();
        let result = s.set_pmd(Millivolts::new(mv));
        let should_succeed = mv % 5 == 0 && mv <= 980;
        assert_eq!(result.is_ok(), should_succeed, "{mv}mV");
    }
}

#[test]
fn chip_variation_is_pure() {
    for corner in [Corner::Ttt, Corner::Tff, Corner::Tss] {
        for_each_seed(CASES, |mut state| {
            let serial = mix(&mut state);
            let a = ChipSpec::new(corner, serial).variation();
            let b = ChipSpec::new(corner, serial).variation();
            assert_eq!(&a, &b, "{corner:?}#{serial}");
            // Divided-regime collapse is corner- and serial-independent.
            assert_eq!(
                a.vcrit_mv(CoreId::new(3), TimingRegime::Divided).to_bits(),
                760.0f64.to_bits(),
                "{corner:?}#{serial}"
            );
        });
    }
}

/// Writes, then reads back, one word in each of `lines` consecutive cache
/// lines, so every level down to the L3 is filled.
struct LineSweep {
    lines: u64,
    /// Panics after the writes instead of returning, leaving whatever they
    /// logged in the EDAC log.
    abort: bool,
}

impl Program for LineSweep {
    fn name(&self) -> &str {
        "line-sweep"
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        let stride = u64::from(WORDS_PER_LINE);
        let base = m.alloc((self.lines * stride) as usize);
        for i in 0..self.lines {
            m.store_f64(base.offset(i * stride), i as f64);
        }
        assert!(!self.abort, "line-sweep aborted mid-run");
        let mut acc = 0.0;
        for i in 0..self.lines {
            let v = m.load_f64(base.offset(i * stride));
            acc = m.fadd(acc, v);
            let _ = m.branch(i % 3 == 0);
        }
        let mut digest = OutputDigest::new();
        digest.absorb_f64(acc);
        digest
    }
}

/// Everything observable about a board between runs; floats as bits.
#[derive(Debug, PartialEq)]
struct BoardState {
    boot_count: u32,
    energy_bits: (u64, u64),
    supplies: SupplyState,
    pmd_clocks: Vec<Megahertz>,
    responsive: bool,
    die_temp_bits: u64,
}

fn board_state(sys: &mut System) -> BoardState {
    let meter = sys.energy_meter();
    BoardState {
        boot_count: sys.boot_count(),
        energy_bits: (meter.joules().to_bits(), meter.seconds().to_bits()),
        supplies: sys.supplies(),
        pmd_clocks: PmdId::all().map(|pmd| sys.pmd_frequency(pmd)).collect(),
        responsive: sys.is_responsive(),
        die_temp_bits: sys.slimpro_mut().read_die_temperature_c().to_bits(),
    }
}

/// One run of a board-driving sequence: rails and clock, then the run.
#[derive(Debug, Clone, Copy)]
struct Step {
    core: CoreId,
    pmd_mv: u32,
    soc_mv: u32,
    mhz: u32,
    seed: u64,
}

/// Drives `sys` through one step the way the watchdog loop does: a hung
/// board is power-cycled first.
fn drive(sys: &mut System, step: Step) -> RunRecord {
    if !sys.is_responsive() {
        sys.power_cycle();
    }
    let mut slimpro = sys.slimpro_mut();
    slimpro
        .set_pmd_frequency(step.core.pmd(), Megahertz::new(step.mhz))
        .unwrap();
    slimpro
        .set_pmd_voltage(Millivolts::new(step.pmd_mv))
        .unwrap();
    slimpro
        .set_soc_voltage(Millivolts::new(step.soc_mv))
        .unwrap();
    let sweep = LineSweep {
        lines: 4096,
        abort: false,
    };
    sys.run(&sweep, step.core, step.seed).unwrap()
}

/// A seeded sequence in four kinds of step: nominal; the SoC rail low
/// enough for L3 weak cells; the PMD rail low enough for L2 weak cells
/// and timing faults, so that runs crash and hang; the divided clock.
fn steps(mut state: u64, n: usize) -> Vec<Step> {
    (0..n)
        .map(|i| {
            let r = mix(&mut state);
            let (pmd_mv, soc_mv, mhz) = match i % 4 {
                0 => (980, 950, 2400),
                1 => (980, 760, 2400),
                2 => (850 - 5 * ((r >> 8) % 2) as u32, 950, 2400),
                _ => (900, 900, 1200),
            };
            Step {
                core: CoreId::new((r % 8) as u8),
                pmd_mv,
                soc_mv,
                mhz,
                seed: mix(&mut state),
            }
        })
        .collect()
}

/// Leaves `sys` with every kind of volatile state a campaign can leave
/// behind: warm caches, thermal history under a changed setpoint, a
/// running energy meter, power cycles, rails and clocks off nominal, and
/// either a hung board or EDAC records that no run drained (a run can
/// only start on a responsive board, so one history cannot end with
/// both). Returns the EDAC levels it saw.
fn live_through(sys: &mut System, state: &mut u64, end_hung: bool) -> Vec<String> {
    let events = Arc::new(EventBuffer::new());
    sys.set_observer(events.clone());
    sys.pmpro_mut().set_temperature_setpoint(50.0);
    for step in steps(mix(state), 32) {
        drive(sys, step);
    }
    let core = CoreId::new(4);
    if end_hung {
        for _ in 0..100 {
            let step = Step {
                core,
                pmd_mv: 840,
                soc_mv: 950,
                mhz: 2400,
                seed: mix(state),
            };
            if drive(sys, step).outcome == RunOutcome::SystemCrashed {
                break;
            }
        }
        assert!(!sys.is_responsive(), "840 mV must hang the board");
    } else {
        sys.slimpro_mut()
            .set_soc_voltage(Millivolts::new(760))
            .unwrap();
        let sweep = LineSweep {
            lines: 8192,
            abort: true,
        };
        let seed = mix(state);
        let aborted = catch_unwind(AssertUnwindSafe(|| sys.run(&sweep, core, seed)));
        assert!(aborted.is_err(), "the aborting sweep must panic");
    }
    let mut slimpro = sys.slimpro_mut();
    slimpro
        .set_pmd_frequency(PmdId::new(1), Megahertz::new(600))
        .unwrap();
    slimpro.set_pmd_voltage(Millivolts::new(905)).unwrap();
    slimpro.set_soc_voltage(Millivolts::new(910)).unwrap();
    events
        .drain()
        .into_iter()
        .filter_map(|event| match event {
            TraceEvent::CacheErrorReported { level, .. } => Some(level),
            _ => None,
        })
        .collect()
}

#[test]
fn a_reinitialized_board_equals_a_new_board() {
    let stock = SystemConfig::default();
    let enhanced = SystemConfig {
        enhancements: Enhancements::all(),
    };
    // `live_through` moves the fan controller's setpoint, which
    // reinitialization must undo.
    let boards = [
        (ChipSpec::new(Corner::Ttt, 0), stock),
        (ChipSpec::new(Corner::Tff, 1), stock),
        (ChipSpec::new(Corner::Tss, 2), stock),
        (ChipSpec::new(Corner::Ttt, 3), enhanced),
    ];
    for (spec, config) in boards {
        let mut state = spec.component_seed("reinitialize");
        let mut used = System::new(spec, config);
        for end_hung in [true, false] {
            let edac_levels = live_through(&mut used, &mut state, end_hung);
            // On the slow corner every run low enough for an L2 weak cell
            // crashes before its sweep gets there.
            let rails: &[&str] = if spec.corner() == Corner::Tss {
                &["L3"]
            } else {
                &["L2", "L3"]
            };
            for level in rails {
                assert!(
                    edac_levels.iter().any(|l| l == level),
                    "{spec:?}: the history logged no {level} EDAC record"
                );
            }
            // The observer a board carries survives reinitialization.
            let used_events = Arc::new(EventBuffer::new());
            used.set_observer(used_events.clone());
            used.reinitialize();

            let new_events = Arc::new(EventBuffer::new());
            let mut new = System::new(spec, config);
            new.set_observer(new_events.clone());
            let context = format!("{spec:?} {config:?}, history ending hung: {end_hung}");
            // `System::new` ends in `reinitialize` too, so the power-on
            // state is also spelled out here.
            let power_on = BoardState {
                boot_count: 1,
                energy_bits: (0, 0),
                supplies: SupplyState::nominal(),
                pmd_clocks: vec![MAX_FREQ; NUM_PMDS],
                responsive: true,
                // The die starts at the §3.1 setpoint, 43 °C.
                die_temp_bits: 43.0_f64.to_bits(),
            };
            assert_eq!(board_state(&mut new), power_on, "{context}");
            assert_eq!(board_state(&mut used), power_on, "{context}");
            for step in steps(mix(&mut state), 16) {
                assert_eq!(
                    drive(&mut used, step),
                    drive(&mut new, step),
                    "{context}: {step:?}"
                );
                assert_eq!(
                    board_state(&mut used),
                    board_state(&mut new),
                    "{context}: after {step:?}"
                );
            }
            let events = new_events.drain();
            assert!(!events.is_empty(), "{context}: the sequence reports events");
            assert_eq!(used_events.drain(), events, "{context}");
        }
    }
}

/// Leaves this thread's spare list holding the line storage of a board of
/// `spec` that lived through both of `live_through`'s histories.
fn retire_used_board(spec: ChipSpec, config: SystemConfig) {
    let mut state = spec.component_seed("recycle");
    let mut used = System::new(spec, config);
    for end_hung in [true, false] {
        live_through(&mut used, &mut state, end_hung);
    }
}

/// Runs `run` on this thread, then on a new thread, whose spare list is
/// empty, so its arrays get new storage.
fn here_and_on_a_new_thread<T: Send>(run: impl Fn() -> T + Sync) -> (T, T) {
    let here = run();
    let new = std::thread::scope(|s| s.spawn(&run).join()).unwrap();
    (here, new)
}

/// Sweeps a bare machine over a new stock hierarchy of `spec`, which no
/// board resets: at nominal, with the PMD rail below the repair clamp and
/// with the SoC rail deep, timing faults off, each on a core of another
/// PMD. Returns each sweep's digest, report and EDAC records.
fn bare_sweeps(spec: ChipSpec) -> Vec<(OutputDigest, MachineReport, Vec<EdacRecord>)> {
    let mut caches = CacheHierarchy::new(spec);
    [(980.0, 950.0), (850.0, 950.0), (980.0, 760.0)]
        .into_iter()
        .enumerate()
        .map(|(seed, (pmd_mv, soc_mv))| {
            let mut edac = EdacLog::new();
            let params = MachineParams {
                core: CoreId::new(2 * seed as u8),
                pmd_mv,
                soc_mv,
                vcrit_mv: 700.0,
                ..params(seed as u64)
            };
            let mut machine = Machine::new(params, &mut caches, &mut edac);
            let sweep = LineSweep {
                lines: 4096,
                abort: false,
            };
            let digest = sweep.run(&mut machine);
            (digest, machine.finalize(), edac.records().to_vec())
        })
        .collect()
}

/// Runs a fixed seeded `steps` sequence (nominal, a deep SoC step, a PMD
/// step below the repair clamp, the divided clock) on a new board of
/// `spec`, and returns every run record, the board before and after each
/// run, and the events the board recorded.
fn fixed_sequence(
    spec: ChipSpec,
    config: SystemConfig,
) -> (Vec<RunRecord>, Vec<BoardState>, Vec<TraceEvent>) {
    let events = Arc::new(EventBuffer::new());
    let mut sys = System::new(spec, config);
    sys.set_observer(events.clone());
    let mut records = Vec::new();
    let mut boards = vec![board_state(&mut sys)];
    for step in steps(0x5EED, 12) {
        records.push(drive(&mut sys, step));
        boards.push(board_state(&mut sys));
    }
    (records, boards, events.drain())
}

#[test]
fn recycled_line_storage_runs_as_fresh_storage() {
    let enhanced = SystemConfig {
        enhancements: Enhancements::all(),
    };
    // Each used board is dropped before the arrays under test are built on
    // the same thread, which then take its line storage.
    let cases = [
        (
            (ChipSpec::new(Corner::Tss, 2), SystemConfig::default()),
            (ChipSpec::new(Corner::Ttt, 5), enhanced),
        ),
        (
            (ChipSpec::new(Corner::Tss, 6), enhanced),
            (ChipSpec::new(Corner::Tff, 4), SystemConfig::default()),
        ),
    ];
    for ((used_spec, used_config), (spec, config)) in cases {
        let context = format!("{spec:?} {config:?} after {used_spec:?} {used_config:?}");
        let logged = |levels: Vec<String>| {
            for level in ["L2", "L3"] {
                assert!(
                    levels.iter().any(|l| l == level),
                    "{context}: the sequence logged no {level} EDAC record"
                );
            }
        };

        // Bare arrays: nothing but their constructor clears the storage.
        retire_used_board(used_spec, used_config);
        let (recycled, new) = here_and_on_a_new_thread(|| bare_sweeps(spec));
        logged(
            new.iter()
                .flat_map(|(_, _, records)| records.iter().map(|r| r.level.to_string()))
                .collect(),
        );
        assert_eq!(recycled, new, "{context}: bare arrays");

        // A board, whose protection comes from its own config.
        retire_used_board(used_spec, used_config);
        let (recycled, new) = here_and_on_a_new_thread(|| fixed_sequence(spec, config));
        logged(
            new.2
                .iter()
                .filter_map(|event| match event {
                    TraceEvent::CacheErrorReported { level, .. } => Some(level.clone()),
                    _ => None,
                })
                .collect(),
        );
        assert_eq!(recycled, new, "{context}: a board");
    }
}
