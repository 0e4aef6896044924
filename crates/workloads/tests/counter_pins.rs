//! Pins every PMU counter of every accounting path of the simulated machine.
//!
//! Each run below folds its outcome, output digest, retired instructions,
//! cycles, fault samples and all 101 counters into one 64-bit digest with
//! `margins_rng::splitmix64`. The expected digests were recorded while the
//! machine still wrote its counter file op by op, so they pin the counter
//! map in `Machine::finalize` to that bookkeeping, bit for bit, but for one
//! deliberate change since: a divide issued on a halted machine no longer
//! adds issue-stall cycles, as a square root never did.
//!
//! The runs cover every early return of the op path: a boot collapse,
//! segfaulting loads and stores, SoC-logic crashes, poisoned loads, timing
//! AC/SC and SDC runs, a §6-enhanced chip, and ops issued after a halt.
//! A run's table is printed when it drifts, so a change that means to move
//! a counter can show what moved.
//!
//! The same runs pin the op path's floating-point results, which the
//! counter fold leaves out: the modelled runtime and energy, the stress
//! mass, the fault and error tallies, and the fault-free summary a replay
//! reads (the droop-weighted segment masses behind it, the samples, the SoC
//! trials and the mean activity), bit for bit.

use margins_rng::splitmix64;
use margins_sim::machine::Machine;
use margins_sim::{
    ChipSpec, CoreId, Corner, Enhancements, Megahertz, Millivolts, OutputDigest, PmdId, PmuEvent,
    Program, RunOutcome, RunRecord, System, SystemConfig,
};
use margins_workloads::suite::{self, Dataset};
use std::sync::OnceLock;

/// The events no op of the simulator drives: they read zero in every run.
const UNDRIVEN: [PmuEvent; 20] = [
    PmuEvent::SwIncr,
    PmuEvent::UnalignedLdstRetired,
    PmuEvent::ExcUndef,
    PmuEvent::ExcSvc,
    PmuEvent::CidWriteRetired,
    PmuEvent::TtbrWriteRetired,
    PmuEvent::BrReturnRetired,
    PmuEvent::FpCvtRetired,
    PmuEvent::SimdInstRetired,
    PmuEvent::CryptoSpec,
    PmuEvent::L2DTlbRefill,
    PmuEvent::TlbFlush,
    PmuEvent::DramRefreshStall,
    PmuEvent::SnoopProbe,
    PmuEvent::CoherencyMiss,
    PmuEvent::ExclusiveFail,
    PmuEvent::ExclusivePass,
    PmuEvent::WfiWfeCycles,
    PmuEvent::CpuMigrations,
    PmuEvent::AlignmentFaults,
];

/// A program defined by one function, for paths no kernel reaches.
struct Scripted {
    name: &'static str,
    body: fn(&mut Machine<'_>) -> OutputDigest,
}

impl Program for Scripted {
    fn name(&self) -> &str {
        self.name
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        (self.body)(m)
    }
}

/// One op of every kind but loads and stores, so that a halted machine
/// is issued each kind too.
fn every_arithmetic_op(m: &mut Machine<'_>, d: &mut OutputDigest) {
    d.absorb_f64(m.fadd(1.5, 2.25));
    d.absorb_f64(m.fsub(1.5, 2.25));
    d.absorb_f64(m.fmul(1.5, 2.25));
    d.absorb_f64(m.fma(1.5, 2.25, 0.5));
    d.absorb_f64(m.fdiv(1.5, 2.25));
    d.absorb_f64(m.fsqrt(2.25));
    d.absorb_u64(m.iadd(7, 5));
    d.absorb_u64(m.isub(7, 5));
    d.absorb_u64(m.imul(7, 5));
    d.absorb_u64(m.idiv(7, 5));
    d.absorb_u64(m.iand(7, 5));
    d.absorb_u64(m.ior(7, 5));
    d.absorb_u64(m.ixor(7, 5));
    d.absorb_u64(m.ishl(7, 5));
    d.absorb_u64(m.ishr(7, 5));
    d.absorb_u64(u64::from(m.branch(true)));
    m.indirect_branch(0x9000);
}

/// Fills a small array, then accesses one word past it: a segfault. The ops
/// after it run on the halted machine, `fdiv` among them.
fn segfault(m: &mut Machine<'_>, write: bool) -> OutputDigest {
    let mut d = OutputDigest::new();
    let base = m.alloc(64);
    for i in 0..64 {
        m.store_u64(base.offset(i), i * 3);
    }
    every_arithmetic_op(m, &mut d);
    if write {
        m.store_u64(base.offset(64), 1);
    } else {
        d.absorb_u64(m.load_u64(base.offset(64)));
    }
    every_arithmetic_op(m, &mut d);
    d
}

fn segfault_load(m: &mut Machine<'_>) -> OutputDigest {
    segfault(m, false)
}

fn segfault_store(m: &mut Machine<'_>) -> OutputDigest {
    segfault(m, true)
}

/// Dirties twice the L3's capacity, one store per line, so dirty lines
/// are written back out of every level; then reads a strided sample back
/// and jumps through a small indirect-target table.
fn dirty_stream(m: &mut Machine<'_>) -> OutputDigest {
    const WORDS: u64 = 2 << 20;
    let mut d = OutputDigest::new();
    let base = m.alloc(WORDS as usize);
    for line in 0..WORDS / 8 {
        m.store_u64(base.offset(line * 8), line);
    }
    let mut acc = 0;
    for line in (0..WORDS / 8).step_by(61) {
        let v = m.load_u64(base.offset(line * 8));
        acc = m.iadd(acc, v);
    }
    d.absorb_u64(acc);
    for i in 0..64u64 {
        m.indirect_branch(0x7000 + (i % 5) * 64);
    }
    every_arithmetic_op(m, &mut d);
    d
}

const SEGFAULT_LOAD: Scripted = Scripted {
    name: "segfault-load",
    body: segfault_load,
};
const SEGFAULT_STORE: Scripted = Scripted {
    name: "segfault-store",
    body: segfault_store,
};
const DIRTY_STREAM: Scripted = Scripted {
    name: "dirty-stream",
    body: dirty_stream,
};

fn kernel(name: &str) -> Box<dyn Program> {
    suite::by_name(name, Dataset::Ref).expect("kernel exists")
}

/// One pinned run on a fresh TTT#0 board.
struct Setup {
    enhancements: Enhancements,
    core: u8,
    pmd_mv: u32,
    soc_mv: u32,
    /// Clock of the core's PMD, MHz (≤ 1200 is the divided regime).
    mhz: u32,
    seed: u64,
}

impl Setup {
    fn at(pmd_mv: u32, seed: u64) -> Self {
        Setup {
            enhancements: Enhancements::stock(),
            core: 0,
            pmd_mv,
            soc_mv: 950,
            mhz: 2400,
            seed,
        }
    }

    fn run(&self, program: &dyn Program) -> RunRecord {
        let config = SystemConfig {
            enhancements: self.enhancements,
        };
        let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), config);
        let core = CoreId::new(self.core);
        let pmd: PmdId = core.pmd();
        let mut slimpro = sys.slimpro_mut();
        slimpro
            .set_pmd_frequency(pmd, Megahertz::new(self.mhz))
            .expect("valid clock");
        slimpro
            .set_pmd_voltage(Millivolts::new(self.pmd_mv))
            .expect("valid PMD voltage");
        slimpro
            .set_soc_voltage(Millivolts::new(self.soc_mv))
            .expect("valid SoC voltage");
        sys.run(program, core, self.seed)
            .expect("a fresh board responds")
    }
}

fn outcome_code(outcome: RunOutcome) -> u64 {
    match outcome {
        RunOutcome::Completed => 0,
        RunOutcome::AppCrashed => 1,
        RunOutcome::SystemCrashed => 2,
    }
}

/// Folds everything the counter bookkeeping can move into one word.
fn run_digest(r: &RunRecord) -> u64 {
    let fields = [
        outcome_code(r.outcome),
        r.digest.value(),
        r.instructions,
        r.cycles,
        r.fault_samples,
    ];
    fields
        .into_iter()
        .chain(r.counters.iter().map(|(_, n)| n))
        .fold(0, |h, v| splitmix64(&mut (h ^ v)))
}

/// Stands in for the fault-free summary of a run that has none.
const NO_SUMMARY: u64 = 0xfa17_ab5e_0000_0001;

/// Folds the op path's floating-point results and fault tallies into one
/// word: every f64 by its bits.
fn float_digest(r: &RunRecord) -> u64 {
    let summary = match r.fault_free {
        Some(f) => vec![
            f.timing.head.to_bits(),
            f.timing.tail.to_bits(),
            f.timing.samples,
            f.soc_trials,
            f.mean_activity.to_bits(),
        ],
        None => vec![NO_SUMMARY],
    };
    [
        r.runtime_s.to_bits(),
        r.energy_j.to_bits(),
        r.stress_mass.to_bits(),
        u64::from(r.timing_faults),
        u64::from(r.silent_corruptions),
        r.corrected_errors as u64,
        r.uncorrected_errors as u64,
    ]
    .into_iter()
    .chain(summary)
    .fold(0, |h, v| splitmix64(&mut (h ^ v)))
}

/// Every pinned run, labelled; every test shares one set.
fn pinned_runs() -> &'static [(String, RunRecord)] {
    static RUNS: OnceLock<Vec<(String, RunRecord)>> = OnceLock::new();
    RUNS.get_or_init(take_pinned_runs)
}

fn take_pinned_runs() -> Vec<(String, RunRecord)> {
    let mut runs = Vec::new();

    // The 40 prediction samples at nominal on TTT#0 core 0, back to back on
    // one board, as the profile runner takes them.
    let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
    for p in suite::prediction_suite() {
        let r = sys.run(p.as_ref(), CoreId::new(0), 7).expect("responsive");
        runs.push((format!("nominal {}/{}", p.name(), p.dataset()), r));
    }

    // Undervolted timing faults: SDC, AC and SC endings; xalancbmk is the
    // kernel that takes indirect branches.
    for name in ["bwaves", "namd", "xalancbmk"] {
        let program = kernel(name);
        for mv in [860, 870, 880] {
            for seed in 1..=3 {
                let r = Setup::at(mv, seed).run(program.as_ref());
                runs.push((format!("pmd {mv} mV {name} seed {seed}"), r));
            }
        }
    }

    // A deep SoC rail crashes L3-reaching traffic: the SoC-logic early
    // return. A mid-band SoC rail reports L3 ECC errors instead.
    for (soc_mv, name) in [(725, "mcf"), (725, "lbm"), (800, "selftest-l3")] {
        let program = kernel(name);
        for seed in 1..=4 {
            let setup = Setup {
                soc_mv,
                ..Setup::at(980, seed)
            };
            let r = setup.run(program.as_ref());
            runs.push((format!("soc {soc_mv} mV {name} seed {seed}"), r));
        }
    }

    // Weak L1/L2 cells at a deep PMD rail: corrected, uncorrected and
    // poisoned reads on the stock arrays and on extended ECC.
    for name in ["selftest-l1d", "selftest-l2"] {
        let program = kernel(name);
        for extended_ecc in [false, true] {
            for seed in 1..=3 {
                let setup = Setup {
                    enhancements: Enhancements {
                        extended_ecc,
                        ..Enhancements::stock()
                    },
                    core: 2,
                    ..Setup::at(850, seed)
                };
                let r = setup.run(program.as_ref());
                runs.push((
                    format!("sram 850 mV {name} ecc {extended_ecc} seed {seed}"),
                    r,
                ));
            }
        }
    }

    // An enhanced chip: residue-check retries, adaptive clocking, extended
    // ECC.
    for name in ["bwaves", "namd"] {
        let program = kernel(name);
        for seed in 1..=3 {
            let setup = Setup {
                enhancements: Enhancements::all(),
                ..Setup::at(870, seed)
            };
            let r = setup.run(program.as_ref());
            runs.push((format!("enhanced 870 mV {name} seed {seed}"), r));
        }
    }

    // The divided clock regime: safe above the collapse voltage, a boot
    // collapse below it.
    for mv in [800, 750] {
        let setup = Setup {
            mhz: 1200,
            ..Setup::at(mv, 1)
        };
        let r = setup.run(kernel("namd").as_ref());
        runs.push((format!("divided {mv} mV namd"), r));
    }

    // Paths no kernel takes: segfaults in both directions followed by ops
    // on the halted machine, and write-backs out of the L3.
    for program in [SEGFAULT_LOAD, SEGFAULT_STORE, DIRTY_STREAM] {
        let r = Setup::at(980, 1).run(&program);
        runs.push((format!("scripted {}", program.name()), r));
    }
    runs
}

/// `(label, digest)` for every pinned run, recorded from op-by-op counting.
/// Six were re-recorded when `ISSUE_STALL_CYCLES` stopped counting divides
/// issued on a halted machine: the two scripted segfault runs and the four
/// bwaves runs that call `fdiv` after their crash.
const PINNED: &[(&str, u64)] = &[
    ("nominal bwaves/ref", 0xd4ceecba2173b0ee),
    ("nominal bwaves/train", 0x878a98c8e25a4eac),
    ("nominal cactusADM/ref", 0xdd358ccf25aae772),
    ("nominal cactusADM/train", 0x2effa359a3a69976),
    ("nominal dealII/ref", 0xa5e33d0ac16d7db3),
    ("nominal dealII/train", 0x00e3c7a8dbeeb991),
    ("nominal gromacs/ref", 0xe6b29431afdfb8f8),
    ("nominal gromacs/train", 0x7526bf7578e78c87),
    ("nominal leslie3d/ref", 0x2adf73994bfe2045),
    ("nominal leslie3d/train", 0x05954f0baf7e13d8),
    ("nominal mcf/ref", 0xcc912fdf4f17d463),
    ("nominal mcf/train", 0x93e965ad248f076c),
    ("nominal milc/ref", 0xf550e033b9af7c07),
    ("nominal milc/train", 0xabac4f4605e62337),
    ("nominal namd/ref", 0x8f75e4781dc90c4e),
    ("nominal namd/train", 0x9237f0134c821156),
    ("nominal soplex/ref", 0x401f525ad1f431ed),
    ("nominal soplex/train", 0xeca6d0eab7ea4405),
    ("nominal zeusmp/ref", 0x9bd39a17334f6e17),
    ("nominal zeusmp/train", 0x78105263ea3cd828),
    ("nominal lbm/ref", 0xfa747f9960ce2d69),
    ("nominal GemsFDTD/ref", 0xd34ca75fc61d838c),
    ("nominal calculix/ref", 0x48ab5538f0b88f25),
    ("nominal tonto/ref", 0x115e114562ddc605),
    ("nominal gamess/ref", 0x0975669de8724ec3),
    ("nominal gcc/ref", 0x5590a6a6c8b44934),
    ("nominal gcc/train", 0xbd868fa42e86ca5a),
    ("nominal gobmk/ref", 0x2569afbd2d918735),
    ("nominal sjeng/ref", 0xf3c83a1b2cc62452),
    ("nominal hmmer/ref", 0xa5b6fad23e060a67),
    ("nominal hmmer/train", 0xe36d7754f9d7ca4b),
    ("nominal libquantum/ref", 0x403813cd1031ddc3),
    ("nominal h264ref/ref", 0x44e0e6b633330d8b),
    ("nominal h264ref/train", 0x575886620ed0ea06),
    ("nominal omnetpp/ref", 0x3dfa2f3e4e9d1312),
    ("nominal astar/ref", 0x70f2568ab0084219),
    ("nominal bzip2/ref", 0x5368cb9c254c504a),
    ("nominal bzip2/train", 0xc058daa33c5d149c),
    ("nominal xalancbmk/ref", 0x7d8506924ef62efd),
    ("nominal perlbench/ref", 0x1e873a1e0eaee895),
    ("pmd 860 mV bwaves seed 1", 0x5a988648f6511433),
    ("pmd 860 mV bwaves seed 2", 0x1d6dc687a7f7ca43),
    ("pmd 860 mV bwaves seed 3", 0x5a988648f6511433),
    ("pmd 870 mV bwaves seed 1", 0x7c9dace0b219a6f5),
    ("pmd 870 mV bwaves seed 2", 0x99750acdf65e4cad),
    ("pmd 870 mV bwaves seed 3", 0xabdce7a4891d4431),
    ("pmd 880 mV bwaves seed 1", 0xf8bb6fdbd02af677),
    ("pmd 880 mV bwaves seed 2", 0x9a43d6ccdb95ef01),
    ("pmd 880 mV bwaves seed 3", 0xb27853e39a5c8835),
    ("pmd 860 mV namd seed 1", 0x5a988648f6511433),
    ("pmd 860 mV namd seed 2", 0x8b7442c8d2364e0f),
    ("pmd 860 mV namd seed 3", 0x5a988648f6511433),
    ("pmd 870 mV namd seed 1", 0xe70f1ee871eee912),
    ("pmd 870 mV namd seed 2", 0x416f9993cb7d6d2e),
    ("pmd 870 mV namd seed 3", 0x33597825e9ad5df5),
    ("pmd 880 mV namd seed 1", 0xfde950024ea01b4f),
    ("pmd 880 mV namd seed 2", 0xef8b2d799a3d4ebf),
    ("pmd 880 mV namd seed 3", 0x82c4b4d2c7d7c63a),
    ("pmd 860 mV xalancbmk seed 1", 0x5a988648f6511433),
    ("pmd 860 mV xalancbmk seed 2", 0xae638fc6503dd830),
    ("pmd 860 mV xalancbmk seed 3", 0x5a988648f6511433),
    ("pmd 870 mV xalancbmk seed 1", 0x020de195e95e7e8a),
    ("pmd 870 mV xalancbmk seed 2", 0xa15656df7a146b24),
    ("pmd 870 mV xalancbmk seed 3", 0x85251a195affdcd1),
    ("pmd 880 mV xalancbmk seed 1", 0x34b23896b7542992),
    ("pmd 880 mV xalancbmk seed 2", 0x21bd19f3769b8872),
    ("pmd 880 mV xalancbmk seed 3", 0xa12b2431cf7e5048),
    ("soc 725 mV mcf seed 1", 0x3215177f5863868b),
    ("soc 725 mV mcf seed 2", 0xf87174a97003fed4),
    ("soc 725 mV mcf seed 3", 0xc6c9c7563bb246c7),
    ("soc 725 mV mcf seed 4", 0xff5f1a89c9e66b35),
    ("soc 725 mV lbm seed 1", 0x2821b784f063fa2a),
    ("soc 725 mV lbm seed 2", 0xa033d5c0423869da),
    ("soc 725 mV lbm seed 3", 0x23755e4d743751dc),
    ("soc 725 mV lbm seed 4", 0xe9ea59c5984e4328),
    ("soc 800 mV selftest-l3 seed 1", 0xaca7e89eb03af054),
    ("soc 800 mV selftest-l3 seed 2", 0xaca7e89eb03af054),
    ("soc 800 mV selftest-l3 seed 3", 0xaca7e89eb03af054),
    ("soc 800 mV selftest-l3 seed 4", 0xaca7e89eb03af054),
    (
        "sram 850 mV selftest-l1d ecc false seed 1",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l1d ecc false seed 2",
        0xa29a718bc76a99e0,
    ),
    (
        "sram 850 mV selftest-l1d ecc false seed 3",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l1d ecc true seed 1",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l1d ecc true seed 2",
        0xdb00e85a12a37823,
    ),
    (
        "sram 850 mV selftest-l1d ecc true seed 3",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l2 ecc false seed 1",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l2 ecc false seed 2",
        0xa29a718bc76a99e0,
    ),
    (
        "sram 850 mV selftest-l2 ecc false seed 3",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l2 ecc true seed 1",
        0x5a988648f6511433,
    ),
    (
        "sram 850 mV selftest-l2 ecc true seed 2",
        0x9e44e0a9dfbd79ae,
    ),
    (
        "sram 850 mV selftest-l2 ecc true seed 3",
        0x5a988648f6511433,
    ),
    ("enhanced 870 mV bwaves seed 1", 0xb6db6dbc2aefb3aa),
    ("enhanced 870 mV bwaves seed 2", 0x1742cb286bc38624),
    ("enhanced 870 mV bwaves seed 3", 0x6f2207cc5b87b41c),
    ("enhanced 870 mV namd seed 1", 0xe0148599020bb02b),
    ("enhanced 870 mV namd seed 2", 0x8b6413e979be2426),
    ("enhanced 870 mV namd seed 3", 0x4e03aaf4beac9e91),
    ("divided 800 mV namd", 0xef8b2d799a3d4ebf),
    ("divided 750 mV namd", 0x75304ae4f8120bd5),
    ("scripted segfault-load", 0x1563342d1acdd1f7),
    ("scripted segfault-store", 0x2e9238456355dea9),
    ("scripted dirty-stream", 0xc2a4848ad578964a),
];

#[test]
fn every_counter_of_every_accounting_path_is_pinned() {
    let runs = pinned_runs();
    let table: Vec<(String, u64)> = runs
        .iter()
        .map(|(label, r)| (label.clone(), run_digest(r)))
        .collect();
    let expected: Vec<(String, u64)> = PINNED
        .iter()
        .map(|(label, d)| ((*label).to_owned(), *d))
        .collect();
    if table != expected {
        let mut listing = String::new();
        for ((label, r), (_, d)) in runs.iter().zip(&table) {
            listing.push_str(&format!("    ({label:?}, {d:#018x}),\n"));
            if !PINNED.contains(&(label.as_str(), *d)) {
                eprintln!("{label} drifted, {:?}; its nonzero counters:", r.outcome);
                for (event, n) in r.counters.iter().filter(|(_, n)| *n != 0) {
                    eprintln!("    {event} {n}");
                }
            }
        }
        panic!("pinned counter digests drifted; the runs now give:\n{listing}");
    }
}

#[test]
fn pinned_runs_reach_every_driven_event_and_every_ending() {
    let runs = pinned_runs();
    for event in PmuEvent::ALL {
        let reached = runs.iter().any(|(_, r)| r.counters[*event] != 0);
        assert_eq!(
            reached,
            !UNDRIVEN.contains(event),
            "{event}: reached by a pinned run: {reached}"
        );
    }

    // An SDC: a completed run whose output differs from the kernel's
    // nominal output.
    let golden = |name: &str| {
        runs.iter()
            .find(|(label, _)| *label == format!("nominal {name}/ref"))
            .map(|(_, r)| r.digest)
    };
    let ended = |prefix: &str, sdc: bool, outcome: RunOutcome| {
        runs.iter().any(|(label, r)| {
            let name = label.split(' ').nth(3).unwrap_or_default();
            label.starts_with(prefix)
                && r.outcome == outcome
                && (!sdc || golden(name).is_some_and(|g| g != r.digest))
        })
    };
    for outcome in [RunOutcome::AppCrashed, RunOutcome::SystemCrashed] {
        assert!(ended("pmd 8", false, outcome), "no timing {outcome}");
        assert!(ended("soc 725", false, outcome), "no SoC-logic {outcome}");
    }
    assert!(ended("pmd 8", true, RunOutcome::Completed), "no SDC");
    assert!(
        runs.iter()
            .any(|(label, r)| label.starts_with("enhanced") && r.corrected_errors > 0),
        "no residue-check retry"
    );
    let collapse = &runs
        .iter()
        .find(|(label, _)| label == "divided 750 mV namd")
        .expect("collapse run")
        .1;
    assert_eq!(collapse.outcome, RunOutcome::SystemCrashed);
    assert_eq!(collapse.instructions, 0);
}

/// `(label, float digest)` for every pinned run, recorded at the commit
/// before the op path was inlined, in a debug build; an optimized build
/// must give the same table.
const FLOAT_PINNED: &[(&str, u64)] = &[
    ("nominal bwaves/ref", 0x83445d97a4731cb2),
    ("nominal bwaves/train", 0x534134e1b93a3782),
    ("nominal cactusADM/ref", 0x42f19ba6372549f8),
    ("nominal cactusADM/train", 0xeb089a01a574a337),
    ("nominal dealII/ref", 0x0d39b95baa9407c8),
    ("nominal dealII/train", 0x348af450843b542c),
    ("nominal gromacs/ref", 0xe995091140c2a3ba),
    ("nominal gromacs/train", 0xafa2389caee151ee),
    ("nominal leslie3d/ref", 0xffa9b0d8a275e329),
    ("nominal leslie3d/train", 0xa9f6d0bcc6d9ffa2),
    ("nominal mcf/ref", 0x54e841f2a47d5585),
    ("nominal mcf/train", 0x7b2aa8f5576ac9cd),
    ("nominal milc/ref", 0x66eb613985ceac04),
    ("nominal milc/train", 0xd8ca82be357c3697),
    ("nominal namd/ref", 0xa69bceb2265007ce),
    ("nominal namd/train", 0xa3f4b80e175578e4),
    ("nominal soplex/ref", 0x12e307bca6f41c3f),
    ("nominal soplex/train", 0x773832e44aa2cfe3),
    ("nominal zeusmp/ref", 0xabfa2c7e6a226553),
    ("nominal zeusmp/train", 0x4307998f42cfa287),
    ("nominal lbm/ref", 0xda6b37457dbe4ee5),
    ("nominal GemsFDTD/ref", 0x60d34bf54160fa2f),
    ("nominal calculix/ref", 0x6ff19b58ea1a2931),
    ("nominal tonto/ref", 0x6cf654d18659bafc),
    ("nominal gamess/ref", 0x44058aa764ae2932),
    ("nominal gcc/ref", 0x6a7e76a8af58e0b6),
    ("nominal gcc/train", 0x058df4bcbf8f1907),
    ("nominal gobmk/ref", 0x2c3bfa0dc3a05397),
    ("nominal sjeng/ref", 0xbdbd9dfd284f6455),
    ("nominal hmmer/ref", 0x4a1d3b081b94c2d6),
    ("nominal hmmer/train", 0x89052a5170125d1f),
    ("nominal libquantum/ref", 0x48daccc2397dbb88),
    ("nominal h264ref/ref", 0x826ba3276ef2dc5c),
    ("nominal h264ref/train", 0xbf0347bcfd45cf06),
    ("nominal omnetpp/ref", 0xe7de379b60f98bd2),
    ("nominal astar/ref", 0x4d0a0b719dcdceff),
    ("nominal bzip2/ref", 0xe27ad0f4cb480762),
    ("nominal bzip2/train", 0xc4089cd2e44db9b9),
    ("nominal xalancbmk/ref", 0x21140a20918efb37),
    ("nominal perlbench/ref", 0x8b2dcffff83e390a),
    ("pmd 860 mV bwaves seed 1", 0x463b5a067f6029ec),
    ("pmd 860 mV bwaves seed 2", 0x6ab8873982f55c3e),
    ("pmd 860 mV bwaves seed 3", 0x463b5a067f6029ec),
    ("pmd 870 mV bwaves seed 1", 0x34ad1e4f515c5496),
    ("pmd 870 mV bwaves seed 2", 0x724a3680f086b1dc),
    ("pmd 870 mV bwaves seed 3", 0x5575af8dfe5cd576),
    ("pmd 880 mV bwaves seed 1", 0xa3775e4ac34910e6),
    ("pmd 880 mV bwaves seed 2", 0xfb0325a08f63481d),
    ("pmd 880 mV bwaves seed 3", 0xf7620956f57d49a9),
    ("pmd 860 mV namd seed 1", 0x463b5a067f6029ec),
    ("pmd 860 mV namd seed 2", 0x1e7de0e9706208e0),
    ("pmd 860 mV namd seed 3", 0x463b5a067f6029ec),
    ("pmd 870 mV namd seed 1", 0x08f55410468dae61),
    ("pmd 870 mV namd seed 2", 0xd98fad4d35da2642),
    ("pmd 870 mV namd seed 3", 0x50eb9ede7f206bec),
    ("pmd 880 mV namd seed 1", 0x0da0b196eba1172f),
    ("pmd 880 mV namd seed 2", 0x9a2a0cc54be147ab),
    ("pmd 880 mV namd seed 3", 0xce1bb6e10cad7c9a),
    ("pmd 860 mV xalancbmk seed 1", 0x463b5a067f6029ec),
    ("pmd 860 mV xalancbmk seed 2", 0x8ab6b94ad587260d),
    ("pmd 860 mV xalancbmk seed 3", 0x463b5a067f6029ec),
    ("pmd 870 mV xalancbmk seed 1", 0x0fe3a5f1a154ad3e),
    ("pmd 870 mV xalancbmk seed 2", 0xb33c2d1762a6cfc1),
    ("pmd 870 mV xalancbmk seed 3", 0xfb72cc341ee3d152),
    ("pmd 880 mV xalancbmk seed 1", 0x672b570b5e8a85fe),
    ("pmd 880 mV xalancbmk seed 2", 0x4f8cd4614ce09795),
    ("pmd 880 mV xalancbmk seed 3", 0x3d56e5ac54388556),
    ("soc 725 mV mcf seed 1", 0x577c215de9b68ff3),
    ("soc 725 mV mcf seed 2", 0xb40542e290c15692),
    ("soc 725 mV mcf seed 3", 0xc96b9dea1fba60b3),
    ("soc 725 mV mcf seed 4", 0xb65a8703f915d45d),
    ("soc 725 mV lbm seed 1", 0x3f2e34a703d5cae3),
    ("soc 725 mV lbm seed 2", 0x2b5bf73589494398),
    ("soc 725 mV lbm seed 3", 0x32f7d214fdcd2c7c),
    ("soc 725 mV lbm seed 4", 0x37ae393e4e52d187),
    ("soc 800 mV selftest-l3 seed 1", 0xa92c1bf974983fa0),
    ("soc 800 mV selftest-l3 seed 2", 0xa92c1bf974983fa0),
    ("soc 800 mV selftest-l3 seed 3", 0xa92c1bf974983fa0),
    ("soc 800 mV selftest-l3 seed 4", 0xa92c1bf974983fa0),
    (
        "sram 850 mV selftest-l1d ecc false seed 1",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l1d ecc false seed 2",
        0xcab41a90c266a736,
    ),
    (
        "sram 850 mV selftest-l1d ecc false seed 3",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l1d ecc true seed 1",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l1d ecc true seed 2",
        0xeeaf7fd484fe58fa,
    ),
    (
        "sram 850 mV selftest-l1d ecc true seed 3",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l2 ecc false seed 1",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l2 ecc false seed 2",
        0xcab41a90c266a736,
    ),
    (
        "sram 850 mV selftest-l2 ecc false seed 3",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l2 ecc true seed 1",
        0x3a19a4dc751eebfb,
    ),
    (
        "sram 850 mV selftest-l2 ecc true seed 2",
        0xc7a4e139ac524ef1,
    ),
    (
        "sram 850 mV selftest-l2 ecc true seed 3",
        0x3a19a4dc751eebfb,
    ),
    ("enhanced 870 mV bwaves seed 1", 0xb101ad9c18aca102),
    ("enhanced 870 mV bwaves seed 2", 0xcc53f718cc932175),
    ("enhanced 870 mV bwaves seed 3", 0x467f4c25882e5bc4),
    ("enhanced 870 mV namd seed 1", 0xd432c4a60426f423),
    ("enhanced 870 mV namd seed 2", 0x39da910473a331f9),
    ("enhanced 870 mV namd seed 3", 0x906fef8adfc7e582),
    ("divided 800 mV namd", 0xcd0bbc9a2f37b771),
    ("divided 750 mV namd", 0x9eeaaa025e4ea242),
    ("scripted segfault-load", 0x8ecf7dad51531c50),
    ("scripted segfault-store", 0x8ecf7dad51531c50),
    ("scripted dirty-stream", 0x9f3cc489d6f21cab),
];

#[test]
fn every_float_of_every_accounting_path_is_pinned() {
    let runs = pinned_runs();
    let table: Vec<(String, u64)> = runs
        .iter()
        .map(|(label, r)| (label.clone(), float_digest(r)))
        .collect();
    let expected: Vec<(String, u64)> = FLOAT_PINNED
        .iter()
        .map(|(label, d)| ((*label).to_owned(), *d))
        .collect();
    if table != expected {
        let mut listing = String::new();
        for ((label, r), (_, d)) in runs.iter().zip(&table) {
            listing.push_str(&format!("    ({label:?}, {d:#018x}),\n"));
            if !FLOAT_PINNED.contains(&(label.as_str(), *d)) {
                eprintln!(
                    "{label} drifted: runtime {:e} s, energy {:e} J, stress mass {:e}, \
                     faults {}, SDCs {}, CEs {}, UEs {}, summary {:?}",
                    r.runtime_s,
                    r.energy_j,
                    r.stress_mass,
                    r.timing_faults,
                    r.silent_corruptions,
                    r.corrected_errors,
                    r.uncorrected_errors,
                    r.fault_free
                );
            }
        }
        panic!("pinned float digests drifted; the runs now give:\n{listing}");
    }
}
