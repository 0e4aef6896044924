//! Differential test of `System::replay` against `System::run`.
//!
//! A run that fires no fault is a function of its program, the chip's
//! enhancements and the cache contents it starts from; voltage, thermal
//! shift and seed only feed the fault samplers, and every core's arrays
//! have one geometry on every chip. `replay` certifies, without executing,
//! that a run recorded elsewhere would fire no fault at the board's current
//! supplies, thermal state and seed, and then answers with that run's
//! results.
//!
//! Each case records a chain of fault-free runs on one board at nominal
//! voltage, so that `chain[k]` is the k-th run after power-on. Then, on
//! each target board and at every target voltage, one fresh board executes
//! runs 0..K and a second fresh board replays `chain[0..K]` with the same
//! seeds. Whenever `replay` answers, its record must equal the executed one
//! field for field (so it never answers for a run that fired a fault), and
//! it must answer for nearly every run that fired none. The targets are the
//! case's own chip and core, chips of the other two corners at the same
//! core, and the case's chip at a core of another PMD, all with the case's
//! enhancements.

use margins_rng::splitmix64;
use margins_sim::{
    ChipSpec, CoreId, Corner, Enhancements, Millivolts, RunRecord, System, SystemConfig,
};
use margins_workloads::suite::{self, Dataset};

/// Runs per target voltage: iteration k starts from k fault-free runs.
const ITERATIONS: u32 = 3;

const CORNERS: [Corner; 3] = [Corner::Ttt, Corner::Tff, Corner::Tss];

#[derive(Debug, Clone, Copy)]
enum Rail {
    Pmd,
    Soc,
}

struct Case {
    corner: Corner,
    enhancements: Enhancements,
    core: u8,
    kernel: &'static str,
    rail: Rail,
    /// Swept-rail voltages, top down.
    voltages: Vec<u32>,
}

/// A board a case's chain is replayed on: a chip of `corner`, at `core`,
/// with the case's enhancements.
#[derive(Debug, Clone, Copy)]
struct Target {
    corner: Corner,
    core: u8,
}

#[derive(Debug, Default)]
struct Tally {
    /// Runs that executed without any fault.
    clean: u32,
    /// Of those, the ones `replay` answered.
    accepted: u32,
    /// Runs that fired or observed a fault (all refused by `replay`).
    faulted: u32,
}

fn board(corner: Corner, enhancements: Enhancements) -> System {
    let serial = match corner {
        Corner::Ttt => 0,
        Corner::Tff => 1,
        Corner::Tss => 2,
    };
    System::new(ChipSpec::new(corner, serial), SystemConfig { enhancements })
}

fn set_rail(sys: &mut System, rail: Rail, mv: u32) {
    let mut slimpro = sys.slimpro_mut();
    match rail {
        Rail::Pmd => slimpro.set_pmd_voltage(Millivolts::new(mv)),
        Rail::Soc => slimpro.set_soc_voltage(Millivolts::new(mv)),
    }
    .expect("on-grid voltage");
}

fn seed(case_index: usize, mv: u32, iteration: u32) -> u64 {
    let mut state = (case_index as u64) << 40 | u64::from(mv) << 8 | u64::from(iteration);
    splitmix64(&mut state)
}

fn check_case(case_index: usize, case: &Case, targets: &[Target], tally: &mut Tally) {
    let program = suite::by_name(case.kernel, Dataset::Ref).expect("suite kernel");

    // The chain: fault-free runs at nominal, back to back from power-on.
    let mut chain_board = board(case.corner, case.enhancements);
    let chain: Vec<RunRecord> = (0..ITERATIONS)
        .map(|k| {
            let r = chain_board
                .run(
                    program.as_ref(),
                    CoreId::new(case.core),
                    seed(case_index, 0, k),
                )
                .expect("a nominal board responds");
            assert!(
                r.fault_free.is_some(),
                "{}: nominal run {k} faulted",
                case.kernel
            );
            r
        })
        .collect();

    for target in targets {
        let core = CoreId::new(target.core);
        for &mv in &case.voltages {
            let mut executed = board(target.corner, case.enhancements);
            let mut replayed = board(target.corner, case.enhancements);
            set_rail(&mut executed, case.rail, mv);
            set_rail(&mut replayed, case.rail, mv);
            for (k, recorded) in (0..ITERATIONS).zip(&chain) {
                let s = seed(case_index, mv, k);
                let Ok(ran) = executed.run(program.as_ref(), core, s) else {
                    break; // the board hung on the previous run
                };
                let fault_free = ran.fault_free.is_some();
                let answer = replayed.replay(recorded, core, s);
                let label = format!(
                    "{} recorded on {:?} core {}, replayed on {:?} core {}, \
                     {:?} {mv} mV, iteration {k}, enhanced {}",
                    case.kernel,
                    case.corner,
                    case.core,
                    target.corner,
                    target.core,
                    case.rail,
                    case.enhancements.any()
                );
                match answer {
                    Some(answer) => {
                        assert_eq!(answer, ran, "{label}: replay differs from the run");
                        tally.clean += 1;
                        tally.accepted += 1;
                    }
                    None => {
                        if fault_free {
                            tally.clean += 1;
                        } else {
                            tally.faulted += 1;
                        }
                        // The replayed board no longer stands where the
                        // executed one does, so this voltage's sequence
                        // ends here.
                        break;
                    }
                }
            }
        }
    }
}

fn cases() -> Vec<Case> {
    let pmd_band: Vec<u32> = (0..19).map(|i| 935 - 5 * i).collect();
    let mut cases = Vec::new();
    let kernels = ["bwaves", "namd", "gromacs", "mcf", "lbm", "xalancbmk"];
    for (i, kernel) in kernels.into_iter().enumerate() {
        for (j, core) in [0u8, 4, 7].into_iter().enumerate() {
            cases.push(Case {
                corner: CORNERS[(i + j) % 3],
                enhancements: if (i + j) % 2 == 0 {
                    Enhancements::stock()
                } else {
                    Enhancements::all()
                },
                core,
                kernel,
                rail: Rail::Pmd,
                voltages: pmd_band.clone(),
            });
        }
    }
    // A SoC-rail sweep from nominal into the L3 weak-cell tail and the
    // SoC-logic crash band, with L3-reaching kernels.
    for kernel in ["mcf", "lbm"] {
        cases.push(Case {
            corner: Corner::Ttt,
            enhancements: Enhancements::stock(),
            core: 0,
            kernel,
            rail: Rail::Soc,
            voltages: (0..24).map(|i| 945 - 10 * i).collect(),
        });
    }
    cases
}

/// Checks every case on the boards `targets` names for it.
fn check_cases(targets: impl Fn(&Case) -> Vec<Target>) {
    let mut tally = Tally::default();
    for (i, case) in cases().iter().enumerate() {
        check_case(i, case, &targets(case), &mut tally);
    }
    eprintln!("{tally:?}");
    assert!(tally.faulted > 0, "the sweep must reach faulting runs");
    assert!(
        f64::from(tally.accepted) >= 0.99 * f64::from(tally.clean),
        "replay refused too many fault-free runs: {tally:?}"
    );
}

#[test]
fn replay_equals_run_whenever_it_answers() {
    check_cases(|case| {
        vec![Target {
            corner: case.corner,
            core: case.core,
        }]
    });
}

#[test]
fn replay_equals_run_on_chips_of_the_other_corners() {
    check_cases(|case| {
        CORNERS
            .into_iter()
            .filter(|&corner| corner != case.corner)
            .map(|corner| Target {
                corner,
                core: case.core,
            })
            .collect()
    });
}

#[test]
fn replay_equals_run_on_a_core_of_another_pmd() {
    // Cores 0, 4 and 7 sit on PMDs 0, 2 and 3; two cores on, PMDs 1, 3
    // and 0.
    check_cases(|case| {
        vec![Target {
            corner: case.corner,
            core: (case.core + 2) % 8,
        }]
    });
}
