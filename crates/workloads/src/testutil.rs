//! Shared helpers for kernel unit tests.

use crate::suite::{by_name, Dataset};
use margins_sim::cache::CacheHierarchy;
use margins_sim::edac::EdacLog;
use margins_sim::freq::TimingRegime;
use margins_sim::machine::{MachineParams, MachineReport, MachineStatus};
use margins_sim::{ChipSpec, CoreId, Corner, Machine, OutputDigest, Program};

/// Runs `body` once at nominal conditions on a fresh TTT chip and returns
/// its digest and the machine's report.
pub(crate) fn nominal_run(
    body: impl FnOnce(&mut Machine<'_>) -> OutputDigest,
) -> (OutputDigest, MachineReport) {
    let mut caches = CacheHierarchy::new(ChipSpec::new(Corner::Ttt, 0));
    let mut edac = EdacLog::new();
    let params = MachineParams {
        core: CoreId::new(0),
        pmd_mv: 980.0,
        soc_mv: 950.0,
        regime: TimingRegime::FullSpeed,
        vcrit_mv: 886.0,
        thermal_shift_mv: 0.0,
        seed: 42,
        enhancements: margins_sim::Enhancements::stock(),
    };
    let mut m = Machine::new(params, &mut caches, &mut edac);
    let d = body(&mut m);
    (d, m.finalize())
}

/// Runs `p` once at nominal conditions on a fresh TTT chip and returns
/// (digest, stress mass, final machine status).
pub(crate) fn nominal_digest(p: &dyn Program) -> (OutputDigest, f64, MachineStatus) {
    let (d, rep) = nominal_run(|m| p.run(m));
    (d, rep.stress_mass, rep.status)
}

/// The stress mass of one nominal run of `name`'s `ref` dataset.
pub(crate) fn ref_mass(name: &str) -> f64 {
    let p = by_name(name, Dataset::Ref).unwrap_or_else(|| panic!("no program {name}"));
    nominal_digest(p.as_ref()).1
}

/// Runs every dataset each named program ships twice at nominal
/// conditions, asserting equal digests on a healthy machine.
pub(crate) fn assert_deterministic_and_healthy(names: &[&str]) {
    for &name in names {
        assert!(by_name(name, Dataset::Ref).is_some(), "no program {name}");
        for dataset in [Dataset::Ref, Dataset::Train] {
            let Some(p) = by_name(name, dataset) else {
                continue;
            };
            let (a, _, s) = nominal_digest(p.as_ref());
            let (b, _, _) = nominal_digest(p.as_ref());
            assert_eq!(a, b, "{name}/{dataset} digest unstable");
            assert_eq!(s, MachineStatus::Healthy, "{name}/{dataset}");
        }
    }
}
