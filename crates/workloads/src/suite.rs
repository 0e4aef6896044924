//! The workload registry: one table row per program (the 26 kernels, then
//! the five §3.4 self-tests), construction by name, the ten-benchmark
//! characterization suite of Figures 3–5 and the 26-program / 40-pair
//! prediction suite of §4.1.

use crate::kernels::*;
use crate::selftest;
use margins_sim::topology::CacheLevel::{L1D, L2, L3};
use margins_sim::{Machine, OutputDigest, Program};
use std::fmt;

/// An input dataset for a kernel (the paper runs each SPEC program "with
/// all their input datasets", reaching 40 program-input pairs from 26
/// programs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// The reference (full-size) input.
    Ref,
    /// The smaller training input.
    Train,
}

impl Dataset {
    /// The dataset label used in logs and CSV output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Ref => "ref",
            Dataset::Train => "train",
        }
    }

    /// Linear scale factor applied to the kernel's working size.
    #[must_use]
    fn scale(self) -> f64 {
        match self {
            Dataset::Ref => 1.0,
            Dataset::Train => 0.6,
        }
    }

    /// Scales an item count by the dataset factor (minimum 1).
    #[must_use]
    pub(crate) fn scaled(self, n: usize) -> usize {
        ((n as f64 * self.scale()) as usize).max(1)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A program's body: runs it on the machine with the given dataset.
type Body = fn(&mut Machine<'_>, Dataset) -> OutputDigest;

/// The registry, one row per program: its name, whether it ships a `train`
/// dataset besides `ref`, and its body. The 26 kernels come first, in suite
/// order; the §3.4 component self-tests follow, so campaigns can
/// characterize them like any benchmark.
const PROGRAMS: [(&str, bool, Body); 31] = [
    ("bwaves", true, bwaves),
    ("cactusADM", true, cactus_adm),
    ("dealII", true, deal_ii),
    ("gromacs", true, gromacs),
    ("leslie3d", true, leslie3d),
    ("mcf", true, mcf),
    ("milc", true, milc),
    ("namd", true, namd),
    ("soplex", true, soplex),
    ("zeusmp", true, zeusmp),
    ("lbm", false, lbm),
    ("GemsFDTD", false, gems_fdtd),
    ("calculix", false, calculix),
    ("tonto", false, tonto),
    ("gamess", false, gamess),
    ("gcc", true, gcc),
    ("gobmk", false, gobmk),
    ("sjeng", false, sjeng),
    ("hmmer", true, hmmer),
    ("libquantum", false, libquantum),
    ("h264ref", true, h264ref),
    ("omnetpp", false, omnetpp),
    ("astar", false, astar),
    ("bzip2", true, bzip2),
    ("xalancbmk", false, xalancbmk),
    ("perlbench", false, perlbench),
    ("selftest-alu", false, |m, _| selftest::alu(m)),
    ("selftest-fpu", false, |m, _| selftest::fpu(m)),
    ("selftest-l1d", false, |m, _| selftest::cache(m, L1D)),
    ("selftest-l2", false, |m, _| selftest::cache(m, L2)),
    ("selftest-l3", false, |m, _| selftest::cache(m, L3)),
];

/// All 26 kernel names, in suite order.
pub const ALL_NAMES: [&str; 26] = names(0);

/// The names of the §3.4 component self-tests, in registry order.
pub const SELFTEST_NAMES: [&str; 5] = names(ALL_NAMES.len());

// Every row is a kernel or a self-test.
const _: () = assert!(ALL_NAMES.len() + SELFTEST_NAMES.len() == PROGRAMS.len());

/// The names of the `N` registry rows from `first` on.
const fn names<const N: usize>(first: usize) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = PROGRAMS[first + i].0;
        i += 1;
    }
    out
}

/// The ten benchmarks of the Figure 3/4/5 characterization study.
pub const FIGURE4_NAMES: [&str; 10] = [
    "bwaves",
    "cactusADM",
    "dealII",
    "gromacs",
    "leslie3d",
    "mcf",
    "milc",
    "namd",
    "soplex",
    "zeusmp",
];

/// Kernels that ship a second (`train`) input dataset, in suite order; 26
/// programs + these 14 extra pairs = the paper's 40 samples (§4.3.1).
pub const TRAIN_DATASET_NAMES: [&str; 14] = {
    let mut out = [""; 14];
    let (mut row, mut n) = (0, 0);
    while row < PROGRAMS.len() {
        if PROGRAMS[row].1 {
            out[n] = PROGRAMS[row].0;
            n += 1;
        }
        row += 1;
    }
    assert!(n == out.len(), "the length counts the rows that ship train");
    out
};

/// A registry row bound to one of its datasets.
struct Bound {
    name: &'static str,
    dataset: Dataset,
    body: Body,
}

impl Program for Bound {
    fn name(&self) -> &str {
        self.name
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        (self.body)(m, self.dataset)
    }
}

/// Builds a program by name.
///
/// Returns `None` for unknown names or a `train` request on a program that
/// only ships a `ref` dataset.
#[must_use]
pub fn by_name(name: &str, dataset: Dataset) -> Option<Box<dyn Program>> {
    let &(name, train, body) = PROGRAMS.iter().find(|row| row.0 == name)?;
    if dataset == Dataset::Train && !train {
        return None;
    }
    Some(Box::new(Bound {
        name,
        dataset,
        body,
    }))
}

/// The prediction suite's 40 program-input pairs (§4.3.1), in suite order:
/// each kernel's `ref`, then its `train` when it ships one.
pub fn prediction_pairs() -> impl Iterator<Item = (&'static str, Dataset)> {
    PROGRAMS[..ALL_NAMES.len()]
        .iter()
        .flat_map(|&(name, train, _)| {
            let train = train.then_some((name, Dataset::Train));
            std::iter::once((name, Dataset::Ref)).chain(train)
        })
}

/// The full prediction suite: all 26 programs with every available input
/// dataset — 40 program-input pairs, as in §4.3.1.
#[must_use]
pub fn prediction_suite() -> Vec<Box<dyn Program>> {
    prediction_pairs()
        .map(|(name, dataset)| by_name(name, dataset).expect("every pair is a registry row"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_the_paper() {
        assert_eq!(ALL_NAMES.len(), 26, "26 SPEC CPU2006 benchmarks (§4.1)");
        assert_eq!(FIGURE4_NAMES.len(), 10, "10 characterized benchmarks");
        assert_eq!(
            prediction_suite().len(),
            40,
            "40 program-input pairs (§4.3.1)"
        );
    }

    #[test]
    fn figure4_names_are_a_subset_of_all() {
        for n in FIGURE4_NAMES {
            assert!(ALL_NAMES.contains(&n), "{n}");
        }
    }

    #[test]
    fn every_name_constructs() {
        for n in ALL_NAMES.into_iter().chain(SELFTEST_NAMES) {
            let p = by_name(n, Dataset::Ref).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(p.name(), n);
            assert_eq!(p.dataset(), "ref");
        }
    }

    #[test]
    fn train_datasets_construct_only_where_declared() {
        for n in ALL_NAMES.into_iter().chain(SELFTEST_NAMES) {
            let built = by_name(n, Dataset::Train);
            assert_eq!(built.is_some(), TRAIN_DATASET_NAMES.contains(&n), "{n}");
            if let Some(p) = built {
                assert_eq!((p.name(), p.dataset()), (n, "train"));
            }
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("fortnite", Dataset::Ref).is_none());
    }

    #[test]
    fn dataset_scaling() {
        assert_eq!(Dataset::Ref.scaled(100), 100);
        assert_eq!(Dataset::Train.scaled(100), 60);
        assert_eq!(Dataset::Train.scaled(1), 1);
        assert_eq!(Dataset::Train.label(), "train");
    }
}

#[cfg(test)]
mod mass_dump {
    use super::*;
    use crate::testutil::nominal_digest;

    #[test]
    #[ignore = "diagnostic dump"]
    fn dump_masses() {
        for p in prediction_suite() {
            let (_, mass, _) = nominal_digest(p.as_ref());
            println!("{:<12} {:<6} {:>10.0}", p.name(), p.dataset(), mass);
        }
    }
}
