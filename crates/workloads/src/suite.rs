//! The workload registry: kernel construction by name, the ten-benchmark
//! characterization suite of Figures 3–5 and the 26-program / 40-pair
//! prediction suite of §4.1.

use crate::kernels::*;
use margins_sim::Program;
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

/// All 26 kernel names, in suite order.
pub const ALL_NAMES: [&str; 26] = [
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
    "lbm",
    "GemsFDTD",
    "calculix",
    "tonto",
    "gamess",
    "gcc",
    "gobmk",
    "sjeng",
    "hmmer",
    "libquantum",
    "h264ref",
    "omnetpp",
    "astar",
    "bzip2",
    "xalancbmk",
    "perlbench",
];

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

/// Kernels that ship a second (`train`) input dataset; 26 programs + these
/// 14 extra pairs = the paper's 40 samples (§4.3.1).
pub const TRAIN_DATASET_NAMES: [&str; 14] = [
    "bwaves",
    "cactusADM",
    "dealII",
    "gromacs",
    "leslie3d",
    "mcf",
    "milc",
    "namd",
    "gcc",
    "hmmer",
    "bzip2",
    "h264ref",
    "soplex",
    "zeusmp",
];

/// Builds a kernel by benchmark name.
///
/// Returns `None` for unknown names or a `train` request on a kernel that
/// only ships a `ref` dataset.
#[must_use]
pub fn by_name(name: &str, dataset: Dataset) -> Option<Box<dyn Program>> {
    if dataset == Dataset::Train && !TRAIN_DATASET_NAMES.contains(&name) {
        return None;
    }
    let program: Box<dyn Program> = match name {
        "bwaves" => Box::new(Bwaves::new(dataset)),
        "cactusADM" => Box::new(CactusAdm::new(dataset)),
        "dealII" => Box::new(DealII::new(dataset)),
        "gromacs" => Box::new(Gromacs::new(dataset)),
        "leslie3d" => Box::new(Leslie3d::new(dataset)),
        "mcf" => Box::new(Mcf::new(dataset)),
        "milc" => Box::new(Milc::new(dataset)),
        "namd" => Box::new(Namd::new(dataset)),
        "soplex" => Box::new(Soplex::new(dataset)),
        "zeusmp" => Box::new(Zeusmp::new(dataset)),
        "lbm" => Box::new(Lbm::new(dataset)),
        "GemsFDTD" => Box::new(GemsFdtd::new(dataset)),
        "calculix" => Box::new(Calculix::new(dataset)),
        "tonto" => Box::new(Tonto::new(dataset)),
        "gamess" => Box::new(Gamess::new(dataset)),
        "gcc" => Box::new(Gcc::new(dataset)),
        "gobmk" => Box::new(Gobmk::new(dataset)),
        "sjeng" => Box::new(Sjeng::new(dataset)),
        "hmmer" => Box::new(Hmmer::new(dataset)),
        "libquantum" => Box::new(Libquantum::new(dataset)),
        "h264ref" => Box::new(H264Ref::new(dataset)),
        "omnetpp" => Box::new(Omnetpp::new(dataset)),
        "astar" => Box::new(Astar::new(dataset)),
        "bzip2" => Box::new(Bzip2::new(dataset)),
        "xalancbmk" => Box::new(Xalancbmk::new(dataset)),
        "perlbench" => Box::new(Perlbench::new(dataset)),
        // The §3.4 component self-tests are addressable too, so campaigns
        // can characterize them like any benchmark.
        "selftest-alu" => Box::new(crate::selftest::AluTest::new()),
        "selftest-fpu" => Box::new(crate::selftest::FpuTest::new()),
        "selftest-l1d" => Box::new(crate::selftest::CacheTest::new(
            margins_sim::topology::CacheLevel::L1D,
        )),
        "selftest-l2" => Box::new(crate::selftest::CacheTest::new(
            margins_sim::topology::CacheLevel::L2,
        )),
        "selftest-l3" => Box::new(crate::selftest::CacheTest::new(
            margins_sim::topology::CacheLevel::L3,
        )),
        _ => return None,
    };
    Some(program)
}

/// The full prediction suite: all 26 programs with every available input
/// dataset — 40 program-input pairs, as in §4.3.1.
#[must_use]
pub fn prediction_suite() -> Vec<Box<dyn Program>> {
    let mut out: Vec<Box<dyn Program>> = Vec::with_capacity(40);
    for name in ALL_NAMES {
        out.push(by_name(name, Dataset::Ref).expect("all kernels exist"));
        if TRAIN_DATASET_NAMES.contains(&name) {
            out.push(by_name(name, Dataset::Train).expect("train dataset exists"));
        }
    }
    out
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
        for n in ALL_NAMES {
            let p = by_name(n, Dataset::Ref).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(p.name(), n);
            assert_eq!(p.dataset(), "ref");
        }
    }

    #[test]
    fn train_datasets_construct_only_where_declared() {
        for n in ALL_NAMES {
            let built = by_name(n, Dataset::Train).is_some();
            assert_eq!(built, TRAIN_DATASET_NAMES.contains(&n), "{n}");
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
