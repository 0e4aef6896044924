//! Process corners and static (fabrication-time) variation.
//!
//! The paper characterizes three physical parts of the same design (§3):
//! the nominal-rated **TTT** part and two sigma parts — **TFF** (fast
//! corner: high leakage, lower Vmin) and **TSS** (slow corner: low leakage,
//! higher Vmin). On top of the corner, each individual core carries a static
//! threshold-voltage offset ("core-to-core variation", §3.3), which we
//! derive deterministically from the chip's serial number so that a chip is
//! a pure function of its [`ChipSpec`].

use crate::calib;
use crate::freq::TimingRegime;
use crate::topology::{CoreId, NUM_CORES};
use margins_rng::{splitmix64, Rng};
use std::fmt;

/// A fabrication process corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Typical/typical — the "normal" nominal-rated part.
    Ttt,
    /// Fast corner — high leakage, can run at higher frequency, slightly
    /// lower Vmin (§3.3).
    Tff,
    /// Slow corner — low leakage, works at lower frequency, noticeably
    /// higher Vmin (§3.3).
    Tss,
}

impl Corner {
    /// Corner shift (mV) of the timing-critical voltage.
    #[must_use]
    fn vcrit_shift_mv(self) -> f64 {
        match self {
            Corner::Ttt => 0.0,
            Corner::Tff => calib::VCRIT_SHIFT_TFF_MV,
            Corner::Tss => calib::VCRIT_SHIFT_TSS_MV,
        }
    }

    /// Relative leakage-power multiplier.
    #[must_use]
    pub(crate) fn leakage_multiplier(self) -> f64 {
        calib::leakage_multiplier(self)
    }

    /// The lowercase token naming the corner on command lines and in
    /// fleet frames.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Corner::Ttt => "ttt",
            Corner::Tff => "tff",
            Corner::Tss => "tss",
        }
    }

    /// The corner a lowercase [`token`](Corner::token) names.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Corner> {
        [Corner::Ttt, Corner::Tff, Corner::Tss]
            .into_iter()
            .find(|corner| corner.token() == token)
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Corner::Ttt => "TTT",
            Corner::Tff => "TFF",
            Corner::Tss => "TSS",
        };
        f.write_str(name)
    }
}

/// The complete static identity of one physical chip: its corner and a
/// serial number seeding all per-die variation.
///
/// ```
/// use margins_sim::{ChipSpec, Corner};
/// let a = ChipSpec::new(Corner::Ttt, 7);
/// let b = ChipSpec::new(Corner::Ttt, 7);
/// // Same spec ⇒ identical silicon, including per-core variation.
/// assert_eq!(a.variation(), b.variation());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipSpec {
    corner: Corner,
    serial: u64,
}

impl ChipSpec {
    /// Creates a chip identity.
    #[must_use]
    pub fn new(corner: Corner, serial: u64) -> Self {
        ChipSpec { corner, serial }
    }

    /// The chip's process corner.
    #[must_use]
    pub fn corner(self) -> Corner {
        self.corner
    }

    /// Derives the chip's static variation map (per-core critical-voltage
    /// offsets), a pure function of this spec.
    #[must_use]
    pub fn variation(self) -> VariationMap {
        VariationMap::derive(self)
    }

    /// A deterministic sub-seed for the given named component of this chip
    /// (weak-cell maps, etc.). Mixing uses splitmix64 steps so nearby
    /// serials produce uncorrelated streams.
    #[must_use]
    pub fn component_seed(self, component: &str) -> u64 {
        let corner = match self.corner {
            Corner::Ttt => 1,
            Corner::Tff => 2,
            Corner::Tss => 3,
        };
        component
            .bytes()
            .map(u64::from)
            .chain([corner])
            .fold(self.serial ^ 0x9E37_79B9_7F4A_7C15, |h, x| {
                splitmix64(&mut (h ^ x))
            })
    }
}

impl fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.corner, self.serial)
    }
}

/// Static per-die variation: each core's critical-voltage offset (mV) at the
/// full-speed timing regime.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationMap {
    corner: Corner,
    core_offset_mv: [f64; NUM_CORES],
}

impl VariationMap {
    fn derive(spec: ChipSpec) -> Self {
        let mut rng = Rng::seed_from_u64(spec.component_seed("core-variation"));
        let mut core_offset_mv = [0.0; NUM_CORES];
        for (i, slot) in core_offset_mv.iter_mut().enumerate() {
            // Gaussian jitter via Box–Muller on two uniforms.
            let u1 = rng.range_f64(1e-12, 1.0);
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            *slot = calib::CORE_OFFSET_MV[i] + z * calib::CORE_JITTER_SIGMA_MV;
        }
        VariationMap {
            corner: spec.corner(),
            core_offset_mv,
        }
    }

    /// The core's total static offset (mV) above the corner base.
    #[must_use]
    fn core_offset_mv(&self, core: CoreId) -> f64 {
        self.core_offset_mv[core.index()]
    }

    /// The absolute timing-critical voltage (mV) of `core` in `regime`.
    ///
    /// In the full-speed regime this is the corner base plus the core's
    /// static offset; in the divided regime the whole chip collapses at a
    /// uniform threshold (§3.2) — core-to-core variation is hidden by the
    /// huge slack.
    #[must_use]
    pub fn vcrit_mv(&self, core: CoreId, regime: TimingRegime) -> f64 {
        match regime {
            TimingRegime::FullSpeed => {
                calib::VCRIT_BASE_TTT_MV + self.corner.vcrit_shift_mv() + self.core_offset_mv(core)
            }
            TimingRegime::Divided => calib::DIVIDED_COLLAPSE_MV,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::TimingRegime;

    #[test]
    fn variation_is_deterministic_per_spec() {
        let a = ChipSpec::new(Corner::Tff, 42).variation();
        let b = ChipSpec::new(Corner::Tff, 42).variation();
        assert_eq!(a, b);
    }

    #[test]
    fn different_serials_differ() {
        let a = ChipSpec::new(Corner::Ttt, 1).variation();
        let b = ChipSpec::new(Corner::Ttt, 2).variation();
        assert_ne!(a, b);
    }

    #[test]
    fn corner_ordering_of_vcrit() {
        let core = CoreId::new(4);
        let regime = TimingRegime::FullSpeed;
        // Same serial so the jitter is identical across corners? It is not —
        // the corner feeds the seed. Compare corner *bases* instead.
        assert!(Corner::Tff.vcrit_shift_mv() < Corner::Ttt.vcrit_shift_mv());
        assert!(Corner::Tss.vcrit_shift_mv() > Corner::Ttt.vcrit_shift_mv());
        let v = ChipSpec::new(Corner::Ttt, 0).variation();
        assert!(v.vcrit_mv(core, regime) > 870.0 && v.vcrit_mv(core, regime) < 900.0);
    }

    #[test]
    fn divided_regime_is_uniform() {
        let v = ChipSpec::new(Corner::Ttt, 0).variation();
        let values: Vec<f64> = CoreId::all()
            .map(|c| v.vcrit_mv(c, TimingRegime::Divided))
            .collect();
        assert!(values.iter().all(|x| (*x - values[0]).abs() < 1e-12));
        assert!((values[0] - calib::DIVIDED_COLLAPSE_MV).abs() < 1e-12);
    }

    #[test]
    fn pmd2_cores_are_most_robust_for_reference_chips() {
        // The jitter sigma (2 mV) is far below the PMD0↔PMD2 gap (~20 mV),
        // so the paper's cross-chip ordering must hold for the three
        // reference chips used throughout the experiments.
        for (corner, serial) in [(Corner::Ttt, 0), (Corner::Tff, 1), (Corner::Tss, 2)] {
            let v = ChipSpec::new(corner, serial).variation();
            let by_offset =
                |a: &CoreId, b: &CoreId| v.core_offset_mv(*a).total_cmp(&v.core_offset_mv(*b));
            let robust = CoreId::all().min_by(by_offset).expect("eight cores");
            assert!(
                robust == CoreId::new(4) || robust == CoreId::new(5),
                "{corner}: robust core was {robust}"
            );
            let sensitive = CoreId::all().max_by(by_offset).expect("eight cores");
            assert!(
                sensitive == CoreId::new(0) || sensitive == CoreId::new(1),
                "{corner}: sensitive core was {sensitive}"
            );
        }
    }

    #[test]
    fn component_seed_is_stable_and_distinct() {
        let spec = ChipSpec::new(Corner::Ttt, 5);
        assert_eq!(spec.component_seed("a"), spec.component_seed("a"));
        assert_ne!(spec.component_seed("a"), spec.component_seed("b"));
        assert_ne!(
            spec.component_seed("a"),
            ChipSpec::new(Corner::Tff, 5).component_seed("a")
        );
    }

    #[test]
    fn display() {
        assert_eq!(ChipSpec::new(Corner::Tss, 9).to_string(), "TSS#9");
    }
}
