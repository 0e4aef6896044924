//! The timing-path fault model.
//!
//! Every retired micro-op stresses a bundle of critical paths; when the
//! supply sits below the core's effective critical voltage the op may latch
//! a wrong value. The per-op failure intensity is
//!
//! ```text
//! λ(op) = w(op) · P0 · exp( −(V − Vcrit − droop − ΔT) / S_MV )
//! ```
//!
//! and faults across a run form a Poisson process, which we sample with the
//! standard inversion trick: draw a unit-exponential budget, accumulate
//! per-op intensity, fire when the accumulator crosses the budget. That
//! costs one add + compare per op and one RNG draw per *fault*, keeping
//! multi-million-op characterization campaigns fast.
//!
//! In the divided clock regime (≤ 1.2 GHz, §3.2) the slack is so large that
//! no gradual path failures occur; instead the whole chip collapses at a
//! uniform threshold — exposed here as the model's collapse probability.
//!
//! Because the accumulator only grows, a run fires no fault exactly when its
//! final accumulator stays below the budget. The model records, at the
//! droop refreshes it already performs, the two numbers that accumulator
//! factors into ([`FaultFreeIntensity`]), so the same op stream can later be
//! shown fault-free at another supply and thermal shift without executing
//! it (the intensity's bound at that supply).

use crate::calib;
use crate::freq::TimingRegime;
use margins_rng::Rng;
use std::fmt;

/// Micro-op classes, each with its own path-stress and switching weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are self-describing op kinds
pub(crate) enum OpClass {
    IntAlu,
    IntMul,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    FpSqrt,
    Load,
    Store,
    Branch,
    Kernel,
}

/// Number of op classes.
const NUM_OP_CLASSES: usize = 11;

impl OpClass {
    /// All op classes in index order.
    const ALL: [OpClass; NUM_OP_CLASSES] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::FpSqrt,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Kernel,
    ];

    /// Dense index of the class.
    #[must_use]
    fn index(self) -> usize {
        self as usize
    }

    /// Path-stress weight `w(op)`: how hard the op leans on long critical
    /// paths. FP divide/sqrt exercise the deepest paths (§3.4: SDCs appear
    /// when the FPU/ALU pipelines are stressed); cache-feeding loads/stores
    /// barely touch them.
    ///
    /// The weights span nearly three decades: the workload-to-workload Vmin
    /// spread of Figure 4 (~25 mV) is `S_MV · ln(stress-mass ratio)`, so a
    /// pointer-chasing integer workload must carry orders of magnitude less
    /// stress per op than an FP-divide-dense one.
    #[must_use]
    fn stress_weight(self) -> f64 {
        match self {
            OpClass::IntAlu => 0.010,
            OpClass::IntMul => 0.100,
            OpClass::IntDiv => 0.500,
            OpClass::FpAdd => 0.500,
            OpClass::FpMul => 0.700,
            OpClass::FpDiv => 3.000,
            OpClass::FpSqrt => 2.000,
            OpClass::Load => 0.005,
            OpClass::Store => 0.005,
            OpClass::Branch => 0.020,
            OpClass::Kernel => 1.000,
        }
    }

    /// Switching-activity weight (feeds droop and dynamic power).
    #[must_use]
    pub(crate) fn activity_weight(self) -> f64 {
        match self {
            OpClass::IntAlu => 0.30,
            OpClass::IntMul => 0.60,
            OpClass::IntDiv => 0.50,
            OpClass::FpAdd => 0.70,
            OpClass::FpMul => 0.90,
            OpClass::FpDiv => 0.80,
            OpClass::FpSqrt => 0.80,
            OpClass::Load => 0.45,
            OpClass::Store => 0.45,
            OpClass::Branch => 0.25,
            OpClass::Kernel => 0.40,
        }
    }

    /// The (SDC, AC, SC) consequence mix of a fault on this op class.
    #[must_use]
    fn consequence_mix(self) -> (f64, f64, f64) {
        match self {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::FpAdd
            | OpClass::FpMul
            | OpClass::FpDiv
            | OpClass::FpSqrt => calib::ARITH_CONSEQUENCE,
            OpClass::Load | OpClass::Store => calib::MEM_CONSEQUENCE,
            OpClass::Branch => calib::BRANCH_CONSEQUENCE,
            // Kernel-mode faults mostly take the whole system down.
            OpClass::Kernel => (
                0.0,
                1.0 - calib::OS_FAULT_SC_FRACTION,
                calib::OS_FAULT_SC_FRACTION,
            ),
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// What a timing fault does to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FaultConsequence {
    /// The op's result value latched wrong — a candidate silent data
    /// corruption if it propagates to program output.
    CorruptValue,
    /// An address/control corruption trapped: the application dies (AC).
    AppCrash,
    /// Core control state corrupted: the machine hangs (SC).
    SysCrash,
}

/// Per-run Poisson sampler of timing faults for one core.
#[derive(Debug, Clone)]
pub(crate) struct TimingFaultModel {
    regime: TimingRegime,
    vcrit_mv: f64,
    supply_mv: f64,
    /// Cached per-class intensity at the current (supply, droop).
    lambda: [f64; NUM_OP_CLASSES],
    /// Intensity accumulated since the last fault.
    accum: f64,
    /// Unit-exponential distance to the next fault.
    budget: f64,
    /// Total stress mass accumulated this run (diagnostics / calibration).
    stress_mass: f64,
    faults_fired: u32,
    /// Poisson accounting events drawn this run (one per `on_op`/`on_burst`
    /// call) — the fault model's unit of work for profiling.
    samples: u64,
    /// `stress_mass` when the open intensity segment began (the last
    /// `refresh`).
    segment_start: f64,
    /// `e^{droop/S_MV}` of the open segment.
    segment_factor: f64,
    /// Mass of the first segment, once a `refresh` has closed it.
    head: Option<f64>,
    /// `Σ mass · e^{droop/S_MV}` over the closed segments after the first.
    tail: f64,
    /// Every droop passed to `refresh` lay in `[0, DROOP_MAX_MV]`, the
    /// range [`FaultFreeIntensity::bound`]'s margin is derived for.
    droop_in_range: bool,
}

/// The timing intensity of a full-speed run that fired no fault, factored
/// so that it can be re-evaluated at any supply and thermal shift.
///
/// A run's segments are the op spans between the droop refreshes. The
/// first one is sampled at droop 0 and thermal shift 0 (the intensity
/// the model starts a run with); every later segment `j` at droop `d_j`
/// and the run's thermal shift `T`. The run's accumulated intensity is
/// therefore
///
/// ```text
/// Λ(V, T) = P0 · e^{(Vcrit − V)/S_MV} · (head + e^{T/S_MV} · tail)
/// head = mass of the first segment
/// tail = Σ_{j ≥ 1} mass_j · e^{d_j/S_MV}
/// ```
///
/// Masses and droops depend only on the op stream, so `head` and `tail`
/// hold at every supply and thermal shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultFreeIntensity {
    /// Stress mass of the first segment.
    pub head: f64,
    /// Droop-weighted stress mass of the later segments.
    pub tail: f64,
    /// Poisson accounting events of the run.
    pub samples: u64,
}

impl FaultFreeIntensity {
    /// An upper bound on the final accumulator of the same op stream run at
    /// `supply_mv` on a core with critical voltage `vcrit_mv` and thermal
    /// shift `thermal_shift_mv`: if it is below the run's budget, that run
    /// fires no timing fault.
    ///
    /// The margin covers every rounding between the real-valued `Λ` and
    /// the two floating-point sums, with `u = ε/2` and `n = samples`:
    ///
    /// * every term is non-negative, so each sum is monotone and its
    ///   rounding is relative: the accumulator rounds once per op
    ///   (`(1+u)^n`), and each per-op λ is rounded twice (`w·P0`, then
    ///   `·boost`), three times for a burst (`·count`);
    /// * `exp` is within an ulp (`2u`), here and in the recorded droop
    ///   factors `e^{d/S_MV}`, and the exponents carry the roundings of
    ///   `V − Vcrit − d − T` and `/S_MV`, at most `4u · A / S_MV` with
    ///   `A = |V − Vcrit| + DROOP_MAX_MV + |T|`;
    /// * `head` and `tail` read segment masses as differences of the
    ///   running `stress_mass`, whose roundings are relative to the whole
    ///   run's mass: at most `n·u` of it, weighted by up to
    ///   `K = e^{(DROOP_MAX_MV + max(T, 0))/S_MV}` against `head + e^{T/S}·tail`.
    ///
    /// Together they stay below `u · ((3 + K)(n + 4) + 4A/S_MV + 10)`; the
    /// margin `8ε · (K(n + 64) + A/S_MV)` is at least four times that,
    /// which also covers the roundings of this evaluation. The cap on the
    /// exponent (30) only lowers an intensity, so it never breaks the
    /// bound.
    #[must_use]
    pub(crate) fn bound(&self, vcrit_mv: f64, supply_mv: f64, thermal_shift_mv: f64) -> f64 {
        let s = calib::S_MV;
        let k = ((calib::DROOP_MAX_MV + thermal_shift_mv.max(0.0)) / s).exp();
        let a = (supply_mv - vcrit_mv).abs() + calib::DROOP_MAX_MV + thermal_shift_mv.abs();
        let n = self.samples as f64;
        let margin = 1.0 + 8.0 * f64::EPSILON * (k * (n + 64.0) + a / s);
        calib::P0
            * ((vcrit_mv - supply_mv) / s).exp()
            * (self.head + (thermal_shift_mv / s).exp() * self.tail)
            * margin
    }
}

impl TimingFaultModel {
    /// Builds the sampler with an already drawn first `budget`; the first
    /// segment runs at droop 0 and thermal shift 0.
    #[must_use]
    pub(crate) fn with_budget(
        vcrit_mv: f64,
        regime: TimingRegime,
        supply_mv: f64,
        budget: f64,
    ) -> Self {
        let mut model = TimingFaultModel {
            regime,
            vcrit_mv,
            supply_mv,
            lambda: [0.0; NUM_OP_CLASSES],
            accum: 0.0,
            budget,
            stress_mass: 0.0,
            faults_fired: 0,
            samples: 0,
            segment_start: 0.0,
            segment_factor: 1.0,
            head: None,
            tail: 0.0,
            droop_in_range: true,
        };
        model.set_intensity(0.0, 0.0);
        model
    }

    /// Recomputes cached intensities for the current droop and thermal
    /// shift (called at activity-block boundaries). Closes the open
    /// intensity segment and opens the next one at `droop_mv`.
    pub(crate) fn refresh(&mut self, droop_mv: f64, thermal_shift_mv: f64) {
        let mass = self.stress_mass - self.segment_start;
        match self.head {
            None => self.head = Some(mass),
            Some(_) => self.tail += mass * self.segment_factor,
        }
        self.segment_start = self.stress_mass;
        self.segment_factor = (droop_mv / calib::S_MV).exp();
        self.droop_in_range &= (0.0..=calib::DROOP_MAX_MV).contains(&droop_mv);
        self.set_intensity(droop_mv, thermal_shift_mv);
    }

    fn set_intensity(&mut self, droop_mv: f64, thermal_shift_mv: f64) {
        match self.regime {
            TimingRegime::FullSpeed => {
                let margin = self.supply_mv - self.vcrit_mv - droop_mv - thermal_shift_mv;
                // Cap the exponent so intensities stay finite deep in the
                // crash region.
                let boost = (-margin / calib::S_MV).min(30.0).exp();
                for class in OpClass::ALL {
                    self.lambda[class.index()] = class.stress_weight() * calib::P0 * boost;
                }
            }
            TimingRegime::Divided => {
                // No gradual path failures in the divided regime; collapse
                // is sampled at run granularity.
                self.lambda = [0.0; NUM_OP_CLASSES];
            }
        }
    }

    /// Accounts one executed op; returns the consequence if a fault fires.
    pub(crate) fn on_op(&mut self, class: OpClass, rng: &mut Rng) -> Option<FaultConsequence> {
        let lambda = self.lambda[class.index()];
        self.samples += 1;
        self.stress_mass += class.stress_weight();
        self.accum += lambda;
        if self.accum < self.budget {
            return None;
        }
        self.accum = 0.0;
        self.budget = draw_exponential(rng);
        self.faults_fired += 1;
        Some(self.sample_consequence(class, rng))
    }

    /// Accounts a burst of `n` identical ops at once (used for OS/boot
    /// activity); returns the consequence of the *first* fault inside the
    /// burst, if any.
    pub(crate) fn on_burst(
        &mut self,
        class: OpClass,
        n: u32,
        rng: &mut Rng,
    ) -> Option<FaultConsequence> {
        let lambda = self.lambda[class.index()];
        self.samples += 1;
        self.stress_mass += class.stress_weight() * f64::from(n);
        self.accum += lambda * f64::from(n);
        if self.accum < self.budget {
            return None;
        }
        self.accum = 0.0;
        self.budget = draw_exponential(rng);
        self.faults_fired += 1;
        Some(self.sample_consequence(class, rng))
    }

    fn sample_consequence(&self, class: OpClass, rng: &mut Rng) -> FaultConsequence {
        let (sdc, ac, _sc) = class.consequence_mix();
        let u = rng.next_f64();
        if u < sdc {
            FaultConsequence::CorruptValue
        } else if u < sdc + ac {
            FaultConsequence::AppCrash
        } else {
            FaultConsequence::SysCrash
        }
    }

    /// Probability that the chip collapses outright during a run in the
    /// divided clock regime (§3.2: crash-only behaviour below 760 mV).
    /// Zero in the full-speed regime (gradual faults handle it there).
    #[must_use]
    pub(crate) fn collapse_probability(&self) -> f64 {
        match self.regime {
            TimingRegime::FullSpeed => 0.0,
            TimingRegime::Divided => {
                let deficit = calib::DIVIDED_COLLAPSE_MV - self.supply_mv;
                if deficit <= 0.0 {
                    0.0
                } else {
                    1.0 - (-deficit * calib::DIVIDED_COLLAPSE_STEEPNESS).exp()
                }
            }
        }
    }

    /// Total stress mass accumulated so far this run.
    #[must_use]
    pub(crate) fn stress_mass(&self) -> f64 {
        self.stress_mass
    }

    /// Number of faults fired so far this run.
    #[must_use]
    pub(crate) fn faults_fired(&self) -> u32 {
        self.faults_fired
    }

    /// Number of Poisson accounting events drawn so far this run.
    #[must_use]
    pub(crate) fn samples_drawn(&self) -> u64 {
        self.samples
    }

    /// The run's factored intensity, when the run so far is one the bound
    /// covers: full speed, no fault fired, every droop in range.
    #[must_use]
    pub(crate) fn fault_free_intensity(&self) -> Option<FaultFreeIntensity> {
        if self.regime != TimingRegime::FullSpeed || self.faults_fired > 0 || !self.droop_in_range {
            return None;
        }
        let open = self.stress_mass - self.segment_start;
        let (head, tail) = match self.head {
            None => (open, 0.0),
            Some(head) => (head, self.tail + open * self.segment_factor),
        };
        Some(FaultFreeIntensity {
            head,
            tail,
            samples: self.samples,
        })
    }
}

/// A unit-exponential draw: the distance to a Poisson process's next event.
pub(crate) fn draw_exponential(rng: &mut Rng) -> f64 {
    let u = rng.range_f64(f64::MIN_POSITIVE, 1.0);
    -u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    /// Total faults over `seeds` independent runs of `ops` ops each —
    /// aggregating over seeds keeps these statistical assertions stable.
    fn count_faults(vcrit: f64, supply: f64, ops: u32, class: OpClass, seeds: u64) -> u32 {
        let mut faults = 0;
        for seed in 0..seeds {
            let mut r = Rng::seed_from_u64(seed * 1001 + 13);
            let mut m = TimingFaultModel::with_budget(
                vcrit,
                TimingRegime::FullSpeed,
                supply,
                draw_exponential(&mut r),
            );
            for _ in 0..ops {
                if m.on_op(class, &mut r).is_some() {
                    faults += 1;
                }
            }
        }
        faults
    }

    #[test]
    fn far_above_vcrit_no_faults() {
        assert_eq!(count_faults(886.0, 980.0, 200_000, OpClass::FpDiv, 5), 0);
    }

    #[test]
    fn fault_rate_grows_as_voltage_drops() {
        let high = count_faults(886.0, 890.0, 100_000, OpClass::FpMul, 10);
        let low = count_faults(886.0, 870.0, 100_000, OpClass::FpMul, 10);
        assert!(low > high, "low-V faults {low} vs high-V faults {high}");
        assert!(low > 0);
    }

    #[test]
    fn fault_count_matches_poisson_expectation() {
        // At V = Vcrit the per-op intensity is w·P0 = 0.5e-6. Over 10 seeds
        // of 2M FpAdd ops the expectation is 10; check a generous band.
        let faults = count_faults(886.0, 886.0, 2_000_000, OpClass::FpAdd, 10);
        assert!((3..=25).contains(&faults), "got {faults}");
    }

    #[test]
    fn heavier_op_classes_fault_more() {
        let light = count_faults(886.0, 876.0, 150_000, OpClass::Load, 8);
        let heavy = count_faults(886.0, 876.0, 150_000, OpClass::FpDiv, 8);
        assert!(heavy > light, "FpDiv {heavy} vs Load {light}");
    }

    #[test]
    fn burst_equivalent_to_loop_in_expectation() {
        let mut burst_faults = 0u32;
        for seed in 0..10 {
            let mut r1 = Rng::seed_from_u64(seed * 77 + 5);
            let mut a = TimingFaultModel::with_budget(
                886.0,
                TimingRegime::FullSpeed,
                880.0,
                draw_exponential(&mut r1),
            );
            for _ in 0..100 {
                if a.on_burst(OpClass::Kernel, 1_000, &mut r1).is_some() {
                    burst_faults += 1;
                }
            }
        }
        let loop_faults = count_faults(886.0, 880.0, 100_000, OpClass::Kernel, 10);
        let ratio = f64::from(burst_faults.max(1)) / f64::from(loop_faults.max(1));
        assert!(
            ratio > 0.4 && ratio < 2.5,
            "burst {burst_faults} loop {loop_faults}"
        );
    }

    #[test]
    fn divided_regime_has_no_gradual_faults() {
        let mut r = rng();
        let mut m = TimingFaultModel::with_budget(
            886.0,
            TimingRegime::Divided,
            800.0,
            draw_exponential(&mut r),
        );
        for _ in 0..500_000 {
            assert!(m.on_op(OpClass::FpDiv, &mut r).is_none());
        }
    }

    #[test]
    fn divided_collapse_probability_profile() {
        let mut r = rng();
        let safe = TimingFaultModel::with_budget(
            760.0,
            TimingRegime::Divided,
            760.0,
            draw_exponential(&mut r),
        );
        assert_eq!(safe.collapse_probability(), 0.0);
        let below = TimingFaultModel::with_budget(
            760.0,
            TimingRegime::Divided,
            755.0,
            draw_exponential(&mut r),
        );
        assert!(below.collapse_probability() > 0.99);
        let full = TimingFaultModel::with_budget(
            760.0,
            TimingRegime::FullSpeed,
            700.0,
            draw_exponential(&mut r),
        );
        assert_eq!(full.collapse_probability(), 0.0);
    }

    #[test]
    fn droop_raises_fault_rate() {
        let mut fq = 0u32;
        let mut fn_ = 0u32;
        for seed in 0..12 {
            let mut r1 = Rng::seed_from_u64(seed * 31 + 1);
            let mut r2 = Rng::seed_from_u64(seed * 31 + 2);
            let mut quiet = TimingFaultModel::with_budget(
                886.0,
                TimingRegime::FullSpeed,
                884.0,
                draw_exponential(&mut r1),
            );
            let mut noisy = TimingFaultModel::with_budget(
                886.0,
                TimingRegime::FullSpeed,
                884.0,
                draw_exponential(&mut r2),
            );
            noisy.refresh(calib::DROOP_MAX_MV, 0.0);
            for _ in 0..120_000 {
                if quiet.on_op(OpClass::FpAdd, &mut r1).is_some() {
                    fq += 1;
                }
                if noisy.on_op(OpClass::FpAdd, &mut r2).is_some() {
                    fn_ += 1;
                }
            }
        }
        assert!(fn_ > fq, "noisy {fn_} vs quiet {fq}");
    }

    #[test]
    fn consequence_mix_respected_for_kernel_ops() {
        let mut r = rng();
        let mut m = TimingFaultModel::with_budget(
            886.0,
            TimingRegime::FullSpeed,
            830.0,
            draw_exponential(&mut r),
        );
        let mut sc = 0;
        let mut total = 0;
        for _ in 0..400_000 {
            if let Some(c) = m.on_op(OpClass::Kernel, &mut r) {
                total += 1;
                if c == FaultConsequence::SysCrash {
                    sc += 1;
                }
                assert_ne!(c, FaultConsequence::CorruptValue, "kernel faults never SDC");
            }
        }
        assert!(total > 50, "need enough faults, got {total}");
        let frac = f64::from(sc) / f64::from(total);
        assert!(
            (frac - calib::OS_FAULT_SC_FRACTION).abs() < 0.1,
            "SC fraction {frac}"
        );
    }

    /// Drives `m` through `ops` random ops the way `Machine` does: a boot
    /// burst, a droop refresh after every 64th op (droop 0 under adaptive
    /// clocking) before the op that completes the block is sampled, and an
    /// OS tick burst every 640 ops.
    fn drive_like_a_machine(
        m: &mut TimingFaultModel,
        r: &mut Rng,
        ops: u32,
        thermal_shift_mv: f64,
        adaptive: bool,
    ) {
        let mut droop = crate::droop::DroopModel::new();
        let _ = m.on_burst(OpClass::Kernel, 30, r);
        for i in 1..=ops {
            let class = OpClass::ALL[r.below(NUM_OP_CLASSES as u64) as usize];
            if droop.record_activity(class.activity_weight() * 2.0 * r.next_f64()) {
                let droop_mv = if adaptive { 0.0 } else { droop.droop_mv() };
                m.refresh(droop_mv, thermal_shift_mv);
            }
            let _ = m.on_op(class, r);
            if i % 640 == 0 {
                let _ = m.on_burst(OpClass::Kernel, 1, r);
            }
        }
    }

    #[test]
    fn fault_free_bound_covers_the_accumulator_tightly() {
        // An infinite budget keeps every run fault-free, so the model's own
        // accumulator is the sum the bound must cover.
        let mut checked = 0;
        for seed in 0..16u64 {
            for thermal_shift_mv in [-4.0, 0.0, 3.0] {
                for adaptive in [false, true] {
                    let mut r = Rng::seed_from_u64(seed * 7919 + 3);
                    let supply = 860.0 + 10.0 * r.next_f64() * 6.0;
                    let ops = 2_000 + r.below(20_000) as u32;
                    let mut m = TimingFaultModel::with_budget(
                        886.0,
                        TimingRegime::FullSpeed,
                        supply,
                        f64::INFINITY,
                    );
                    drive_like_a_machine(&mut m, &mut r, ops, thermal_shift_mv, adaptive);
                    let intensity = m.fault_free_intensity().expect("no fault fired");
                    assert_eq!(intensity.samples, m.samples_drawn());
                    let bound = intensity.bound(886.0, supply, thermal_shift_mv);
                    assert!(
                        bound >= m.accum,
                        "seed {seed}, T {thermal_shift_mv}, adaptive {adaptive}: \
                         bound {bound:e} below the accumulator {:e}",
                        m.accum
                    );
                    assert!(
                        bound <= m.accum * (1.0 + 1e-9),
                        "seed {seed}, T {thermal_shift_mv}, adaptive {adaptive}: \
                         bound {bound:e} loose against {:e}",
                        m.accum
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 96);
    }

    #[test]
    fn only_runs_the_bound_covers_report_an_intensity() {
        let mut r = rng();
        let divided = TimingFaultModel::with_budget(
            886.0,
            TimingRegime::Divided,
            880.0,
            draw_exponential(&mut r),
        );
        assert_eq!(divided.fault_free_intensity(), None);

        let mut faulted = TimingFaultModel::with_budget(886.0, TimingRegime::FullSpeed, 880.0, 0.0);
        assert!(faulted.on_op(OpClass::FpDiv, &mut r).is_some());
        assert_eq!(faulted.fault_free_intensity(), None);

        let mut odd_droop =
            TimingFaultModel::with_budget(886.0, TimingRegime::FullSpeed, 880.0, f64::INFINITY);
        odd_droop.refresh(calib::DROOP_MAX_MV + 1.0, 0.0);
        assert_eq!(odd_droop.fault_free_intensity(), None);

        // Before any refresh, the whole run is the first segment.
        let mut short =
            TimingFaultModel::with_budget(886.0, TimingRegime::FullSpeed, 880.0, f64::INFINITY);
        let _ = short.on_op(OpClass::FpDiv, &mut r);
        let intensity = short.fault_free_intensity().expect("fault-free");
        assert_eq!(
            (intensity.head, intensity.tail, intensity.samples),
            (3.0, 0.0, 1)
        );
    }

    #[test]
    fn stress_mass_accounting() {
        let mut r = rng();
        let mut m = TimingFaultModel::with_budget(
            886.0,
            TimingRegime::FullSpeed,
            980.0,
            draw_exponential(&mut r),
        );
        for _ in 0..10 {
            let _ = m.on_op(OpClass::FpDiv, &mut r);
        }
        assert!((m.stress_mass() - 30.0).abs() < 1e-9);
        assert_eq!(m.samples_drawn(), 10);
    }
}
