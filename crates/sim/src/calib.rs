//! Calibration constants of the simulated silicon.
//!
//! Every constant here is anchored to a specific statement of the paper;
//! the doc comment on each one cites it. The constants are deliberately
//! centralized so that the mapping from paper observation to model parameter
//! is auditable in one place.
//!
//! # The timing-fault intensity model
//!
//! Per executed micro-op, the probability of a critical-path timing failure
//! is an exponential function of the margin between the supply and the
//! core's critical voltage:
//!
//! ```text
//! λ(op) = w(op) · P0 · exp( −(V − Vcrit(core) − droop) / S_MV )
//! ```
//!
//! where `w(op)` is the op-class path-stress weight. Over a run the expected
//! fault count is `Λ(V) = M · P0 · exp(−(V − Vcrit)/S_MV)` with
//! `M = Σ w(op)` the workload's *stress mass*. The observed safe `Vmin` of a
//! (core, workload) pair is the voltage where `Λ` becomes non-negligible,
//! i.e. `Vmin ≈ Vcrit + S_MV · ln(M · P0 / Λ_detect)`. Workload-to-workload
//! `Vmin` variation therefore scales with the *logarithm* of the stress-mass
//! ratio, reproducing the ~25 mV per-core spread of Figure 4, and the crash
//! voltage sits a further `S_MV · ln(M / M_os)`-ish below, reproducing the
//! benchmark-dependent width of the unsafe (grey) region.

/// Fault-process intensity at zero margin per unit stress weight.
///
/// Chosen together with [`S_MV`] and the workload stress masses so that the
/// robust-core (core 4) safe Vmin of the TTT chip lands in the paper's
/// 860–885 mV band at 2.4 GHz (Figure 4).
pub(crate) const P0: f64 = 1e-6;

/// Exponential voltage scale of the timing-fault intensity, in mV.
///
/// Sets how fast abnormal behaviour ramps as voltage drops below Vmin: the
/// unsafe (grey) regions of Figure 4 span roughly 10–35 mV, i.e. severity
/// saturates within ~6 regulator steps.
pub(crate) const S_MV: f64 = 5.0;

/// Critical voltage (mV) of the *most robust* core of the TTT chip at the
/// full-speed timing regime, before per-core offsets.
///
/// Anchored to Figure 4 (TTT): robust-core safe Vmin 860–885 mV across the
/// ten SPEC benchmarks with nominal at 980 mV (≥ ~18% voltage guardband,
/// §3.2).
pub(crate) const VCRIT_BASE_TTT_MV: f64 = 886.0;

/// Corner shift of the TFF (fast, high-leakage) part, mV.
///
/// §3.3: "the TFF chip has lower Vmin points than the TTT chip".
pub(crate) const VCRIT_SHIFT_TFF_MV: f64 = -5.0;

/// Corner shift of the TSS (slow, low-leakage) part, mV.
///
/// §3.3: TSS "has significantly higher Vmin points than the other two
/// chips"; §3.2: TSS guardband is ~15.7% vs ~18.4% (≈ +13 mV at the top).
pub(crate) const VCRIT_SHIFT_TSS_MV: f64 = 13.0;

/// Per-core critical-voltage offsets (mV) on top of the corner base.
///
/// Figure 4 / §3.3: PMD 2 (cores 4 and 5) is the most robust PMD on all
/// three chips; PMD 0 (cores 0 and 1) the most sensitive; the spread is "up
/// to 3.6% more voltage reduction" (~25–30 mV).
pub(crate) const CORE_OFFSET_MV: [f64; 8] = [22.0, 19.0, 12.0, 14.0, 0.0, 2.0, 9.0, 7.0];

/// Standard deviation (mV) of the per-chip-serial jitter added to each
/// core's offset, keeping the PMD ordering stable while making each chip
/// individual ("large Vmin variation … among 3 different chips", §1).
pub(crate) const CORE_JITTER_SIGMA_MV: f64 = 2.0;

/// Voltage collapse threshold (mV) of the divided (≤1.2 GHz) clock regime.
///
/// §3.2: at 1.2 GHz every program on every core is safe down to 760 mV and
/// the system only *crashes* below it — no SDC/CE unsafe band exists.
pub(crate) const DIVIDED_COLLAPSE_MV: f64 = 760.0;

/// Logistic steepness (per mV) of the collapse probability below
/// [`DIVIDED_COLLAPSE_MV`]; large enough that 5 mV below the threshold the
/// first campaign iteration already crashes (§3.2: "only system crashes
/// below the safe Vmin").
pub(crate) const DIVIDED_COLLAPSE_STEEPNESS: f64 = 1.4;

/// Fraction of OS-activity faults that take the whole system down (the rest
/// are absorbed/panic-handled as application-visible errors).
pub(crate) const OS_FAULT_SC_FRACTION: f64 = 0.85;

/// Consequence mix of a timing fault on an arithmetic (ALU/FPU) op:
/// (silent data corruption, application crash, system crash).
///
/// §3.4: "SDCs occur when the pipeline gets stressed (ALU and FPU tests)" —
/// datapath faults overwhelmingly corrupt values.
pub(crate) const ARITH_CONSEQUENCE: (f64, f64, f64) = (0.88, 0.09, 0.03);

/// Consequence mix of a timing fault on an address-generation/memory op.
pub(crate) const MEM_CONSEQUENCE: (f64, f64, f64) = (0.35, 0.55, 0.10);

/// Consequence mix of a timing fault on a branch/control op.
pub(crate) const BRANCH_CONSEQUENCE: (f64, f64, f64) = (0.50, 0.30, 0.20);

/// Number of workload-level faults in a single run beyond which cascading
/// failure escalates to a system crash regardless of individual outcomes.
pub(crate) const CASCADE_SC_THRESHOLD: u32 = 24;

/// Maximum supply droop (mV) added to the effective critical voltage under
/// full switching activity (di/dt noise, §7's voltage-noise literature).
pub(crate) const DROOP_MAX_MV: f64 = 6.0;

/// EWMA smoothing factor of the droop activity tracker (per 64-op block).
pub(crate) const DROOP_EWMA_ALPHA: f64 = 0.25;

/// Mean number of weak SRAM bit-cells per L2 array instance (256 KB + ECC ≈
/// 2.36 Mbit). The *tail* of the weak-cell distribution produces the
/// occasional corrected errors that accompany SDCs in the unsafe region
/// (§3.4: corrected errors never appear *first/alone* on X-Gene 2).
pub(crate) const L2_WEAK_CELLS_MEAN: f64 = 60.0;

/// Mean number of weak cells per L1 array (32 KB).
pub(crate) const L1_WEAK_CELLS_MEAN: f64 = 7.0;

/// Mean number of weak cells in the L3 array (8 MB, PCP/SoC domain — only
/// exposed when the SoC rail itself is scaled).
pub(crate) const L3_WEAK_CELLS_MEAN: f64 = 450.0;

/// Base voltage (mV) of the weak-cell failure distribution: a weak cell's
/// fail voltage is `SRAM_WEAK_BASE_MV + Exp(SRAM_WEAK_TAIL_MV)`.
///
/// §3.4: "the cache bit-cells safely operate at higher voltages (the cache
/// tests crash in much lower voltages than the ALU and FPU tests)" — the
/// bulk of cells is far more robust than the logic timing paths; only an
/// exponential tail of weak cells reaches into the unsafe region.
pub(crate) const SRAM_WEAK_BASE_MV: f64 = 740.0;

/// Exponential tail scale (mV) of weak-cell fail voltages.
pub(crate) const SRAM_WEAK_TAIL_MV: f64 = 33.0;

/// Upper truncation (mV) of shipped weak-cell fail voltages.
///
/// Cells failing above this are caught at manufacturing test and mapped out
/// with row/column redundancy. The clamp sits just below the lowest
/// workload Vmin of the most robust cores (Figure 4), enforcing the §3.4
/// ordering: "silent data corruptions appear at higher voltage levels than
/// corrected errors alone for any benchmark" — CEs only ever join the party
/// inside the unsafe region, never first.
pub const SRAM_REPAIR_CLAMP_MV: f64 = 855.0;

/// Critical voltage (mV) of the PCP/SoC domain's logic (DRAM controllers,
/// central switch): the rail can be scaled independently (§2.1) and its
/// logic collapses far below the PMD cores' critical voltages, leaving a
/// wide band where only the L3's weak cells (caught by ECC) misbehave —
/// the Itanium-style corrected-errors-first profile of §4.4.
pub(crate) const SOC_CRIT_MV: f64 = 730.0;

/// Fault intensity per L3/DRAM access at zero SoC margin.
pub(crate) const SOC_P0: f64 = 2e-5;

/// Effective SRAM margin relief (mV) in the divided clock regime.
///
/// Weak-cell failures on this design are *access-timing* failures: at half
/// clock the sense amplifiers get twice the development time, pushing every
/// shipped weak cell's fail voltage far below the 760 mV logic-collapse
/// threshold. This reproduces §3.2: at 1.2 GHz no abnormal behaviour of any
/// kind appears above the crash voltage.
pub(crate) const SRAM_DIVIDED_RELIEF_MV: f64 = 150.0;

/// Relative leakage-power multiplier per corner (TFF leaks, TSS doesn't):
/// §3, "The TFF is a fast corner part, which has high leakage … The TSS part
/// … has low leakage".
#[must_use]
pub(crate) fn leakage_multiplier(corner: crate::corner::Corner) -> f64 {
    match corner {
        crate::corner::Corner::Ttt => 1.0,
        crate::corner::Corner::Tff => 1.65,
        crate::corner::Corner::Tss => 0.55,
    }
}

/// Temperature sensitivity of the effective critical voltage, mV per °C
/// away from the 43 °C setpoint the paper stabilizes (§3.1).
pub(crate) const VCRIT_TEMP_SLOPE_MV_PER_C: f64 = 0.35;

/// Die temperature setpoint the fan controller regulates to (§3.1: "We
/// stabilize the temperature at 43°C").
pub(crate) const TEMP_SETPOINT_C: f64 = 43.0;

#[cfg(test)]
mod tests {
    use super::*;

    /// Detection threshold: expected-fault level at which a 10-iteration
    /// campaign starts observing abnormalities.
    const LAMBDA_DETECT: f64 = 0.07;

    /// Closed-form Vmin (mV): the supply at which the expected fault count
    /// crosses [`LAMBDA_DETECT`], for a workload of stress mass
    /// `stress_mass` on a core with critical voltage `vcrit_mv`.
    fn expected_vmin_mv(vcrit_mv: f64, stress_mass: f64) -> f64 {
        vcrit_mv + S_MV * (stress_mass * P0 / LAMBDA_DETECT).ln()
    }

    #[test]
    fn expected_vmin_is_monotone_in_stress() {
        let low = expected_vmin_mv(VCRIT_BASE_TTT_MV, 500.0);
        let high = expected_vmin_mv(VCRIT_BASE_TTT_MV, 50_000.0);
        assert!(high > low);
        // Spread over a 100x stress ratio is S_MV * ln(100) ≈ 23 mV.
        assert!((high - low - S_MV * 100f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn robust_core_vmin_band_matches_figure4() {
        // Workload stress masses are designed to span ~[400, 53000].
        let hi = expected_vmin_mv(VCRIT_BASE_TTT_MV, 53_000.0);
        let lo = expected_vmin_mv(VCRIT_BASE_TTT_MV, 400.0);
        assert!((880.0..=890.0).contains(&hi), "high-stress Vmin {hi}");
        assert!((855.0..=865.0).contains(&lo), "low-stress Vmin {lo}");
    }

    #[test]
    fn consequence_mixes_are_distributions() {
        for (s, a, c) in [ARITH_CONSEQUENCE, MEM_CONSEQUENCE, BRANCH_CONSEQUENCE] {
            assert!((s + a + c - 1.0).abs() < 1e-12);
            assert!(s >= 0.0 && a >= 0.0 && c >= 0.0);
        }
    }

    #[test]
    fn corner_leakage_ordering() {
        use crate::corner::Corner;
        assert!(leakage_multiplier(Corner::Tff) > leakage_multiplier(Corner::Ttt));
        assert!(leakage_multiplier(Corner::Tss) < leakage_multiplier(Corner::Ttt));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn pmd2_is_most_robust_in_offsets() {
        let min = CORE_OFFSET_MV.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(CORE_OFFSET_MV[4], min);
        // PMD0 cores carry the largest offsets.
        assert!(CORE_OFFSET_MV[0] >= CORE_OFFSET_MV[2]);
        assert!(CORE_OFFSET_MV[1] >= CORE_OFFSET_MV[5]);
    }
}
