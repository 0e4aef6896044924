//! The relative power/performance laws of §5 and Figure 9.
//!
//! The figure's coordinates follow directly from dynamic CMOS power,
//! `P ∝ V²·f`, summed over the four PMDs sharing one rail but clocking
//! independently, and throughput proportional to the mean PMD clock:
//!
//! * 915 mV, all PMDs at 2.4 GHz → `(915/980)² = 87.2%` power, 100% perf,
//! * 900 mV, one PMD at 1.2 GHz → `(900/980)²·0.875 = 73.8%` power,
//! * 885 mV, two at 1.2 GHz → `61.2%`, * 875 mV, three → `49.8%`,
//! * 760 mV, all four → `(760/980)²·0.5 = 30.1%` power — i.e. the §5 text's
//!   "69.9% energy savings" (the figure's printed 37.6% is inconsistent
//!   with its own other points; we follow the text — see EXPERIMENTS.md).

use margins_sim::volt::PMD_NOMINAL;
use margins_sim::{Megahertz, Millivolts};

/// Chip power at (`voltage`, per-PMD `freqs`) relative to nominal V/F on
/// all PMDs (dynamic-power law of §5).
///
/// # Panics
///
/// Panics if `freqs` is empty.
#[must_use]
pub(crate) fn relative_power(voltage: Millivolts, freqs: &[Megahertz]) -> f64 {
    assert!(!freqs.is_empty(), "at least one PMD frequency required");
    let v2 = voltage.ratio_to(PMD_NOMINAL).powi(2);
    let f_mean = freqs.iter().map(|f| f.ratio_to_max()).sum::<f64>() / freqs.len() as f64;
    v2 * f_mean
}

/// Multiprogram throughput relative to all PMDs at 2.4 GHz.
///
/// # Panics
///
/// Panics if `freqs` is empty.
#[must_use]
pub(crate) fn relative_performance(freqs: &[Megahertz]) -> f64 {
    assert!(!freqs.is_empty(), "at least one PMD frequency required");
    freqs.iter().map(|f| f.ratio_to_max()).sum::<f64>() / freqs.len() as f64
}

/// Energy savings corresponding to a relative power level.
#[must_use]
pub(crate) fn energy_savings(relative_power: f64) -> f64 {
    1.0 - relative_power
}

/// The §5 headline helper: savings from pure undervolting at full clocks.
///
/// ```
/// use margins_energy::model::undervolt_savings;
/// use margins_sim::Millivolts;
/// // "the most robust core could have 19.4%" (leslie3d at 880 mV).
/// assert!((undervolt_savings(Millivolts::new(880)) - 0.194).abs() < 0.001);
/// ```
#[must_use]
pub fn undervolt_savings(voltage: Millivolts) -> f64 {
    energy_savings(voltage.ratio_to(PMD_NOMINAL).powi(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::freq::MAX_FREQ;
    use margins_sim::topology::NUM_PMDS;

    fn mixed(full: usize) -> Vec<Megahertz> {
        let mut v = vec![MAX_FREQ; full];
        v.extend(vec![Megahertz::new(1200); NUM_PMDS - full]);
        v
    }

    #[test]
    fn figure9_power_points() {
        // (voltage, #full-speed PMDs, expected relative power %)
        let cases = [
            (980, 4, 100.0),
            (915, 4, 87.2),
            (900, 3, 73.8),
            (885, 2, 61.2),
            (875, 1, 49.8),
            (760, 0, 30.1),
        ];
        for (mv, full, expected) in cases {
            let p = relative_power(Millivolts::new(mv), &mixed(full)) * 100.0;
            assert!(
                (p - expected).abs() < 0.15,
                "{mv}mV/{full} full PMDs: {p:.1}% vs expected {expected}%"
            );
        }
    }

    #[test]
    fn figure9_performance_points() {
        let cases = [(4, 1.0), (3, 0.875), (2, 0.75), (1, 0.625), (0, 0.5)];
        for (full, expected) in cases {
            assert!((relative_performance(&mixed(full)) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn headline_savings_numbers() {
        // §5: 880 mV → 19.4%; 915 mV → 12.8%; "69.9% energy savings" at
        // 760 mV + 1.2 GHz everywhere.
        assert!((undervolt_savings(Millivolts::new(880)) - 0.194).abs() < 0.001);
        assert!((undervolt_savings(Millivolts::new(915)) - 0.128).abs() < 0.001);
        let p = relative_power(Millivolts::new(760), &mixed(0));
        assert!((energy_savings(p) - 0.699).abs() < 0.001);
    }

    #[test]
    fn abstract_numbers_of_the_paper() {
        // "on average, 19.4% energy saving can be achieved without
        // compromising the performance, while with 25% performance
        // reduction, the energy saving raises to 38.8%."
        let p = relative_power(Millivolts::new(885), &mixed(2));
        assert!((energy_savings(p) - 0.388).abs() < 0.001);
        assert!((relative_performance(&mixed(2)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn savings_monotone_in_voltage() {
        let f = mixed(NUM_PMDS);
        let mut last = -1.0;
        for mv in (760..=980).step_by(5) {
            let s = energy_savings(relative_power(Millivolts::new(mv), &f));
            assert!(s > -1e-12);
            if last >= 0.0 {
                assert!(s <= last + 1e-12, "savings must shrink as voltage rises");
            }
            last = s;
        }
    }
}
