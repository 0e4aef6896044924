//! The external watchdog monitor — the framework's Raspberry Pi (§2.2).
//!
//! "To completely automate the characterization process, and due to the
//! frequent and unavoidable system crashes that occur when the system
//! operates in reduced voltage levels, we set up a Raspberry Pi board
//! connected externally to the X-Gene 2 board as a watchdog monitor …
//! physically connected to both the Serial Port, as well as to the Power
//! and Reset buttons."
//!
//! The simulated equivalent polls the system's heartbeat and drives its
//! power lines. It keeps no count of its own: each recovery advances the
//! caller's count, which is the one count of power cycles a campaign
//! reports.

use margins_sim::System;

/// Polls the heartbeat; if the board is unresponsive, presses the power
/// button. Returns `true` when a recovery was performed.
///
/// A recovery increments `recoveries`, the caller's per-sweep count, and
/// records a [`margins_trace::TraceEvent::WatchdogPowerCycle`] carrying
/// its new value into the system's attached event buffer. The ordinal is
/// sweep-relative (never the board's boot count) so traced streams stay
/// identical between serial and sharded executions.
pub(crate) fn recover(system: &mut System, recoveries: &mut u32) -> bool {
    if system.is_responsive() {
        return false;
    }
    system.power_cycle();
    *recoveries += 1;
    let recovery = *recoveries;
    system.observe(|| margins_trace::TraceEvent::WatchdogPowerCycle { recovery });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::{ChipSpec, CoreId, Corner, Millivolts, SystemConfig};
    use margins_workloads::{suite, Dataset};

    #[test]
    fn responsive_system_needs_no_action() {
        let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
        let mut recoveries = 0;
        assert!(!recover(&mut sys, &mut recoveries));
        assert_eq!(recoveries, 0);
    }

    #[test]
    fn hung_system_gets_power_cycled() {
        let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
        let mut recoveries = 0;
        // Crash the machine by deep undervolting.
        sys.slimpro_mut()
            .set_pmd_voltage(Millivolts::new(820))
            .unwrap();
        let prog = suite::by_name("bwaves", Dataset::Ref).unwrap();
        for seed in 0..30 {
            if sys.run(prog.as_ref(), CoreId::new(0), seed).is_err() || !sys.is_responsive() {
                break;
            }
        }
        assert!(!sys.is_responsive(), "820mV bwaves must hang the board");
        assert!(recover(&mut sys, &mut recoveries));
        assert!(sys.is_responsive());
        assert_eq!(recoveries, 1);
        // Recovery restored nominal voltage (the boot firmware default).
        assert_eq!(sys.supplies().pmd(), margins_sim::volt::PMD_NOMINAL);
    }
}
