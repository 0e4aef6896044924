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
//! power lines; it keeps statistics so campaigns can report how many
//! recoveries they needed.

use margins_sim::System;

/// The watchdog monitor attached to a system's power/reset lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Watchdog {
    power_cycles: u32,
}

impl Watchdog {
    /// A fresh watchdog.
    #[must_use]
    pub(crate) fn new() -> Self {
        Watchdog::default()
    }

    /// Polls the heartbeat; if the board is unresponsive, presses the power
    /// button. Returns `true` when a recovery was performed.
    fn ensure_responsive(&mut self, system: &mut System) -> bool {
        if system.is_responsive() {
            false
        } else {
            system.power_cycle();
            self.power_cycles += 1;
            true
        }
    }

    /// Like [`Watchdog::ensure_responsive`], additionally reporting a
    /// [`margins_trace::TraceEvent::WatchdogPowerCycle`] through the
    /// system's attached observer when a recovery is performed.
    ///
    /// `sweep_recoveries` is the caller's per-sweep recovery counter; it is
    /// incremented on recovery and its new value becomes the event's
    /// ordinal. The ordinal is sweep-relative (never the board's boot
    /// count) so traced streams stay identical between serial and sharded
    /// executions.
    pub(crate) fn ensure_responsive_observed(
        &mut self,
        system: &mut System,
        sweep_recoveries: &mut u32,
    ) -> bool {
        let recovered = self.ensure_responsive(system);
        if recovered {
            *sweep_recoveries += 1;
            let recovery = *sweep_recoveries;
            system.observe(|| margins_trace::TraceEvent::WatchdogPowerCycle { recovery });
        }
        recovered
    }

    /// Number of power cycles performed so far.
    #[must_use]
    pub(crate) fn power_cycles(&self) -> u32 {
        self.power_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::{ChipSpec, CoreId, Corner, Millivolts, SystemConfig};
    use margins_workloads::{suite, Dataset};

    #[test]
    fn responsive_system_needs_no_action() {
        let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
        let mut dog = Watchdog::new();
        assert!(!dog.ensure_responsive(&mut sys));
        assert_eq!(dog.power_cycles(), 0);
    }

    #[test]
    fn hung_system_gets_power_cycled() {
        let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
        let mut dog = Watchdog::new();
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
        assert!(dog.ensure_responsive(&mut sys));
        assert!(sys.is_responsive());
        assert_eq!(dog.power_cycles(), 1);
        // Recovery restored nominal voltage (the boot firmware default).
        assert_eq!(sys.supplies().pmd(), margins_sim::volt::PMD_NOMINAL);
    }
}
