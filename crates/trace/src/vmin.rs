//! The binding-Vmin rule: how a chip's Vmin is read off its runs.
//!
//! The fleet daemon's `chip-finished` events and `trace-scope`'s
//! population report both fold a chip's `RunCompleted` records into one
//! [`SweepSteps`] per (benchmark, dataset, core) sweep and apply this rule,
//! so the two always agree.

use std::collections::BTreeMap;

/// One sweep's probed steps, each with whether every run there was normal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepSteps(BTreeMap<u32, bool>);

impl SweepSteps {
    /// Records one run at `mv` millivolts with the Table 3 effects label
    /// `effects` (`NO` for a normal run).
    pub fn record(&mut self, mv: u32, effects: &str) {
        *self.0.entry(mv).or_insert(true) &= effects == "NO";
    }

    /// The sweep's Vmin: the lowest step of the unbroken all-normal prefix
    /// walking down from the highest probed step. `None` (censored) when
    /// the highest step already misbehaved or no step was probed.
    #[must_use]
    pub fn vmin(&self) -> Option<u32> {
        self.0
            .iter()
            .rev()
            .take_while(|(_, &all_normal)| all_normal)
            .last()
            .map(|(&mv, _)| mv)
    }
}

/// A chip's binding Vmin: the *maximum* of its sweeps' Vmins, since the
/// sweep that gives up first binds the chip. `None` (censored) when any
/// sweep is censored or the chip has no sweep.
pub fn binding_vmin<'a>(sweeps: impl IntoIterator<Item = &'a SweepSteps>) -> Option<u32> {
    let mut binding = None;
    for sweep in sweeps {
        binding = binding.max(Some(sweep.vmin()?));
    }
    binding
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(runs: &[(u32, &str)]) -> SweepSteps {
        let mut steps = SweepSteps::default();
        for &(mv, effects) in runs {
            steps.record(mv, effects);
        }
        steps
    }

    #[test]
    fn the_first_sweep_to_give_up_binds_the_chip() {
        let early = sweep(&[(900, "NO"), (895, "UE")]);
        let late = sweep(&[(900, "NO"), (895, "NO"), (890, "SC")]);
        assert_eq!(binding_vmin([&late, &early]), Some(900));
        let censored = sweep(&[(900, "AC")]);
        assert_eq!(binding_vmin([&late, &censored]), None);
        assert_eq!(binding_vmin([]), None);
        assert_eq!(binding_vmin([&late, &SweepSteps::default()]), None);
    }
}
