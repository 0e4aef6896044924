//! The per-(core, workload) safe-voltage table feeding the governor.
//!
//! Entries come either from offline characterization (Figure 4 data via
//! `margins-core`) or from the online §4 prediction models; the governor
//! does not care which.

use margins_core::regions::CharacterizationResult;
use margins_sim::{CoreId, Millivolts};
use std::collections::BTreeMap;

/// A table of safe Vmin values per (core, workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VminTable {
    entries: BTreeMap<(u8, String), Millivolts>,
}

impl VminTable {
    /// An empty table.
    #[must_use]
    pub(crate) fn new() -> Self {
        VminTable::default()
    }

    /// Inserts/overwrites an entry, returning the previous value if any.
    pub(crate) fn insert(
        &mut self,
        core: CoreId,
        workload: impl Into<String>,
        vmin: Millivolts,
    ) -> Option<Millivolts> {
        self.entries
            .insert((core.index() as u8, workload.into()), vmin)
    }

    /// Looks an entry up.
    #[must_use]
    pub fn get(&self, core: CoreId, workload: &str) -> Option<Millivolts> {
        self.entries
            .get(&(core.index() as u8, workload.to_owned()))
            .copied()
    }

    /// Number of entries.
    #[must_use]
    #[expect(
        clippy::len_without_is_empty,
        reason = "callers read the entry count; none asks for emptiness"
    )]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Imports every measured safe Vmin from a characterization result
    /// (`ref`-dataset entries keyed by benchmark name).
    #[must_use]
    pub fn from_characterization(result: &CharacterizationResult) -> Self {
        let mut table = VminTable::new();
        for s in &result.summaries {
            if let Some(v) = s.safe_vmin {
                table.insert(s.core, s.program.clone(), v);
            }
        }
        table
    }

    /// Mean Vmin of a core across all its workloads — the robustness
    /// ranking used by robust-first scheduling (§5). Lower is more robust.
    #[must_use]
    fn core_mean_vmin(&self, core: CoreId) -> Option<f64> {
        let values: Vec<f64> = self
            .entries
            .iter()
            .filter(|((c, _), _)| usize::from(*c) == core.index())
            .map(|(_, v)| v.as_f64())
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Cores present in the table, ordered most-robust first.
    #[must_use]
    pub(crate) fn cores_by_robustness(&self) -> Vec<CoreId> {
        let mut cores: Vec<(CoreId, f64)> = CoreId::all()
            .filter_map(|c| self.core_mean_vmin(c).map(|v| (c, v)))
            .collect();
        cores.sort_by(|a, b| a.1.total_cmp(&b.1));
        cores.into_iter().map(|(c, _)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut t = VminTable::new();
        assert_eq!(
            t.insert(CoreId::new(0), "bwaves", Millivolts::new(905)),
            None
        );
        assert_eq!(
            t.insert(CoreId::new(0), "bwaves", Millivolts::new(910)),
            Some(Millivolts::new(905))
        );
        assert_eq!(t.get(CoreId::new(0), "bwaves"), Some(Millivolts::new(910)));
        assert_eq!(t.get(CoreId::new(1), "bwaves"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn robustness_ranking_orders_by_mean_vmin() {
        let mut t = VminTable::new();
        for (core, v) in [(0u8, 905), (4, 880), (2, 895)] {
            t.insert(CoreId::new(core), "a", Millivolts::new(v));
            t.insert(CoreId::new(core), "b", Millivolts::new(v - 10));
        }
        let order = t.cores_by_robustness();
        assert_eq!(order, vec![CoreId::new(4), CoreId::new(2), CoreId::new(0)]);
        assert_eq!(t.core_mean_vmin(CoreId::new(4)), Some(875.0));
        assert_eq!(t.core_mean_vmin(CoreId::new(7)), None);
    }
}
