//! The effect taxonomy of Table 3.
//!
//! Every characterization run is labelled with the set of effects it
//! manifested. "Note that each characterization run can manifest multiple
//! effects. For instance, in a run both SDC and CE can be observed; thus,
//! both of them are reported for this run." (§3.4.1)

use std::fmt;

/// A single observable effect of undervolted execution (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Effect {
    /// Normal operation: completed with no indication of failure.
    No,
    /// Silent data corruption: completed, but the output mismatched the
    /// golden output.
    Sdc,
    /// Corrected error reported by the hardware (EDAC).
    Ce,
    /// Uncorrected (but detected) error reported by the hardware (EDAC).
    Ue,
    /// Application crash: abnormal process termination.
    Ac,
    /// System crash: the machine became unresponsive.
    Sc,
}

impl Effect {
    /// All effects, in Table 3 order.
    pub const ALL: [Effect; 6] = [
        Effect::No,
        Effect::Sdc,
        Effect::Ce,
        Effect::Ue,
        Effect::Ac,
        Effect::Sc,
    ];

    /// The abbreviation used throughout the paper.
    #[must_use]
    pub fn abbreviation(self) -> &'static str {
        match self {
            Effect::No => "NO",
            Effect::Sdc => "SDC",
            Effect::Ce => "CE",
            Effect::Ue => "UE",
            Effect::Ac => "AC",
            Effect::Sc => "SC",
        }
    }

    /// The long description of Table 3.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Effect::No => "the benchmark was successfully completed without any indications of failure",
            Effect::Sdc => "the benchmark was successfully completed, but a mismatch between the program output and the correct output was observed",
            Effect::Ce => "errors were detected and corrected by the hardware",
            Effect::Ue => "errors were detected, but not corrected by the hardware",
            Effect::Ac => "the application process was not terminated normally",
            Effect::Sc => "the system was unresponsive",
        }
    }

    /// Whether this effect is abnormal (anything except NO).
    #[must_use]
    pub fn is_abnormal(self) -> bool {
        self != Effect::No
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// The set of effects observed in one run, as a compact bit set.
///
/// ```
/// use margins_core::effect::{Effect, EffectSet};
///
/// let mut set = EffectSet::new();
/// set.insert(Effect::Sdc);
/// set.insert(Effect::Ce);
/// assert!(set.contains(Effect::Sdc));
/// assert!(!set.is_normal());
/// assert_eq!(set.to_string(), "SDC+CE");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EffectSet {
    bits: u8,
}

impl EffectSet {
    /// The empty set (treated as normal operation).
    #[must_use]
    pub fn new() -> Self {
        EffectSet::default()
    }

    /// A set holding exactly `effect`.
    #[must_use]
    pub fn of(effect: Effect) -> Self {
        let mut s = EffectSet::new();
        s.insert(effect);
        s
    }

    fn bit(effect: Effect) -> u8 {
        1u8 << (effect as u8)
    }

    /// Adds an effect. Inserting [`Effect::No`] is a no-op marker: a set
    /// without abnormal effects already reads as normal operation.
    pub fn insert(&mut self, effect: Effect) {
        if effect != Effect::No {
            self.bits |= Self::bit(effect);
        }
    }

    /// Whether the set contains `effect`. Querying [`Effect::No`] returns
    /// `true` exactly when no abnormal effect is present.
    #[must_use]
    pub fn contains(self, effect: Effect) -> bool {
        if effect == Effect::No {
            self.is_normal()
        } else {
            self.bits & Self::bit(effect) != 0
        }
    }

    /// `true` when the run had no abnormal effect (NO in Table 3).
    #[must_use]
    pub fn is_normal(self) -> bool {
        self.bits == 0
    }

    /// `true` when the run crashed the whole system.
    #[must_use]
    pub(crate) fn is_system_crash(self) -> bool {
        self.contains(Effect::Sc)
    }

    /// Iterates over the abnormal effects present, in Table 3 order.
    pub fn iter(self) -> impl Iterator<Item = Effect> {
        Effect::ALL
            .into_iter()
            .filter(move |e| e.is_abnormal() && self.contains(*e))
    }

    /// Union of two effect sets.
    #[must_use]
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet {
            bits: self.bits | other.bits,
        }
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_normal() {
            return f.write_str("NO");
        }
        let mut first = true;
        for e in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            f.write_str(e.abbreviation())?;
            first = false;
        }
        Ok(())
    }
}

/// Error parsing an [`EffectSet`] from its `Display` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEffectError {
    /// The unrecognized token.
    pub token: String,
}

impl fmt::Display for ParseEffectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown effect abbreviation '{}'", self.token)
    }
}

impl std::error::Error for ParseEffectError {}

impl std::str::FromStr for EffectSet {
    type Err = ParseEffectError;

    /// Parses the `Display` form (`"NO"`, `"SDC+CE"`, …) back into a set,
    /// so persisted run records round-trip losslessly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut set = EffectSet::new();
        for token in s.split('+') {
            let effect = Effect::ALL
                .into_iter()
                .find(|e| e.abbreviation() == token)
                .ok_or_else(|| ParseEffectError {
                    token: token.to_owned(),
                })?;
            set.insert(effect);
        }
        Ok(set)
    }
}

impl FromIterator<Effect> for EffectSet {
    fn from_iter<I: IntoIterator<Item = Effect>>(iter: I) -> Self {
        let mut s = EffectSet::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl Extend<Effect> for EffectSet {
    fn extend<I: IntoIterator<Item = Effect>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_normal_operation() {
        let s = EffectSet::new();
        assert!(s.is_normal());
        assert!(s.contains(Effect::No));
        assert_eq!(s.to_string(), "NO");
    }

    #[test]
    fn multiple_effects_coexist() {
        // §3.4.1: a run can manifest both SDC and CE.
        let s: EffectSet = [Effect::Sdc, Effect::Ce].into_iter().collect();
        assert!(s.contains(Effect::Sdc));
        assert!(s.contains(Effect::Ce));
        assert!(!s.contains(Effect::Sc));
        assert!(!s.contains(Effect::No));
        assert_eq!(s.to_string(), "SDC+CE");
    }

    #[test]
    fn inserting_no_is_identity() {
        let mut s = EffectSet::new();
        s.insert(Effect::No);
        assert!(s.is_normal());
    }

    #[test]
    fn union_combines() {
        let a = EffectSet::of(Effect::Sdc);
        let b = EffectSet::of(Effect::Sc);
        let u = a.union(b);
        assert!(u.contains(Effect::Sdc) && u.contains(Effect::Sc));
        assert!(u.is_system_crash());
    }

    #[test]
    fn iteration_order_is_stable() {
        let s: EffectSet = [Effect::Sc, Effect::Ce, Effect::Sdc].into_iter().collect();
        let order: Vec<Effect> = s.iter().collect();
        assert_eq!(order, vec![Effect::Sdc, Effect::Ce, Effect::Sc]);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let sets = [
            EffectSet::new(),
            EffectSet::of(Effect::Sc),
            [Effect::Sdc, Effect::Ce].into_iter().collect(),
            [Effect::Sdc, Effect::Ce, Effect::Ue, Effect::Ac, Effect::Sc]
                .into_iter()
                .collect(),
        ];
        for set in sets {
            let parsed: EffectSet = set.to_string().parse().expect("display form parses");
            assert_eq!(parsed, set, "{set}");
        }
        assert!("BOGUS".parse::<EffectSet>().is_err());
        assert!("SDC+".parse::<EffectSet>().is_err());
    }

    #[test]
    fn abbreviations_match_table3() {
        let abbrs: Vec<&str> = Effect::ALL.iter().map(|e| e.abbreviation()).collect();
        assert_eq!(abbrs, vec!["NO", "SDC", "CE", "UE", "AC", "SC"]);
        for e in Effect::ALL {
            assert!(!e.description().is_empty());
        }
    }
}
