//! EDAC-style hardware error reporting.
//!
//! The paper's framework reads corrected/uncorrected error reports from the
//! Linux EDAC driver (§2.2, Table 3). In the simulator, the cache hierarchy
//! pushes [`EdacRecord`]s into an [`EdacLog`] as protection logic catches
//! weak-cell corruption; the management processor (SLIMpro) and the
//! characterization framework drain the log after each run.

use crate::topology::CacheLevel;
use std::fmt;

/// Kind of reported hardware error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdacKind {
    /// Corrected error — detected and repaired by hardware (CE in Table 3).
    Corrected,
    /// Uncorrected error — detected but not repaired (UE in Table 3).
    Uncorrected,
}

impl fmt::Display for EdacKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdacKind::Corrected => f.write_str("CE"),
            EdacKind::Uncorrected => f.write_str("UE"),
        }
    }
}

/// A single error report, tagged with its physical location — the parser of
/// the characterization framework "can also report the exact location that
/// the correctable errors occurred (e.g. the cache level, the memory, etc.)"
/// (§2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdacRecord {
    /// Whether the error was corrected.
    pub kind: EdacKind,
    /// The array that reported it.
    pub level: CacheLevel,
    /// Array instance (core index for L1, PMD index for L2, 0 for L3).
    pub instance: u8,
    /// Set index inside the array.
    pub set: u32,
    /// Way index inside the set.
    pub way: u8,
}

/// The accumulating error log of one machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdacLog {
    records: Vec<EdacRecord>,
}

impl EdacLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        EdacLog::default()
    }

    /// Appends a record.
    pub(crate) fn report(&mut self, record: EdacRecord) {
        self.records.push(record);
    }

    /// All records since the last drain.
    #[must_use]
    pub fn records(&self) -> &[EdacRecord] {
        &self.records
    }

    /// Removes and returns all pending records (the SLIMpro mailbox read).
    pub(crate) fn drain(&mut self) -> Vec<EdacRecord> {
        std::mem::take(&mut self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: EdacKind) -> EdacRecord {
        EdacRecord {
            kind,
            level: CacheLevel::L2,
            instance: 1,
            set: 17,
            way: 3,
        }
    }

    #[test]
    fn counting_by_kind() {
        let mut log = EdacLog::new();
        log.report(record(EdacKind::Corrected));
        log.report(record(EdacKind::Corrected));
        log.report(record(EdacKind::Uncorrected));
        let count = |kind| log.records().iter().filter(|r| r.kind == kind).count();
        assert_eq!(count(EdacKind::Corrected), 2);
        assert_eq!(count(EdacKind::Uncorrected), 1);
    }

    #[test]
    fn drain_empties_the_log() {
        let mut log = EdacLog::new();
        log.report(record(EdacKind::Corrected));
        let drained = log.drain();
        assert_eq!(drained.len(), 1);
        assert!(log.records().is_empty());
    }

    #[test]
    fn display_kinds_match_table3_vocabulary() {
        assert_eq!(EdacKind::Corrected.to_string(), "CE");
        assert_eq!(EdacKind::Uncorrected.to_string(), "UE");
    }
}
