//! Fault-free replay chains, kept per thread from one work item to the
//! next.
//!
//! A chain is what `characterize_item` replays a golden run and probe
//! steps from: entry `k` is a simulated run that was the `k`-th after a
//! power-on state, with it and the `k` runs before it fault-free. Such a
//! run depends only on its program, its dataset, the chip's enhancements
//! and the runs before it (`margins_sim::machine::FaultFree`), never on the core,
//! the chip, the supplies or the seed. So one chain serves every later
//! item of its key on the same thread, on any core of any chip and in any
//! campaign: [`System::replay`](margins_sim::System::replay) re-certifies
//! each entry on the asking item's own board before answering with it.
//!
//! The memo is per thread, so which runs a thread replays never depends
//! on what other threads ran, and it retains at most [`RETAINED_RECORDS`]
//! records, whatever the uptime, the number of jobs or the iterations
//! asked for. An item still replays from all of a longer chain it built
//! itself; only the chain's first [`RETAINED_RECORDS`] entries outlive
//! the item.

use margins_sim::RunRecord;
use std::cell::RefCell;

/// Records the memo retains per thread, over all its chains. A record is
/// about 1 KiB (its 808-byte counter file included), so about 1 MiB.
pub(crate) const RETAINED_RECORDS: usize = 1024;

/// What a chain's runs depend on besides the runs before them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChainKey {
    pub(crate) program: String,
    pub(crate) dataset: String,
    /// The chip's enhancements, as the campaign cache encodes them.
    pub(crate) enhancements: u8,
}

thread_local! {
    /// This thread's chains, the least recently handed back first.
    static CHAINS: RefCell<Vec<(ChainKey, Vec<RunRecord>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Takes this thread's chain for `key` out of the memo: empty when the
/// memo holds none, or on a thread that is exiting.
pub(crate) fn take(key: &ChainKey) -> Vec<RunRecord> {
    CHAINS
        .try_with(|chains| {
            let mut chains = chains.borrow_mut();
            let i = chains.iter().position(|(k, _)| k == key)?;
            Some(chains.remove(i).1)
        })
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Hands `chain` back as the chain of `key`, which [`take`] took out of
/// the memo, and makes it the most recent one. Its first
/// [`RETAINED_RECORDS`] entries are kept, and the least recent chains are
/// dropped until the memo retains at most [`RETAINED_RECORDS`] records.
pub(crate) fn give_back(key: ChainKey, mut chain: Vec<RunRecord>) {
    if chain.is_empty() {
        return;
    }
    chain.truncate(RETAINED_RECORDS);
    let _ = CHAINS.try_with(|chains| {
        let mut chains = chains.borrow_mut();
        let mut retained = chain.len() + chains.iter().map(|(_, c)| c.len()).sum::<usize>();
        while retained > RETAINED_RECORDS {
            retained -= chains.remove(0).1.len();
        }
        chains.push((key, chain));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::{ChipSpec, CoreId, Corner, System, SystemConfig};
    use margins_workloads::suite::{self, Dataset};

    fn key(program: &str) -> ChainKey {
        ChainKey {
            program: program.to_owned(),
            dataset: "ref".to_owned(),
            enhancements: 0,
        }
    }

    /// Records retained by this thread's memo, and its chain count.
    fn retained() -> (usize, usize) {
        CHAINS.with(|chains| {
            let chains = chains.borrow();
            (chains.iter().map(|(_, c)| c.len()).sum(), chains.len())
        })
    }

    fn record() -> RunRecord {
        let program = suite::by_name("namd", Dataset::Ref).unwrap();
        System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default())
            .run(program.as_ref(), CoreId::new(0), 1)
            .unwrap()
    }

    #[test]
    fn taking_leaves_no_chain_behind_and_giving_back_restores_it() {
        let record = record();
        assert!(take(&key("a")).is_empty());
        give_back(key("a"), vec![record.clone(); 3]);
        give_back(key("b"), Vec::new());
        assert_eq!(retained(), (3, 1), "an empty chain is not kept");
        let chain = take(&key("a"));
        assert_eq!(chain, vec![record; 3]);
        assert_eq!(retained(), (0, 0));
        assert!(take(&key("a")).is_empty());
    }

    #[test]
    fn more_keys_than_the_bound_keep_the_most_recent_chains() {
        let record = record();
        for i in 0..RETAINED_RECORDS + 10 {
            give_back(key(&i.to_string()), vec![record.clone()]);
            assert!(retained().0 <= RETAINED_RECORDS);
        }
        assert_eq!(retained(), (RETAINED_RECORDS, RETAINED_RECORDS));
        assert!(take(&key("9")).is_empty(), "the oldest chains went first");
        assert_eq!(take(&key("10")).len(), 1);
        // Two more records push out the two least recent chains.
        give_back(key("long"), vec![record; 3]);
        assert_eq!(retained(), (RETAINED_RECORDS, RETAINED_RECORDS - 2));
        assert!(take(&key("12")).is_empty());
        assert_eq!(take(&key("13")).len(), 1);
    }

    #[test]
    fn a_chain_longer_than_the_bound_keeps_its_first_entries() {
        let mut first = record();
        first.cycles = 1;
        let mut chain = vec![record(); 2 * RETAINED_RECORDS];
        chain[0] = first.clone();
        give_back(key("short"), vec![first.clone()]);
        give_back(key("long"), chain);
        assert_eq!(retained(), (RETAINED_RECORDS, 1));
        let kept = take(&key("long"));
        assert_eq!(kept.len(), RETAINED_RECORDS);
        assert_eq!(kept[0], first);
    }
}
