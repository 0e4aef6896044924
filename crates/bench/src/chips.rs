//! The three reference parts of the study (§3): the nominal-rated TTT chip
//! and the two sigma chips TFF (fast/leaky) and TSS (slow/low-leakage).

use margins_sim::{ChipSpec, Corner};

/// The nominal TTT part.
#[must_use]
pub fn ttt() -> ChipSpec {
    ChipSpec::new(Corner::Ttt, 0)
}

/// The fast-corner TFF part.
#[must_use]
fn tff() -> ChipSpec {
    ChipSpec::new(Corner::Tff, 1)
}

/// The slow-corner TSS part.
#[must_use]
fn tss() -> ChipSpec {
    ChipSpec::new(Corner::Tss, 2)
}

/// All three parts in the paper's presentation order.
#[must_use]
pub(crate) fn all() -> [ChipSpec; 3] {
    [ttt(), tff(), tss()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_distinct_chips() {
        let chips = all();
        assert_eq!(chips.len(), 3);
        assert_ne!(chips[0], chips[1]);
        assert_ne!(chips[1], chips[2]);
        assert_eq!(chips[0].corner(), Corner::Ttt);
        assert_eq!(chips[1].corner(), Corner::Tff);
        assert_eq!(chips[2].corner(), Corner::Tss);
    }
}
