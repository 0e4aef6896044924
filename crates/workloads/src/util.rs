//! Deterministic data generation shared by the kernels.

/// A tiny splitmix64 generator used to synthesize input datasets.
///
/// Kernels must be bit-deterministic at nominal conditions (their digest is
/// the SDC reference), so all "input data" comes from this seeded stream —
/// never from global state or the machine's fault RNG.
#[derive(Debug, Clone)]
pub(crate) struct DataGen {
    state: u64,
}

impl DataGen {
    pub(crate) fn new(seed: u64) -> Self {
        DataGen {
            state: seed ^ 0xD6E8_FEB8_6659_FD93,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        margins_rng::splitmix64(&mut self.state)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = DataGen::new(5);
        let mut b = DataGen::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = DataGen::new(1);
        let mut b = DataGen::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = DataGen::new(9);
        for _ in 0..1000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut g = DataGen::new(3);
        for _ in 0..1000 {
            assert!(g.below(17) < 17);
        }
    }
}
