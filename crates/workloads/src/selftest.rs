//! The component-focused self-tests of §3.4.
//!
//! "We developed and ran self-tests that separately stress each cache level
//! independently as well as the ALU and FPU. Cache tests completely fill
//! the cache arrays and flip all the bits of each cache block to check for
//! cell bit errors during undervolting. ALU and FPU tests perform multiple
//! different concurrent operations in each unit with random values to
//! stress different paths and conditions."
//!
//! On the simulated chip, as on the real X-Gene 2, the ALU/FPU tests start
//! failing (SDCs) at much *higher* voltages than the cache tests — the chip
//! is timing-path dominated, not SRAM dominated.

use crate::util::DataGen;
use margins_sim::topology::{CacheLevel, LINE_BYTES};
use margins_sim::{Machine, OutputDigest};

/// A march-style cache test targeting one cache level: fills an array of
/// exactly that level's capacity, writes a pattern, flips every bit (writes
/// the complement), and checks the read-back, folding mismatches into the
/// digest.
pub(crate) fn cache(m: &mut Machine<'_>, level: CacheLevel) -> OutputDigest {
    // Cover the array twice over so every set/way gets occupied even
    // with imperfect index spreading. Cap the footprint for the L3 so a
    // single run stays tractable (the march still covers every set).
    let words = (level.capacity_bytes() * 2 / 8).min(1 << 21);
    let buf = m.alloc(words);
    let mut digest = OutputDigest::new();
    let mut mismatches = 0u64;
    let pattern = 0xAAAA_AAAA_AAAA_AAAAu64;
    // March element 1: ascending write of the pattern.
    for i in 0..words {
        if m.halted() {
            return digest;
        }
        m.store_u64(buf.offset(i as u64), pattern);
    }
    // March element 2: ascending read-verify + write complement.
    for i in 0..words {
        if m.halted() {
            return digest;
        }
        let v = m.load_u64(buf.offset(i as u64));
        if v != pattern {
            mismatches += 1;
            digest.absorb_u64(i as u64);
            digest.absorb_u64(v);
        }
        m.store_u64(buf.offset(i as u64), !pattern);
    }
    // March element 3: descending read-verify of the complement.
    for i in (0..words).rev().step_by(LINE_BYTES / 8) {
        if m.halted() {
            return digest;
        }
        let v = m.load_u64(buf.offset(i as u64));
        if v != !pattern {
            mismatches += 1;
            digest.absorb_u64(i as u64);
            digest.absorb_u64(v);
        }
    }
    digest.absorb_u64(mismatches);
    digest
}

/// The ALU stress test: dense chains of integer operations over
/// pseudo-random values, exercising many operand patterns.
pub(crate) fn alu(m: &mut Machine<'_>) -> OutputDigest {
    let mut gen = DataGen::new(0xA10);
    let mut digest = OutputDigest::new();
    let mut acc = 0x0123_4567_89AB_CDEFu64;
    for r in 0..12_000usize {
        if m.halted() {
            return digest;
        }
        let a = gen.next_u64();
        let b = gen.next_u64() | 1;
        let s = m.iadd(acc, a);
        let p = m.imul(s | 1, b);
        let q = m.idiv(p, b);
        let x = m.ixor(q, a);
        let sh = m.ishl(x, (r % 31) as u32);
        let other = m.ishr(x, (64 - (r % 31) as u32) % 64);
        let rot = m.ior(sh, other);
        acc = m.isub(rot, b);
    }
    digest.absorb_u64(acc);
    digest
}

/// The FPU stress test: dense chains of FP multiply/divide/sqrt over
/// random values — the deepest timing paths of the machine (§3.4: this is
/// where SDCs show up first).
pub(crate) fn fpu(m: &mut Machine<'_>) -> OutputDigest {
    let mut gen = DataGen::new(0xF40);
    let mut digest = OutputDigest::new();
    let mut acc = 1.0f64;
    for _ in 0..10_000 {
        if m.halted() {
            return digest;
        }
        let a = gen.range_f64(0.5, 3.0);
        let b = gen.range_f64(0.5, 3.0);
        let prod = m.fmul(acc, a);
        let quot = m.fdiv(prod, b);
        let root = m.fsqrt(quot.abs() + 0.25);
        let fused = m.fma(root, 1.0001, -0.3);
        acc = m.fadd(fused, 0.1);
        // Keep the accumulator in a sane range without machine ops.
        if !(0.01..1e6).contains(&acc) {
            acc = 1.0;
        }
    }
    digest.absorb_f64(acc);
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{by_name, Dataset};
    use crate::testutil::{assert_deterministic_and_healthy, nominal_run, ref_mass};

    #[test]
    fn selftests_deterministic_and_healthy_at_nominal() {
        // selftest-l3 marches 16 MiB, by far the longest run; the counter
        // pins run it over four seeds on an 800 mV SoC rail.
        assert_deterministic_and_healthy(&[
            "selftest-l1d",
            "selftest-l2",
            "selftest-alu",
            "selftest-fpu",
        ]);
    }

    #[test]
    fn fpu_test_stress_dwarfs_cache_test_stress() {
        // §3.4's key asymmetry: the FPU test leans on deep timing paths,
        // the cache test barely touches them.
        let fpu = ref_mass("selftest-fpu");
        let cache = ref_mass("selftest-l2");
        assert!(
            fpu > cache * 10.0,
            "fpu stress {fpu} must dwarf cache-test stress {cache}"
        );
    }

    #[test]
    fn alu_test_sits_between() {
        let fpu = ref_mass("selftest-fpu");
        let alu = ref_mass("selftest-alu");
        let cache = ref_mass("selftest-l1d");
        assert!(fpu > alu, "fpu {fpu} vs alu {alu}");
        assert!(alu > cache, "alu {alu} vs cache {cache}");
    }

    #[test]
    fn cache_test_names_follow_level() {
        // A cache row marches the level its name gives: it retires what a
        // direct march of that level retires (L1D and L2 differ in size).
        // The L3 row's 16 MiB march is left to the counter pins.
        for (name, level) in [
            ("selftest-l1d", CacheLevel::L1D),
            ("selftest-l2", CacheLevel::L2),
        ] {
            let row = by_name(name, Dataset::Ref).unwrap_or_else(|| panic!("no program {name}"));
            let (_, by_row) = nominal_run(|m| row.run(m));
            let (_, direct) = nominal_run(|m| cache(m, level));
            assert_eq!(by_row.instructions, direct.instructions, "{name}");
        }
    }
}
