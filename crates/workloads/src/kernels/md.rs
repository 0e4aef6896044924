//! Molecular-dynamics kernels: gromacs (divide/sqrt-heavy pair forces) and
//! namd (regular multiply-add force loop).

use crate::suite::Dataset;
use crate::util::DataGen;
use margins_sim::{Machine, OutputDigest};

/// `gromacs`-like: Lennard-Jones pair forces with reciprocal distances —
/// divides and square roots inside the cutoff make it mid/high-stress.
/// Stress mass ≈ 6k (`ref`).
pub(crate) fn gromacs(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let pairs = dataset.scaled(820);
    let atoms = 512usize;
    let pos = m.alloc(atoms * 3);
    let force = m.alloc(atoms * 3);
    let mut gen = DataGen::new(0x6A0);
    for i in 0..atoms * 3 {
        m.store_f64(pos.offset(i as u64), gen.range_f64(0.0, 8.0));
    }
    let mut digest = OutputDigest::new();
    let mut potential = 0.0;
    for p in 0..pairs {
        if m.halted() {
            return digest;
        }
        let i = (p * 7) % atoms;
        let j = (p * 13 + 1) % atoms;
        let mut rsq = 1e-6;
        let mut dx = [0.0f64; 3];
        for (d, slot) in dx.iter_mut().enumerate() {
            let xi = m.load_f64(pos.offset((3 * i + d) as u64));
            let xj = m.load_f64(pos.offset((3 * j + d) as u64));
            let diff = m.fsub(xi, xj);
            *slot = diff;
            rsq = m.fma(diff, diff, rsq);
        }
        // Cutoff: within range compute the LJ force with 1/r terms.
        if m.branch(rsq < 18.0) {
            let r = m.fsqrt(rsq);
            let inv_r = m.fdiv(1.0, r);
            let inv_r2 = m.fmul(inv_r, inv_r);
            let inv_r6 = {
                let t = m.fmul(inv_r2, inv_r2);
                m.fmul(t, inv_r2)
            };
            let inv_r12 = m.fmul(inv_r6, inv_r6);
            let e = m.fsub(inv_r12, inv_r6);
            potential = m.fadd(potential, e);
            let scale = m.fmul(e, 4.0);
            for (d, diff) in dx.iter().enumerate() {
                let fi = m.load_f64(force.offset((3 * i + d) as u64));
                let fn_ = m.fma(*diff, scale, fi);
                m.store_f64(force.offset((3 * i + d) as u64), fn_);
            }
        } else {
            potential = m.fadd(potential, 0.001);
        }
    }
    digest.absorb_f64(potential);
    for i in (0..atoms * 3).step_by(29) {
        let f = m.load_f64(force.offset(i as u64));
        digest.absorb_f64(f);
    }
    digest
}

/// `namd`-like: a regular neighbour-list force loop — multiply-add only
/// (the reciprocals come from a precomputed interpolation table, as in the
/// real NAMD). Low/mid stress mass ≈ 2k (`ref`).
pub(crate) fn namd(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let interactions = dataset.scaled(830);
    let table_size = 1024usize;
    let table = m.alloc(table_size);
    let charges = m.alloc(table_size);
    let mut gen = DataGen::new(0x4A3D);
    for i in 0..table_size {
        m.store_f64(table.offset(i as u64), gen.range_f64(0.0, 2.0));
        m.store_f64(charges.offset(i as u64), gen.range_f64(-1.0, 1.0));
    }
    let mut digest = OutputDigest::new();
    let mut virial = 0.0;
    for k in 0..interactions {
        if m.halted() {
            return digest;
        }
        let slot = ((k * 37) % table_size) as u64;
        let qslot = ((k * 11 + 3) % table_size) as u64;
        let tabled = m.load_f64(table.offset(slot));
        let q = m.load_f64(charges.offset(qslot));
        let f = m.fmul(tabled, q);
        let e = m.fma(f, 0.5, 0.01);
        virial = m.fadd(virial, e);
        m.store_f64(table.offset(slot), e);
    }
    digest.absorb_f64(virial);
    digest
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_deterministic_and_healthy, ref_mass};

    #[test]
    fn md_kernels_deterministic_and_healthy() {
        assert_deterministic_and_healthy(&["gromacs", "namd"]);
    }

    #[test]
    fn gromacs_outweighs_namd() {
        let (g, n) = (ref_mass("gromacs"), ref_mass("namd"));
        assert!(g > n, "gromacs {g} vs namd {n}");
    }

    #[test]
    fn masses_in_band() {
        let g = ref_mass("gromacs");
        assert!((3_500.0..11_000.0).contains(&g), "gromacs {g}");
        let n = ref_mass("namd");
        assert!((1_000.0..3_500.0).contains(&n), "namd {n}");
    }
}
