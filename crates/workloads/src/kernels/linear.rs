//! Linear-algebra and field-theory kernels: the middle of the stress-mass
//! range (dealII, soplex, calculix, milc, tonto, gamess).

use crate::suite::Dataset;
use crate::util::DataGen;
use margins_sim::{Machine, OutputDigest};

/// `dealII`-like: adaptive FEM — a sparse matrix–vector product plus a dot
/// product, i.e. a conjugate-gradient step. Indexed loads dominate; FP is
/// light. Stress mass ≈ 3.2k (`ref`).
pub(crate) fn deal_ii(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let rows = dataset.scaled(480);
    let nnz_per_row = 5usize;
    let vals = m.alloc(rows * nnz_per_row);
    let cols = m.alloc(rows * nnz_per_row);
    let x = m.alloc(rows);
    let y = m.alloc(rows);
    let mut gen = DataGen::new(0xDEA111);
    for r in 0..rows {
        m.store_f64(x.offset(r as u64), gen.range_f64(-1.0, 1.0));
        for k in 0..nnz_per_row {
            let slot = (r * nnz_per_row + k) as u64;
            m.store_f64(vals.offset(slot), gen.range_f64(-0.5, 0.5));
            m.store_u64(cols.offset(slot), gen.below(rows as u64));
        }
    }
    let mut digest = OutputDigest::new();
    // SpMV: y = A x.
    for r in 0..rows {
        if m.halted() {
            return digest;
        }
        let mut acc = 0.0;
        for k in 0..nnz_per_row {
            let slot = (r * nnz_per_row + k) as u64;
            let col = m.load_u64(cols.offset(slot));
            let a = m.load_f64(vals.offset(slot));
            // A corrupted column index segfaults, like real dealII would.
            let xv = m.load_f64(x.offset(col));
            acc = m.fma(a, xv, acc);
        }
        m.store_f64(y.offset(r as u64), acc);
    }
    // Dot products for the CG alpha.
    let mut xy = 0.0;
    let mut yy = 0.0;
    for r in 0..rows {
        if m.halted() {
            return digest;
        }
        let xv = m.load_f64(x.offset(r as u64));
        let yv = m.load_f64(y.offset(r as u64));
        xy = m.fma(xv, yv, xy);
        yy = m.fma(yv, yv, yy);
    }
    let alpha = m.fdiv(xy, yy + 1e-9);
    digest.absorb_f64(alpha);
    digest.absorb_f64(xy);
    digest.absorb_f64(yy);
    digest
}

/// `soplex`-like: LP simplex — a ratio test (branch-heavy scan with
/// divides) followed by a pivot row update. Stress mass ≈ 1.6k (`ref`).
pub(crate) fn soplex(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let cols = dataset.scaled(900);
    let pivots = 4usize;
    let tableau = m.alloc(cols * 2);
    let rhs = m.alloc(cols);
    let mut gen = DataGen::new(0x50_97E4);
    let mut digest = OutputDigest::new();
    for c in 0..cols {
        m.store_f64(tableau.offset(c as u64), gen.range_f64(0.1, 2.0));
        m.store_f64(tableau.offset((cols + c) as u64), gen.range_f64(-1.0, 1.0));
        m.store_f64(rhs.offset(c as u64), gen.range_f64(0.5, 3.0));
    }
    let mut objective = 0.0;
    for _ in 0..pivots {
        if m.halted() {
            return digest;
        }
        // Ratio test: find the entering column.
        let mut best = f64::INFINITY;
        let mut best_col = 0usize;
        for c in 0..cols {
            let a = m.load_f64(tableau.offset(c as u64));
            let b = m.load_f64(rhs.offset(c as u64));
            if m.branch(a > 1.85) {
                let ratio = m.fdiv(b, a);
                if m.branch(ratio < best) {
                    best = ratio;
                    best_col = c;
                }
            }
        }
        // Pivot update on the second tableau row.
        let pivot = m.load_f64(tableau.offset(best_col as u64));
        let inv = m.fdiv(1.0, pivot + 1e-9);
        for c in (0..cols).step_by(3) {
            let v = m.load_f64(tableau.offset((cols + c) as u64));
            let scaled = m.fmul(v, inv);
            m.store_f64(tableau.offset((cols + c) as u64), scaled);
        }
        objective = m.fadd(objective, best);
        digest.absorb_u64(best_col as u64);
    }
    digest.absorb_u64(cols as u64);
    digest.absorb_f64(objective);
    digest
}

/// `calculix`-like: structural FEM — blocked dense Cholesky factorization
/// with square roots and divides on the diagonal. Stress mass ≈ 5.5k
/// (`ref`).
pub(crate) fn calculix(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let nb = 24usize;
    let blocks = dataset.scaled(2);
    let a = m.alloc(nb * nb);
    let mut digest = OutputDigest::new();
    for block in 0..blocks {
        let mut gen = DataGen::new(0xCA1C + block as u64);
        // SPD-ish matrix: diagonal dominance.
        for i in 0..nb {
            for j in 0..nb {
                let v = if i == j {
                    gen.range_f64(float_of(nb), float_of(nb) + 4.0)
                } else {
                    gen.range_f64(-0.5, 0.5)
                };
                m.store_f64(a.offset((i * nb + j) as u64), v);
            }
        }
        // In-place Cholesky (lower).
        for k in 0..nb {
            if m.halted() {
                return digest;
            }
            let akk = m.load_f64(a.offset((k * nb + k) as u64));
            let lkk = m.fsqrt(akk.max(1e-9));
            m.store_f64(a.offset((k * nb + k) as u64), lkk);
            let inv = m.fdiv(1.0, lkk);
            for i in (k + 1)..nb {
                let aik = m.load_f64(a.offset((i * nb + k) as u64));
                let lik = m.fmul(aik, inv);
                m.store_f64(a.offset((i * nb + k) as u64), lik);
            }
            for j in (k + 1)..nb {
                let ljk = m.load_f64(a.offset((j * nb + k) as u64));
                for i in j..nb {
                    let lik = m.load_f64(a.offset((i * nb + k) as u64));
                    let aij = m.load_f64(a.offset((i * nb + j) as u64));
                    let prod = m.fmul(lik, ljk);
                    let upd = m.fsub(aij, prod);
                    m.store_f64(a.offset((i * nb + j) as u64), upd);
                }
            }
        }
        // Determinant-ish: product of diagonal entries.
        let mut logdet = 0.0;
        for k in 0..nb {
            let lkk = m.load_f64(a.offset((k * nb + k) as u64));
            logdet = m.fadd(logdet, lkk);
        }
        digest.absorb_f64(logdet);
    }
    digest
}

fn float_of(n: usize) -> f64 {
    n as f64
}

/// `milc`-like: lattice QCD — SU(3) complex 3×3 matrix products. Dense
/// multiply/add chains. Stress mass ≈ 10k (`ref`).
pub(crate) fn milc(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let links = dataset.scaled(78);
    // Each SU(3) matrix: 9 complex entries (re, im) = 18 f64.
    let a = m.alloc(18 * links);
    let b = m.alloc(18 * links);
    let mut gen = DataGen::new(0x311C);
    for i in 0..18 * links {
        m.store_f64(a.offset(i as u64), gen.range_f64(-1.0, 1.0));
        m.store_f64(b.offset(i as u64), gen.range_f64(-1.0, 1.0));
    }
    let mut digest = OutputDigest::new();
    let mut plaquette = 0.0;
    for l in 0..links {
        if m.halted() {
            return digest;
        }
        let abase = (18 * l) as u64;
        let bbase = (18 * l) as u64;
        // C = A × B, complex 3×3.
        for i in 0..3u64 {
            for j in 0..3u64 {
                let mut cre = 0.0;
                let mut cim = 0.0;
                for k in 0..3u64 {
                    let are = m.load_f64(a.offset(abase + 2 * (3 * i + k)));
                    let aim = m.load_f64(a.offset(abase + 2 * (3 * i + k) + 1));
                    let bre = m.load_f64(b.offset(bbase + 2 * (3 * k + j)));
                    let bim = m.load_f64(b.offset(bbase + 2 * (3 * k + j) + 1));
                    let rr = m.fmul(are, bre);
                    let ii = m.fmul(aim, bim);
                    let ri = m.fmul(are, bim);
                    let ir = m.fmul(aim, bre);
                    let re = m.fsub(rr, ii);
                    let im = m.fadd(ri, ir);
                    cre = m.fadd(cre, re);
                    cim = m.fadd(cim, im);
                }
                if i == j {
                    plaquette = m.fadd(plaquette, cre);
                    plaquette = m.fadd(plaquette, cim);
                }
            }
        }
    }
    digest.absorb_f64(plaquette);
    digest
}

/// `tonto`-like: quantum chemistry — two-electron integral evaluation with
/// square roots and divides per shell pair. Stress mass ≈ 7k (`ref`).
pub(crate) fn tonto(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let pairs = dataset.scaled(850);
    let centers = m.alloc(pairs * 2);
    let mut gen = DataGen::new(0x70470);
    for i in 0..pairs * 2 {
        m.store_f64(centers.offset(i as u64), gen.range_f64(0.1, 4.0));
    }
    let mut digest = OutputDigest::new();
    let mut fock = 0.0;
    for p in 0..pairs {
        if m.halted() {
            return digest;
        }
        let za = m.load_f64(centers.offset((2 * p) as u64));
        let zb = m.load_f64(centers.offset((2 * p + 1) as u64));
        let zsum = m.fadd(za, zb);
        let zprod = m.fmul(za, zb);
        let xi = m.fdiv(zprod, zsum);
        let root = m.fsqrt(xi);
        let overlap = m.fmul(root, 0.7978845608);
        let kinetic = m.fmul(xi, overlap);
        if m.branch(kinetic > 0.3) {
            fock = m.fadd(fock, kinetic);
        } else {
            fock = m.fma(overlap, 0.5, fock);
        }
    }
    digest.absorb_f64(fock);
    digest
}

/// `gamess`-like: lighter quantum-chemistry SCF iteration — mostly
/// multiply/add with occasional square roots. Stress mass ≈ 2.5k (`ref`).
pub(crate) fn gamess(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let items = dataset.scaled(860);
    let density = m.alloc(items);
    let mut gen = DataGen::new(0x6A3E55);
    for i in 0..items {
        m.store_f64(density.offset(i as u64), gen.range_f64(0.0, 1.0));
    }
    let mut digest = OutputDigest::new();
    let mut scf = 0.0;
    for i in 0..items {
        if m.halted() {
            return digest;
        }
        let d = m.load_f64(density.offset(i as u64));
        let h = m.fmul(d, 1.375);
        let g = m.fma(d, d, 0.25);
        let e = m.fadd(h, g);
        let mixed = if i % 4 == 0 {
            m.fsqrt(e)
        } else {
            m.fmul(e, 0.5)
        };
        scf = m.fadd(scf, mixed);
        m.store_f64(density.offset(i as u64), mixed);
    }
    digest.absorb_f64(scf);
    digest
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_deterministic_and_healthy, ref_mass};

    #[test]
    fn kernels_are_deterministic_and_healthy_at_nominal() {
        assert_deterministic_and_healthy(&[
            "dealII", "soplex", "calculix", "milc", "tonto", "gamess",
        ]);
    }

    #[test]
    fn stress_ordering_milc_above_dealii_above_soplex() {
        let milc = ref_mass("milc");
        let dealii = ref_mass("dealII");
        let soplex = ref_mass("soplex");
        assert!(milc > dealii, "milc {milc} dealII {dealii}");
        assert!(dealii > soplex, "dealII {dealii} soplex {soplex}");
    }

    #[test]
    fn stress_masses_in_band() {
        for (name, lo, hi) in [
            ("milc", 6_000.0, 16_000.0),
            ("tonto", 4_500.0, 11_000.0),
            ("calculix", 3_500.0, 9_000.0),
            ("dealII", 2_000.0, 5_000.0),
            ("gamess", 1_400.0, 4_200.0),
            ("soplex", 800.0, 3_000.0),
        ] {
            let mass = ref_mass(name);
            assert!(
                mass >= lo && mass <= hi,
                "{name}: stress mass {mass} outside [{lo}, {hi}]"
            );
        }
    }
}
