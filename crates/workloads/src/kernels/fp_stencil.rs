//! Floating-point stencil/grid kernels: the high-stress end of the suite.
//!
//! These mirror the CFD/field codes of SPEC CPU2006 (bwaves, leslie3d,
//! cactusADM, zeusmp, lbm, GemsFDTD): regular sweeps over multi-dimensional
//! grids with dense FP arithmetic. Their large stress masses put their safe
//! Vmin at the *top* of the per-core band in Figure 4 (bwaves highest), and
//! their long FP chains make them the SDC-prone workloads of §3.4.

use crate::suite::Dataset;
use crate::util::DataGen;
use margins_sim::machine::Addr;
use margins_sim::{Machine, OutputDigest, Program};

fn fill_grid(m: &mut Machine<'_>, base: Addr, n: usize, gen: &mut DataGen) {
    for i in 0..n {
        m.store_f64(base.offset(i as u64), gen.range_f64(0.5, 2.0));
    }
}

/// `bwaves`-like: blast-wave 3D Euler stencil — 7-point neighbourhood with
/// a divide per point. Stress mass ≈ 45k (`ref`): the highest of the suite,
/// anchoring the top of the Vmin band and the wide unsafe region the paper
/// highlights for bwaves (Figure 5).
#[derive(Debug, Clone)]
pub(crate) struct Bwaves {
    dataset: Dataset,
}

impl Bwaves {
    /// Creates the kernel for `dataset`.
    #[must_use]
    pub(crate) fn new(dataset: Dataset) -> Self {
        Bwaves { dataset }
    }
}

impl Program for Bwaves {
    fn name(&self) -> &str {
        "bwaves"
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        let (nx, ny, nz) = (18, 18, self.dataset.scaled(20));
        let n = nx * ny * nz;
        let grid = m.alloc(n);
        let out = m.alloc(n);
        let mut gen = DataGen::new(0xB3A7E5);
        fill_grid(m, grid, n, &mut gen);

        let idx = |x: usize, y: usize, z: usize| (x + nx * (y + ny * z)) as u64;
        let mut digest = OutputDigest::new();
        let mut total = 0.0f64;
        for z in 1..nz - 1 {
            for y in 1..ny - 1 {
                for x in 1..nx - 1 {
                    if m.halted() {
                        return digest;
                    }
                    let c = m.load_f64(grid.offset(idx(x, y, z)));
                    let e = m.load_f64(grid.offset(idx(x + 1, y, z)));
                    let w = m.load_f64(grid.offset(idx(x - 1, y, z)));
                    let no = m.load_f64(grid.offset(idx(x, y + 1, z)));
                    let s = m.load_f64(grid.offset(idx(x, y - 1, z)));
                    let u = m.load_f64(grid.offset(idx(x, y, z + 1)));
                    let d = m.load_f64(grid.offset(idx(x, y, z - 1)));
                    let ew = m.fadd(e, w);
                    let ns = m.fadd(no, s);
                    let ud = m.fadd(u, d);
                    let t1 = m.fmul(ew, 0.18);
                    let t2 = m.fmul(ns, 0.16);
                    let t3 = m.fmul(ud, 0.14);
                    let t12 = m.fadd(t1, t2);
                    let lap = m.fadd(t12, t3);
                    let denom = m.fadd(c, 2.0);
                    let flux = m.fdiv(lap, denom);
                    let diff = m.fsub(flux, c);
                    let new = m.fmul(diff, 0.93);
                    m.store_f64(out.offset(idx(x, y, z)), new);
                    if m.branch(new > 0.0) {
                        total = m.fadd(total, new);
                    } else {
                        total = m.fsub(total, new);
                    }
                }
            }
        }
        digest.absorb_f64(total);
        for i in (0..n).step_by(97) {
            let v = m.load_f64(out.offset(i as u64));
            digest.absorb_f64(v);
        }
        digest
    }
}

/// `leslie3d`-like: large-eddy CFD — a 9-point fused-multiply-add stencil
/// over a wide 2D slab. Stress mass ≈ 30k (`ref`); the benchmark the paper
/// uses for its §5 domain-limit example (robust PMD 880 mV vs sensitive
/// PMD 915 mV).
#[derive(Debug, Clone)]
pub(crate) struct Leslie3d {
    dataset: Dataset,
}

impl Leslie3d {
    /// Creates the kernel for `dataset`.
    #[must_use]
    pub(crate) fn new(dataset: Dataset) -> Self {
        Leslie3d { dataset }
    }
}

impl Program for Leslie3d {
    fn name(&self) -> &str {
        "leslie3d"
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        let nx = 120;
        let ny = self.dataset.scaled(36);
        let n = nx * ny;
        let grid = m.alloc(n);
        let out = m.alloc(n);
        let mut gen = DataGen::new(0x1E511E);
        fill_grid(m, grid, n, &mut gen);
        let idx = |x: usize, y: usize| (x + nx * y) as u64;
        let mut digest = OutputDigest::new();
        let mut energy = 0.0;
        for y in 1..ny - 1 {
            for x in 1..nx - 1 {
                if m.halted() {
                    return digest;
                }
                let c = m.load_f64(grid.offset(idx(x, y)));
                let mut acc = m.fmul(c, -0.82);
                for (dx, dy, w) in [
                    (1isize, 0isize, 0.21),
                    (-1, 0, 0.21),
                    (0, 1, 0.19),
                    (0, -1, 0.19),
                    (1, 1, 0.055),
                    (1, -1, 0.055),
                    (-1, 1, 0.055),
                    (-1, -1, 0.055),
                ] {
                    let v = m.load_f64(
                        grid.offset(idx((x as isize + dx) as usize, (y as isize + dy) as usize)),
                    );
                    acc = m.fma(v, w, acc);
                }
                let damped = m.fmul(acc, 0.97);
                m.store_f64(out.offset(idx(x, y)), damped);
                energy = m.fma(damped, damped, energy);
            }
        }
        digest.absorb_f64(energy);
        for i in (0..n).step_by(61) {
            let v = m.load_f64(out.offset(i as u64));
            digest.absorb_f64(v);
        }
        digest
    }
}

/// `cactusADM`-like: numerical relativity — staggered-grid update with a
/// square root in the lapse computation. Stress mass ≈ 19k (`ref`).
#[derive(Debug, Clone)]
pub(crate) struct CactusAdm {
    dataset: Dataset,
}

impl CactusAdm {
    /// Creates the kernel for `dataset`.
    #[must_use]
    pub(crate) fn new(dataset: Dataset) -> Self {
        CactusAdm { dataset }
    }
}

impl Program for CactusAdm {
    fn name(&self) -> &str {
        "cactusADM"
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        let (nx, ny, nz) = (16, 16, self.dataset.scaled(16));
        let n = nx * ny * nz;
        let metric = m.alloc(n);
        let curv = m.alloc(n);
        let mut gen = DataGen::new(0xCAC105);
        fill_grid(m, metric, n, &mut gen);
        fill_grid(m, curv, n, &mut gen);
        let idx = |x: usize, y: usize, z: usize| (x + nx * (y + ny * z)) as u64;
        let mut digest = OutputDigest::new();
        let mut trace = 0.0;
        for z in 1..nz - 1 {
            for y in 1..ny - 1 {
                for x in 1..nx - 1 {
                    if m.halted() {
                        return digest;
                    }
                    let g = m.load_f64(metric.offset(idx(x, y, z)));
                    let k = m.load_f64(curv.offset(idx(x, y, z)));
                    let gx = m.load_f64(metric.offset(idx(x + 1, y, z)));
                    let gy = m.load_f64(metric.offset(idx(x, y + 1, z)));
                    let gz = m.load_f64(metric.offset(idx(x, y, z + 1)));
                    let s1 = m.fmul(gx, gy);
                    let s2 = m.fmul(s1, gz);
                    let s3 = m.fadd(s2, 0.1);
                    // Lapse ~ sqrt(det g) every fourth point.
                    let lapse = if (x + y + z) % 4 == 0 {
                        m.fsqrt(s3)
                    } else {
                        m.fmul(s3, 0.5)
                    };
                    let dk = m.fmul(lapse, k);
                    let step = m.fmul(dk, 0.02);
                    let knew = m.fsub(k, step);
                    m.store_f64(curv.offset(idx(x, y, z)), knew);
                    let gnew = m.fma(g, 0.995, 0.002);
                    m.store_f64(metric.offset(idx(x, y, z)), gnew);
                    trace = m.fadd(trace, knew);
                }
            }
        }
        digest.absorb_f64(trace);
        for i in (0..n).step_by(83) {
            let v = m.load_f64(curv.offset(i as u64));
            digest.absorb_f64(v);
        }
        digest
    }
}

/// `zeusmp`-like: magnetohydrodynamics — two alternating directional passes
/// of a lighter stencil. Stress mass ≈ 15k (`ref`).
#[derive(Debug, Clone)]
pub(crate) struct Zeusmp {
    dataset: Dataset,
}

impl Zeusmp {
    /// Creates the kernel for `dataset`.
    #[must_use]
    pub(crate) fn new(dataset: Dataset) -> Self {
        Zeusmp { dataset }
    }
}

impl Program for Zeusmp {
    fn name(&self) -> &str {
        "zeusmp"
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        let nx = 80;
        let ny = self.dataset.scaled(44);
        let n = nx * ny;
        let v_field = m.alloc(n);
        let b_field = m.alloc(n);
        let mut gen = DataGen::new(0x2E05);
        fill_grid(m, v_field, n, &mut gen);
        fill_grid(m, b_field, n, &mut gen);
        let idx = |x: usize, y: usize| (x + nx * y) as u64;
        let mut digest = OutputDigest::new();
        let mut flux = 0.0;
        // X pass: advect v against b.
        for y in 0..ny {
            for x in 1..nx - 1 {
                if m.halted() {
                    return digest;
                }
                let v0 = m.load_f64(v_field.offset(idx(x, y)));
                let vl = m.load_f64(v_field.offset(idx(x - 1, y)));
                let b = m.load_f64(b_field.offset(idx(x, y)));
                let grad = m.fsub(v0, vl);
                let adv = m.fmul(grad, 0.4);
                let push = m.fmul(b, 0.05);
                let delta = m.fadd(adv, push);
                let vn = m.fsub(v0, delta);
                m.store_f64(v_field.offset(idx(x, y)), vn);
            }
        }
        // Y pass: update b from v curl.
        for y in 1..ny - 1 {
            for x in 0..nx {
                if m.halted() {
                    return digest;
                }
                let b0 = m.load_f64(b_field.offset(idx(x, y)));
                let vd = m.load_f64(v_field.offset(idx(x, y - 1)));
                let vu = m.load_f64(v_field.offset(idx(x, y)));
                let curl = m.fsub(vu, vd);
                let bn = m.fma(curl, 0.12, b0);
                m.store_f64(b_field.offset(idx(x, y)), bn);
                if m.branch(bn > 1.0) {
                    flux = m.fadd(flux, bn);
                }
            }
        }
        digest.absorb_f64(flux);
        for i in (0..n).step_by(71) {
            let v = m.load_f64(b_field.offset(i as u64));
            digest.absorb_f64(v);
        }
        digest
    }
}

/// `lbm`-like: lattice Boltzmann — streaming-dominated with moderate FP;
/// its working set far exceeds the L2 so it stresses L3/DRAM. Stress mass
/// ≈ 8k (`ref`).
#[derive(Debug, Clone)]
pub(crate) struct Lbm {
    dataset: Dataset,
}

impl Lbm {
    /// Creates the kernel for `dataset`.
    #[must_use]
    pub(crate) fn new(dataset: Dataset) -> Self {
        Lbm { dataset }
    }
}

impl Program for Lbm {
    fn name(&self) -> &str {
        "lbm"
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        // 9 distributions × a large cell count: working set ≈ 3 MB so the
        // streaming sweep spills past L2 into L3.
        let cells = self.dataset.scaled(40_000);
        let q = 9usize;
        let f = m.alloc(cells * q);
        let mut gen = DataGen::new(0x1B3);
        // Initialize a sparse subset; untouched cells stay zero (the
        // allocator zero-fills), keeping initialization cheap.
        for i in (0..cells * q).step_by(7) {
            m.store_f64(f.offset(i as u64), gen.range_f64(0.0, 0.1));
        }
        let sweep = self.dataset.scaled(1_100);
        let mut digest = OutputDigest::new();
        let mut mass = 0.0;
        let stride = 613usize; // co-prime with cells: a scattered stream
        let mut cell = 0usize;
        for _ in 0..sweep {
            if m.halted() {
                return digest;
            }
            cell = (cell + stride) % cells;
            let base = (cell * q) as u64;
            let mut rho = 0.0;
            for k in 0..q {
                let fi = m.load_f64(f.offset(base + k as u64));
                rho = m.fadd(rho, fi);
            }
            let eq = m.fmul(rho, 1.0 / 9.0);
            let f0 = m.load_f64(f.offset(base));
            let delta = m.fsub(eq, f0);
            let relaxed = m.fma(delta, 0.6, f0);
            m.store_f64(f.offset(base), relaxed);
            mass = m.fadd(mass, rho);
        }
        digest.absorb_f64(mass);
        digest
    }
}

/// `GemsFDTD`-like: finite-difference time domain — interleaved E/H field
/// updates, memory heavy with moderate FP. Stress mass ≈ 12k (`ref`).
#[derive(Debug, Clone)]
pub(crate) struct GemsFdtd {
    dataset: Dataset,
}

impl GemsFdtd {
    /// Creates the kernel for `dataset`.
    #[must_use]
    pub(crate) fn new(dataset: Dataset) -> Self {
        GemsFdtd { dataset }
    }
}

impl Program for GemsFdtd {
    fn name(&self) -> &str {
        "GemsFDTD"
    }

    fn dataset(&self) -> &str {
        self.dataset.label()
    }

    fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
        let nx = 96;
        let ny = self.dataset.scaled(42);
        let n = nx * ny;
        let e_field = m.alloc(n);
        let h_field = m.alloc(n);
        let mut gen = DataGen::new(0xFD7D);
        fill_grid(m, e_field, n, &mut gen);
        fill_grid(m, h_field, n, &mut gen);
        let idx = |x: usize, y: usize| (x + nx * y) as u64;
        let mut digest = OutputDigest::new();
        let mut poynting = 0.0;
        for y in 1..ny - 1 {
            for x in 1..nx - 1 {
                if m.halted() {
                    return digest;
                }
                let e0 = m.load_f64(e_field.offset(idx(x, y)));
                let hx = m.load_f64(h_field.offset(idx(x + 1, y)));
                let h0 = m.load_f64(h_field.offset(idx(x, y)));
                let curl_h = m.fsub(hx, h0);
                let en = m.fma(curl_h, 0.45, e0);
                m.store_f64(e_field.offset(idx(x, y)), en);

                let ey = m.load_f64(e_field.offset(idx(x, y + 1)));
                let curl_e = m.fsub(ey, en);
                let hn = m.fma(curl_e, 0.45, h0);
                m.store_f64(h_field.offset(idx(x, y)), hn);
                poynting = m.fma(en, hn, poynting);
            }
        }
        digest.absorb_f64(poynting);
        for i in (0..n).step_by(89) {
            let v = m.load_f64(e_field.offset(i as u64));
            digest.absorb_f64(v);
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::nominal_digest;
    use margins_sim::machine::MachineStatus;

    #[test]
    fn kernels_are_deterministic_at_nominal() {
        for p in [
            Box::new(Bwaves::new(Dataset::Ref)) as Box<dyn Program>,
            Box::new(Leslie3d::new(Dataset::Ref)),
            Box::new(CactusAdm::new(Dataset::Ref)),
            Box::new(Zeusmp::new(Dataset::Ref)),
            Box::new(Lbm::new(Dataset::Ref)),
            Box::new(GemsFdtd::new(Dataset::Ref)),
        ] {
            let (a, _, s) = nominal_digest(p.as_ref());
            let (b, _, _) = nominal_digest(p.as_ref());
            assert_eq!(a, b, "{} digest unstable", p.name());
            assert_eq!(s, MachineStatus::Healthy, "{}", p.name());
        }
    }

    #[test]
    fn stress_masses_land_in_their_design_bands() {
        let cases: [(Box<dyn Program>, f64, f64); 6] = [
            (Box::new(Bwaves::new(Dataset::Ref)), 30_000.0, 65_000.0),
            (Box::new(Leslie3d::new(Dataset::Ref)), 20_000.0, 42_000.0),
            (Box::new(CactusAdm::new(Dataset::Ref)), 12_000.0, 28_000.0),
            (Box::new(Zeusmp::new(Dataset::Ref)), 9_000.0, 21_000.0),
            (Box::new(GemsFdtd::new(Dataset::Ref)), 7_000.0, 16_000.0),
            (Box::new(Lbm::new(Dataset::Ref)), 4_500.0, 12_000.0),
        ];
        for (p, lo, hi) in cases {
            let (_, mass, _) = nominal_digest(p.as_ref());
            assert!(
                mass >= lo && mass <= hi,
                "{}: stress mass {mass} outside [{lo}, {hi}]",
                p.name()
            );
        }
    }

    #[test]
    fn train_dataset_is_smaller() {
        let (_, mref, _) = nominal_digest(&Bwaves::new(Dataset::Ref));
        let (_, mtrain, _) = nominal_digest(&Bwaves::new(Dataset::Train));
        assert!(mtrain < mref);
        assert!(mtrain > mref * 0.3);
    }

    #[test]
    fn bwaves_has_the_highest_stress() {
        let (_, bwaves, _) = nominal_digest(&Bwaves::new(Dataset::Ref));
        for other in [
            &Leslie3d::new(Dataset::Ref) as &dyn Program,
            &CactusAdm::new(Dataset::Ref),
            &Zeusmp::new(Dataset::Ref),
            &Lbm::new(Dataset::Ref),
            &GemsFdtd::new(Dataset::Ref),
        ] {
            let (_, mass, _) = nominal_digest(other);
            assert!(bwaves > mass, "bwaves {bwaves} vs {} {mass}", other.name());
        }
    }
}
