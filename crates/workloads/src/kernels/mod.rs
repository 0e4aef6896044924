//! The 26 SPEC CPU2006-like kernels.
//!
//! Grouped by microarchitectural character:
//!
//! * [`fp_stencil`] — FP stencil/grid codes (bwaves, leslie3d, cactusADM,
//!   zeusmp, lbm, GemsFDTD): high FP stress, regular memory.
//! * [`linear`] — linear algebra & field theory (dealII, soplex, calculix,
//!   milc, tonto, gamess): mixed FP, indexed accesses.
//! * [`md`] — molecular dynamics (gromacs, namd): pair-force loops with
//!   divide/sqrt (gromacs) vs. regular multiply-add (namd).
//! * [`integer`] — integer/pointer codes (mcf, gcc, gobmk, sjeng, hmmer,
//!   libquantum, h264ref, omnetpp, astar, bzip2, xalancbmk, perlbench):
//!   low FP stress, heavy branches/memory — these carry the low end of the
//!   Vmin spread of Figure 4.
//!
//! Every kernel documents its approximate *stress mass* (Σ of per-op path
//! stress weights), the quantity that positions its safe Vmin inside the
//! 860–885 mV robust-core band.

mod fp_stencil;
mod integer;
mod linear;
mod md;

pub(crate) use fp_stencil::{Bwaves, CactusAdm, GemsFdtd, Lbm, Leslie3d, Zeusmp};
pub(crate) use integer::{
    Astar, Bzip2, Gcc, Gobmk, H264Ref, Hmmer, Libquantum, Mcf, Omnetpp, Perlbench, Sjeng, Xalancbmk,
};
pub(crate) use linear::{Calculix, DealII, Gamess, Milc, Soplex, Tonto};
pub(crate) use md::{Gromacs, Namd};
