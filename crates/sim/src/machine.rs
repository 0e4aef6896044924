//! The op-level execution machine.
//!
//! [`Machine`] is the surface a [`crate::Program`] computes against: every
//! arithmetic operation, memory access and branch is *really executed* (so
//! the program produces a genuine output digest) while simultaneously
//!
//! * tallying the run's independent outcomes (op kinds, misses,
//!   write-backs, mispredicts, exceptions), from which the 101-event PMU
//!   [`CounterFile`] is derived once, when the run ends,
//! * advancing an approximate cycle/stall model (4-issue OoO core),
//! * exercising the cache hierarchy, a D-TLB and a branch predictor/BTB,
//! * accumulating switching activity into the droop model, and
//! * passing through the timing-fault Poisson sampler, which may corrupt
//!   the op's result (the seed of a silent data corruption), kill the
//!   application (AC) or hang the machine (SC).
//!
//! After an AC/SC the machine short-circuits: remaining ops return zeros
//! cheaply and the run records the crash, mirroring how the physical
//! framework observes a dead process or an unresponsive board.

use crate::cache::CacheHierarchy;
use crate::calib;
use crate::counters::{CounterFile, PmuEvent};
use crate::droop::DroopModel;
use crate::edac::EdacLog;
use crate::enhance::{self, Enhancements};
use crate::faults::timing::{
    draw_exponential, FaultConsequence, FaultFreeIntensity, OpClass, TimingFaultModel,
};
use crate::freq::TimingRegime;
use crate::topology::CoreId;
use margins_rng::Rng;

/// A word address inside the machine's data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// The address `n` words further.
    #[must_use]
    pub fn offset(self, n: u64) -> Addr {
        Addr(self.0 + n)
    }
}

/// Liveness of the machine during/after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineStatus {
    /// Executing normally.
    Healthy,
    /// The application process died (AC in Table 3).
    AppCrashed,
    /// The machine hung — only a power cycle recovers it (SC in Table 3).
    SysHung,
}

/// Everything the [`crate::System`] configures a machine with for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// The core executing the program.
    pub core: CoreId,
    /// PMD-rail voltage, mV.
    pub pmd_mv: f64,
    /// PCP/SoC-rail voltage, mV.
    pub soc_mv: f64,
    /// Effective timing regime of the core's clock.
    pub regime: TimingRegime,
    /// The core's static critical voltage, mV.
    pub vcrit_mv: f64,
    /// Thermal shift on the critical voltage, mV.
    pub thermal_shift_mv: f64,
    /// Run seed (distinct per campaign iteration).
    pub seed: u64,
    /// §6 hardware enhancements active on this chip revision.
    pub enhancements: Enhancements,
}

/// Report handed back to the system when a run finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Final machine liveness.
    pub status: MachineStatus,
    /// The PMU counter file of the run.
    pub counters: CounterFile,
    /// Modelled clock cycles consumed.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Timing faults that fired.
    pub timing_faults: u32,
    /// Poisson accounting events the fault model drew (profiling work unit).
    pub fault_samples: u64,
    /// Silent single-value corruptions applied (SDC seeds).
    pub silent_corruptions: u32,
    /// Timing faults caught and retried by the §6b detectors (enhanced
    /// chips only) — corrected-error events at the core level.
    pub detected_faults: u32,
    /// Total stress mass of the run.
    pub stress_mass: f64,
    /// Mean switching-activity weight per op (power model input).
    pub mean_activity: f64,
    /// What proves the same run fault-free elsewhere, when it fired none.
    pub fault_free: Option<FaultFree>,
}

/// The summary of a run that ended healthy with no timing fault, no silent
/// corruption, no residue retry and no SRAM error observed.
///
/// Such a run's op stream, cache traffic, counters, cycles and digest are a
/// function of the program, the core and the cache contents it started
/// from: voltage, thermal shift and seed only feed the fault samplers. This
/// summary is what those samplers need to decide, without executing the
/// run, whether it would fire a fault at other supplies, thermal shift and
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultFree {
    /// The timing sampler's factored intensity.
    pub timing: FaultFreeIntensity,
    /// Accesses that missed the L2: the SoC-logic sampler's trials.
    pub soc_trials: u64,
    /// Mean switching-activity weight per op (power model input).
    pub mean_activity: f64,
}

impl FaultFree {
    /// Whether a run with this summary and seed `seed`, on a core with
    /// critical voltage `vcrit_mv` at `pmd_mv`, `soc_mv` and thermal shift
    /// `thermal_shift_mv`, provably fires neither a timing nor a SoC-logic
    /// fault. Both samplers only accumulate non-negative intensities, so
    /// each fires exactly when its total reaches its budget; the budgets
    /// are those [`Machine::new`] draws from `seed`.
    ///
    /// SRAM weak cells are not covered: the caller checks that every array
    /// the run touches is inert at its supply.
    #[must_use]
    pub(crate) fn fires_no_fault(
        &self,
        vcrit_mv: f64,
        pmd_mv: f64,
        soc_mv: f64,
        thermal_shift_mv: f64,
        seed: u64,
    ) -> bool {
        let (_, timing_budget, soc_budget) = fault_budgets(seed);
        // `soc_trials` adds of one λ round at most once each; the margin
        // is the timing bound's, for the same reasons.
        let trials = self.soc_trials as f64;
        let soc_total = trials * soc_lambda(soc_mv) * (1.0 + 8.0 * f64::EPSILON * (trials + 64.0));
        self.timing.bound(vcrit_mv, pmd_mv, thermal_shift_mv) < timing_budget
            && soc_total < soc_budget
    }
}

/// The run's random stream and its two first fault budgets, drawn from
/// `seed` in this order: the timing budget, then the SoC-logic budget. The
/// one definition [`Machine::new`] and [`FaultFree::fires_no_fault`] share.
fn fault_budgets(seed: u64) -> (Rng, f64, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let timing = draw_exponential(&mut rng);
    let soc = draw_exponential(&mut rng);
    (rng, timing, soc)
}

/// SoC (L3/DRAM-controller) logic fault intensity per L2-missing access at
/// SoC rail voltage `soc_mv`; negligible unless the rail is scaled deep.
fn soc_lambda(soc_mv: f64) -> f64 {
    calib::SOC_P0
        * ((calib::SOC_CRIT_MV - soc_mv) / calib::S_MV)
            .min(30.0)
            .exp()
}

const DTLB_ENTRIES: usize = 512;
const BHT_ENTRIES: usize = 4096;
const BTB_ENTRIES: usize = 512;
const FETCH_GROUP_OPS: u32 = 16;
/// Interval (in ops) between background-OS activity ticks; together with
/// the kernel stress weight this delivers a stress mass of about 95 per
/// typical run, calibrated so the crash region of Figure 4 starts
/// ~25–35 mV below the robust-core Vmin.
const OS_TICK_INTERVAL: u32 = 640;
/// Kernel-mode ops simulated at boot before the program starts.
const BOOT_KERNEL_OPS: u32 = 30;
/// Probability that consuming ECC-poisoned data kills the application.
const POISON_AC_PROBABILITY: f64 = 0.6;
/// Data-memory allocation cap in 64-bit words (64 MiB).
const MEM_CAP_WORDS: u64 = 1 << 23;

/// What one accounted op is: its timing class, split where the counter
/// file tells ops of one class apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    /// `fadd` and `fsub` share the FP adder.
    FpAdd,
    FpMul,
    /// Fused multiply-add, timed as an [`OpClass::FpMul`].
    Fma,
    FpDiv,
    FpSqrt,
    IntAlu,
    IntMul,
    IntDiv,
    CondBranch,
    IndirectBranch,
}

const NUM_OP_KINDS: usize = 12;

impl OpKind {
    fn class(self) -> OpClass {
        match self {
            OpKind::Load => OpClass::Load,
            OpKind::Store => OpClass::Store,
            OpKind::FpAdd => OpClass::FpAdd,
            OpKind::FpMul | OpKind::Fma => OpClass::FpMul,
            OpKind::FpDiv => OpClass::FpDiv,
            OpKind::FpSqrt => OpClass::FpSqrt,
            OpKind::IntAlu => OpClass::IntAlu,
            OpKind::IntMul => OpClass::IntMul,
            OpKind::IntDiv => OpClass::IntDiv,
            OpKind::CondBranch | OpKind::IndirectBranch => OpClass::Branch,
        }
    }
}

/// The independent outcomes of a run, each counted once, where it happens.
/// Fields with a direction are indexed `[read, write]`.
///
/// The op path writes no PMU counter. Every event is a fixed integer
/// function of this tally and the cycle model, defined in one place:
/// [`Machine::driven_counts`].
#[derive(Debug, Default)]
struct Tally {
    /// Ops accounted, per [`OpKind`]; segfaulting memory ops included.
    ops: [u64; NUM_OP_KINDS],
    /// Memory ops that failed the bounds check.
    segfaults: [u64; 2],
    /// Taken conditional branches.
    taken: u64,
    /// Mispredicted conditional branches.
    mispredicts: u64,
    /// BTB misses of taken conditional branches.
    cond_btb_misses: u64,
    /// BTB misses of indirect branches, each also a mispredict.
    indirect_btb_misses: u64,
    dtlb_refills: u64,
    l1i_refills: u64,
    itlb_walks: u64,
    l1_misses: [u64; 2],
    /// L1 misses on the line after the previous miss: prefetch hits.
    prefetch_hits: u64,
    l2_misses: u64,
    dram: [u64; 2],
    /// Dirty lines written back out of the L1, L2 and L3.
    writebacks: [u64; 3],
    boots: u64,
    /// Corrected plus uncorrected SRAM errors observed.
    ecc_errors: u64,
    /// Accesses that consumed poisoned data and raised a data abort.
    poison_aborts: u64,
    /// Application crashes raised, each one a data abort.
    app_crashes: u64,
}

/// Number of PMU events the simulator drives; the other
/// `NUM_EVENTS - DRIVEN_EVENTS` read zero in every run.
const DRIVEN_EVENTS: usize = 81;

/// The op-level execution machine for one run on one core.
pub struct Machine<'a> {
    core: CoreId,
    /// PMD voltage as seen by the SRAM arrays: in the divided clock regime
    /// the doubled access slack relieves weak-cell failures entirely
    /// (`calib::SRAM_DIVIDED_RELIEF_MV`).
    sram_pmd_mv: f64,
    soc_mv: f64,
    thermal_shift_mv: f64,
    caches: &'a mut CacheHierarchy,
    edac: &'a mut EdacLog,
    /// The run's PMU counter file, written once, by `finalize`. It is
    /// allocated here, before the program's data memory: allocated last,
    /// this long-lived block would land above a large data array on the
    /// heap and keep that array's pages from being returned when it is
    /// freed (`suite-profile` peak RSS grew by up to half that way).
    counters: CounterFile,
    tally: Tally,
    timing: TimingFaultModel,
    droop: DroopModel,
    rng: Rng,
    mem: Vec<u64>,
    status: MachineStatus,
    cycles: f64,
    kernel_cycles: f64,
    pc: u64,
    code_footprint: u64,
    fetch_accum: u32,
    os_accum: u32,
    bht: Vec<u8>,
    btb: Vec<u64>,
    dtlb: Vec<u64>,
    silent_corruptions: u32,
    detected_faults: u32,
    enhancements: Enhancements,
    /// SoC-domain fault sampler state (L3/DRAM logic, active only when the
    /// PCP/SoC rail is scaled down towards `calib::SOC_CRIT_MV`).
    soc_lambda: f64,
    soc_accum: f64,
    soc_budget: f64,
    activity_sum: f64,
    last_l1d_line: u64,
}

impl<'a> Machine<'a> {
    /// Builds a machine over the chip's shared cache hierarchy and EDAC log.
    #[must_use]
    pub fn new(
        params: MachineParams,
        caches: &'a mut CacheHierarchy,
        edac: &'a mut EdacLog,
    ) -> Self {
        let (rng, timing_budget, soc_budget) = fault_budgets(params.seed);
        let timing = TimingFaultModel::with_budget(
            params.vcrit_mv,
            params.regime,
            params.pmd_mv,
            timing_budget,
        );
        caches.begin_run();
        let sram_pmd_mv = match params.regime {
            TimingRegime::FullSpeed => params.pmd_mv,
            TimingRegime::Divided => params.pmd_mv + calib::SRAM_DIVIDED_RELIEF_MV,
        };
        Machine {
            core: params.core,
            sram_pmd_mv,
            soc_mv: params.soc_mv,
            thermal_shift_mv: params.thermal_shift_mv,
            caches,
            edac,
            counters: CounterFile::new(),
            tally: Tally::default(),
            timing,
            droop: DroopModel::new(),
            rng,
            mem: Vec::new(),
            status: MachineStatus::Healthy,
            cycles: 0.0,
            kernel_cycles: 0.0,
            pc: 0x40_0000,
            code_footprint: 16 * 1024,
            fetch_accum: 0,
            os_accum: 0,
            bht: vec![1; BHT_ENTRIES],
            btb: vec![u64::MAX; BTB_ENTRIES],
            dtlb: vec![u64::MAX; DTLB_ENTRIES],
            silent_corruptions: 0,
            detected_faults: 0,
            enhancements: params.enhancements,
            soc_lambda: soc_lambda(params.soc_mv),
            soc_accum: 0.0,
            soc_budget,
            activity_sum: 0.0,
            last_l1d_line: u64::MAX,
        }
    }

    /// Current machine liveness.
    #[must_use]
    pub(crate) fn status(&self) -> MachineStatus {
        self.status
    }

    /// `true` once an AC/SC has fired — long-running kernels may poll this
    /// in outer loops to bail out early (purely an optimization; ops
    /// short-circuit anyway).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.status != MachineStatus::Healthy
    }

    /// Declares the program's instruction-footprint (bytes); larger-than-L1I
    /// footprints produce instruction-cache refills. Defaults to 16 KiB.
    pub fn set_code_footprint(&mut self, bytes: u64) {
        self.code_footprint = bytes.max(64);
    }

    /// Boot/OS-resume activity executed before the program: a burst of
    /// kernel-mode ops plus — in the divided clock regime — the outright
    /// collapse roll of §3.2.
    pub(crate) fn boot(&mut self) {
        let p = self.timing.collapse_probability();
        if p > 0.0 && self.rng.next_f64() < p {
            self.status = MachineStatus::SysHung;
            return;
        }
        if let Some(c) = self
            .timing
            .on_burst(OpClass::Kernel, BOOT_KERNEL_OPS, &mut self.rng)
        {
            self.apply_crash_consequence(c);
        }
        self.tally.boots += 1;
        self.kernel_cycles += 400.0;
        self.cycles += 400.0;
    }

    // ---------------------------------------------------------------
    // Data memory
    // ---------------------------------------------------------------

    /// Allocates `n` zeroed 64-bit words and returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if the allocation would exceed the machine's memory cap —
    /// that is a workload bug, not a simulated fault.
    pub fn alloc(&mut self, n: usize) -> Addr {
        let base = self.mem.len() as u64;
        assert!(
            base + n as u64 <= MEM_CAP_WORDS,
            "workload exceeds simulated memory cap"
        );
        self.mem.resize(self.mem.len() + n, 0);
        Addr(base)
    }

    /// Loads a 64-bit word; out-of-bounds addresses (e.g. from corrupted
    /// indices) kill the application like a real segfault.
    #[inline]
    pub fn load_u64(&mut self, addr: Addr) -> u64 {
        self.mem_op(addr, false, None)
    }

    /// Stores a 64-bit word.
    #[inline]
    pub fn store_u64(&mut self, addr: Addr, value: u64) {
        self.mem_op(addr, true, Some(value));
    }

    /// Loads a floating-point value.
    #[inline]
    pub fn load_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.load_u64(addr))
    }

    /// Stores a floating-point value.
    #[inline]
    pub fn store_f64(&mut self, addr: Addr, value: f64) {
        self.store_u64(addr, value.to_bits());
    }

    #[inline(always)]
    fn mem_op(&mut self, addr: Addr, write: bool, value: Option<u64>) -> u64 {
        if self.halted() {
            return 0;
        }
        let kind = if write { OpKind::Store } else { OpKind::Load };
        self.account(kind);
        let dir = usize::from(write);

        if addr.0 >= self.mem.len() as u64 {
            return self.segfault(dir);
        }

        // D-TLB.
        let byte_addr = addr.0 * 8;
        let vpage = byte_addr >> 12;
        let tlb_idx = (vpage as usize) % DTLB_ENTRIES;
        if self.dtlb[tlb_idx] != vpage {
            self.dtlb[tlb_idx] = vpage;
            self.tally.dtlb_refills += 1;
            self.cycles += 20.0;
        }

        // Cache hierarchy.
        let access = self.caches.data_access(
            self.core,
            byte_addr,
            write,
            self.sram_pmd_mv,
            self.soc_mv,
            self.edac,
        );
        if !access.l1_hit {
            self.tally.l1_misses[dir] += 1;
            self.cycles += 6.0;
            // Next-line prefetcher fires on sequential misses.
            let line = byte_addr / crate::topology::LINE_BYTES as u64;
            if line == self.last_l1d_line.wrapping_add(1) {
                self.tally.prefetch_hits += 1;
            }
            self.last_l1d_line = line;
        }
        if !access.l1_hit && !access.l2_hit {
            self.tally.l2_misses += 1;
            self.cycles += 20.0;
        }
        if !access.l1_hit && !access.l2_hit {
            // The access engaged the PCP/SoC domain's logic (L3 pipeline,
            // switch, possibly the DRAM controllers).
            self.soc_accum += self.soc_lambda;
            if self.soc_accum >= self.soc_budget {
                return self.soc_logic_fault();
            }
        }
        if access.dram() {
            self.tally.dram[dir] += 1;
            self.cycles += 60.0;
        }
        self.tally.writebacks[0] += u64::from(access.wb_l1);
        self.tally.writebacks[1] += u64::from(access.wb_l2);
        self.tally.writebacks[2] += u64::from(access.wb_l3);

        // SRAM protection observations.
        let obs = access.faults;
        self.tally.ecc_errors += u64::from(obs.corrected + obs.uncorrected);
        if obs.poison && self.consume_poison() {
            return 0;
        }

        // The actual data movement.
        let mut result = if write {
            #[expect(
                clippy::expect_used,
                reason = "every store call site passes Some(value)"
            )]
            let v = value.expect("store carries a value");
            self.mem[addr.0 as usize] = v;
            v
        } else {
            self.mem[addr.0 as usize]
        };

        if obs.silent_corruption_mask != 0 {
            // Undetected SRAM corruption flips the value in place.
            result ^= obs.silent_corruption_mask;
            self.mem[addr.0 as usize] = result;
            self.silent_corruptions += 1;
        }

        // Timing fault on the load/store path.
        if let Some(c) = self.timing.on_op(kind.class(), &mut self.rng) {
            result = self.apply_value_fault(c, result);
            if write {
                if let MachineStatus::Healthy = self.status {
                    self.mem[addr.0 as usize] = result;
                }
            }
        }
        result
    }

    /// The segfault exit of [`Self::mem_op`], in direction `dir`.
    #[cold]
    #[inline(never)]
    fn segfault(&mut self, dir: usize) -> u64 {
        // Segfault: corrupted pointer or workload bug.
        self.tally.segfaults[dir] += 1;
        self.raise_app_crash();
        0
    }

    /// The SoC-logic exit of [`Self::mem_op`]: its sampler reached its
    /// budget, so it draws the next one and the machine hangs or the
    /// application dies.
    #[cold]
    #[inline(never)]
    fn soc_logic_fault(&mut self) -> u64 {
        self.soc_accum = 0.0;
        self.soc_budget = draw_exponential(&mut self.rng);
        if self.rng.next_f64() < 0.8 {
            self.status = MachineStatus::SysHung;
        } else {
            self.raise_app_crash();
        }
        0
    }

    /// Whether consuming poisoned data kills the application, which
    /// [`Self::mem_op`] then exits on.
    #[cold]
    #[inline(never)]
    fn consume_poison(&mut self) -> bool {
        if self.rng.next_f64() < POISON_AC_PROBABILITY {
            self.tally.poison_aborts += 1;
            self.raise_app_crash();
            return true;
        }
        false
    }

    // ---------------------------------------------------------------
    // Arithmetic
    // ---------------------------------------------------------------

    /// Floating-point addition.
    #[inline]
    pub fn fadd(&mut self, a: f64, b: f64) -> f64 {
        self.f2(OpKind::FpAdd, 0.2, a, b, |x, y| x + y)
    }

    /// Floating-point subtraction (shares the FP adder).
    #[inline]
    pub fn fsub(&mut self, a: f64, b: f64) -> f64 {
        self.f2(OpKind::FpAdd, 0.2, a, b, |x, y| x - y)
    }

    /// Floating-point multiplication.
    #[inline]
    pub fn fmul(&mut self, a: f64, b: f64) -> f64 {
        self.f2(OpKind::FpMul, 0.2, a, b, |x, y| x * y)
    }

    /// Fused multiply-add.
    #[inline]
    pub fn fma(&mut self, a: f64, b: f64, c: f64) -> f64 {
        if self.halted() {
            return 0.0;
        }
        self.account(OpKind::Fma);
        self.cycles += 0.2;
        let mut r = a.mul_add(b, c);
        if let Some(cq) = self.timing.on_op(OpClass::FpMul, &mut self.rng) {
            r = f64::from_bits(self.apply_value_fault(cq, r.to_bits()));
        }
        r
    }

    /// Floating-point division (deep path: highest fault exposure, §3.4).
    #[inline]
    pub fn fdiv(&mut self, a: f64, b: f64) -> f64 {
        self.f2(OpKind::FpDiv, 6.0, a, b, |x, y| x / y)
    }

    /// Floating-point square root.
    #[inline]
    pub fn fsqrt(&mut self, a: f64) -> f64 {
        if self.halted() {
            return 0.0;
        }
        self.account(OpKind::FpSqrt);
        self.cycles += 5.0;
        let mut r = a.sqrt();
        if let Some(c) = self.timing.on_op(OpClass::FpSqrt, &mut self.rng) {
            r = f64::from_bits(self.apply_value_fault(c, r.to_bits()));
        }
        r
    }

    /// Integer addition.
    #[inline]
    pub fn iadd(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, b, |x, y| x.wrapping_add(y))
    }

    /// Integer subtraction.
    #[inline]
    pub fn isub(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, b, |x, y| x.wrapping_sub(y))
    }

    /// Integer multiplication.
    #[inline]
    pub fn imul(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntMul, 1.0, a, b, |x, y| x.wrapping_mul(y))
    }

    /// Integer division (`0` divisor yields `0`, as a guarded idiv would).
    #[inline]
    pub fn idiv(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntDiv, 8.0, a, b, |x, y| {
            x.checked_div(y).unwrap_or(0)
        })
    }

    /// Bitwise AND.
    #[inline]
    pub fn iand(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, b, |x, y| x & y)
    }

    /// Bitwise OR.
    #[inline]
    pub fn ior(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, b, |x, y| x | y)
    }

    /// Bitwise XOR.
    #[inline]
    pub fn ixor(&mut self, a: u64, b: u64) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, b, |x, y| x ^ y)
    }

    /// Logical shift left (modulo 64).
    #[inline]
    pub fn ishl(&mut self, a: u64, b: u32) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, u64::from(b), |x, y| x << (y % 64))
    }

    /// Logical shift right (modulo 64).
    #[inline]
    pub fn ishr(&mut self, a: u64, b: u32) -> u64 {
        self.i2(OpKind::IntAlu, 0.0, a, u64::from(b), |x, y| x >> (y % 64))
    }

    // ---------------------------------------------------------------
    // Control flow
    // ---------------------------------------------------------------

    /// A conditional branch that resolves to `taken`.
    ///
    /// Returns the direction the machine actually takes: normally `taken`,
    /// but a timing fault on the branch path may *invert* it — control-flow
    /// corruption that genuinely changes what the program computes.
    #[inline]
    #[must_use = "the machine may invert a faulted branch; use the returned direction"]
    pub fn branch(&mut self, taken: bool) -> bool {
        if self.halted() {
            return false;
        }
        self.account(OpKind::CondBranch);

        // 2-bit bimodal predictor.
        let idx = (self.pc as usize >> 2) % BHT_ENTRIES;
        let predicted = self.bht[idx] >= 2;
        if predicted != taken {
            self.tally.mispredicts += 1;
            self.cycles += 12.0;
        }
        self.bht[idx] = match (taken, self.bht[idx]) {
            (true, c) => (c + 1).min(3),
            (false, c) => c.saturating_sub(1),
        };

        // BTB for taken branches.
        if taken {
            self.tally.taken += 1;
            let bidx = (self.pc as usize >> 2) % BTB_ENTRIES;
            if self.btb[bidx] != self.pc {
                self.tally.cond_btb_misses += 1;
                self.btb[bidx] = self.pc;
                self.cycles += 2.0;
            }
        }

        match self.timing.on_op(OpClass::Branch, &mut self.rng) {
            Some(FaultConsequence::CorruptValue) => {
                self.silent_corruptions += 1;
                !taken
            }
            Some(c) => {
                self.apply_crash_consequence(c);
                false
            }
            None => taken,
        }
    }

    /// An indirect branch/jump through `target` (BTB-predicted).
    #[inline]
    pub fn indirect_branch(&mut self, target: u64) {
        if self.halted() {
            return;
        }
        self.account(OpKind::IndirectBranch);
        let bidx = (target as usize >> 2) % BTB_ENTRIES;
        if self.btb[bidx] != target {
            self.tally.indirect_btb_misses += 1;
            self.cycles += 14.0;
            self.btb[bidx] = target;
        }
        if let Some(c) = self.timing.on_op(OpClass::Branch, &mut self.rng) {
            if c != FaultConsequence::CorruptValue {
                self.apply_crash_consequence(c);
            } else {
                self.silent_corruptions += 1;
            }
        }
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    #[inline(always)]
    fn f2(
        &mut self,
        kind: OpKind,
        extra_cycles: f64,
        a: f64,
        b: f64,
        f: impl FnOnce(f64, f64) -> f64,
    ) -> f64 {
        if self.halted() {
            return 0.0;
        }
        self.account(kind);
        self.cycles += extra_cycles;
        let mut r = f(a, b);
        if let Some(c) = self.timing.on_op(kind.class(), &mut self.rng) {
            r = f64::from_bits(self.apply_value_fault(c, r.to_bits()));
        }
        r
    }

    #[inline(always)]
    fn i2(
        &mut self,
        kind: OpKind,
        extra_cycles: f64,
        a: u64,
        b: u64,
        f: impl FnOnce(u64, u64) -> u64,
    ) -> u64 {
        if self.halted() {
            return 0;
        }
        self.account(kind);
        self.cycles += extra_cycles;
        let mut r = f(a, b);
        if let Some(c) = self.timing.on_op(kind.class(), &mut self.rng) {
            r = self.apply_value_fault(c, r);
        }
        r
    }

    /// Per-op bookkeeping shared by every op kind. Every op passes here,
    /// so it compiles into the op that issues it, and the work due only
    /// every 16th op or less often is one call.
    #[inline(always)]
    fn account(&mut self, kind: OpKind) {
        self.tally.ops[kind as usize] += 1;
        self.cycles += 1.0 / f64::from(crate::topology::ISSUE_WIDTH) + 0.05;
        let act = kind.class().activity_weight();
        self.activity_sum += act;
        let block_done = self.droop.record_activity(act);
        self.fetch_accum += 1;
        self.os_accum += 1;
        if block_done || self.fetch_accum >= FETCH_GROUP_OPS || self.os_accum >= OS_TICK_INTERVAL {
            self.account_boundaries(block_done);
        }

        // Cascading failure: enough faults in one run and the machine is
        // beyond recovery regardless of individual consequences.
        if self.timing.faults_fired() > calib::CASCADE_SC_THRESHOLD {
            self.status = MachineStatus::SysHung;
        }
    }

    /// The periodic work of [`Self::account`], in this order: the droop
    /// refresh when `block_done` closed an activity block, the fetch group
    /// every 16th op and the OS tick every 640th.
    #[inline(never)]
    fn account_boundaries(&mut self, block_done: bool) {
        if block_done {
            if self.enhancements.adaptive_clocking {
                // The adaptive clock stretches through droop events instead
                // of letting them erode the margin (§4.4 footnote).
                let suppressed = self.droop.droop_mv();
                self.cycles += suppressed * enhance::ADAPTIVE_CLOCK_STRETCH_CYCLES_PER_MV;
                self.timing.refresh(0.0, self.thermal_shift_mv);
            } else {
                self.timing
                    .refresh(self.droop.droop_mv(), self.thermal_shift_mv);
            }
        }

        // Instruction fetch every 16 ops (one 64 B fetch group).
        if self.fetch_accum >= FETCH_GROUP_OPS {
            self.fetch_accum = 0;
            self.pc = 0x40_0000 + (self.pc + 64 - 0x40_0000) % self.code_footprint;
            if !self.caches.inst_access(self.core, self.pc) {
                self.tally.l1i_refills += 1;
                self.cycles += 8.0;
            }
            let ipage = self.pc >> 12;
            if ipage != (self.pc.wrapping_sub(64)) >> 12 && self.code_footprint > 4096 {
                self.tally.itlb_walks += 1;
            }
        }

        // Background OS tick.
        if self.os_accum >= OS_TICK_INTERVAL {
            self.os_accum = 0;
            self.kernel_cycles += 50.0;
            self.cycles += 50.0;
            if let Some(c) = self.timing.on_burst(OpClass::Kernel, 1, &mut self.rng) {
                self.apply_crash_consequence(c);
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn apply_value_fault(&mut self, consequence: FaultConsequence, value: u64) -> u64 {
        match consequence {
            FaultConsequence::CorruptValue => {
                // §6b detectors: a covered datapath fault is caught and the
                // op retried — a corrected error instead of an SDC seed.
                if self.enhancements.residue_checks
                    && self.rng.next_f64() < enhance::RESIDUE_COVERAGE
                {
                    self.detected_faults += 1;
                    self.cycles += enhance::RETRY_PENALTY_CYCLES;
                    return value;
                }
                self.silent_corruptions += 1;
                value ^ (1u64 << self.rng.below(64))
            }
            other => {
                self.apply_crash_consequence(other);
                value
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn apply_crash_consequence(&mut self, consequence: FaultConsequence) {
        match consequence {
            FaultConsequence::AppCrash => self.raise_app_crash(),
            FaultConsequence::SysCrash => self.status = MachineStatus::SysHung,
            FaultConsequence::CorruptValue => {}
        }
    }

    fn raise_app_crash(&mut self) {
        if self.status == MachineStatus::Healthy {
            self.status = MachineStatus::AppCrashed;
            self.tally.app_crashes += 1;
        }
    }

    /// The count of every PMU event the simulator drives, in counter-file
    /// order. This map is the definition of each event: a fixed integer
    /// function of the [`Tally`] and the cycle model, and the only writer
    /// of the counter file. Sums and multiples saturate at `u64::MAX`, as
    /// [`CounterFile::add`] does.
    fn driven_counts(&self) -> [(PmuEvent, u64); DRIVEN_EVENTS] {
        let t = &self.tally;
        let sum = |terms: &[u64]| terms.iter().fold(0, |a: u64, &n| a.saturating_add(n));
        let times = |n: u64, weight: u64| n.saturating_mul(weight);
        let kind = |k: OpKind| t.ops[k as usize];

        let ops = sum(&t.ops);
        // A fetch group fires on every 16th op, an OS tick on every 640th.
        let fetch_groups = ops / u64::from(FETCH_GROUP_OPS);
        let os_ticks = ops / u64::from(OS_TICK_INTERVAL);
        // Memory ops crack into address-generation + access uops; a
        // segfaulting one is accounted but never reaches the TLB.
        let mem_uops = sum(&[kind(OpKind::Load), kind(OpKind::Store)]);
        let loads = kind(OpKind::Load) - t.segfaults[0];
        let stores = kind(OpKind::Store) - t.segfaults[1];
        let mem = sum(&[loads, stores]);
        let (cond, indirect) = (kind(OpKind::CondBranch), kind(OpKind::IndirectBranch));
        let [l1_rd, l1_wr] = t.l1_misses;
        let l1 = sum(&t.l1_misses);
        let l2 = t.l2_misses;
        let dram = sum(&t.dram);
        let [wb_l1, wb_l2, wb_l3] = t.writebacks;
        let app_aborts = sum(&[t.poison_aborts, t.app_crashes]);
        let cycles = self.cycles.round() as u64;

        [
            (PmuEvent::CpuCycles, cycles),
            (PmuEvent::InstRetired, ops),
            // Wrong-path work shows up as speculative-only instructions.
            (PmuEvent::InstSpec, sum(&[ops, times(t.mispredicts, 9)])),
            (PmuEvent::LdRetired, loads),
            (PmuEvent::StRetired, stores),
            (PmuEvent::MemAccess, mem),
            (PmuEvent::ReadMemAccess, loads),
            (PmuEvent::WriteMemAccess, stores),
            (PmuEvent::ExcTaken, sum(&[t.boots, os_ticks, app_aborts])),
            (PmuEvent::ExcReturn, sum(&[t.boots, os_ticks])),
            (PmuEvent::ExcIrq, os_ticks),
            (PmuEvent::ExcDabort, app_aborts),
            (PmuEvent::PcWriteRetired, sum(&[cond, indirect])),
            (PmuEvent::BrRetired, sum(&[cond, indirect])),
            (PmuEvent::BrImmedRetired, t.taken),
            (PmuEvent::BrIndirectSpec, indirect),
            (PmuEvent::CondBrRetired, cond),
            (PmuEvent::IndBrRetired, indirect),
            (
                PmuEvent::BrMisPred,
                sum(&[t.mispredicts, t.indirect_btb_misses]),
            ),
            (PmuEvent::BrMisPredRetired, t.mispredicts),
            (
                PmuEvent::BrPred,
                sum(&[cond - t.mispredicts, indirect - t.indirect_btb_misses]),
            ),
            (
                PmuEvent::BtbMisPred,
                sum(&[t.cond_btb_misses, t.indirect_btb_misses]),
            ),
            (
                PmuEvent::BtbHit,
                sum(&[
                    t.taken - t.cond_btb_misses,
                    indirect - t.indirect_btb_misses,
                ]),
            ),
            (
                PmuEvent::CpuCyclesUser,
                (self.cycles - self.kernel_cycles).max(0.0).round() as u64,
            ),
            (PmuEvent::CpuCyclesKernel, self.kernel_cycles.round() as u64),
            (
                PmuEvent::StallFrontend,
                sum(&[
                    times(t.mispredicts, 12),
                    times(t.indirect_btb_misses, 14),
                    times(t.l1i_refills, 8),
                ]),
            ),
            (
                PmuEvent::StallBackend,
                sum(&[times(l1, 6), times(l2, 20), times(dram, 60)]),
            ),
            (
                PmuEvent::DispatchStallCycles,
                sum(&[
                    times(t.dtlb_refills, 20),
                    times(l1, 6),
                    times(l2, 20),
                    times(dram, 60),
                ]),
            ),
            (
                PmuEvent::IssueStallCycles,
                sum(&[
                    times(kind(OpKind::FpDiv), 6),
                    times(kind(OpKind::FpSqrt), 5),
                ]),
            ),
            (PmuEvent::DecodeStallCycles, times(t.mispredicts, 6)),
            (PmuEvent::RobFullCycles, times(dram, 30)),
            (PmuEvent::LsqFullCycles, times(l2, 5)),
            (
                PmuEvent::PipelineFlush,
                sum(&[t.mispredicts, u64::from(self.detected_faults)]),
            ),
            (PmuEvent::UopsRetired, sum(&[ops, mem_uops])),
            (
                PmuEvent::FpInstRetired,
                sum(&[
                    kind(OpKind::FpAdd),
                    kind(OpKind::FpMul),
                    kind(OpKind::FpDiv),
                    kind(OpKind::Fma),
                    kind(OpKind::FpSqrt),
                ]),
            ),
            (PmuEvent::FpAddRetired, kind(OpKind::FpAdd)),
            (PmuEvent::FpMulRetired, kind(OpKind::FpMul)),
            (PmuEvent::FpDivRetired, kind(OpKind::FpDiv)),
            (PmuEvent::FpFmaRetired, kind(OpKind::Fma)),
            (PmuEvent::FpSqrtRetired, kind(OpKind::FpSqrt)),
            (PmuEvent::IntAluRetired, kind(OpKind::IntAlu)),
            (PmuEvent::IntMulRetired, kind(OpKind::IntMul)),
            (PmuEvent::IntDivRetired, kind(OpKind::IntDiv)),
            (PmuEvent::L1ICache, fetch_groups),
            (PmuEvent::L1ICacheRefill, t.l1i_refills),
            (PmuEvent::L1ITlb, fetch_groups),
            (PmuEvent::L1ITlbRefill, t.itlb_walks),
            (PmuEvent::L1DCache, mem),
            (PmuEvent::L1DCacheRefill, l1),
            (PmuEvent::L1DCacheWb, wb_l1),
            (PmuEvent::L1DCacheAllocate, l1),
            (PmuEvent::L1DCacheRd, loads),
            (PmuEvent::L1DCacheWr, stores),
            (PmuEvent::L1DTlb, mem),
            (PmuEvent::L1DTlbRefill, t.dtlb_refills),
            (PmuEvent::L2DCache, l1),
            (PmuEvent::L2DCacheRefill, l2),
            (PmuEvent::L2DCacheWb, wb_l2),
            (PmuEvent::L2DCacheAllocate, l2),
            (PmuEvent::L2DCacheRd, l1_rd),
            (PmuEvent::L2DCacheWr, l1_wr),
            (PmuEvent::L3Cache, l2),
            (PmuEvent::L3CacheRefill, dram),
            (PmuEvent::L3CacheWb, wb_l3),
            (PmuEvent::L3CacheRd, l2),
            (PmuEvent::DtlbWalk, t.dtlb_refills),
            (PmuEvent::ItlbWalk, t.itlb_walks),
            (PmuEvent::PageWalkCycles, times(t.dtlb_refills, 20)),
            (PmuEvent::PrefetchLinefill, t.prefetch_hits),
            (PmuEvent::PrefetchLinefillDrop, l1 - t.prefetch_hits),
            (PmuEvent::ReadAlloc, l1_rd),
            (PmuEvent::WriteAlloc, l1_wr),
            (PmuEvent::BusAccess, l2),
            (PmuEvent::BusAccessRd, l2),
            (PmuEvent::BusAccessWr, sum(&[wb_l2, wb_l3])),
            (PmuEvent::BusCycles, cycles / 2),
            (PmuEvent::MemoryError, t.ecc_errors),
            (PmuEvent::LocalMemoryRd, t.dram[0]),
            (PmuEvent::LocalMemoryWr, t.dram[1]),
            (PmuEvent::IrqDisabledCycles, times(os_ticks, 12)),
            (PmuEvent::ContextSwitches, t.boots),
        ]
    }

    /// Finishes the run: derives the PMU counter file from the tally and
    /// returns the report, with a [`FaultFree`] summary when the run ended
    /// healthy and no fault of any kind fired or was observed.
    #[must_use]
    pub fn finalize(mut self) -> MachineReport {
        for (event, n) in self.driven_counts() {
            self.counters.add(event, n);
        }
        let counters = self.counters;
        let instructions = counters[PmuEvent::InstRetired];
        let mean_activity = if instructions > 0 {
            self.activity_sum / instructions as f64
        } else {
            0.0
        };
        let untouched = self.status == MachineStatus::Healthy
            && self.silent_corruptions == 0
            && self.detected_faults == 0
            && self.tally.ecc_errors == 0;
        let fault_free = self
            .timing
            .fault_free_intensity()
            .filter(|_| untouched)
            .map(|timing| FaultFree {
                timing,
                soc_trials: self.tally.l2_misses,
                mean_activity,
            });
        MachineReport {
            status: self.status,
            cycles: counters[PmuEvent::CpuCycles],
            instructions,
            timing_faults: self.timing.faults_fired(),
            fault_samples: self.timing.samples_drawn(),
            silent_corruptions: self.silent_corruptions,
            detected_faults: self.detected_faults,
            stress_mass: self.timing.stress_mass(),
            mean_activity,
            counters,
            fault_free,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheHierarchy;
    use crate::corner::{ChipSpec, Corner};

    fn params(pmd_mv: f64, seed: u64) -> MachineParams {
        MachineParams {
            core: CoreId::new(0),
            pmd_mv,
            soc_mv: 950.0,
            regime: TimingRegime::FullSpeed,
            vcrit_mv: 886.0,
            thermal_shift_mv: 0.0,
            seed,
            enhancements: Enhancements::stock(),
        }
    }

    fn env() -> (CacheHierarchy, EdacLog) {
        (
            CacheHierarchy::new(ChipSpec::new(Corner::Ttt, 0)),
            EdacLog::new(),
        )
    }

    /// A small deterministic kernel used by several tests.
    fn run_kernel(m: &mut Machine<'_>) -> u64 {
        let base = m.alloc(1024);
        for i in 0..1024u64 {
            m.store_f64(base.offset(i), i as f64 * 0.5);
        }
        let mut acc = 0.0;
        for i in 0..1024u64 {
            let v = m.load_f64(base.offset(i));
            let w = m.fmul(v, 1.25);
            acc = m.fadd(acc, w);
            let _ = m.branch(i % 3 == 0);
        }
        acc.to_bits()
    }

    #[test]
    fn nominal_run_is_deterministic_and_healthy() {
        let (mut c1, mut e1) = env();
        let mut m1 = Machine::new(params(980.0, 1), &mut c1, &mut e1);
        m1.boot();
        let r1 = run_kernel(&mut m1);
        let rep1 = m1.finalize();

        let (mut c2, mut e2) = env();
        let mut m2 = Machine::new(params(980.0, 2), &mut c2, &mut e2);
        m2.boot();
        let r2 = run_kernel(&mut m2);
        let rep2 = m2.finalize();

        assert_eq!(rep1.status, MachineStatus::Healthy);
        assert_eq!(rep2.status, MachineStatus::Healthy);
        // Different seeds, same program, nominal voltage: identical output.
        assert_eq!(r1, r2);
        assert_eq!(rep1.silent_corruptions, 0);
        assert_eq!(rep1.timing_faults, 0);
        assert_eq!(
            rep1.counters[PmuEvent::InstRetired],
            rep2.counters[PmuEvent::InstRetired]
        );
    }

    #[test]
    fn counters_reflect_the_op_stream() {
        let (mut c, mut e) = env();
        let mut m = Machine::new(params(980.0, 1), &mut c, &mut e);
        let _ = run_kernel(&mut m);
        let rep = m.finalize();
        let cf = &rep.counters;
        assert_eq!(cf[PmuEvent::StRetired], 1024);
        assert_eq!(cf[PmuEvent::LdRetired], 1024);
        assert_eq!(cf[PmuEvent::ReadMemAccess], 1024);
        assert_eq!(cf[PmuEvent::FpMulRetired], 1024);
        assert_eq!(cf[PmuEvent::FpAddRetired], 1024);
        assert_eq!(cf[PmuEvent::CondBrRetired], 1024);
        assert!(cf[PmuEvent::CpuCycles] > 0);
        assert!(cf[PmuEvent::L1DCacheRefill] > 0, "cold misses expected");
        assert!(
            cf[PmuEvent::BrMisPred] > 0,
            "i%3 pattern defeats 2-bit counters sometimes"
        );
        assert!(
            cf[PmuEvent::UopsRetired] > cf[PmuEvent::InstRetired],
            "memory ops crack into multiple uops"
        );
        assert!(
            cf[PmuEvent::InstSpec] > cf[PmuEvent::InstRetired],
            "mispredicts add wrong-path speculative instructions"
        );
    }

    #[test]
    fn deep_undervolt_produces_faults_or_crash() {
        let mut corrupted_or_crashed = 0;
        for seed in 0..5 {
            let (mut c, mut e) = env();
            let mut m = Machine::new(params(850.0, seed), &mut c, &mut e);
            m.boot();
            let _ = run_kernel(&mut m);
            let rep = m.finalize();
            if rep.status != MachineStatus::Healthy || rep.silent_corruptions > 0 {
                corrupted_or_crashed += 1;
            }
        }
        assert_eq!(corrupted_or_crashed, 5, "850mV is deep in the crash region");
    }

    #[test]
    fn slight_undervolt_below_vmin_yields_sdc_like_corruption() {
        // The test kernel's stress mass is ~3k, so its own Vmin sits well
        // below a real benchmark's; probe a voltage where its per-run fault
        // expectation is ~1 and check value corruption (digest changes)
        // dominates over crashes.
        let mut digests = std::collections::HashSet::new();
        let mut crashes = 0;
        for seed in 0..30 {
            let (mut c, mut e) = env();
            let mut m = Machine::new(params(858.0, seed), &mut c, &mut e);
            m.boot();
            let d = run_kernel(&mut m);
            let rep = m.finalize();
            if rep.status == MachineStatus::Healthy {
                digests.insert(d);
            } else {
                crashes += 1;
            }
        }
        assert!(
            digests.len() > 1,
            "some runs must produce corrupted outputs ({} distinct digests, {crashes} crashes)",
            digests.len()
        );
        assert!(
            digests.len() * 2 >= crashes,
            "near Vmin, SDCs must be commonplace relative to crashes ({} digests, {crashes} crashes)",
            digests.len()
        );
    }

    #[test]
    fn out_of_bounds_access_is_an_app_crash() {
        let (mut c, mut e) = env();
        let mut m = Machine::new(params(980.0, 1), &mut c, &mut e);
        let base = m.alloc(8);
        let _ = m.load_u64(base.offset(1_000_000));
        assert_eq!(m.status(), MachineStatus::AppCrashed);
    }

    #[test]
    fn ops_short_circuit_after_crash() {
        let (mut c, mut e) = env();
        let mut m = Machine::new(params(980.0, 1), &mut c, &mut e);
        let base = m.alloc(8);
        let _ = m.load_u64(base.offset(99)); // crash
        let before = {
            // finalize would consume; peek via counters later instead
            m.status()
        };
        assert_eq!(before, MachineStatus::AppCrashed);
        assert_eq!(m.fadd(1.0, 2.0), 0.0);
        assert_eq!(m.iadd(1, 2), 0);
        assert!(!m.branch(true));
        assert!(m.halted());
    }

    #[test]
    fn divided_regime_safe_above_collapse_threshold() {
        for seed in 0..10 {
            let (mut c, mut e) = env();
            let mut p = params(760.0, seed);
            p.regime = TimingRegime::Divided;
            let mut m = Machine::new(p, &mut c, &mut e);
            m.boot();
            let _ = run_kernel(&mut m);
            let rep = m.finalize();
            assert_eq!(rep.status, MachineStatus::Healthy, "seed {seed}");
            assert_eq!(rep.silent_corruptions, 0);
        }
    }

    #[test]
    fn divided_regime_crashes_below_collapse_threshold() {
        let mut crashes = 0;
        for seed in 0..10 {
            let (mut c, mut e) = env();
            let mut p = params(750.0, seed);
            p.regime = TimingRegime::Divided;
            let mut m = Machine::new(p, &mut c, &mut e);
            m.boot();
            let _ = run_kernel(&mut m);
            if m.status() == MachineStatus::SysHung {
                crashes += 1;
            }
        }
        assert!(
            crashes >= 9,
            "750mV in divided regime must crash: {crashes}/10"
        );
    }

    #[test]
    fn branch_fault_can_invert_direction() {
        // At a voltage with heavy fault rates, some branches invert.
        let mut inverted = false;
        for seed in 0..30 {
            let (mut c, mut e) = env();
            let mut m = Machine::new(params(835.0, seed), &mut c, &mut e);
            for _ in 0..2000 {
                if !m.branch(true) && !m.halted() {
                    inverted = true;
                }
                if m.halted() {
                    break;
                }
            }
            if inverted {
                break;
            }
        }
        assert!(
            inverted,
            "no branch inversion observed in 30 heavy-fault runs"
        );
    }

    #[test]
    fn code_footprint_drives_icache_refills() {
        let run = |footprint: u64| {
            let (mut c, mut e) = env();
            let mut m = Machine::new(params(980.0, 1), &mut c, &mut e);
            m.set_code_footprint(footprint);
            for _ in 0..100_000 {
                let _ = m.iadd(1, 2);
            }
            m.finalize().counters[PmuEvent::L1ICacheRefill]
        };
        let small = run(8 * 1024);
        let large = run(256 * 1024);
        assert!(large > small * 10, "large {large} vs small {small}");
    }

    #[test]
    fn residue_checks_convert_sdcs_into_detected_corrections() {
        // §6b: with detectors on, runs at an SDC-prone voltage mostly keep
        // the golden output and report detected (corrected) faults instead.
        let mut stock_corruptions = 0u32;
        let mut enhanced_corruptions = 0u32;
        let mut enhanced_detections = 0u32;
        for seed in 0..12 {
            let (mut c, mut e) = env();
            let mut m = Machine::new(params(858.0, seed), &mut c, &mut e);
            let _ = run_kernel(&mut m);
            stock_corruptions += m.finalize().silent_corruptions;

            let (mut c, mut e) = env();
            let mut p = params(858.0, seed);
            p.enhancements.residue_checks = true;
            let mut m = Machine::new(p, &mut c, &mut e);
            let _ = run_kernel(&mut m);
            let rep = m.finalize();
            enhanced_corruptions += rep.silent_corruptions;
            enhanced_detections += rep.detected_faults;
        }
        assert!(enhanced_detections > 0, "detectors must fire");
        assert!(
            enhanced_corruptions * 3 < stock_corruptions.max(1) * 2,
            "corruptions must drop substantially: stock {stock_corruptions} vs enhanced {enhanced_corruptions}"
        );
    }

    #[test]
    fn adaptive_clocking_costs_cycles_and_suppresses_droop_faults() {
        let run_with = |adaptive: bool, seed: u64| {
            let (mut c, mut e) = env();
            let mut p = params(980.0, seed);
            p.enhancements.adaptive_clocking = adaptive;
            let mut m = Machine::new(p, &mut c, &mut e);
            for _ in 0..20_000 {
                let _ = m.fmul(1.1, 2.2); // high-activity stream: max droop
            }
            m.finalize()
        };
        let stock = run_with(false, 1);
        let adaptive = run_with(true, 1);
        assert!(
            adaptive.cycles > stock.cycles,
            "the stretched clock must cost throughput"
        );
    }

    #[test]
    fn soc_rail_scaling_crashes_memory_traffic() {
        // Deep-undervolting the PCP/SoC rail takes down L3/DRAM-bound work
        // even though the PMD rail is at nominal.
        let mut crashes = 0;
        for seed in 0..8 {
            let (mut c, mut e) = env();
            let mut p = params(980.0, seed);
            p.soc_mv = 735.0;
            let mut m = Machine::new(p, &mut c, &mut e);
            // A streaming loop over a >L2 footprint reaches the L3.
            let base = m.alloc(600_000);
            for i in 0..60_000u64 {
                let _ = m.load_u64(base.offset((i * 523) % 600_000));
                if m.halted() {
                    crashes += 1;
                    break;
                }
            }
        }
        assert!(
            crashes >= 4,
            "735mV SoC rail must crash streaming runs: {crashes}/8"
        );
        // At nominal SoC voltage the same loop never crashes.
        let (mut c, mut e) = env();
        let mut m = Machine::new(params(980.0, 3), &mut c, &mut e);
        let base = m.alloc(600_000);
        for i in 0..60_000u64 {
            let _ = m.load_u64(base.offset((i * 523) % 600_000));
        }
        assert_eq!(m.status(), MachineStatus::Healthy);
    }

    #[test]
    fn soc_rail_mid_band_reports_l3_corrected_errors_without_crashes() {
        // The Itanium-like ECC-proxy band of §4.4: between the L3 weak-cell
        // tail (≤855 mV) and the SoC logic collapse (~730 mV), scaling the
        // SoC rail yields corrected errors while execution stays healthy.
        let mut ces = 0usize;
        for seed in 0..4 {
            let (mut c, mut e) = env();
            let mut p = params(980.0, seed);
            p.soc_mv = 800.0;
            let mut m = Machine::new(p, &mut c, &mut e);
            let base = m.alloc(1 << 20); // 8 MB: fills the L3
            for i in 0..200_000u64 {
                let _ = m.load_u64(base.offset((i * 1021) % (1 << 20)));
            }
            assert_eq!(m.status(), MachineStatus::Healthy, "seed {seed}");
            ces += e
                .records()
                .iter()
                .filter(|r| r.kind == crate::edac::EdacKind::Corrected)
                .count();
        }
        assert!(ces > 0, "L3 weak cells must report CEs at 800mV SoC");
    }

    #[test]
    fn mean_activity_tracks_op_mix() {
        let (mut c, mut e) = env();
        let mut m = Machine::new(params(980.0, 1), &mut c, &mut e);
        for _ in 0..1000 {
            let _ = m.fmul(1.5, 2.5); // activity 0.9
        }
        let rep = m.finalize();
        assert!((rep.mean_activity - 0.9).abs() < 1e-9);
    }
}
