//! The two failure mechanisms of §3.4.
//!
//! The paper's component-focused self-tests identified that the X-Gene 2 is
//! dominated by **timing-path failures** in the pipeline logic — SDCs appear
//! when the ALU/FPU are stressed — while the SRAM **bit-cells** keep working
//! to far lower voltages (cache-stress tests crash much later than ALU/FPU
//! tests). The two mechanisms live in:
//!
//! * [`timing`] — a Poisson process over executed micro-ops whose intensity
//!   grows exponentially as supply drops below a core's critical voltage,
//! * [`sram`] — a static population of weak bit-cells per cache array with
//!   exponentially distributed fail voltages.

pub mod sram;
pub mod timing;
