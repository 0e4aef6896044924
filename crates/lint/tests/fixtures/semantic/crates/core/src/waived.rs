//! Fixture: one violation per semantic rule, each carrying an explicit
//! accounted waiver — plus one deliberately unused waiver that must be
//! reported as such rather than dropped.

// lint: allow(unit-escape) — FFI shim mirrors the MSR register layout
pub fn poke(mv: u32) -> u32 {
    mv
}

pub fn best_effort(out: &mut impl std::io::Write) {
    // lint: allow(swallowed-fallibility) — progress output is best-effort
    let _ = out.flush();
}

pub fn one_unused_waiver() -> u32 {
    // lint: allow(unit-escape) — nothing on this line needs it
    7
}
