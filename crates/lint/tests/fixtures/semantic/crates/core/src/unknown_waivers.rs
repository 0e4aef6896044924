//! Fixture: waivers naming no rule — a retired one and a misspelt one.
//! Each waives nothing, so the report lists both as unused (the
//! workspace gate fails on them) instead of dropping them, and the
//! misspelt one leaves its finding standing.

pub fn settle() -> bool {
    // lint: allow(span-balance) — L8 was retired
    true
}

// lint: allow(unit-escpae) — misspelt
pub fn poke(mv: u32) -> u32 {
    mv
}
