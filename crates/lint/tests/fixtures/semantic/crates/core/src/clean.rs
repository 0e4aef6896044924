//! Fixture: idiomatic counterparts of every `bad.rs` case — the semantic
//! rules must stay silent on all of them.

use margins_sim::{CoreId, Millivolts};

pub fn probe(mv: Millivolts) -> bool {
    mv.mv() > 0
}

pub fn vmin_mv(program: &str) -> Millivolts {
    Millivolts::new(program.len() as u32)
}

pub fn pin(core: CoreId) -> CoreId {
    core
}

fn internal_mv(mv: u32) -> u32 {
    mv
}

pub fn count(widgets: u32) -> u32 {
    widgets + internal_mv(0)
}

pub fn handled(out: &mut impl std::io::Write) -> Result<(), std::io::Error> {
    out.flush()?;
    let mut buf = String::new();
    let _ = writeln!(buf, "per-sweep summary");
    let _ = infallible_len("x");
    Ok(())
}

fn infallible_len(s: &str) -> usize {
    s.len()
}
