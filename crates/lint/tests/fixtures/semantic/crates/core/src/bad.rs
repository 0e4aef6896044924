//! Fixture: the positive cases of L7 and L10. `core` depends on `sim`
//! (newtypes) and sits on the deterministic path, so both rules bind here.

use margins_sim::{CoreId, Millivolts};
use std::sync::mpsc::Sender;

pub fn probe(mv: u32) -> bool {
    mv > 0
}

pub fn vmin_mv(program: &str) -> u32 {
    program.len() as u32
}

pub fn pin(core: u8) {
    let _ = core;
}

pub fn swallow(out: &mut impl std::io::Write, tx: &Sender<u32>) {
    let _ = out.flush();
    drop(tx.send(1));
    let _ = persist_priors();
    let _ = writeln!(std::io::stderr(), "progress");
}

fn persist_priors() -> Result<(), String> {
    Ok(())
}
