//! Fixture: `bench` is off the deterministic path, so swallowed-fallibility
//! does not bind — but unit-escape binds every non-test crate that can see
//! the newtype, including this one.

use std::io::Write;

pub fn plot(mv: u32) -> String {
    let _ = std::io::stdout().flush();
    format!("{mv}")
}
