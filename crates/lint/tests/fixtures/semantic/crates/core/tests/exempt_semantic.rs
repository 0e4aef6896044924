//! Fixture: integration-test files are exempt from every code rule,
//! including the semantic ones — the same sins as `bad.rs` produce nothing.

use std::io::Write;

pub fn probe(mv: u32) -> u32 {
    mv
}

#[test]
fn test_helpers_may_sin() {
    let _ = std::io::stdout().flush();
}
