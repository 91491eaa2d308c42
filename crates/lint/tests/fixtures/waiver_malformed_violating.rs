//! Fixture: waivers that do not parse must not suppress anything —
//! an empty reason, a wrong check name, and a missing second colon.
//! Never compiled.

pub fn hot(input: &[u8]) -> u8 {
    // slc-lint: allow(hot-path):
    let a = input.first().unwrap();
    // slc-lint: allow(wire-format): waives the wrong check for this site
    let b = input.last().unwrap();
    // slc-lint: allow(hot-path) forgot the reason separator
    let c = input.get(1).unwrap();
    a | b | c
}
