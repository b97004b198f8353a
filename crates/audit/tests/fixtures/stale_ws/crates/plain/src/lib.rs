//! Fixture crate: off the allowlist, with a library free of unsafe; only
//! its test holds a justified unsafe block.
#![forbid(unsafe_code)]

pub fn len(xs: &[u8]) -> usize {
    xs.len()
}
