//! Fixture crate: on the unsafe allowlist, but its library no longer
//! uses any unsafe, so the entry is stale.
#![deny(unsafe_op_in_unsafe_fn)]

pub fn first(xs: &[u8]) -> Option<u8> {
    xs.first().copied()
}
