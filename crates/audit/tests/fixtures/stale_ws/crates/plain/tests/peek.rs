//! A test may hold justified unsafe: the policy governs the library.

#[test]
fn peek_first() {
    let xs = [7u8, 8];
    // SAFETY: `xs` is a live array of two bytes, so its first is readable.
    let first = unsafe { *xs.as_ptr() };
    assert_eq!(first, 7);
}
