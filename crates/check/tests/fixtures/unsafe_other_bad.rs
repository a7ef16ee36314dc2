//! A library crate root with no `forbid` and an unsafe block of its own.

pub fn peek(v: &[u8]) -> u8 {
    // SAFETY: a comment does not make this the unsafe home.
    unsafe { *v.as_ptr() }
}
