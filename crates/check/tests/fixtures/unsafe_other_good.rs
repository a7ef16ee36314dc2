//! A library crate root that forbids unsafe code. Mentions of the word
//! in comments, strings and longer identifiers are not the keyword.

#![forbid(unsafe_code)]

// unsafe { not code }
pub const NOTE: &str = "unsafe { not code }";

pub fn unsafe_free(unsafe_count: u32) -> u32 {
    unsafe_count + 1
}
