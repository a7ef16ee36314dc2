//! Fixture: the unsafe home with two undocumented sites.

/// Sums two bytes, with no safety section.
unsafe fn kernel(a: u8, b: u8) -> u8 {
    a ^ b
}

pub fn dispatch(a: u8, b: u8) -> u8 {
    // SAFETY: the fixture feature was detected at start-up.

    // A blank line cuts the comment off from the block.
    unsafe { kernel(a, b) }
}
