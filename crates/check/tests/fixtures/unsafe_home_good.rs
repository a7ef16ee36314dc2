//! Fixture: the unsafe home, every site documented.

/// Sums two bytes.
///
/// # Safety
///
/// The CPU must support the fixture feature.
#[inline]
unsafe fn kernel(a: u8, b: u8) -> u8 {
    a ^ b
}

pub fn dispatch(a: u8, b: u8) -> u8 {
    // SAFETY: the fixture feature was detected at start-up, and the
    // kernel reads no memory.
    unsafe { kernel(a, b) }
}

pub fn labelled(a: u8) -> u8 {
    // SAFETY: as above; the comment may sit over a `let`.
    let v = unsafe { kernel(a, a) };
    v
}
