//! The home crate's root: `unsafe_code` denied crate-wide, allowed on
//! the one module that needs it.

#![deny(unsafe_code)]

mod field;
#[allow(unsafe_code)]
mod simd;
