//! The home crate's root widening the zone: a second module gets the
//! allow.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod field;
#[allow(unsafe_code)]
mod simd;
