//! D4 fixture: a crate root missing both gates, with a bare unwrap; the
//! `expect` and the undocumented `second` are not simlint's to flag.

/// Documented, but unwraps.
pub fn first(input: Option<u64>) -> u64 {
    input.unwrap()
}

pub fn second(input: Option<u64>) -> u64 {
    input.expect("caller checked")
}
