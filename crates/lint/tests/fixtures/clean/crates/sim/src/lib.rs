//! Clean sim fixture: a thin driver crate, no replay state of its own.
