//! Empty: nothing in the workspace derives anything. The package stays
//! only because the frozen lockfile of `crates/bench/examples/sysbench`
//! lists it as a dependency of `serde`; it goes at the next re-lock.
