//! Empty: nothing in the workspace uses `serde`. The package stays only
//! because the frozen lockfile of `crates/bench/examples/sysbench` lists
//! it (and its edge to `serde_derive`); it goes at the next re-lock.
