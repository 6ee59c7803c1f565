//! Clean core fixture: BTreeMap in production code, a reasoned waiver,
//! and hash containers confined to test code.
use std::collections::BTreeMap;

pub mod sched {
    pub mod engine;
}

pub struct Policy {
    by_id: BTreeMap<u64, u64>,
    // dvfs-lint: allow(determinism) membership-only set, never iterated
    scratch: std::collections::HashSet<u64>,
}

pub fn fresh() -> Policy {
    Policy {
        by_id: BTreeMap::new(),
        scratch: Default::default(),
    }
}

pub fn touch(p: &mut Policy) {
    p.by_id.insert(1, 2);
    p.scratch.insert(3);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_may_hash_and_clock() {
        let mut m = HashMap::new();
        m.insert(1u64, std::time::Instant::now());
        assert_eq!(m.len(), 1);
    }
}
