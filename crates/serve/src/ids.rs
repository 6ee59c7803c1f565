//! The task-id ledger of the current round.
//!
//! One ledger spans every shard, so duplicate-id rejection holds
//! service-wide. Ids live for a round: a submit *reserves* one before
//! validation and admission (so concurrent submitters cannot race to
//! the same id), *releases* it again when the task is refused, and a
//! drain *resets* the namespace together with the engines. The ledger
//! itself is plain data — the scheduler wraps it in the mutex it holds
//! across the admission-queue touch and the drain barrier.
//!
//! Auto ids come off a cursor and every id below the cursor counts as
//! used, so the set holds only the explicit ids at or above it: a
//! round of a million auto-id submits keeps one integer, not a million
//! set entries.

use std::collections::HashSet;

/// The auto-id cursor plus the explicit ids claimed ahead of it.
#[derive(Debug, Default)]
pub(crate) struct IdLedger {
    /// Every id below this is taken (handed out, or explicit and
    /// passed over).
    cursor: u64,
    /// Explicit ids in use at or above the cursor.
    explicit: HashSet<u64>,
}

impl IdLedger {
    /// Reserve an explicit `id`, or — for `None` — the lowest auto id
    /// not in use (auto ids skip over explicitly claimed ones).
    ///
    /// # Errors
    /// The explicit id, when it is already in use this round.
    pub fn reserve(&mut self, id: Option<u64>) -> Result<u64, u64> {
        match id {
            Some(id) if id < self.cursor || !self.explicit.insert(id) => Err(id),
            Some(id) => Ok(id),
            None => {
                // An explicit id the cursor passes stays taken by being
                // below it, so it can leave the set.
                while self.explicit.remove(&self.cursor) {
                    self.cursor += 1;
                }
                self.cursor += 1;
                Ok(self.cursor - 1)
            }
        }
    }

    /// Give back the id reserved last, whose task was refused (invalid,
    /// shed, or turned away by shutdown), so a retry can reuse it: an
    /// explicit id leaves the set, the newest auto id rolls the cursor
    /// back. (Any other id below the cursor stays taken — the submit
    /// path only ever releases what it has just reserved.)
    pub fn release(&mut self, id: u64) {
        if !self.explicit.remove(&id) && self.cursor.checked_sub(1) == Some(id) {
            self.cursor = id;
        }
    }

    /// Start a new round: every id is free again and auto ids restart
    /// at zero.
    pub fn reset(&mut self) {
        self.explicit.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_ids_are_deduplicated_within_a_round() {
        let mut ids = IdLedger::default();
        assert_eq!(ids.reserve(Some(7)), Ok(7));
        assert_eq!(ids.reserve(Some(7)), Err(7));
        assert_eq!(ids.reserve(Some(8)), Ok(8));
    }

    #[test]
    fn auto_ids_skip_explicit_ones() {
        let mut ids = IdLedger::default();
        assert_eq!(ids.reserve(Some(0)), Ok(0));
        assert_eq!(ids.reserve(Some(2)), Ok(2));
        assert_eq!(ids.reserve(None), Ok(1));
        assert_eq!(ids.reserve(None), Ok(3));
        // ... and an explicit claim on a handed-out auto id is a dup.
        assert_eq!(ids.reserve(Some(3)), Err(3));
    }

    #[test]
    fn release_frees_the_id_for_the_next_reservation() {
        let mut ids = IdLedger::default();
        assert_eq!(ids.reserve(None), Ok(0));
        let shed = ids.reserve(None).unwrap();
        ids.release(shed);
        // The auto cursor sits on the released id, so it is reused.
        assert_eq!(ids.reserve(None), Ok(shed));
        assert_eq!(ids.reserve(Some(9)), Ok(9));
        ids.release(9);
        assert_eq!(ids.reserve(Some(9)), Ok(9));
    }

    #[test]
    fn only_explicit_ids_ahead_of_the_cursor_are_stored() {
        let mut ids = IdLedger::default();
        for want in 0..10_000 {
            assert_eq!(ids.reserve(None), Ok(want));
        }
        assert!(ids.explicit.is_empty(), "auto ids cost no set entry");
        // Explicit ids behind the cursor are duplicates of auto ids ...
        assert_eq!(ids.reserve(Some(42)), Err(42));
        // ... ahead of it they are stored until the cursor passes them.
        assert_eq!(ids.reserve(Some(10_001)), Ok(10_001));
        assert_eq!(ids.reserve(Some(10_001)), Err(10_001));
        assert_eq!(ids.reserve(None), Ok(10_000));
        assert_eq!(ids.reserve(None), Ok(10_002));
        assert!(ids.explicit.is_empty(), "the passed id left the set");
        assert_eq!(ids.reserve(Some(10_001)), Err(10_001), "and is still taken");
        // Releasing the newest auto id after a skip rolls back onto it.
        ids.release(10_002);
        assert_eq!(ids.reserve(None), Ok(10_002));
    }

    #[test]
    fn reset_starts_a_fresh_namespace() {
        let mut ids = IdLedger::default();
        assert_eq!(ids.reserve(Some(1)), Ok(1));
        assert_eq!(ids.reserve(None), Ok(0));
        assert_eq!(ids.reserve(None), Ok(2));
        ids.reset();
        assert_eq!(ids.reserve(Some(1)), Ok(1));
        assert_eq!(ids.reserve(None), Ok(0));
    }
}
