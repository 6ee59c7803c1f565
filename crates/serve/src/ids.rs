//! The task-id ledger of the current round.
//!
//! One ledger spans every shard, so duplicate-id rejection holds
//! service-wide. Ids live for a round: a submit *reserves* one before
//! validation and admission (so concurrent submitters cannot race to
//! the same id), *releases* it again when the task is refused, and a
//! drain *resets* the namespace together with the engines. The ledger
//! itself is plain data — the scheduler wraps it in the mutex it holds
//! across the admission-queue touch and the drain barrier.

use std::collections::HashSet;

/// Ids in use this round, plus the auto-id allocation cursor.
#[derive(Debug, Default)]
pub(crate) struct IdLedger {
    used: HashSet<u64>,
    next_auto: u64,
}

impl IdLedger {
    /// Reserve an explicit `id`, or — for `None` — the lowest auto id
    /// not in use (auto ids skip over explicitly claimed ones).
    ///
    /// # Errors
    /// The explicit id, when it is already in use this round.
    pub fn reserve(&mut self, id: Option<u64>) -> Result<u64, u64> {
        let id = match id {
            Some(id) if self.used.contains(&id) => return Err(id),
            Some(id) => id,
            None => {
                while self.used.contains(&self.next_auto) {
                    self.next_auto += 1;
                }
                self.next_auto
            }
        };
        self.used.insert(id);
        Ok(id)
    }

    /// Give back a reserved id whose task was refused (invalid, shed,
    /// or turned away by shutdown), so a retry can reuse it.
    pub fn release(&mut self, id: u64) {
        self.used.remove(&id);
    }

    /// Start a new round: every id is free again and auto ids restart
    /// at zero.
    pub fn reset(&mut self) {
        self.used.clear();
        self.next_auto = 0;
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
