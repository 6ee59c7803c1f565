//! Offline stand-in for `parking_lot`: the one type the workspace uses.
//!
//! Wraps `std::sync::Mutex` behind `parking_lot`'s non-poisoning API:
//! `lock()` returns the guard directly (a poisoned std lock is recovered
//! via `PoisonError::into_inner`, matching parking_lot's "no poisoning"
//! semantics).

use std::sync::MutexGuard;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let m = Mutex::new(5);
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.lock();
                panic!("poison it");
            })
            .join()
        });
        assert_eq!(*m.lock(), 5);
    }
}
