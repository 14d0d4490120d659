//! The workspace's one poison policy for `std` locks.
//!
//! A thread that panics while holding a `std` lock poisons it, and every
//! later `lock()` returns an error. The shared state behind these locks —
//! queues, registries, logs, result slots — is whole after every update,
//! and a panic is contained and counted where it happens (a crashed
//! shard, a failed logger), so a poisoned lock is entered anyway. Every
//! lock that recovers from poison goes through these functions; a lock
//! whose poison must fail the caller uses `lock().expect(..)` instead.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `mutex`, entering it even if poisoned.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `lock`, entering it even if poisoned.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, entering it even if poisoned.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar`, releasing `guard` meanwhile; re-enters the lock
/// even if poisoned.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_lock_is_entered() {
        let mutex = Mutex::new(1);
        let rw = RwLock::new(1);
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _m = mutex.lock().unwrap();
                    let _w = rw.write().unwrap();
                    panic!("poison both");
                })
                .join();
        });
        assert!(mutex.is_poisoned() && rw.is_poisoned());
        *lock(&mutex) += 1;
        *write(&rw) += 1;
        assert_eq!((*lock(&mutex), *read(&rw)), (2, 2));
    }
}
