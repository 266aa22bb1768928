//! One CPU for the whole run.
//!
//! Every workload is a closed loop with one op in flight, so at any moment
//! one thread has work; a second CPU buys nothing but the question of where
//! the host put it. On the 2-core guest this was built on, the same binary
//! ran `serve-query` bursts at a median floor of 505 µs for three runs and
//! 690 µs for the next seven while `engine-stream` did the opposite —
//! consistent with the two vCPUs sometimes sharing a physical core — and
//! pinned runs sat at the fast value either way. So the run pins itself, and
//! through inheritance every thread the server spawns, to one CPU, and
//! widens again only around the two-thread probes.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process was allowed when it started.
static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();

fn allowed() -> Option<CpuSet> {
    *ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread. The call writes at most
        // that many bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0 && set.iter().any(|&w| w != 0)).then_some(set)
    })
}

fn apply(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0 names
    // the calling thread. The call only reads the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// Pins the calling thread, and every thread spawned from it afterwards, to
/// the highest-numbered CPU it is allowed (CPU 0 tends to take the guest's
/// interrupts). Returns whether the kernel accepted; a refusal changes
/// nothing and is reported, not fatal.
pub fn pin() -> bool {
    let Some(all) = allowed() else {
        return false;
    };
    let (word, bits) = all.iter().enumerate().rfind(|(_, &w)| w != 0).expect("non-empty set");
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    apply(&one)
}

/// Runs `f` with every allowed CPU, then pins again.
pub fn unpinned<R>(f: impl FnOnce() -> R) -> R {
    let widened = allowed().is_some_and(|all| apply(&all));
    let out = f();
    if widened {
        pin();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `allowed`.
        assert_eq!(unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) }, 0);
        set
    }

    fn count(set: &CpuSet) -> u32 {
        set.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn pin_narrows_to_one_allowed_cpu_and_unpinned_widens() {
        // On its own thread: affinity is per thread, and the test harness's
        // other threads must keep theirs.
        std::thread::spawn(|| {
            let before = current();
            assert!(pin());
            let pinned = current();
            assert_eq!(count(&pinned), 1);
            assert!(pinned.iter().zip(&before).all(|(p, b)| p & !b == 0), "within the allowed set");
            assert_eq!(unpinned(|| count(&current())), count(&allowed().unwrap()));
            assert_eq!(current(), pinned, "pinned again afterwards");
            // A thread spawned while pinned inherits the pin.
            assert_eq!(std::thread::spawn(current).join().unwrap(), pinned);
        })
        .join()
        .unwrap();
    }
}
