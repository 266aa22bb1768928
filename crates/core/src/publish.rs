//! Lock-free single-writer snapshot publication (the serving layer's
//! epoch'd `Arc` handoff; DESIGN.md §12).
//!
//! The serving design runs one writer thread that owns the
//! engine and many reader threads that answer queries from immutable
//! snapshots. This module is the handoff between them: [`Publisher`] owns
//! the tail of an append-only chain of immutable links, and every
//! [`ReadHandle`] holds a private cursor into that chain.
//!
//! * **Publication** appends one link: a single `OnceLock::set` on the old
//!   tail's `next` slot (one release store under the hood — the writer
//!   never contends, never waits, never takes a lock).
//! * **Reads** chase `next` pointers with `OnceLock::get` acquire loads
//!   ([`ReadHandle::latest`]) — no mutex, no rwlock, no spinning: the read
//!   path is wait-free after publication (the lock types are banned from
//!   this crate outright, DESIGN.md §8).
//! * **Memory** is bounded by the slowest cursor: links strictly behind
//!   every `ReadHandle` (and the publisher's tail) are dropped as cursors
//!   advance. A lagging handle that releases a long chain segment at once
//!   unlinks it iteratively, so the drop cannot overflow the stack.
//!
//! Epochs count publications: the initial value is epoch 0 and every
//! [`Publisher::publish`] increments by one, so readers can tell "did I see
//! a newer snapshot" without comparing contents.

use std::sync::{Arc, OnceLock};

/// One immutable link of the publication chain.
struct Link<T> {
    epoch: u64,
    value: Arc<T>,
    next: OnceLock<Arc<Link<T>>>,
}

impl<T> Drop for Link<T> {
    fn drop(&mut self) {
        // Unlink the suffix iteratively: dropping the last handle to a long
        // unread segment must not recurse once per link. Each hop moves the
        // `next` Arc out, so the inner `Link` drops with an empty `next`.
        let mut next = self.next.take();
        while let Some(arc) = next {
            match Arc::into_inner(arc) {
                Some(mut link) => next = link.next.take(),
                // Another cursor still references the rest of the chain.
                None => break,
            }
        }
    }
}

/// The single-writer side: owns the chain tail and appends new values.
///
/// `publish` takes `&mut self`, so the type itself enforces the
/// single-writer protocol — clone [`ReadHandle`]s freely instead.
pub struct Publisher<T> {
    tail: Arc<Link<T>>,
}

impl<T> Publisher<T> {
    /// Creates a publisher whose chain starts at `initial` (epoch 0).
    pub fn new(initial: T) -> Self {
        Self { tail: Arc::new(Link { epoch: 0, value: Arc::new(initial), next: OnceLock::new() }) }
    }

    /// Publishes `value` as the new latest snapshot and returns its epoch.
    ///
    /// Cost: one allocation plus one `OnceLock::set` (a release store);
    /// readers observe the new link on their next [`ReadHandle::latest`].
    pub fn publish(&mut self, value: T) -> u64 {
        let link = Arc::new(Link {
            epoch: self.tail.epoch + 1,
            value: Arc::new(value),
            next: OnceLock::new(),
        });
        let epoch = link.epoch;
        // Single writer (`&mut self`): the tail's `next` is necessarily
        // unset, so this `set` cannot fail.
        let _ = self.tail.next.set(Arc::clone(&link));
        self.tail = link;
        epoch
    }

    /// Epoch of the most recently published value (0 = only the initial).
    pub fn epoch(&self) -> u64 {
        self.tail.epoch
    }

    /// The most recently published value.
    pub fn current(&self) -> Arc<T> {
        Arc::clone(&self.tail.value)
    }

    /// Creates a reader cursor positioned at the current tail.
    pub fn subscribe(&self) -> ReadHandle<T> {
        ReadHandle { at: Arc::clone(&self.tail) }
    }
}

/// A reader cursor into the publication chain.
///
/// Clone one per reader thread; each clone advances independently. All
/// operations are wait-free (pure atomic loads plus `Arc` refcounting).
pub struct ReadHandle<T> {
    at: Arc<Link<T>>,
}

impl<T> Clone for ReadHandle<T> {
    fn clone(&self) -> Self {
        Self { at: Arc::clone(&self.at) }
    }
}

impl<T> ReadHandle<T> {
    /// Advances the cursor to the newest published value and returns it.
    ///
    /// Wait-free: each step is one `OnceLock::get` acquire load, and the
    /// number of steps is bounded by the publications since the previous
    /// call on this handle.
    pub fn latest(&mut self) -> Arc<T> {
        while let Some(next) = self.at.next.get() {
            self.at = Arc::clone(next);
        }
        Arc::clone(&self.at.value)
    }

    /// The value at the cursor without advancing it.
    pub fn current(&self) -> Arc<T> {
        Arc::clone(&self.at.value)
    }

    /// Epoch of the value at the cursor (advanced by [`Self::latest`]).
    pub fn epoch(&self) -> u64 {
        self.at.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_is_epoch_zero() {
        let p = Publisher::new(7u32);
        let mut r = p.subscribe();
        assert_eq!(p.epoch(), 0);
        assert_eq!(*r.latest(), 7);
        assert_eq!(r.epoch(), 0);
    }

    #[test]
    fn publish_advances_epoch_and_readers_catch_up() {
        let mut p = Publisher::new(0u32);
        let mut r = p.subscribe();
        assert_eq!(p.publish(1), 1);
        assert_eq!(p.publish(2), 2);
        assert_eq!(*r.latest(), 2, "reader skips to the newest value");
        assert_eq!(r.epoch(), 2);
        assert_eq!(*p.current(), 2);
    }

    #[test]
    fn cloned_handles_advance_independently() {
        let mut p = Publisher::new(0u32);
        let mut a = p.subscribe();
        let b = a.clone();
        p.publish(1);
        assert_eq!(*a.latest(), 1);
        assert_eq!(b.epoch(), 0, "the clone's cursor did not move");
        assert_eq!(*b.current(), 0);
    }

    #[test]
    fn concurrent_readers_observe_monotone_epochs() {
        let mut p = Publisher::new(0u64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut r = p.subscribe();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let v = *r.latest();
                        assert!(v >= last, "published values regressed: {v} < {last}");
                        last = v;
                        assert_eq!(r.epoch(), v, "epoch tracks the published value");
                    }
                    last
                })
            })
            .collect();
        for i in 1..=5_000u64 {
            p.publish(i);
        }
        for h in handles {
            h.join().expect("reader thread");
        }
        assert_eq!(p.epoch(), 5_000);
    }

    #[test]
    fn lagging_handle_drops_long_chain_without_overflow() {
        let mut p = Publisher::new(0u32);
        let lagging = p.subscribe();
        for i in 0..200_000u32 {
            p.publish(i);
        }
        // `lagging` holds the head of a 200k-link chain; dropping it must
        // unlink iteratively (a recursive drop would blow the stack here).
        drop(lagging);
        drop(p);
    }

    #[test]
    fn chain_prefix_is_freed_as_readers_advance() {
        let mut p = Publisher::new(vec![0u8; 1024]);
        let mut r = p.subscribe();
        for i in 0..100u8 {
            p.publish(vec![i; 1024]);
            // The reader keeps up, so the chain stays short; this test is
            // mostly a leak canary under Miri-like tooling and asserts the
            // values flow through correctly.
            assert_eq!(r.latest()[0], i);
        }
    }
}
