//! Shared plumbing for chunked parallel loops over index ranges.
//!
//! The parallel snapshot capture in this crate, the parallel kernels in
//! `analytics`, and the `sharded` crate's unified-CSR merge all
//! follow the same shape: split an index range into pool-sized chunks, run
//! plain loops inside each chunk, and write results into disjoint slices of
//! a shared output buffer.  This module holds the two pieces they share —
//! kept here, in the common dependency, so chunk sizing and the
//! disjoint-write pointer have exactly one definition.  Deliberately
//! independent of the `rayon` shim's internals (only its public
//! `current_num_threads` is consulted), so everything keeps working
//! unchanged if the shim is ever swapped for real rayon.

/// Split `[0, len)` into ranges sized for the current pool width: a few
/// chunks per worker so work stealing can balance skew, each chunk big
/// enough to amortise the fork.  Callers iterate the ranges on the pool —
/// one task per *chunk*, plain loops inside, no per-element dispatch.
pub fn ranges(len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(rayon::current_num_threads() * 4).max(256);
    (0..len)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(len)))
        .collect()
}

/// A `*mut` that crosses threads so parallel chunks can write into
/// disjoint slices of one output buffer.
///
/// The `Send`/`Sync` impls only move the *pointer value* between threads;
/// every dereference still requires `unsafe`, where the caller promises
/// the usual aliasing rules — in the chunked-loop pattern, that each index
/// is touched by exactly one task (chunks are disjoint and cover the
/// range).
pub struct SendPtr<T>(pub *mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer.
    #[inline]
    pub fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_the_input_exactly_once() {
        for len in [0usize, 1, 255, 256, 257, 10_000] {
            let rs = ranges(len);
            let mut next = 0usize;
            for (lo, hi) in rs {
                assert_eq!(lo, next, "len {len}");
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, len, "len {len}");
        }
    }

    #[test]
    fn disjoint_parallel_writes_through_send_ptr() {
        use rayon::prelude::*;
        let n = 10_000usize;
        let mut out = vec![0usize; n];
        let dst = SendPtr(out.as_mut_ptr());
        ranges(n).into_par_iter().for_each(|(lo, hi)| {
            for i in lo..hi {
                unsafe { *dst.get().add(i) = i * 2 };
            }
        });
        assert!(out.iter().enumerate().all(|(i, &x)| x == i * 2));
    }
}
