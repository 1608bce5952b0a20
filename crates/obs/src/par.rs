//! Ordered shard maps under one process-wide thread budget.
//!
//! Every parallel section of the workspace goes through [`map`]: the
//! caller names its shards, and the calling thread runs them together
//! with as many extra scoped threads as it can take, without blocking,
//! from one permit count shared by the whole process. The count is
//! [`cores`]` − 1`, read once, so a lone map runs at most [`cores`]
//! shards at once. A map that finds no permit free runs every shard
//! inline, so maps nested in shards, or started by concurrent callers,
//! add no threads beyond their callers plus the permits.
//!
//! Results come back in shard order whatever thread ran which shard, so
//! output never depends on the thread count. A panicking shard hands its
//! permits back and its panic is re-raised on the caller.
//!
//! Sites size their maps through [`shards`], which gives a `threads`
//! option the one meaning it has everywhere: `0` asks for one shard per
//! core once the site's work clears its cutoff, `1` runs inline, `n`
//! asks for `n` shards.

// The one place allowed to spawn scoped threads and read the core count.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// This host's core count, read once per process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The extra threads free to take: `cores() − 1` while no map runs.
fn permits() -> &'static AtomicUsize {
    static PERMITS: OnceLock<AtomicUsize> = OnceLock::new();
    PERMITS.get_or_init(|| AtomicUsize::new(cores() - 1))
}

/// The shard count for a `threads` option: `0` asks for one shard per
/// core when `pays()` says the work clears the site's cutoff (and for one
/// shard on a one-core host, without asking), `n ≥ 1` for `n` shards.
pub fn shards(threads: usize, pays: impl FnOnce() -> bool) -> usize {
    match threads {
        0 if cores() > 1 && pays() => cores(),
        0 => 1,
        n => n,
    }
}

/// Runs `f` on every shard and returns the results in shard order. The
/// calling thread takes part; extra scoped threads, one per permit taken
/// from the process-wide budget (never more than `shards − 1`), pull
/// shard indices from a shared cursor.
pub fn map<I: Send, T: Send>(
    shards: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    map_within(permits(), shards, f)
}

/// [`map`] over `items` dealt round-robin into `shards` shards (item `i`
/// to shard `i % shards`, so costly neighbours spread out). `f` maps one
/// shard to one output per item, in the shard's order; the outputs come
/// back in item order.
pub fn map_dealt<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    shards: usize,
    f: impl Fn(Vec<I>) -> Vec<T> + Sync,
) -> Vec<T> {
    let items: Vec<I> = items.into_iter().collect();
    let n = items.len();
    let shards = shards.clamp(1, n.max(1));
    if shards == 1 {
        return f(items);
    }
    let mut dealt: Vec<Vec<I>> = (0..shards).map(|_| Vec::with_capacity(n / shards + 1)).collect();
    for (i, item) in items.into_iter().enumerate() {
        dealt[i % shards].push(item);
    }
    let mut outputs: Vec<_> = map(dealt, f).into_iter().map(Vec::into_iter).collect();
    (0..n).map(|i| outputs[i % shards].next().expect("one output per dealt item")).collect()
}

/// Permits taken from a budget, handed back on drop (unwinding included).
struct Taken<'a>(&'a AtomicUsize, usize);

impl<'a> Taken<'a> {
    /// Takes up to `want` permits without blocking. The count publishes
    /// no other data, so relaxed ordering suffices; a one-shard map, or
    /// an empty budget, leaves it unwritten.
    fn take(budget: &'a AtomicUsize, want: usize) -> Self {
        let taken = budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
            (free.min(want) > 0).then(|| free - free.min(want))
        });
        Taken(budget, taken.map_or(0, |free| free.min(want)))
    }
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        if self.1 > 0 {
            self.0.fetch_add(self.1, Ordering::Relaxed);
        }
    }
}

/// [`map`] against an explicit budget (the process-wide one, or a local
/// one in tests).
fn map_within<I: Send, T: Send>(
    budget: &AtomicUsize,
    shards: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let inputs: Vec<I> = shards.into_iter().collect();
    let n = inputs.len();
    let taken = Taken::take(budget, n.saturating_sub(1));
    if taken.1 == 0 {
        return inputs.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = inputs.get(i) else { return done };
            let input = slot.lock().expect("a slot is locked only to take its input").take();
            done.push((i, f(input.expect("each shard is pulled once"))));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let extra: Vec<_> = (0..taken.1).map(|_| scope.spawn(run)).collect();
        let mut place = |done: Vec<(usize, T)>| {
            for (i, out) in done {
                slots[i] = Some(out);
            }
        };
        place(run());
        for handle in extra {
            match handle.join() {
                Ok(done) => place(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every shard ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn merges_in_order_for_any_shard_count() {
        for items in [0usize, 1, 7, 23, 64] {
            let serial: Vec<usize> = (0..items).map(|i| i * i + 1).collect();
            for shards in 1..=9 {
                let dealt = map_dealt(0..items, shards, |shard| {
                    shard.into_iter().map(|i| i * i + 1).collect()
                });
                assert_eq!(dealt, serial, "{items} items dealt into {shards} shards");
                let chunk = items.div_ceil(shards).max(1);
                let ranges = (0..items).step_by(chunk).map(|s| s..(s + chunk).min(items));
                let chunked: Vec<usize> =
                    map(ranges, |r| r.map(|i| i * i + 1).collect::<Vec<_>>()).concat();
                assert_eq!(chunked, serial, "{items} items in {shards} contiguous chunks");
            }
        }
    }

    #[test]
    fn nested_maps_stay_within_the_budget() {
        const PERMITS: usize = 3;
        let budget = AtomicUsize::new(PERMITS);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let sums = map_within(&budget, 0..6usize, |outer| {
            map_within(&budget, 0..6usize, |inner| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // The bound holds whatever the timing; the pause only
                // makes shards overlap, so the peak nears it.
                std::thread::sleep(std::time::Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
                outer * 10 + inner
            })
            .into_iter()
            .sum::<usize>()
        });
        assert_eq!(sums, (0..6).map(|o| 60 * o + 15).collect::<Vec<_>>());
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=PERMITS + 1).contains(&peak), "{peak} closures ran at once");
        assert_eq!(budget.load(Ordering::SeqCst), PERMITS, "every permit came back");
    }

    #[test]
    fn a_panicking_shard_returns_its_permits() {
        const PERMITS: usize = 3;
        let budget = AtomicUsize::new(PERMITS);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_within(&budget, 0..8usize, |i| {
                assert_ne!(i, 5, "shard 5 fails");
                i
            })
        }));
        let message = caught.expect_err("the shard's panic reaches the caller");
        let message = message.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(message.contains("shard 5 fails"), "{message}");
        // A full-width map takes every permit again: while it runs, none
        // is left free.
        let free_inside = map_within(&budget, 0..=PERMITS, |_| budget.load(Ordering::SeqCst));
        assert!(free_inside.iter().all(|&free| free == 0), "{free_inside:?}");
        assert_eq!(budget.load(Ordering::SeqCst), PERMITS);
    }
}
