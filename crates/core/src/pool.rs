//! The campaign pool: scoped worker threads pulling items off one shared
//! work queue.
//!
//! Campaign cells differ in cost by two orders of magnitude, and the
//! heavy ones cluster in registry order, so handing each worker a
//! contiguous slice leaves one worker with most of the work. Here every
//! worker takes the next unclaimed item from a shared atomic cursor until
//! the queue runs dry; results go back in input order by index, so the
//! output never depends on which worker ran which item.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker per available core.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on [`default_workers`] threads; the results are in
/// input order.
pub(crate) fn par_map<T: Sync, O: Send>(items: &[T], f: impl Fn(&T) -> O + Sync) -> Vec<O> {
    par_map_on(default_workers(), items, f)
}

/// [`par_map`] on exactly `workers` threads (fewer when there are fewer
/// items). A panic in `f` resumes on the calling thread.
pub(crate) fn par_map_on<T: Sync, O: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> O + Sync,
) -> Vec<O> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; results reach
            // the caller through `join`, which synchronises.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<O>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, out) in done {
                        slots[i] = Some(out);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn uneven_costs_come_back_in_input_order() {
        // More items than workers, with the expensive items first so the
        // cheap ones finish out of order.
        let items: Vec<u64> = (0..23).collect();
        let out = par_map_on(3, &items, |&i| {
            std::thread::sleep(Duration::from_millis(if i < 3 { 30 } else { i % 3 }));
            i * 10
        });
        assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_single_and_oversized_pools() {
        let none: [u32; 0] = [];
        assert!(par_map_on(4, &none, |x| *x).is_empty());
        assert_eq!(par_map_on(4, &[7u32], |x| x + 1), vec![8]);
        assert_eq!(par_map_on(0, &[1u32, 2], |x| x * 2), vec![2, 4]);
        assert_eq!(par_map_on(64, &[1u32, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_worker_panic_reaches_the_caller() {
        par_map_on(2, &[1u32, 2, 3, 4], |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
