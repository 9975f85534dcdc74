//! Per-domain service times inside the streaming engine, from one
//! timestamp per domain.
//!
//! `run_pipeline_sharded` gives no per-domain callback, but every domain's
//! chain starts with a fetch from its site, and a worker thread runs one
//! chain at a time. [`StampHost`] records the instant and thread of a
//! site's first request; a domain's service time is the gap to the next
//! first request on the same thread (or to the end of the run for a
//! thread's last domain). A domain whose site is never reached (an
//! unreachable host) has no stamp, so its time merges into the domain
//! before it on that thread.

use aipan_net::http::{Request, Response};
use aipan_net::VirtualHost;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// A [`VirtualHost`] that records when and on which thread it was first
/// asked for a page, then delegates.
pub struct StampHost {
    inner: Arc<dyn VirtualHost>,
    first: OnceLock<(Instant, ThreadId)>,
}

impl StampHost {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn VirtualHost>) -> StampHost {
        StampHost {
            inner,
            first: OnceLock::new(),
        }
    }

    /// The first request's instant and thread, if any.
    pub fn first(&self) -> Option<(Instant, ThreadId)> {
        self.first.get().copied()
    }
}

impl VirtualHost for StampHost {
    fn handle(&self, request: &Request) -> Response {
        self.first
            .get_or_init(|| (Instant::now(), std::thread::current().id()));
        self.inner.handle(request)
    }
}

/// Service times in milliseconds from `(thread, start)` stamps, in input
/// order: per thread, the gap from each start to the next, and from the
/// last start to `end`.
pub fn service_times_ms<K: Ord + Copy>(stamps: &[(K, Instant)], end: Instant) -> Vec<f64> {
    let mut by_thread: BTreeMap<K, Vec<(Instant, usize)>> = BTreeMap::new();
    for (i, &(thread, at)) in stamps.iter().enumerate() {
        by_thread.entry(thread).or_default().push((at, i));
    }
    let mut out = vec![0.0; stamps.len()];
    for starts in by_thread.values_mut() {
        starts.sort_unstable();
        for (k, &(start, i)) in starts.iter().enumerate() {
            let next = starts.get(k + 1).map_or(end, |&(at, _)| at).max(start);
            out[i] = next.duration_since(start).as_secs_f64() * 1e3;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn gaps_are_taken_per_thread_and_the_last_runs_to_the_end() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let stamps = [(1u8, at(0)), (2, at(1)), (1, at(5)), (2, at(4)), (1, at(7))];
        let got = service_times_ms(&stamps, at(10));
        let want = [5.0, 3.0, 2.0, 6.0, 3.0];
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "{got:?}");
        }
    }
}
