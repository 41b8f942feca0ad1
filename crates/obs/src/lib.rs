//! # scq-obs — the cluster's observability plane
//!
//! Two halves, both pure std:
//!
//! * [`metrics`] — lock-cheap [`Counter`]/[`Histogram`] instruments
//!   behind a named [`Registry`], coherent [`Snapshot`]s,
//!   Prometheus-style text exposition ([`Snapshot::render`]) and its
//!   parser ([`parse_exposition`]). Latency histograms use fixed log2
//!   buckets over microseconds with integer cumulative counts — no
//!   float sorting, no sample retention.
//! * [`trace`] — per-request span trees ([`TraceState`]) recorded via
//!   thread-local installation ([`span`], [`event`]), replayed from a
//!   bounded [`TraceRing`]. Layers that can't see the ring still
//!   record; threads with no trace installed pay one thread-local
//!   read.
//!
//! The serve tier owns a [`Registry`] and a [`TraceRing`]; the shard
//! tier owns its own registry and ships [`Snapshot`]s over the wire
//! for the router to [`Snapshot::merge`]. A long-lived component that
//! predates a registry (the WAL's flusher) owns a bare [`Histogram`]
//! handle and is attached by name at serve time with
//! [`Registry::register_histogram`] — shared cells, so the scrape is
//! always live.

pub mod metrics;
pub mod trace;

pub use metrics::{
    parse_exposition, Counter, Histogram, HistogramSnapshot, Registry, Sample, Snapshot, Value,
    N_BUCKETS,
};
pub use trace::{current_id, event, span, TraceRing, TraceState};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Satellite: writers hammer counters and a histogram while a
        // reader scrapes. Every scrape must be monotone in every
        // counter, histogram bucket sums must equal the derived count
        // (exact by construction), and after the dust settles the
        // totals must equal what the writers did.
        #[test]
        fn concurrent_scrapes_are_monotone_and_bucket_exact(
            writers in 2usize..5,
            per_writer in 50usize..300,
            values in proptest::collection::vec(0u64..100_000, 8),
        ) {
            let r = Arc::new(Registry::new());
            let stop = Arc::new(AtomicBool::new(false));
            let scraper = {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_count = 0u64;
                    let mut last_ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = r.snapshot();
                        if let Some(h) = s.histogram("lat") {
                            let count = h.count();
                            assert_eq!(
                                count,
                                h.buckets.iter().sum::<u64>(),
                                "bucket sum must equal derived count"
                            );
                            assert!(count >= last_count, "count went backwards");
                            last_count = count;
                        }
                        if let Some(ops) = s.counter("ops") {
                            assert!(ops >= last_ops, "counter went backwards");
                            last_ops = ops;
                        }
                    }
                })
            };
            std::thread::scope(|scope| {
                for _ in 0..writers {
                    let r = Arc::clone(&r);
                    let values = values.clone();
                    scope.spawn(move || {
                        let ops = r.counter("ops");
                        let lat = r.histogram("lat");
                        for i in 0..per_writer {
                            ops.inc();
                            lat.observe_us(values[i % values.len()]);
                        }
                    });
                }
            });
            stop.store(true, Ordering::Relaxed);
            scraper.join().unwrap();
            let s = r.snapshot();
            let expected = (writers * per_writer) as u64;
            prop_assert_eq!(s.counter("ops"), Some(expected));
            let h = s.histogram("lat").unwrap();
            prop_assert_eq!(h.count(), expected);
            let expected_sum: u64 = (0..per_writer)
                .map(|i| values[i % values.len()])
                .sum::<u64>()
                * writers as u64;
            prop_assert_eq!(h.sum_us, expected_sum);
        }
    }
}
