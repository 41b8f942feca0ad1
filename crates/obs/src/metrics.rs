//! Metric instruments: counters and fixed log2-bucket latency
//! histograms behind a named registry, with Prometheus-style text
//! exposition.
//!
//! The design rules, in order:
//!
//! * **Recording is lock-cheap.** [`Counter::add`] is a single relaxed
//!   atomic operation; [`Histogram::observe_us`]
//!   is three. No float sorting, no allocation, no mutex on the hot
//!   path.
//! * **Histogram counts are exact by construction.** A snapshot derives
//!   the observation count as the sum of its buckets, so "bucket sums
//!   equal the count" holds under any interleaving of writers and the
//!   scraper.
//!
//! Buckets are powers of two of **microseconds**: bucket 0 holds 0 µs,
//! bucket `i ≥ 1` holds `[2^(i-1), 2^i)` µs, and the last bucket
//! absorbs everything above. The exposition renders cumulative bucket
//! counts, an order-of-magnitude answer that never needs the raw
//! samples.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 latency buckets: bucket 0 is `0 µs`, bucket 31
/// absorbs everything from `2^30 µs` (~18 minutes) up.
pub const N_BUCKETS: usize = 32;

/// A monotonically increasing counter. Cloning shares the underlying
/// cell — handles are cheap and thread-safe.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh standalone counter (not attached to any registry).
    pub(crate) fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (relaxed; lock-free).
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; N_BUCKETS],
    sum_us: AtomicU64,
}

/// A fixed-bucket latency histogram over microseconds. Cloning shares
/// the cells.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cells: Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_us: AtomicU64::new(0),
            }),
        }
    }
}

/// The bucket a microsecond value falls into.
fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` in microseconds; the last bucket
/// is unbounded (`None` = `+Inf`).
fn bucket_le(i: usize) -> Option<u64> {
    if i + 1 >= N_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

impl Histogram {
    /// A fresh standalone histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one latency observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.cells.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one [`std::time::Duration`] observation.
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the cells.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed)),
            sum_us: self.cells.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram — the unit shipped over the
/// wire when the router merges shard-side metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`N_BUCKETS`]).
    pub buckets: [u64; N_BUCKETS],
    /// Sum of every observed value, in microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Total observations — **derived** from the buckets, so it always
    /// equals their sum whatever the scrape raced against.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }

    /// Adds another snapshot's cells into this one (saturating).
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

/// One named instrument's snapshot value.
///
/// The histogram variant carries its full bucket array inline — a
/// snapshot holds tens of rows at most and lives only for the scrape,
/// so the size skew is cheaper than a heap hop per row.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Value {
    /// A counter's current value.
    Counter(u64),
    /// A histogram's cells.
    Histogram(HistogramSnapshot),
}

/// A coherent point-in-time copy of a whole registry (or a merge of
/// several): named instrument values, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` rows, sorted by name.
    pub rows: Vec<(String, Value)>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.rows.iter().find_map(|(n, v)| match v {
            Value::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.rows.iter().find_map(|(n, v)| match v {
            Value::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }

    /// Merges another snapshot in: same-named counters and histogram
    /// cells add, new names append. The result stays sorted.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.rows {
            match self.rows.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => match (mine, value) {
                    (Value::Counter(a), Value::Counter(b)) => *a = a.saturating_add(*b),
                    (Value::Histogram(a), Value::Histogram(b)) => a.merge(b),
                    // A name that changed kind across tiers: keep ours.
                    _ => {}
                },
                None => self.rows.push((name.clone(), value.clone())),
            }
        }
        self.rows.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Renders Prometheus-style text exposition. Metric names mangle
    /// dots to underscores (`serve.query.latency` →
    /// `serve_query_latency_us`); histograms get a `_us` unit suffix
    /// and the classic `_bucket{le=…}` / `_sum` / `_count` triplet.
    /// `labels` is attached to every sample (the router labels merged
    /// shard snapshots with `tier`/`shard`).
    pub fn render(&self, labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let label_str = |extra: Option<(&str, String)>| {
            let mut parts: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        for (name, value) in &self.rows {
            let base = mangle(name);
            match value {
                Value::Counter(v) => {
                    out.push_str(&format!("# TYPE {base} counter\n"));
                    out.push_str(&format!("{base}{} {v}\n", label_str(None)));
                }
                Value::Histogram(h) => {
                    let base = format!("{base}_us");
                    out.push_str(&format!("# TYPE {base} histogram\n"));
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cum = cum.saturating_add(*b);
                        // Empty buckets below the first occupied one
                        // and the long zero tail are elided: a 32-row
                        // block per histogram would drown the scrape.
                        if *b == 0 && bucket_le(i).is_some() {
                            continue;
                        }
                        let le = match bucket_le(i) {
                            Some(us) => us.to_string(),
                            None => "+Inf".into(),
                        };
                        out.push_str(&format!(
                            "{base}_bucket{} {cum}\n",
                            label_str(Some(("le", le)))
                        ));
                    }
                    out.push_str(&format!("{base}_sum{} {}\n", label_str(None), h.sum_us));
                    out.push_str(&format!("{base}_count{} {}\n", label_str(None), h.count()));
                }
            }
        }
        out
    }
}

fn mangle(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// One parsed exposition sample: mangled metric name, label set (as
/// written, brace-enclosed or empty) and numeric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Mangled sample name (`serve_query_latency_us_count`).
    pub name: String,
    /// The raw label block, `{}`-less when absent.
    pub labels: String,
    /// The sample's value.
    pub value: f64,
}

/// Parses Prometheus-style text exposition back into samples — the
/// assertion side of [`Snapshot::render`], used by the CI smoke to
/// prove a scrape is well-formed. Comment lines must start `#`; every
/// other non-empty line must be `name[{labels}] value`.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", i + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value: {line:?}", i + 1))?;
        let (name, labels) = match head.split_once('{') {
            Some((n, rest)) => {
                if !rest.ends_with('}') {
                    return Err(format!("line {}: unterminated labels: {line:?}", i + 1));
                }
                (n, format!("{{{rest}"))
            }
            None => (head, String::new()),
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {}: bad metric name: {line:?}", i + 1));
        }
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

enum Instrument {
    Counter(Counter),
    Histogram(Histogram),
}

/// A named set of instruments.
///
/// `counter`/`histogram` get-or-create by name and hand back cheap
/// shared handles; a pre-built histogram (a WAL's fsync histogram)
/// attaches under a name with [`Registry::register_histogram`] so one
/// scrape covers it too.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<Vec<(String, Instrument)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        pick: impl Fn(&Instrument) -> Option<T>,
        make: impl FnOnce() -> (T, Instrument),
    ) -> T {
        let mut list = self.instruments.lock().expect("registry lock");
        if let Some(found) = list
            .iter()
            .find_map(|(n, i)| if n == name { pick(i) } else { None })
        {
            return found;
        }
        let (handle, instrument) = make();
        list.push((name.to_string(), instrument));
        handle
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Instrument::Counter(c))
            },
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (h.clone(), Instrument::Histogram(h))
            },
        )
    }

    /// Attaches an existing histogram under `name` (shared cells: the
    /// owner keeps observing, scrapes see it live).
    pub fn register_histogram(&self, name: &str, h: Histogram) {
        let mut list = self.instruments.lock().expect("registry lock");
        if !list.iter().any(|(n, _)| n == name) {
            list.push((name.to_string(), Instrument::Histogram(h)));
        }
    }

    /// A snapshot of every instrument. Each value is read once; no
    /// two instruments are read at one instant.
    pub fn snapshot(&self) -> Snapshot {
        let list = self.instruments.lock().expect("registry lock");
        let mut rows: Vec<(String, Value)> = list
            .iter()
            .map(|(n, i)| {
                let v = match i {
                    Instrument::Counter(c) => Value::Counter(c.get()),
                    Instrument::Histogram(h) => Value::Histogram(h.snapshot()),
                };
                (n.clone(), v)
            })
            .collect();
        drop(list);
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        // Every value lands in the bucket whose `le` bound admits it.
        for us in [0u64, 1, 2, 3, 7, 8, 100, 999, 1 << 20, 1 << 40] {
            let i = bucket_index(us);
            if let Some(le) = bucket_le(i) {
                assert!(us <= le, "{us} > le {le} of its own bucket {i}");
            }
            if i > 0 {
                if let Some(prev_le) = bucket_le(i - 1) {
                    assert!(us > prev_le, "{us} fits the previous bucket {}", i - 1);
                }
            }
        }
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.snapshot().counter("x"), Some(3));
        let h = r.histogram("lat");
        h.observe_us(5);
        assert_eq!(r.snapshot().histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let r = Registry::new();
        r.counter("serve.queries").add(7);
        let h = r.histogram("serve.query.latency");
        h.observe_us(0);
        h.observe_us(5);
        h.observe_us(1_000_000);
        let text = r.snapshot().render(&[("tier", "router")]);
        assert!(text.contains("# TYPE serve_queries counter"));
        assert!(text.contains("serve_queries{tier=\"router\"} 7"));
        assert!(text.contains("# TYPE serve_query_latency_us histogram"));
        assert!(text.contains("serve_query_latency_us_count{tier=\"router\"} 3"));
        let samples = parse_exposition(&text).expect("well-formed exposition");
        let count = samples
            .iter()
            .find(|s| s.name == "serve_query_latency_us_count")
            .expect("histogram count sample");
        assert_eq!(count.value, 3.0);
        assert!(
            samples
                .iter()
                .any(|s| s.name == "serve_query_latency_us_bucket"
                    && s.labels.contains("le=\"+Inf\""))
        );
        // The cumulative +Inf bucket equals the count.
        let inf = samples
            .iter()
            .find(|s| s.name == "serve_query_latency_us_bucket" && s.labels.contains("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 3.0);
        assert!(parse_exposition("not a metric line").is_err());
        assert!(parse_exposition("bad{unclosed 3").is_err());
    }

    #[test]
    fn snapshot_merge_adds_counters_and_cells() {
        let a = Registry::new();
        a.counter("c").add(1);
        a.histogram("h").observe_us(10);
        let b = Registry::new();
        b.counter("c").add(2);
        b.counter("only_b").add(9);
        b.histogram("h").observe_us(20);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("c"), Some(3));
        assert_eq!(m.counter("only_b"), Some(9));
        assert_eq!(m.histogram("h").unwrap().count(), 2);
        assert_eq!(m.histogram("h").unwrap().sum_us, 30);
    }
}
