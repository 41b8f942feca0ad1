//! Seeded input generation: the map, the pooled read operations and
//! the writer's mutation stream. Everything the servers receive is
//! made here from `--seed` and sent as protocol lines — the benchmark
//! never asks the program to generate its own data (`LOAD map` is not
//! used), and it carries its own PRNG so a change to the vendored
//! `rand` stub cannot move the inputs between two commits.

use std::collections::VecDeque;

use scq_bbox::{Bbox, CornerQuery};
use scq_region::{AaBox, Region};

/// SplitMix64: tiny, seedable, and owned by the benchmark.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The `i`-th of `n` equal strata of `[lo, hi)`, jittered inside the
    /// stratum. The seed moves every object, but how many of them fall
    /// in any given region hardly changes — so the work a workload does
    /// is a property of the workload, not of the seed it was given.
    pub fn stratum(&mut self, i: usize, n: usize, lo: f64, hi: f64) -> f64 {
        lo + (i as f64 + self.unit()) * (hi - lo) / n as f64
    }

    /// Uniform in `[lo, hi)` on a 0.1 grid, so every coordinate prints
    /// short and parses back to the same `f64` on the server.
    pub fn coord(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 10.0) as usize;
        lo + self.below(steps.max(1)) as f64 / 10.0
    }
}

/// An axis-aligned box `[x0, x1] × [y0, y1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

impl Rect {
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        // Sums of 0.1-grid values pick up binary noise; snap it off so
        // the printed line and the oracle hold the same number.
        let snap = |v: f64| (v * 10.0).round() / 10.0;
        Rect {
            x0: snap(x0),
            y0: snap(y0),
            x1: snap(x1),
            y1: snap(y1),
        }
    }

    /// `x0 y0 x1 y1`, the `INSERT`/`UPDATE`/`QUERY` coordinate form.
    pub fn spaced(&self) -> String {
        format!("{} {} {} {}", self.x0, self.y0, self.x1, self.y1)
    }

    /// `x0:y0:x1:y1`, the `SOLVE` box-binding form.
    pub fn colons(&self) -> String {
        format!("{}:{}:{}:{}", self.x0, self.y0, self.x1, self.y1)
    }

    pub fn bbox(&self) -> Bbox<2> {
        Bbox::new([self.x0, self.y0], [self.x1, self.y1])
    }

    pub fn region(&self) -> Region<2> {
        Region::from_box(AaBox::new([self.x0, self.y0], [self.x1, self.y1]))
    }
}

/// The databases span `[0, UNIVERSE_SIDE]²` (the servers' default).
pub const UNIVERSE_SIDE: f64 = 1000.0;

/// Collection names, in creation order (so ids are 0, 1, 2 on every
/// topology and in the oracle).
pub const COLLECTIONS: [&str; 3] = ["states", "towns", "roads"];

pub const N_STATES: usize = 8;
pub const N_TOWNS: usize = 250;
pub const N_ROADS: usize = 1000;
/// Roads built to satisfy the smuggler constraints (each brings its
/// own town). Thirty-two of them make a smuggler join of about a
/// thousand tuples and 12 ms: heavy enough that exec and row checks are
/// nearly all of it, light enough that a window holds some 800 of them
/// and its p95 does not hang on three slow samples.
pub const N_USEFUL: usize = 32;

/// The generated map: a country of horizontal state bands, border towns
/// on the western strip, and roads — the smuggler scenario, boxes only
/// (the line protocol's `INSERT` takes one box).
pub struct Map {
    pub country: Rect,
    /// The true destination area; the smuggler pool jitters it.
    pub area: Rect,
    pub states: Vec<Rect>,
    pub towns: Vec<Rect>,
    pub roads: Vec<Rect>,
}

/// A second stratified coordinate for object `i` of `n`: the strata
/// are visited in a scrambled order, so it is independent of the first
/// coordinate (which walks them in order) yet just as evenly spread.
fn scrambled(i: usize, n: usize, step: usize) -> usize {
    (i * step + 13) % n
}

impl Map {
    pub fn generate(seed: u64) -> Map {
        let mut rng = Rng::new(seed ^ 0x6D61_7000);
        let country = Rect::new(100.0, 100.0, 900.0, 900.0);
        let band = 800.0 / N_STATES as f64;
        let states: Vec<Rect> = (0..N_STATES)
            .map(|i| {
                let y0 = 100.0 + i as f64 * band;
                Rect::new(100.0, y0, 900.0, y0 + band)
            })
            .collect();
        // The area sits in the same band under every seed: where the
        // dense corridor of useful roads lies decides how much every
        // district window finds.
        let ay = states[3].y0 + 40.0;
        let area = Rect::new(600.0, ay, 680.0, ay + 20.0);

        let mut towns: Vec<Rect> = (0..N_TOWNS)
            .map(|i| {
                let y = rng.stratum(i, N_TOWNS, 110.0, 880.0);
                Rect::new(100.0, y, 118.0, y + 12.0)
            })
            .collect();
        let mut roads = Vec::with_capacity(N_ROADS);
        for i in 0..N_USEFUL {
            // A corridor from its own border town east into the area,
            // inside the area's state band: it satisfies R<=A|B|T,
            // R&A!=0 and R&T!=0 for every jitter of A.
            let ry = rng.stratum(i, N_USEFUL, ay - 1.0, ay + 15.0);
            towns.push(Rect::new(100.0, ry - 4.0, 118.0, ry + 8.0));
            roads.push(Rect::new(110.0, ry, 660.0, ry + 6.0));
        }
        // Decoys: half run east-west, half north-south (those tend to
        // cross state boundaries).
        let n = (N_ROADS - N_USEFUL) / 2;
        for i in 0..n {
            let y = rng.stratum(i, n, 105.0, 890.0);
            let x0 = rng.stratum(scrambled(i, n, 197), n, 100.0, 700.0);
            let len = rng.stratum(scrambled(i, n, 293), n, 80.0, 250.0);
            roads.push(Rect::new(x0, y, (x0 + len).min(900.0), y + 6.0));
            let x = rng.stratum(i, n, 105.0, 890.0);
            let y0 = rng.stratum(scrambled(i, n, 197), n, 100.0, 700.0);
            let len = rng.stratum(scrambled(i, n, 293), n, 80.0, 250.0);
            roads.push(Rect::new(x, y0, x + 6.0, (y0 + len).min(900.0)));
        }
        Map {
            country,
            area,
            states,
            towns,
            roads,
        }
    }

    /// The protocol lines that load the map into an empty server.
    pub fn load_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = COLLECTIONS.iter().map(|c| format!("CREATE {c}")).collect();
        for (name, rects) in COLLECTIONS
            .iter()
            .zip([&self.states, &self.towns, &self.roads])
        {
            lines.extend(
                rects
                    .iter()
                    .map(|r| format!("INSERT {name} {}", r.spaced())),
            );
        }
        lines
    }
}

/// A `SOLVE rtree all` operation: the constraint system, its known
/// boxes and its collection-bound unknowns.
#[derive(Clone, Debug)]
pub struct SolveOp {
    pub system: &'static str,
    pub knowns: Vec<(&'static str, Rect)>,
    pub unknowns: Vec<(&'static str, &'static str)>,
}

impl SolveOp {
    pub fn bindings(&self) -> String {
        let mut parts: Vec<String> = self
            .knowns
            .iter()
            .map(|(v, r)| format!("{v}=box:{}", r.colons()))
            .collect();
        parts.extend(self.unknowns.iter().map(|(v, c)| format!("{v}=coll:{c}")));
        parts.join(",")
    }

    pub fn line(&self) -> String {
        format!("SOLVE rtree all {} {}", self.bindings(), self.system)
    }
}

/// A `QUERY roads rtree overlaps <box>` operation.
#[derive(Clone, Copy, Debug)]
pub struct RangeOp(pub Rect);

impl RangeOp {
    pub fn line(&self) -> String {
        format!("QUERY roads rtree overlaps {}", self.0.spaced())
    }

    /// The corner query `overlaps <box>` is on the server.
    pub fn corner_query(&self) -> CornerQuery<2> {
        CornerQuery::unconstrained().and_overlaps(&self.0.bbox())
    }
}

pub const SMUGGLER_SYSTEM: &str = "A<=C; B<=C; R<=A|B|T; R&A!=0; R&T!=0; T<C";
pub const DISTRICT_SYSTEM: &str = "T<=W; R&T!=0";

pub const SMUGGLER_POOL: usize = 32;
pub const DISTRICT_POOL: usize = 128;
pub const RANGE_POOL: usize = 8192;
pub const WEST_QUERY_POOL: usize = 512;

/// The smuggler join with `A` cycled over seeded jitters of the true
/// area box (distinct command texts, so the plan cache holds 32 plans).
pub fn smuggler_pool(map: &Map, seed: u64) -> Vec<SolveOp> {
    let mut rng = Rng::new(seed ^ 0x736D_7567);
    (0..SMUGGLER_POOL)
        .map(|i| {
            let dx = rng.stratum(i, SMUGGLER_POOL, -10.0, 10.0);
            let dy = rng.stratum(scrambled(i, SMUGGLER_POOL, 11), SMUGGLER_POOL, -3.0, 3.0);
            let a = map.area;
            SolveOp {
                system: SMUGGLER_SYSTEM,
                knowns: vec![
                    ("C", map.country),
                    ("A", Rect::new(a.x0 + dx, a.y0 + dy, a.x1 + dx, a.y1 + dy)),
                ],
                unknowns: vec![("T", "towns"), ("R", "roads"), ("B", "states")],
            }
        })
        .collect()
}

/// District queries: towns inside a 260×260 window on the western
/// border and the roads touching them. Windows always cover the town
/// strip (x in 100..118), so every answer has work to do, and they
/// start at y >= 380, so only the southernmost fifth of them reach the
/// dense corridor of useful roads (y about 440..460): most operations
/// are many small probes, which is what this pool is for.
pub fn district_pool(seed: u64) -> Vec<SolveOp> {
    let mut rng = Rng::new(seed ^ 0x6469_7374);
    (0..DISTRICT_POOL)
        .map(|i| {
            let x = rng.stratum(scrambled(i, DISTRICT_POOL, 37), DISTRICT_POOL, 0.0, 100.0);
            let y = rng.stratum(i, DISTRICT_POOL, 380.0, 640.0);
            SolveOp {
                system: DISTRICT_SYSTEM,
                knowns: vec![("W", Rect::new(x, y, x + 260.0, y + 260.0))],
                unknowns: vec![("T", "towns"), ("R", "roads")],
            }
        })
        .collect()
}

/// 50×50 probe boxes with `x1 <= x_max`.
pub fn range_pool(seed: u64, n: usize, x_max: f64) -> Vec<RangeOp> {
    let mut rng = Rng::new(seed ^ 0x7261_6E67);
    (0..n)
        .map(|_| {
            let x = rng.coord(100.0, x_max - 50.0);
            let y = rng.coord(100.0, 850.0);
            RangeOp(Rect::new(x, y, x + 50.0, y + 50.0))
        })
        .collect()
}

/// Zipf(1.0) over ranks `0..n`: rank `k` is drawn with weight
/// `1/(k+1)`. The pool is generated in random order, so rank order is
/// already a seeded shuffle of space.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / (k + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One mutation of the writer's stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WriteOp {
    Insert(Rect),
    Update(usize, Rect),
    Remove(usize),
}

impl WriteOp {
    pub fn line(&self) -> String {
        match self {
            WriteOp::Insert(r) => format!("INSERT roads {}", r.spaced()),
            WriteOp::Update(slot, r) => format!("UPDATE roads {slot} {}", r.spaced()),
            WriteOp::Remove(slot) => format!("REMOVE roads {slot}"),
        }
    }
}

/// The writer first inserts until it owns this many roads, then cycles
/// insert / update / remove, so the count holds (at this or one more).
pub const WRITER_LIVE: usize = 32;

/// The writer: `INSERT`/`UPDATE`/`REMOVE` on `roads`, every box at
/// x >= 700 (so no western town, district window or west-half query
/// box can see it and the reader's answers provably never change),
/// one update in eight moved across y = 500 — the two-shard boundary —
/// which the router turns into a cross-process migration.
pub struct Writer {
    rng: Rng,
    /// Slots this writer inserted and has not removed, oldest first,
    /// with their current boxes.
    live: VecDeque<(usize, Rect)>,
    step: usize,
    updates: usize,
}

impl Writer {
    pub fn new(seed: u64) -> Writer {
        Writer {
            rng: Rng::new(seed ^ 0x7772_6974),
            live: VecDeque::new(),
            step: 0,
            updates: 0,
        }
    }

    fn strip(&mut self, south: bool) -> Rect {
        let x = self.rng.coord(700.0, 860.0);
        let y = if south {
            self.rng.coord(110.0, 470.0)
        } else {
            self.rng.coord(510.0, 870.0)
        };
        Rect::new(x, y, x + 30.0, y + 6.0)
    }

    /// The next mutation. After an `Insert` is acknowledged the caller
    /// reports the slot the server assigned through [`Writer::inserted`].
    pub fn next_op(&mut self) -> WriteOp {
        // Fill first (set-up sends exactly these), then cycle.
        let filling = self.step == 0 && self.live.len() < WRITER_LIVE;
        let phase = self.step % 3;
        if !filling {
            self.step += 1;
        }
        if filling || phase == 0 {
            let south = self.rng.below(2) == 0;
            return WriteOp::Insert(self.strip(south));
        }
        if phase == 1 {
            let i = self.rng.below(self.live.len());
            let (slot, old) = self.live[i];
            self.updates += 1;
            let was_south = old.y0 < 500.0;
            let south = if self.updates.is_multiple_of(8) {
                !was_south
            } else {
                was_south
            };
            let new = self.strip(south);
            self.live[i].1 = new;
            return WriteOp::Update(slot, new);
        }
        let (slot, _) = self.live.pop_front().expect("the cycle starts full");
        WriteOp::Remove(slot)
    }

    pub fn inserted(&mut self, slot: usize, rect: Rect) {
        self.live.push_back((slot, rect));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_is_byte_identical_under_one_seed_and_differs_under_another() {
        let lines = |seed| {
            let map = Map::generate(seed);
            let mut all = map.load_lines();
            all.extend(smuggler_pool(&map, seed).iter().map(SolveOp::line));
            all.extend(district_pool(seed).iter().map(SolveOp::line));
            all.extend(range_pool(seed, 64, 900.0).iter().map(RangeOp::line));
            let mut w = Writer::new(seed);
            for slot in 0..100 {
                let op = w.next_op();
                if let WriteOp::Insert(r) = op {
                    w.inserted(1000 + slot, r);
                }
                all.push(op.line());
            }
            all.join("\n")
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn the_map_has_the_stated_shape() {
        let map = Map::generate(3);
        assert_eq!(map.states.len(), N_STATES);
        assert_eq!(map.towns.len(), N_TOWNS + N_USEFUL);
        assert_eq!(map.roads.len(), N_ROADS);
        assert_eq!(
            map.load_lines().len(),
            3 + N_STATES + N_TOWNS + N_USEFUL + N_ROADS
        );
    }

    #[test]
    fn coordinates_survive_the_text_round_trip() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let x = rng.coord(0.0, 900.0);
            let r = Rect::new(x, x + 0.3, x + 50.0, x + 12.0);
            let back: Vec<f64> = r
                .spaced()
                .split(' ')
                .map(|t| t.parse().expect("a number"))
                .collect();
            assert_eq!(back, vec![r.x0, r.y0, r.x1, r.y1]);
        }
    }

    #[test]
    fn the_writer_stays_east_holds_its_live_count_and_migrates_one_update_in_eight() {
        let mut w = Writer::new(5);
        let (mut updates, mut crossings, mut next_slot) = (0, 0, 0);
        let mut boxes = std::collections::HashMap::new();
        for _ in 0..3000 {
            match w.next_op() {
                WriteOp::Insert(r) => {
                    assert!(r.x0 >= 700.0);
                    boxes.insert(next_slot, r);
                    w.inserted(next_slot, r);
                    next_slot += 1;
                }
                WriteOp::Update(slot, r) => {
                    assert!(r.x0 >= 700.0);
                    let old = boxes.insert(slot, r).expect("updates only own live slots");
                    updates += 1;
                    crossings += usize::from((old.y0 < 500.0) != (r.y0 < 500.0));
                }
                WriteOp::Remove(slot) => {
                    boxes.remove(&slot).expect("removes only own live slots");
                }
            }
            assert!(boxes.len() <= WRITER_LIVE + 1);
            assert!(next_slot < WRITER_LIVE || boxes.len() >= WRITER_LIVE);
        }
        assert_eq!(crossings, updates / 8);
        assert!(updates > 900, "a third of the cycle updates: {updates}");
    }

    #[test]
    fn zipf_has_a_hot_head_and_a_long_tail() {
        let z = Zipf::new(RANGE_POOL);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&k| k < 1024).count();
        assert!(head > 14_000, "ranks below the cache size dominate: {head}");
        assert!(draws.iter().any(|&k| k >= 4096), "the tail is reached");
        assert!(draws.iter().all(|&k| k < RANGE_POOL));
    }
}
