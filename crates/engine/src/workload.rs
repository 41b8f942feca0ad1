//! Seeded synthetic workload generators.
//!
//! The paper's motivating applications — geographic information systems,
//! VLSI design-rule checking, visual language parsing — published no
//! datasets, so the benchmarks run on synthetic geometry whose knobs
//! (clustering, aspect ratio, density) sweep the statistics that matter
//! for the optimizer. All generators are deterministic under a seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use scq_region::{AaBox, Region};

use crate::database::{CollectionId, SpatialDatabase};

/// A generated GIS-style map: a country with states, border towns and
/// roads — the smuggler scenario at scale.
pub struct MapWorkload {
    /// The country region (`C` in the paper's example).
    pub country: Region<2>,
    /// A destination area deep inside the country (`A`).
    pub area: Region<2>,
    /// Collection of state regions (`B` candidates).
    pub states: CollectionId,
    /// Collection of border towns (`T` candidates).
    pub towns: CollectionId,
    /// Collection of roads (`R` candidates).
    pub roads: CollectionId,
}

/// Parameters for [`map_workload`].
#[derive(Clone, Copy, Debug)]
pub struct MapParams {
    /// Number of vertical state bands.
    pub n_states: usize,
    /// Number of towns along the western border.
    pub n_towns: usize,
    /// Number of roads.
    pub n_roads: usize,
    /// Fraction of roads engineered to be *useful* (start at a town,
    /// reach the destination area, stay inside one state).
    pub useful_road_fraction: f64,
}

impl Default for MapParams {
    fn default() -> Self {
        MapParams {
            n_states: 8,
            n_towns: 40,
            n_roads: 100,
            useful_road_fraction: 0.1,
        }
    }
}

/// Builds a map database in the 1000×1000 universe.
///
/// Layout: the country is `[100, 900]²`, split into `n_states` horizontal
/// bands. Towns sit on the western border strip. Useful roads run
/// east from a town towards the destination area, inside one band;
/// decoy roads are random elongated strips.
pub fn map_workload(db: &mut SpatialDatabase<2>, seed: u64, params: &MapParams) -> MapWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let country_box = AaBox::new([100.0, 100.0], [900.0, 900.0]);
    let country = Region::from_box(country_box);

    let states = db.collection("states");
    let towns = db.collection("towns");
    let roads = db.collection("roads");

    // Horizontal bands partition the country exactly.
    let n = params.n_states.max(1);
    let band_h = 800.0 / n as f64;
    let mut band_ranges = Vec::with_capacity(n);
    for i in 0..n {
        let y0 = 100.0 + i as f64 * band_h;
        let y1 = if i + 1 == n { 900.0 } else { y0 + band_h };
        band_ranges.push((y0, y1));
        db.insert(
            states,
            Region::from_box(AaBox::new([100.0, y0], [900.0, y1])),
        );
    }

    // Destination area: a box well inside the country, in some band.
    let area_band = rng.random_range(0..n);
    let (ay0, ay1) = band_ranges[area_band];
    let ay = (ay0 + 5.0).min(ay1 - 25.0).max(ay0);
    let area_box = AaBox::new([600.0, ay], [680.0, (ay + 20.0).min(ay1)]);
    let area = Region::from_box(area_box);

    // Towns on the western border strip x ∈ [100, 120].
    let mut town_ys = Vec::with_capacity(params.n_towns);
    for _ in 0..params.n_towns {
        let y = rng.random_range(110.0..880.0);
        town_ys.push(y);
        db.insert(
            towns,
            Region::from_box(AaBox::new([100.0, y], [118.0, y + 12.0])),
        );
    }

    // Roads.
    for i in 0..params.n_roads {
        let useful = (i as f64) < params.useful_road_fraction * params.n_roads as f64;
        let region = if useful && !town_ys.is_empty() {
            // Useful: from a town in the area's band to the area, as an
            // L-shaped corridor inside that band.
            let (by0, by1) = band_ranges[area_band];
            let ty = rng.random_range(by0.max(110.0)..(by1 - 14.0).max(by0.max(110.0) + 1.0));
            let road_y = ty + 4.0;
            let h = Region::from_box(AaBox::new([110.0, road_y], [660.0, road_y + 6.0]));
            let target_y = 0.5 * (ay + (ay + 20.0).min(ay1));
            let (vy0, vy1) = if road_y < target_y {
                (road_y, target_y + 3.0)
            } else {
                (target_y - 3.0, road_y + 6.0)
            };
            let vseg = Region::from_box(AaBox::new([640.0, vy0.max(by0)], [660.0, vy1.min(by1)]));
            // Also make sure it reaches the town box.
            let town = Region::from_box(AaBox::new([100.0, ty], [118.0, ty + 12.0]));
            db.insert(towns, town);
            h.union(&vseg)
        } else if rng.random_bool(0.5) {
            // Horizontal decoy.
            let y = rng.random_range(105.0..890.0);
            let x0 = rng.random_range(100.0..700.0);
            let len = rng.random_range(80.0..250.0);
            Region::from_box(AaBox::new([x0, y], [(x0 + len).min(900.0), y + 6.0]))
        } else {
            // Vertical decoy (tends to cross state boundaries).
            let x = rng.random_range(105.0..890.0);
            let y0 = rng.random_range(100.0..700.0);
            let len = rng.random_range(80.0..250.0);
            Region::from_box(AaBox::new([x, y0], [x + 6.0, (y0 + len).min(900.0)]))
        };
        db.insert(roads, region);
    }

    MapWorkload {
        country,
        area,
        states,
        towns,
        roads,
    }
}

/// Uniformly random boxes in the universe.
pub fn uniform_boxes(
    rng: &mut StdRng,
    n: usize,
    universe: &AaBox<2>,
    min_size: f64,
    max_size: f64,
) -> Vec<Region<2>> {
    let lo = universe.lo();
    let hi = universe.hi();
    (0..n)
        .map(|_| {
            let w = rng.random_range(min_size..max_size);
            let h = rng.random_range(min_size..max_size);
            let x = rng.random_range(lo[0]..(hi[0] - w).max(lo[0] + 1e-9));
            let y = rng.random_range(lo[1]..(hi[1] - h).max(lo[1] + 1e-9));
            Region::from_box(AaBox::new([x, y], [x + w, y + h]))
        })
        .collect()
}

/// Clustered boxes: `n_clusters` gaussian-ish blobs of `per_cluster`
/// boxes each.
pub fn clustered_boxes(
    rng: &mut StdRng,
    n_clusters: usize,
    per_cluster: usize,
    universe: &AaBox<2>,
    cluster_radius: f64,
    box_size: f64,
) -> Vec<Region<2>> {
    let lo = universe.lo();
    let hi = universe.hi();
    let mut out = Vec::with_capacity(n_clusters * per_cluster);
    for _ in 0..n_clusters {
        let cx = rng.random_range(lo[0] + cluster_radius..hi[0] - cluster_radius);
        let cy = rng.random_range(lo[1] + cluster_radius..hi[1] - cluster_radius);
        for _ in 0..per_cluster {
            let dx = rng.random_range(-cluster_radius..cluster_radius);
            let dy = rng.random_range(-cluster_radius..cluster_radius);
            let s = box_size * rng.random_range(0.5..1.5);
            let x = (cx + dx).clamp(lo[0], hi[0] - s);
            let y = (cy + dy).clamp(lo[1], hi[1] - s);
            out.push(Region::from_box(AaBox::new([x, y], [x + s, y + s])));
        }
    }
    out
}

/// VLSI-style workload: a grid of cells plus horizontal/vertical wires,
/// for design-rule-check-shaped queries (reference \[15\] of the paper).
pub struct VlsiWorkload {
    /// Collection of placed cells.
    pub cells: CollectionId,
    /// Collection of wires.
    pub wires: CollectionId,
    /// The power rail region (a known input in DRC queries).
    pub power_rail: Region<2>,
}

/// Builds a VLSI-like database: `rows × cols` cells with jitter, wires
/// spanning random cell ranges, and one power rail across the top.
pub fn vlsi_workload(
    db: &mut SpatialDatabase<2>,
    seed: u64,
    rows: usize,
    cols: usize,
    n_wires: usize,
) -> VlsiWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let cells = db.collection("cells");
    let wires = db.collection("wires");
    let pitch_x = 900.0 / cols.max(1) as f64;
    let pitch_y = 900.0 / rows.max(1) as f64;
    for r in 0..rows {
        for c in 0..cols {
            let x = 50.0 + c as f64 * pitch_x + rng.random_range(0.0..pitch_x * 0.2);
            let y = 50.0 + r as f64 * pitch_y + rng.random_range(0.0..pitch_y * 0.2);
            db.insert(
                cells,
                Region::from_box(AaBox::new([x, y], [x + pitch_x * 0.6, y + pitch_y * 0.6])),
            );
        }
    }
    for _ in 0..n_wires {
        if rng.random_bool(0.5) {
            let y = rng.random_range(50.0..950.0);
            let x0 = rng.random_range(50.0..800.0);
            let x1 = x0 + rng.random_range(50.0..150.0);
            db.insert(
                wires,
                Region::from_box(AaBox::new([x0, y], [x1.min(950.0), y + 2.0])),
            );
        } else if rng.random_bool(0.12) {
            // Riser: a tall vertical wire running from the cell area up
            // into the power rail (the DRC-relevant population).
            let x = rng.random_range(50.0..950.0);
            let y0 = rng.random_range(700.0..900.0);
            db.insert(
                wires,
                Region::from_box(AaBox::new([x, y0], [x + 2.0, 952.0])),
            );
        } else {
            let x = rng.random_range(50.0..950.0);
            let y0 = rng.random_range(50.0..800.0);
            let y1 = y0 + rng.random_range(50.0..150.0);
            db.insert(
                wires,
                Region::from_box(AaBox::new([x, y0], [x + 2.0, y1.min(950.0)])),
            );
        }
    }
    // The rail sits low enough that the tallest wires reach it.
    let power_rail = Region::from_box(AaBox::new([50.0, 945.0], [950.0, 955.0]));
    VlsiWorkload {
        cells,
        wires,
        power_rail,
    }
}

/// Outcome counts of a [`churn`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg(test)]
struct ChurnStats {
    /// Objects inserted.
    pub inserted: usize,
    /// Objects tombstoned.
    pub removed: usize,
    /// Objects whose region was replaced.
    pub updated: usize,
}

/// Applies `ops` seeded random mutations (inserts, removes, updates)
/// across the given collections — the living-dataset counterpart of the
/// static generators above, used by mutation tests and the CI bench
/// smoke. Removes and updates target random slots, so some hit
/// tombstones and count as no-ops; roughly one insert in twelve is an
/// empty region to keep the empty-object path exercised.
#[cfg(test)]
fn churn(db: &mut SpatialDatabase<2>, seed: u64, colls: &[CollectionId], ops: usize) -> ChurnStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = ChurnStats::default();
    let universe = *db.universe();
    for _ in 0..ops {
        let coll = colls[rng.random_range(0..colls.len())];
        let slots = db.collection_len(coll);
        let action = rng.random_range(0..100);
        if action < 40 || slots == 0 {
            let region = if rng.random_range(0..12) == 0 {
                Region::empty()
            } else {
                uniform_boxes(&mut rng, 1, &universe, 1.0, 20.0)
                    .pop()
                    .expect("one box")
            };
            db.insert(coll, region);
            stats.inserted += 1;
        } else if action < 75 {
            let obj = crate::ObjectRef {
                collection: coll,
                index: rng.random_range(0..slots),
            };
            if db.remove(obj) {
                stats.removed += 1;
            }
        } else {
            let obj = crate::ObjectRef {
                collection: coll,
                index: rng.random_range(0..slots),
            };
            let region = uniform_boxes(&mut rng, 1, &universe, 1.0, 20.0)
                .pop()
                .expect("one box");
            if db.update(obj, region) {
                stats.updated += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_workload_is_deterministic() {
        let params = MapParams::default();
        let mut db1 = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        let w1 = map_workload(&mut db1, 7, &params);
        let mut db2 = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        let w2 = map_workload(&mut db2, 7, &params);
        assert_eq!(db1.collection_len(w1.roads), db2.collection_len(w2.roads));
        for i in db1.object_indices(w1.towns) {
            let a = db1.region(crate::ObjectRef {
                collection: w1.towns,
                index: i,
            });
            let b = db2.region(crate::ObjectRef {
                collection: w2.towns,
                index: i,
            });
            assert!(a.same_set(b));
        }
    }

    #[test]
    fn map_workload_satisfies_geometry() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        let w = map_workload(&mut db, 42, &MapParams::default());
        // area inside country
        assert!(w.area.subset_of(&w.country));
        // every state inside country, states pairwise disjoint
        let states: Vec<_> = db
            .object_indices(w.states)
            .map(|i| {
                db.region(crate::ObjectRef {
                    collection: w.states,
                    index: i,
                })
                .clone()
            })
            .collect();
        for (i, s) in states.iter().enumerate() {
            assert!(s.subset_of(&w.country));
            for t in &states[i + 1..] {
                assert!(!s.intersects(t));
            }
        }
        // towns touch the country
        for i in db.object_indices(w.towns) {
            let t = db.region(crate::ObjectRef {
                collection: w.towns,
                index: i,
            });
            assert!(t.intersects(&w.country) || !t.subset_of(&w.country));
        }
    }

    #[test]
    fn generators_respect_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = AaBox::new([0.0, 0.0], [100.0, 100.0]);
        assert_eq!(uniform_boxes(&mut rng, 25, &u, 1.0, 5.0).len(), 25);
        assert_eq!(clustered_boxes(&mut rng, 4, 10, &u, 8.0, 2.0).len(), 40);
        for r in uniform_boxes(&mut rng, 50, &u, 1.0, 5.0) {
            assert!(r.subset_of(&Region::from_box(u)));
        }
    }

    #[test]
    fn churn_is_deterministic_and_consistent() {
        let build = || {
            let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
            let a = db.collection("a");
            let b = db.collection("b");
            let stats = churn(&mut db, 55, &[a, b], 400);
            (db, stats)
        };
        let (db1, s1) = build();
        let (db2, s2) = build();
        assert_eq!(s1, s2);
        assert!(s1.inserted > 0 && s1.removed > 0 && s1.updated > 0);
        for coll in db1.collections() {
            assert_eq!(db1.collection_len(coll), db2.collection_len(coll));
            assert_eq!(db1.live_len(coll), db2.live_len(coll));
        }
        crate::integrity::check(&db1).expect("churned database is consistent");
    }

    #[test]
    fn vlsi_workload_builds() {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
        let w = vlsi_workload(&mut db, 3, 4, 5, 30);
        assert_eq!(db.collection_len(w.cells), 20);
        assert_eq!(db.collection_len(w.wires), 30);
        assert!(!w.power_rail.is_empty());
    }
}
