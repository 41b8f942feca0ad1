//! The answer oracle: an unsharded `SpatialDatabase` that mirrors every
//! generated insert and mutation, and the comparison of each server
//! response with what that database says.

use std::collections::BTreeSet;

use scq_engine::{bbox_execute, CollectionId, IndexKind, ObjectRef, Query, SpatialDatabase};
use scq_region::AaBox;

use crate::client::{Reply, Status};
use crate::gen::{Map, RangeOp, Rect, SolveOp, WriteOp, COLLECTIONS, UNIVERSE_SIDE};

/// One solution tuple, order-independent: sorted `(variable, slot)`.
pub type Tuple = Vec<(String, usize)>;

/// What a response must say.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `SOLVE`: the exact solution count, and every listed tuple must
    /// be one of these.
    Solve { tuples: BTreeSet<Tuple> },
    /// `QUERY`: all matching ids, ascending (the server lists a prefix).
    Query { ids: Vec<u64> },
    /// `INSERT`: the slot the server must assign.
    Slot(usize),
    /// `UPDATE` / `REMOVE` / `PING`: the exact response line.
    Line(&'static str),
    /// Map loading (`CREATE`, `INSERT`): how the response line starts.
    Prefix(&'static str),
    /// `STAT <coll>`: slots and live objects.
    Stat { len: usize, live: usize },
}

/// The server lists at most this many ids / tuples inline.
const MAX_LISTED: usize = 16;

pub struct Oracle {
    pub db: SpatialDatabase<2>,
}

impl Oracle {
    pub fn new(map: &Map) -> Oracle {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [UNIVERSE_SIDE, UNIVERSE_SIDE]));
        for (name, rects) in COLLECTIONS
            .iter()
            .zip([&map.states, &map.towns, &map.roads])
        {
            let coll = db.collection(name);
            for r in rects {
                db.insert(coll, r.region());
            }
        }
        Oracle { db }
    }

    pub fn coll(&self, name: &str) -> CollectionId {
        self.db
            .collection_id(name)
            .expect("the oracle holds every generated collection")
    }

    /// The engine query a `SolveOp` line describes.
    pub fn query(&self, op: &SolveOp) -> Query<2> {
        let sys = scq_core::parse_system(op.system).expect("generated systems parse");
        crate::layers::bind(sys, op)
    }

    pub fn expect_solve(&self, op: &SolveOp) -> Expect {
        let q = self.query(op);
        let result = bbox_execute(&self.db, &q, IndexKind::RTree).expect("generated queries run");
        let tuples = result
            .solutions
            .iter()
            .map(|s| {
                let mut t: Tuple = s
                    .iter()
                    .map(|(v, o)| (q.system.table.display(*v), o.index))
                    .collect();
                t.sort();
                t
            })
            .collect();
        Expect::Solve { tuples }
    }

    /// Ids of live `roads` whose box overlaps the probe, by linear scan.
    pub fn overlapping_roads(&self, op: &RangeOp) -> Vec<u64> {
        let mut ids = Vec::new();
        self.db.query_collection(
            self.coll("roads"),
            IndexKind::Scan,
            &op.corner_query(),
            &mut ids,
        );
        ids.sort_unstable();
        ids
    }

    pub fn expect_range(&self, op: &RangeOp) -> Expect {
        Expect::Query {
            ids: self.overlapping_roads(op),
        }
    }

    /// Mirrors one writer mutation and says what the server must answer.
    pub fn apply(&mut self, op: &WriteOp) -> Expect {
        let roads = self.coll("roads");
        let obj = |index| ObjectRef {
            collection: roads,
            index,
        };
        match *op {
            WriteOp::Insert(r) => Expect::Slot(self.db.insert(roads, r.region()).index),
            WriteOp::Update(slot, r) => {
                assert!(
                    self.db.update(obj(slot), r.region()),
                    "the writer updates live slots"
                );
                Expect::Line("OK updated")
            }
            WriteOp::Remove(slot) => {
                assert!(self.db.remove(obj(slot)), "the writer removes live slots");
                Expect::Line("OK removed")
            }
        }
    }

    /// The post-run sweep: `STAT <coll>` for every collection and a
    /// grid of `QUERY`s over the whole universe, with their expected
    /// answers — the oracle's mirrored state against the servers'.
    pub fn sweep(&self) -> Vec<(String, Expect)> {
        let mut checks: Vec<(String, Expect)> = COLLECTIONS
            .iter()
            .map(|name| {
                let c = self.coll(name);
                (
                    format!("STAT {name}"),
                    Expect::Stat {
                        len: self.db.collection_len(c),
                        live: self.db.live_len(c),
                    },
                )
            })
            .collect();
        for gx in 0..5 {
            for gy in 0..5 {
                let (x, y) = (gx as f64 * 200.0, gy as f64 * 200.0);
                let op = RangeOp(Rect::new(x, y, x + 200.0, y + 200.0));
                checks.push((op.line(), self.expect_range(&op)));
            }
        }
        checks
    }
}

impl Expect {
    /// `Err` carries the reason: `ERR`, `PARTIAL` and any disagreement
    /// with the oracle all count as a failed operation.
    pub fn check(&self, reply: &Reply) -> Result<(), String> {
        if reply.status() != Status::Ok {
            return Err(format!("not an OK answer: {:?}", reply.head));
        }
        match self {
            Expect::Line(want) => {
                if reply.head == *want {
                    Ok(())
                } else {
                    Err(format!("want {want:?}, got {:?}", reply.head))
                }
            }
            Expect::Prefix(want) => {
                if reply.head.starts_with(want) {
                    Ok(())
                } else {
                    Err(format!("want {want}…, got {:?}", reply.head))
                }
            }
            Expect::Stat { len, live } => {
                let got = (reply.number("len"), reply.number("live"));
                if got == (Some(*len as u64), Some(*live as u64)) {
                    Ok(())
                } else {
                    Err(format!("want len={len} live={live}, got {:?}", reply.head))
                }
            }
            Expect::Slot(slot) => {
                if reply.number("ref") == Some(*slot as u64) {
                    Ok(())
                } else {
                    Err(format!("want ref={slot}, got {:?}", reply.head))
                }
            }
            Expect::Query { ids } => {
                if reply.number("n") != Some(ids.len() as u64) {
                    return Err(format!("want n={}, got {:?}", ids.len(), reply.head));
                }
                let mut want: Vec<String> =
                    ids.iter().take(MAX_LISTED).map(|i| i.to_string()).collect();
                if ids.len() > MAX_LISTED {
                    want.push("+more".into());
                }
                if reply.field("ids") == Some(want.join(",").as_str()) {
                    Ok(())
                } else {
                    Err(format!("want ids={}, got {:?}", want.join(","), reply.head))
                }
            }
            Expect::Solve { tuples } => {
                if reply.number("n") != Some(tuples.len() as u64) {
                    return Err(format!("want n={}, got {:?}", tuples.len(), reply.head));
                }
                let listing = reply.field("tuples").unwrap_or("");
                let listed: Vec<&str> = listing
                    .split('|')
                    .filter(|t| !t.is_empty() && *t != "+more")
                    .collect();
                if listed.len() != tuples.len().min(MAX_LISTED) {
                    return Err(format!(
                        "want {} listed tuples, got {:?}",
                        tuples.len().min(MAX_LISTED),
                        reply.head
                    ));
                }
                for text in listed {
                    let parsed = parse_tuple(text)
                        .ok_or_else(|| format!("unreadable tuple {text:?} in {:?}", reply.head))?;
                    if !tuples.contains(&parsed) {
                        return Err(format!("tuple {text:?} is not a solution"));
                    }
                }
                Ok(())
            }
        }
    }
}

fn parse_tuple(text: &str) -> Option<Tuple> {
    let mut t: Tuple = text
        .split(',')
        .map(|pair| {
            let (v, slot) = pair.split_once('=')?;
            Some((v.to_string(), slot.parse().ok()?))
        })
        .collect::<Option<_>>()?;
    t.sort();
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{district_pool, smuggler_pool};

    fn reply(head: &str) -> Reply {
        Reply {
            head: head.into(),
            body: Vec::new(),
        }
    }

    #[test]
    fn smuggler_and_district_pools_have_non_empty_answers() {
        for seed in [1, 2] {
            let map = Map::generate(seed);
            let oracle = Oracle::new(&map);
            for op in smuggler_pool(&map, seed) {
                let Expect::Solve { tuples } = oracle.expect_solve(&op) else {
                    unreachable!()
                };
                assert!(tuples.len() >= 100, "smuggler answer: {}", tuples.len());
            }
            for op in district_pool(seed) {
                let Expect::Solve { tuples } = oracle.expect_solve(&op) else {
                    unreachable!()
                };
                assert!(!tuples.is_empty(), "district {:?} is empty", op.knowns);
            }
        }
    }

    #[test]
    fn answers_are_compared_not_just_counted() {
        let tuples: BTreeSet<Tuple> = [
            vec![("R".to_string(), 4), ("T".to_string(), 1)],
            vec![("R".to_string(), 5), ("T".to_string(), 2)],
        ]
        .into();
        let e = Expect::Solve { tuples };
        assert!(e
            .check(&reply("OK n=2 pruned=0 tuples=T=1,R=4|T=2,R=5 trace=3"))
            .is_ok());
        assert!(e
            .check(&reply("OK n=2 pruned=0 tuples=R=5,T=2|R=4,T=1 trace=3"))
            .is_ok());
        assert!(e
            .check(&reply("OK n=3 pruned=0 tuples=T=1,R=4|T=2,R=5"))
            .is_err());
        assert!(e
            .check(&reply("OK n=2 pruned=0 tuples=T=1,R=5|T=2,R=5"))
            .is_err());
        assert!(e.check(&reply("OK n=2 pruned=0 tuples=T=1,R=4")).is_err());
        assert!(e
            .check(&reply(
                "PARTIAL missing=1 n=2 pruned=0 tuples=T=1,R=4|T=2,R=5"
            ))
            .is_err());

        let q = Expect::Query {
            ids: (0..20).collect(),
        };
        let full = "OK n=20 pruned=1 ids=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,+more trace=1";
        assert!(q.check(&reply(full)).is_ok());
        assert!(q
            .check(&reply("OK n=20 pruned=1 ids=0,1,2 trace=1"))
            .is_err());
        assert!(q.check(&reply("ERR unknown collection")).is_err());
        let none = Expect::Query { ids: vec![] };
        assert!(none.check(&reply("OK n=0 pruned=4 ids= trace=1")).is_ok());

        assert!(Expect::Slot(7).check(&reply("OK ref=7")).is_ok());
        assert!(Expect::Slot(7).check(&reply("OK ref=8")).is_err());
        assert!(Expect::Line("OK removed")
            .check(&reply("OK removed"))
            .is_ok());
        assert!(Expect::Line("OK removed").check(&reply("OK noop")).is_err());
    }

    /// The harness compares runs made on different seeds, so the work
    /// a pool asks for must not depend on the seed.
    #[test]
    fn the_work_in_a_pool_barely_depends_on_the_seed() {
        let work = |seed: u64| -> (f64, f64) {
            let map = Map::generate(seed);
            let oracle = Oracle::new(&map);
            let checks = |ops: Vec<SolveOp>| -> f64 {
                ops.iter()
                    .step_by(4)
                    .map(|op| {
                        let q = oracle.query(op);
                        let r = bbox_execute(&oracle.db, &q, IndexKind::RTree).expect("runs");
                        (r.stats.exact_row_checks + r.stats.corner_cache_misses) as f64
                    })
                    .sum()
            };
            (
                checks(smuggler_pool(&map, seed)),
                checks(district_pool(seed)),
            )
        };
        let (a, b) = (work(21), work(22));
        for (x, y) in [(a.0, b.0), (a.1, b.1)] {
            assert!(
                (x - y).abs() / x < 0.03,
                "work moved with the seed: {x} vs {y}"
            );
        }
    }

    #[test]
    fn the_oracle_mirrors_mutations() {
        let map = Map::generate(4);
        let mut oracle = Oracle::new(&map);
        let r = Rect::new(700.0, 200.0, 730.0, 206.0);
        let probe = RangeOp(r);
        let before = oracle.overlapping_roads(&probe).len();
        let Expect::Slot(slot) = oracle.apply(&WriteOp::Insert(r)) else {
            unreachable!()
        };
        assert_eq!(slot, map.roads.len());
        assert_eq!(oracle.overlapping_roads(&probe).len(), before + 1);
        oracle.apply(&WriteOp::Remove(slot));
        assert_eq!(oracle.overlapping_roads(&probe).len(), before);
    }
}
