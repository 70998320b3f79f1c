//! Request generators following the paper's methodology.
//!
//! Section 6.1: "For each overlay, random nodes are chosen to insert
//! objects with different IDs 100 times. After that, those 100 objects
//! are queried one by one again by randomly chosen nodes."
//!
//! Section 6.2 / Section 3: one designated origin node generates 1000
//! insertions, then 1000 lookups for the same IDs.

use mpil_id::Id;
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for an insert-then-lookup workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of objects (insert/lookup pairs).
    pub objects: usize,
    /// Number of overlay nodes (origin indices are drawn below this).
    pub nodes: usize,
    /// If set, all inserts and lookups originate at this node (the
    /// Section 6.2 methodology); otherwise origins are uniformly random
    /// per operation (Section 6.1).
    pub fixed_origin: Option<NodeIdx>,
    /// Master seed.
    pub seed: u64,
}

/// A generated workload: object IDs plus insert/lookup origins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertLookupWorkload {
    /// Object IDs, unique.
    pub objects: Vec<Id>,
    /// Origin node of each insertion (`objects[i]` inserted from
    /// `insert_origins[i]`).
    pub insert_origins: Vec<NodeIdx>,
    /// Origin node of each lookup.
    pub lookup_origins: Vec<NodeIdx>,
}

impl InsertLookupWorkload {
    /// Generates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes == 0`, `config.objects == 0`, or the fixed
    /// origin is out of range.
    pub fn generate(config: WorkloadConfig) -> Self {
        assert!(config.nodes > 0, "need at least one node");
        assert!(config.objects > 0, "need at least one object");
        if let Some(o) = config.fixed_origin {
            assert!(o.index() < config.nodes, "fixed origin out of range");
        }
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut objects = Vec::with_capacity(config.objects);
        let mut seen =
            fxhash::FxHashSet::with_capacity_and_hasher(config.objects, Default::default());
        while objects.len() < config.objects {
            let id = Id::random(&mut rng);
            if seen.insert(id) {
                objects.push(id);
            }
        }
        let origin = |rng: &mut SmallRng| match config.fixed_origin {
            Some(o) => o,
            None => NodeIdx::new(rng.gen_range(0..config.nodes as u32)),
        };
        let insert_origins = (0..config.objects).map(|_| origin(&mut rng)).collect();
        let lookup_origins = (0..config.objects).map(|_| origin(&mut rng)).collect();
        InsertLookupWorkload {
            objects,
            insert_origins,
            lookup_origins,
        }
    }

    /// Number of insert/lookup pairs.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` for an empty workload (never produced by
    /// [`InsertLookupWorkload::generate`]).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates `(object, insert_origin)` pairs.
    pub fn inserts(&self) -> impl Iterator<Item = (Id, NodeIdx)> + '_ {
        self.objects
            .iter()
            .copied()
            .zip(self.insert_origins.iter().copied())
    }

    /// Iterates `(object, lookup_origin)` pairs.
    pub fn lookups(&self) -> impl Iterator<Item = (Id, NodeIdx)> + '_ {
        self.objects
            .iter()
            .copied()
            .zip(self.lookup_origins.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(objects: usize, nodes: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            objects,
            nodes,
            fixed_origin: None,
            seed,
        }
    }

    #[test]
    fn objects_are_unique_and_counted() {
        let w = InsertLookupWorkload::generate(cfg(500, 100, 1));
        assert_eq!(w.len(), 500);
        let set: fxhash::FxHashSet<_> = w.objects.iter().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn origins_are_in_range() {
        let w = InsertLookupWorkload::generate(cfg(200, 37, 2));
        for (_, o) in w.inserts().chain(w.lookups()) {
            assert!(o.index() < 37);
        }
    }

    #[test]
    fn fixed_origin_pins_everything() {
        let mut c = cfg(50, 10, 3);
        c.fixed_origin = Some(NodeIdx::new(4));
        let w = InsertLookupWorkload::generate(c);
        assert!(w.inserts().all(|(_, o)| o == NodeIdx::new(4)));
        assert!(w.lookups().all(|(_, o)| o == NodeIdx::new(4)));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = InsertLookupWorkload::generate(cfg(100, 20, 7));
        let b = InsertLookupWorkload::generate(cfg(100, 20, 7));
        assert_eq!(a, b);
        let c = InsertLookupWorkload::generate(cfg(100, 20, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn origins_vary_when_not_fixed() {
        let w = InsertLookupWorkload::generate(cfg(100, 50, 9));
        let distinct: fxhash::FxHashSet<_> = w.insert_origins.iter().collect();
        assert!(distinct.len() > 10, "origins should be spread out");
    }

    #[test]
    #[should_panic(expected = "fixed origin out of range")]
    fn rejects_out_of_range_origin() {
        let mut c = cfg(10, 5, 0);
        c.fixed_origin = Some(NodeIdx::new(5));
        let _ = InsertLookupWorkload::generate(c);
    }
}
