//! Consistent hashing (Karger et al.) with virtual nodes — how clients route
//! a key's 64-bit hashcode to the shard owning its partition (§4, Fig. 4).

use std::collections::BTreeSet;

use hydra_store::hash_key;

/// Identifies a shard (primary partition owner) cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

/// Virtual nodes per shard.
const VNODES: u32 = 64;

/// A consistent-hash ring of shards with `VNODES` virtual nodes each.
///
/// Virtual nodes smooth the key distribution: with `v` vnodes per shard the
/// expected load imbalance is O(sqrt(log n / v)). The paper's fine-grained
/// partitioning argument (§4.1.1) corresponds to raising shard count and
/// vnodes.
///
/// The points are one vector sorted by position, rebuilt when a shard joins
/// or leaves, so routing a key is a binary search over contiguous memory.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    points: Vec<(u64, ShardId)>,
    shards: BTreeSet<ShardId>,
}

impl HashRing {
    /// Creates an empty ring.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn point(shard: ShardId, vnode: u32) -> u64 {
        let mut tag = [0u8; 12];
        tag[..4].copy_from_slice(&shard.0.to_le_bytes());
        tag[4..8].copy_from_slice(&vnode.to_le_bytes());
        tag[8..].copy_from_slice(b"vndh");
        hash_key(&tag)
    }

    /// Adds a shard's virtual nodes to the ring.
    pub(crate) fn add_shard(&mut self, shard: ShardId) {
        if !self.shards.insert(shard) {
            return; // already present; the points are in place
        }
        self.points
            .extend((0..VNODES).map(|v| (Self::point(shard, v), shard)));
        self.points.sort_unstable();
    }

    /// Removes a shard (fail-over re-routing, node drain).
    pub(crate) fn remove_shard(&mut self, shard: ShardId) {
        if !self.shards.remove(&shard) {
            return;
        }
        self.points.retain(|&(_, s)| s != shard);
    }

    /// Distinct shards present, in ascending id order.
    pub(crate) fn shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.iter().copied()
    }

    /// Routes a key hash to its owning shard (clockwise successor).
    fn route_hash(&self, hash: u64) -> Option<ShardId> {
        let i = self.points.partition_point(|&(pos, _)| pos < hash);
        self.points
            .get(i)
            .or_else(|| self.points.first())
            .map(|&(_, s)| s)
    }

    /// Routes a key to its owning shard.
    pub fn route(&self, key: &[u8]) -> Option<ShardId> {
        self.route_hash(hash_key(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let mut r = HashRing::new();
        for s in 0..4 {
            r.add_shard(ShardId(s));
        }
        for i in 0..1_000 {
            let k = format!("key-{i}");
            let a = r.route(k.as_bytes()).unwrap();
            let b = r.route(k.as_bytes()).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(r.shards().count(), 4);
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let r = HashRing::new();
        assert_eq!(r.route(b"anything"), None);
    }

    #[test]
    fn load_is_roughly_balanced() {
        let mut r = HashRing::new();
        let shards = 8u32;
        for s in 0..shards {
            r.add_shard(ShardId(s));
        }
        let mut counts = vec![0usize; shards as usize];
        let n = 80_000;
        for i in 0..n {
            let k = format!("user:{i}");
            counts[r.route(k.as_bytes()).unwrap().0 as usize] += 1;
        }
        let expect = n / shards as usize;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.35, "shard {s} holds {c} of {n} (dev {dev:.2})");
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        let mut r = HashRing::new();
        for s in 0..5 {
            r.add_shard(ShardId(s));
        }
        let keys: Vec<String> = (0..5_000).map(|i| format!("k{i}")).collect();
        let before: Vec<ShardId> = keys
            .iter()
            .map(|k| r.route(k.as_bytes()).unwrap())
            .collect();
        r.remove_shard(ShardId(2));
        let mut moved_from_others = 0;
        for (k, &was) in keys.iter().zip(&before) {
            let now = r.route(k.as_bytes()).unwrap();
            assert_ne!(now, ShardId(2));
            if was != ShardId(2) && now != was {
                moved_from_others += 1;
            }
        }
        assert_eq!(
            moved_from_others, 0,
            "consistent hashing must not reshuffle keys of surviving shards"
        );
    }

    #[test]
    fn adding_a_shard_only_moves_keys_to_it() {
        // Monotone consistent hashing: a join may steal keys for the new
        // shard, but must never reshuffle keys between surviving shards.
        let mut r = HashRing::new();
        for s in 0..5 {
            r.add_shard(ShardId(s));
        }
        let keys: Vec<String> = (0..5_000).map(|i| format!("k{i}")).collect();
        let before: Vec<ShardId> = keys
            .iter()
            .map(|k| r.route(k.as_bytes()).unwrap())
            .collect();
        r.add_shard(ShardId(5));
        assert_eq!(r.shards().count(), 6);
        let mut moved_to_new = 0;
        for (k, &was) in keys.iter().zip(&before) {
            let now = r.route(k.as_bytes()).unwrap();
            if now != was {
                assert_eq!(
                    now,
                    ShardId(5),
                    "join moved {k} from {was:?} to {now:?}, not to the joiner"
                );
                moved_to_new += 1;
            }
        }
        assert!(moved_to_new > 0, "the joiner must take over some ranges");

        // Removing the joiner restores the exact prior routing.
        r.remove_shard(ShardId(5));
        assert_eq!(r.shards().count(), 5);
        for (k, &was) in keys.iter().zip(&before) {
            assert_eq!(r.route(k.as_bytes()).unwrap(), was, "{k}");
        }
    }

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut r = HashRing::new();
        r.add_shard(ShardId(7));
        let points_once = r.points.len();
        r.add_shard(ShardId(7));
        assert_eq!(r.points.len(), points_once);
        assert_eq!(r.shards().count(), 1);
        r.remove_shard(ShardId(7));
        r.remove_shard(ShardId(7));
        assert_eq!(r.shards().count(), 0);
        assert!(r.points.is_empty());
    }

    #[test]
    fn sorted_points_route_as_an_ordered_map_does() {
        // The tree walk the sorted vector replaced, as the reference: the
        // clockwise successor of a hash in a map keyed by ring position.
        fn reference(map: &std::collections::BTreeMap<u64, ShardId>, key: &[u8]) -> ShardId {
            let h = hash_key(key);
            let (_, &s) = map.range(h..).next().or_else(|| map.iter().next()).unwrap();
            s
        }
        let mut ring = HashRing::new();
        let mut map = std::collections::BTreeMap::new();
        let steps: [(bool, u32); 9] = [
            (true, 0),
            (true, 1),
            (true, 2),
            (true, 3),
            (false, 1),
            (true, 4),
            (false, 0),
            (true, 1),
            (false, 3),
        ];
        for (add, id) in steps {
            let shard = ShardId(id);
            if add {
                ring.add_shard(shard);
                map.extend((0..VNODES).map(|v| (HashRing::point(shard, v), shard)));
            } else {
                ring.remove_shard(shard);
                map.retain(|_, s| *s != shard);
            }
            assert_eq!(ring.points.len(), map.len());
            for i in 0..10_000 {
                let k = format!("route-{i}");
                assert_eq!(
                    ring.route(k.as_bytes()),
                    Some(reference(&map, k.as_bytes())),
                    "{k} after {} {shard:?}",
                    if add { "adding" } else { "removing" }
                );
            }
        }
    }

    #[test]
    fn wraparound_routes_to_first_point() {
        let mut r = HashRing::new();
        r.add_shard(ShardId(0));
        // Any hash beyond the single point wraps to it.
        assert_eq!(r.route_hash(u64::MAX), Some(ShardId(0)));
        assert_eq!(r.route_hash(0), Some(ShardId(0)));
    }
}
