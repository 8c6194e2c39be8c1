//! Deterministic node→shard partition of the road network (DESIGN.md §13).
//!
//! The cluster router splits the sensor set across N workers. The map is a
//! pure function of `(n_nodes, n_shards)` — contiguous ranges, with the
//! first `n_nodes % n_shards` shards one node wider — so every router
//! instance, every restarted worker, and every test derives the *same*
//! partition without any coordination or persisted state. That is what lets
//! a supervisor replay the assignment to a rejoining worker and what keeps
//! scatter/gather composition byte-deterministic across reruns.
//!
//! The map also carries a **replica dimension** (DESIGN.md §16): every
//! shard is served by `n_replicas` interchangeable workers. The
//! shard×replica → worker assignment is derived, never stored — workers
//! are laid out shard-major (`worker = shard · R + replica`), so the
//! router, the supervisor, and every test agree on which flat worker index
//! backs which (shard, replica) pair without any coordination. Replicas
//! share the shard's node range; they differ only in which process
//! answers, which is why a replica failover never changes response bytes.

use std::ops::Range;

/// A sub-request destined for one shard: which of the request's node
/// positions that shard owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSlice {
    /// Owning shard index.
    pub shard: usize,
    /// Node indices (model sensor ids) this shard answers, in request order.
    pub nodes: Vec<usize>,
    /// For each entry of `nodes`, its row position in the merged response.
    pub positions: Vec<usize>,
}

/// Contiguous partition of `n_nodes` sensors across `n_shards` shards,
/// each served by `n_replicas` interchangeable workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    n_nodes: usize,
    n_shards: usize,
    n_replicas: usize,
}

impl ShardMap {
    /// A map over `n_nodes` sensors and `n_shards` single-replica shards.
    /// Shard count is clamped to `1..=n_nodes` — more workers than sensors
    /// would leave empty shards with nothing to answer.
    pub fn new(n_nodes: usize, n_shards: usize) -> Self {
        Self::replicated(n_nodes, n_shards, 1)
    }

    /// A map with `n_replicas` workers per shard (clamped ≥ 1). The node
    /// partition is independent of the replica count: adding replicas
    /// never moves a sensor.
    pub fn replicated(n_nodes: usize, n_shards: usize, n_replicas: usize) -> Self {
        let n_nodes = n_nodes.max(1);
        ShardMap { n_nodes, n_shards: n_shards.clamp(1, n_nodes), n_replicas: n_replicas.max(1) }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of sensors partitioned.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Replicas per shard.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// Total worker count (`shards × replicas`).
    pub fn n_workers(&self) -> usize {
        self.n_shards * self.n_replicas
    }

    /// Flat worker index backing `(shard, replica)` — shard-major, the
    /// derived assignment every component recomputes instead of storing.
    pub fn worker_index(&self, shard: usize, replica: usize) -> usize {
        assert!(shard < self.n_shards, "shard {shard} out of range ({})", self.n_shards);
        assert!(replica < self.n_replicas, "replica {replica} out of range ({})", self.n_replicas);
        shard * self.n_replicas + replica
    }

    /// The `(shard, replica)` pair a flat worker index serves.
    pub fn worker_role(&self, worker: usize) -> (usize, usize) {
        assert!(worker < self.n_workers(), "worker {worker} out of range ({})", self.n_workers());
        (worker / self.n_replicas, worker % self.n_replicas)
    }

    /// The contiguous node range shard `s` owns.
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.n_shards, "shard {s} out of range (cluster has {})", self.n_shards);
        let base = self.n_nodes / self.n_shards;
        let extra = self.n_nodes % self.n_shards;
        // Shards [0, extra) are one node wider.
        let lo = s * base + s.min(extra);
        let width = base + usize::from(s < extra);
        lo..lo + width
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: usize) -> usize {
        assert!(node < self.n_nodes, "node {node} out of range (map has {})", self.n_nodes);
        let base = self.n_nodes / self.n_shards;
        let extra = self.n_nodes % self.n_shards;
        let wide_span = extra * (base + 1);
        if node < wide_span {
            node / (base + 1)
        } else {
            extra + (node - wide_span) / base
        }
    }

    /// Splits a request's node selection (`None` = the full grid, in natural
    /// order) into per-shard slices, shard-ordered. Empty slices are
    /// omitted: a request touching one shard costs one RPC, not N.
    pub fn scatter(&self, nodes: Option<&[usize]>) -> Vec<ShardSlice> {
        let mut slices: Vec<ShardSlice> = (0..self.n_shards)
            .map(|shard| ShardSlice { shard, nodes: Vec::new(), positions: Vec::new() })
            .collect();
        match nodes {
            None => {
                for node in 0..self.n_nodes {
                    let s = self.shard_of(node);
                    slices[s].nodes.push(node);
                    slices[s].positions.push(node);
                }
            }
            Some(sel) => {
                for (pos, &node) in sel.iter().enumerate() {
                    let s = self.shard_of(node);
                    slices[s].nodes.push(node);
                    slices[s].positions.push(pos);
                }
            }
        }
        slices.retain(|s| !s.nodes.is_empty());
        slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_disjoint_and_total() {
        for (n, s) in [(10, 3), (621, 4), (7, 7), (5, 1), (3, 8)] {
            let map = ShardMap::new(n, s);
            let mut seen = vec![0usize; n];
            for shard in 0..map.n_shards() {
                for node in map.range(shard) {
                    seen[node] += 1;
                    assert_eq!(map.shard_of(node), shard, "n={n} s={s} node={node}");
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "n={n} s={s}: every node exactly once");
        }
    }

    #[test]
    fn shard_count_clamps_to_node_count() {
        let map = ShardMap::new(3, 8);
        assert_eq!(map.n_shards(), 3, "no empty shards");
        assert_eq!(ShardMap::new(10, 0).n_shards(), 1);
    }

    #[test]
    fn wide_shards_come_first() {
        let map = ShardMap::new(10, 3); // 4 + 3 + 3
        assert_eq!(map.range(0), 0..4);
        assert_eq!(map.range(1), 4..7);
        assert_eq!(map.range(2), 7..10);
    }

    #[test]
    fn scatter_full_grid_covers_every_position() {
        let map = ShardMap::new(10, 3);
        let slices = map.scatter(None);
        assert_eq!(slices.len(), 3);
        let mut all: Vec<(usize, usize)> = Vec::new();
        for sl in &slices {
            assert_eq!(sl.nodes, sl.positions, "full grid: position == node id");
            all.extend(sl.nodes.iter().zip(&sl.positions).map(|(&n, &p)| (n, p)));
        }
        assert_eq!(all, (0..10).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_subset_preserves_request_positions() {
        let map = ShardMap::new(10, 3); // 0..4 | 4..7 | 7..10
        let slices = map.scatter(Some(&[9, 0, 5, 1]));
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0], ShardSlice { shard: 0, nodes: vec![0, 1], positions: vec![1, 3] });
        assert_eq!(slices[1], ShardSlice { shard: 1, nodes: vec![5], positions: vec![2] });
        assert_eq!(slices[2], ShardSlice { shard: 2, nodes: vec![9], positions: vec![0] });
    }

    #[test]
    fn replica_dimension_is_shard_major_and_round_trips() {
        let map = ShardMap::replicated(10, 3, 2);
        assert_eq!(map.n_replicas(), 2);
        assert_eq!(map.n_workers(), 6);
        for s in 0..3 {
            for r in 0..2 {
                let w = map.worker_index(s, r);
                assert_eq!(w, s * 2 + r);
                assert_eq!(map.worker_role(w), (s, r));
            }
        }
    }

    #[test]
    fn single_replica_map_matches_the_legacy_constructor() {
        let map = ShardMap::new(10, 3);
        assert_eq!(map, ShardMap::replicated(10, 3, 1));
        assert_eq!(map.n_workers(), map.n_shards());
        assert_eq!(map.worker_index(2, 0), 2, "R=1: worker index == shard index");
        assert_eq!(ShardMap::replicated(10, 3, 0).n_replicas(), 1, "replicas clamp to 1");
    }

    #[test]
    fn replicas_never_move_the_node_partition() {
        for r in 1..=4 {
            let map = ShardMap::replicated(621, 4, r);
            let solo = ShardMap::new(621, 4);
            for s in 0..4 {
                assert_eq!(map.range(s), solo.range(s), "replicas={r} shard={s}");
            }
        }
    }

    #[test]
    fn scatter_omits_untouched_shards() {
        let map = ShardMap::new(10, 3);
        let slices = map.scatter(Some(&[4, 5, 6]));
        assert_eq!(slices.len(), 1, "single-shard request costs one RPC");
        assert_eq!(slices[0].shard, 1);
    }
}
